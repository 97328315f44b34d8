"""File formats: counts JSON, curve CSV/JSON, report JSON, scan CSV,
peak-areas CSV, tag-stream text.

Every format is UTF-8 text and carries a schema name and version.
Writers are deterministic (sorted keys, shortest-roundtrip floats, no
timestamps), so identical inputs produce byte-identical files.  Readers
raise FormatError with a line or field diagnostic on malformed input,
and every writer round-trips through its reader without loss.
"""

import csv
import json
import math
import sys
import warnings

import numpy as np

from .counts_analyzer import CountSummary
from .errors import FormatError
from .threshold_solver import ThresholdCurve

SCHEMA_VERSION = 1


def _pyify(obj):
    """Recursively convert numpy scalars/arrays for JSON encoding."""
    if isinstance(obj, dict):
        return {str(k): _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_pyify(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _dump_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_pyify(doc), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _undecodable(path):
    """FormatError naming the line and byte offset of the first byte
    that is not UTF-8.

    A text reader decodes in chunks and its error counts from the chunk,
    so the file is read again as bytes to place the byte in the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text reader ends a line at \n, \r\n or a lone \r
        head = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = head.count(b"\n") + 1
        return FormatError(f"{path}: line {line}: byte offset {exc.start}: "
                           f"not UTF-8 text ({exc.reason})")
    return FormatError(f"{path}: not UTF-8 text")


def _lines(path, fh):
    """The lines of the open text file fh, with a decoding error named."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise _undecodable(path) from exc


def read_json(path):
    """The parsed JSON document at path, or a FormatError naming the place."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise _undecodable(path) from exc
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror}") from exc


def _load_json(path, expected_schema):
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object at top level")
    schema = doc.get("schema")
    if schema != expected_schema:
        raise FormatError(
            f"{path}: field 'schema': expected {expected_schema!r}, got {schema!r}"
        )
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise FormatError(
            f"{path}: field 'schema_version': unsupported version {version!r}"
        )
    return doc


def _field(doc, path, name, kind):
    if name not in doc:
        raise FormatError(f"{path}: missing field {name!r}")
    return _typed(path, name, doc[name], kind)


def _typed(path, name, value, kind):
    if not isinstance(value, kind) or isinstance(value, bool):
        wanted = (kind.__name__ if isinstance(kind, type)
                  else "/".join(k.__name__ for k in kind))
        raise FormatError(
            f"{path}: field {name!r}: expected {wanted}, got {type(value).__name__}"
        )
    # json.load accepts the non-standard literals Infinity and NaN, and ints
    # too large for a float
    if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
        raise FormatError(f"{path}: field {name!r}: must be finite")
    return value


def _object(doc, path, name):
    """The JSON object under name, or None where it is absent or null."""
    value = doc.get(name)
    if value is not None and not isinstance(value, dict):
        raise FormatError(f"{path}: field {name!r}: expected object")
    return value


# ---------------------------------------------------------------- counts

def write_counts_json(path, counts):
    doc = {
        "schema": "nongauss-counts",
        "schema_version": SCHEMA_VERSION,
        "kind": counts.kind,
        "duration_s": counts.duration_s,
        "generation_rate_hz": counts.generation_rate_hz,
        "generation_rate_sigma_hz": counts.generation_rate_sigma_hz,
        "success_count": counts.success_count,
        "error_count_a": counts.error_count_a,
        "error_count_b": counts.error_count_b,
        "singles": counts.singles,
        "meta": counts.meta,
    }
    _dump_json(path, doc)


def read_counts_json(path):
    doc = _load_json(path, "nongauss-counts")
    kind = _field(doc, path, "kind", str)
    fields = {}
    for name in ("duration_s", "generation_rate_hz", "success_count",
                 "error_count_a"):
        fields[name] = _field(doc, path, name, (int, float))
    error_b = doc.get("error_count_b")
    if error_b is not None:
        error_b = _typed(path, "error_count_b", error_b, (int, float))
    rate_sigma = _typed(path, "generation_rate_sigma_hz",
                        doc.get("generation_rate_sigma_hz", 0.0), (int, float))
    singles = _object(doc, path, "singles")
    for name, value in (singles or {}).items():
        _typed(path, f"singles.{name}", value, (int, float))
    meta = _object(doc, path, "meta") or {}
    try:
        return CountSummary(kind=kind, **fields, error_count_b=error_b,
                            generation_rate_sigma_hz=rate_sigma, singles=singles,
                            meta=meta)
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ----------------------------------------------------------------- curve

def write_curve_json(path, curve):
    doc = {
        "schema": "nongauss-threshold-curve",
        "schema_version": SCHEMA_VERSION,
        "kind": curve.kind,
        "eta": curve.eta,
        "t_bs": curve.t_bs,
        "n_modes": curve.n_modes,
        "alphas": curve.alphas,
        "p_error": curve.p_error,
        "p_success": curve.p_success,
        "residuals": curve.residuals,
        "params": list(curve.params),
        "meta": curve.meta,
    }
    _dump_json(path, doc)


def _float_array(path, doc, name):
    raw = _field(doc, path, name, list)
    out = []
    for v in raw:
        if v is None:
            out.append(math.nan)
        elif isinstance(v, (int, float)):
            try:
                out.append(float(v))
            except OverflowError:
                # json.load keeps ints too large for a float
                raise FormatError(f"{path}: field {name!r}: must be finite") from None
        else:
            raise FormatError(f"{path}: field {name!r}: non-numeric entry {v!r}")
    return np.array(out)


def read_curve_json(path):
    doc = _load_json(path, "nongauss-threshold-curve")
    fields = {
        "kind": _field(doc, path, "kind", str),
        "eta": _field(doc, path, "eta", (int, float)),
        "t_bs": _field(doc, path, "t_bs", (int, float)),
        "n_modes": _field(doc, path, "n_modes", int),
    }
    points = {name: _float_array(path, doc, name)
              for name in ("alphas", "p_error", "p_success", "residuals")}
    points["params"] = tuple(_field(doc, path, "params", list))
    meta = _object(doc, path, "meta") or {}
    # one entry per point in every array
    short = min(points, key=lambda name: len(points[name]))
    long = max(points, key=lambda name: len(points[name]))
    if len(points[short]) < len(points[long]):
        raise FormatError(f"{path}: field {short!r}: {len(points[short])} entries, "
                          f"but {long!r} has {len(points[long])}")
    try:
        return ThresholdCurve(**fields, **points, meta=meta)
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


CURVE_CSV_HEADER = ["p_error", "p_success_threshold", "alpha", "residual"]
SCAN_CSV_HEADER = ["attenuation", "p_e", "sigma_pe", "p_s", "sigma_ps"]
PEAK_AREAS_CSV_HEADER = ["delay_index", "area"]


def _write_csv(path, comment, header, rows):
    """A '#' comment line, the header, then one line per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _float_rows(*columns):
    """One row of shortest-roundtrip floats per index of the columns."""
    return ([repr(float(v)) for v in row] for row in zip(*columns))


def write_curve_csv(path, curve):
    _write_csv(path, f"nongauss-threshold-curve-csv v{SCHEMA_VERSION} "
               f"kind={curve.kind} eta={curve.eta!r} t_bs={curve.t_bs!r} "
               f"n_modes={curve.n_modes}", CURVE_CSV_HEADER,
               _float_rows(curve.p_error, curve.p_success, curve.alphas,
                           curve.residuals))


def _read_csv_columns(path, expected_header):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            # the lines that are not comments, with their numbers in the file
            numbered = [(n, ln) for n, ln in enumerate(_lines(path, fh), start=1)
                        if not ln.startswith("#")]
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror}") from exc
    reader = csv.reader(ln for _, ln in numbered)
    # (file line the row ends on, fields)
    rows = [(numbered[reader.line_num - 1][0], row) for row in reader]
    if not rows or rows[0][1] != expected_header:
        raise FormatError(
            f"{path}: expected header {','.join(expected_header)!r}"
        )
    columns = [[] for _ in expected_header]
    for i, row in rows[1:]:
        if len(row) != len(expected_header):
            raise FormatError(f"{path}: line {i}: expected {len(expected_header)} fields")
        for j, cell in enumerate(row):
            try:
                columns[j].append(float(cell))
            except ValueError as exc:
                raise FormatError(f"{path}: line {i}: bad number {cell!r}") from exc
    return [np.array(col) for col in columns]


def read_curve_csv(path):
    """Columns of a curve CSV as arrays (the JSON form is lossless)."""
    return dict(zip(CURVE_CSV_HEADER, _read_csv_columns(path, CURVE_CSV_HEADER)))


# ------------------------------------------------------------------ scan

def write_scan_csv(path, scan):
    _write_csv(path, f"nongauss-attenuation-scan-csv v{SCHEMA_VERSION} "
               "mode=deterministic", SCAN_CSV_HEADER,
               _float_rows(scan.attenuations, scan.p_error, scan.sigma_p_error,
                           scan.p_success, scan.sigma_p_success))


def read_scan_csv(path):
    return dict(zip(SCAN_CSV_HEADER, _read_csv_columns(path, SCAN_CSV_HEADER)))


# ------------------------------------------------------------ peak areas

def write_peak_areas_csv(path, delays, areas):
    delays = np.asarray(delays)
    areas = np.asarray(areas, dtype=float)
    if delays.shape != areas.shape:
        raise FormatError("delays and areas must have matching shapes")
    _write_csv(path, f"nongauss-peak-areas-csv v{SCHEMA_VERSION}",
               PEAK_AREAS_CSV_HEADER,
               ([int(n), repr(float(area))] for n, area in zip(delays, areas)))


def read_peak_areas_csv(path):
    delays, areas = _read_csv_columns(path, PEAK_AREAS_CSV_HEADER)
    return delays.astype(int), areas


# ---------------------------------------------------------------- report

def write_report_json(path, report, schema="nongauss-analysis-report"):
    doc = dict(report)
    doc["schema"] = schema
    doc["schema_version"] = SCHEMA_VERSION
    _dump_json(path, doc)


def read_report_json(path, schema="nongauss-analysis-report"):
    return _load_json(path, schema)


# ------------------------------------------------------------------ tags

TAG_ID_MAX = 8  # characters in a detector id
# pulse index, detector id and time per line; the id field is one
# character wider than an id may be, so a longer id shows
TAG_DTYPE = [("p", "i8"), ("d", f"U{TAG_ID_MAX + 1}"), ("t", "f8")]
TAG_CHUNK = 1 << 16  # lines joined per write, so memory stays flat
PULSE_MIN, PULSE_MAX = -(1 << 63), (1 << 63) - 1  # the int64 pulse column


def _tag_id_problem(text):
    if text.split() != [text]:
        return "is empty or contains whitespace"
    if len(text) > TAG_ID_MAX:
        return f"is longer than {TAG_ID_MAX} characters"
    if text.startswith("#"):
        return "starts with '#'"
    return None


def write_tag_stream(path, tags):
    """One line per click: pulse_index detector_id time_ps."""
    pulse = np.asarray(tags["pulse_index"], dtype=np.int64)
    det = np.asarray(tags["detector"])
    time_ps = np.asarray(tags["time_ps"], dtype=float)
    if not (pulse.shape == det.shape == time_ps.shape):
        raise FormatError("pulse_index, detector and time_ps must have matching "
                          f"shapes, got {pulse.shape}, {det.shape} and {time_ps.shape}")
    for text in map(str, np.unique(det).tolist()):
        problem = _tag_id_problem(text)
        if problem:
            raise FormatError(f"detector id {text!r} {problem}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# nongauss-tags v{SCHEMA_VERSION}\n")
        fh.write("# pulse_index detector_id time_ps\n")
        for i in range(0, len(pulse), TAG_CHUNK):
            rows = slice(i, i + TAG_CHUNK)
            fh.write("".join([
                f"{p} {d} {t!r}\n" for p, d, t in
                zip(pulse[rows].tolist(), det[rows].tolist(), time_ps[rows].tolist())
            ]))


def read_tag_stream(path):
    """Tag arrays from a tag stream, parsed in C by np.loadtxt.

    A file the C parser rejects or might read differently (a parse
    error, a non-finite time, an id over TAG_ID_MAX characters, no data
    lines) goes to the line parser, which accepts the same files and
    raises the FormatError that names the line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            skip = next((i for i, line in enumerate(_lines(path, fh))
                         if line.strip() and not line.startswith("#")), None)
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror}") from exc
    if skip is None:  # no data lines
        return _parse_tag_lines(path)
    try:
        with warnings.catch_warnings():
            # numpy 1.x reads "1.0" into an integer field with a
            # DeprecationWarning; the line parser refuses it
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(path, dtype=TAG_DTYPE, comments=None,
                              skiprows=skip, ndmin=1, encoding="utf-8")
    except (ValueError, DeprecationWarning):
        return _parse_tag_lines(path)
    if ((np.char.str_len(rows["d"]) > TAG_ID_MAX).any()
            or not np.isfinite(rows["t"]).all()):
        return _parse_tag_lines(path)
    return {
        "pulse_index": rows["p"].copy(),
        "detector": rows["d"].astype(f"U{TAG_ID_MAX}"),
        "time_ps": rows["t"].copy(),
    }


def _parse_tag_lines(path):
    """The tag-stream grammar, one Python line at a time."""
    pulses, dets, times = [], [], []
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror}") from exc
    with fh:
        for i, line in enumerate(_lines(path, fh), start=1):
            if line.startswith("#") or not line.strip():
                continue
            parts = line.split()
            if len(parts) != 3:
                raise FormatError(f"{path}: line {i}: expected 3 fields")
            try:
                pulse = int(parts[0])
                t = float(parts[2])
            except ValueError as exc:
                raise FormatError(f"{path}: line {i}: {exc}") from exc
            if not PULSE_MIN <= pulse <= PULSE_MAX:
                raise FormatError(f"{path}: line {i}: pulse index {parts[0]} "
                                  "does not fit in a 64-bit integer")
            if not math.isfinite(t):
                raise FormatError(f"{path}: line {i}: time must be finite")
            if len(parts[1]) > TAG_ID_MAX:
                raise FormatError(f"{path}: line {i}: detector id {parts[1]!r} "
                                  f"is longer than {TAG_ID_MAX} characters")
            pulses.append(pulse)
            times.append(t)
            dets.append(parts[1])
    return {
        "pulse_index": np.array(pulses, dtype=np.int64),
        "detector": np.array(dets, dtype=f"U{TAG_ID_MAX}"),
        "time_ps": np.array(times),
    }
