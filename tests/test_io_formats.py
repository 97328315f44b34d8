import re

import numpy as np
import pytest

from nongauss import io_formats
from nongauss.counts_analyzer import CountSummary, attenuation_scan
from nongauss.errors import FormatError
from nongauss.io_formats import (
    read_counts_json,
    read_curve_csv,
    read_curve_json,
    read_peak_areas_csv,
    read_report_json,
    read_scan_csv,
    read_tag_stream,
    write_counts_json,
    write_curve_csv,
    write_curve_json,
    write_peak_areas_csv,
    write_report_json,
    write_scan_csv,
    write_tag_stream,
)
from nongauss.threshold_solver import ThresholdCurve

PAIR_COUNTS = CountSummary(
    kind="pair",
    duration_s=1200.0,
    generation_rate_hz=11.32e6,
    success_count=244113,
    error_count_a=365,
    error_count_b=430,
    generation_rate_sigma_hz=0.12e6,
    singles={"a1": 1000, "b1": 1100},
)


def _curve():
    return ThresholdCurve(
        kind="pair",
        eta=0.1467,
        t_bs=0.5,
        n_modes=1,
        alphas=np.array([1e2, 1e3, np.nan]),
        p_error=np.array([1e-4, 1e-6, 1e-8]),
        p_success=np.array([1e-2, 1e-3, 1e-4]),
        residuals=np.array([1e-9, 2e-9, 0.0]),
        params=({"mu": 0.1}, {"mu": 0.01}, {}),
        meta={"note": "fixture"},
    )


def test_counts_roundtrip(tmp_path):
    path = tmp_path / "counts.json"
    write_counts_json(path, PAIR_COUNTS)
    back = read_counts_json(path)
    assert back == PAIR_COUNTS
    assert back.singles == PAIR_COUNTS.singles


def test_counts_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_counts_json(p1, PAIR_COUNTS)
    write_counts_json(p2, PAIR_COUNTS)
    assert p1.read_bytes() == p2.read_bytes()


def test_counts_bad_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "nongauss-counts",\n  "oops"\n}')
    with pytest.raises(FormatError, match=r"line \d+"):
        read_counts_json(path)


def test_counts_missing_field_named(tmp_path):
    path = tmp_path / "counts.json"
    write_counts_json(path, PAIR_COUNTS)
    import json

    doc = json.loads(path.read_text())
    del doc["success_count"]
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="success_count"):
        read_counts_json(path)


@pytest.mark.parametrize("literal", ["Infinity", "NaN"])
@pytest.mark.parametrize("field", ["duration_s", "error_count_b",
                                   "generation_rate_sigma_hz", "singles.a1"])
def test_counts_non_finite_field_named(tmp_path, field, literal):
    path = tmp_path / "counts.json"
    write_counts_json(path, PAIR_COUNTS)
    text = path.read_text()
    key = field.split(".")[-1]
    value = PAIR_COUNTS.singles[key] if "." in field else getattr(PAIR_COUNTS, key)
    old = f'"{key}": {value}'
    assert text.count(old) == 1
    path.write_text(text.replace(old, f'"{key}": {literal}'))
    with pytest.raises(FormatError, match=rf"field '{field}': must be finite"):
        read_counts_json(path)


def test_counts_wrong_schema(tmp_path):
    path = tmp_path / "counts.json"
    path.write_text('{"schema": "something-else", "schema_version": 1}')
    with pytest.raises(FormatError, match="schema"):
        read_counts_json(path)


def test_curve_json_roundtrip(tmp_path):
    path = tmp_path / "curve.json"
    curve = _curve()
    write_curve_json(path, curve)
    back = read_curve_json(path)
    assert back.kind == curve.kind
    assert back.eta == curve.eta
    np.testing.assert_array_equal(back.p_error, curve.p_error)
    np.testing.assert_array_equal(back.p_success, curve.p_success)
    # NaN alpha survives via null (sorting by p_error puts it first)
    assert np.isnan(back.alphas[0])
    assert list(back.params) == list(curve.params)
    assert back.meta == {"note": "fixture"}


def test_curve_csv_roundtrip(tmp_path):
    path = tmp_path / "curve.csv"
    curve = _curve()
    write_curve_csv(path, curve)
    cols = read_curve_csv(path)
    np.testing.assert_array_equal(cols["p_error"], curve.p_error)
    np.testing.assert_array_equal(cols["p_success_threshold"], curve.p_success)
    assert np.isnan(cols["alpha"][0])


def test_scan_csv_roundtrip(tmp_path):
    scan = attenuation_scan(PAIR_COUNTS, a_max=0.1, step=0.05)
    path = tmp_path / "scan.csv"
    write_scan_csv(path, scan)
    cols = read_scan_csv(path)
    np.testing.assert_array_equal(cols["attenuation"], scan.attenuations)
    np.testing.assert_array_equal(cols["p_s"], scan.p_success)
    np.testing.assert_array_equal(cols["sigma_pe"], scan.sigma_p_error)


def test_peak_areas_roundtrip(tmp_path):
    path = tmp_path / "areas.csv"
    delays = np.arange(1, 11)
    areas = 100.0 * np.exp(-delays / 8.0) + 50.0
    write_peak_areas_csv(path, delays, areas)
    back_delays, back_areas = read_peak_areas_csv(path)
    np.testing.assert_array_equal(back_delays, delays)
    np.testing.assert_array_equal(back_areas, areas)


def test_report_roundtrip(tmp_path):
    path = tmp_path / "report.json"
    report = {"certified": True, "sigma_distance": {"value": 12.85}}
    write_report_json(path, report)
    back = read_report_json(path)
    assert back["certified"] is True
    assert back["sigma_distance"]["value"] == 12.85


def test_tag_stream_roundtrip(tmp_path):
    path = tmp_path / "tags.txt"
    tags = {
        "pulse_index": np.array([0, 0, 5, 17], dtype=np.int64),
        "detector": np.array(["a1", "b1", "a2", "b2"]),
        "time_ps": np.array([103.25, 501.5, 88.0625, 1407.999]),
    }
    write_tag_stream(path, tags)
    back = read_tag_stream(path)
    np.testing.assert_array_equal(back["pulse_index"], tags["pulse_index"])
    np.testing.assert_array_equal(back["detector"], tags["detector"])
    np.testing.assert_array_equal(back["time_ps"], tags["time_ps"])


def test_tag_stream_bad_line(tmp_path):
    path = tmp_path / "tags.txt"
    path.write_text("# nongauss-tags v1\n3 a1\n")
    with pytest.raises(FormatError, match="line 2"):
        read_tag_stream(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_tag_stream_rejects_non_finite_time(tmp_path, bad):
    path = tmp_path / "tags.txt"
    path.write_text(f"# nongauss-tags v1\n0 a1 12.5\n3 b1 {bad}\n")
    with pytest.raises(FormatError, match="line 3: time must be finite"):
        read_tag_stream(path)


TAG_HEADER = "# nongauss-tags v1\n# pulse_index detector_id time_ps\n"


def _tag_rows(tags):
    return list(zip(tags["pulse_index"].tolist(), tags["detector"].tolist(),
                    tags["time_ps"].tolist()))


# bodies on which np.loadtxt and the Python line parser could disagree;
# the result is the rows both routes return, or the error both raise
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("body, result", [
    pytest.param("0 a1 1.5 # note\n", "line 3: expected 3 fields", id="inline-comment"),
    pytest.param("0 a1 1.5\n  # a note\n", "line 4: invalid literal for int()",
                 id="indented-comment"),
    pytest.param("0 a1 1.5\n# note\n3 b1 2.5\n", [(0, "a1", 1.5), (3, "b1", 2.5)],
                 id="comment-mid-body"),
    pytest.param("1_0 a1 2_5\n", [(10, "a1", 25.0)], id="underscores"),
    pytest.param("+1 a1 +1.5\n", [(1, "a1", 1.5)], id="plus-signs"),
    pytest.param("", [], id="header-only"),
    pytest.param("\n  \n", [], id="blank-body"),
    pytest.param("0 a1 1.5\r\n\r\n3 b1 2\r\n", [(0, "a1", 1.5), (3, "b1", 2.0)],
                 id="crlf-and-blank-lines"),
    pytest.param("0 a1 1.5\n3 detector1 2.5\n",
                 "line 4: detector id 'detector1' is longer than 8 characters",
                 id="nine-character-id"),
    pytest.param("1.0 a1 1.5\n", "line 3: invalid literal for int()", id="float-pulse"),
    pytest.param("0 a\xa0b 1.5\n", "line 3: expected 3 fields", id="unicode-space"),
    pytest.param("9223372036854775807 a1 1.5\n-9223372036854775808 b1 2.5\n",
                 [(2**63 - 1, "a1", 1.5), (-2**63, "b1", 2.5)], id="int64-ends"),
    pytest.param("0 a1 1.5\n99999999999999999999 a1 2.5\n",
                 "line 4: pulse index 99999999999999999999 does not fit in a "
                 "64-bit integer", id="pulse-beyond-int64"),
    pytest.param("-9223372036854775809 a1 2.5\n",
                 "line 3: pulse index -9223372036854775809 does not fit in a "
                 "64-bit integer", id="pulse-below-int64"),
])
def test_tag_reader_matches_the_line_parser(tmp_path, body, result):
    path = tmp_path / "tags.txt"
    path.write_text(TAG_HEADER + body)
    outcomes = []
    for read in (read_tag_stream, io_formats._parse_tag_lines):
        try:
            tags = read(path)
        except FormatError as exc:
            outcomes.append(str(exc))
        else:
            assert tags["pulse_index"].dtype == np.int64
            assert tags["detector"].dtype == np.dtype("U8")
            assert tags["time_ps"].dtype == np.float64
            outcomes.append(_tag_rows(tags))
    assert outcomes[0] == outcomes[1]
    if isinstance(result, str):
        assert outcomes[0].startswith(f"{path}: {result}")
    else:
        assert outcomes[0] == result


def test_tag_reader_missing_path(tmp_path):
    path = tmp_path / "absent.txt"
    for read in (read_tag_stream, io_formats._parse_tag_lines):
        with pytest.raises(FormatError,
                           match=f"^{re.escape(str(path))}: No such file or directory$"):
            read(path)


def test_tag_writer_bytes_across_chunks(tmp_path):
    # longer than one joined write, against one f-string per line
    n = io_formats.TAG_CHUNK + 1234
    rng = np.random.default_rng(5)
    tags = {
        "pulse_index": np.sort(rng.integers(0, 10**9, n)),
        "detector": rng.choice(np.array(["a1", "a2", "b1", "b2"]), n),
        "time_ps": rng.exponential(800.0, n),
    }
    path = tmp_path / "tags.txt"
    write_tag_stream(path, tags)
    lines = [f"{int(p)} {d} {float(t)!r}\n" for p, d, t in
             zip(tags["pulse_index"], tags["detector"], tags["time_ps"])]
    assert path.read_text() == TAG_HEADER + "".join(lines)
    back = read_tag_stream(path)
    for key in tags:
        np.testing.assert_array_equal(back[key], tags[key])


def test_tag_writer_refuses_unequal_columns(tmp_path):
    path = tmp_path / "tags.txt"
    tags = {"pulse_index": np.array([0, 1, 2]), "detector": np.array(["a1"] * 3),
            "time_ps": np.array([1.0, 2.0])}
    with pytest.raises(FormatError, match="matching shapes"):
        write_tag_stream(path, tags)
    assert not path.exists()


@pytest.mark.parametrize("det, problem", [
    ("", "is empty or contains whitespace"),
    ("a b", "is empty or contains whitespace"),
    ("a\tb", "is empty or contains whitespace"),
    ("detector_b1", "is longer than 8 characters"),
    ("#a1", "starts with '#'"),
])
def test_tag_writer_refuses_an_id_the_reader_cannot_return(tmp_path, det, problem):
    path = tmp_path / "tags.txt"
    tags = {"pulse_index": np.array([0, 1]), "detector": np.array(["a1", det]),
            "time_ps": np.array([1.0, 2.0])}
    with pytest.raises(FormatError, match=re.escape(f"detector id {det!r} {problem}")):
        write_tag_stream(path, tags)
    assert not path.exists()


def test_csv_bad_header(tmp_path):
    path = tmp_path / "scan.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(FormatError, match="header"):
        read_scan_csv(path)


TAGS = {
    "pulse_index": np.array([0, 0, 5, 17], dtype=np.int64),
    "detector": np.array(["a1", "b1", "a2", "b2"]),
    "time_ps": np.array([103.25, 501.5, 88.0625, 1407.999]),
}

# (writer of a valid file, its reader); every file has at least 3 lines
FORMATS = {
    "counts": (lambda p: write_counts_json(p, PAIR_COUNTS), read_counts_json),
    "curve-json": (lambda p: write_curve_json(p, _curve()), read_curve_json),
    "report": (lambda p: write_report_json(p, {"certified": True}), read_report_json),
    "curve-csv": (lambda p: write_curve_csv(p, _curve()), read_curve_csv),
    "scan-csv": (lambda p: write_scan_csv(p, attenuation_scan(PAIR_COUNTS)),
                 read_scan_csv),
    "peak-areas": (lambda p: write_peak_areas_csv(p, np.arange(1, 11),
                                                  np.linspace(9.0, 2.0, 10)),
                   read_peak_areas_csv),
    "tags": (lambda p: write_tag_stream(p, TAGS), read_tag_stream),
}


def _splice_byte(path, line, byte=b"\xff"):
    """Put byte after the first character of line (1-based); its offset."""
    lines = path.read_bytes().splitlines(keepends=True)
    offset = len(b"".join(lines[:line - 1])) + 1
    lines[line - 1] = lines[line - 1][:1] + byte + lines[line - 1][1:]
    path.write_bytes(b"".join(lines))
    return offset


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_a_byte_that_is_not_utf8_is_named(tmp_path, name):
    write, read = FORMATS[name]
    path = tmp_path / name
    write(path)
    offset = _splice_byte(path, 3)
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: line 3: byte offset {offset}: not UTF-8 text")):
        read(path)


@pytest.mark.parametrize("name", ["curve-csv", "scan-csv", "peak-areas"])
def test_a_bad_csv_row_is_named_by_its_line_in_the_file(tmp_path, name):
    # line 1 is the schema comment, line 2 the header, line 3 the first row
    write, read = FORMATS[name]
    path = tmp_path / name
    write(path)
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = "abc" + lines[2][lines[2].index(","):]
    path.write_text("".join(lines))
    with pytest.raises(FormatError, match=re.escape(f"{path}: line 3: bad number 'abc'")):
        read(path)
    # a comment between rows still counts as a line
    lines[2:3] = ["# a note\n", "1\n"]
    path.write_text("".join(lines))
    with pytest.raises(FormatError, match=re.escape(f"{path}: line 4: expected ")):
        read(path)


def test_a_byte_that_is_not_utf8_past_the_first_block_of_tags(tmp_path):
    # the scan for the first data line decodes only the first block, so
    # np.loadtxt meets the byte and the line parser names it
    n = 2000
    tags = {"pulse_index": np.arange(n), "detector": np.array(["a1"] * n),
            "time_ps": np.full(n, 1407.999)}
    path = tmp_path / "tags.txt"
    write_tag_stream(path, tags)
    offset = _splice_byte(path, n + 2)
    assert offset > 8192
    for read in (read_tag_stream, io_formats._parse_tag_lines):
        with pytest.raises(FormatError, match=re.escape(
                f"{path}: line {n + 2}: byte offset {offset}: not UTF-8 text")):
            read(path)


def test_a_byte_that_is_not_utf8_after_lone_carriage_returns(tmp_path):
    # the text reader ends a line at \r as well as at \n and \r\n
    path = tmp_path / "scan.csv"
    path.write_bytes(b"attenuation,p_e,sigma_pe,p_s,sigma_ps\r\r\n0,1\xff\n")
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: line 3: byte offset 43: not UTF-8 text")):
        read_scan_csv(path)
