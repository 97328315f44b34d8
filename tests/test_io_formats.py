import numpy as np
import pytest

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


def test_csv_bad_header(tmp_path):
    path = tmp_path / "scan.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(FormatError, match="header"):
        read_scan_csv(path)
