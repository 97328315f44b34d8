import json

import numpy as np
import pytest

from nongauss.cli import main
from nongauss.counts_analyzer import CountSummary
from nongauss.io_formats import (
    read_counts_json,
    read_curve_csv,
    read_curve_json,
    read_report_json,
    read_scan_csv,
    read_tag_stream,
    write_counts_json,
)

PAIR_COUNTS = CountSummary(
    kind="pair",
    duration_s=1200.0,
    generation_rate_hz=11.32e6,
    success_count=244113,
    error_count_a=365,
    error_count_b=430,
    generation_rate_sigma_hz=0.12e6,
)

SINGLE_COUNTS = CountSummary(
    kind="single",
    duration_s=1200.0,
    generation_rate_hz=22.64e6,
    success_count=2059334400,
    error_count_a=7513318,
    generation_rate_sigma_hz=0.25e6,
)


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    write_counts_json(path, PAIR_COUNTS)
    return path


def test_threshold_asymptotic_pair(tmp_path):
    out = tmp_path / "curve"
    code = main(["threshold", "--mode", "pair", "--eta", "0.1467",
                 "--n", "asymptotic", "--out", str(out)])
    assert code == 0
    curve = read_curve_json(f"{out}.json")
    assert curve.n_modes == 0
    assert np.all(np.isnan(curve.alphas))
    assert np.all(np.diff(curve.p_success) > 0)
    cols = read_curve_csv(f"{out}.csv")
    np.testing.assert_allclose(cols["p_error"], curve.p_error)
    # square-root law at the low-rate end
    ratio = curve.p_success[0] / np.sqrt(curve.p_error[0])
    assert ratio == pytest.approx(0.1467 / 2, rel=1e-3, abs=0.0)


def test_threshold_solver_sweep_single(tmp_path):
    out = tmp_path / "single"
    args = ["threshold", "--mode", "single", "--eta", "1.0", "--points", "5",
            "--alpha-min", "1e4", "--alpha-max", "1e8", "--out", str(out)]
    assert main(args) == 0
    curve = read_curve_json(f"{out}.json")
    assert curve.meta["gaps"] == []
    # cube-root law where rates are small
    logs = np.diff(np.log(curve.p_success)) / np.diff(np.log(curve.p_error))
    assert logs[0] == pytest.approx(1.0 / 3.0, abs=0.01)


def test_threshold_rejects_bad_eta(capsys):
    assert main(["threshold", "--mode", "pair", "--eta", "1.5",
                 "--n", "asymptotic"]) == 1
    assert "eta" in capsys.readouterr().err


@pytest.mark.parametrize("mode,n", [
    ("single", "2"), ("pair", "2"), ("single", "asymptotic"), ("pair", "asymptotic"),
], ids=["single", "pair", "single-asymptotic", "pair-asymptotic"])
@pytest.mark.parametrize("flag,value,field", [
    ("--eta", "1.5", "eta"), ("--eta", "-0.2", "eta"), ("--eta", "nan", "eta"),
    ("--tbs", "1.0", "t_bs"),
])
def test_threshold_sweep_rejects_bad_detection(tmp_path, capsys, mode, n, flag, value,
                                               field):
    # swept and closed-form curves check eta and t_bs before writing
    out = tmp_path / "curve"
    args = ["threshold", "--mode", mode, "--eta", "0.5", "--n", n,
            "--points", "3", "--out", str(out), flag, value]
    assert main(args) == 1
    assert field in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags,fields,field", [
    (["--points", "-2"], {}, "points"),
    (["--points", "1"], {}, "points"),
    ([], {"points": 3.5}, "points"),
    ([], {"points": True}, "points"),
    (["--alpha-max", "inf", "--points", "3"], {}, "alpha"),
    (["--alpha-min", "nan", "--points", "3"], {}, "alpha"),
], ids=["negative", "one", "fractional", "bool", "inf-alpha", "nan-alpha"])
def test_threshold_rejects_bad_grid(tmp_path, capsys, flags, fields, field):
    # a sweep grid from flags or config is checked before any solve or file
    out = tmp_path / "curve"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mode": "pair", "eta": 0.5, "out": str(out), **fields}))
    assert main(["threshold", "--config", str(cfg), *flags]) == 1
    assert field in capsys.readouterr().err
    assert not list(tmp_path.glob("curve*"))


def test_threshold_rejects_bad_n(capsys):
    assert main(["threshold", "--mode", "pair", "--eta", "0.5",
                 "--n", "many"]) == 1


@pytest.mark.parametrize("n", [2.5, True], ids=["fractional", "bool"])
def test_threshold_rejects_config_n(tmp_path, capsys, n):
    # a config value skips the string conversion of --n
    out = tmp_path / "curve"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mode": "pair", "eta": 0.5, "n": n, "points": 3,
                               "out": str(out)}))
    assert main(["threshold", "--config", str(cfg)]) == 1
    assert "n_modes" in capsys.readouterr().err
    assert not list(tmp_path.glob("curve*"))


@pytest.mark.parametrize("flag", ["--counts", "--config"])
def test_a_file_that_is_not_utf8_is_an_error_line(tmp_path, pair_file, capsys, flag):
    # one byte that does not decode is named, with no traceback and no output
    path = pair_file if flag == "--counts" else tmp_path / "run.json"
    if flag == "--config":
        path.write_text(json.dumps({"counts": str(pair_file)}, indent=2))
    data = path.read_bytes()
    path.write_bytes(data[:5] + b"\xff" + data[5:])
    argv = ["analyze", "--counts", str(pair_file), "--out", str(tmp_path / "pair")]
    if flag == "--config":
        argv[1:3] = ["--config", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 2: byte offset 5: not UTF-8 text")
    assert not list(tmp_path.glob("pair_*"))


def test_analyze_reference_pair_point(tmp_path, pair_file, capsys):
    out = tmp_path / "pair"
    code = main(["analyze", "--counts", str(pair_file), "--eta", "0.1467",
                 "--sigma-eta", "0.0034", "--out", str(out)])
    assert code == 0
    report = read_report_json(f"{out}_report.json")
    assert report["certified"] is True
    assert report["probabilities"]["p_success"]["value"] == pytest.approx(
        1.797e-5, rel=5e-3, abs=0.0)
    assert 10.0 < report["sigma_distance"]["value"] < 13.5
    assert set(report["sigma_distance"]["components"]) == {
        "from_p_success", "from_p_error", "from_eta"}
    assert report["depth"]["status"] == "crossed"
    assert report["depth"]["depth_db"] == pytest.approx(0.764, abs=0.08)
    scan = read_scan_csv(f"{out}_scan.csv")
    assert scan["attenuation"].size == report["scan"]["n_points"]
    assert "certified" in capsys.readouterr().out


def test_analyze_singles_simple_bs(tmp_path):
    counts_path = tmp_path / "single.json"
    write_counts_json(counts_path, SINGLE_COUNTS)
    out = tmp_path / "single"
    code = main(["analyze", "--counts", str(counts_path), "--criterion",
                 "simple-bs", "--tbs", "0.5166", "--out", str(out)])
    assert code == 0
    report = read_report_json(f"{out}_report.json")
    assert report["criterion"]["name"] == "simple-bs"
    assert report["depth"]["depth_db"] == pytest.approx(7.41, abs=0.01)
    assert report["depth"]["crossing_transmission"] == pytest.approx(
        0.1817, abs=0.002)


def test_analyze_zero_counts_not_certified(tmp_path):
    # no error counts: no distance, hence no certificate, whatever the successes
    for success_count in (0, 1000):
        counts_path = tmp_path / f"zero{success_count}.json"
        write_counts_json(counts_path, CountSummary(
            kind="pair", duration_s=10.0, generation_rate_hz=1e6,
            success_count=success_count, error_count_a=0, error_count_b=0))
        out = tmp_path / f"zero{success_count}"
        code = main(["analyze", "--counts", str(counts_path), "--eta", "0.5",
                     "--out", str(out)])
        assert code == 2
        report = read_report_json(f"{out}_report.json")
        assert report["certified"] is False
        assert report["sigma_distance"] is None
        assert report["sigma_distance_note"]


def test_analyze_splitter_refuses_sigma_eta(tmp_path):
    counts_path = tmp_path / "single.json"
    write_counts_json(counts_path, SINGLE_COUNTS)
    out = tmp_path / "single"
    code = main(["analyze", "--counts", str(counts_path), "--eta", "0.1467",
                 "--sigma-eta", "0.0034", "--out", str(out)])
    report = read_report_json(f"{out}_report.json")
    assert report["criterion"]["name"] == "simple-bs"
    assert code == (0 if report["certified"] else 2)
    assert report["sigma_distance"] is None
    assert "efficiency uncertainty" in report["sigma_distance_note"]
    assert report["depth"]["status"] == "fit_failed"


@pytest.mark.parametrize("flag,value", [
    ("--sigma-eta", "nan"), ("--sigma-level", "nan"), ("--sigma-eta", "-0.0034"),
    ("--sigma-eta", "inf"), ("--sigma-level", "-1"),
], ids=["nan-sigma-eta", "nan-sigma-level", "negative-sigma-eta", "inf-sigma-eta",
        "negative-sigma-level"])
def test_analyze_rejects_bad_uncertainty_flag(tmp_path, pair_file, capsys, flag, value):
    # checked before the counts are read, so no scan or report is written
    out = tmp_path / "x"
    assert main(["analyze", "--counts", str(pair_file), "--eta", "0.1467",
                 "--out", str(out), f"{flag}={value}"]) == 1
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.glob("x*"))


def test_analyze_malformed_counts(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "nongauss-counts", "schema_version": 1,\n  boom}')
    assert main(["analyze", "--counts", str(bad)]) == 1
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, named", [
    ("meta", [], "field 'meta': expected object"),
    ("error_count_b", "430", "field 'error_count_b': expected int/float, got str"),
    ("singles", {"a1": "1000"}, "field 'singles.a1': expected int/float, got str"),
    # an int this large would reach the analyzer and overflow there
    pytest.param("success_count", 10**400, "field 'success_count': must be finite",
                 id="success_count-10**400"),
])
def test_analyze_names_a_bad_counts_field(tmp_path, pair_file, capsys, field, value,
                                          named):
    doc = json.loads(pair_file.read_text())
    doc[field] = value
    pair_file.write_text(json.dumps(doc))
    assert main(["analyze", "--counts", str(pair_file), "--out",
                 str(tmp_path / "x")]) == 1
    assert f"{pair_file}: {named}" in capsys.readouterr().err
    assert not list(tmp_path.glob("x*"))


def test_analyze_criterion_kind_mismatch(tmp_path, pair_file, capsys):
    assert main(["analyze", "--counts", str(pair_file), "--criterion",
                 "simple-bs", "--out", str(tmp_path / "x")]) == 1
    assert "does not apply" in capsys.readouterr().err


def test_simulate_counts_feed_analyzer(tmp_path):
    out = tmp_path / "sim.json"
    code = main(["simulate", "--source", "tmsv", "--mu", "0.3", "--eta", "0.5",
                 "--pulses", "100000", "--seed", "3", "--out", str(out)])
    assert code == 0
    counts = read_counts_json(out)
    assert counts.kind == "pair"
    assert counts.trials == pytest.approx(100000, abs=0.0)


def test_simulate_qd_tags_roundtrip(tmp_path):
    out = tmp_path / "qd.json"
    tags_path = tmp_path / "tags.txt"
    code = main(["simulate", "--source", "qd", "--pulses", "50000", "--seed",
                 "9", "--out", str(out), "--tags", str(tags_path)])
    assert code == 0
    tags = read_tag_stream(tags_path)
    assert tags["pulse_index"].size > 0
    assert tags["pulse_index"].max() < 50000


def test_simulate_tags_require_qd(tmp_path, capsys):
    assert main(["simulate", "--source", "tmsv", "--seed", "1",
                 "--out", str(tmp_path / "c.json"),
                 "--tags", str(tmp_path / "t.txt")]) == 1
    assert "qd" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["qd", "tmsv", "single"])
@pytest.mark.parametrize("rate", ["nan", "inf", "-5"])
def test_simulate_rejects_bad_rep_rate(tmp_path, capsys, source, rate):
    # the rate is named itself, not the count duration derived from it
    out = tmp_path / "c.json"
    assert main(["simulate", "--source", source, "--seed", "1", "--pulses", "1000",
                 f"--rep-rate={rate}", "--out", str(out)]) == 1
    assert "rep_rate_hz" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_no_emission(tmp_path, capsys):
    # named before any pulse is drawn, not as the zero rate derived from it
    out = tmp_path / "c.json"
    tags = tmp_path / "t.txt"
    assert main(["simulate", "--source", "qd", "--seed", "1", "--pulses", "3000000",
                 "--emission-prob", "0", "--out", str(out), "--tags", str(tags)]) == 1
    assert "emission_prob must lie in (0, 1]" in capsys.readouterr().err
    assert not out.exists() and not tags.exists()


def test_simulate_missing_seed(capsys):
    assert main(["simulate", "--source", "tmsv", "--out", "x.json"]) == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["simulate", "--source", "tmsv", "--pulses", "1000"],
    ["validate", "--suite", "oracle", "--grid-points", "1"],
], ids=["simulate", "validate"])
def test_negative_seed_is_named_at_the_flag(tmp_path, capsys, command):
    out = tmp_path / "x.json"
    assert main(command + ["--seed", "-1", "--out", str(out)]) == 1
    assert "--seed must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,pulses", [
    (["simulate", "--source", "tmsv", "--seed", "1"], "0"),
    (["simulate", "--source", "qd", "--seed", "1"], "-5"),
    (["validate", "--suite", "mc"], "0"),
], ids=["simulate-zero", "simulate-negative", "validate-zero"])
def test_pulses_is_named_at_the_flag(tmp_path, capsys, command, pulses):
    out = tmp_path / "x.json"
    assert main(command + ["--pulses", pulses, "--out", str(out)]) == 1
    assert f"--pulses must be an integer >= 1, got {pulses}" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_merge_and_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "mode": "pair", "eta": 0.1467, "n": "asymptotic",
        "out": str(tmp_path / "from_config"),
    }))
    assert main(["threshold", "--config", str(cfg)]) == 0
    curve = read_curve_json(f"{tmp_path / 'from_config'}.json")
    assert curve.eta == 0.1467
    # explicit flag wins over the config value
    assert main(["threshold", "--config", str(cfg), "--eta", "0.3"]) == 0
    curve = read_curve_json(f"{tmp_path / 'from_config'}.json")
    assert curve.eta == 0.3


def test_config_unknown_field_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"mode": "pair", "not_a_field": 1}')
    assert main(["threshold", "--config", str(cfg), "--eta", "0.5"]) == 1
    assert "not_a_field" in capsys.readouterr().err


@pytest.mark.parametrize("field,value,message", [
    ("pulses", 2.5, "field 'pulses': expected int, got float"),
    ("eta", True, "field 'eta': expected float, got bool"),
    ("eta", [0.3], "field 'eta': expected float, got list"),
], ids=["fractional-int", "bool-float", "list-float"])
def test_config_field_needs_its_flag_type(tmp_path, capsys, field, value, message):
    # argparse converts only strings, so other JSON values are checked on merge
    out = tmp_path / "counts.json"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"source": "tmsv", "seed": 1, "pulses": 1000,
                               "out": str(out), field: value}))
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["threshold", "--mode", "pair", "--eta", "0.5", "--n", "asymptotic"],
    ["analyze", "--criterion", "simple-bs"],
])
def test_tbs_b_is_simulate_only(tmp_path, pair_file, capsys, command):
    # only the simulators model a second arm's splitter
    out = ["--out", str(tmp_path / "x")]
    if command[0] == "analyze":
        out += ["--counts", str(pair_file)]
    assert main(command + out + ["--tbs-b", "0.3"]) == 1
    cfg = tmp_path / "run.json"
    cfg.write_text('{"tbs_b": 0.3}')
    assert main(command + out + ["--config", str(cfg)]) == 1
    assert "unknown config fields: tbs_b" in capsys.readouterr().err
    assert not list(tmp_path.glob("x*"))


def test_validate_oracle_suite(tmp_path, capsys):
    report_path = tmp_path / "validate.json"
    code = main(["validate", "--suite", "oracle", "--grid-points", "5",
                 "--out", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "gaussian-vs-fock-oracle" in out
    report = read_report_json(report_path, schema="nongauss-validation-report")
    assert all(row["status"] == "pass" for row in report["checks"])


def test_validate_tightened_tolerance_fails(capsys):
    code = main(["validate", "--suite", "oracle", "--grid-points", "4",
                 "--tol-oracle", "1e-16"])
    assert code == 1
    assert "fail" in capsys.readouterr().out


def test_validate_surfaces_precision_error(capsys):
    # cutoff 16 is accepted, but the grid's states leave tail mass above
    # the oracle's bound there
    code = main(["validate", "--suite", "oracle", "--grid-points", "4",
                 "--oracle-cutoff", "16"])
    assert code == 1
    assert "precision error: tail mass" in capsys.readouterr().out


@pytest.mark.parametrize("cutoff", ["-1", "0", "8"])
def test_validate_rejects_a_cutoff_below_the_oracle_floor(tmp_path, capsys, cutoff):
    # the oracle refuses any such cutoff, so the row could only read fail
    out = tmp_path / "v.json"
    assert main(["validate", "--suite", "oracle", "--grid-points", "1",
                 f"--oracle-cutoff={cutoff}", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"--oracle-cutoff must be an integer >= 16, got {cutoff}" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("points", ["0", "-3"])
def test_validate_rejects_an_empty_grid(tmp_path, capsys, points):
    # an empty grid checks nothing, so it must not read as a pass
    out = tmp_path / "v.json"
    assert main(["validate", "--suite", "oracle", "--grid-points", points,
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"--grid-points must be >= 1, got {points}" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_validate_rejects_a_bad_oracle_tolerance(tmp_path, capsys, tol):
    # a tolerance that cannot decide the check must not read as its verdict
    out = tmp_path / "v.json"
    assert main(["validate", "--suite", "oracle", "--grid-points", "1",
                 f"--tol-oracle={tol}", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "--tol-oracle must be a finite number > 0" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_cli_help_and_usage():
    assert main(["--help"]) == 0
    assert main([]) == 1
    assert main(["bogus-command"]) == 1


def test_analyze_with_peak_areas(tmp_path, pair_file):
    areas_path = tmp_path / "areas.csv"
    from nongauss.io_formats import write_peak_areas_csv

    delays = np.arange(1, 41)
    areas = 120.0 * np.exp(-delays / 8.0) + 180.0
    write_peak_areas_csv(areas_path, delays, areas)
    out = tmp_path / "pk"
    code = main(["analyze", "--counts", str(pair_file), "--eta", "0.1467",
                 "--peak-areas", str(areas_path), "--out", str(out)])
    assert code == 0
    report = read_report_json(f"{out}_report.json")
    assert report["blinking"]["blinking_factor"] == pytest.approx(0.6, abs=1e-6)
