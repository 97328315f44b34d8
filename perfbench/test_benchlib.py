"""Tests of the benchmark's own arithmetic and gate.

    python3 -m pytest perfbench
"""

import json
import os
import sys

import pytest

import benchlib
import run
import workloads

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_median_odd_and_even():
    assert benchlib.median([3.0, 1.0, 2.0]) == 2.0
    assert benchlib.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        benchlib.median([])


@pytest.mark.parametrize("n, p", [
    (9, None), (19, None), (20, 50.0), (49, 75.0), (91, 75.0), (99, 90.0),
    (100, 90.0),
    (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    values = [float(i) for i in range(n)]
    tail = benchlib.tail_percentile(values)
    if p is None:
        assert tail is None
    else:
        assert tail[0] == p
        assert sum(v > tail[1] for v in values) >= 10
        assert tail[1] == pytest.approx(p / 100.0 * (n - 1))


def test_summarize_reports_count_and_tail():
    s = benchlib.summarize([float(i) for i in range(49)])
    assert s == {"median": 24.0, "n": 49, "tail_p": 75.0, "tail": 36.0}
    assert "tail" not in benchlib.summarize([1.0, 2.0])


def test_self_time_of_nested_spans():
    spans = [
        ("main", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 6.0, 0),      # overlaps a: the union 1..6 is covered once
        ("leaf", 2.5, 4.0, 2),
        ("late", 9.0, 12.0, 0),  # runs past its parent: clipped at 10
        ("other", 20.0, 21.0, -1),
    ]
    assert benchlib.self_times(spans) == pytest.approx(
        [10.0 - 5.0 - 1.0, 2.0, 4.0 - 1.5, 1.5, 3.0, 1.0])


def _curve_pass(tmp_path, n_points, n_gaps, threshold_exit, scale=1.0):
    ref_pe = [10.0 ** -k for k in range(n_points, 0, -1)]
    ref_ps = [p ** 0.5 for p in ref_pe]
    curve = {"p_error": ref_pe[:n_points - n_gaps], "p_success": ref_ps[:n_points - n_gaps],
             "meta": {"gaps": [{"alpha": float(i)} for i in range(n_gaps)]}}
    (tmp_path / "curve.json").write_text(json.dumps(curve))
    support = [ref_pe[0], ref_pe[-1]]
    values = [scale * v for v in ref_ps]
    (tmp_path / "curve_values.json").write_text(
        json.dumps({"support": support, "values": values}))
    workload = workloads.WORKLOADS["pair-curve"]
    return workload.check(str(tmp_path), 1, [threshold_exit, 0],
                          {"p_error": ref_pe, "p_success": ref_ps})


def test_ops_failed_frac_counts_sweep_gaps(tmp_path):
    # 47 solved + 2 gaps = 49 sweep points, plus the threshold and
    # read-back steps; exit 1 is what the README promises for gaps
    gate = _curve_pass(tmp_path, 49, 2, threshold_exit=1)
    assert (gate.attempted, gate.failed) == (51, 2)
    assert benchlib.ops_failed_frac(gate.attempted, gate.failed) == pytest.approx(2 / 51)

    gate = _curve_pass(tmp_path, 49, 0, threshold_exit=0)
    assert (gate.attempted, gate.failed) == (51, 0)
    assert benchlib.ops_failed_frac(gate.attempted, gate.failed) == 0.0

    # a clean sweep that exits 1 breaks the contract: one more failure
    gate = _curve_pass(tmp_path, 49, 0, threshold_exit=1)
    assert gate.failed == 1
    with pytest.raises(ValueError):
        benchlib.ops_failed_frac(0, 0)


def test_curve_gate_rejects_scaled_curve(tmp_path):
    assert _curve_pass(tmp_path, 49, 0, 0, scale=1.0 + 1e-4).failed == 1
    assert _curve_pass(tmp_path, 49, 0, 0, scale=1.0 + 5e-8).failed == 0


def test_compare_curve():
    pe, ps = [1e-9, 1e-6, 1e-3], [3e-5, 1e-3, 3e-2]
    rtol = workloads.CURVE_RTOL
    assert benchlib.compare_curve(pe, ps, (1e-9, 1e-3), ps, rtol) == []
    scaled = [v * (1.0 + 1e-4) for v in ps]
    assert len(benchlib.compare_curve(pe, ps, (1e-9, 1e-3), scaled, rtol)) == 3
    # the planned solver rewrites move points by <= 5e-8 relative
    near = [v * (1.0 + 5e-8) for v in ps]
    assert benchlib.compare_curve(pe, ps, (1e-9 * (1 + 5e-8), 1e-3), near, rtol) == []
    # a support that lost an end point of the reference is a mismatch
    bad = benchlib.compare_curve(pe, ps, (1e-8, 1e-3), ps, rtol)
    assert len(bad) == 1 and "outside curve support" in bad[0]
    assert benchlib.compare_curve(pe, ps, (1e-9, 1e-3), ps[:2], rtol)


def test_compare_numbers_allows_new_fields_only():
    ref = {"certified": True, "p": {"value": 1e-4, "sigma": 2e-6},
           "rows": [1.0, 2.0], "note": None}
    got = json.loads(json.dumps(ref))
    got["new_field"] = 3
    assert benchlib.compare_numbers(ref, got, 1e-9) == []
    got["p"]["value"] = 1e-4 * (1 + 1e-6)
    got["certified"] = False
    del got["note"]
    bad = benchlib.compare_numbers(ref, got, 1e-9)
    assert sorted(b.split(":")[0] for b in bad) == [".certified", ".note", ".p.value"]
    assert benchlib.compare_numbers({"r": 2.7e-15}, {"r": 1.1e-15}, 1e-9, 1e-14) == []
    assert benchlib.compare_numbers({"n": 1}, {"n": True}, 1e-9)


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |      20000 | numpy",
        "import time:       300 |     400000 |   scipy.optimize",
        "import time:       200 |       5000 | nongauss.errors",
        "import time:       100 |     500000 | nongauss",
    ])
    got = run.parse_importtime(stderr)
    assert got["cli.import.numpy_s"] == pytest.approx(0.02)
    assert got["cli.import.scipy_optimize_s"] == pytest.approx(0.4)
    assert got["cli.import.mpmath_s"] == 0.0
    assert got["cli.import.nongauss_self_s"] == pytest.approx(0.0003)


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)

    sys.path.insert(0, os.path.join(REPO, "src"))
    import traced
    table = {name: unit for name, unit, _ in traced.metric_table()}
    table.update({k: "s" for k in run.IMPORT_KEYS.values()})
    table["cli.import.nongauss_self_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == table


def test_absent_metrics_only_for_layers_called_at_the_seed_commit():
    table = [
        ("kernel.calls", "count", ("kernel",)),
        ("kernel.total_s", "s", ("kernel",)),
        ("solver.self_s", "s", ("solver.a", "solver.b")),
        ("oracle.total_s", "s", ("oracle",)),
        ("trace.pass_s", "s", ()),
    ]
    ref_calls = {"kernel": 36709, "solver.a": 49, "solver.b": 49}
    # the kernel's call site moved: its metrics are absent, not 0 s;
    # the oracle ran in neither run and stays; one solver span suffices
    seen = {"solver.b": 49, "oracle": 0}
    assert benchlib.absent_metrics(table, seen, ref_calls) == {
        "kernel.calls", "kernel.total_s"}
    assert benchlib.absent_metrics(table, {"kernel": 1, "solver.a": 2},
                                   ref_calls) == set()
    # a workload that never used a layer at the seed commit reports 0
    assert benchlib.absent_metrics(table, {}, {}) == set()


def test_validation_rows_may_flag_by_chance_only_in_monte_carlo():
    rows = {"gaussian-vs-fock-oracle": "pass", "mc-tmsv-1-mode": "flag",
            "tmsv-closed-form-vs-series": "pass"}
    other_seed = workloads.DEFAULT_SEED + 1
    assert workloads.validation_problems(rows, other_seed) == []
    assert workloads.validation_problems(rows, workloads.DEFAULT_SEED) == [
        "check mc-tmsv-1-mode reads flag"]
    # a seed-free cross-check that flags is a defect at every seed
    rows["tmsv-closed-form-vs-series"] = "flag"
    assert workloads.validation_problems(rows, other_seed) == [
        "check tmsv-closed-form-vs-series reads flag"]
    rows = {"mc-blinking-roundtrip": "fail"}
    assert workloads.validation_problems(rows, other_seed) == [
        "check mc-blinking-roundtrip reads fail"]


def test_child_import_time_is_read_from_the_marker_line():
    err = f"warning: x\n{run.IMPORT_MARK} 0.7123\nTraceback\n"
    assert run.child_import_s(err) == 0.7123
    assert run.child_import_s("no marker here\n") is None


def test_tracer_records_parents(tmp_path):
    sys.path.insert(0, os.path.join(REPO, "src"))
    import traced
    tracer = traced.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer", -1, True), ("inner", 0, True), ("inner", 0, True)]

    failing = tracer.wrap("failing", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        failing()
    assert tracer.spans[-1][0] == "failing" and tracer.spans[-1][4] is False
    assert tracer.stack == []
    selfs = benchlib.self_times([s[:4] for s in tracer.spans])
    assert selfs[0] <= tracer.spans[0][2] - tracer.spans[0][1]
