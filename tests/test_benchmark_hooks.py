"""The traced benchmark still finds every function it measures.

``perfbench/traced.py`` wraps functions at the module attribute their
caller looks them up by.  A name that moves, or is imported lazily
inside a function, drops its metric from the traced result line; this
catches that without running the benchmark.
"""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import steps  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402


def _called_spans():
    calls = set()
    for name in workloads.WORKLOADS:
        ref = workloads.load_reference(name) or {}
        calls.update(span for span, n in ref.get("trace_calls", {}).items() if n)
    return calls


def test_measured_call_sites_exist():
    measured = {span for _, _, deps in traced.metric_table() for span in deps}
    called = _called_spans()
    checked = []
    for span, module, attr, _ in traced.wrap_targets():
        if span in measured and span in called:
            fn = getattr(module, attr, None)
            assert callable(fn), f"{module.__name__}.{attr} (span {span}) is gone"
            checked.append(span)
    # the pair kernel and the simplex feed the solver metrics
    assert "photon_statistics.multimode_click_rates" in checked
    assert "threshold_solver.minimize" in checked


def test_traced_call_sites_are_reached():
    # a wrapped name that the solver no longer looks up (a local import,
    # a direct scipy call) exists but is never called; its metrics vanish
    from nongauss import threshold_solver

    tracer = traced.Tracer()
    tracer.install()
    try:
        threshold_solver.maximize_pair_rate(100.0, 0.5, n_modes=4)
        threshold_solver.maximize_single_rate(1e4, 0.5)
    finally:
        tracer.uninstall()
    ran = {span[0] for span in tracer.spans}
    for span in (traced.MINIMIZE, *traced.KERNELS):
        assert span in ran, f"{span} was wrapped but never called"


def test_traced_tag_io_is_reached(tmp_path):
    # the CLI writes the tags and the peak-areas step reads them through
    # the io_formats attributes that the traced run wraps
    from nongauss import cli

    tags = tmp_path / "qd_tags.txt"
    tracer = traced.Tracer()
    tracer.install()
    try:
        code = cli.main(["simulate", "--source", "qd", "--pulses", "20000",
                         "--seed", "7", "--out", str(tmp_path / "qd.json"),
                         "--tags", str(tags)])
        steps.peak_areas(str(tags), str(tmp_path / "qd_peaks.csv"))
    finally:
        tracer.uninstall()
    assert code == 0
    ran = {span[0] for span in tracer.spans}
    for name in ("io_formats.write_tag_stream", "io_formats.read_tag_stream"):
        assert name in ran, f"{name} was wrapped but never called"
        assert tracer.counts[f"{name}.bytes"] == tags.stat().st_size


def test_traced_analyzer_is_reached(tmp_path):
    # cmd_analyze calls the analyzer through the cli attributes that the
    # traced run wraps; certified counts make depth_fit cross
    from nongauss import cli, io_formats

    counts, out = str(tmp_path / "single.json"), str(tmp_path / "single")
    assert cli.main(["simulate", "--source", "single", "--pulses", "20000",
                     "--seed", "7", "--eta", "0.1467", "--double-prob", "0.01",
                     "--out", counts]) == 0
    tracer = traced.Tracer()
    tracer.install()
    try:
        code = cli.main(["analyze", "--counts", counts, "--criterion", "single-approx",
                         "--eta", "0.1467", "--sigma-eta", "0.0034", "--out", out])
    finally:
        tracer.uninstall()
    assert code == 0
    assert io_formats.read_report_json(f"{out}_report.json")["depth"]["status"] == "crossed"
    ran = {span[0] for span in tracer.spans}
    for name in ("counts_analyzer.attenuation_scan", "counts_analyzer.depth_fit",
                 "counts_analyzer.sigma_distance"):
        assert name in ran, f"{name} was wrapped but never called"
