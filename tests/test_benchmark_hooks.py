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
