"""Traced in-process run of one workload, for the per-layer metrics.

    python3 perfbench/traced.py --workload NAME --seed N --workdir DIR --out FILE

Runs the workload's steps untraced, traced, and untraced again, in this
process, through ``nongauss.cli.main`` and the library steps.  Tracing
wraps each public function at the name its caller looks it up by (the
CLI and the solver import functions by name, so e.g. the pair kernel is
wrapped as ``nongauss.threshold_solver.multimode_click_rates``).  Spans
(name, start, end, parent) stay in memory and are written to DIR at the
end; FILE gets the metrics.  ``run.py --trace 1`` starts this script.
"""

import argparse
import contextlib
import functools
import io
import json
import os
import sys
import time
from collections import defaultdict

import benchlib
import steps
import workloads

import nongauss.cli as cli
from nongauss import io_formats, source_simulator, threshold_solver

clock = time.perf_counter

MAXIMIZE = ("threshold_solver.maximize_pair_rate",
            "threshold_solver.maximize_single_rate")
MINIMIZE = "threshold_solver.minimize"
KERNELS = ("photon_statistics.multimode_click_rates",
           "photon_statistics.no_click_after_loss")
SIMULATORS = ("source_simulator.simulate_qd_pairs",
              "source_simulator.simulate_multimode_tmsv",
              "source_simulator.simulate_single_photon_stream")
ANALYZER = ("counts_analyzer.attenuation_scan", "counts_analyzer.depth_fit",
            "counts_analyzer.blinking_fit", "counts_analyzer.sigma_distance")
IO = tuple(f"io_formats.{f}" for f in (
    "write_tag_stream", "read_tag_stream", "write_counts_json",
    "read_counts_json", "write_curve_json", "write_curve_csv",
    "read_curve_json", "write_scan_csv", "write_report_json",
    "read_report_json", "write_peak_areas_csv", "read_peak_areas_csv"))


def _record_simplex(counts, args, kwargs, result):
    counts["simplex_nit"] += int(result.nit)
    counts["simplex_nfev"] += int(result.nfev)


def _record_pulses(name):
    def record(counts, args, kwargs, result):
        counts[f"{name}.pulses"] += kwargs["n_pulses"] if "n_pulses" in kwargs else args[2]
    return record


def _record_bytes(name):
    def record(counts, args, kwargs, result):
        counts[f"{name}.bytes"] += os.path.getsize(args[0])
    return record


def wrap_targets():
    """(span name, module, attribute, recorder) for every traced call site.

    Some spans feed no metric of their own (the sweep drivers, the
    closed-form pair formulas, estimate_click_probabilities); they are
    wrapped so that cli.main's self time covers only parsing and report
    assembly.
    """
    targets = [
        ("threshold_solver.pair_threshold_curve", cli, "pair_threshold_curve", None),
        ("threshold_solver.single_threshold_curve", cli, "single_threshold_curve", None),
        (MAXIMIZE[0], threshold_solver, "maximize_pair_rate", None),
        (MAXIMIZE[1], threshold_solver, "maximize_single_rate", None),
        (MINIMIZE, threshold_solver, "minimize", _record_simplex),
        (KERNELS[0], threshold_solver, "multimode_click_rates", None),
        (KERNELS[1], threshold_solver, "no_click_after_loss", None),
        ("source_simulator.peak_areas_from_tags", source_simulator,
         "peak_areas_from_tags", None),
    ]
    for fn in ("fock_oracle_click_probs", "single_photon_click_probs",
               "multimode_pair_click_probs", "tmsv_pair_click_probs",
               "tmsv_pair_click_probs_series", "poisson_pair_click_probs"):
        targets.append((f"photon_statistics.{fn}", cli, fn, None))
    for name in SIMULATORS + ("source_simulator.peak_areas_from_tags",):
        fn = name.split(".")[1]
        record = _record_pulses(name) if name in SIMULATORS else None
        targets.append((name, cli, fn, record))
    for name in ANALYZER + ("counts_analyzer.estimate_click_probabilities",):
        targets.append((name, cli, name.split(".")[1], None))
    for name in IO:
        targets.append((name, io_formats, name.split(".")[1], _record_bytes(name)))
    return targets


class Tracer:
    """Spans as [name, start, end, parent, ok] plus counters, all in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)

    def wrap(self, name, fn, record=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                span[4] = True
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if span[4] and record is not None:
                    record(counts, args, kwargs, result)

        return traced

    def install(self):
        self.saved = []
        for name, module, attr, record in wrap_targets():
            fn = getattr(module, attr, None)
            if fn is not None:  # a call site that moved shows up as absent
                self.saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, record))

    def uninstall(self):
        for module, attr, fn in reversed(self.saved):
            setattr(module, attr, fn)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, ok in self.spans:
                fh.write(json.dumps([name, start, end, parent, ok]) + "\n")


def run_pass(workload, seed, workdir, main):
    """Run every step in workdir; return the exit codes and problems."""
    os.makedirs(workdir, exist_ok=True)
    here = os.getcwd()
    os.chdir(workdir)
    codes, problems = [], []
    try:
        for step in workload.steps(seed):
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    if step.kind == "cli":
                        code = main(list(step.argv))
                    else:
                        steps.STEPS[step.argv[0]](*step.argv[1:])
                        code = 0
            except Exception as exc:  # a crashing step is a failed operation
                problems.append(f"{step.name} raised {type(exc).__name__}: {exc}")
                code = 1
            codes.append(code)
    finally:
        os.chdir(here)
    return codes, problems


# (metric, unit, span names it measures; empty for figures of the run itself)
def metric_table():
    table = [("cli.main.self_s", "s", ("cli.main",))]
    solver = MAXIMIZE + (MINIMIZE,)
    table += [
        ("threshold_solver.points", "count", MAXIMIZE),
        ("threshold_solver.points_solved", "count", MAXIMIZE),
        ("threshold_solver.point_p50_ms", "ms", MAXIMIZE),
        ("threshold_solver.point_p75_ms", "ms", MAXIMIZE),
        ("threshold_solver.simplex_runs", "count", (MINIMIZE,)),
        ("threshold_solver.simplex_nit", "count", (MINIMIZE,)),
        ("threshold_solver.simplex_nfev", "count", (MINIMIZE,)),
        ("threshold_solver.evals_per_point", "evals/point", solver),
        ("threshold_solver.self_s", "s", solver),
    ]
    for k in KERNELS:
        table += [(f"{k}.calls", "count", (k,)), (f"{k}.mean_us", "us", (k,)),
                  (f"{k}.total_s", "s", (k,))]
    fock = "photon_statistics.fock_oracle_click_probs"
    table += [(f"{fock}.calls", "count", (fock,)), (f"{fock}.mean_ms", "ms", (fock,)),
              (f"{fock}.total_s", "s", (fock,))]
    for fn in ("single_photon_click_probs", "multimode_pair_click_probs",
               "tmsv_pair_click_probs_series"):
        name = f"photon_statistics.{fn}"
        table.append((f"{name}.total_s", "s", (name,)))
    for name in SIMULATORS:
        table += [(f"{name}.s", "s", (name,)),
                  (f"{name}.mpulses_per_s", "Mpulses/s", (name,))]
    peaks = "source_simulator.peak_areas_from_tags"
    table.append((f"{peaks}.s", "s", (peaks,)))
    for name in ANALYZER:
        table += [(f"{name}.calls", "count", (name,)), (f"{name}.s", "s", (name,))]
    for name in IO:
        table += [(f"{name}.s", "s", (name,)), (f"{name}.bytes", "B", (name,))]
    table += [("trace.untraced_pass_s", "s", ()), ("trace.traced_pass_s", "s", ()),
              ("trace.overhead_frac", "ratio", ())]
    return table


def layer_metrics(tracer, untraced_s, traced_s):
    spans = tracer.spans
    selfs = benchlib.self_times([s[:4] for s in spans])
    index = defaultdict(list)
    for i, s in enumerate(spans):
        index[s[0]].append(i)

    def calls(*names):
        return sum(len(index[n]) for n in names)

    def total(*names):
        return sum((spans[i][2] - spans[i][1] for n in names for i in index[n]), 0.0)

    def self_total(*names):
        return sum((selfs[i] for n in names for i in index[n]), 0.0)

    counts = tracer.counts
    points = [spans[i] for n in MAXIMIZE for i in index[n]]
    point_ms = [(s[2] - s[1]) * 1e3 for s in points]
    m = {
        "cli.main.self_s": self_total("cli.main"),
        "threshold_solver.points": len(points),
        "threshold_solver.points_solved": sum(1 for s in points if s[4]),
        "threshold_solver.point_p50_ms": benchlib.percentile(point_ms, 50) if points else 0.0,
        "threshold_solver.point_p75_ms": benchlib.percentile(point_ms, 75) if points else 0.0,
        "threshold_solver.simplex_runs": calls(MINIMIZE),
        "threshold_solver.simplex_nit": counts["simplex_nit"],
        "threshold_solver.simplex_nfev": counts["simplex_nfev"],
        "threshold_solver.evals_per_point":
            counts["simplex_nfev"] / len(points) if points else 0.0,
        "threshold_solver.self_s": self_total(*MAXIMIZE, MINIMIZE),
    }
    for k in KERNELS:
        n = calls(k)
        m.update({f"{k}.calls": n, f"{k}.total_s": total(k),
                  f"{k}.mean_us": total(k) / n * 1e6 if n else 0.0})
    fock = "photon_statistics.fock_oracle_click_probs"
    n = calls(fock)
    m.update({f"{fock}.calls": n, f"{fock}.total_s": total(fock),
              f"{fock}.mean_ms": total(fock) / n * 1e3 if n else 0.0})
    for fn in ("single_photon_click_probs", "multimode_pair_click_probs",
               "tmsv_pair_click_probs_series"):
        m[f"photon_statistics.{fn}.total_s"] = total(f"photon_statistics.{fn}")
    for name in SIMULATORS:
        s = total(name)
        m[f"{name}.s"] = s
        m[f"{name}.mpulses_per_s"] = counts[f"{name}.pulses"] / s / 1e6 if s else 0.0
    m["source_simulator.peak_areas_from_tags.s"] = total(
        "source_simulator.peak_areas_from_tags")
    for name in ANALYZER:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
    for name in IO:
        m[f"{name}.s"] = total(name)
        m[f"{name}.bytes"] = counts[f"{name}.bytes"]
    m["trace.untraced_pass_s"] = untraced_s
    m["trace.traced_pass_s"] = traced_s
    m["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return m


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    ref = workloads.load_reference(workload.name) or {}

    def untraced_pass():
        t0 = clock()
        run_pass(workload, args.seed, os.path.join(args.workdir, "untraced"), cli.main)
        return clock() - t0

    # untraced passes on both sides of the traced one, so warm-up and
    # drift do not read as tracing overhead
    untraced_s = untraced_pass()
    tracer = Tracer()
    tracer.install()
    traced_dir = os.path.join(args.workdir, "traced")
    t0 = clock()
    codes, problems = run_pass(workload, args.seed, traced_dir,
                               tracer.wrap("cli.main", cli.main))
    traced_s = clock() - t0
    tracer.uninstall()
    untraced_s = 0.5 * (untraced_s + untraced_pass())

    gate = workload.check(traced_dir, args.seed, codes, ref or None)
    spans_file = os.path.join(args.workdir, "spans.jsonl")
    tracer.write(spans_file)

    values = layer_metrics(tracer, untraced_s, traced_s)
    seen = defaultdict(int)
    for s in tracer.spans:
        seen[s[0]] += 1
    table = metric_table()
    absent = benchlib.absent_metrics(table, seen, ref.get("trace_calls", {}))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in table if name not in absent}
    with open(args.out, "w") as fh:
        json.dump({
            "metrics": metrics,
            "absent": sorted(absent),
            "calls": dict(seen),
            "attempted": gate.attempted,
            "failed": gate.failed,
            "problems": problems + gate.problems,
            "spans_file": os.path.relpath(spans_file),
        }, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
