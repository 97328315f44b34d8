"""Benchmark of the nongauss CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 runs the workload's steps as a user does, each in a fresh
interpreter, as many whole passes as fit in S seconds (at least one),
checks every output, and reports the end-to-end metrics: medians over
the passes, and for setup_s over fresh imports (probes before the first
pass, and the import every CLI step makes).  --trace 1 runs the
same steps in one process through ``nongauss.cli.main`` with the public
functions wrapped, and reports per-layer metrics.

The package is imported from ``src/`` of the current directory; the
benchmark writes only under ``perfbench/.work/``.  Child processes run
one at a time with one BLAS thread.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time

import benchlib
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

SETUP_RUNS = 5          # timed imports per run; one untimed warm-up precedes them
IMPORTTIME_RUNS = 3     # -X importtime probes per traced run
RUN_LIMIT_S = 170.0     # every child is stopped before a run can pass this
BLAS_THREADS = "1"      # fixed: default OpenBLAS threading made oracle time wander

# The console script's entry, with the import timed on the way: the
# import time goes to stderr as one IMPORT_MARK line, before main runs.
IMPORT_MARK = "perfbench-import-s"
CLI_ENTRY = (
    "import sys, time; t0 = time.perf_counter(); from nongauss.cli import main; "
    f"sys.stderr.write('{IMPORT_MARK} %r\\n' % (time.perf_counter() - t0)); "
    "sys.stderr.flush(); sys.exit(main())")
SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import nongauss.cli
t1 = time.perf_counter()
import json, os, platform, numpy, scipy, mpmath
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except Exception:
    blas = "unknown"
print(json.dumps({"import_s": t1 - t0, "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "mpmath": mpmath.__version__, "blas": blas}))
"""
IMPORT_KEYS = {
    "scipy.optimize": "cli.import.scipy_optimize_s",
    "scipy.linalg": "cli.import.scipy_linalg_s",
    "mpmath": "cli.import.mpmath_s",
    "numpy": "cli.import.numpy_s",
}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "producer_s": "s",
                    "consumer_s": "s", "peak_rss_mb": "MB"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Runner:
    """Starts children one at a time and stops any that would outrun the run."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.env = child_env()

    def run(self, argv, cwd=ROOT):
        timeout = max(RUN_LIMIT_S - (time.perf_counter() - self.t0), 1.0)
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=self.env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - start, "", "timed out"
        return proc.returncode, time.perf_counter() - start, proc.stdout, proc.stderr

    def elapsed(self):
        return time.perf_counter() - self.t0


def child_import_s(stderr):
    """Import time a CLI child reported, or None for other children."""
    for line in stderr.splitlines():
        if line.startswith(IMPORT_MARK + " "):
            return float(line.split()[1])
    return None


def step_argv(step):
    if step.kind == "cli":
        return ["-c", CLI_ENTRY, *step.argv]
    return [os.path.join(HERE, "steps.py"), *step.argv]


def fresh_workdir(name):
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def steal_line(start):
    """Share of CPU time the hypervisor gave to other guests during the run."""
    (s0, t0), (s1, t1) = start, cpu_ticks()
    share = (s1 - s0) / (t1 - t0) if t1 > t0 else 0.0
    return f"host steal during the run: {share:.1%} of CPU time (noisy neighbours slow every figure)"


def machine_line(info):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"machine: nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} python={info['python']} "
            f"numpy={info['numpy']} scipy={info['scipy']} mpmath={info['mpmath']} "
            f"blas={info['blas']!r} blas_threads={BLAS_THREADS} child_processes=1")


def timing_line(name, unit, values, what):
    s = benchlib.summarize(values)
    tail = (f", p{s['tail_p']:g} {s['tail']:.4f}" if "tail" in s
            else ", no percentile has 10 samples above it")
    return f"{name:<18} median {s['median']:.4f} {unit} (n={s['n']} {what}{tail})"


def import_probe(runner):
    """Import time of nongauss.cli in a fresh interpreter, plus versions."""
    code, _, out, err = runner.run(["-c", SETUP_PROBE])
    if code != 0:
        raise RuntimeError(f"import nongauss.cli failed: {err.strip()[-400:]}")
    return json.loads(out)


def setup_phase(runner):
    """Import times after one untimed warm-up, and the versions seen."""
    info = import_probe(runner)
    times = [import_probe(runner)["import_s"] for _ in range(SETUP_RUNS)]
    return times, info


def run_untraced(workload, seed, seconds):
    ticks = cpu_ticks()
    runner = Runner()
    ref = workloads.load_reference(workload.name)
    setup, info = setup_phase(runner)
    print(machine_line(info))
    passes = []
    attempted = failed = 0
    problems = []
    measure_t0 = time.perf_counter()
    while True:
        workdir = fresh_workdir(workload.name)
        steps = workload.steps(seed)
        codes = []
        role_s = {"producer": 0.0, "consumer": 0.0}
        repeats_s = 0.0
        pass_t0 = time.perf_counter()
        for step in steps:
            repeat = workloads.CONSUMER_REPEAT if step.role == "consumer" else 1
            runs = [runner.run(step_argv(step), cwd=workdir) for _ in range(repeat)]
            setup += [t for t in (child_import_s(r[3]) for r in runs) if t is not None]
            code = next((r[0] for r in runs if r[0] != runs[0][0]), runs[0][0])
            codes.append(code)
            step_s = benchlib.median([r[1] for r in runs])
            role_s[step.role] += step_s
            repeats_s += sum(r[1] for r in runs) - step_s
            if code not in (0, 2):
                print(f"note: {step.name} exited {code}: {runs[-1][3].strip()[-300:]}")
        elapsed = time.perf_counter() - pass_t0
        # a user runs each step once: count a repeated step at its median
        wall = elapsed - repeats_s
        gate = workload.check(workdir, seed, codes, ref)
        attempted += gate.attempted
        failed += gate.failed
        problems += gate.problems
        passes.append({"wall_s": wall, **{f"{r}_s": v for r, v in role_s.items()}})
        # another pass only if one more like the last still fits
        measured = time.perf_counter() - measure_t0
        if measured + elapsed > seconds or runner.elapsed() + 1.5 * elapsed > RUN_LIMIT_S:
            break

    metrics = {"setup_s": benchlib.median(setup)}
    for key in ("wall_s", "producer_s", "consumer_s"):
        metrics[key] = benchlib.median([p[key] for p in passes])
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mb"] = rss * 1024 / 1e6

    print(timing_line("setup_s", "s", setup, "fresh imports of nongauss.cli"))
    print(f"{'passes':<18} {len(passes)}")
    print(timing_line("wall_s", "s", [p["wall_s"] for p in passes], "passes"))
    for role in ("producer", "consumer"):
        label = f"{role}_s = {workload.names[role]}"
        print(timing_line(label, "s", [p[f"{role}_s"] for p in passes], "passes"))
    print(f"{'peak_rss_mb':<18} {metrics['peak_rss_mb']:.1f} MB "
          "(highest child resident set, RUSAGE_CHILDREN)")
    print(f"{'ops_failed_frac':<18} {benchlib.ops_failed_frac(attempted, failed):.4g} "
          f"({failed} of {attempted} ops)")
    print(steal_line(ticks))
    return metrics, attempted, failed, problems, END_TO_END_UNITS


def parse_importtime(stderr):
    """Cumulative seconds per top module and nongauss's own self time."""
    cumulative, own = {}, 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = float(parts[0]), float(parts[1])
        except ValueError:
            continue
        module = parts[2].strip()
        if module in IMPORT_KEYS:
            cumulative[IMPORT_KEYS[module]] = cum_us / 1e6
        if module == "nongauss" or module.startswith("nongauss."):
            own += self_us / 1e6
    out = {key: cumulative.get(key, 0.0) for key in IMPORT_KEYS.values()}
    out["cli.import.nongauss_self_s"] = own
    return out


def run_traced(workload, seed, seconds):
    ticks = cpu_ticks()
    runner = Runner()
    print(machine_line(import_probe(runner)))
    probes = []
    for _ in range(IMPORTTIME_RUNS):
        code, _, _, err = runner.run(["-X", "importtime", "-c", "import nongauss.cli"])
        if code != 0:
            raise RuntimeError(f"import nongauss.cli failed: {err.strip()[-400:]}")
        probes.append(parse_importtime(err))
    metrics = {k: benchlib.median([p[k] for p in probes]) for k in probes[0]}
    units = {k: "s" for k in metrics}

    workdir = fresh_workdir(workload.name)
    result = os.path.join(workdir, "trace_result.json")
    code, _, out, err = runner.run(
        [os.path.join(HERE, "traced.py"), "--workload", workload.name,
         "--seed", str(seed), "--workdir", workdir, "--out", result])
    if code != 0:
        raise RuntimeError(f"traced run failed: {err.strip()[-800:]}")
    doc = workloads.load_json(result)
    for name, entry in doc["metrics"].items():
        metrics[name] = entry["value"]
        units[name] = entry["unit"]
    for name in doc["absent"]:
        print(f"absent: {name} (called at the reference seed commit, no calls now)")
    print(f"trace: untraced pass {metrics['trace.untraced_pass_s']:.3f} s, traced "
          f"pass {metrics['trace.traced_pass_s']:.3f} s, overhead "
          f"{metrics['trace.overhead_frac']:+.2%}; spans in {doc['spans_file']}")
    print(steal_line(ticks))
    return metrics, doc["attempted"], doc["failed"], doc["problems"], units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "nongauss", "cli.py")):
        print(f"error: no package source at {SRC}/nongauss; run from the root "
              "of a nongauss checkout", file=sys.stderr)
        return 2
    if workloads.load_reference(args.workload) is None:
        print(f"error: no reference outputs for {args.workload} in "
              f"{workloads.REFERENCE_DIR}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    print(f"perfbench: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    run = run_traced if args.trace else run_untraced
    try:
        metrics, attempted, failed, problems, units = run(workload, args.seed,
                                                          args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for p in problems:
        print(f"FAILED {p}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
