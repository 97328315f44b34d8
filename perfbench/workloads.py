"""The benchmark's workloads: the steps each runs and the gate on its outputs.

A step is either a ``nongauss`` CLI call ("cli", run as the console
script runs it) or a library step of ``steps.py`` ("lib").  Each step
is a producer (it makes the workload's primary output) or a consumer
(it turns that output into what a user reads).  The same steps run in
fresh processes for the end-to-end figures and in-process for the
traced run.

Only the qd-campaign and validate workloads depend on the seed; the two
threshold sweeps are deterministic and get the same inputs at every
seed, so their reference comparison applies at every seed.
"""

import hashlib
import json
import os
from collections import namedtuple

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Seed at which the stored reference outputs were produced.
DEFAULT_SEED = 7
# Curve tolerance: 20x the largest change the planned solver rewrites
# make (5e-8 relative), 100x tighter than a 1e-4 error in the boundary.
CURVE_RTOL = 1e-6
# Report numbers are deterministic; these only absorb last-digit changes
# from reordered floating-point arithmetic (fit residuals sit near 1e-15).
REPORT_RTOL = 1e-9
REPORT_ATOL = 1e-14

Step = namedtuple("Step", "name role kind argv")
# The end-to-end run times each consumer step this many times and counts
# the median.  Every consumer step takes about a second, most of it the
# interpreter start, and identical ~1 s processes vary by +-20% on a
# shared host; a producer step runs for seconds and averages that out.
CONSUMER_REPEAT = 3

EXIT_OK, EXIT_ERROR, EXIT_NOT_CERTIFIED = 0, 1, 2


class Gate:
    """Operations attempted and failed in one pass, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, name, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)

    def sweep(self, name, attempted, failed):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{name}: {failed} of {attempted} sweep points in meta.gaps")


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _exit_problem(code, expected):
    return [] if code == expected else [f"exit code {code}, contract says {expected}"]


def _read(path, problems):
    try:
        return load_json(path)
    except (OSError, ValueError) as exc:
        problems.append(f"cannot read {os.path.basename(path)}: {exc}")
        return None


# ----------------------------------------------------------- threshold sweeps

class CurveWorkload:
    """One ``threshold`` sweep, then the curve read back at the reference points."""

    def __init__(self, name, args, why):
        self.name = name
        self.args = args
        self.why = why
        self.names = {"producer": "threshold_s", "consumer": "curve_readback_s"}

    def steps(self, seed):
        ref = os.path.join(REFERENCE_DIR, f"{self.name}.json")
        return [
            Step("threshold", "producer", "cli",
                 ["threshold", *self.args, "--out", "curve"]),
            Step("curve-values", "consumer", "lib",
                 ["curve_values", "curve.json", ref, "curve_values.json"]),
        ]

    def check(self, workdir, seed, codes, ref):
        gate = Gate()
        problems = []
        curve = _read(os.path.join(workdir, "curve.json"), problems)
        values = None
        read_problems = _exit_problem(codes[1], EXIT_OK)
        if not read_problems:
            values = _read(os.path.join(workdir, "curve_values.json"), read_problems)
        if curve is not None:
            attempted, failed = benchlib.sweep_ops(curve)
            gate.sweep("threshold", attempted, failed)
            problems += _exit_problem(codes[0], EXIT_ERROR if failed else EXIT_OK)
            if ref is not None:
                if values is None:
                    problems.append("curve not checked: read-back failed")
                else:
                    problems += benchlib.compare_curve(
                        ref["p_error"], ref["p_success"], values["support"],
                        values["values"], CURVE_RTOL)
        gate.op("threshold", problems)
        gate.op("curve-values", read_problems)
        return gate


# ---------------------------------------------------------------- qd campaign

QD_PULSES = 8_000_000
TMSV_PULSES = 8_000_000
SINGLE_PULSES = 24_000_000
DETECTION = ["--eta", "0.1467"]
ANALYSIS = ["--eta", "0.1467", "--sigma-eta", "0.0034"]


class QdCampaign:
    """The README workflow: simulate sources, then analyze their counts."""

    name = "qd-campaign"
    why = ("simulate qd/tmsv/single then analyze, fresh processes: simulator, "
           "tag write and read, analyzer and per-process import; no optimizer")
    names = {"producer": "simulate_s", "consumer": "analyze_s"}

    def steps(self, seed):
        s = str(seed)
        return [
            Step("simulate-qd", "producer", "cli",
                 ["simulate", "--source", "qd", "--pulses", str(QD_PULSES),
                  "--seed", s, *DETECTION, "--out", "qd.json",
                  "--tags", "qd_tags.txt"]),
            Step("peak-areas", "consumer", "lib",
                 ["peak_areas", "qd_tags.txt", "qd_peaks.csv"]),
            Step("analyze-qd", "consumer", "cli",
                 ["analyze", "--counts", "qd.json", *ANALYSIS,
                  "--peak-areas", "qd_peaks.csv", "--out", "qd"]),
            Step("simulate-tmsv", "producer", "cli",
                 ["simulate", "--source", "tmsv", "--pulses", str(TMSV_PULSES),
                  "--seed", s, *DETECTION, "--mu", "0.05", "--modes", "8",
                  "--out", "tmsv.json"]),
            Step("analyze-tmsv", "consumer", "cli",
                 ["analyze", "--counts", "tmsv.json", *ANALYSIS, "--out", "tmsv"]),
            Step("simulate-single", "producer", "cli",
                 ["simulate", "--source", "single", "--pulses", str(SINGLE_PULSES),
                  "--seed", s, *DETECTION, "--double-prob", "0.01",
                  "--out", "single.json"]),
            # single-approx: the boundary for single photons at known
            # efficiency, which is what --sigma-eta needs
            Step("analyze-single", "consumer", "cli",
                 ["analyze", "--counts", "single.json", "--criterion",
                  "single-approx", *ANALYSIS, "--out", "single"]),
        ]

    def check(self, workdir, seed, codes, ref):
        gate = Gate()
        at_reference = ref is not None and seed == DEFAULT_SEED
        path = lambda name: os.path.join(workdir, name)

        def same_bytes(name, problems):
            if not at_reference:
                return
            try:
                if sha256(path(name)) != ref["sha256"][name]:
                    problems.append(f"{name} differs from the reference bytes")
            except OSError as exc:
                problems.append(f"cannot read {name}: {exc}")

        counts = {}
        for step, code in zip(self.steps(seed), codes):
            problems = []
            if step.name.startswith("simulate-"):
                source = step.name.split("-", 1)[1]
                problems += _exit_problem(code, EXIT_OK)
                doc = _read(path(f"{source}.json"), problems)
                if doc is not None:
                    counts[source] = doc
                    if doc.get("schema") != "nongauss-counts":
                        problems.append("counts file has the wrong schema")
                    same_bytes(f"{source}.json", problems)
                    if source == "qd":
                        same_bytes("qd_tags.txt", problems)
            elif step.name == "peak-areas":
                problems += _exit_problem(code, EXIT_OK)
                try:
                    with open(path("qd_peaks.csv")) as fh:
                        rows = [ln for ln in fh if not ln.startswith("#")]
                except OSError as exc:
                    rows = None
                    problems.append(f"cannot read qd_peaks.csv: {exc}")
                if rows is not None and len(rows) != 41:
                    problems.append(f"{len(rows) - 1} peak-area rows, expected 40")
                same_bytes("qd_peaks.csv", problems)
            else:
                source = step.name.split("-", 1)[1]
                report = _read(path(f"{source}_report.json"), problems)
                if report is not None:
                    expected = EXIT_OK if report.get("certified") else EXIT_NOT_CERTIFIED
                    problems += _exit_problem(code, expected)
                    problems += _report_matches_counts(report, counts.get(source))
                    if source == "qd" and not (report.get("blinking") or {}).get(
                            "blinking_factor"):
                        problems.append("report has no blinking fit")
                    if at_reference:
                        problems += benchlib.compare_numbers(
                            ref["reports"][source], report, REPORT_RTOL, REPORT_ATOL,
                            "report")
            gate.op(step.name, problems)
        return gate


def _report_matches_counts(report, counts):
    """Seed-independent check: the report's probabilities are the counts' ratios."""
    if counts is None:
        return ["no counts to compare the report with"]
    trials = counts["generation_rate_hz"] * counts["duration_s"]
    success = counts["success_count"] / trials
    if counts["kind"] == "pair":
        error = (counts["error_count_a"] + counts["error_count_b"]) / (2.0 * trials)
    else:
        error = counts["error_count_a"] / trials
    probs = report.get("probabilities", {})
    bad = []
    for name, want in (("p_success", success), ("p_error", error)):
        got = probs.get(name, {}).get("value")
        if got is None or abs(got - want) > REPORT_RTOL * abs(want):
            bad.append(f"report {name} {got!r}, counts give {want!r}")
    if report.get("kind") != counts["kind"]:
        bad.append(f"report kind {report.get('kind')!r}, counts kind {counts['kind']!r}")
    return bad


# ------------------------------------------------------------------- validate

class Validate:
    """The full validation suite, then its JSON report read back."""

    name = "validate"
    why = ("validate --suite all: the only Fock-oracle (BLAS expm) user, plus a "
           "bright 1-mode tmsv and in-memory qd tags; no file-bound simulation")
    names = {"producer": "validate_s", "consumer": "report_readback_s"}

    def steps(self, seed):
        return [
            Step("validate", "producer", "cli",
                 ["validate", "--suite", "all", "--seed", str(seed),
                  "--pulses", "2000000", "--out", "validation.json"]),
            Step("validation-rows", "consumer", "lib",
                 ["validation_rows", "validation.json", "validation_rows.json"]),
        ]

    def check(self, workdir, seed, codes, ref):
        gate = Gate()
        problems = []
        doc = _read(os.path.join(workdir, "validation.json"), problems)
        rows = [] if doc is None else doc.get("checks", [])
        statuses = {r["name"]: r["status"] for r in rows}
        if doc is not None:
            if "fail" in statuses.values():
                expected = EXIT_ERROR
            elif "flag" in statuses.values():
                expected = EXIT_NOT_CERTIFIED
            else:
                expected = EXIT_OK
            problems += _exit_problem(codes[0], expected)
            if ref is not None:
                missing = sorted(set(ref["checks"]) - set(statuses))
                if missing:
                    problems.append(f"checks missing: {', '.join(missing)}")
            problems += validation_problems(statuses, seed)
        gate.op("validate", problems)

        read_problems = _exit_problem(codes[1], EXIT_OK)
        if not read_problems:
            got = _read(os.path.join(workdir, "validation_rows.json"), read_problems)
            if got is not None and got != statuses:
                read_problems.append("read-back rows differ from the report")
        gate.op("validation-rows", read_problems)
        return gate


def validation_problems(statuses, seed):
    """Rows of a validation report that do not read as they must.

    A Monte Carlo row ("mc-...") flags (3-4 z) on about 2% of seeds by
    chance, so it may read "flag" away from the reference seed.  Every
    other row compares two routes to the same numbers and ignores the
    seed's noise, so it must read "pass" at every seed.
    """
    bad = []
    for name, status in statuses.items():
        chance = name.startswith("mc-") and seed != DEFAULT_SEED
        if status != "pass" and not (chance and status == "flag"):
            bad.append(f"check {name} reads {status}")
    return bad


WORKLOADS = {
    w.name: w for w in (
        CurveWorkload(
            "pair-curve", ["--mode", "pair", "--eta", "0.1467", "--n", "4"],
            "pair sweep, 4 modes: N-D Nelder-Mead over the pair kernel; "
            "no mpmath, no simulator"),
        CurveWorkload(
            "single-curve", ["--mode", "single", "--eta", "0.5"],
            "single-photon sweep: 50-digit mpmath no_click_after_loss; "
            "never calls the pair kernel"),
        QdCampaign(),
        Validate(),
    )
}


def load_reference(name):
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    return load_json(path) if os.path.exists(path) else None
