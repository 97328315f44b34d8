"""Arithmetic of the benchmark: summaries, span self time, failure
fractions and the reference comparisons of the correctness gate.

Pure functions on plain Python data, so they can be tested without
running the package.
"""

import math

# Candidate percentiles for the tail figure of a timing, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile is reported only with at least this many samples above it.
TAIL_MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("median of an empty sequence")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def percentile(values, p):
    """Linearly interpolated percentile, as numpy's default method."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sequence")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values):
    """Highest candidate percentile with >= TAIL_MIN_BEYOND samples above it.

    The samples above the interpolated percentile are those past index
    floor((n - 1) p / 100) of the sorted values.  Returns (p, value), or
    None when even the median has too few samples beyond it.
    """
    n = len(values)
    for p in TAIL_CANDIDATES:
        beyond = n - 1 - math.floor((n - 1) * p / 100.0 + 1e-9)
        if beyond >= TAIL_MIN_BEYOND:
            return p, percentile(values, p)
    return None


def summarize(values):
    """Median, sample count and tail percentile of a list of timings."""
    out = {"median": median(values), "n": len(values)}
    tail = tail_percentile(values)
    if tail is not None:
        out["tail_p"], out["tail"] = tail
    return out


def self_times(spans):
    """Self time of each span: its duration minus what its children cover.

    spans is a list of (name, start, end, parent) with parent the index
    of the enclosing span or -1.  Children are clipped to their parent
    and overlapping children are counted once.
    """
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for j in sorted(children[i], key=lambda k: spans[k][1]):
            c0 = max(spans[j][1], cursor)
            c1 = min(spans[j][2], end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append((end - start) - covered)
    return out


def absent_metrics(table, seen, ref_calls):
    """Names of the metrics whose layer vanished from the traced run.

    table holds (metric, unit, span names it measures); seen and
    ref_calls map a span name to its calls now and at the seed commit.
    A metric is absent when none of its spans ran now but one ran at the
    seed commit, so a moved call site reads as absent, not as 0 s.  A
    metric of spans the workload never calls stays, at 0.
    """
    return {name for name, _, deps in table
            if deps and not any(seen.get(d) for d in deps)
            and any(ref_calls.get(d) for d in deps)}


def ops_failed_frac(attempted, failed):
    """Failed operations over attempted operations."""
    if attempted <= 0:
        raise ValueError("no operations attempted")
    return failed / attempted


def sweep_ops(curve_doc):
    """(attempted, failed) sweep points of a threshold-curve JSON document.

    Every penalty point of the grid is one operation; a point listed in
    meta.gaps failed.
    """
    gaps = len(curve_doc.get("meta", {}).get("gaps", []))
    return len(curve_doc["p_error"]) + gaps, gaps


def compare_curve(ref_p_error, ref_p_success, support, values, rtol):
    """Mismatches of a curve evaluated at the reference p_error points.

    support is the (min, max) p_error of the new curve; values are its
    interpolated p_success at the reference points clipped into that
    support.  A reference point outside the support by more than rtol,
    or a value off the reference by more than rtol, is a mismatch.
    """
    lo, hi = support
    bad = []
    if len(values) != len(ref_p_error):
        return [f"{len(values)} values for {len(ref_p_error)} reference points"]
    for pe, ps, got in zip(ref_p_error, ref_p_success, values):
        if pe < lo * (1.0 - rtol) or pe > hi * (1.0 + rtol):
            bad.append(f"p_error {pe!r} outside curve support [{lo!r}, {hi!r}]")
        elif not abs(got - ps) <= rtol * abs(ps):
            bad.append(f"at p_error {pe!r}: {got!r} vs reference {ps!r}")
    return bad


def compare_numbers(ref, got, rtol, atol=0.0, where=""):
    """Mismatches of got against every field of ref.

    Numbers agree to atol + rtol * |ref|, everything else exactly.
    Fields that got has and ref lacks are ignored, so reports may grow.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{where or '.'}: expected an object"]
        bad = []
        for key, value in ref.items():
            path = f"{where}.{key}"
            if key not in got:
                bad.append(f"{path}: missing")
            else:
                bad.extend(compare_numbers(value, got[key], rtol, atol, path))
        return bad
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: expected a list of {len(ref)}"]
        bad = []
        for i, (r, g) in enumerate(zip(ref, got)):
            bad.extend(compare_numbers(r, g, rtol, atol, f"{where}[{i}]"))
        return bad
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        if (isinstance(got, (int, float)) and not isinstance(got, bool)
                and abs(got - ref) <= atol + rtol * abs(ref)):
            return []
        return [f"{where}: {got!r} vs reference {ref!r}"]
    return [] if got == ref else [f"{where}: {got!r} vs reference {ref!r}"]
