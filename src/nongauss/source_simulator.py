"""Seeded Monte Carlo photon-source simulators.

Three sources share one detection layout: an intermittent quantum-dot
cascade emitter with double-emission contamination, an ensemble of
two-mode squeezed modes, and a single-photon stream.  Each run is a
pure function of (seed, configs, pulse count): pulses are processed in
fixed-size blocks and every block draws from its own substream keyed
by (seed, block index), so results do not depend on how work is split.

Detector names: pair sources use a1/a2 (arm a) and b1/b2 (arm b) with
the designated success detectors a1 and b1; the single-photon stream
uses d1 (transmitted) and d2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .counts_analyzer import CountSummary
from .errors import DomainError
from .photon_statistics.types import ModeEnsemble

BLOCK = 1 << 20  # pulses per substream block; part of the output contract


def _check_rep_rate(rep_rate_hz):
    # the count duration is pulses / rate, so name the rate itself
    if not (math.isfinite(rep_rate_hz) and rep_rate_hz > 0):
        raise DomainError(f"rep_rate_hz must be finite and > 0, got {rep_rate_hz}")


@dataclass(frozen=True)
class QdSourceConfig:
    """Intermittent cascade emitter with re-excitation contamination.

    g2_contamination is the target zero-delay autocorrelation of one
    arm; internally a second cascade follows a first one with
    probability g2_contamination * emission_prob / 2, which reproduces
    that autocorrelation at low emission probability.
    extraction_efficiency models source-side photon loss (part of the
    emitted state, not of the detection chain).
    """

    rep_rate_hz: float = 80e6
    emission_prob: float = 0.5
    blinking_on_fraction: float = 0.566
    blinking_correlation_pulses: float = 8.0
    g2_contamination: float = 0.0154
    xx_lifetime_ps: float = 249.8
    x_lifetime_ps: float = 397.2
    coincidence_window_ps: float = 1408.0
    extraction_efficiency: float = 1.0

    def __post_init__(self):
        _check_rep_rate(self.rep_rate_hz)
        # with no emission there is no generation rate to normalize by
        if not (0.0 < self.emission_prob <= 1.0):
            raise DomainError(
                f"emission_prob must lie in (0, 1], got {self.emission_prob}")
        if not (0.0 < self.blinking_on_fraction <= 1.0):
            raise DomainError("blinking_on_fraction must lie in (0, 1]")
        if not (self.blinking_correlation_pulses > 0):
            raise DomainError("blinking_correlation_pulses must be > 0")
        if not (0.0 <= self.g2_contamination):
            raise DomainError("g2_contamination must be >= 0")
        if self.g2_contamination * self.emission_prob / 2.0 > 1.0:
            raise DomainError("g2_contamination too large for this emission_prob")
        for name in ("xx_lifetime_ps", "x_lifetime_ps", "coincidence_window_ps"):
            if not (getattr(self, name) > 0):
                raise DomainError(f"{name} must be > 0")
        if not (0.0 < self.extraction_efficiency <= 1.0):
            raise DomainError("extraction_efficiency must lie in (0, 1]")


@dataclass(frozen=True)
class SimRun:
    """Result of one simulation: the counts (with the clicks per detector
    in counts.singles) and, where collected, the tag stream."""

    counts: CountSummary
    tags: dict = None


def _blocks(n_pulses):
    done = 0
    index = 0
    while done < n_pulses:
        yield index, min(BLOCK, n_pulses - done)
        done += BLOCK
        index += 1


def _telegraph(rng, n, on_fraction, correlation_pulses):
    """Exact two-state telegraph sample, as runs of one state.

    Each pulse keeps the previous state with probability
    exp(-1 / correlation) and otherwise redraws it from the stationary
    law, which reproduces the standard telegraph transition matrix.
    Both n-long streams are drawn, keep first; a redraw starts a run
    that lasts until the next one.  Blocks restart from the stationary
    law.
    """
    lam = np.exp(-1.0 / correlation_pulses)
    keep = rng.random(n) < lam
    fresh = rng.random(n) < on_fraction
    keep[0] = False
    starts = np.flatnonzero(~keep)
    return np.repeat(fresh[starts], np.diff(starts, append=n))


def _route_clicks(rng, n, idx, present, times, survival, t_bs):
    """Send photons with given emission times to a two-detector arm.

    Works on the emitting pulses idx of an n-pulse block: present and
    times hold one entry per emitting pulse, and each photon takes its
    uniform from a full n-long draw, so the stream does not depend on
    how many pulses emit.  Returns click times per detector (inf where
    no click).  survival is the per-photon probability of reaching the
    splitter, t_bs the share transmitted to the first detector.
    """
    t1 = np.full(idx.size, np.inf)
    t2 = np.full(idx.size, np.inf)
    for exists, t in zip(present, times):
        u = rng.random(n)[idx]
        hit1 = exists & (u < survival * t_bs)
        hit2 = exists & ~hit1 & (u < survival)
        t1[hit1] = np.minimum(t1[hit1], t[hit1])
        t2[hit2] = np.minimum(t2[hit2], t[hit2])
    return t1, t2


def _coincide(ta, tb, window_ps):
    both = np.isfinite(ta) & np.isfinite(tb)
    delta = np.where(both, ta, 0.0) - np.where(both, tb, 0.0)
    return both & (np.abs(delta) <= window_ps)


def simulate_qd_pairs(source, detection, n_pulses, seed, collect_tags=False):
    """Simulate the cascade pair source through the detection tree.

    Per pulse: sample the blinking state; an on emitter starts a
    cascade with emission_prob and, within the same pulse, a second
    one with the re-excitation probability.  The first cascade photon
    goes to arm a, the second to arm b, each with exponential emission
    times chained through the cascade.  Clicks within the coincidence
    window form coincidences.  Counts are normalized per started
    cascade: generation_rate = rep_rate * on_fraction * emission_prob.

    Every block draws its n-long streams in a fixed order (blinking
    keep and state, emission, re-excitation, the four cascade times,
    then one uniform per photon and arm) and keeps only the entries of
    the pulses that emit: no other pulse can click.  That order is part
    of the output contract.  Tags come sorted by pulse, and within a
    pulse by detector name.
    """
    if n_pulses <= 0:
        raise DomainError(f"n_pulses must be > 0, got {n_pulses}")
    q_double = source.g2_contamination * source.emission_prob / 2.0
    survival = source.extraction_efficiency * detection.eta
    window = source.coincidence_window_ps
    c_s = c_ea = c_eb = 0
    clicks = {"a1": 0, "a2": 0, "b1": 0, "b2": 0}
    tags = {"pulse_index": [], "detector": [], "time_ps": []} if collect_tags else None

    for block_index, n in _blocks(n_pulses):
        rng = np.random.default_rng((seed, block_index))
        on = _telegraph(rng, n, source.blinking_on_fraction,
                        source.blinking_correlation_pulses)
        idx = np.flatnonzero(on & (rng.random(n) < source.emission_prob))
        emit2 = rng.random(n)[idx] < q_double

        # cascade times: arm-a photon first, then the arm-b photon;
        # a re-excited second cascade starts when the first one ends
        t_a1p = rng.exponential(source.xx_lifetime_ps, n)[idx]
        t_b1p = t_a1p + rng.exponential(source.x_lifetime_ps, n)[idx]
        t_a2p = t_b1p + rng.exponential(source.xx_lifetime_ps, n)[idx]
        t_b2p = t_a2p + rng.exponential(source.x_lifetime_ps, n)[idx]

        # every pulse in idx emits a first cascade
        ta1, ta2 = _route_clicks(
            rng, n, idx, (True, emit2), (t_a1p, t_a2p), survival, detection.t_bs
        )
        tb1, tb2 = _route_clicks(
            rng, n, idx, (True, emit2), (t_b1p, t_b2p), survival, detection.t_bs_b
        )

        c_s += int(np.sum(_coincide(ta1, tb1, window)))
        c_ea += int(np.sum(_coincide(ta1, ta2, window)))
        c_eb += int(np.sum(_coincide(tb1, tb2, window)))
        base = block_index * BLOCK
        for name, t in (("a1", ta1), ("a2", ta2), ("b1", tb1), ("b2", tb2)):
            hit = np.isfinite(t)
            clicks[name] += int(np.sum(hit))
            if collect_tags:
                tags["pulse_index"].append(base + idx[hit])
                tags["detector"].append(np.full(int(hit.sum()), name, dtype="U2"))
                tags["time_ps"].append(t[hit])

    if collect_tags:
        tags = {k: np.concatenate(v) for k, v in tags.items()}
        # within a pulse, tags were appended in a1, a2, b1, b2 order
        order = np.argsort(tags["pulse_index"], kind="stable")
        tags = {k: v[order] for k, v in tags.items()}

    duration = n_pulses / source.rep_rate_hz
    rate = source.rep_rate_hz * source.blinking_on_fraction * source.emission_prob
    counts = CountSummary(
        kind="pair",
        duration_s=duration,
        generation_rate_hz=rate,
        success_count=c_s,
        error_count_a=c_ea,
        error_count_b=c_eb,
        singles=clicks,
        meta={"n_pulses": n_pulses, "seed": seed, "source": "qd_cascade"},
    )
    return SimRun(counts, tags)


def _detect_arm(rng, photons, eta, t_bs):
    """Click indicators of one arm fed `photons` per pulse.

    Splits the multinomial thinning into two chained binomials: first
    the photons that reach detector 1, then, among the rest, those
    that reach detector 2.
    """
    k1 = rng.binomial(photons, eta * t_bs)
    rest = photons - k1
    k2 = rng.binomial(rest, eta * (1.0 - t_bs) / (1.0 - eta * t_bs))
    return k1 > 0, k2 > 0


def simulate_multimode_tmsv(ensemble, detection, n_pulses, seed, rep_rate_hz=80e6):
    """Simulate an ensemble of two-mode squeezed modes, one pulse at a time.

    Each mode contributes a geometric pair number shared by both arms;
    detectors see the summed photon streams.  No time structure is
    modeled: coincidences are per-pulse.
    """
    if not isinstance(ensemble, ModeEnsemble):
        ensemble = ModeEnsemble(tuple(ensemble))
    if n_pulses <= 0:
        raise DomainError(f"n_pulses must be > 0, got {n_pulses}")
    _check_rep_rate(rep_rate_hz)
    c_s = c_ea = c_eb = 0
    clicks = {"a1": 0, "a2": 0, "b1": 0, "b2": 0}
    for block_index, n in _blocks(n_pulses):
        rng = np.random.default_rng((seed, block_index))
        pairs = np.zeros(n, dtype=np.int64)
        for mu in ensemble.pair_brightness:
            if mu > 0:
                # geometric support starts at 1 in numpy
                pairs += rng.geometric(1.0 - mu, n) - 1
        a1, a2 = _detect_arm(rng, pairs, detection.eta, detection.t_bs)
        b1, b2 = _detect_arm(rng, pairs, detection.eta, detection.t_bs_b)
        c_s += int(np.sum(a1 & b1))
        c_ea += int(np.sum(a1 & a2))
        c_eb += int(np.sum(b1 & b2))
        for name, hit in (("a1", a1), ("a2", a2), ("b1", b1), ("b2", b2)):
            clicks[name] += int(np.sum(hit))
    counts = CountSummary(
        kind="pair",
        duration_s=n_pulses / rep_rate_hz,
        generation_rate_hz=rep_rate_hz,
        success_count=c_s,
        error_count_a=c_ea,
        error_count_b=c_eb,
        singles=clicks,
        meta={"n_pulses": n_pulses, "seed": seed, "source": "tmsv"},
    )
    return SimRun(counts)


def simulate_single_photon_stream(double_emission_prob, detection, n_pulses, seed,
                                  rep_rate_hz=80e6):
    """Simulate a one-photon-per-pulse stream with rare double emission.

    Success counts clicks on the transmitted detector d1; errors are
    same-pulse coincidences of d1 and d2.  At low contamination the
    zero-delay autocorrelation is about twice double_emission_prob.
    """
    if not (0.0 <= double_emission_prob <= 1.0):
        raise DomainError("double_emission_prob must lie in [0, 1]")
    if n_pulses <= 0:
        raise DomainError(f"n_pulses must be > 0, got {n_pulses}")
    _check_rep_rate(rep_rate_hz)
    c_success = c_error = 0
    clicks = {"d1": 0, "d2": 0}
    for block_index, n in _blocks(n_pulses):
        rng = np.random.default_rng((seed, block_index))
        photons = 1 + (rng.random(n) < double_emission_prob).astype(np.int64)
        d1, d2 = _detect_arm(rng, photons, detection.eta, detection.t_bs)
        c_success += int(np.sum(d1))
        c_error += int(np.sum(d1 & d2))
        clicks["d1"] += int(np.sum(d1))
        clicks["d2"] += int(np.sum(d2))
    counts = CountSummary(
        kind="single",
        duration_s=n_pulses / rep_rate_hz,
        generation_rate_hz=rep_rate_hz,
        success_count=c_success,
        error_count_a=c_error,
        singles=clicks,
        meta={"n_pulses": n_pulses, "seed": seed, "source": "single_stream"},
    )
    return SimRun(counts)


def _distinct(pulses):
    # sorted, each pulse once: a repeated tag is the same click
    pulses = np.sort(pulses)
    first = np.ones(pulses.size, dtype=bool)
    first[1:] = pulses[1:] != pulses[:-1]
    return pulses[first]


def peak_areas_from_tags(tags, detector_a="a1", detector_b="b1", max_delay=40):
    """Coincidence totals between two detectors versus pulse separation.

    area(n) counts pulses where detector_a clicked at pulse i and
    detector_b at pulse i + n, for n = 1 .. max_delay.  Feeding these
    to the blinking fit recovers the emitter duty cycle.  Each detector
    counts a pulse once, however often it was tagged.
    """
    if max_delay < 1:
        raise DomainError(f"max_delay must be >= 1, got {max_delay}")
    pulses_a = _distinct(tags["pulse_index"][tags["detector"] == detector_a])
    pulses_b = _distinct(tags["pulse_index"][tags["detector"] == detector_b])
    if pulses_a.size == 0 or pulses_b.size == 0:
        raise DomainError("no tags recorded for the requested detectors")
    # the window of b-pulses in (i, i + max_delay] of each a-pulse i; near
    # the top of int64 the window runs to the last b-pulse
    top = np.minimum(pulses_a, np.iinfo(np.int64).max - max_delay) + max_delay
    first = np.searchsorted(pulses_b, pulses_a, side="right")
    left = np.searchsorted(pulses_b, top, side="right") - first
    counts = np.zeros(max_delay + 1, dtype=np.int64)
    # the k-th b-pulse of every window that holds more than k of them
    while True:
        keep = left > 0
        if not keep.any():
            break
        pulses_a, first, left = pulses_a[keep], first[keep], left[keep]
        counts += np.bincount(pulses_b[first] - pulses_a, minlength=max_delay + 1)
        first += 1
        left -= 1
    return np.arange(1, max_delay + 1), counts[1:].astype(float)
