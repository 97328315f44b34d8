"""Command-line entry point.

Four subcommands wire the library into reproducible runs:

    threshold  sweep a Gaussian-reachable boundary and export it
    analyze    score a counts file against a boundary model
    simulate   run a seeded photon-source Monte Carlo
    validate   cross-check analytics, oracles, and simulators

Each run takes flags, an optional JSON config document, or both; flags
override config fields and unknown config fields are rejected.  Exit
codes: 0 success, 2 analyzed-but-not-certified (or flagged validation),
1 operational error.  Primary outputs contain no timestamps, so a
fixed seed and config reproduce them byte for byte.
"""

import argparse
import json
import sys

import numpy as np

from . import io_formats
from .counts_analyzer import (
    attenuation_scan,
    blinking_fit,
    depth_fit,
    estimate_click_probabilities,
    sigma_distance,
)
from .errors import (
    DomainError,
    FitError,
    FormatError,
    NongaussError,
    PrecisionError,
)
from .photon_statistics import (
    DetectionConfig,
    GaussianStateParams,
    ModeEnsemble,
    fock_oracle_click_probs,
    multimode_pair_click_probs,
    poisson_pair_click_probs,
    single_photon_click_probs,
    tmsv_pair_click_probs_series,
)
from .photon_statistics.fock_oracle import MIN_CUTOFF
from .source_simulator import (
    QdSourceConfig,
    peak_areas_from_tags,
    simulate_multimode_tmsv,
    simulate_qd_pairs,
    simulate_single_photon_stream,
)
from .threshold_solver import (
    PairThresholdModel,
    SinglePhotonThresholdModel,
    SplitterThresholdModel,
    ThresholdCurve,
    pair_threshold_curve,
    single_threshold_curve,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CERTIFIED = 2


# ------------------------------------------------------------- plumbing

def _add_detection_flags(sub, eta_default=None):
    sub.add_argument("--eta", type=float, default=eta_default,
                     help="overall detection efficiency per photon")
    sub.add_argument("--tbs", type=float, default=0.5,
                     help="arm beamsplitter transmission")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nongauss",
        description="Loss-aware non-Gaussianity thresholds for click statistics.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    submap = {}

    sub = subparsers.add_parser(
        "threshold", help="sweep and export a Gaussian boundary curve")
    sub.add_argument("--config", help="JSON config; flags override its fields")
    sub.add_argument("--mode", choices=("single", "pair"), default=None)
    _add_detection_flags(sub)
    sub.add_argument("--n", default="1",
                     help="pair-mode count, or 'asymptotic' for the closed form")
    sub.add_argument("--alpha-min", type=float, default=1.0)
    sub.add_argument("--alpha-max", type=float, default=1e12)
    sub.add_argument("--points", type=int, default=49,
                     help="penalty-grid size of the sweep")
    sub.add_argument("--out", default="threshold",
                     help="output prefix; writes <out>.json and <out>.csv")
    sub.set_defaults(func=cmd_threshold)
    submap["threshold"] = sub

    sub = subparsers.add_parser(
        "analyze", help="score a counts file against a boundary model")
    sub.add_argument("--config", help="JSON config; flags override its fields")
    sub.add_argument("--counts", default=None, help="counts JSON file")
    sub.add_argument("--criterion", default="auto",
                     choices=("auto", "pair-asymptotic", "single-approx",
                              "simple-bs"))
    _add_detection_flags(sub)
    sub.add_argument("--sigma-eta", type=float, default=0.0,
                     help="one-sigma uncertainty of the efficiency")
    sub.add_argument("--a-max", type=float, default=0.8,
                     help="largest emulated attenuation of the scan")
    sub.add_argument("--a-step", type=float, default=0.02)
    sub.add_argument("--sigma-level", type=float, default=1.0,
                     help="sigma margin defining the depth crossing")
    sub.add_argument("--peak-areas", default=None,
                     help="peak-areas CSV; adds a blinking fit to the report")
    sub.add_argument("--out", default="analysis",
                     help="prefix; writes <out>_report.json, <out>_scan.csv")
    sub.set_defaults(func=cmd_analyze)
    submap["analyze"] = sub

    sub = subparsers.add_parser(
        "simulate", help="run a seeded photon-source Monte Carlo")
    sub.add_argument("--config", help="JSON config; flags override its fields")
    sub.add_argument("--source", choices=("qd", "tmsv", "single"), default=None)
    sub.add_argument("--pulses", type=int, default=1_000_000)
    sub.add_argument("--seed", type=int, default=None)
    _add_detection_flags(sub, eta_default=0.1467)
    sub.add_argument("--tbs-b", type=float, default=None,
                     help="second-arm transmission (defaults to --tbs)")
    sub.add_argument("--rep-rate", type=float, default=80e6)
    sub.add_argument("--emission-prob", type=float, default=0.5)
    sub.add_argument("--blinking", type=float, default=0.566,
                     help="emitter on fraction")
    sub.add_argument("--blinking-tau", type=float, default=8.0,
                     help="telegraph correlation in pulses")
    sub.add_argument("--g2", type=float, default=0.0154,
                     help="target zero-delay autocorrelation")
    sub.add_argument("--xx-lifetime", type=float, default=249.8)
    sub.add_argument("--x-lifetime", type=float, default=397.2)
    sub.add_argument("--window", type=float, default=1408.0,
                     help="coincidence window in ps")
    sub.add_argument("--extraction", type=float, default=1.0,
                     help="source-side survival probability per photon")
    sub.add_argument("--mu", type=float, default=0.1,
                     help="per-mode pair brightness (tmsv)")
    sub.add_argument("--modes", type=int, default=1,
                     help="mode-pair count (tmsv)")
    sub.add_argument("--mus", default=None,
                     help="comma list of per-mode brightnesses (tmsv)")
    sub.add_argument("--double-prob", type=float, default=0.01,
                     help="double-emission probability (single)")
    sub.add_argument("--out", default="counts.json", help="counts JSON path")
    sub.add_argument("--tags", default=None,
                     help="tag-stream path (qd source only)")
    sub.set_defaults(func=cmd_simulate)
    submap["simulate"] = sub

    sub = subparsers.add_parser(
        "validate", help="cross-check analytics, oracles, and simulators")
    sub.add_argument("--config", help="JSON config; flags override its fields")
    sub.add_argument("--suite", default="all", choices=("oracle", "mc", "all"))
    sub.add_argument("--seed", type=int, default=1234)
    sub.add_argument("--pulses", type=int, default=2_000_000,
                     help="pulses per Monte Carlo check")
    sub.add_argument("--grid-points", type=int, default=40,
                     help="random points of the oracle-equivalence grid")
    sub.add_argument("--tol-oracle", type=float, default=1e-8)
    sub.add_argument("--oracle-cutoff", type=int, default=None,
                     help=f"force a fixed Fock cutoff >= {MIN_CUTOFF} "
                          "(default: automatic)")
    sub.add_argument("--out", default=None, help="optional JSON report path")
    sub.set_defaults(func=cmd_validate)
    submap["validate"] = sub

    return parser, submap


def _require(args, name, choices=None):
    """Post-merge validation: config fields bypass argparse checks."""
    value = getattr(args, name, None)
    if value is None:
        raise DomainError(f"missing required option --{name.replace('_', '-')}")
    if choices is not None and value not in choices:
        raise DomainError(
            f"--{name.replace('_', '-')} must be one of {sorted(choices)}, "
            f"got {value!r}"
        )
    return value


def _require_count(args, name, least):
    value = _require(args, name)
    if not isinstance(value, int) or value < least:
        raise DomainError(f"--{name.replace('_', '-')} must be an integer >= {least}, "
                          f"got {value!r}")
    return value


def _merge_config(parser, sub, argv, args):
    path = getattr(args, "config", None)
    if not path:
        return args
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: config must be a JSON object")
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(doc) - set(actions))
    if unknown:
        raise FormatError(f"{path}: unknown config fields: {', '.join(unknown)}")
    for name, value in doc.items():
        # argparse converts string defaults only; null leaves an optional flag unset
        kind, default = actions[name].type, actions[name].default
        if (kind in (int, float) and not isinstance(value, str)
                and not (value is None and default is None)
                and (isinstance(value, bool) or not isinstance(value, (int, kind)))):
            raise FormatError(f"{path}: field {name!r}: expected {kind.__name__}, "
                              f"got {type(value).__name__}")
    sub.set_defaults(**doc)
    return parser.parse_args(argv)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, submap = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        args = _merge_config(parser, submap[args.command], argv, args)
        return args.func(args)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    except NongaussError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


# ------------------------------------------------------------- threshold

def _closed_form_curve(mode, eta, t_bs):
    DetectionConfig(eta, t_bs)  # names a bad eta or t_bs before any file
    if mode == "pair":
        model = PairThresholdModel(eta)
    else:
        model = SinglePhotonThresholdModel(eta)
    p_error = np.geomspace(1e-12, 1e-2, 61)
    n = p_error.size
    return ThresholdCurve(
        kind=mode,
        eta=eta,
        t_bs=t_bs,
        n_modes=0,
        alphas=np.full(n, np.nan),
        p_error=p_error,
        p_success=model.value(p_error),
        residuals=np.zeros(n),
        params=({},) * n,
        meta={"form": "small-rate closed form", "gaps": []},
    )


def cmd_threshold(args):
    _require(args, "mode", {"single", "pair"})
    if args.eta is None:
        raise DomainError("threshold requires --eta")
    n_modes = args.n
    if isinstance(n_modes, str) and n_modes != "asymptotic":
        try:
            n_modes = int(n_modes)
        except ValueError:
            raise DomainError(
                f"--n must be an integer or 'asymptotic', got {args.n!r}"
            ) from None
    if n_modes == "asymptotic":
        curve = _closed_form_curve(args.mode, args.eta, args.tbs)
    else:
        grid = dict(alpha_min=args.alpha_min, alpha_max=args.alpha_max,
                    n_points=args.points)
        if args.mode == "single":
            curve = single_threshold_curve(args.eta, args.tbs, **grid)
        else:
            curve = pair_threshold_curve(args.eta, n_modes, args.tbs, **grid)
    io_formats.write_curve_json(f"{args.out}.json", curve)
    io_formats.write_curve_csv(f"{args.out}.csv", curve)
    gaps = curve.meta.get("gaps", [])
    print(f"threshold curve: {curve.p_error.size} points, kind={curve.kind}, "
          f"eta={curve.eta}, wrote {args.out}.json and {args.out}.csv")
    if gaps:
        print(f"warning: {len(gaps)} penalty points failed to solve; "
              "curve has gaps (see meta.gaps)", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


# --------------------------------------------------------------- analyze

_CRITERIA = {
    "pair-asymptotic": ("pair",),
    "single-approx": ("single",),
    "simple-bs": ("single",),
}


def _build_model(name, kind, args):
    if name == "auto":
        name = "pair-asymptotic" if kind == "pair" else "simple-bs"
    if kind not in _CRITERIA[name]:
        raise DomainError(f"criterion {name!r} does not apply to {kind} counts")
    if name == "simple-bs":
        return name, SplitterThresholdModel(args.tbs)
    if args.eta is None:
        raise DomainError(f"criterion {name!r} requires --eta")
    if name == "pair-asymptotic":
        return name, PairThresholdModel(args.eta)
    return name, SinglePhotonThresholdModel(args.eta)


def cmd_analyze(args):
    _require(args, "counts")
    _require(args, "criterion", {"auto", "pair-asymptotic", "single-approx",
                                 "simple-bs"})
    for name in ("sigma_eta", "sigma_level"):
        value = getattr(args, name)
        if not (np.isfinite(value) and value >= 0):
            raise DomainError(f"--{name.replace('_', '-')} must be a finite "
                              f"number >= 0, got {value!r}")
    counts = io_formats.read_counts_json(args.counts)
    name, model = _build_model(args.criterion, counts.kind, args)
    p_success, p_error = estimate_click_probabilities(counts)
    threshold = float(model.value(p_error.value))
    # a zero error rate has no measurable distance, so it cannot certify
    certified = p_error.value > 0.0 and p_success.value > threshold

    distance = None
    distance_note = None
    try:
        distance = sigma_distance(p_success, p_error, model, args.sigma_eta)
    except DomainError as exc:
        distance_note = str(exc)

    scan = attenuation_scan(counts, a_max=args.a_max, step=args.a_step)
    scan_csv = f"{args.out}_scan.csv"
    io_formats.write_scan_csv(scan_csv, scan)

    depth_section = None
    try:
        depth = depth_fit(scan, model, sigma_eta=args.sigma_eta,
                          sigma_level=args.sigma_level)
        depth_section = {
            "depth_db": depth.depth_db,
            "crossing_transmission": depth.crossing_transmission,
            "status": depth.status,
            "fit_meta": depth.fit_meta,
        }
    except (FitError, DomainError) as exc:
        depth_section = {"status": "fit_failed", "message": str(exc)}

    blinking_section = None
    if args.peak_areas:
        delays, areas = io_formats.read_peak_areas_csv(args.peak_areas)
        try:
            fit = blinking_fit(delays, areas)
            blinking_section = {
                "blinking_factor": fit.blinking_factor,
                "correlation_pulses": fit.correlation_pulses,
                "amplitude": fit.amplitude,
                "plateau": fit.plateau,
            }
        except FitError as exc:
            blinking_section = {"status": "fit_failed", "message": str(exc)}

    report = {
        "counts_file": str(args.counts),
        "kind": counts.kind,
        "criterion": {
            "name": name,
            "eta": getattr(model, "eta", None),
            "t_bs": getattr(model, "t_bs", None),
            "sigma_eta": args.sigma_eta,
            "threshold_at_measured_p_error": threshold,
        },
        "probabilities": {
            "p_success": {"value": p_success.value, "sigma": p_success.sigma},
            "p_error": {"value": p_error.value, "sigma": p_error.sigma},
        },
        "sigma_distance": None if distance is None else {
            "value": distance.value,
            "threshold_value": distance.threshold_value,
            "sigma_total": distance.sigma_total,
            "components": distance.components,
        },
        "sigma_distance_note": distance_note,
        "certified": certified,
        "depth": depth_section,
        "blinking": blinking_section,
        "scan": {
            "mode": "deterministic",
            "a_max": args.a_max,
            "step": args.a_step,
            "n_points": int(scan.attenuations.size),
            "csv": scan_csv,
        },
    }
    io_formats.write_report_json(f"{args.out}_report.json", report)

    verdict = "certified" if certified else "not certified"
    dist_text = f"{distance.value:.2f} sigma" if distance else "n/a"
    depth_text = (f"{depth_section['depth_db']:.3f} dB"
                  if "depth_db" in depth_section else depth_section["status"])
    print(f"{counts.kind} counts vs {name}: {verdict} "
          f"(distance {dist_text}, depth {depth_text}); "
          f"wrote {args.out}_report.json and {scan_csv}")
    return EXIT_OK if certified else EXIT_NOT_CERTIFIED


# -------------------------------------------------------------- simulate

def cmd_simulate(args):
    _require(args, "source", {"qd", "tmsv", "single"})
    _require_count(args, "seed", 0)
    _require_count(args, "pulses", 1)
    det = DetectionConfig(eta=args.eta, t_bs=args.tbs, t_bs_b=args.tbs_b)
    if args.tags and args.source != "qd":
        raise DomainError("tag streams are only produced by the qd source")
    if args.source == "qd":
        src = QdSourceConfig(
            rep_rate_hz=args.rep_rate,
            emission_prob=args.emission_prob,
            blinking_on_fraction=args.blinking,
            blinking_correlation_pulses=args.blinking_tau,
            g2_contamination=args.g2,
            xx_lifetime_ps=args.xx_lifetime,
            x_lifetime_ps=args.x_lifetime,
            coincidence_window_ps=args.window,
            extraction_efficiency=args.extraction,
        )
        run = simulate_qd_pairs(src, det, args.pulses, args.seed,
                                collect_tags=args.tags is not None)
    elif args.source == "tmsv":
        if args.mus is not None:
            try:
                mus = tuple(float(x) for x in str(args.mus).split(","))
            except ValueError:
                raise DomainError(f"--mus must be a comma list, got {args.mus!r}") from None
            ensemble = ModeEnsemble(mus)
        else:
            ensemble = ModeEnsemble.uniform(args.mu, args.modes)
        run = simulate_multimode_tmsv(ensemble, det, args.pulses, args.seed,
                                      rep_rate_hz=args.rep_rate)
    else:
        run = simulate_single_photon_stream(args.double_prob, det, args.pulses,
                                            args.seed, rep_rate_hz=args.rep_rate)
    io_formats.write_counts_json(args.out, run.counts)
    if args.tags:
        io_formats.write_tag_stream(args.tags, run.tags)
    c = run.counts
    errors = (f"{c.error_count_a}/{c.error_count_b}" if c.kind == "pair"
              else f"{c.error_count_a}")
    print(f"simulated {args.source}: {args.pulses} pulses, seed {args.seed}; "
          f"success {c.success_count}, errors {errors}; wrote {args.out}"
          + (f" and {args.tags}" if args.tags else ""))
    return EXIT_OK


# -------------------------------------------------------------- validate

def _status_from_z(z):
    if z < 3.0:
        return "pass"
    if z <= 4.0:
        return "flag"
    return "fail"


def _check_oracle_grid(args, rng):
    worst = 0.0
    try:
        for _ in range(args.grid_points):
            params = GaussianStateParams(
                displacement_amplitude=rng.uniform(0.0, 2.0),
                squeezing=rng.uniform(0.0, 1.0),
                relative_angle=rng.uniform(0.0, np.pi),
            )
            cfg = DetectionConfig(eta=rng.uniform(0.1, 1.0), t_bs=0.5)
            a = single_photon_click_probs(params, cfg)
            b = fock_oracle_click_probs(params, cfg, cutoff=args.oracle_cutoff)
            worst = max(worst, abs(a.p_success - b.p_success),
                        abs(a.p_error - b.p_error))
    except PrecisionError as exc:
        return {"name": "gaussian-vs-fock-oracle", "status": "fail",
                "metric": float("nan"), "bound": args.tol_oracle,
                "note": f"precision error: {exc}"}
    status = "pass" if worst <= args.tol_oracle else "fail"
    return {"name": "gaussian-vs-fock-oracle", "status": status,
            "metric": worst, "bound": args.tol_oracle,
            "note": f"{args.grid_points}-point random grid, max abs deviation"}


def _check_tmsv_series(args):
    worst = 0.0
    for mu in (0.05, 0.3, 0.7):
        for eta in (0.3, 0.8):
            for dark in (0.0, 1e-4):
                cfg = DetectionConfig(eta=eta, t_bs=0.5, dark_count_prob=dark)
                a = multimode_pair_click_probs(ModeEnsemble((mu,)), cfg)
                b = tmsv_pair_click_probs_series(mu, cfg)
                worst = max(worst,
                            abs(a.p_success - b.p_success) / b.p_success,
                            abs(a.p_error - b.p_error) / b.p_error)
    bound = 1e-10
    return {"name": "tmsv-closed-form-vs-series", "status":
            "pass" if worst <= bound else "fail", "metric": worst,
            "bound": bound, "note": "relative deviation over a mu/eta/dark grid"}


def _check_multimode_reduction(args):
    cfg = DetectionConfig(eta=0.42, t_bs=0.5)
    one = tmsv_pair_click_probs_series(0.2, cfg)
    many = multimode_pair_click_probs(ModeEnsemble((0.2, 0.0, 0.0)), cfg)
    worst = max(abs(one.p_success - many.p_success) / one.p_success,
                abs(one.p_error - many.p_error) / one.p_error)
    bound = 1e-12
    return {"name": "multimode-reduces-to-tmsv", "status":
            "pass" if worst <= bound else "fail", "metric": worst,
            "bound": bound, "note": "zero-padded ensemble equals the series sum"}


def _check_poisson_limit(args):
    n = 1024
    mean_pairs = 0.2
    mu = mean_pairs / (n + mean_pairs)
    cfg = DetectionConfig(eta=0.6, t_bs=0.5)
    many = multimode_pair_click_probs(ModeEnsemble.uniform(mu, n), cfg)
    limit = poisson_pair_click_probs(mean_pairs, cfg)
    worst = max(abs(many.p_success - limit.p_success) / limit.p_success,
                abs(many.p_error - limit.p_error) / limit.p_error)
    bound = 5e-3
    return {"name": "many-mode-poisson-limit", "status":
            "pass" if worst <= bound else "fail", "metric": worst,
            "bound": bound, "note": f"{n} modes vs Poissonian closed form"}


def _mc_row(name, observed, expected, n, note):
    worst = 0.0
    for obs, p in zip(observed, expected):
        se = float(np.sqrt(p * (1.0 - p) / n))
        worst = max(worst, abs(obs / n - p) / se if se > 0 else 0.0)
    return {"name": name, "status": _status_from_z(worst), "metric": worst,
            "bound": 3.0, "note": note}


def _check_mc_tmsv(args, n_modes, mu):
    cfg = DetectionConfig(eta=0.5, t_bs=0.5)
    run = simulate_multimode_tmsv(ModeEnsemble.uniform(mu, n_modes), cfg,
                                  args.pulses, args.seed)
    exact = multimode_pair_click_probs(ModeEnsemble.uniform(mu, n_modes), cfg)
    return _mc_row(
        f"mc-tmsv-{n_modes}-mode",
        (run.counts.success_count, run.counts.error_count_a,
         run.counts.error_count_b),
        (exact.p_success, exact.p_error, exact.p_error), args.pulses,
        f"mu={mu}, worst z over success and both error rates",
    )


def _check_mc_single(args):
    cfg = DetectionConfig(eta=0.7, t_bs=0.5)
    q = 0.01
    run = simulate_single_photon_stream(q, cfg, args.pulses, args.seed)
    k1 = cfg.eta * cfg.t_bs
    k2 = cfg.eta * (1.0 - cfg.t_bs)
    ps = (1 - q) * k1 + q * (1.0 - (1.0 - k1) ** 2)
    pe = q * (1.0 - (1 - k1) ** 2 - (1 - k2) ** 2 + (1 - k1 - k2) ** 2)
    return _mc_row(
        "mc-single-photon-stream",
        (run.counts.success_count, run.counts.error_count_a),
        (ps, pe), args.pulses,
        f"double emission {q}, worst z over click and coincidence rates",
    )


def _check_mc_blinking(args):
    src = QdSourceConfig()
    det = DetectionConfig(eta=0.3, t_bs=0.5)
    n = max(args.pulses, 4_000_000)
    run = simulate_qd_pairs(src, det, n, args.seed, collect_tags=True)
    delays, areas = peak_areas_from_tags(run.tags, max_delay=40)
    fit = blinking_fit(delays, areas)
    rel = abs(fit.blinking_factor - src.blinking_on_fraction) / src.blinking_on_fraction
    if rel <= 0.02:
        status = "pass"
    elif rel <= 0.04:
        status = "flag"
    else:
        status = "fail"
    return {"name": "mc-blinking-roundtrip", "status": status, "metric": rel,
            "bound": 0.02,
            "note": f"duty-cycle recovery from {n}-pulse tag correlations"}


def cmd_validate(args):
    _require(args, "suite", {"oracle", "mc", "all"})
    rng = np.random.default_rng(_require_count(args, "seed", 0))
    _require_count(args, "pulses", 1)
    if args.grid_points < 1:
        raise DomainError(f"--grid-points must be >= 1, got {args.grid_points}")
    if not (np.isfinite(args.tol_oracle) and args.tol_oracle > 0):
        raise DomainError(f"--tol-oracle must be a finite number > 0, "
                          f"got {args.tol_oracle!r}")
    if args.oracle_cutoff is not None:
        _require_count(args, "oracle_cutoff", MIN_CUTOFF)
    rows = []
    if args.suite in ("oracle", "all"):
        rows.append(_check_oracle_grid(args, rng))
        rows.append(_check_tmsv_series(args))
        rows.append(_check_multimode_reduction(args))
        rows.append(_check_poisson_limit(args))
    if args.suite in ("mc", "all"):
        rows.append(_check_mc_tmsv(args, 1, 0.3))
        rows.append(_check_mc_tmsv(args, 8, 0.02))
        rows.append(_check_mc_single(args))
        rows.append(_check_mc_blinking(args))

    width = max(len(r["name"]) for r in rows)
    print(f"{'check'.ljust(width)}  status  metric      bound       note")
    for r in rows:
        print(f"{r['name'].ljust(width)}  {r['status']:<6}  "
              f"{r['metric']:<10.3e}  {r['bound']:<10.3e}  {r['note']}")
    if args.out:
        io_formats.write_report_json(args.out, {
            "suite": args.suite, "seed": args.seed, "pulses": args.pulses,
            "checks": rows,
        }, schema="nongauss-validation-report")
    statuses = {r["status"] for r in rows}
    if "fail" in statuses:
        return EXIT_ERROR
    if "flag" in statuses:
        return EXIT_NOT_CERTIFIED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
