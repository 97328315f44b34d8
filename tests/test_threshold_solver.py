from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize

from nongauss import DomainError, SolverError, threshold_solver
from nongauss.cli import main
from nongauss.io_formats import read_curve_csv, read_curve_json
from nongauss.photon_statistics import GaussianStateParams, single_click_rates
from nongauss.photon_statistics.pair_formulas import multimode_click_rates
from nongauss.threshold_solver import (
    PairThresholdModel,
    SinglePhotonThresholdModel,
    SplitterThresholdModel,
    ThresholdCurve,
    maximize_pair_rate,
    maximize_single_rate,
    pair_threshold_curve,
    single_threshold_curve,
)


def test_single_model_closed_form():
    assert SinglePhotonThresholdModel(1.0).coefficient == pytest.approx(0.25, abs=0.0)
    assert SinglePhotonThresholdModel(0.5).coefficient == pytest.approx(1.0 / 12.0, abs=0.0)
    model = SinglePhotonThresholdModel(0.6)
    pe = 1e-9
    assert model.value(pe) == pytest.approx((model.coefficient * pe) ** (1 / 3),
                                            rel=1e-12, abs=0.0)
    # slope and efficiency sensitivity against numeric derivatives
    h = 1e-6
    num_slope = (model.value(pe * (1 + h)) - model.value(pe * (1 - h))) / (2 * h * pe)
    assert model.slope(pe) == pytest.approx(num_slope, rel=1e-6, abs=0.0)
    num_eta = (
        SinglePhotonThresholdModel(0.6 + h).value(pe)
        - SinglePhotonThresholdModel(0.6 - h).value(pe)
    ) / (2 * h)
    assert model.eta_sensitivity(pe) == pytest.approx(num_eta, rel=1e-6, abs=0.0)


def test_pair_model_closed_form():
    model = PairThresholdModel(0.1467)
    pe = 2.926e-8
    first = 0.5 * 0.1467 * np.sqrt(pe)
    assert model.value(pe) == pytest.approx(first + model.curvature * pe, rel=1e-12, abs=0.0)
    h = 1e-6
    num_slope = (model.value(pe * (1 + h)) - model.value(pe * (1 - h))) / (2 * h * pe)
    assert model.slope(pe) == pytest.approx(num_slope, rel=1e-6, abs=0.0)
    num_eta = (
        PairThresholdModel(0.1467 + h).value(pe) - PairThresholdModel(0.1467 - h).value(pe)
    ) / (2 * h)
    assert model.eta_sensitivity(pe) == pytest.approx(num_eta, rel=1e-6, abs=0.0)


def test_splitter_bound_round_trip():
    # lossless double-click floor: p_error = 2 (1 - t) p_success**3 / t**2
    assert SplitterThresholdModel(0.5).value(4e-9) == pytest.approx(1e-3, rel=1e-12, abs=0.0)
    t = 0.5166
    model = SplitterThresholdModel(t)
    for p in (1e-4, 1e-2):
        floor = 2.0 * (1.0 - t) * p**3 / t**2
        assert model.value(floor) == pytest.approx(p, rel=1e-12, abs=0.0)
        assert model.slope(floor) == pytest.approx(p / (3.0 * floor), rel=1e-12, abs=0.0)
    # balanced splitter without loss reproduces the single-photon model
    assert SplitterThresholdModel(0.5).coefficient == pytest.approx(
        SinglePhotonThresholdModel(1.0).coefficient, abs=0.0
    )
    with pytest.raises(DomainError):
        SplitterThresholdModel(1.0)
    # the bound has no efficiency to be uncertain about
    with pytest.raises(DomainError):
        model.eta_sensitivity(1e-8)


@pytest.mark.parametrize("eta", [1.0, 0.5])
def test_single_optimum_reaches_cubic_limit(eta):
    opt = maximize_single_rate(1e8, eta)
    c = eta / (4.0 * (2.0 - eta))
    assert opt.p_success**3 / opt.p_error == pytest.approx(c, rel=2e-3, abs=0.0)
    # optimum sits on the two-photon cancellation locus
    assert opt.params["squeezing"] == pytest.approx(
        (opt.params["displacement_amplitude"] / 2.0) ** 2, rel=0.1, abs=0.0
    )


def test_pair_optimum_reaches_sqrt_limit():
    eta, n = 0.5, 2
    opt = maximize_pair_rate(1e5, eta, n_modes=n)
    coeff = eta * n / (2.0 * np.sqrt(n * (n + 1.0)))
    assert opt.p_success / np.sqrt(opt.p_error) == pytest.approx(coeff, rel=1e-4, abs=0.0)
    mus = opt.params["pair_brightness"]
    assert max(mus) / min(mus) == pytest.approx(1.0, rel=1e-3, abs=0.0)


@pytest.mark.parametrize("alpha,n_modes", [(3.0, 2), (3.0, 4), (1e2, 4), (1e5, 2)])
def test_no_lopsided_ensemble_beats_uniform(alpha, n_modes):
    # multistart simplex over every mode's log-brightness, a lopsided
    # seed included: it must not beat the one shared brightness
    eta = 0.1467
    uniform = maximize_pair_rate(alpha, eta, n_modes=n_modes)

    def objective(x):
        if np.any(x > -1e-9):
            return 1e10
        p_s, p_e = multimode_click_rates(np.exp(np.maximum(x, -690.0)), eta, 0.5, 0.5)
        return -(p_s - alpha * p_e)

    mu0 = 1.0 / (2.0 * alpha * (n_modes + 1.0))
    seeds = [np.full(n_modes, np.log(min(mu0 * fac, 0.5))) for fac in (0.5, 1.0, 2.0)]
    lopsided = np.full(n_modes, np.log(mu0 * 0.1))
    lopsided[0] = np.log(min(0.5, mu0 * n_modes * 5.0))
    seeds.append(lopsided)
    maxiter = 6000 * max(1, n_modes // 2)
    best = max(
        -minimize(objective, seed, method="Nelder-Mead",
                  options=dict(xatol=1e-10, fatol=abs(objective(seed)) * 1e-13,
                               maxiter=maxiter, maxfev=2 * maxiter)).fun
        for seed in seeds
    )
    assert best <= uniform.objective * (1.0 + 1e-12)


# p_success, p_error of the search path before the float64 objective
BEFORE_FLOAT64 = {
    (1.0, 0.5): (0.49715470117485444, 0.2232374552062626),
    (1e12, 0.5): (1.666669901313014e-07, 5.55557172403619e-20),
    (1e4, 0.1467): (0.0008475222161336281, 2.884094485582855e-08),
}
# the same for the float64 search that also ran over the angle
BEFORE_TWO_VARIABLES = {
    (1.0, 0.5): (0.4971547093069237, 0.2232374633383319),
    (1e12, 0.5): (1.6666699042665376e-07, 5.555571753571429e-20),
    (1e4, 0.1467): (0.0008475222159267423, 2.8840944835139965e-08),
}


# the same for the Nelder-Mead search over (log d, log r)
BEFORE_SIMPLEX = {
    (1.0, 0.5): (0.4971547025256406, 0.22323745655704874, 0.27391724596859207),
    (1e12, 0.5): (1.6666699132152962e-07, 5.555571843059013e-20, 1.111112728909395e-07),
    (1e4, 0.1467): (0.0008475222205185531, 2.8840945294321055e-08, 0.0005591127675753428),
}


@pytest.mark.parametrize("alpha,eta,expected", [
    (1.0, 0.5, (0.49715470319524, 0.22323745722664817, 0.27391724596859196,
                {"displacement_amplitude": 3.02480477127897,
                 "squeezing": 0.5349759633093439,
                 "relative_angle": 0.0})),
    (1e12, 0.5, (1.666669901855396e-07, 5.555571729460019e-20, 1.111112728909394e-07,
                 {"displacement_amplitude": 0.0016329942024369817,
                  "squeezing": 6.666664051535029e-07,
                  "relative_angle": 0.0})),
    (1e4, 0.1467, (0.0008475222166429924, 2.884094490676497e-08, 0.0005591127675753428,
                   {"displacement_amplitude": 0.21385814271436887,
                    "squeezing": 0.010994092194006709,
                    "relative_angle": 0.0})),
])
def test_single_search_path_is_pinned(alpha, eta, expected):
    # F is flat at the optimum, so any change in the objective's float
    # values (2**-50 relative in p_error is enough) or in the search
    # variables moves the cold search along the boundary; these are the
    # exact results of the damped Newton search over the ridge
    # coordinates (log d, w), re-evaluated at 50 digits
    opt = maximize_single_rate(alpha, eta)
    assert (opt.p_success, opt.p_error, opt.objective, opt.params) == expected
    # the earlier searches ended on the same boundary
    for before in (BEFORE_FLOAT64, BEFORE_TWO_VARIABLES):
        p_success, p_error = before[alpha, eta]
        assert opt.p_success == pytest.approx(p_success, rel=1e-7, abs=0.0)
        assert opt.p_error == pytest.approx(p_error, rel=1e-7, abs=0.0)
    # and no lower: F is at least the simplex's
    assert opt.objective >= BEFORE_SIMPLEX[alpha, eta][2] * (1.0 - 1e-12)


@pytest.mark.parametrize("eta,t_bs", [(0.5, 0.5), (0.5, 0.3), (0.1467, 0.5), (0.1467, 0.3)])
def test_no_angle_beats_the_squeezed_axis(eta, t_bs):
    # multistart simplex over (log d, log r, theta), seeded off the
    # squeezed axis too: turning the displacement away from it must not
    # beat the search at theta = 0
    k1, k2 = eta * t_bs, eta * (1.0 - t_bs)
    for alpha in (1.0, 1e2, 1e8):
        on_axis = maximize_single_rate(alpha, eta, t_bs)

        def objective(x):
            if x[0] > 3.0 or x[1] > 3.0:
                return 1e10
            state = GaussianStateParams(float(np.exp(max(x[0], -690.0))),
                                        float(np.exp(max(x[1], -690.0))), float(x[2]))
            p1, p_error = single_click_rates(state, k1, k2)
            return -(p1 - alpha * p_error)

        # the solver's cold seeds, from ridge coordinates (log d, w)
        seeds = [(log_d, 2.0 * (log_d - np.log(2.0)) + w, theta)
                 for log_d, w in threshold_solver._single_seeds(alpha, eta, t_bs)
                 for theta in (0.0, 0.8, np.pi / 2)]
        best = max(
            -minimize(objective, seed, method="Nelder-Mead",
                      options=dict(xatol=1e-10, fatol=abs(objective(seed)) * 1e-13,
                                   maxiter=6000, maxfev=12000)).fun
            for seed in seeds
        )
        assert best <= on_axis.objective * (1.0 + 1e-12)


def test_single_curve_sweep():
    curve = single_threshold_curve(0.5, alpha_min=1e2, alpha_max=1e8, n_points=7)
    assert curve.kind == "single"
    assert np.all(np.diff(curve.p_error) > 0)
    assert np.all(curve.residuals <= threshold_solver.RESIDUAL_TOL)
    # the float64 rates the search saw match the 50-digit re-evaluation
    for params, p_s, p_e in zip(curve.params, curve.p_success, curve.p_error):
        fast = single_click_rates(GaussianStateParams(**params), 0.25, 0.25)
        assert fast == pytest.approx((p_s, p_e), rel=1e-12, abs=0.0)
    pe = 1e-9
    assert curve.value(pe) == pytest.approx(
        SinglePhotonThresholdModel(0.5).value(pe), rel=0.02, abs=0.0
    )
    assert curve.slope(pe) > 0
    with pytest.raises(DomainError):
        curve.value(1e3 * curve.p_error[-1])


def test_pair_curve_sweep():
    curve = pair_threshold_curve(0.5, n_modes=1, alpha_min=1e2, alpha_max=1e8, n_points=7)
    pe = 1e-8
    coeff = 0.5 * 1 / (2.0 * np.sqrt(2.0))
    assert curve.value(pe) == pytest.approx(coeff * np.sqrt(pe), rel=0.02, abs=0.0)
    assert curve.n_modes == 1
    assert curve.meta["objective"] == "p_success - alpha * p_error"
    assert "one shared log-brightness" in curve.meta["optimizer"]


def test_curve_validation():
    with pytest.raises(DomainError):
        ThresholdCurve("other", 0.5, 0.5, 1, [1.0], [1e-8], [1e-4], [0.0], ({},))
    with pytest.raises(DomainError):
        ThresholdCurve("pair", 0.5, 0.5, 1, [1.0], [0.0], [1e-4], [0.0], ({},))


def test_finite_difference_eta_sensitivity():
    def curve_from_model(eta):
        pe = np.geomspace(1e-10, 1e-4, 25)
        model = PairThresholdModel(eta)
        return ThresholdCurve(
            "pair", eta, 0.5, 0, np.full(pe.size, np.nan), pe, model.value(pe),
            np.zeros(pe.size), tuple({} for _ in pe),
        )

    # difference quotient between curves at eta +- delta
    lo, hi = curve_from_model(0.49), curve_from_model(0.51)
    sens = (hi.value(1e-7) - lo.value(1e-7)) / (hi.eta - lo.eta)
    expected = PairThresholdModel(0.5).eta_sensitivity(1e-7)
    assert sens == pytest.approx(float(expected), rel=1e-3, abs=0.0)


def test_solver_error_paths(monkeypatch):
    with pytest.raises(DomainError):
        maximize_single_rate(0.0, 0.5)
    with pytest.raises(DomainError):
        maximize_pair_rate(1e3, 0.5, n_modes=0)
    for n_modes in (2.5, True):
        with pytest.raises(DomainError, match="n_modes"):
            maximize_pair_rate(1e3, 0.5, n_modes=n_modes)
    # the point solvers check the detection themselves
    with pytest.raises(DomainError, match="eta"):
        maximize_pair_rate(1e3, 1.5, n_modes=2)
    with pytest.raises(DomainError, match="eta"):
        maximize_single_rate(10, 1.5)
    with pytest.raises(DomainError):
        pair_threshold_curve(0.5, alpha_min=0.0)
    # one Newton step from each cold seed leaves the decrement above the bound
    monkeypatch.setattr(threshold_solver, "MAX_STEPS", 1)
    with pytest.raises(SolverError, match="stalled") as exc:
        maximize_single_rate(1e6, 0.5)
    assert exc.value.best_point is not None


@pytest.fixture
def flaky_pair_solver(monkeypatch):
    """maximize_pair_rate that stalls at the second penalty it is given.

    Returns the (alpha, warm_start) of every call.
    """
    real = threshold_solver.maximize_pair_rate
    calls = []

    def flaky(alpha, *args, warm_start=None, **kwargs):
        calls.append((float(alpha), warm_start))
        if len(calls) == 2:
            raise SolverError("stalled on purpose")
        return real(alpha, *args, warm_start=warm_start, **kwargs)

    monkeypatch.setattr(threshold_solver, "maximize_pair_rate", flaky)
    return calls


def test_sweep_records_gap_and_restarts_cold(flaky_pair_solver):
    calls = flaky_pair_solver
    curve = pair_threshold_curve(0.5, n_modes=2, alpha_min=1e2, alpha_max=1e5, n_points=4)
    # the sweep looks the point solver up at call time
    assert len(calls) == 4
    assert curve.meta["gaps"] == [{"alpha": calls[1][0], "message": "stalled on purpose"}]
    assert calls[1][1] is not None
    assert calls[2][1] is None
    assert curve.alphas.size == 3


def test_threshold_cli_exports_curve_with_gap(flaky_pair_solver, tmp_path, capsys):
    out = tmp_path / "gappy"
    assert main(["threshold", "--mode", "pair", "--eta", "0.5", "--n", "2",
                 "--alpha-min", "1e2", "--alpha-max", "1e5", "--points", "4",
                 "--out", str(out)]) == 1
    assert "curve has gaps" in capsys.readouterr().err
    curve = read_curve_json(f"{out}.json")
    assert [g["alpha"] for g in curve.meta["gaps"]] == [flaky_pair_solver[1][0]]
    assert read_curve_csv(f"{out}.csv")["p_error"].size == 3


@pytest.mark.parametrize("value", [np.nan, [1e-8, np.nan], np.inf])
def test_curve_refuses_a_non_finite_error_rate(value):
    curve = pair_threshold_curve(0.5, n_modes=1, alpha_min=1e2, alpha_max=1e8, n_points=7)
    with pytest.raises(DomainError, match="p_error"):
        curve.value(value)
    if np.ndim(value) == 0:
        with pytest.raises(DomainError, match="p_error"):
            curve.slope(value)


def test_newton_converges_on_a_quadratic():
    def quadratic(x):
        dx, dy = x[0] - 0.3, x[1] + 0.2
        return 2.0 + 3.0 * dx * dx + dx * dy + 20.0 * dy * dy

    res = threshold_solver.minimize(quadratic, (0.1, -0.1))
    assert res.nit <= 2
    assert res.residual <= threshold_solver.RESIDUAL_TOL
    assert res.fun - 2.0 <= 2.0 * threshold_solver.RESIDUAL_TOL
    one = threshold_solver.minimize(lambda x: 1.0 + (x[0] - 1.0) ** 2, (0.7,))
    assert one.nit <= 2
    assert one.fun - 1.0 <= threshold_solver.RESIDUAL_TOL


def test_a_saddle_is_not_accepted():
    def saddle(x):
        return 1.0 + x[0] * x[0] - x[1] * x[1]

    res = threshold_solver.minimize(saddle, (0.0, 0.0))
    assert res.residual == np.inf
    with pytest.raises(SolverError, match="residual inf") as exc:
        threshold_solver._solve_point("pair", 1.0, saddle, None, [(0.0, 0.0)],
                                      lambda x: ({"x": list(x)}, 0.5, 0.1))
    assert exc.value.best_point == {"x": [0.0, 0.0]}


def test_a_point_at_the_box_edge_is_accepted():
    # f falls towards x = 0 and is WALL beyond it: the run is drawn to
    # the wall and held there
    def walled(x):
        return threshold_solver.WALL if x[0] > 0.0 else (x[0] - 1.0) ** 2

    res = threshold_solver.minimize(walled, (-2.0,))
    assert -1e-15 <= res.x[0] <= 0.0
    assert res.residual == 0.0
    # continued flat past it instead, as the single-photon search's log r
    res = threshold_solver.minimize(lambda x: (min(x[0], 0.0) - 1.0) ** 2, (-2.0,))
    assert res.fun == 1.0 and res.residual <= threshold_solver.RESIDUAL_TOL
    # below alpha = 1 the brightest pair ensemble in the box is best
    opt = maximize_pair_rate(1e-2, 0.1467, n_modes=1)
    assert opt.params["pair_brightness"][0] == pytest.approx(np.exp(-1e-9), rel=1e-14, abs=0.0)
    assert opt.residual == 0.0


XCHECK_ALPHAS = np.geomspace(1.0, 1e12, 13)


def _nelder_mead_best(objective, seeds):
    return max(
        -minimize(objective, seed, method="Nelder-Mead",
                  options=dict(xatol=1e-10, fatol=abs(objective(seed)) * 1e-13,
                               maxiter=6000, maxfev=12000)).fun
        for seed in seeds
    )


@pytest.mark.parametrize("eta,t_bs", [(1.0, 0.5), (1.0, 0.3), (0.5, 0.5), (0.5, 0.3),
                                      (0.1467, 0.5), (0.1467, 0.3)])
def test_single_newton_matches_nelder_mead(eta, t_bs):
    # slow route: scipy's multistart simplex over (log d, log r) from
    # the same cold seeds, with the box as a wall
    k1, k2 = eta * t_bs, eta * (1.0 - t_bs)
    for alpha in XCHECK_ALPHAS:
        def objective(x):
            if x[0] > 3.0 or x[1] > 3.0:
                return 1e10
            state = GaussianStateParams(float(np.exp(max(x[0], -690.0))),
                                        float(np.exp(max(x[1], -690.0))))
            p1, p_error = single_click_rates(state, k1, k2)
            return -(p1 - alpha * p_error)

        seeds = [(log_d, 2.0 * (log_d - np.log(2.0)) + w)
                 for log_d, w in threshold_solver._single_seeds(alpha, eta, t_bs)]
        newton = maximize_single_rate(alpha, eta, t_bs).objective
        assert newton >= _nelder_mead_best(objective, seeds) * (1.0 - 1e-12), alpha


@pytest.mark.parametrize("n_modes", [1, 4, 64])
def test_pair_newton_matches_nelder_mead(n_modes):
    for eta in (1.0, 0.5, 0.1467):
        for alpha in XCHECK_ALPHAS:
            def objective(x):
                if x[0] > -1e-9:
                    return 1e10
                mus = [float(np.exp(max(x[0], -690.0)))] * n_modes
                p_s, p_e = multimode_click_rates(mus, eta, 0.5, 0.5)
                return -(p_s - alpha * p_e)

            seeds = [np.array(seed) for seed in threshold_solver._pair_seeds(alpha, n_modes)]
            newton = maximize_pair_rate(alpha, eta, n_modes=n_modes).objective
            assert newton >= _nelder_mead_best(objective, seeds) * (1.0 - 1e-12), (eta, alpha)


@pytest.mark.parametrize("mode", [["--mode", "pair", "--n", "4"], ["--mode", "single"]])
def test_saturated_grid_solves_every_point(mode, tmp_path):
    # below alpha = 1 the optimum sits at the edge of the search box or
    # on a plateau where both rates round to 1
    out = tmp_path / "saturated"
    assert main(["threshold", *mode, "--eta", "0.5", "--alpha-min", "1e-3",
                 "--alpha-max", "1", "--points", "25", "--out", str(out)]) == 0
    curve = read_curve_json(f"{out}.json")
    assert curve.alphas.size == 25
    assert curve.meta["gaps"] == []


def test_lossless_unbalanced_single_point_solves(tmp_path):
    # at eta 1 the rounded transmissions 0.2 and 0.8 sum to just above 1;
    # the 50-digit re-evaluation caps the both-detector transmission at 1
    k1, k2 = 1.0 * 0.2, 1.0 * (1.0 - 0.2)
    assert Fraction(k1) + Fraction(k2) > 1
    opt = maximize_single_rate(10, 1.0, 0.2)
    assert 0.0 < opt.p_error < opt.p_success < 1.0
    out = tmp_path / "lossless"
    assert main(["threshold", "--mode", "single", "--eta", "1", "--tbs", "0.2",
                 "--points", "5", "--out", str(out)]) == 0
    curve = read_curve_json(f"{out}.json")
    assert curve.alphas.size == 5 and curve.meta["gaps"] == []
