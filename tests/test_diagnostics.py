import math

import numpy as np
import pytest

from tikhoflow import (
    DynamicsConfig,
    EnergyParams,
    ObjectiveSpec,
    SolverError,
    Trajectory,
    averaged_t_eps,
    builtin,
    default_energy_index,
    eb_drift_bound_check,
    energy_Eb_series,
    energy_Ebp,
    energy_W_series,
    ergodic_deviation,
    integrate,
    monotonicity_check,
    power_schedule,
    rate_report,
    strong_convergence_energy_params,
    tikhonov_point,
    zero_schedule,
)

from helpers import (
    energy_Eb_regrouped,
    energy_Ebp_sample,
    energy_W_wellposedness,
    synthetic_trajectory,
)


def one_row(obj, s, t, x, v, y=None):
    """A 1-sample Trajectory at (t, x, v); gap and eps are filled in from obj and s."""
    x = np.atleast_1d(np.asarray(x, float))
    v = np.atleast_1d(np.asarray(v, float))
    y = v if y is None else np.atleast_1d(np.asarray(y, float))
    zero = np.zeros(1)
    return Trajectory(
        t=np.array([t], float),
        x=x[None, :],
        v=v[None, :],
        y=y[None, :],
        eps=np.array([s.eps(t)]),
        gap=np.array([obj.value(x) - obj.min_value]),
        grad_norm=np.array([np.linalg.norm(obj.gradient(x))]),
        int_eps_over_t=zero,
        int_erg_num=zero,
        int_vel=zero,
    )


# -- W ------------------------------------------------------------------------


def test_energy_W_vanishes_at_rest_at_origin():
    obj = builtin("shifted_quadratic", c=np.zeros(1))
    s = power_schedule(1.5)
    assert energy_W_series(obj, one_row(obj, s, 4.0, [0.0], [0.0]))[0] == 0.0


def test_energy_W_paper1d_direct():
    obj = builtin("paper1d")
    s = power_schedule(1.5)  # eps(4) = 0.125
    traj = one_row(obj, s, 4.0, [2.0], [1.0])
    assert energy_W_series(obj, traj)[0] == pytest.approx(1.0 + 0.5 + 0.25)


def test_energy_W_reduces_without_regularization():
    obj = builtin("paper1d")
    s = zero_schedule()
    assert energy_W_series(obj, one_row(obj, s, 4.0, [2.0], [1.0]))[0] == pytest.approx(1.5)


def test_energy_W_identity_with_wellposedness_path():
    obj = builtin("paper1d")
    s = power_schedule(1.5)
    cfg = DynamicsConfig(alpha=3, beta=1, t0=1, u0=[2.0], v0=[0.0], horizon=200.0)
    traj = integrate(obj, s, cfg)
    series = energy_W_series(obj, traj)
    for i in range(0, traj.n_samples, 37):
        w = energy_W_wellposedness(obj, s, traj.t[i], traj.x[i], traj.v[i])
        assert series[i] == pytest.approx(w, rel=1e-12)


# -- E_b ------------------------------------------------------------------------


def _cfg(alpha, beta):
    return DynamicsConfig(alpha=alpha, beta=beta, t0=1.0, u0=[2.0], v0=[0.0], horizon=10.0)


def test_energy_Eb_zero_at_minimizer():
    obj = builtin("shifted_quadratic", c=np.zeros(1))
    s = zero_schedule()
    params = EnergyParams(b=2.5, xstar=np.zeros(1))
    traj = one_row(obj, s, 7.0, [0.0], [0.0])
    assert energy_Eb_series(_cfg(4.0, 0.0), params, traj)[0] == 0.0


def test_energy_Eb_paper1d_handworked_value():
    obj = builtin("paper1d")
    s = zero_schedule()
    params = EnergyParams(b=2.5, xstar=np.zeros(1))
    traj = one_row(obj, s, 10.0, [2.0], [0.0], y=[3.0])  # gap g(2) = 1
    val = energy_Eb_series(_cfg(4.0, 1.0), params, traj)[0]
    assert val == pytest.approx(710.0)  # 95 + 612.5 + 2.5


def test_energy_Eb_alpha3_matches_reduced_form():
    # at alpha=3, b=2 the |x - x*|^2 term drops out
    obj = builtin("paper1d")
    s = power_schedule(1.5)
    params = EnergyParams(b=2.0, xstar=np.zeros(1))
    cfg = _cfg(3.0, 1.0)
    t, x, v = 5.0, 1.7, -0.3
    grad = obj.gradient(np.array([x]))[0]
    traj = one_row(obj, s, t, [x], [v], y=[v + grad])
    explicit = (
        (t * t - 1.0 * t) * obj.value(np.array([x]))
        + 0.5 * t * t * s.eps(t) * x * x
        + 0.5 * (2.0 * x + t * (v + grad)) ** 2
    )
    assert energy_Eb_series(cfg, params, traj)[0] == pytest.approx(explicit, rel=1e-14)


def test_energy_Eb_validates_index():
    obj = builtin("paper1d")
    s = zero_schedule()
    params = EnergyParams(b=2.5, xstar=np.zeros(1))
    traj = one_row(obj, s, 2.0, [0.0], [0.0])
    with pytest.raises(ValueError, match="forces b = 2"):
        energy_Eb_series(_cfg(3.0, 1.0), params, traj)
    with pytest.raises(ValueError, match="2 <= b"):
        energy_Eb_series(_cfg(4.0, 1.0), EnergyParams(b=3.5, xstar=np.zeros(1)), traj)


def test_energy_Eb_identity_regrouped_on_run():
    obj = builtin("paper1d")
    s = power_schedule(1.5)
    cfg = DynamicsConfig(alpha=4.0, beta=1.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=500.0)
    traj = integrate(obj, s, cfg)
    params = EnergyParams(b=2.5, xstar=np.zeros(1))
    series = energy_Eb_series(cfg, params, traj)
    for i in range(0, traj.n_samples, 13):
        e1 = energy_Eb_regrouped(obj, s, cfg, params, traj.t[i], traj.x[i], traj.v[i])
        assert series[i] == pytest.approx(e1, rel=1e-10)


def test_energy_Eb_difference_identity():
    # E_b1 - E_b2 = (b1-b2) [ -beta t gap + t <w, x-x*> + (alpha-1)/2 |x-x*|^2 ]
    obj = builtin("shifted_quadratic", c=np.array([1.0]))
    s = power_schedule(2.5)
    cfg = DynamicsConfig(alpha=6.0, beta=1.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=500.0)
    traj = integrate(obj, s, cfg)
    xstar = np.array([1.0])
    b1, b2 = 2.5, 4.0
    e1 = energy_Eb_series(cfg, EnergyParams(b=b1, xstar=xstar), traj)
    e2 = energy_Eb_series(cfg, EnergyParams(b=b2, xstar=xstar), traj)
    for i in range(0, traj.n_samples, 19):
        t = traj.t[i]
        w = traj.y[i]  # x' + beta * grad
        diff = traj.x[i] - xstar
        rhs = (b1 - b2) * (
            -cfg.beta * t * traj.gap[i]
            + t * float(w @ diff)
            + 0.5 * (cfg.alpha - 1.0) * float(diff @ diff)
        )
        assert e1[i] - e2[i] == pytest.approx(rhs, rel=1e-10, abs=1e-12)


# -- E_b^p ----------------------------------------------------------------------


def test_energy_Ebp_zero_at_minimizer():
    obj = builtin("shifted_quadratic", c=np.zeros(1))
    s = power_schedule(1.5)
    params = EnergyParams(b=2.0, p=1.0, xstar=np.zeros(1))
    traj = one_row(obj, s, 9.0, [0.0], [0.0])
    assert energy_Ebp(_cfg(6.0, 1.0), params, traj)[0] == 0.0


def test_energy_Ebp_p0_beta0_reduction():
    # with p=0, beta=0 and |x| = |x*| only two terms survive
    obj = builtin("shifted_quadratic", c=np.array([1.0, 0.0]))
    s = power_schedule(1.5)
    cfg = DynamicsConfig(alpha=4.0, beta=0.0, t0=1.0, u0=[2.0, 0.0], v0=[0.0, 0.0], horizon=10.0)
    xstar = np.array([1.0, 0.0])
    params = EnergyParams(b=2.5, p=0.0, xstar=xstar)
    t, x, v = 6.0, np.array([-1.0, 0.0]), np.array([0.2, -0.1])
    gap = obj.value(x)  # 2.0
    combo = 2.5 * (x - xstar) + t * v
    expected = t * (t + 4.0 - 2.5 - 1.0) * gap + 0.5 * float(combo @ combo)
    got = energy_Ebp(cfg, params, one_row(obj, s, t, x, v))[0]
    assert got == pytest.approx(expected, rel=1e-14)


def test_energy_Ebp_alpha3_leading_coefficient():
    # alpha=3 forces b=2, p=0; the gap coefficient becomes t - beta
    obj = builtin("paper1d")
    s = zero_schedule()
    params = strong_convergence_energy_params(3.0, np.zeros(1))
    assert params.b == 2.0 and params.p == 0.0
    cfg = _cfg(3.0, 1.0)
    t = 10.0
    # choose v so that x' + beta*grad = 0; then only the gap term survives (g(2) = 1)
    traj = one_row(obj, s, t, [2.0], [-3.0], y=[0.0])
    got = energy_Ebp(cfg, params, traj)[0]
    expected = t * (t - 1.0) * 1.0 + 0.5 * (2.0 * 2.0) ** 2
    assert got == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize(
    "name, c, floor", [("paper1d", None, 0.0), ("shifted_quadratic", [1.0, -2.0], 1.0)]
)
def test_energy_Ebp_series_matches_per_sample_form(name, c, floor):
    # alpha=6 gives b=4, p=1. On the 2-d run E_b^p falls to 0.018 while its
    # terms stay near 5, so one rounding in a term is 3e-14 of E_b^p there:
    # that run is measured against 1 + |E_b^p|
    obj = builtin(name) if c is None else builtin(name, c=np.array(c))
    s = power_schedule(1.5)
    d = obj.dimension
    cfg = DynamicsConfig(alpha=6.0, beta=1.0, t0=1.0, u0=[2.0] * d, v0=[0.0] * d, horizon=1e3)
    traj = integrate(obj, s, cfg)
    params = strong_convergence_energy_params(6.0, obj.min_norm_solution)
    assert params.p == 1.0
    series = energy_Ebp(cfg, params, traj)
    oracle = np.array([
        energy_Ebp_sample(obj, s, cfg, params, traj.t[i], traj.x[i], traj.v[i])
        for i in range(traj.n_samples)
    ])
    assert np.max(np.abs(series - oracle) / (floor + np.abs(oracle))) <= 1e-14


def test_energy_params_reject_negative_p():
    with pytest.raises(ValueError):
        EnergyParams(b=2.0, p=-0.5, xstar=np.zeros(1))


# -- monotonicity ----------------------------------------------------------------


def test_monotonicity_check_passes():
    res = monotonicity_check([(1.0, 1.0), (2.0, 0.5), (3.0, 0.2)], tol=0.0)
    assert res.passed


def test_monotonicity_check_tolerates_blip():
    res = monotonicity_check([(1.0, 1.0), (2.0, 1.0 + 1e-12), (3.0, 0.5)], tol=1e-9)
    assert res.passed


def test_monotonicity_check_reports_violation():
    res = monotonicity_check([(1.0, 1.0), (2.0, 2.0), (3.0, 0.5)], tol=1e-9)
    assert not res.passed
    assert res.violation_index == 1
    assert res.magnitude == pytest.approx(1.0)


def test_monotonicity_check_rejects_unordered():
    with pytest.raises(ValueError):
        monotonicity_check([(2.0, 1.0), (1.0, 0.5)], tol=0.0)
    with pytest.raises(ValueError):
        monotonicity_check([(1.0, 1.0)], tol=0.0)


# -- rate report -----------------------------------------------------------------


def test_rate_report_constant_minimizer_trajectory():
    t = np.geomspace(1.0, 1e4, 120)
    x = np.zeros((120, 1))
    s = power_schedule(1.5)
    traj = synthetic_trajectory(t, x, s.eps, np.zeros(1))
    obj = builtin("paper1d")
    cfg = DynamicsConfig(alpha=3, beta=1, t0=1.0, u0=[0.0], v0=[0.0], horizon=1e4, sample_count=120)
    rep = rate_report(traj)
    assert rep.sup_t2_gap == 0.0
    assert rep.tail_decay_t2_gap.verdict == "consistent-with-o"
    assert rep.t_momentum.verdict == "consistent-with-o"
    assert rep.t2_eps_x2.verdict == "consistent-with-o"


def test_rate_report_insufficient_span():
    obj = builtin("paper1d")
    s = power_schedule(1.5)
    cfg = DynamicsConfig(alpha=3, beta=1, t0=1.0, u0=[2.0], v0=[0.0], horizon=10.0)
    traj = integrate(obj, s, cfg)
    with pytest.raises(ValueError, match="insufficient span"):
        rate_report(traj)


def test_rate_report_on_real_run_alpha4():
    obj = builtin("shifted_quadratic", c=np.array([1.0]))
    s = power_schedule(2.5)
    cfg = DynamicsConfig(alpha=4.0, beta=0.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=1e4)
    traj = integrate(obj, s, cfg)
    rep = rate_report(traj)
    assert np.isfinite(rep.sup_t2_gap)
    assert rep.tail_decay_t2_gap.verdict == "consistent-with-o"


# -- ergodic deviation -------------------------------------------------------------


def test_ergodic_deviation_zero_when_on_minimizer():
    t = np.geomspace(1.0, 1e3, 80)
    s = power_schedule(1.5)
    traj = synthetic_trajectory(t, np.zeros((80, 1)), s.eps, np.zeros(1))
    times, values = ergodic_deviation(traj)
    assert np.allclose(values, 0.0)


def test_ergodic_deviation_constant_distance_factors_out():
    t = np.geomspace(1.0, 1e3, 80)
    K = 2.25
    x = np.full((80, 1), np.sqrt(K))
    s = power_schedule(1.5)
    traj = synthetic_trajectory(t, x, s.eps, np.zeros(1))
    times, values = ergodic_deviation(traj)
    assert np.allclose(values, K, rtol=1e-12)


def test_ergodic_deviation_refuses_zero_schedule():
    t = np.geomspace(1.0, 1e3, 80)
    traj = synthetic_trajectory(t, np.zeros((80, 1)), lambda tt: 0.0, np.zeros(1))
    with pytest.raises(ValueError, match="ergodic"):
        ergodic_deviation(traj)


# -- Tikhonov curve ----------------------------------------------------------------


def test_tikhonov_point_shifted_quadratic_closed_form():
    obj = builtin("shifted_quadratic", c=np.array([1.0]))
    x = tikhonov_point(obj, 0.25)
    assert x[0] == pytest.approx(0.8, rel=1e-12)


def test_tikhonov_point_paper1d_is_origin():
    obj = builtin("paper1d")
    for e in (1.0, 0.1, 0.01):
        assert tikhonov_point(obj, e)[0] == 0.0


def test_tikhonov_point_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        tikhonov_point(builtin("paper1d"), 0.0)


def test_tikhonov_point_on_a_concave_objective_reports_its_curvature():
    # g(x) = x - x^2/2: the Newton operator g'' + eps = -0.5 is negative, so
    # the first CG direction has non-positive curvature; the residual is
    # |g'(0)| = 1
    obj = ObjectiveSpec(
        dimension=1,
        value=lambda x: float(x[0] - 0.5 * x[0] ** 2),
        gradient=lambda x: 1.0 - x,
        hessian_vec=lambda x, v: -v,
        min_value=-math.inf,
    )
    with pytest.raises(SolverError, match="non-positive curvature direction") as exc:
        tikhonov_point(obj, 0.5)
    assert exc.value.residual == 1.0


def test_tikhonov_point_backtracks_on_a_pseudo_huber_objective():
    # g(x) = sqrt(1 + (x - 3)^2) at eps = 0.01: the first Newton step from
    # 0, about 22.8, raises the merit, so the line search halves it
    tried = []

    def value(x):
        tried.append(x[0])
        return float(np.sqrt(1.0 + (x[0] - 3.0) ** 2))

    obj = ObjectiveSpec(
        dimension=1,
        value=value,
        gradient=lambda x: (x - 3.0) / np.sqrt(1.0 + (x - 3.0) ** 2),
        hessian_vec=lambda x, v: v / (1.0 + (x - 3.0) ** 2) ** 1.5,
        min_value=1.0,
    )
    x = tikhonov_point(obj, 0.01)
    # the merit at 0, then at the full step and at its half
    assert tried[0] == 0.0 and tried[1] > 20.0 and tried[2] == 0.5 * tried[1]
    resid = np.asarray(obj.gradient(x)) + 0.01 * x
    assert np.linalg.norm(resid) <= 1e-10 * (1 + np.linalg.norm(x))


def test_tikhonov_point_whose_value_contradicts_its_gradient_stagnates():
    # the value 10x rises along every Newton step that the gradient x - 3
    # asks for, so no halving of it meets the Armijo test; the residual is
    # |g'(0)| = 3
    obj = ObjectiveSpec(
        dimension=1,
        value=lambda x: float(10.0 * x[0]),
        gradient=lambda x: x - 3.0,
        hessian_vec=lambda x, v: v,
        min_value=-math.inf,
    )
    with pytest.raises(SolverError, match="line search stagnated on the Tikhonov system") as exc:
        tikhonov_point(obj, 0.01)
    assert exc.value.residual == 3.0


def test_tikhonov_curve_approaches_min_norm_solution():
    for obj in (
        builtin("shifted_quadratic", c=np.array([1.0, 2.0])),
        builtin("least_squares", A=np.array([[1.0, 1.0]]), b=np.array([2.0])),
        builtin("psd_quadratic", A=np.array([[2.0, 0.0], [0.0, 1.0]]), b=np.array([2.0, 1.0])),
    ):
        xstar = obj.min_norm_solution
        dists = []
        for e in (1.0, 0.1, 0.01):
            x = tikhonov_point(obj, e)
            assert np.linalg.norm(x) <= np.linalg.norm(xstar) + 1e-10
            resid = np.asarray(obj.gradient(x)) + e * x
            assert np.linalg.norm(resid) <= 1e-10 * (1 + np.linalg.norm(x))
            dists.append(np.linalg.norm(x - xstar))
        assert dists[1] <= dists[0] + 1e-12
        assert dists[2] <= dists[1] + 1e-12


# -- drift bound --------------------------------------------------------------------


def test_drift_bound_zero_schedule_reduces_to_monotone_energy():
    obj = builtin("shifted_quadratic", c=np.array([1.0]))
    s = zero_schedule()
    cfg = DynamicsConfig(alpha=4.0, beta=1.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=300.0)
    traj = integrate(obj, s, cfg)
    params = EnergyParams(b=2.5, xstar=np.array([1.0]))
    res = eb_drift_bound_check(traj, s, cfg, params, a=2.0, case="a")
    assert res.passed
    assert not res.scaled


def test_drift_bound_case_a_paper1d():
    obj = builtin("paper1d")
    s = power_schedule(1.5)
    cfg = DynamicsConfig(alpha=4.0, beta=1.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=1e3)
    traj = integrate(obj, s, cfg)
    params = EnergyParams(b=2.5, xstar=np.zeros(1))
    res = eb_drift_bound_check(traj, s, cfg, params, a=2.0, case="a")
    assert res.passed
    assert res.t2 == pytest.approx(4.0)  # max(t1=1, 2*2*1/1, 1*2/0.5)
    assert res.drift_coefficient == 2.5


def test_drift_bound_case_b_alpha3():
    obj = builtin("shifted_quadratic", c=np.array([1.0]))
    s = power_schedule(2.5)
    cfg = DynamicsConfig(alpha=3.0, beta=0.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=1e3)
    traj = integrate(obj, s, cfg)
    params = EnergyParams(b=2.0, xstar=np.array([1.0]))
    res = eb_drift_bound_check(traj, s, cfg, params, a=1.0, case="b")
    assert res.passed
    assert res.scaled  # t/(t-beta) scaling, trivial at beta=0
    assert res.drift_coefficient == pytest.approx(1.0)  # (2 + a*beta)/2 with beta=0


def test_drift_bound_case_a_beta_zero_degenerate_a():
    # with beta = 0 the decay condition holds for any a, including a = 1
    obj = builtin("shifted_quadratic", c=np.array([1.0]))
    s = power_schedule(2.5)
    cfg = DynamicsConfig(alpha=4.0, beta=0.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=500.0)
    traj = integrate(obj, s, cfg)
    params = EnergyParams(b=2.5, xstar=np.array([1.0]))
    res = eb_drift_bound_check(traj, s, cfg, params, a=1.0, case="a")
    assert res.passed
    assert res.t2 == 1.0


def test_drift_bound_requires_certified_hypotheses():
    obj = builtin("paper1d")
    s = power_schedule(0.5)  # satisfies neither condition
    cfg = DynamicsConfig(alpha=4.0, beta=1.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=100.0)
    traj = integrate(obj, s, cfg)
    params = EnergyParams(b=2.5, xstar=np.zeros(1))
    with pytest.raises(ValueError, match="not certified"):
        eb_drift_bound_check(traj, s, cfg, params, a=2.0, case="b")


@pytest.mark.parametrize("center, gamma, alpha, b, a, case, t2, l, n", [
    # alpha = 3: the scaled functional, its drift integrated by Simpson
    (None, 1.5, 3.0, 2.0, 1.0, "b", 4.0, 1.5, 319),  # max(t1, 4*beta)
    (None, 1.5, 3.0, 2.0, 2.0, "a", 2.000000000002, 1.0, 359),  # clear of the pole
    # alpha > 3: l = b + a*beta, t2 = max(t1, 4*beta, beta*(alpha-2)/(b-2))
    (None, 1.5, 4.0, 2.5, 1.0, "b", 4.0, 3.5, 319),
    (1.0, 2.5, 4.0, 2.5, 1.0, "b", 4.0, 3.5, 319),
], ids=["alpha3-b", "alpha3-a", "alpha4-b", "alpha4-b-shifted"])
def test_drift_bound_with_hessian_damping(center, gamma, alpha, b, a, case, t2, l, n):
    obj = builtin("paper1d") if center is None else builtin("shifted_quadratic", c=np.array([center]))
    xstar = np.array([0.0 if center is None else center])
    s = power_schedule(gamma)
    cfg = DynamicsConfig(alpha=alpha, beta=1.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=1e3)
    traj = integrate(obj, s, cfg)
    res = eb_drift_bound_check(traj, s, cfg, EnergyParams(b=b, xstar=xstar), a=a, case=case)
    assert res.passed
    assert (res.t2, res.drift_coefficient, res.samples_checked) == (t2, l, n)
    assert res.scaled is (alpha == 3.0)


@pytest.mark.parametrize("alpha, b, case", [(4.0, 2.5, "a"), (3.0, 2.0, "b")])
def test_drift_bound_rejects_run_ending_before_t2(alpha, b, case):
    # t2 = 4 in both branches; a run to t = 3 has no sample beyond it
    obj = builtin("paper1d")
    s = power_schedule(1.5)
    cfg = DynamicsConfig(alpha=alpha, beta=1.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=3.0)
    traj = integrate(obj, s, cfg)
    params = EnergyParams(b=b, xstar=np.zeros(1))
    with pytest.raises(ValueError, match="fewer than two samples beyond t2 = 4"):
        eb_drift_bound_check(traj, s, cfg, params, a=2.0, case=case)


@pytest.mark.parametrize("alpha, b, case, message", [
    (4.0, 2.5, "c", "case must be 'a' or 'b'"),
    (4.0, 2.0, "a", "need 2 < b < alpha-1 = 3, got b=2"),  # b = 2 is only allowed at alpha = 3
], ids=["unknown-case", "b-at-the-lower-end"])
def test_drift_bound_rejects_invalid_parameters(alpha, b, case, message):
    obj = builtin("paper1d")
    s = power_schedule(1.5)
    cfg = DynamicsConfig(alpha=alpha, beta=1.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=10.0)
    traj = integrate(obj, s, cfg)
    with pytest.raises(ValueError, match=message):
        eb_drift_bound_check(traj, s, cfg, EnergyParams(b=b, xstar=np.zeros(1)), a=2.0, case=case)


# -- vanishing average (integrable eps/t) ------------------------------------------


def test_averaged_t_eps_decays():
    s = power_schedule(1.5)
    early = averaged_t_eps(s, 10.0)
    late = averaged_t_eps(s, 1e5)
    assert early == pytest.approx(2.0 * (np.sqrt(10.0) - 1.0) / 100.0, rel=1e-12)
    assert late <= 1e-3 * early


def test_averaged_t_eps_needs_a_horizon_past_the_schedule_start():
    for T in (1.0, 0.5):
        with pytest.raises(ValueError, match="T must exceed the schedule start"):
            averaged_t_eps(power_schedule(1.5), T)


def test_default_energy_index():
    assert default_energy_index(3.0) == 2.0
    assert default_energy_index(5.0) == 3.0
    with pytest.raises(ValueError):
        default_energy_index(2.0)
