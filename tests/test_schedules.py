import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tikhoflow import (
    check_condition_a,
    check_condition_b,
    check_strong_convergence_hypotheses,
    classify_integrals,
    crossing_time_on_grid,
    logarithmic_schedule,
    power_schedule,
    t2eps_threshold,
    tabulated_schedule,
    zero_schedule,
)
from tikhoflow.schedules import (
    _CERT_NOTE, _CLOSED_FORM_NOTE, IntegralClassification, TikhonovSchedule, _simpson,
    check_limit_condition, check_t2eps_growth,
)

GAMMAS = (0.5, 1.0, 1.1, 1.5, 1.9, 2.0, 2.5, 3.0)


def test_eps_power():
    s = power_schedule(1.5, scale=1.0)
    assert s.eps(4.0) == pytest.approx(0.125, abs=0)


def test_eps_zero():
    s = zero_schedule()
    assert s.eps(1.0) == 0.0
    assert s.eps(123.0) == 0.0


def test_eps_logarithmic():
    s = logarithmic_schedule(offset=math.e)
    assert s.eps(math.e**2 - math.e) == pytest.approx(0.5, rel=1e-14)


def test_eps_rejects_below_t0():
    s = power_schedule(1.5, t0=2.0)
    with pytest.raises(ValueError):
        s.eps(1.0)


SCHEDULE_KINDS = {
    "power": power_schedule(2.5, scale=0.3),
    "logarithmic": logarithmic_schedule(),
    "zero": zero_schedule(),
    "tabulated": tabulated_schedule([1.0, 10.0, 60.0, 100.0], [1.0, 0.2, 0.05, 0.0]),
}


@pytest.mark.parametrize("kind", sorted(SCHEDULE_KINDS))
def test_eval_at_six_stage_times_matches_scalar_evaluation(kind):
    # a DP5 attempt evaluates the schedule at its six stage times in one call;
    # every value must carry the bits of the scalar evaluation at its time
    s = SCHEDULE_KINDS[kind]
    rng = np.random.default_rng(3)
    c = np.array([0.2, 0.3, 0.8, 8 / 9, 1.0, 1.0])
    for t, h in zip(1.0 + 80.0 * rng.random(300), 10.0 * rng.random(300)):
        T = t + c * h
        scalar = np.array([float(s._eval(x)) for x in T.tolist()])
        assert s._eval(T).tobytes() == scalar.tobytes()


def test_schedule_is_nonincreasing_and_vanishing():
    ts = np.geomspace(1.0, 1e6, 200)
    for s in (power_schedule(1.5), power_schedule(0.5), logarithmic_schedule()):
        assert np.all(s.eps_dot(ts) <= 1e-14)
        assert np.all(np.asarray(s.eps(ts)) >= 0.0)
    for s in (power_schedule(1.5), power_schedule(0.5)):
        T = 2.0 * max(10.0, 1e3 ** (1.0 / s.gamma))  # past the 1e-3 decay time
        assert s.eps(T) <= 1e-3 * s.eps(s.t0)
    # the logarithmic kind decays too slowly for a 1e-3 check at any sane T
    lg = logarithmic_schedule()
    assert lg.eps(1e6) < lg.eps(1.0)


def test_derivative_matches_finite_differences():
    ts = np.geomspace(1.5, 1e4, 40)
    for s in (power_schedule(1.5), power_schedule(2.5), logarithmic_schedule()):
        for t in ts:
            h = 1e-6 * t
            fd = (s.eps(t + h) - s.eps(t - h)) / (2 * h)
            assert s.eps_dot(t) == pytest.approx(fd, rel=1e-6)


def test_tabulated_schedule_basics():
    s = tabulated_schedule([1.0, 2.0, 4.0], [1.0, 0.5, 0.25])
    assert s.eps(3.0) == pytest.approx(0.375)
    assert s.eps_dot(1.5) == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        s.eps(5.0)
    with pytest.raises(ValueError):
        tabulated_schedule([1.0, 2.0], [0.5, 1.0])  # increasing values


# -- condition (a) -----------------------------------------------------------


def test_condition_a_power_threshold_formula():
    s = power_schedule(1.5, t0=0.1)
    v = check_condition_a(s, beta=1.0, a=2.0)
    assert v.holds
    assert v.t1 == pytest.approx((2.0 / 3.0) ** 2)
    s1 = power_schedule(1.5, t0=1.0)
    assert check_condition_a(s1, beta=1.0, a=2.0).t1 == 1.0


def test_condition_a_zero_schedule():
    v = check_condition_a(zero_schedule(), beta=1.0, a=2.0)
    assert v.holds and v.t1 == 1.0


def test_condition_a_beta_zero_degenerate():
    v = check_condition_a(power_schedule(1.5), beta=0.0, a=2.0)
    assert v.holds


def test_condition_a_rejects_a_not_greater_one():
    with pytest.raises(ValueError):
        check_condition_a(power_schedule(1.5), beta=1.0, a=1.0)


def test_condition_a_fails_for_slow_power():
    v = check_condition_a(power_schedule(0.5), beta=1.0, a=2.0)
    assert v.status == "fails"
    s = power_schedule(0.5)
    t = v.witness
    assert s.eps_dot(t) > -1.0 * s.eps(t) ** 2  # a*beta/2 = 1


def test_condition_a_fails_for_logarithmic():
    s = logarithmic_schedule()
    v = check_condition_a(s, beta=1.0, a=2.0)
    assert v.status == "fails"
    # the reported witness genuinely violates the inequality
    assert s.eps_dot(v.witness) > -1.0 * s.eps(v.witness) ** 2


def test_condition_a_tabulated_unknown():
    grid = np.geomspace(1.0, 100.0, 50)
    s = tabulated_schedule(grid, grid**-1.5)
    assert check_condition_a(s, beta=1.0, a=2.0).status == "unknown"


# -- condition (b) -----------------------------------------------------------


def test_condition_b_power_threshold():
    v = check_condition_b(power_schedule(1.5), a=1.0)
    assert v.holds and v.t1 == 1.0
    v2 = check_condition_b(power_schedule(1.5, t0=0.25), a=1.0)
    assert v2.holds and v2.t1 == pytest.approx(1.0)


def test_condition_b_fails_for_slow_power():
    v = check_condition_b(power_schedule(0.5), a=1.0)
    assert v.status == "fails"
    s = power_schedule(0.5)
    assert s.eps(v.witness) > 1.0 / v.witness


def test_condition_b_at_gamma_one_compares_the_scale_with_a():
    # t * eps is the scale at gamma = 1: the condition holds from t0 or fails there
    assert check_condition_b(power_schedule(1.0, scale=0.5), a=1.0).holds
    v = check_condition_b(power_schedule(1.0, scale=2.0), a=1.0)
    assert v.status == "fails" and v.witness == 1.0


def test_condition_b_fails_for_logarithmic():
    v = check_condition_b(logarithmic_schedule(), a=1.0)
    assert v.status == "fails"
    s = logarithmic_schedule()
    assert s.eps(v.witness) > 1.0 / v.witness


@pytest.mark.parametrize("a", [1e60, 1e100])
def test_condition_b_fails_for_logarithmic_with_a_real_witness_at_large_a(a):
    # t/log(e + t) first exceeds a near 1.4e62 and 2.3e102, past any fixed
    # number of doublings; the witness must be a time where eps(t) > a/t
    s = logarithmic_schedule()
    v = check_condition_b(s, a)
    assert v.status == "fails"
    assert s.eps(v.witness) > a / v.witness
    assert s.eps(v.witness / 2) <= a / (v.witness / 2)


def test_condition_b_for_logarithmic_past_the_float_range_is_unknown():
    # t/log(e + t) exceeds 1e306 only from about 7e308, past the largest float
    v = check_condition_b(logarithmic_schedule(), 1e306)
    assert v.status == "unknown" and "float range" in v.note


def test_condition_b_rejects_nonpositive_a():
    with pytest.raises(ValueError):
        check_condition_b(power_schedule(1.5), a=0.0)


@settings(max_examples=40, deadline=None)
@given(
    gamma=st.sampled_from(GAMMAS),
    a=st.floats(0.5, 4.0),
    bump=st.floats(0.1, 5.0),
)
def test_condition_b_verdict_monotone_in_a(gamma, a, bump):
    s = power_schedule(gamma)
    v = check_condition_b(s, a)
    v2 = check_condition_b(s, a + bump)
    if v.holds:
        assert v2.holds
        assert v2.t1 <= v.t1 + 1e-12


# -- integral classification ---------------------------------------------------


def test_classify_integrals_examples():
    # dataclass equality compares the three fields
    assert classify_integrals(power_schedule(1.5)) == IntegralClassification("finite", "infinite", "finite")
    assert classify_integrals(power_schedule(2.5)) == IntegralClassification("finite", "finite", "finite")
    assert classify_integrals(logarithmic_schedule()) == IntegralClassification(
        "infinite",
        "infinite",
        "infinite",
    )
    assert classify_integrals(zero_schedule()) == IntegralClassification("finite", "finite", "finite")


def test_classify_integrals_tabulated_unknown():
    grid = np.geomspace(1.0, 100.0, 64)
    s = tabulated_schedule(grid, grid**-2.0)
    assert classify_integrals(s) == IntegralClassification("unknown", "unknown", "unknown")


# -- exponent-arithmetic truth table (frozen before implementation) -----------

from helpers import POWER_TRUTH as TRUTH


@pytest.mark.parametrize("gamma", GAMMAS)
def test_truth_table(gamma):
    s = power_schedule(gamma)
    expected = TRUTH[gamma]
    ints = classify_integrals(s)
    assert ints.int_eps_over_t == expected[0]
    assert ints.int_t_eps == expected[1]
    assert ints.int_eps == expected[2]
    assert check_condition_a(s, beta=1.0, a=2.0).holds is expected[3]
    assert check_condition_b(s, a=1.0).holds is expected[4]
    assert check_t2eps_growth(s, alpha=3.0, beta=1.0).holds is expected[5]
    assert check_t2eps_growth(s, alpha=6.0, beta=1.0, c=1.0).holds is expected[6]
    assert check_limit_condition(s, alpha=3.0, beta=1.0).holds is expected[7]
    assert check_limit_condition(s, alpha=6.0, beta=1.0).holds is expected[8]


@pytest.mark.parametrize("gamma", GAMMAS)
def test_grid_checker_agrees_with_closed_form(gamma):
    """Verdicts that hold must also hold pointwise on a dense check grid."""
    s = power_schedule(gamma)
    ts = np.geomspace(1.0, 1e6, 400)
    va = check_condition_a(s, beta=1.0, a=2.0)
    mask_a = ts >= (va.t1 or 1.0)
    rhs = -1.0 * np.asarray(s.eps(ts[mask_a])) ** 2  # a*beta/2 = 1
    pointwise_a = bool(np.all(s.eps_dot(ts[mask_a]) <= rhs + 1e-12 * (1.0 + np.abs(rhs))))
    assert va.holds == pointwise_a
    vb = check_condition_b(s, a=1.0)
    mask = ts >= (vb.t1 or 1.0)
    pointwise_b = bool(np.all(np.asarray(s.eps(ts[mask])) * ts[mask] <= 1.0 + 1e-12))
    assert vb.holds == pointwise_b


def test_certified_decay_condition_implies_integrable_eps_over_t():
    """For beta > 0, certified condition (a) forces the eps/t integral finite."""
    schedules = [power_schedule(g) for g in GAMMAS] + [
        logarithmic_schedule(),
        zero_schedule(),
    ]
    for s in schedules:
        v = check_condition_a(s, beta=1.0, a=2.0)
        if v.holds:
            assert classify_integrals(s).int_eps_over_t == "finite", s.kind


# -- integral of t*eps by Simpson --------------------------------------------


@pytest.mark.parametrize("hi", [10.0, 1e4])
def test_integral_t_eps_logarithmic_matches_quadrature(hi):
    decades = [10**k for k in range(round(math.log10(hi)) + 1)]  # 1, 10, ..., hi
    ref = float(mpmath.quad(lambda u: u / mpmath.log(2 + u), decades))
    assert logarithmic_schedule(offset=2.0).integral_t_eps(1.0, hi) == pytest.approx(ref, rel=1e-11)


def _piecewise_t_eps(times, values, lo, hi):
    """The exact integral of t*eps(t) over [lo, hi] for piecewise-linear eps."""
    total = 0.0
    for t0, t1, e0, e1 in zip(times, times[1:], values, values[1:]):
        a, b = max(lo, t0), min(hi, t1)
        if a < b:
            k = (e1 - e0) / (t1 - t0)
            total += (e0 - k * t0) * (b * b - a * a) / 2 + k * (b**3 - a**3) / 3
    return total


def test_integral_t_eps_tabulated_against_its_exact_integral():
    times, values = [1.0, 4.0, 12.0, 40.0], [1.0, 0.5, 0.2, 0.0]
    s = tabulated_schedule(times, values)
    # within one piece t*eps is a quadratic, which Simpson integrates exactly
    for lo, hi in [(1.0, 4.0), (4.0, 12.0), (12.0, 40.0), (5.0, 11.0)]:
        assert s.integral_t_eps(lo, hi) == pytest.approx(_piecewise_t_eps(times, values, lo, hi), rel=1e-14)
    # across the kinks at 4 and 12 Simpson runs piece by piece, as exact
    exact = _piecewise_t_eps(times, values, 1.0, 40.0)
    assert s.integral_t_eps(1.0, 40.0) == pytest.approx(exact, rel=1e-14)
    # an interval that leaves the grid is refused
    for lo, hi in [(1.0, 41.0), (0.5, 10.0)]:
        with pytest.raises(ValueError, match="beyond grid end|below t0"):
            s.integral_t_eps(lo, hi)


@pytest.mark.parametrize("s, status, t1, note", [
    (logarithmic_schedule(), "holds", 4.0, "grid-certified"),
    (tabulated_schedule([1.0, 10.0, 100.0], [1.0, 0.1, 0.01]), "unknown", None, "cannot be certified"),
    (tabulated_schedule([1.0, 10.0, 100.0], [1.0, 0.01, 1e-5]), "unknown", None, "below the threshold"),
], ids=["logarithmic", "tabulated-above", "tabulated-below"])
def test_t2eps_growth_above_alpha3_off_the_power_law(s, status, t1, note):
    # the threshold at alpha 4, beta 1 is 32/9; t^2*eps ends at 100 and 0.1
    v = check_t2eps_growth(s, alpha=4.0, beta=1.0)
    assert (v.status, v.t1) == (status, t1)
    assert note in v.note


def test_t2eps_growth_of_logarithmic_holds_from_where_t2eps_reaches_the_threshold():
    # alpha = 1e12 puts the threshold at 2.2e23: t^2/log(e + t) reaches it
    # between 2.2e12 and 4.4e12, past 1e12
    s = logarithmic_schedule()
    bound = t2eps_threshold(1e12, 1.0, 1.0)
    v = check_t2eps_growth(s, alpha=1e12, beta=1.0)
    assert v.status == "holds"
    assert v.t1 * v.t1 * s.eps(v.t1) >= bound
    assert (v.t1 / 2) ** 2 * s.eps(v.t1 / 2) < bound
    assert v.note.startswith("t1 is the first of max(t0, 1) * 2^k") and v.note.endswith(_CLOSED_FORM_NOTE)


def test_t2eps_growth_of_logarithmic_past_the_float_range_is_unknown():
    # at alpha = 1e160 the threshold itself overflows to inf
    v = check_t2eps_growth(logarithmic_schedule(), alpha=1e160, beta=1.0)
    assert v.status == "unknown" and "float range" in v.note


# a threshold or witness (ratio)^(1/exponent) past the float range is inf,
# and the verdict keeps the status of the closed form
@pytest.mark.parametrize("check, status", [
    (lambda: check_condition_a(power_schedule(1.001), beta=10, a=2), "holds"),
    (lambda: check_condition_a(power_schedule(0.999), beta=0.001, a=2), "fails"),
    (lambda: check_condition_b(power_schedule(1.001, scale=10), a=1), "holds"),
    (lambda: check_condition_b(power_schedule(0.999, scale=0.1), a=1), "fails"),
    (lambda: check_t2eps_growth(power_schedule(1.999), 4, 1), "holds"),
    (lambda: check_t2eps_growth(power_schedule(2.001, scale=10), 4, 1), "fails"),
], ids=["a-threshold", "a-witness", "b-threshold", "b-witness", "t2eps-threshold", "t2eps-witness"])
def test_closed_form_past_the_float_range_is_inf(check, status):
    v = check()
    assert v.status == status
    assert (v.t1 if status == "holds" else v.witness) == math.inf


@pytest.mark.parametrize("gamma, alpha, t1", [(1.999, 4, math.inf), (1.9, 200, 3.08e39)],
                         ids=["inf", "3.08e39"])
def test_threshold_past_the_check_grid_rests_on_the_closed_form(gamma, alpha, t1):
    # from t1 >= 1e6 the grid {t1*1.05^k} up to 1e6 is empty
    v = check_t2eps_growth(power_schedule(gamma), alpha, 1)
    assert v.status == "holds"
    assert v.t1 == pytest.approx(t1, rel=1e-3)
    assert v.note == _CLOSED_FORM_NOTE
    assert "no grid point was checked" in v.note


def test_threshold_below_the_check_grid_end_is_grid_certified():
    # t1 = (32/9)^2 = 12.6
    v = check_t2eps_growth(power_schedule(1.5), 4, 1)
    assert v.status == "holds" and v.t1 < 1e6
    assert v.note == _CERT_NOTE


# -- strong-convergence hypothesis reports ------------------------------------


def test_strong_hypotheses_power_alpha3():
    rep = check_strong_convergence_hypotheses(power_schedule(1.5), alpha=3.0, beta=1.0, a=2.0)
    assert rep.cond_a.holds
    assert rep.int_eps_over_t == "finite"
    assert rep.limit_condition.holds
    assert rep.t2eps_growth.holds  # t^2 eps = t^0.5 -> infinity
    assert "strong_convergence_min_norm" in rep.applicable_theorems
    assert "ergodic_strong_convergence" not in rep.applicable_theorems


def test_strong_hypotheses_gamma2_alpha3_fails_growth():
    rep = check_strong_convergence_hypotheses(power_schedule(2.0), alpha=3.0, beta=1.0, a=2.0)
    assert rep.t2eps_growth.status == "fails"
    assert "strong_convergence_min_norm" not in rep.applicable_theorems


def test_strong_hypotheses_alpha6_threshold():
    rep = check_strong_convergence_hypotheses(power_schedule(1.5), alpha=6.0, beta=1.0, a=2.0, c=1.0)
    assert t2eps_threshold(6.0, 1.0, 1.0) == pytest.approx(8.0)
    assert rep.t2eps_growth.holds
    assert rep.t2eps_growth.t1 == pytest.approx(64.0)  # t^0.5 >= 8
    assert rep.limit_condition.holds
    assert "strong_convergence_min_norm" in rep.applicable_theorems


def test_strong_hypotheses_rejects_small_alpha():
    with pytest.raises(ValueError):
        check_strong_convergence_hypotheses(power_schedule(1.5), alpha=2.0, beta=1.0)


def test_hypotheses_logarithmic_gives_ergodic_theorem():
    rep = check_strong_convergence_hypotheses(logarithmic_schedule(), alpha=3.0, beta=1.0, a=2.0)
    assert rep.int_eps_over_t == "infinite"
    assert "ergodic_strong_convergence" in rep.applicable_theorems
    assert "strong_convergence_min_norm" not in rep.applicable_theorems


def test_hypotheses_note_for_gamma_between_one_and_two():
    rep = check_strong_convergence_hypotheses(power_schedule(1.5), alpha=3.0, beta=1.0)
    assert any("gamma in (1,2)" in note for note in rep.notes)
    assert rep.int_t_eps == "infinite"


def test_applicable_theorems_recomputable():
    from tikhoflow.schedules import applicable_theorems_from

    for gamma in GAMMAS:
        for alpha in (3.0, 4.0, 6.0):
            rep = check_strong_convergence_hypotheses(power_schedule(gamma), alpha=alpha, beta=1.0)
            recomputed = applicable_theorems_from(
                alpha,
                rep.cond_a,
                rep.cond_b,
                rep.int_eps_over_t,
                rep.int_t_eps,
                rep.t2eps_growth,
                rep.limit_condition,
            )
            assert recomputed == rep.applicable_theorems


def test_crossing_time_on_grid_matches_closed_form():
    s = power_schedule(1.5)
    bound = t2eps_threshold(6.0, 1.0, 1.0)  # 8; crossing at t = 64
    grid = np.geomspace(1.0, 1e4, 1000)
    t_cross = crossing_time_on_grid(s, bound, grid)
    exact = 64.0
    ratio = grid[1] / grid[0]
    assert exact / ratio <= t_cross <= exact * ratio
    assert crossing_time_on_grid(s, bound, np.array([1.0, 2.0])) is None


# -- verdict branches against their closed forms -------------------------------


def test_condition_a_at_gamma_one_fails_uniformly_above_the_critical_scale():
    # eps = scale/t: eps' = -scale/t^2 <= -(a beta/2) scale^2/t^2 holds at
    # every t iff (a beta/2) scale <= 1; here it is 2, so it fails from t0 on
    s = power_schedule(1.0, scale=2.0)
    v = check_condition_a(s, beta=1.0, a=2.0)
    assert v.status == "fails" and v.witness == 1.0
    assert v.note == "gamma=1: inequality fails uniformly"
    ts = np.geomspace(1.0, 1e6, 50)
    assert np.all(s.eps_dot(ts) > -1.0 * s.eps(ts) ** 2)


def test_condition_b_on_a_tabulated_schedule_that_holds_on_its_grid_is_unknown():
    # t * eps = 0.5 <= a = 1 at every grid time; beyond the grid nothing is known
    grid = np.geomspace(1.0, 100.0, 20)
    s = tabulated_schedule(grid, 0.5 / grid)
    assert np.all(grid * s.eps(grid) <= 1.0)
    v = check_condition_b(s, a=1.0)
    assert v.status == "unknown"
    assert v.note == "holds on the tabulated grid; tail behaviour unknown beyond it"


def test_t2eps_growth_at_gamma_two_holds_from_t0_at_or_above_the_threshold():
    # t^2 eps is the scale at gamma = 2: the bound holds at every t iff scale >= threshold
    bound = t2eps_threshold(6.0, 1.0, 1.0)
    ts = np.geomspace(1.0, 1e6, 50)
    for scale in (bound, 2.0 * bound):
        s = power_schedule(2.0, scale=scale)
        assert np.all(ts * ts * s.eps(ts) >= bound * (1.0 - 1e-12))
        v = check_t2eps_growth(s, alpha=6.0, beta=1.0)
        assert v.holds and v.t1 == 1.0
        assert v.note == "t^2*eps is constant above the threshold"


def test_integral_t_eps_at_gamma_two_is_the_logarithm():
    # the integral of s * scale s^-2 over [lo, hi] is scale log(hi/lo)
    s = power_schedule(2.0, scale=3.0)
    assert s.integral_t_eps(2.0, 50.0) == pytest.approx(3.0 * math.log(25.0), rel=1e-15)
    assert s.integral_t_eps(7.0, 7.0) == 0.0
    with pytest.raises(ValueError, match="empty integration interval"):
        s.integral_t_eps(5.0, 2.0)


def test_simpson_on_an_empty_interval_is_zero():
    def never(t):
        raise AssertionError("an empty interval evaluates nothing")

    assert _simpson(never, np.array([3.0])) == 0.0
    assert _simpson(never, np.array([3.0, 2.0])) == 0.0
    # a tabulated integral over a point has the one-point grid [lo]
    assert tabulated_schedule([1.0, 10.0], [1.0, 0.5]).integral_t_eps(4.0, 4.0) == 0.0


def test_eps_dot_of_the_zero_schedule_is_zero():
    assert zero_schedule().eps_dot(np.array([1.0, 10.0])).tolist() == [0.0, 0.0]
    assert zero_schedule().eps_dot(2.0) == 0.0


@pytest.mark.parametrize("make, message", [
    (lambda: TikhonovSchedule(kind="power", t0=0.0, gamma=1.5), "t0 must be positive"),
    (lambda: TikhonovSchedule(kind="cubic"), "unknown schedule kind 'cubic'"),
    (lambda: check_condition_a(power_schedule(1.5), beta=-1.0, a=2.0), "beta must be nonnegative"),
    (lambda: check_t2eps_growth(power_schedule(1.5), alpha=2.0, beta=1.0), "alpha >= 3"),
    (lambda: check_limit_condition(power_schedule(1.5), alpha=2.0, beta=1.0), "alpha >= 3"),
], ids=["t0", "kind", "condition_a_beta", "t2eps_alpha", "limit_alpha"])
def test_input_checks_name_the_bad_input(make, message):
    with pytest.raises(ValueError, match=message):
        make()
