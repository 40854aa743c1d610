"""The stepping core against its frozen reference copy in `helpers`.

Performance work on `solve` and the right-hand sides must not change a bit:
every case compares the sampled arrays byte for byte, the solver counters,
and on failure the rows, time, counters and message of the exception.
"""
import numpy as np
import pytest

from tikhoflow import (
    DynamicsConfig,
    IntegrationError,
    builtin,
    integrate,
    integrate_direct,
    logarithmic_schedule,
    power_schedule,
    tabulated_schedule,
    zero_schedule,
)
from tikhoflow import integrator
from tikhoflow.dynamics import sample_times, vector_field
from tikhoflow.integrator import solve
from tikhoflow.problems import ObjectiveSpec

import helpers
from helpers import lanes_split, reference_integrate, reference_solve

FIELDS = ("t", "x", "v", "y", "eps", "gap", "grad_norm", "int_eps_over_t", "int_erg_num", "int_vel")
INTEGRATORS = {"lifted": integrate, "direct": integrate_direct}
_RNG = np.random.default_rng(7)
_PAPER1D = builtin("paper1d")
CASES = {
    "paper1d-power": (_PAPER1D, power_schedule(1.5), {}),
    "paper1d-log": (_PAPER1D, logarithmic_schedule(), {}),
    "paper1d-tabulated": (
        _PAPER1D,
        tabulated_schedule([1.0, 10.0, 60.0, 100.0], [1.0, 0.2, 0.05, 0.0]),
        {},
    ),
    "paper1d-zero": (_PAPER1D, zero_schedule(), {}),
    "shifted-beta0": (
        builtin("shifted_quadratic", c=np.array([1.0, -2.0])),
        power_schedule(2.5),
        dict(beta=0.0, u0=[0.0, 0.0], v0=[0.0, 0.0]),
    ),
    # d = 1 runs step their motion in Python floats: the oscillatory settings
    # at horizon 30, and paper1d on its flat part with v0 = -0.0, so that
    # signed zeros (g = 0, and b g = -0.0 while t < alpha beta) pass through
    "shifted1d-beta0": (
        builtin("shifted_quadratic", c=np.array([1.0])),
        power_schedule(2.5),
        dict(beta=0.0, sample_count=400),
    ),
    "paper1d-flat-negzero": (_PAPER1D, power_schedule(1.5), dict(u0=[0.5], v0=[-0.0])),
    "lsq60-beta1": (
        builtin("least_squares", A=_RNG.standard_normal((20, 60)) / 8.0, b=_RNG.standard_normal(20)),
        power_schedule(1.5),
        dict(horizon=20.0, u0=np.full(60, 0.5), v0=np.zeros(60)),
    ),
}


@pytest.mark.parametrize("formulation", sorted(INTEGRATORS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectory_matches_reference_bit_for_bit(case, formulation):
    obj, s, kw = CASES[case]
    base = dict(alpha=3.0, beta=1.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=30.0, sample_count=40)
    base.update(kw)
    cfg = DynamicsConfig(**base)
    got = INTEGRATORS[formulation](obj, s, cfg)
    ref = reference_integrate(obj, s, cfg, formulation)
    for name in FIELDS:
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.meta["stats"] == ref.meta["stats"]


def test_dp5_table_drives_all_six_stages():
    # the table is the frozen DP5 one: row k weights the k stages before it,
    # the last row is the 5th-order weight row (FSAL), so one loop over the
    # table runs every stage; each row sums to its stage's time fraction
    A, C, E = integrator._A, integrator._C, integrator._E
    assert len(A) == 6 and len(C) == 5
    for k, a in enumerate(A[:-1], 1):
        assert a.tobytes() == helpers._A[k][:k].tobytes(), k
        assert abs(a.sum() - C[k - 1]) <= 1e-15, k
    assert A[-1].tobytes() == helpers._B.tobytes()
    assert C.tobytes() == helpers._C[1:].tobytes()
    assert E.tobytes() == helpers._E.tobytes()
    assert integrator._ERR_EXP == 0.2
    assert abs(A[-1].sum() - 1.0) <= 1e-15
    assert abs(E.sum()) <= 1e-15


def _oscillator(w2: float):
    # x'' = -w2 x, as rows (x, x')
    return lambda t, z: np.array([z[1], -w2 * z[0]])


def test_table_is_the_whole_method(monkeypatch):
    # Bogacki-Shampine 3(2), FSAL like DP5: swapping the table alone changes
    # the stages, the eval count and the step laws' exponent in both loops
    monkeypatch.setattr(integrator, "_C", np.array([1 / 2, 3 / 4]))
    monkeypatch.setattr(integrator, "_A", (
        np.array([1 / 2]),
        np.array([0.0, 3 / 4]),
        np.array([2 / 9, 1 / 3, 4 / 9]),
    ))
    monkeypatch.setattr(integrator, "_E", np.array([-5 / 72, 1 / 12, 1 / 9, -1 / 8]))
    monkeypatch.setattr(integrator, "_ERR_EXP", 1 / 3)
    ts, rtol, atol = np.linspace(0.0, 10.0, 21), 1e-6, 1e-9
    Z, stats = solve(lambda t, z: np.array([z[1], -z[0]]), np.array([1.0, 0.0]), ts, rtol, atol)
    assert np.abs(Z[:, 0] - np.cos(ts)).max() <= 10 * rtol
    assert stats["rhs_evals"] == 3 * (stats["steps"] + stats["rejected"]) + 2
    z0 = np.array([[1.0, 0.0], [0.5, 1.0], [0.0, -2.0]])
    fields = [_oscillator((i + 1.0) ** 2) for i in range(3)]
    lanes = integrator.solve_lanes(lanes_split(fields), fields, z0, ts, rtol, atol)
    for i, (Z_lane, stats_lane) in enumerate(lanes):
        Z_ref, stats_ref = solve(fields[i], z0[i], ts, rtol, atol)
        assert Z_lane.tobytes() == Z_ref.tobytes(), i
        assert stats_lane == stats_ref, i
    # the reject law, the PI accept law and the initial step take 1/3
    next_h, safety, beta_pi = integrator._next_h, integrator._SAFETY, integrator._BETA_PI
    assert next_h(2.0, 1.0, 0.5, False, 1e-4, False) == 0.5 * max(
        integrator._MIN_FACTOR, safety * 2.0 ** (-1 / 3))
    accept = safety * 0.5 ** -(1 / 3 - 0.75 * beta_pi) * 1e-4 ** beta_pi
    assert next_h(0.5, 1.0, 1.0, False, 1e-4, False) == accept
    one = np.ones(1)
    lane = integrator._Lane([0.0, 10.0], np.empty((2, 1)))
    assert lane.start(lambda t, z: one, one, 0.0, 1.0) is one
    assert lane.h == 0.01 ** (1 / 3)


def _raised(fn, *args):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError) as info:
            fn(*args)
    return info.value


def _assert_same_failure(got, ref):
    assert str(got) == str(ref)
    assert got.t == ref.t
    assert got.rows.tobytes() == ref.rows.tobytes()
    assert got.state.tobytes() == ref.state.tobytes()
    assert got.stats == ref.stats


def test_non_finite_failure_matches_reference():
    obj = ObjectiveSpec(
        dimension=1,
        value=lambda x: float(np.cosh(x[0])),
        gradient=lambda x: np.sinh(x),
        hessian_vec=lambda x, v: np.cosh(x) * v,
        min_value=1.0,
        min_norm_solution=np.array([0.0]),
    )
    cfg = DynamicsConfig(alpha=3.0, beta=0.0, t0=1.0, u0=[800.0], v0=[0.0], horizon=10.0)
    got = _raised(integrate, obj, zero_schedule(), cfg)
    ref = _raised(reference_integrate, obj, zero_schedule(), cfg)
    assert got.stats["rhs_evals"] > 0
    _assert_same_failure(got, ref)


def test_step_underflow_matches_reference():
    def rhs(t, z):
        return np.array([1.0 / (1.5 - t)])

    args = (rhs, np.array([0.0]), np.array([1.0, 1.2, 2.0]), 1e-9, 1e-12)
    got, ref = _raised(solve, *args), _raised(reference_solve, *args)
    assert "underflow" in str(got) and got.stats["steps"] > 0
    _assert_same_failure(got, ref)


def test_step_budget_matches_reference(monkeypatch):
    # the budget of 20,000,000 attempts is shrunk in both steppers, so that a
    # short run exhausts it
    monkeypatch.setattr(integrator, "_MAX_STEPS", 100)
    monkeypatch.setattr(helpers, "_MAX_STEPS", 100)
    obj, s, _ = CASES["paper1d-power"]
    cfg = DynamicsConfig(alpha=3.0, beta=1.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=30.0, sample_count=40)
    rhs = vector_field(obj, s, cfg)
    args = (rhs, np.concatenate([cfg.u0, cfg.v0 + cfg.beta * obj.gradient(cfg.u0), np.zeros(3)]),
            sample_times(cfg), cfg.rel_tol, cfg.abs_tol)
    got, ref = _raised(solve, *args), _raised(reference_solve, *args)
    assert str(got) == "step budget exhausted"
    assert got.stats["steps"] + got.stats["rejected"] == 101 and 1 < got.rows.shape[0] < 40
    _assert_same_failure(got, ref)
