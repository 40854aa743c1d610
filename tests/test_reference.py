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
from helpers import reference_integrate, reference_solve

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
    # the last stage row is the 5th-order weight row (FSAL), so one loop over
    # the table runs every stage; each row sums to its stage's time fraction
    A, B, C, E = integrator._A, integrator._B, integrator._C, integrator._E
    assert len(A) == 7 and A[6] is B
    for k in range(1, 6):
        assert abs(A[k][:k].sum() - C[k]) <= 1e-15, k
    assert abs(B.sum() - 1.0) <= 1e-15
    assert abs(E.sum()) <= 1e-15


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
