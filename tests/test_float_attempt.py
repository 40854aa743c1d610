"""A run of dimension 1 steps each attempt in Python floats around its weight
products (`integrator._float_attempt`); every other run, each lane and a
plain callable step with numpy. The float path must give the bytes of both
and of the frozen reference, failures included.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tikhoflow.dynamics import integrate_lanes
from tikhoflow.integrator import solve

from helpers import reference_integrate

FIELDS = ("t", "x", "v", "y", "eps", "gap", "grad_norm", "int_eps_over_t", "int_erg_num", "int_vel")


def _outcome(fn, *args):
    # the Trajectory, or the IntegrationError raised; the reference stepper
    # does not silence numpy's warnings on a state that overflows
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return fn(*args)
        except IntegrationError as exc:
            return exc


def _assert_same_run(got, want):
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.meta["stats"] == want.meta["stats"]


def _assert_same(got, want):
    assert type(got) is type(want), (got, want)
    if not isinstance(want, IntegrationError):
        _assert_same_run(got, want)
        return
    assert (str(got), got.t, got.stats) == (str(want), want.t, want.stats)
    assert got.rows.tobytes() == want.rows.tobytes()
    assert got.state.tobytes() == want.state.tobytes()
    if got.partial is not None and want.partial is not None:
        _assert_same_run(got.partial, want.partial)


def _lane(obj, s, cfg):
    (outcome,) = integrate_lanes(obj, [(s, cfg)])
    return outcome


_FINITE = st.floats(-3.0, 3.0, allow_subnormal=False)


@st.composite
def _runs(draw):
    if draw(st.booleans()):
        obj = builtin("paper1d")
    else:
        obj = builtin("shifted_quadratic", c=np.array([draw(_FINITE)]))
    t0 = draw(st.sampled_from([1.0, 1.5, 3.0]))
    horizon = t0 + draw(st.floats(0.5, 25.0))
    kind = draw(st.sampled_from(["power", "logarithmic", "zero", "tabulated"]))
    if kind == "power":
        s = power_schedule(draw(st.floats(0.5, 3.0)), scale=draw(st.floats(0.1, 2.0)))
    elif kind == "logarithmic":
        s = logarithmic_schedule(offset=draw(st.floats(1.0, 5.0)))
    elif kind == "zero":
        s = zero_schedule()
    else:
        s = tabulated_schedule([1.0, 4.0, 12.0, 40.0], sorted(draw(
            st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4)), reverse=True))
    # failures: from 1e20 the first step underflows, and 1e155 squares to
    # inf in the integrands of the initial derivative
    u0 = draw(st.one_of(_FINITE, st.sampled_from([1e20, -1e155])))
    cfg = DynamicsConfig(
        alpha=draw(st.floats(0.0, 6.0)),
        beta=draw(st.sampled_from([0.0, draw(st.floats(0.0, 2.0))])),
        t0=t0,
        u0=[u0],
        v0=[draw(_FINITE)],
        horizon=horizon,
        rel_tol=draw(st.sampled_from([1e-5, 1e-7, 1e-9])),
        abs_tol=draw(st.sampled_from([1e-8, 1e-12])),
        sample_count=draw(st.integers(2, 30)),
        sample_spacing=draw(st.sampled_from(["linear", "logarithmic"])),
    )
    return obj, s, cfg


@settings(max_examples=100, deadline=None)
@given(_runs())
def test_one_dimensional_run_equals_its_lane_and_the_reference(run):
    obj, s, cfg = run
    got = _outcome(integrate, obj, s, cfg)
    _assert_same(got, _outcome(_lane, obj, s, cfg))
    _assert_same(got, _outcome(reference_integrate, obj, s, cfg))


def _float_attempts(monkeypatch):
    # the arguments of each float attempt `solve` builds, one per run
    built = []
    float_attempt = integrator._float_attempt

    def counted(*args):
        built.append(args)
        return float_attempt(*args)

    monkeypatch.setattr(integrator, "_float_attempt", counted)
    return built


def test_table_is_the_whole_method_on_the_float_path(monkeypatch):
    # Bogacki-Shampine 3(2), as in test_table_is_the_whole_method: the float
    # attempt reads the table when `solve` starts, as the numpy attempts do
    monkeypatch.setattr(integrator, "_C", np.array([1 / 2, 3 / 4]))
    monkeypatch.setattr(integrator, "_A", (
        np.array([1 / 2]),
        np.array([0.0, 3 / 4]),
        np.array([2 / 9, 1 / 3, 4 / 9]),
    ))
    monkeypatch.setattr(integrator, "_E", np.array([-5 / 72, 1 / 12, 1 / 9, -1 / 8]))
    monkeypatch.setattr(integrator, "_ERR_EXP", 1 / 3)
    built = _float_attempts(monkeypatch)
    obj, s = builtin("paper1d"), power_schedule(1.5)
    cfg = DynamicsConfig(alpha=3.0, beta=1.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=30.0,
                         sample_count=40, rel_tol=1e-6, abs_tol=1e-9)
    traj = integrate(obj, s, cfg)
    assert len(built) == 1
    stats = traj.meta["stats"]
    assert stats["rhs_evals"] == 3 * (stats["steps"] + stats["rejected"]) + 2
    _assert_same_run(traj, _lane(obj, s, cfg))

    # a plain callable steps through the numpy attempt, stage by stage
    def plain_solve(rhs, *args):
        return solve(lambda t, z: rhs(t, z), *args)

    monkeypatch.setattr("tikhoflow.dynamics.solve", plain_solve)
    _assert_same_run(integrate(obj, s, cfg), traj)
    assert len(built) == 1


@pytest.mark.parametrize("run, c, floats", [
    (integrate, None, True),
    (integrate, [1.0, -2.0], False),
    (integrate_direct, None, False),
])
def test_only_one_dimensional_lifted_runs_step_in_floats(run, c, floats, monkeypatch):
    built = _float_attempts(monkeypatch)
    obj = builtin("paper1d") if c is None else builtin("shifted_quadratic", c=np.array(c))
    d = obj.dimension
    cfg = DynamicsConfig(alpha=3.0, beta=1.0, t0=1.0, u0=[2.0] * d, v0=[0.0] * d, horizon=5.0,
                         sample_count=5)
    run(obj, power_schedule(1.5), cfg)
    assert len(built) == floats
