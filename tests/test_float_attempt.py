"""A run of dimension 1 steps each attempt in straight-line Python floats
generated from the table (`integrator._generated_attempt`), whatever form
its right-hand side takes: a `Split` with a float ``body``, a `Split`
without one and a plain callable must give the same bytes, and those of the
frozen reference, whose weight products at d = 1 are left-to-right sums,
failures included. Every other run and each lane step with numpy.
"""
import ast
from collections import Counter

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
from tikhoflow.schedules import TikhonovSchedule
from tikhoflow.dynamics import _drive, _float_body, _lifted_z0, vector_field
from tikhoflow.integrator import solve
from tikhoflow.problems import ObjectiveSpec

from helpers import reference_integrate, reference_solve

FIELDS = ("t", "x", "v", "y", "eps", "gap", "grad_norm", "int_eps_over_t", "int_erg_num", "int_vel")
# the float body of the lifted field and the names it binds (`Split.body`)
_LIFTED_BODY = (_float_body, ("grad", "alpha", "beta", "xstar"))
# Bogacki-Shampine 3(2) as C, A and E, a table of three stages
_BS23 = ((1 / 2, 3 / 4), ((1 / 2,), (0.0, 3 / 4), (2 / 9, 1 / 3, 4 / 9)), (-5 / 72, 1 / 12, 1 / 9, -1 / 8))


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
def test_one_dimensional_run_equals_the_reference(run):
    obj, s, cfg = run
    _assert_same(_outcome(integrate, obj, s, cfg), _outcome(reference_integrate, obj, s, cfg))


def _rhs_forms(obj, s, cfg):
    """The lifted right-hand side as a `Split` with a float body, as one
    without, and as a plain callable, as a traced run hands it to `solve`."""
    rhs = vector_field(obj, s, cfg)
    return {"body": rhs, "split": rhs._replace(body=None), "plain": lambda t, z: rhs(t, z)}


_FORM_RUNS = {
    "paper1d": (builtin("paper1d"), power_schedule(1.5), {}),
    "shifted_tabulated": (builtin("shifted_quadratic", c=np.array([1.0])),
                          tabulated_schedule([1.0, 4.0, 12.0, 40.0], [1.0, 0.5, 0.2, 0.1]),
                          {"beta": 0.0}),
    # undamped, the gradient turns NaN as x swings past -1 at t = 1 + 2 pi/3
    "non_finite": (ObjectiveSpec(dimension=1, value=lambda x: 0.5 * x[0] * x[0],
                                 gradient=lambda x: np.where(x < -1.0, np.nan, x),
                                 hessian_vec=lambda x, v: v, min_value=0.0,
                                 min_norm_solution=np.array([0.0])),
                   zero_schedule(), {"alpha": 0.0, "beta": 0.0}),
    "underflow": (builtin("paper1d"), power_schedule(1.5), {"u0": [1e20]}),
}


@pytest.mark.parametrize("case", sorted(_FORM_RUNS))
def test_every_rhs_form_gives_the_same_bytes(case):
    obj, s, kw = _FORM_RUNS[case]
    cfg = DynamicsConfig(**{**dict(alpha=3.0, beta=1.0, t0=1.0, u0=[2.0], v0=[0.0],
                                   horizon=30.0, sample_count=40), **kw})
    want = _outcome(reference_integrate, obj, s, cfg)
    if case == "non_finite":
        assert "non-finite state" in str(want) and want.rows.shape[0] > 1
    for rhs in _rhs_forms(obj, s, cfg).values():
        _assert_same(_outcome(_drive, obj, s, cfg, rhs, _lifted_z0(obj, cfg), "lifted"), want)


def test_zero_scale_without_abs_tol_matches_the_reference():
    # with abs_tol = 0 the first component decays to exactly 0, where its
    # error scale is 0; numpy's 0/0 rejects, and so must the float attempt,
    # until the step underflows
    def rhs(t, z):
        return np.array([-50.0 * z[0], 0.0, 0.0, 0.0, 0.0])

    z0, ts = np.ones(5), np.linspace(0.0, 20.0, 6)
    with np.errstate(all="ignore"):
        want = _outcome(reference_solve, rhs, z0, ts, 1e-6, 0.0)
        got = _outcome(solve, rhs, z0, ts, 1e-6, 0.0)
    assert "step size underflow" in str(want)
    assert (str(got), got.t, got.stats) == (str(want), want.t, want.stats)
    assert got.rows.tobytes() == want.rows.tobytes() and got.state.tobytes() == want.state.tobytes()


def _float_attempts(monkeypatch):
    # the arguments of each float attempt `solve` builds, one per run
    built = []
    generated = integrator._generated_attempt

    def counted(*args):
        built.append(args)
        return generated(*args)

    monkeypatch.setattr(integrator, "_generated_attempt", counted)
    return built


def test_table_is_the_whole_method_on_the_float_path(monkeypatch):
    # Bogacki-Shampine 3(2), as in test_table_is_the_whole_method: the float
    # attempt is generated from the table when `solve` first needs it, so a
    # swapped table gets its own source, with its three stages, and steps
    # as the reference stepper steps the same table
    obj, s = builtin("paper1d"), power_schedule(1.5)
    cfg = DynamicsConfig(alpha=3.0, beta=1.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=30.0,
                         sample_count=40, rel_tol=1e-6, abs_tol=1e-9)
    monkeypatch.setattr(integrator, "_C", np.array([1 / 2, 3 / 4]))
    monkeypatch.setattr(integrator, "_A", (
        np.array([1 / 2]),
        np.array([0.0, 3 / 4]),
        np.array([2 / 9, 1 / 3, 4 / 9]),
    ))
    monkeypatch.setattr(integrator, "_E", np.array([-5 / 72, 1 / 12, 1 / 9, -1 / 8]))
    monkeypatch.setattr(integrator, "_ERR_EXP", 1 / 3)
    source = integrator._float_source(*_BS23, 5, *_LIFTED_BODY)
    assert source.count("= grad(") == 3 and "0.0 *" not in source
    built = _float_attempts(monkeypatch)
    traj = integrate(obj, s, cfg)
    assert len(built) == 1
    stats = traj.meta["stats"]
    assert stats["rhs_evals"] == 3 * (stats["steps"] + stats["rejected"]) + 2
    bs23 = (np.array([0.0, 1 / 2, 3 / 4]), (np.array([0.0]), np.array([1 / 2]), np.array([0.0, 3 / 4])),
            np.array([2 / 9, 1 / 3, 4 / 9]), np.array([-5 / 72, 1 / 12, 1 / 9, -1 / 8]), 1 / 3)
    _assert_same_run(traj, reference_integrate(obj, s, cfg, table=bs23))

    # a plain callable steps through the same generated attempt, stage by stage
    def plain_solve(rhs, *args):
        return solve(lambda t, z: rhs(t, z), *args)

    monkeypatch.setattr("tikhoflow.dynamics.solve", plain_solve)
    _assert_same_run(integrate(obj, s, cfg), traj)
    assert len(built) == 2


def _calls(C: tuple, A: tuple, E: tuple) -> Counter:
    source = integrator._float_source(C, A, E, 5, *_LIFTED_BODY)
    return Counter(ast.unparse(node.func) for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Call))


def test_lifted_float_attempt_calls_nothing_per_stage_but_the_gradient():
    # the lifted derivative is inlined into each stage, so the gradient is
    # the one call that the six stages of DP5 make twice as often as the
    # three of Bogacki-Shampine; every other call is made once per attempt
    dp5 = _calls(tuple(integrator._C.tolist()), tuple(tuple(a.tolist()) for a in integrator._A),
                 tuple(integrator._E.tolist()))
    bs23 = _calls(*_BS23)
    assert (dp5.pop("grad"), bs23.pop("grad")) == (6, 3)
    assert dp5 == bs23


@pytest.mark.parametrize("run, c, floats", [
    (integrate, None, True),
    (integrate, [1.0, -2.0], False),
    (integrate_direct, None, True),
])
def test_only_one_dimensional_lifted_runs_step_in_floats(run, c, floats, monkeypatch):
    # a state of 5 components, one-dimensional in either formulation, steps
    # in floats; integrate_direct's `Split` has no stage and is adapted
    built = _float_attempts(monkeypatch)
    obj = builtin("paper1d") if c is None else builtin("shifted_quadratic", c=np.array(c))
    d = obj.dimension
    cfg = DynamicsConfig(alpha=3.0, beta=1.0, t0=1.0, u0=[2.0] * d, v0=[0.0] * d, horizon=5.0,
                         sample_count=5)
    run(obj, power_schedule(1.5), cfg)
    assert len(built) == floats


def test_stage_without_floats_evaluates_the_schedule_only_inside_the_whole_rhs(monkeypatch):
    # integrate_direct's `Split` at d = 1 has no float stage: each stage
    # calls it whole, which evaluates the schedule at its time, so the
    # attempt makes no batch schedule call on its stage times besides; the
    # run keeps the reference's bytes and counters
    obj, s = builtin("paper1d"), power_schedule(1.5)
    cfg = DynamicsConfig(alpha=3.0, beta=1.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=30.0,
                         sample_count=40)
    want = reference_integrate(obj, s, cfg, "direct")
    calls = []
    span_eps = TikhonovSchedule._span_eps

    def counted_span_eps(self, lo, hi):
        evaluate = span_eps(self, lo, hi)

        def counted(t):
            calls.append(np.ndim(t))
            return evaluate(t)

        return counted

    monkeypatch.setattr(TikhonovSchedule, "_span_eps", counted_span_eps)
    traj = integrate_direct(obj, s, cfg)
    _assert_same_run(traj, want)
    assert calls == [0] * traj.meta["stats"]["rhs_evals"]
