import numpy as np
import pytest

from tikhoflow import (
    DynamicsConfig,
    IntegrationError,
    builtin,
    energy_W_series,
    integrate,
    integrate_direct,
    logarithmic_schedule,
    power_schedule,
    sample_times,
    tabulated_schedule,
    vector_field,
    zero_schedule,
)
from tikhoflow.dynamics import _lifted_z0, integrate_lanes
from tikhoflow.integrator import Split, _split, solve, solve_lanes
from tikhoflow.problems import ObjectiveSpec

from helpers import reference_integrate


def cfg1d(**kw):
    base = dict(alpha=3.0, beta=1.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=100.0)
    base.update(kw)
    return DynamicsConfig(**base)


# -- lift / recover ------------------------------------------------------------


def _lift(obj, **kw):
    # the initial lifted (x, y), the running integrals stripped
    d = obj.dimension
    z0 = _lifted_z0(obj, cfg1d(**kw))
    assert np.array_equal(z0[2 * d :], np.zeros(3))
    return z0[:d], z0[d : 2 * d]


def test_lift_paper1d():
    obj = builtin("paper1d")
    x, y = _lift(obj, beta=1.0, u0=[2.0], v0=[0.0])
    assert x[0] == 2.0
    assert y[0] == 3.0  # v0 + beta * grad g(2) = 0 + 3


def test_lift_beta_zero_is_velocity():
    obj = builtin("shifted_quadratic", c=np.array([1.0, 2.0]))
    _, y = _lift(obj, beta=0.0, u0=[3.0, 3.0], v0=[0.5, -0.5])
    assert np.array_equal(y, np.array([0.5, -0.5]))


def test_lift_quadratic_at_origin_center():
    obj = builtin("shifted_quadratic", c=np.zeros(2))
    _, y = _lift(obj, beta=2.0, u0=[1.0, 0.0], v0=[0.0, 1.0])
    assert np.array_equal(y, np.array([2.0, 1.0]))


def test_lift_recover_roundtrip():
    # exact on representable arithmetic, within one rounding step otherwise
    obj1 = builtin("paper1d")
    x1, y1 = _lift(obj1, beta=1.0, u0=[2.0], v0=[0.0])
    assert (y1 - 1.0 * obj1.gradient(x1))[0] == 0.0
    obj = builtin("shifted_quadratic", c=np.array([1.0, -2.0, 0.5]))
    u0 = np.array([0.3, 0.7, -1.1])
    v0 = np.array([-0.2, 0.9, 2.0])
    x, y = _lift(obj, beta=1.7, u0=u0, v0=v0)
    assert np.allclose(y - 1.7 * obj.gradient(x), v0, rtol=0, atol=1e-15)


# -- vector field ----------------------------------------------------------------


def _z(x, y):
    # lifted state (x, y) with the three running integrals at zero
    return np.concatenate([x, y, np.zeros(3)])


def test_vector_field_quadratic_direct_substitution():
    obj = builtin("shifted_quadratic", c=np.zeros(1))
    s = zero_schedule()
    cfg = cfg1d(beta=0.0)
    out = vector_field(obj, s, cfg)(1.0, _z([1.0], [1.0]))
    assert out[0] == 1.0
    assert out[1] == -4.0  # -(3/1)*1 - (1-0)*1
    # running integrands eps/t, (eps/t)|x - x*|^2 and |x'|^2/t
    assert out[2] == 0.0
    assert out[3] == 0.0
    assert out[4] == 1.0


def test_vector_field_hessian_coefficient_vanishes_at_t_alpha_beta():
    # at t = alpha*beta the gradient coefficient (1 - alpha*beta/t) is exactly zero
    obj = builtin("paper1d")
    s = power_schedule(1.5)
    cfg = cfg1d(alpha=3.0, beta=1.0)
    out = vector_field(obj, s, cfg)(3.0, _z([2.0], [0.7]))
    assert out[1] == -(3.0 / 3.0) * 0.7 - s.eps(3.0) * 2.0
    # x* = 0 for paper1d; x' = 0.7 - grad g(2) = 0.7 - 3
    e_t = s.eps(3.0) / 3.0
    assert out[2] == e_t
    assert out[3] == e_t * 4.0
    assert out[4] == (0.7 - 3.0) ** 2 / 3.0


def test_vector_field_flat_region():
    obj = builtin("paper1d")
    s = zero_schedule()
    cfg = cfg1d(alpha=5.0, beta=1.0)
    out = vector_field(obj, s, cfg)(2.0, _z([0.3], [2.0]))
    assert out[0] == 2.0
    assert out[1] == -(5.0 / 2.0) * 2.0
    assert out[4] == 2.0  # |x'|^2 / t = 4 / 2


EDGE = [0.0, -0.0, 5e-324, -2.5e-310, 1.5, -1e308, 1e308, np.inf, -np.inf, np.nan]


def _float_stage(rhs):
    """rhs's float body as stage(t, e, z, h, p): the derivative at the stage
    state z + h p, from the statements `integrator._float_source` inlines
    into a stage, with the names they bind."""
    body, names = rhs.body
    f = [f"f{j}" for j in range(5)]
    lines = body([f"z[{j}] + h * p[{j}]" for j in range(5)], f)
    source = "def stage(t, e, z, h, p):\n" + "".join(f"    {line}\n" for line in lines)
    namespace = dict(names)
    exec(source + f"    return {', '.join(f)}\n", namespace)
    return namespace["stage"]


def _same_or_both_nan(got, want):
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("schedule", [power_schedule(1.5), zero_schedule()], ids=["power", "zero"])
@pytest.mark.parametrize("alpha,beta,t", [(3.0, 0.0, 2.0), (3.0, 1.0, 2.0), (3.0, 1.0, 3.0), (0.0, 2.5, 1e300)])
def test_one_run_motion_in_floats_matches_numpy_on_edge_values(schedule, alpha, beta, t):
    # a d = 1 run steps its attempts with the field's float body; numpy on
    # 1-vectors must give the same bytes for signed zeros, subnormals,
    # products that overflow to inf, and inf/NaN states (NaN compared by
    # position), in the motion and in the integrands
    obj = builtin("shifted_quadratic", c=np.zeros(1))
    cfg = cfg1d(alpha=alpha, beta=beta, horizon=1e300)
    rhs = vector_field(obj, schedule, cfg)
    stage = _float_stage(rhs)
    e = float(schedule.eps(t))
    a, b = -(alpha / t), 1.0 - alpha * beta / t
    for x0 in EDGE:
        for y0 in EDGE:
            z = _z([x0], [y0])
            x, y = z[:1], z[1:2]
            with np.errstate(all="ignore"):
                g = obj.gradient(x)
                want = np.concatenate([y - beta * g, a * y - b * g - e * x])
                whole = rhs(t, z)
            _same_or_both_nan(whole[:2], want)
            # the float operations raise no numpy floating-point condition;
            # -0.0 + 1.0 * z is z, signed zeros included
            with np.errstate(all="raise"):
                got = np.array(stage(t, e, [-0.0] * 5, 1.0, z.tolist()))
            _same_or_both_nan(got, whole)


def test_vector_field_rejects_schedule_not_covering_run():
    obj = builtin("paper1d")
    s = tabulated_schedule([1.0, 10.0], [1.0, 0.5])
    with pytest.raises(ValueError, match="does not cover the run"):
        vector_field(obj, s, cfg1d(horizon=100.0))
    with pytest.raises(ValueError, match="does not cover the run"):
        vector_field(obj, power_schedule(1.5, t0=2.0), cfg1d())


def test_initial_data_of_another_dimension_is_refused():
    # DynamicsConfig does not know the objective; the run checks u0 against it
    cfg = cfg1d(u0=[2.0, 1.0], v0=[0.0, 0.0])
    with pytest.raises(ValueError, match=r"u0 has shape \(2,\), expected vector of dimension 1"):
        integrate(builtin("paper1d"), power_schedule(1.5), cfg)


# -- integration -----------------------------------------------------------------


def test_single_sample_when_horizon_equals_t0():
    obj = builtin("paper1d")
    s = power_schedule(1.5)
    cfg = cfg1d(horizon=1.0)
    traj = integrate(obj, s, cfg)
    assert traj.n_samples == 1
    assert traj.t[0] == 1.0
    assert traj.x[0, 0] == 2.0
    assert traj.v[0, 0] == 0.0
    assert traj.y[0, 0] == 3.0
    direct = integrate_direct(obj, s, cfg)
    assert np.array_equal(direct.x, traj.x)
    assert np.array_equal(direct.v, traj.v)


# frozen closed form for x'' + (3/t) x' + x = 0, x(1)=1, x'(1)=0:
# x(t) = (a J1(t) + b Y1(t)) / t with coefficients solved at t0=1
# (computed with mpmath at 40 digits)
BESSEL_POINTS = {
    5.0: -0.16453752052396462414,
    10.0: 0.015766466951123452236,
    20.0: 0.0071708748543699410512,
    50.0: -0.0052617623944984555601,
    100.0: -0.0020370611476511093357,
}


def test_against_bessel_closed_form():
    obj = builtin("shifted_quadratic", c=np.zeros(1))
    cfg = DynamicsConfig(
        alpha=3.0, beta=0.0, t0=1.0, u0=[1.0], v0=[0.0], horizon=100.0,
        rel_tol=1e-10, abs_tol=1e-13, sample_count=100, sample_spacing="linear",
    )
    traj = integrate(obj, zero_schedule(), cfg)
    for t_ref, x_ref in BESSEL_POINTS.items():
        i = int(np.argmin(np.abs(traj.t - t_ref)))
        assert traj.t[i] == pytest.approx(t_ref, abs=1e-9)
        assert traj.x[i, 0] == pytest.approx(x_ref, abs=1e-8)
    assert traj.gap[-1] <= 1e-4  # objective residual at the horizon


def test_long_horizon_approaches_min_norm_solution():
    # with vanishing regularization the trajectory leaves the plain minimizer
    # it would otherwise settle on and drifts to the minimum-norm one
    obj = builtin("paper1d")
    s = power_schedule(1.5)
    cfg = cfg1d(horizon=1e4)
    traj = integrate(obj, s, cfg)
    assert abs(traj.x[-1, 0]) <= 0.15
    assert np.min(np.abs(traj.x)) <= 0.05


def test_lifted_vs_direct_cross_integration():
    obj = builtin("shifted_quadratic", c=np.array([1.0]))
    s = power_schedule(1.5)
    cfg = DynamicsConfig(
        alpha=3.0, beta=1.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=50.0,
        rel_tol=1e-12, abs_tol=1e-14,
    )
    lifted = integrate(obj, s, cfg)
    direct = integrate_direct(obj, s, cfg)
    assert np.max(np.abs(lifted.x - direct.x)) <= 1e-6
    assert np.max(np.abs(lifted.v - direct.v)) <= 1e-6


def test_beta_zero_formulations_identical_field():
    obj = builtin("shifted_quadratic", c=np.array([1.0]))
    s = power_schedule(2.5)
    cfg = DynamicsConfig(
        alpha=4.0, beta=0.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=50.0,
        rel_tol=1e-10, abs_tol=1e-13,
    )
    lifted = integrate(obj, s, cfg)
    direct = integrate_direct(obj, s, cfg)
    assert np.max(np.abs(lifted.x - direct.x)) <= 1e-8


def test_sampling_grid_contract():
    cfg = cfg1d(horizon=1000.0, sample_count=81)
    ts = sample_times(cfg)
    assert ts[0] == 1.0 and ts[-1] == 1000.0
    assert np.all(np.diff(ts) > 0)
    obj = builtin("paper1d")
    traj = integrate(obj, power_schedule(1.5), cfg)
    assert np.array_equal(traj.t, ts)


@pytest.mark.parametrize("spacing", ["linear", "logarithmic"])
def test_grid_check_accepts_only_strictly_increasing_grids(spacing):
    # the grid check skips building the grid when its spacing exceeds 1e-12
    # of the scale; spacings from 1e-17 to 1e-11 of it, at any magnitude of
    # t0, cross both that limit and the rounding of the grid itself, and
    # every grid the check accepts must strictly increase
    rng = np.random.default_rng(20261019)
    rejected = 0
    for _ in range(300):
        t0 = 10.0 ** rng.uniform(-300, 300)
        n = int(rng.integers(2, 3000))
        f = 10.0 ** rng.uniform(-5.0, 1.0)
        if spacing == "linear":
            horizon = t0 / (1.0 - 1e-12 * (n - 1) * f)
        else:
            lo = np.log10(t0)
            horizon = 10.0 ** (lo + 1e-12 * (n - 1) * f * max(1.0, abs(lo)))
        try:
            cfg = cfg1d(t0=t0, horizon=horizon, sample_count=n, sample_spacing=spacing)
        except ValueError as exc:
            assert "not strictly increasing" in str(exc)
            rejected += 1
            continue
        assert np.all(np.diff(sample_times(cfg)) > 0), (t0, horizon, n)
    assert 0 < rejected < 300


def test_running_integrals_nondecreasing():
    obj = builtin("paper1d")
    traj = integrate(obj, power_schedule(1.5), cfg1d(horizon=500.0))
    for series in (traj.int_eps_over_t, traj.int_erg_num, traj.int_vel):
        assert np.all(np.diff(series) >= -1e-15)
        assert series[0] == 0.0


def test_energy_descent_and_velocity_bound():
    obj = builtin("paper1d")
    s = power_schedule(1.5)
    cfg = cfg1d(horizon=1000.0)
    traj = integrate(obj, s, cfg)
    W = energy_W_series(obj, traj)
    assert np.all(np.diff(W) <= 1e-8 * (1.0 + abs(W[0])))
    # kinetic term is dominated by the initial energy surplus
    vbound = np.sqrt(2.0 * (W[0] - obj.min_value))
    assert np.max(np.linalg.norm(traj.v, axis=1)) <= vbound + 1e-9


def test_tolerance_convergence():
    obj = builtin("shifted_quadratic", c=np.array([1.0]))
    s = power_schedule(1.5)
    kw = dict(alpha=3.0, beta=1.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=30.0)
    coarse = integrate(obj, s, DynamicsConfig(rel_tol=1e-9, abs_tol=1e-12, **kw))
    fine = integrate(obj, s, DynamicsConfig(rel_tol=5e-10, abs_tol=1e-12, **kw))
    delta = np.linalg.norm(coarse.x[-1] - fine.x[-1])
    assert delta < 10.0 * (1e-9 * (1.0 + np.linalg.norm(fine.x[-1])) + 1e-12)


def test_determinism_bit_identical():
    obj = builtin("paper1d")
    s = power_schedule(1.5)
    cfg = cfg1d(horizon=200.0)
    a = integrate(obj, s, cfg)
    b = integrate(obj, s, cfg)
    for field in ("t", "x", "v", "y", "eps", "gap", "int_eps_over_t", "int_erg_num", "int_vel"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
    assert a.meta["stats"] == b.meta["stats"]


def test_integrator_stats_present():
    obj = builtin("paper1d")
    traj = integrate(obj, power_schedule(1.5), cfg1d())
    stats = traj.meta["stats"]
    assert stats["steps"] > 0
    assert stats["rhs_evals"] >= 6 * stats["steps"]
    assert stats["rejected"] >= 0


def test_config_validation():
    with pytest.raises(ValueError):
        cfg1d(t0=0.0)
    with pytest.raises(ValueError):
        cfg1d(horizon=0.5)
    with pytest.raises(ValueError):
        cfg1d(rel_tol=0.5)
    with pytest.raises(ValueError):
        cfg1d(sample_spacing="cubic")
    with pytest.raises(ValueError):
        DynamicsConfig(alpha=3, beta=1, t0=1, u0=[1.0], v0=[0.0, 0.0], horizon=2.0)


@pytest.mark.parametrize(
    "name, value",
    [("alpha", np.nan), ("beta", np.nan), ("t0", np.nan), ("horizon", np.inf),
     ("u0", [np.nan]), ("v0", [-np.inf])],
)
def test_config_rejects_non_finite_numbers(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        cfg1d(**{name: value})


def test_non_finite_state_is_diagnosed():
    # cosh objective overflows quickly from a huge start; the failure must be
    # diagnosed and carry a partial trajectory
    from tikhoflow.problems import ObjectiveSpec

    obj = ObjectiveSpec(
        dimension=1,
        value=lambda x: float(np.cosh(x[0])),
        gradient=lambda x: np.sinh(x),
        hessian_vec=lambda x, v: np.cosh(x) * v,
        min_value=1.0,
        min_norm_solution=np.array([0.0]),
    )
    cfg = DynamicsConfig(alpha=3.0, beta=0.0, t0=1.0, u0=[800.0], v0=[0.0], horizon=10.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError) as err:
            integrate(obj, zero_schedule(), cfg)
    assert err.value.partial is not None
    assert err.value.partial.n_samples >= 1


def test_step_underflow_is_diagnosed():
    # a pole inside the span forces the step size below the floor
    def rhs(t, z):
        return np.array([1.0 / (1.5 - t)])

    with pytest.raises(IntegrationError, match="underflow|non-finite"):
        solve(rhs, np.array([0.0]), np.array([1.0, 2.0]), 1e-9, 1e-12)


@pytest.mark.parametrize("run", [integrate, integrate_direct])
@pytest.mark.parametrize(
    "schedule, domain",
    [
        (tabulated_schedule([1.0, 10.0, 50.0], [1.0, 0.5, 0.25]), r"\[1, 50\]"),  # ends early
        (power_schedule(1.5, t0=2.0), r"\[2, inf\]"),  # starts late
    ],
)
def test_schedule_not_covering_run_fails_before_stepping(run, schedule, domain, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("stepping started")

    monkeypatch.setattr("tikhoflow.dynamics.solve", no_solve)
    with pytest.raises(ValueError, match=domain + r".*\[t0, horizon\] = \[1, 100\]"):
        run(builtin("paper1d"), schedule, cfg1d())


SCHEDULES = {
    "power": power_schedule(1.5),
    "logarithmic": logarithmic_schedule(),
    "zero": zero_schedule(),
    "tabulated": tabulated_schedule([1.0, 10.0, 20.0, 40.0], [1.0, 0.2, 0.05, 0.0]),
}
FIELDS = ("t", "x", "v", "y", "eps", "gap", "grad_norm", "int_eps_over_t", "int_erg_num", "int_vel")


@pytest.mark.parametrize("kind", sorted(SCHEDULES))
def test_trajectory_eps_matches_per_sample_evaluation(kind):
    s = SCHEDULES[kind]
    traj = integrate(builtin("paper1d"), s, cfg1d(horizon=30.0, sample_count=50))
    assert traj.eps.tobytes() == np.array([s.eps(t) for t in traj.t]).tobytes()


@pytest.mark.parametrize("run", [integrate, integrate_direct])
def test_plain_callable_steps_to_the_same_bytes(run, monkeypatch):
    # a plain wrapper hides the field's Split, as a tracing span around rhs
    # does: `solve` must then call it stage by stage and give the same run
    obj, s, cfg = builtin("paper1d"), power_schedule(1.5), cfg1d(horizon=30.0, sample_count=40)
    want = run(obj, s, cfg)
    calls = []

    def plain_solve(rhs, *args):
        return solve(lambda t, z: calls.append(t) or rhs(t, z), *args)

    monkeypatch.setattr("tikhoflow.dynamics.solve", plain_solve)
    got = run(obj, s, cfg)
    for name in FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.meta["stats"] == want.meta["stats"]
    assert len(calls) == got.meta["stats"]["rhs_evals"]


@pytest.mark.parametrize("run", [integrate, integrate_direct])
def test_field_is_the_split_that_solve_steps(run, monkeypatch):
    # the right-hand side is its Split: `solve` steps it as it is
    seen = []

    def spy_solve(rhs, *args):
        seen.append(rhs)
        return solve(rhs, *args)

    monkeypatch.setattr("tikhoflow.dynamics.solve", spy_solve)
    run(builtin("paper1d"), power_schedule(1.5), cfg1d(horizon=3.0, sample_count=5))
    (rhs,) = seen
    assert isinstance(rhs, Split) and _split(rhs) is rhs


def _assert_same_run(got, want):
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.meta["stats"] == want.meta["stats"]


def test_objective_without_float_gradient_steps_through_its_array_gradient():
    # a hand-built d = 1 objective carries no float gradient: each stage of
    # its float attempts reads the one-point gradient on a 1-element buffer
    calls = []

    def gradient(x):
        calls.append(x.ndim)
        return x**3 + x

    obj = ObjectiveSpec(
        dimension=1,
        value=lambda x: 0.25 * x[0] ** 4 + 0.5 * x[0] ** 2,
        gradient=gradient,
        hessian_vec=lambda x, v: (3.0 * x**2 + 1.0) * v,
        min_value=0.0,
        min_norm_solution=np.array([0.0]),
    )
    assert obj.gradient_float is None
    s, cfg = power_schedule(1.5), cfg1d(horizon=40.0, sample_count=60)
    assert vector_field(obj, s, cfg).body is not None
    traj = integrate(obj, s, cfg)
    # one point: the initial lift, every right-hand side evaluation and one
    # call per sample to finish
    assert calls == [1] * (1 + traj.meta["stats"]["rhs_evals"] + traj.n_samples)
    _assert_same_run(traj, reference_integrate(obj, s, cfg))


def _start_failures(obj, u0: float, schedules, monkeypatch) -> list:
    """The failures that runs of obj from u0 under schedules get in
    `compare` or `sweep`: as lanes of `integrate_lanes` when obj has
    dimension 2 or more, each checked against what `integrate` raises for
    that run alone, and otherwise what `integrate` raises, since
    `integrate_lanes` then yields None for each run."""
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_lanes(*args)

    monkeypatch.setattr("tikhoflow.dynamics.solve_lanes", counted)
    d = obj.dimension
    cfg = cfg1d(u0=np.full(d, u0), v0=np.zeros(d))
    runs = [(s, cfg) for s in schedules]
    lanes = list(integrate_lanes(obj, runs))
    assert len(calls) == (1 if d >= 2 else 0)
    failures = []
    for (s, c), lane in zip(runs, lanes):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError) as err:
                integrate(obj, s, c)
        run = err.value
        if d == 1:
            assert lane is None
            failures.append(run)
            continue
        assert isinstance(lane, IntegrationError)
        assert (str(lane), lane.t, lane.stats) == (str(run), run.t, run.stats)
        assert lane.rows.tobytes() == run.rows.tobytes()
        assert lane.state.tobytes() == run.state.tobytes()
        failures.append(lane)
    return failures


NORM_OVERFLOWS = ("initial step size underflow: the scaled norm of the initial derivative "
                  "overflows at t=1")
CHANGE_OVERFLOWS = ("initial step size underflow: the change of the derivative over the first "
                    "trial step overflows at t=1")


@pytest.mark.parametrize("obj", [builtin("paper1d"), builtin("shifted_quadratic", c=np.ones(1)),
                                 builtin("shifted_quadratic", c=np.ones(2))],
                         ids=["paper1d", "shifted", "shifted_2d"])
def test_initial_derivative_whose_norm_overflows_fails_alike_in_runs_and_lanes(obj, monkeypatch):
    # from u0 = 1e100 the initial derivative is finite but its scaled norm
    # overflows under the power schedules, so the first step-size guess is
    # 0: a diagnosed failure of its own lane, not a ZeroDivisionError that
    # ends every lane. At d = 2 the runs step as lanes.
    schedules = [zero_schedule(), power_schedule(1.5), power_schedule(2.5)]
    lanes = _start_failures(obj, 1e100, schedules, monkeypatch)
    for lane in lanes[1:]:
        assert str(lane) == NORM_OVERFLOWS
        assert lane.stats == {"steps": 0, "rejected": 0, "rhs_evals": 1}


def test_initial_derivative_whose_change_overflows_fails_alike_in_runs_and_lanes(monkeypatch):
    # from u0 = 1e100 under the zero schedule the initial derivative and its
    # scaled norm are finite, but |x'|^2/t overflows at the trial step, so
    # the second step-size guess is 0: a failure after two evaluations. The
    # d = 2 runs step as lanes.
    for obj in (builtin("paper1d"), builtin("shifted_quadratic", c=np.ones(2))):
        lane, _ = _start_failures(obj, 1e100, [zero_schedule(), power_schedule(1.5)], monkeypatch)
        assert str(lane) == CHANGE_OVERFLOWS
        assert lane.stats == {"steps": 0, "rejected": 0, "rhs_evals": 2}


def test_initial_derivative_that_is_not_finite_fails_alike_in_runs_and_lanes(monkeypatch):
    # from u0 = 1e200 the integrand (eps/t)|x - x*|^2 overflows under a
    # power schedule and is 0 * inf under the zero schedule: the first
    # derivative itself is not finite, in each lane as in its run
    obj = builtin("shifted_quadratic", c=np.ones(2))
    lanes = _start_failures(obj, 1e200, [zero_schedule(), power_schedule(1.5)], monkeypatch)
    for lane in lanes:
        assert str(lane) == "non-finite derivative at the initial state"
        assert lane.stats == {"steps": 0, "rejected": 0, "rhs_evals": 1}
