"""The lane-batched stepper against the one-run stepper it must reproduce.

`solve_lanes` steps many runs in one loop; every lane must get exactly the
bits, counters and failures that `solve` gives the same run alone. Only two
or more runs of dimension 2 or more take the lanes: for any other batch, of
dimension 1 or a lone run, `integrate_lanes` yields None for each run and
leaves it to `integrate`, so the lane mechanics are tested on two or more
runs of d = 2 objectives. The helper that compares lanes with `integrate`
also checks that exactly such batches reached `solve_lanes`. The CLI tests
check that `compare` and `sweep` still write what `run` writes for each
cell, integrate each cell that shares no lanes as `run` does, and fail as a
sequential loop of cells does.
"""
import dataclasses
import json

import numpy as np
import pytest

from tikhoflow import (
    DynamicsConfig,
    IntegrationError,
    builtin,
    integrate,
    logarithmic_schedule,
    power_schedule,
    tabulated_schedule,
    zero_schedule,
)
from tikhoflow import integrator
from tikhoflow.cli import main
from tikhoflow.dynamics import integrate_lanes
from tikhoflow.integrator import _MIN_FACTOR, _next_h, solve, solve_lanes
from tikhoflow.problems import ObjectiveSpec

from helpers import lanes_split, reference_solve

FIELDS = ("t", "x", "v", "y", "eps", "gap", "grad_norm", "int_eps_over_t", "int_erg_num", "int_vel")
BASE = dict(alpha=3.0, beta=1.0, t0=1.0, u0=[2.0], v0=[0.0], horizon=30.0, sample_count=40)
BASE2 = {**BASE, "u0": [2.0, 0.5], "v0": [0.0, 0.0]}  # the lanes' d = 2 runs
SHIFTED2 = builtin("shifted_quadratic", c=np.array([1.0, -2.0]))


def _cosh(d):
    # sinh overflows at u0 = 800: the non-finite failure of test_reference
    return ObjectiveSpec(
        dimension=d,
        value=lambda x: float(np.cosh(x).sum()),
        gradient=lambda x: np.sinh(x),
        hessian_vec=lambda x, v: np.cosh(x) * v,
        min_value=float(d),
        min_norm_solution=np.zeros(d),
    )


COSH = _cosh(1)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except IntegrationError as exc:
        return exc


def _assert_same_failure(got, ref):
    assert isinstance(got, IntegrationError) and isinstance(ref, IntegrationError)
    assert str(got) == str(ref)
    assert got.t == ref.t
    assert got.state.tobytes() == ref.state.tobytes()
    assert got.rows.tobytes() == ref.rows.tobytes()
    assert got.stats == ref.stats


def _assert_same_trajectory(got, ref):
    for name in FIELDS:
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.meta == ref.meta


def _assert_lanes_match_integrate(obj, runs):
    # and `solve_lanes` ran exactly for two or more runs of dimension 2 or
    # more; any other batch yields None for each run, left to `integrate`
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_lanes(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("tikhoflow.dynamics.solve_lanes", counted)
        lanes = list(integrate_lanes(obj, runs))
    as_lanes = len(runs) >= 2 and obj.dimension >= 2
    assert len(calls) == as_lanes
    if not as_lanes:
        assert lanes == [None] * len(runs)
        return lanes
    assert len(lanes) == len(runs)
    for (s, cfg), got in zip(runs, lanes):
        ref = _outcome(integrate, obj, s, cfg)
        if isinstance(ref, IntegrationError):
            _assert_same_failure(got, ref)
            _assert_same_trajectory(got.partial, ref.partial)
        else:
            _assert_same_trajectory(got, ref)
    return lanes


def test_float32_gradient_run_matches_its_lanes():
    # a run reads the gradient as a float64, as the lanes' float64
    # coefficient columns promote it; numpy with float coefficients would
    # have rounded beta g and b g in float32
    obj = ObjectiveSpec(
        dimension=2,
        value=lambda x: 0.5 * float(np.dot(x - 1.0, x - 1.0)),
        gradient=lambda x: (x - 1.0).astype(np.float32),
        hessian_vec=lambda x, v: v,
        min_value=0.0,
        min_norm_solution=np.ones(2),
    )
    cfg = DynamicsConfig(**{**BASE, "u0": [2.0, 2.0], "v0": [0.0, 0.0], "horizon": 100.0})
    # two runs: a lone run does not take the lanes
    _assert_lanes_match_integrate(obj, [(power_schedule(1.5), cfg)] * 2)


def test_float32_objective_finishes_in_float64():
    # a finished run reads the gradient and the value as float64, as the
    # motion does, so no column of the run or of its lane is float32
    beta = 0.7
    obj = ObjectiveSpec(
        dimension=2,
        value=lambda x: np.float32(0.5 * np.dot(x - 1.0, x - 1.0)),
        gradient=lambda x: (x - 1.0).astype(np.float32),
        hessian_vec=lambda x, v: v,
        min_value=0.0,
        min_norm_solution=np.ones(2),
    )
    cfg = DynamicsConfig(**{**BASE, "beta": beta, "u0": [2.0, 2.0], "v0": [0.0, 0.0], "horizon": 100.0})
    s = power_schedule(1.5)
    # two runs: a lone run does not take the lanes
    for traj in (integrate(obj, s, cfg), *_assert_lanes_match_integrate(obj, [(s, cfg)] * 2)):
        for name in ("x", "v", "y", "gap", "grad_norm"):
            assert getattr(traj, name).dtype == np.float64, name
        G = obj.gradient_rows(traj.x).astype(np.float64)
        assert traj.grad_norm.tobytes() == np.linalg.norm(G, axis=1).tobytes()
        assert traj.v.tobytes() == (traj.y - beta * G).tobytes()


def test_only_two_or_more_runs_of_dimension_two_or_more_take_the_lanes():
    # a lone run of dimension 2 and runs of dimension 1 are left to
    # `integrate` (None each); two runs of dimension 2 are lanes (the helper
    # checks which of them called `solve_lanes`)
    cfg, cfg2 = DynamicsConfig(**BASE), DynamicsConfig(**BASE2)
    _assert_lanes_match_integrate(SHIFTED2, [(power_schedule(1.5), cfg2)])
    _assert_lanes_match_integrate(builtin("paper1d"), [(power_schedule(1.5), cfg), (zero_schedule(), cfg)])
    _assert_lanes_match_integrate(SHIFTED2, [(power_schedule(1.5), cfg2), (zero_schedule(), cfg2)])


def test_grid_lanes_match_integrate():
    runs = [
        (power_schedule(g), DynamicsConfig(**{**BASE2, "alpha": a, "beta": b}))
        for a in (3.0, 10.0, 200.0)
        for b in (0.0, 0.5, 1.0)
        for g in (1.1, 1.5, 1.9)
    ]
    lanes = _assert_lanes_match_integrate(SHIFTED2, runs)
    # the grid must exercise per-lane step control: lanes finish after
    # different numbers of steps, and some reject steps
    stats = [traj.meta["stats"] for traj in lanes]
    assert len({st["steps"] for st in stats}) > 10
    assert any(st["rejected"] for st in stats)


def test_mixed_schedule_kinds_lanes_match_integrate():
    # one evaluator per lane; the lanes finish after different numbers of
    # attempts, so the evaluators are rebound each time the live set shrinks
    cfg = DynamicsConfig(**BASE2)
    grid = np.geomspace(1.0, 30.0, 12)
    runs = [
        (logarithmic_schedule(), DynamicsConfig(**{**BASE2, "alpha": 200.0})),
        (tabulated_schedule(grid, grid**-1.5), cfg),
        (zero_schedule(), cfg),
        (power_schedule(1.5), cfg),
        (power_schedule(2.5, scale=2.0), cfg),
    ]
    lanes = _assert_lanes_match_integrate(SHIFTED2, runs)
    attempts = [traj.meta["stats"]["steps"] + traj.meta["stats"]["rejected"] for traj in lanes]
    assert len(set(attempts)) == len(runs)


def test_least_squares_d60_lanes_match_integrate():
    # the same draw as the lsq60 case of test_reference: pins the stacked
    # gemv and ddot for d > 1
    rng = np.random.default_rng(7)
    obj = builtin("least_squares", A=rng.standard_normal((20, 60)) / 8.0, b=rng.standard_normal(20))
    base = {**BASE, "horizon": 20.0, "u0": np.full(60, 0.5), "v0": np.zeros(60)}
    runs = [
        (power_schedule(1.5), DynamicsConfig(**base)),
        (power_schedule(2.5), DynamicsConfig(**{**base, "alpha": 5.0, "beta": 0.5})),
    ]
    _assert_lanes_match_integrate(obj, runs)


def test_cosh_non_finite_lanes_match_integrate():
    cfg = DynamicsConfig(alpha=3.0, beta=0.0, t0=1.0, u0=[800.0, 0.0], v0=[0.0, 0.0], horizon=10.0)
    with np.errstate(over="ignore", invalid="ignore"):
        lanes = _assert_lanes_match_integrate(_cosh(2), [(zero_schedule(), cfg), (power_schedule(1.5), cfg)])
    assert all(isinstance(exc, IntegrationError) for exc in lanes)


def test_objective_without_rows_goes_through_lanes_row_by_row():
    # a custom objective without `rows` whose gradient handles one point
    # only (on rows it returns one entry): the lanes and the finishing must
    # call it once per row and still give what `integrate` gives
    obj = ObjectiveSpec(
        dimension=2,
        value=lambda x: float(np.cosh(x[0]) + np.cosh(x[1])),
        gradient=lambda x: np.array([np.sinh(x[0]), np.sinh(x[1])]),
        hessian_vec=lambda x, v: np.cosh(x) * v,
        min_value=2.0,
        min_norm_solution=np.zeros(2),
    )
    runs = [
        (power_schedule(g), DynamicsConfig(**{**BASE2, "alpha": a, "beta": b}))
        for a, b, g in ((3.0, 0.0, 1.5), (5.0, 1.0, 2.5), (10.0, 0.5, 1.1))
    ]
    _assert_lanes_match_integrate(obj, runs + [(zero_schedule(), DynamicsConfig(**BASE2))])


def test_empty_run_list_is_refused():
    with pytest.raises(ValueError, match="run list is empty"):
        integrate_lanes(builtin("paper1d"), [])


def _counting(obj):
    """obj with gradient and value wrapped to count their one-point calls
    (entry 0) and row calls (entry 1)."""
    calls = {"gradient": [0, 0], "value": [0, 0]}

    def counted(name, fn):
        def wrapper(x):
            calls[name][x.ndim - 1] += 1
            return fn(x)

        return wrapper

    counting = dataclasses.replace(obj, gradient=counted("gradient", obj.gradient),
                                   value=counted("value", obj.value))
    return counting, calls


def test_lanes_call_the_gradient_once_per_stage_for_all_lanes():
    runs = [
        (power_schedule(g), DynamicsConfig(**{**BASE2, "alpha": a, "beta": b}))
        for a in (3.0, 10.0, 200.0)
        for b in (0.0, 0.5, 1.0)
        for g in (1.1, 1.5, 1.9)
    ]
    obj, calls = _counting(SHIFTED2)
    lanes = list(integrate_lanes(obj, runs))
    # every lane attempts in each batched attempt until it is done
    attempts = max(traj.meta["stats"]["steps"] + traj.meta["stats"]["rejected"] for traj in lanes)
    # one point: each run's initial lift, and each lane's first derivative
    # and initial-step probe, which its run's own right-hand side evaluates;
    # rows: the six stages of each batched attempt, and one finishing call
    # per run
    assert calls["gradient"] == [27 + 27 + 27, 6 * attempts + 27]
    assert calls["value"] == [0, 27]


def test_integrate_finishes_with_one_gradient_and_one_value_call():
    obj, calls = _counting(builtin("paper1d"))
    traj = integrate(obj, power_schedule(1.5), DynamicsConfig(**BASE))
    # one point: the initial lift and each right-hand side evaluation
    assert calls["gradient"] == [1 + traj.meta["stats"]["rhs_evals"], 1]
    assert calls["value"] == [0, 1]


@pytest.mark.parametrize(
    "name, value",
    [
        ("t0", 0.5),
        ("u0", 3.0),
        ("v0", 1.0),
        ("horizon", 20.0),
        ("rel_tol", 1e-8),
        ("abs_tol", 1e-10),
        ("sample_count", 41),
        ("sample_spacing", "linear"),
    ],
)
def test_lanes_must_share_dynamics(name, value):
    # checked only for runs that step as lanes: two of dimension 2
    cfg = DynamicsConfig(**BASE2)
    other = dataclasses.replace(cfg, **{name: np.full(2, value) if name in ("u0", "v0") else value})
    with pytest.raises(ValueError, match="alpha and beta"):
        integrate_lanes(SHIFTED2, [(zero_schedule(), cfg), (zero_schedule(), other)])


# Hand-written lanes of one 2-component system. Lane 1 turns non-finite at
# t = 1.3 and lane 2 runs into a pole at t = 1.5, so its steps underflow;
# lanes 0 and 3 finish, after different numbers of steps.
def _oscillator(t, z):
    return np.array([z[1], -z[0]])


def _non_finite(t, z):
    return np.full(2, np.nan) if t > 1.3 else _oscillator(t, z)


def _pole(t, z):
    return np.full(2, 1.0 / (1.5 - t))


def _decay(t, z):
    return np.array([-10.0 * z[0], z[0] - z[1]])


LANE_FIELDS = (_oscillator, _non_finite, _pole, _decay)


def test_failing_lanes_match_solve_and_spare_the_others():
    ts = np.array([1.0, 1.2, 1.4, 2.0, 3.0, 4.0])
    z0 = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [2.0, 1.0]])
    with np.errstate(invalid="ignore"):
        lanes = solve_lanes(lanes_split(LANE_FIELDS), LANE_FIELDS, z0, ts, 1e-9, 1e-12)
        refs = [_outcome(solve, field, z0[i], ts, 1e-9, 1e-12) for i, field in enumerate(LANE_FIELDS)]
    assert "non-finite state" in str(refs[1]) and "underflow" in str(refs[2])
    assert refs[1].rows.shape[0] > 1 and refs[2].rows.shape[0] > 1
    _assert_same_failure(lanes[1], refs[1])
    _assert_same_failure(lanes[2], refs[2])
    for i in (0, 3):
        (Z, stats), (Z_ref, stats_ref) = lanes[i], refs[i]
        assert Z.tobytes() == Z_ref.tobytes()
        assert stats == stats_ref
    assert lanes[0][1]["steps"] != lanes[3][1]["steps"]


def test_single_sample_grid_returns_initial_states():
    z0 = np.array([[1.0, 0.0], [2.0, 1.0]])
    lanes = solve_lanes(lanes_split(LANE_FIELDS), LANE_FIELDS, z0, np.array([1.0]), 1e-9, 1e-12)
    for i, (Z, stats) in enumerate(lanes):
        assert Z.tobytes() == z0[i : i + 1].tobytes()
        assert stats == {"steps": 0, "rejected": 0, "rhs_evals": 0}



def test_nan_error_norm_takes_the_reject_law():
    # NaN fails the loops' `err <= 1.0`, so the step-size law must reject,
    # also on a step clamped onto a sample time
    for clamped in (False, True):
        assert _next_h(float("nan"), 0.5, 0.25, clamped, 1e-4, False) == 0.25 * _MIN_FACTOR


def test_zero_component_without_abs_tol_matches_reference():
    # with abs_tol = 0 a constant-zero component scales to 0/0; the initial
    # step turns NaN, and every stepper must fail on the first attempt as the
    # reference does
    def rhs(t, z):
        return np.array([-z[0], 0.0])

    z0, ts = np.array([1.0, 0.0]), np.linspace(0.0, 5.0, 6)
    with np.errstate(invalid="ignore"):
        got = _outcome(solve, rhs, z0, ts, 1e-6, 0.0)
        ref = _outcome(reference_solve, rhs, z0, ts, 1e-6, 0.0)
        lane = solve_lanes(lanes_split([rhs]), [rhs], z0[None], ts, 1e-6, 0.0)
    assert "non-finite state" in str(ref)
    _assert_same_failure(got, ref)
    _assert_same_failure(lane[0], ref)

CELL_CONFIG = """
label = demo
problem.name = paper1d
schedule.kind = power
schedule.gamma = 1.5
dynamics.alpha = 3
dynamics.beta = 1
dynamics.t0 = 1
dynamics.u0 = 2
dynamics.v0 = 0
dynamics.horizon = 40
dynamics.sample_count = 50
diagnostics.reports = W,rates,hypotheses
"""


@pytest.fixture()
def cell_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CELL_CONFIG)
    return cfg


def _assert_cells_reproduced_by_run(top, tmp_path, expected):
    cells = sorted(p for p in top.iterdir() if p.is_dir())
    assert len(cells) == expected
    for cell in cells:
        out = tmp_path / "rerun" / cell.name
        assert main(["run", str(cell / "manifest.json"), "--out", str(out)]) == 0
        rerun = out / cell.name
        assert (cell / "trajectory.csv").read_bytes() == (rerun / "trajectory.csv").read_bytes()
        got = json.loads((cell / "report.json").read_text())
        ref = json.loads((rerun / "report.json").read_text())
        assert json.dumps(got["integrator"]) == json.dumps(ref["integrator"])
        for report in (got, ref):
            del report["config"]["output.dir"]
        assert got == ref


def test_sweep_2x2x2_cells_match_run(cell_config, tmp_path):
    out = tmp_path / "s"
    argv = ["sweep", str(cell_config), "--alpha", "3", "10", "--beta", "0", "1",
            "--gamma", "1.5", "2.5", "--out", str(out)]
    assert main(argv) == 0
    _assert_cells_reproduced_by_run(out / "demo", tmp_path, 8)
    assert len((out / "demo" / "sweep_summary.csv").read_text().splitlines()) == 9


def test_compare_cells_match_run(cell_config, tmp_path):
    out = tmp_path / "c"
    assert main(["compare", str(cell_config), "--gammas", "1.5", "2.5", "--out", str(out)]) == 0
    _assert_cells_reproduced_by_run(out / "demo", tmp_path, 3)
    rows = (out / "demo" / "comparison.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows] == ["run", "zero", "gamma_1.5", "gamma_2.5"]


def test_sweep_middle_cell_failure_stops_like_sequential_cells(cell_config, tmp_path, monkeypatch):
    import tikhoflow.cli as cli_mod

    real, calls = cli_mod.integrate, []

    def middle_cell_fails(obj, s, cfg):
        # the d = 1 cells share no lanes, so each is integrated as `run`
        # integrates it, in order; the second blows up
        calls.append(cfg)
        if len(calls) == 2:
            obj, cfg = COSH, dataclasses.replace(cfg, u0=np.array([800.0]))
        return real(obj, s, cfg)

    monkeypatch.setattr(cli_mod, "integrate", middle_cell_fails)
    out = tmp_path / "s"
    argv = ["sweep", str(cell_config), "--alpha", "3", "--beta", "0", "0.5", "1",
            "--gamma", "1.5", "--out", str(out)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv) == 3
    top = out / "demo"
    first, failed, later = (top / f"alpha_3__beta_{b}__gamma_1.5" for b in ("0", "0.5", "1"))
    for name in ("trajectory.csv", "report.json", "manifest.json"):
        assert (first / name).exists()
    assert (failed / "manifest.json").exists()
    assert len((failed / "trajectory.csv").read_text().splitlines()) == 2  # header + initial row
    assert not (failed / "report.json").exists()
    assert not later.exists()
    assert not (top / "sweep_summary.csv").exists()
    assert len(calls) == 2


def test_cells_that_share_no_lanes_are_integrated_as_run_integrates_them(cell_config, tmp_path,
                                                                        monkeypatch):
    # d = 1 cells and a lone cell go through `cli.integrate`, one call per
    # cell; two or more cells of d = 2 make one `solve_lanes` call and none
    import tikhoflow.cli as cli_mod
    import tikhoflow.dynamics as dynamics_mod

    counts = {"integrate": 0, "solve_lanes": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(cli_mod, "integrate", counted("integrate", cli_mod.integrate))
    monkeypatch.setattr(dynamics_mod, "solve_lanes", counted("solve_lanes", dynamics_mod.solve_lanes))
    d2_config = tmp_path / "d2.cfg"
    d2_config.write_text(
        CELL_CONFIG.replace("paper1d", "shifted_quadratic\nproblem.c = 1 -2")
        .replace("u0 = 2", "u0 = 2 0.5").replace("v0 = 0", "v0 = 0 0")
    )
    cases = [
        (["sweep", str(cell_config), "--alpha", "3", "10", "--beta", "0", "1"], (4, 0)),
        (["compare", str(cell_config), "--gammas", "1.5", "2.5"], (3, 0)),
        (["sweep", str(d2_config)], (1, 0)),
        (["sweep", str(d2_config), "--beta", "0", "0.5", "1"], (0, 1)),
        (["compare", str(d2_config), "--gammas", "1.5"], (0, 1)),
    ]
    for k, (argv, expected) in enumerate(cases):
        counts.update(integrate=0, solve_lanes=0)
        assert main(argv + ["--out", str(tmp_path / str(k))]) == 0
        assert (counts["integrate"], counts["solve_lanes"]) == expected, argv


def test_sweep_config_error_keeps_earlier_cells(cell_config, tmp_path):
    out = tmp_path / "s"
    argv = ["sweep", str(cell_config), "--alpha", "3", "--beta", "0", "1",
            "--gamma", "1.5", "2.5", "1.9", "-1", "--out", str(out)]
    assert main(argv) == 2
    top = out / "demo"
    for gamma in ("1.5", "2.5", "1.9"):
        assert (top / f"alpha_3__beta_0__gamma_{gamma}" / "report.json").exists()
    assert not (top / "alpha_3__beta_0__gamma_-1").exists()
    assert not (top / "alpha_3__beta_1__gamma_1.5").exists()
    assert not (top / "sweep_summary.csv").exists()


# A quadratic whose gradient turns NaN below x = -1, with row forms: a lane
# that swings past -1 fails mid-run with a non-finite state while damped
# lanes go on, all through the real lane field.
GUARDED = ObjectiveSpec(
    dimension=2,
    value=lambda x: 0.5 * (x * x).sum(axis=-1),
    gradient=lambda x: np.where(x < -1.0, np.nan, x),
    hessian_vec=lambda x, v: v,
    min_value=0.0,
    min_norm_solution=np.zeros(2),
    rows=True,
)


def test_live_set_changes_midway_and_each_lane_matches_integrate():
    # the undamped lane (alpha = beta = 0) reaches x = -1 at t = 1 + 2 pi/3;
    # the others finish after different numbers of attempts, so the live
    # set shrinks by a failure and by finishing lanes, and every lane must
    # still get its own columns of alpha, beta and the schedule
    runs = [
        (power_schedule(1.5), DynamicsConfig(**{**BASE2, "alpha": 3.0, "beta": 1.0})),
        (zero_schedule(), DynamicsConfig(**{**BASE2, "alpha": 0.0, "beta": 0.0})),
        (power_schedule(1.1), DynamicsConfig(**{**BASE2, "alpha": 10.0, "beta": 1.0})),
        (power_schedule(1.9), DynamicsConfig(**{**BASE2, "alpha": 200.0, "beta": 0.5})),
        (power_schedule(2.5, scale=2.0), DynamicsConfig(**{**BASE2, "alpha": 3.0, "beta": 2.0})),
    ]
    with np.errstate(invalid="ignore"):
        lanes = _assert_lanes_match_integrate(GUARDED, runs)
    failed = lanes[1]
    assert isinstance(failed, IntegrationError) and "non-finite state" in str(failed)
    assert 1 < failed.rows.shape[0] < BASE["sample_count"]
    finished = [lane for i, lane in enumerate(lanes) if i != 1]
    steps = [traj.meta["stats"]["steps"] + traj.meta["stats"]["rejected"] for traj in finished]
    assert len(set(steps)) == len(finished) and min(steps) > failed.stats["steps"]


def test_step_budget_fails_the_costly_lanes_only(monkeypatch):
    runs = [
        (power_schedule(g), DynamicsConfig(**{**BASE2, "alpha": a, "beta": b}))
        for a, b, g in ((3.0, 1.0, 1.5), (200.0, 0.0, 1.1), (10.0, 0.5, 1.9), (3.0, 0.0, 1.1))
    ]
    obj = SHIFTED2
    stats = [integrate(obj, *run).meta["stats"] for run in runs]
    costs = [st["steps"] + st["rejected"] for st in stats]
    # a run fails when it would start attempt budget + 2; a lane with this
    # budget therefore finishes if it needs at most budget + 1 attempts
    budget = sorted(costs)[len(costs) // 2] - 2
    monkeypatch.setattr(integrator, "_MAX_STEPS", budget)
    lanes = _assert_lanes_match_integrate(obj, runs)
    for cost, lane in zip(costs, lanes):
        if cost > budget + 1:
            assert isinstance(lane, IntegrationError) and str(lane) == "step budget exhausted"
            assert lane.stats["steps"] + lane.stats["rejected"] == budget + 1
        else:
            assert lane.meta["stats"]["steps"] + lane.meta["stats"]["rejected"] == cost
    assert any(cost > budget + 1 for cost in costs) and any(cost <= budget + 1 for cost in costs)
