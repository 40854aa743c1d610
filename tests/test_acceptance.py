"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Heavy trajectory runs are cached and shared between criteria. Every tolerance
is fixed here, not computed; reference values come from closed forms,
exponent arithmetic, or tightened-tolerance reruns as stated per criterion.
"""
import numpy as np

import tikhoflow as tf
from tikhoflow.cli import main as cli_main
from tikhoflow.dynamics import integrate_lanes
from tikhoflow.schedules import check_limit_condition, check_t2eps_growth

from helpers import POWER_TRUTH, energy_Eb_regrouped

_RUNS: dict = {}


def _problem(name):
    if name == "paper1d":
        return tf.builtin("paper1d"), [2.0], [0.0]
    if name == "shifted_quadratic":
        return tf.builtin("shifted_quadratic", c=np.array([1.0])), [2.0], [0.0]
    if name == "least_squares":
        return (
            tf.builtin("least_squares", A=np.array([[1.0, 1.0]]), b=np.array([2.0])),
            [2.0, 0.0],
            [0.0, 0.0],
        )
    raise KeyError(name)


def _schedule(key, t0=1.0):
    kind = key[0]
    if kind == "zero":
        return tf.zero_schedule(t0)
    if kind == "power":
        return tf.power_schedule(key[1], t0=t0)
    if kind == "log":
        return tf.logarithmic_schedule(t0=t0)
    raise KeyError(key)


def _config(problem, alpha, beta, horizon, rel_tol=1e-9, abs_tol=1e-12):
    _, u0, v0 = _problem(problem)
    return tf.DynamicsConfig(
        alpha=alpha, beta=beta, t0=1.0, u0=u0, v0=v0, horizon=horizon,
        rel_tol=rel_tol, abs_tol=abs_tol,
    )


def run(problem, alpha, beta, sched_key, horizon, rel_tol=1e-9, abs_tol=1e-12):
    key = (problem, alpha, beta, sched_key, horizon, rel_tol)
    if key not in _RUNS:
        obj = _problem(problem)[0]
        s = _schedule(sched_key)
        cfg = _config(problem, alpha, beta, horizon, rel_tol, abs_tol)
        _RUNS[key] = (obj, s, cfg, tf.integrate(obj, s, cfg))
    return _RUNS[key]


def run_lanes(problem, cells, horizon):
    """Cache the `run` of each (alpha, beta, sched_key) cell of one problem at
    the default tolerances, integrated together as lanes of one
    `integrate_lanes` call; each lane is byte for byte what `integrate` gives
    that run alone (tests/test_lanes.py)."""
    cells = [c for c in cells if (problem, *c, horizon, 1e-9) not in _RUNS]
    obj = _problem(problem)[0]
    runs = [(_schedule(sched), _config(problem, a, b, horizon)) for a, b, sched in cells]
    for cell, (s, cfg), traj in zip(cells, runs, integrate_lanes(obj, runs) if runs else ()):
        if isinstance(traj, tf.IntegrationError):
            raise traj
        _RUNS[(problem, *cell, horizon, 1e-9)] = (obj, s, cfg, traj)


def _report(num: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{name}]: {status}" + (f"  ({detail})" if detail else ""))
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_01_energy_dissipation():
    worst = 0.0
    cells = [
        (alpha, beta, sched)
        for alpha in (3.0, 4.0, 10.0)
        for beta in (0.0, 1.0)
        for sched in (("zero",), ("power", 1.5), ("power", 2.5))
    ]
    for problem in ("paper1d", "shifted_quadratic", "least_squares"):
        run_lanes(problem, cells, 300.0)  # 18 lanes per problem
        for alpha, beta, sched in cells:
            obj, s, cfg, traj = run(problem, alpha, beta, sched, 300.0)
            W = tf.energy_W_series(obj, traj)
            allowed = 1e-8 * (1.0 + abs(W[0]))
            excess = float(np.max(np.diff(W))) / allowed
            worst = max(worst, excess)
            assert np.max(np.diff(W)) <= allowed, (problem, alpha, beta, sched)
    _report(1, "energy dissipation", worst <= 1.0, f"54 runs, worst violation {worst:.2e} x tol")


def test_criterion_02_reformulation_equivalence():
    worst = 0.0
    for c, u0 in ((np.array([1.0]), [2.0]), (np.array([1.0, -1.0, 0.5]), [2.0, 0.0, -1.0])):
        obj = tf.builtin("shifted_quadratic", c=c)
        s = tf.power_schedule(1.5)
        cfg = tf.DynamicsConfig(
            alpha=3.0, beta=1.0, t0=1.0, u0=u0, v0=[0.0] * len(u0), horizon=50.0,
            rel_tol=1e-12, abs_tol=1e-14,
        )
        lifted = tf.integrate(obj, s, cfg)
        direct = tf.integrate_direct(obj, s, cfg)
        worst = max(worst, float(np.max(np.abs(lifted.x - direct.x))))
    _report(2, "reformulation equivalence", worst <= 1e-6, f"max |x_lift - x_direct| = {worst:.2e}")


def _running_sup(t, series, lo, hi):
    mask = (t >= lo) & (t <= hi)
    return float(np.max(series[mask]))


def test_criterion_03_big_O_rate_alpha3():
    details = []
    ok = True
    for problem in ("paper1d", "shifted_quadratic"):
        for beta in (0.0, 1.0):
            obj, s, cfg, traj = run(problem, 3.0, beta, ("power", 2.5), 1e4)
            t2g = traj.t**2 * traj.gap
            sup_all = _running_sup(traj.t, t2g, 100.0, 1e4)
            sup_1e3 = _running_sup(traj.t, t2g, 100.0, 1e3)
            ok &= np.isfinite(sup_all) and sup_all <= 2.0 * sup_1e3 + 1e-300
            # plateau confirmed by a tightened-tolerance reference run
            obj2, s2, cfg2, ref = run(problem, 3.0, beta, ("power", 2.5), 1e4, rel_tol=1e-11, abs_tol=1e-14)
            sup_ref = _running_sup(ref.t, ref.t**2 * ref.gap, 100.0, 1e4)
            if max(sup_all, sup_ref) > 1e-12:
                ok &= abs(sup_all - sup_ref) <= 0.01 * max(sup_all, sup_ref)
            details.append(f"{problem}/b={beta:g}: sup={sup_all:.3g}")
    _report(3, "O(1/t^2) rate at alpha=3", ok, "; ".join(details))


def test_criterion_04_small_o_rate_alpha4():
    ok = True
    details = []
    for problem in ("paper1d", "shifted_quadratic"):
        for beta in (0.0, 1.0):
            obj, s, cfg, traj = run(problem, 4.0, beta, ("power", 2.5), 1e4)
            rep = tf.rate_report(traj)
            good = (
                rep.tail_decay_t2_gap.last_decade_max <= 0.5 * rep.tail_decay_t2_gap.prev_decade_max
                and rep.t_momentum.last_decade_max <= 0.5 * rep.t_momentum.prev_decade_max
                and rep.t2_eps_x2.last_decade_max <= 0.5 * rep.t2_eps_x2.prev_decade_max
            )
            ok &= good
            details.append(f"{problem}/b={beta:g}: {'ok' if good else 'FAIL'}")
    _report(4, "o(1/t^2) decade decrease at alpha=4", ok, "; ".join(details))


def test_criterion_05_figure1_reproduction():
    ok = True
    details = []
    for alpha in (3.0, 4.0):
        obj, s, cfg, traj = run("paper1d", alpha, 1.0, ("zero",), 1e4)
        final = float(traj.x[-1, 0])
        in_band = -1.05 <= final <= 1.05
        small_gap = traj.gap[-1] <= 1e-6
        ok &= in_band and small_gap
        details.append(f"zero/a={alpha:g}: x_end={final:.3f}")
        for gamma in (1.1, 1.5, 1.9):
            obj, s, cfg, traj = run("paper1d", alpha, 1.0, ("power", gamma), 1e4)
            min_abs = float(np.min(np.abs(traj.x)))
            ok &= min_abs <= 0.05
            details.append(f"g={gamma:g}/a={alpha:g}: min|x|={min_abs:.3g}")
    _report(5, "Figure-1 reproduction", ok, "; ".join(details))


def test_criterion_06_figure2_crossing_times(tmp_path):
    cfg_file = tmp_path / "fig2.cfg"
    cfg_file.write_text(
        "label = fig2\n"
        "problem.name = paper1d\n"
        "schedule.kind = power\n"
        "schedule.gamma = 1.5\n"
        "dynamics.alpha = 200\n"
        "dynamics.beta = 1\n"
        "dynamics.u0 = 2\n"
        "dynamics.v0 = 0\n"
        "dynamics.horizon = 1e5\n"
        "diagnostics.reports = W,hypotheses\n"
    )
    out = tmp_path / "out"
    code = cli_main(
        ["sweep", str(cfg_file), "--alpha", "200", "--beta", "1",
         "--gamma", "1.1", "1.5", "1.9", "--out", str(out)]
    )
    assert code == 0
    rows = (out / "fig2" / "sweep_summary.csv").read_text().strip().split("\n")
    header = rows[0].split(",")
    t_cross = {}
    for row in rows[1:]:
        vals = dict(zip(header, row.split(",")))
        t_cross[float(vals["gamma"])] = float(vals["t_cross"])
    bound = tf.t2eps_threshold(200.0, 1.0, 1.0)
    ratio = (1e5 / 1.0) ** (1.0 / 399.0)  # sample-grid cell of the 400-point run
    ok = t_cross[1.1] < t_cross[1.5] < t_cross[1.9]
    details = [f"ordering {'ok' if ok else 'violated'}"]
    for gamma in (1.1, 1.5, 1.9):
        exact = bound ** (1.0 / (2.0 - gamma))
        got = t_cross[gamma]
        within = exact / ratio <= got <= exact * ratio * (1.0 + 1e-9)
        ok &= within
        details.append(f"g={gamma:g}: {got:.3e} vs {exact:.3e}")
    _report(6, "Figure-2 crossing times", ok, "; ".join(details))


def test_criterion_07_ergodic_convergence():
    obj, s, cfg, traj = run("paper1d", 3.0, 1.0, ("log",), 1e4)
    times, values = tf.ergodic_deviation(traj)
    t_q = traj.t[cfg.sample_count // 4]
    i_q = int(np.searchsorted(times, t_q))
    ratio_q = float(values[i_q])
    ratio_end = float(values[-1])
    ok = ratio_end <= 0.5 * ratio_q
    _report(7, "ergodic convergence", ok, f"deviation {ratio_q:.4f} @ t={t_q:.3g} -> {ratio_end:.4f} @ 1e4")


def test_criterion_08_tikhonov_curve():
    ok = True
    details = []
    problems = {
        "paper1d": tf.builtin("paper1d"),
        "shifted_quadratic": tf.builtin("shifted_quadratic", c=np.array([1.0, 2.0])),
        "psd_quadratic": tf.builtin(
            "psd_quadratic", A=np.array([[2.0, 0.0], [0.0, 1.0]]), b=np.array([2.0, 1.0])
        ),
        "least_squares": tf.builtin("least_squares", A=np.array([[1.0, 1.0]]), b=np.array([2.0])),
    }
    for name, obj in problems.items():
        xstar = obj.min_norm_solution
        prev_dist = np.inf
        for e in (1.0, 0.1, 0.01, 1e-3):
            x = tf.tikhonov_point(obj, e)
            resid = float(np.linalg.norm(np.asarray(obj.gradient(x)) + e * x))
            dist = float(np.linalg.norm(x - xstar))
            ok &= np.linalg.norm(x) <= np.linalg.norm(xstar) + 1e-10
            ok &= resid <= 1e-10
            ok &= dist <= prev_dist + 1e-12
            prev_dist = dist
        details.append(f"{name}: |x_eps - x*| -> {prev_dist:.2e}")
    _report(8, "Tikhonov curve", ok, "; ".join(details))


def test_criterion_09_hypothesis_truth_table():
    ok = True
    bad = []
    for gamma, expected in POWER_TRUTH.items():
        s = tf.power_schedule(gamma)
        ints = tf.classify_integrals(s)
        got = (
            ints.int_eps_over_t,
            ints.int_t_eps,
            ints.int_eps,
            tf.check_condition_a(s, beta=1.0, a=2.0).holds,
            tf.check_condition_b(s, a=1.0).holds,
            check_t2eps_growth(s, alpha=3.0, beta=1.0).holds,
            check_t2eps_growth(s, alpha=6.0, beta=1.0, c=1.0).holds,
            check_limit_condition(s, alpha=3.0, beta=1.0).holds,
            check_limit_condition(s, alpha=6.0, beta=1.0).holds,
        )
        if got != expected:
            ok = False
            bad.append(f"gamma={gamma}: {got} != {expected}")
    _report(9, "hypothesis truth table", ok, "; ".join(bad) if bad else "8 gammas x 9 verdicts")


def test_criterion_10_eb_drift_bound():
    obj, s, cfg, traj = run("paper1d", 4.0, 1.0, ("power", 1.5), 1e4)
    params = tf.EnergyParams(b=2.5, xstar=np.zeros(1))
    res_a = tf.eb_drift_bound_check(traj, s, cfg, params, a=2.0, case="a")
    obj2, s2, cfg2, traj2 = run("shifted_quadratic", 3.0, 0.0, ("power", 2.5), 1e4)
    params2 = tf.EnergyParams(b=2.0, xstar=np.array([1.0]))
    res_b = tf.eb_drift_bound_check(traj2, s2, cfg2, params2, a=1.0, case="b")
    ok = res_a.passed and res_b.passed
    _report(
        10, "E_b drift bound", ok,
        f"case a: t2={res_a.t2:g}, {res_a.samples_checked} samples; "
        f"case b: t2={res_b.t2:g}, {res_b.samples_checked} samples",
    )


def test_criterion_11_algebraic_identities():
    obj, s, cfg, traj = run("shifted_quadratic", 4.0, 1.0, ("power", 2.5), 1e4)
    xstar = np.array([1.0])
    params = tf.EnergyParams(b=2.5, xstar=xstar)
    worst_form = 0.0
    worst_diff = 0.0
    b1, b2 = 2.3, 2.8
    pa, pb = tf.EnergyParams(b=b1, xstar=xstar), tf.EnergyParams(b=b2, xstar=xstar)
    series = tf.energy_Eb_series(cfg, params, traj)
    series_a = tf.energy_Eb_series(cfg, pa, traj)
    series_b = tf.energy_Eb_series(cfg, pb, traj)
    for i in range(traj.n_samples):
        t, x = traj.t[i], traj.x[i]
        e0 = series[i]
        e1 = energy_Eb_regrouped(obj, s, cfg, params, t, x, traj.v[i])
        worst_form = max(worst_form, abs(e0 - e1) / (1.0 + abs(e0)))
        lhs = series_a[i] - series_b[i]
        w = traj.y[i]
        diff = x - xstar
        rhs = (b1 - b2) * (
            -cfg.beta * t * traj.gap[i]
            + t * float(w @ diff)
            + 0.5 * (cfg.alpha - 1.0) * float(diff @ diff)
        )
        worst_diff = max(worst_diff, abs(lhs - rhs) / (1.0 + abs(lhs)))
    ok = worst_form <= 1e-10 and worst_diff <= 1e-10
    _report(11, "algebraic identities", ok, f"regrouping {worst_form:.2e}; difference {worst_diff:.2e}")


def test_criterion_12_vanishing_average():
    s = tf.power_schedule(1.5)
    early = tf.averaged_t_eps(s, 10.0)
    late = tf.averaged_t_eps(s, 1e5)
    ok = late <= 1e-3 * early
    _report(12, "vanishing average of t*eps", ok, f"{early:.3e} @ T=10 -> {late:.3e} @ T=1e5")
