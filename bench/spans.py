"""Spans around the public entry points of each tikhoflow module, from outside.

`install` replaces module attributes at the names the CLI and `dynamics`
look them up by, in this process only; no source file changes. The wrappers
return exactly what the wrapped callable returns, so a traced run writes the
same bytes as an untraced one. Each span records its call count, its total
time and the time spent in spans it encloses, so that self time is total
minus enclosed.
"""
from __future__ import annotations

import dataclasses
import time


class Tracer:
    def __init__(self):
        self.spans: dict = {}  # name -> [calls, total_s, enclosed_s]
        self.solver_stats = {"steps": 0, "rejected": 0, "rhs_evals": 0}
        self._stack: list = []

    def wrap(self, name: str, fn):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += stack.pop()
                if stack:
                    stack[-1] += elapsed

        return traced

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        rec = self.spans.get(name, (0, 0.0, 0.0))
        return rec[1] - rec[2]


class _TracedSchedule:
    """Delegates to a TikhonovSchedule; only `eps` is wrapped."""

    def __init__(self, inner, eps):
        self._inner = inner
        self.eps = eps

    def __getattr__(self, name):
        return getattr(self._inner, name)


DIAGNOSTICS = (
    "energy_W_series",
    "energy_Eb_series",
    "energy_Ebp",
    "rate_report",
    "ergodic_deviation",
    "monotonicity_check",
    "tikhonov_point",
)


def install(tracer: Tracer):
    """Wrap the entry points of config, problems, schedules, integrator,
    dynamics, diagnostics and cli in the imported tikhoflow modules."""
    from tikhoflow import cli, diagnostics, dynamics

    resolve = tracer.wrap("config.resolve", cli.resolve)

    def traced_resolve(*args, **kwargs):
        exp = resolve(*args, **kwargs)
        obj = exp.objective
        exp.objective = dataclasses.replace(
            obj,
            gradient=tracer.wrap("problems.gradient", obj.gradient),
            value=tracer.wrap("problems.value", obj.value),
        )
        exp.schedule = _TracedSchedule(exp.schedule, tracer.wrap("schedules.eps", exp.schedule.eps))
        return exp

    solve = tracer.wrap("integrator.solve", dynamics.solve)

    def traced_solve(rhs, *args, **kwargs):
        out, stats = solve(tracer.wrap("dynamics.rhs", rhs), *args, **kwargs)
        for k in tracer.solver_stats:
            tracer.solver_stats[k] += int(stats[k])
        return out, stats

    cli.resolve = traced_resolve
    dynamics.solve = traced_solve
    cli.integrate = tracer.wrap("dynamics.integrate", cli.integrate)
    cli.run_experiment = tracer.wrap("cli.run_experiment", cli.run_experiment)
    cli.write_trajectory_csv = tracer.wrap("cli.write_trajectory_csv", cli.write_trajectory_csv)
    cli.check_strong_convergence_hypotheses = tracer.wrap(
        "schedules.hypotheses", cli.check_strong_convergence_hypotheses
    )
    for fn in DIAGNOSTICS:
        setattr(diagnostics, fn, tracer.wrap(f"diagnostics.{fn}", getattr(diagnostics, fn)))


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer figures of one traced CLI call whose timed region took wall_s."""
    t = tracer
    st = t.solver_stats
    attempts = st["steps"] + st["rejected"]
    rhs_seen = t.calls("dynamics.rhs")
    grad_calls, value_calls = t.calls("problems.gradient"), t.calls("problems.value")
    runs = t.calls("cli.run_experiment")
    integrate_s = t.total("dynamics.integrate")
    out = {
        "config.resolve_s": t.total("config.resolve"),
        "problems.grad_calls": grad_calls,
        "problems.grad_s": t.total("problems.gradient"),
        "problems.grad_us": 1e6 * t.total("problems.gradient") / max(grad_calls, 1),
        "problems.value_calls": value_calls,
        "problems.value_s": t.total("problems.value"),
        "schedules.eps_calls": t.calls("schedules.eps"),
        "schedules.eps_s": t.total("schedules.eps"),
        "schedules.eps_us": 1e6 * t.total("schedules.eps") / max(t.calls("schedules.eps"), 1),
        "schedules.hypotheses_s": t.total("schedules.hypotheses"),
        "integrator.steps": st["steps"],
        "integrator.rejected": st["rejected"],
        "integrator.rhs_evals": st["rhs_evals"],
        "integrator.accept_ratio": st["steps"] / max(attempts, 1),
        "integrator.self_s": t.self_time("integrator.solve"),
        "integrator.us_per_attempt": 1e6 * t.self_time("integrator.solve") / max(attempts, 1),
        "dynamics.rhs_evals_seen": rhs_seen,
        "dynamics.rhs_s": t.total("dynamics.rhs"),
        "dynamics.rhs_us": 1e6 * t.total("dynamics.rhs") / max(rhs_seen, 1),
        "dynamics.rhs_self_s": t.self_time("dynamics.rhs"),
        "dynamics.finish_s": integrate_s - t.total("integrator.solve"),
    }
    for fn in DIAGNOSTICS:
        out[f"diagnostics.{fn}_s"] = t.total(f"diagnostics.{fn}")
        out[f"diagnostics.{fn}_calls"] = t.calls(f"diagnostics.{fn}")
    out.update({
        "cli.csv_s": t.total("cli.write_trajectory_csv"),
        "cli.self_s": t.self_time("cli.run_experiment"),
        "cli.runs": runs,
        "cli.cell_overhead_s": (wall_s - integrate_s) / max(runs, 1),
    })
    return out
