"""Config-driven experiment runner.

Verbs: ``run`` (single experiment), ``compare`` (zero schedule against a list
of power-law decays, shared dynamics), ``sweep`` (Cartesian grid over alpha,
beta, gamma), ``check-schedule`` (hypothesis verdicts only, no integration).
``compare`` and ``sweep`` step their runs (cells) as lanes of one integration
loop (`dynamics.integrate_lanes`); each cell's artifacts are byte-identical to
``run`` on its manifest. Memory grows as cells x samples x (2d+3) floats for
the samples of all cells, plus samples x (d+3) floats for each of the at most
two finished cells in hand.

Each run writes three artifacts into <out>/<label>/, in this order and all
through `run_experiment`: ``manifest.json`` holding the fully resolved flat
config (re-running a manifest reproduces the CSV byte for byte),
``trajectory.csv`` with the fixed column schema, and ``report.json`` with
the requested diagnostics, which a failed run does not write. A report
holds the result objects themselves, and one rule, `_json_default`, writes
them: a dataclass as its fields, an array as its list. `_json_chunks`
streams the bytes ``json.dump(indent=2, sort_keys=True)`` would write, with
the numbers of each array and flat list formatted by the C encoder, 1,024
per call. Exit status: 0 on success, 2 for configuration errors, 3 for
integrator failures (partial trajectory flushed).

No randomness is used anywhere; --seedless is accepted as a bare flag for
interface compatibility and rejected if given a value.
"""
from __future__ import annotations

import argparse
import bisect
import dataclasses
import json
import sys
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import diagnostics as diag
from .config import ConfigError, ExperimentConfig, load_config, resolve
from .dynamics import IntegrationError, Trajectory, integrate, integrate_lanes, sample_times
from .schedules import check_strong_convergence_hypotheses, crossing_time_on_grid, t2eps_threshold

_FMT = "%.17g"
# entries of an array or list formatted per call of the C JSON encoder, which
# bounds the text held at once: a whole 8,000-float series per call raised
# the peak RSS of a run by 0.3 MB
_ARRAY_CHUNK = 1024


def _json_default(obj):
    # the encoder calls this as it reaches each value, so a result's lists
    # exist only while they are written
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _is_scalar(obj) -> bool:
    # the values json's C encoder writes as its pure-Python encoder does
    return obj is None or isinstance(obj, (str, int, float))


def _json_chunks(obj, indent: str) -> Iterator[str]:
    """The text ``json.dumps(obj, indent=2, sort_keys=True,
    default=_json_default)`` gives, in chunks, for a value on a line indented
    by ``indent``; dict keys are strings. With ``indent`` set, `json` uses its
    pure-Python encoder, one chunk per number; here each scalar, and each run
    of up to _ARRAY_CHUNK entries of a 1-d float64 array or of a list of
    scalars, is one call of the C encoder, its item separator carrying the
    line break and the indentation."""
    inner = indent + "  "
    if _is_scalar(obj):
        yield json.dumps(obj)
    elif isinstance(obj, dict):
        opening = "{"
        for key, value in sorted(obj.items()):
            yield f"{opening}\n{inner}{json.dumps(key)}: "
            yield from _json_chunks(value, inner)
            opening = ","
        yield f"\n{indent}}}" if obj else "{}"
    elif (isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64) or (
        isinstance(obj, (list, tuple)) and all(map(_is_scalar, obj))
    ):
        opening, separator = "[", ",\n" + inner
        for i in range(0, len(obj), _ARRAY_CHUNK):
            part = obj[i : i + _ARRAY_CHUNK]
            part = part.tolist() if isinstance(part, np.ndarray) else part
            yield f"{opening}\n{inner}" + json.dumps(part, separators=(separator, ": "))[1:-1]
            opening = ","
        yield f"\n{indent}]" if len(obj) else "[]"
    elif isinstance(obj, (list, tuple)):
        opening = "["
        for value in obj:
            yield f"{opening}\n{inner}"
            yield from _json_chunks(value, inner)
            opening = ","
        yield f"\n{indent}]"
    else:
        yield from _json_chunks(_json_default(obj), indent)


def _write_json(path: Path, payload: dict):
    # streamed, not joined: the text of at most _ARRAY_CHUNK numbers is held
    with open(path, "w") as fh:
        fh.writelines(_json_chunks(payload, ""))
        fh.write("\n")


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]):
    """The one CSV rule: the header, then each row through one format made
    from the first row, text as it is and anything else as %.17g (a boolean
    as 1 or 0); '\\n' newlines, no trailing delimiter."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        row_format = None
        for row in rows:
            if row_format is None:
                row_format = ",".join("%s" if isinstance(v, str) else _FMT for v in row) + "\n"
            fh.write(row_format % tuple(row))


def write_trajectory_csv(path: Path, traj: Trajectory, w_series: np.ndarray):
    """Fixed schema, one row per sample."""
    d = traj.dimension
    header = (
        ["t"]
        + [f"x_{i}" for i in range(d)]
        + [f"v_{i}" for i in range(d)]
        + ["eps", "gap", "grad_norm", "W", "int_eps_over_t", "int_erg_num", "int_vel"]
    )
    columns = np.column_stack([
        traj.t, traj.x, traj.v, traj.eps, traj.gap, traj.grad_norm, w_series,
        traj.int_eps_over_t, traj.int_erg_num, traj.int_vel,
    ])
    _write_csv(path, header, map(np.ndarray.tolist, columns))


def _report_entry(name: str, build) -> dict:
    """The one rule for a report block: what ``build`` returns, or the
    ValueError it raises, as a refusal for ``ergodic`` and an error otherwise."""
    try:
        return build()
    except ValueError as exc:
        return {"refused" if name == "ergodic" else "error": str(exc)}


def _hypotheses(exp: ExperimentConfig):
    return check_strong_convergence_hypotheses(
        exp.schedule,
        exp.dynamics.alpha,
        exp.dynamics.beta,
        a=exp.resolved["diagnostics.a"],
        c=exp.resolved["diagnostics.c"],
    )


def _diagnostics_block(exp: ExperimentConfig, traj: Trajectory, w_series: np.ndarray) -> dict:
    obj, dyn, cfg = exp.objective, exp.dynamics, exp.resolved
    xstar = obj.min_norm_solution

    def w_block():
        mono = diag.monotonicity_check(np.column_stack([traj.t, w_series]), tol=1e-8)
        return {"initial": float(w_series[0]), "final": float(w_series[-1]), "monotonicity": mono}

    def ergodic_block():
        times, values = diag.ergodic_deviation(traj)
        return {"times": times, "values": values}

    def eb_block():
        b = cfg["diagnostics.b"] if "diagnostics.b" in cfg else diag.default_energy_index(dyn.alpha)
        values = diag.energy_Eb_series(dyn, diag.EnergyParams(b=b, xstar=xstar), traj)
        return {"b": b, "times": traj.t, "values": values}

    def ebp_block():
        params = diag.strong_convergence_energy_params(dyn.alpha, xstar)
        if "diagnostics.p" in cfg:
            params = diag.EnergyParams(b=params.b, p=cfg["diagnostics.p"], xstar=xstar)
        values = diag.energy_Ebp(dyn, params, traj)
        return {"b": params.b, "p": params.p, "times": traj.t, "values": values}

    def tikhonov_entry(e: float) -> dict:
        try:
            x_eps = diag.tikhonov_point(obj, e)
        except diag.SolverError as exc:
            return {"eps": e, "error": str(exc), "residual": exc.residual}
        residual = float(np.linalg.norm(np.asarray(obj.gradient(x_eps)) + e * x_eps))
        return {"eps": e, "x": x_eps, "norm": float(np.linalg.norm(x_eps)), "residual": residual}

    def tikhonov_block():
        return {
            "points": [tikhonov_entry(e) for e in cfg["diagnostics.eps_grid"]],
            "xstar_norm": float(np.linalg.norm(xstar)) if xstar is not None else None,
        }

    builders = {
        "W": w_block,
        "hypotheses": lambda: _hypotheses(exp),
        "rates": lambda: diag.rate_report(traj),
        "ergodic": ergodic_block,
        "Eb": eb_block,
        "Ebp": ebp_block,
        "tikhonov_curve": tikhonov_block,
    }
    reports = cfg["diagnostics.reports"]
    return {name: _report_entry(name, build) for name, build in builders.items() if name in reports}


def _summary_block(traj: Trajectory) -> dict:
    x_norms = np.linalg.norm(traj.x, axis=1)
    return {
        "final_t": float(traj.t[-1]),
        "final_x": traj.x[-1],
        "final_gap": float(traj.gap[-1]),
        "final_grad_norm": float(traj.grad_norm[-1]),
        "min_x_norm": float(np.min(x_norms)),
        "samples": traj.n_samples,
    }


def run_experiment(exp: ExperimentConfig, outcome=None) -> tuple[Path, Trajectory]:
    """Write a run's files from its outcome: the Trajectory or the
    IntegrationError it was integrated to as a lane of `integrate_lanes`,
    or, with ``outcome`` None, what `integrate` returns or raises.

    The run directory gets ``manifest.json`` first, then ``trajectory.csv``
    from the trajectory or from the failure's ``partial``; a failed run
    raises its IntegrationError then, a complete one writes ``report.json``.
    """
    obj = exp.objective
    if outcome is None:
        try:
            outcome = integrate(obj, exp.schedule, exp.dynamics)
        except IntegrationError as exc:
            outcome = exc
    run_dir = exp.out_dir / exp.label
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_json(run_dir / "manifest.json", exp.resolved)
    failed = isinstance(outcome, IntegrationError)
    traj = outcome.partial if failed else outcome
    # a failed run's samples may have overflowed, as `_outcome` allows
    with np.errstate(**({"over": "ignore", "invalid": "ignore"} if failed else {})):
        w_series = diag.energy_W_series(obj, traj)
        write_trajectory_csv(run_dir / "trajectory.csv", traj, w_series)
    if failed:
        raise outcome
    report = {
        "label": exp.label,
        "config": exp.resolved,
        "problem": {
            "name": exp.resolved["problem.name"],
            "dimension": obj.dimension,
            "min_value": obj.min_value,
            "min_norm_solution": obj.min_norm_solution,
        },
        "integrator": traj.meta.get("stats", {}),
        "summary": _summary_block(traj),
        "diagnostics": _diagnostics_block(exp, traj, w_series),
    }
    _write_json(run_dir / "report.json", report)
    return run_dir, traj


def _variant(exp: ExperimentConfig, label: str, overrides: dict) -> ExperimentConfig:
    """A cell of ``compare``/``sweep``: exp with its schedule keys replaced by
    the ``schedule.*`` keys in overrides and the other overrides applied,
    written under <out>/<exp label>/<label>."""
    data = {
        k: v
        for k, v in exp.resolved.items()
        if not k.startswith("schedule.") and k not in ("label", "output.dir")
    }
    data.update(overrides)
    data["label"] = label
    data["output.dir"] = str(exp.out_dir / exp.label)
    return resolve(data)


def _write_cells(
    exp: ExperimentConfig, variants: Sequence[tuple[str, dict]], name: str, header: list, row
) -> Path:
    """Resolve the cells of ``compare``/``sweep``, integrate them as lanes of
    one loop and write each in order through `run_experiment`; then write
    the summary file <out>/<exp label>/<name>, with the row
    ``row(cell, _summary_block(trajectory))`` for each cell.
    The artifacts and the order of failure are those of running the cells
    one after another: a config or integration error at a cell leaves every
    earlier cell complete, no later one started and no summary written."""
    cells, error = [], None
    try:
        for label, overrides in variants:
            # labels keep 6 significant digits (%g): two cells under one
            # label would overwrite each other's artifacts
            if any(cell.label == label for cell in cells):
                raise ConfigError(f"two cells share the label {label!r}; give values that differ in %g")
            cells.append(_variant(exp, label, overrides))
    except ConfigError as exc:
        error = exc
    rows = []
    if cells:
        outcomes = integrate_lanes(cells[0].objective, [(c.schedule, c.dynamics) for c in cells])
        for cell, outcome in zip(cells, outcomes):
            rows.append(row(cell, _summary_block(run_experiment(cell, outcome)[1])))
    if error is not None:
        raise error
    top = exp.out_dir / exp.label
    _write_csv(top / name, header, rows)
    return top


def compare_experiment(exp: ExperimentConfig, gammas: Sequence[float]) -> Path:
    """Run the zero schedule plus power(gamma) for each gamma, shared dynamics."""
    if not gammas:
        raise ConfigError("compare needs a nonempty gamma list")
    base_scale = exp.resolved.get("schedule.scale", 1.0)
    variants = [("zero", {"schedule.kind": "zero"})]
    for g in gammas:
        variants.append(
            (
                "gamma_%g" % g,
                {"schedule.kind": "power", "schedule.gamma": float(g), "schedule.scale": base_scale},
            )
        )

    def row(cell: ExperimentConfig, summary: dict) -> list:
        gamma = cell.resolved.get("schedule.gamma", float("nan"))
        return [cell.label, gamma, summary["final_gap"], summary["min_x_norm"], *summary["final_x"].tolist()]

    d = exp.objective.dimension
    header = ["run", "gamma", "final_gap", "min_x_norm"] + [f"final_x_{i}" for i in range(d)]
    return _write_cells(exp, variants, "comparison.csv", header, row)


def _crossing_time(exp: ExperimentConfig, bound: float) -> Optional[float]:
    """First time on the sample grid, extended past the horizon with the same
    spacing (geometrically up to 1e45), at which t^2*eps(t) >= bound, or None,
    for a power-law cell. For gamma >= 2, t^2*eps = scale*t^(2-gamma) does not
    increase, so only the sample grid is searched. Below 2 it increases along
    the extension, so the extension is bisected, each point formed as the
    one-point array of the whole extension would hold it."""
    dyn, s = exp.dynamics, exp.schedule
    ts = sample_times(dyn)
    t_cross = crossing_time_on_grid(s, bound, ts)
    if t_cross is not None or ts.shape[0] < 2 or s.gamma >= 2.0:
        return t_cross
    if dyn.sample_spacing == "logarithmic":
        ratio = (dyn.horizon / dyn.t0) ** (1.0 / (dyn.sample_count - 1))
        ratio = max(ratio, 1.0 + 1e-6)
        n_ext = int(np.log(1e45 / dyn.horizon) / np.log(ratio)) + 1
        point = lambda k: dyn.horizon * ratio ** np.array([k])
    else:
        step = ts[-1] - ts[-2]
        n_ext = 200_000
        point = lambda k: dyn.horizon + step * np.array([k])
    i = bisect.bisect_left(range(1, n_ext + 1), True,
                           key=lambda k: crossing_time_on_grid(s, bound, point(k)) is not None)
    return float(point(i + 1)[0]) if i < n_ext else None


def sweep_experiment(
    exp: ExperimentConfig,
    alphas: Sequence[float],
    betas: Sequence[float],
    gammas: Sequence[float],
) -> Path:
    """Cartesian-product runs over (alpha, beta, gamma) with a crossing-time summary."""
    if not alphas or not betas or not gammas:
        raise ConfigError("sweep needs nonempty alpha, beta and gamma grids")
    variants = [
        (
            "alpha_%g__beta_%g__gamma_%g" % (alpha, beta, gamma),
            {
                "schedule.kind": "power",
                "schedule.gamma": float(gamma),
                "schedule.scale": exp.resolved.get("schedule.scale", 1.0),
                "dynamics.alpha": float(alpha),
                "dynamics.beta": float(beta),
            },
        )
        for alpha in alphas
        for beta in betas
        for gamma in gammas
    ]

    def row(cell: ExperimentConfig, summary: dict) -> list:
        alpha, beta = cell.dynamics.alpha, cell.dynamics.beta
        bound = t2eps_threshold(alpha, beta, exp.resolved["diagnostics.c"])
        t_cross = _crossing_time(cell, bound)
        return [
            alpha,
            beta,
            cell.schedule.gamma,
            bound,
            float("nan") if t_cross is None else t_cross,
            bool(t_cross is not None and t_cross <= cell.dynamics.horizon),
            summary["final_gap"],
            summary["min_x_norm"],
        ]

    header = ["alpha", "beta", "gamma", "threshold", "t_cross", "within_horizon", "final_gap", "min_x_norm"]
    return _write_cells(exp, variants, "sweep_summary.csv", header, row)


def check_schedule_experiment(exp: ExperimentConfig) -> Path:
    """Hypothesis verdicts only; no integration."""
    run_dir = exp.out_dir / exp.label
    run_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "label": exp.label,
        "config": exp.resolved,
        "hypotheses": _report_entry("hypotheses", lambda: _hypotheses(exp)),
    }
    _write_json(run_dir / "report.json", payload)
    return run_dir


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tikhoflow",
        description="Inertial gradient flow with Hessian damping and vanishing Tikhonov regularization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="config file (key = value lines, or a manifest .json)")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument(
            "--seedless",
            action="store_true",
            help="reserved flag: runs are deterministic and use no randomness",
        )

    common(sub.add_parser("run", help="single experiment"))
    p_cmp = sub.add_parser("compare", help="zero schedule vs power-law decays")
    common(p_cmp)
    p_cmp.add_argument("--gammas", type=float, nargs="+", required=True)
    p_sweep = sub.add_parser("sweep", help="grid over alpha, beta, gamma")
    common(p_sweep)
    p_sweep.add_argument("--alpha", type=float, nargs="+", default=None)
    p_sweep.add_argument("--beta", type=float, nargs="+", default=None)
    p_sweep.add_argument("--gamma", type=float, nargs="+", default=None)
    common(sub.add_parser("check-schedule", help="hypothesis verdicts only"))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        data = load_config(args.config)
        exp = resolve(data, out_override=args.out)
        if args.command == "run":
            run_experiment(exp)
        elif args.command == "compare":
            compare_experiment(exp, args.gammas)
        elif args.command == "sweep":
            alphas = args.alpha if args.alpha else [exp.dynamics.alpha]
            betas = args.beta if args.beta else [exp.dynamics.beta]
            gammas = args.gamma if args.gamma else (
                [exp.schedule.gamma] if exp.schedule.kind == "power" else []
            )
            sweep_experiment(exp, alphas, betas, gammas)
        elif args.command == "check-schedule":
            check_schedule_experiment(exp)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
