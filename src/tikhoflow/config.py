"""Flat key-value experiment configuration.

A config is a flat document of dotted keys, either `key = value` lines (with
`#` comments) or a JSON object with the same keys, which is exactly the shape
of the manifest each run writes, so a manifest can be re-run as-is.

Sections and keys:

    label                      run label, filesystem-safe
    output.dir                 artifact root directory
    problem.name               paper1d | shifted_quadratic | psd_quadratic | least_squares
    problem.c                  center vector (shifted_quadratic)
    problem.A / problem.b      matrix rows ';'-separated / vector (psd_quadratic, least_squares)
    schedule.kind              power | logarithmic | zero | tabulated
    schedule.gamma/scale       power parameters
    schedule.offset            logarithmic parameter
    schedule.times/values      tabulated grids
    dynamics.alpha/beta/t0/u0/v0/horizon/rel_tol/abs_tol/sample_count/sample_spacing
    diagnostics.reports        subset of: W Eb Ebp rates ergodic tikhonov_curve hypotheses
    diagnostics.b/p/a/c        energy index, scaling exponent, condition constants
    diagnostics.eps_grid       Tikhonov-curve grid

Scalar initial data (u0, v0) is broadcast to the problem dimension. Every
numeric value must be a finite number; anything else is a ConfigError.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .dynamics import DynamicsConfig
from .problems import ObjectiveSpec, builtin
from .schedules import TikhonovSchedule

REPORT_NAMES = ("W", "Eb", "Ebp", "rates", "ergodic", "tikhonov_curve", "hypotheses")

_LABEL_RE = re.compile(r"^[A-Za-z0-9._-]+$")


class ConfigError(ValueError):
    """Invalid or unresolvable configuration; maps to exit status 2."""


DEFAULTS = {
    "label": "run",
    "output.dir": "runs",
    "problem.name": "paper1d",
    "schedule.kind": "power",
    "schedule.gamma": 1.5,
    "schedule.scale": 1.0,
    "schedule.offset": math.e,
    "dynamics.alpha": 3.0,
    "dynamics.beta": 1.0,
    "dynamics.t0": 1.0,
    "dynamics.u0": [2.0],
    "dynamics.v0": [0.0],
    "dynamics.horizon": 1e4,
    "dynamics.rel_tol": 1e-9,
    "dynamics.abs_tol": 1e-12,
    "dynamics.sample_count": 400,
    "dynamics.sample_spacing": "logarithmic",
    "diagnostics.reports": ["W", "rates", "ergodic", "hypotheses"],
    "diagnostics.a": 2.0,
    "diagnostics.c": 1.0,
    "diagnostics.eps_grid": [1.0, 0.1, 0.01, 0.001],
}

_STRING_KEYS = {
    "label",
    "output.dir",
    "problem.name",
    "schedule.kind",
    "dynamics.sample_spacing",
}
_LIST_KEYS = {"diagnostics.reports"}

_KNOWN_KEYS = set(DEFAULTS) | {
    "problem.c",
    "problem.A",
    "problem.b",
    "schedule.times",
    "schedule.values",
    "diagnostics.b",
    "diagnostics.p",
}


def _parse_scalar(token: str):
    try:
        return float(token)
    except ValueError:
        return token


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in _STRING_KEYS:
        return raw
    if key in _LIST_KEYS:
        return [tok for tok in re.split(r"[,\s]+", raw) if tok]
    if ";" in raw:  # matrix: rows separated by ';'
        return [
            [_parse_scalar(tok) for tok in re.split(r"[,\s]+", row.strip()) if tok]
            for row in raw.split(";")
        ]
    toks = [tok for tok in re.split(r"[,\s]+", raw) if tok]
    if len(toks) > 1:
        return [_parse_scalar(tok) for tok in toks]
    return _parse_scalar(toks[0]) if toks else ""


def load_config(path) -> dict:
    """Read a config file (key = value lines, or a JSON object of the same keys)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    if path.suffix == ".json":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigError("JSON config must be an object of dotted keys")
        return dict(data)
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        out[key] = _parse_value(key, raw)
    return out


@dataclass(eq=False)
class ExperimentConfig:
    """Fully resolved experiment: problem, schedule, dynamics, requested reports."""

    label: str
    out_dir: Path
    problem_name: str
    problem_params: dict
    objective: ObjectiveSpec
    schedule: TikhonovSchedule
    dynamics: DynamicsConfig
    reports: tuple
    energy_b: Optional[float]
    energy_p: Optional[float]
    cond_a_constant: float
    growth_constant: float
    eps_grid: tuple
    resolved: dict = field(default_factory=dict)


def _get_vector(data: dict, key: str) -> np.ndarray:
    val = data[key]
    try:
        arr = np.asarray(val, dtype=float).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: expected a numeric vector, got {val!r}") from exc
    if not np.isfinite(arr).all():
        raise ConfigError(f"{key}: expected finite numbers, got {val!r}")
    return arr


def _get_matrix(data: dict, key: str) -> np.ndarray:
    val = data[key]
    arr = np.atleast_2d(np.asarray(val, dtype=float))
    if arr.ndim != 2 or not np.isfinite(arr).all():
        raise ConfigError(f"{key}: expected a matrix of finite numbers")
    return arr


def _get_float(data: dict, key: str) -> float:
    val = data[key]
    if isinstance(val, (str, list, tuple)) or not math.isfinite(val):
        raise ConfigError(f"{key}: expected a finite number, got {val!r}")
    return float(val)


def _get_count(data: dict, key: str) -> int:
    val = _get_float(data, key)
    if not val.is_integer():
        raise ConfigError(f"{key}: expected a whole number, got {data[key]!r}")
    return int(val)


def build_objective(data: dict) -> tuple[ObjectiveSpec, dict]:
    name = data.get("problem.name", DEFAULTS["problem.name"])
    try:
        if name == "paper1d":
            return builtin("paper1d"), {}
        if name == "shifted_quadratic":
            if "problem.c" not in data:
                raise ConfigError("problem.c is required for shifted_quadratic")
            c = _get_vector(data, "problem.c")
            return builtin("shifted_quadratic", c=c), {"problem.c": c.tolist()}
        if name in ("psd_quadratic", "least_squares"):
            for k in ("problem.A", "problem.b"):
                if k not in data:
                    raise ConfigError(f"{k} is required for {name}")
            A = _get_matrix(data, "problem.A")
            b = _get_vector(data, "problem.b")
            return builtin(name, A=A, b=b), {"problem.A": A.tolist(), "problem.b": b.tolist()}
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"problem.name={name!r}: {exc}") from exc
    raise ConfigError(f"problem.name: unknown problem {name!r}")


def build_schedule(data: dict, t0: float) -> tuple[TikhonovSchedule, dict]:
    """The schedule of a config merged over DEFAULTS, with its resolved keys."""
    kind = data["schedule.kind"]
    try:
        if kind == "power":
            gamma = _get_float(data, "schedule.gamma")
            scale = _get_float(data, "schedule.scale")
            sched = TikhonovSchedule(kind="power", t0=t0, gamma=gamma, scale=scale)
            return sched, {"schedule.gamma": gamma, "schedule.scale": scale}
        if kind == "logarithmic":
            offset = _get_float(data, "schedule.offset")
            return TikhonovSchedule(kind="logarithmic", t0=t0, offset=offset), {
                "schedule.offset": offset
            }
        if kind == "zero":
            return TikhonovSchedule(kind="zero", t0=t0), {}
        if kind == "tabulated":
            for k in ("schedule.times", "schedule.values"):
                if k not in data:
                    raise ConfigError(f"{k} is required for tabulated schedules")
            times = _get_vector(data, "schedule.times")
            values = _get_vector(data, "schedule.values")
            sched = TikhonovSchedule(kind="tabulated", grid_t=times, grid_eps=values)
            return sched, {"schedule.times": times.tolist(), "schedule.values": values.tolist()}
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"schedule.kind={kind!r}: {exc}") from exc
    raise ConfigError(f"schedule.kind: unknown schedule {kind!r}")


def resolve(data: dict, out_override=None) -> ExperimentConfig:
    """Validate a flat config dict and build all runtime objects.

    Raises ConfigError (naming the offending key) before any artifact is
    written; the returned config carries the fully resolved flat dict that
    becomes the run manifest.
    """
    for key in data:
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    label = str(data.get("label", DEFAULTS["label"]))
    if not label or not _LABEL_RE.match(label):
        raise ConfigError(f"label: must be nonempty and filesystem-safe, got {label!r}")
    out_dir = Path(out_override) if out_override else Path(str(data.get("output.dir", DEFAULTS["output.dir"])))

    objective, problem_keys = build_objective(data)
    merged = {**DEFAULTS, **data}

    t0 = _get_float(merged, "dynamics.t0")
    schedule, schedule_keys = build_schedule(merged, t0)
    horizon = _get_float(merged, "dynamics.horizon")
    if schedule.kind == "tabulated" and horizon > float(schedule.grid_t[-1]):
        raise ConfigError(
            f"schedule.times: tabulated grid ends at {schedule.grid_t[-1]:g}, "
            f"before dynamics.horizon = {horizon:g}"
        )

    u0 = _get_vector(merged, "dynamics.u0")
    v0 = _get_vector(merged, "dynamics.v0")
    d = objective.dimension
    if u0.shape[0] == 1 and d > 1:
        u0 = np.full(d, u0[0])
    if v0.shape[0] == 1 and d > 1:
        v0 = np.full(d, v0[0])
    if u0.shape[0] != d or v0.shape[0] != d:
        raise ConfigError(
            f"dynamics.u0/v0: dimension {u0.shape[0]}/{v0.shape[0]} does not match problem dimension {d}"
        )
    try:
        dyn = DynamicsConfig(
            alpha=_get_float(merged, "dynamics.alpha"),
            beta=_get_float(merged, "dynamics.beta"),
            t0=t0,
            u0=u0,
            v0=v0,
            horizon=horizon,
            rel_tol=_get_float(merged, "dynamics.rel_tol"),
            abs_tol=_get_float(merged, "dynamics.abs_tol"),
            sample_count=_get_count(merged, "dynamics.sample_count"),
            sample_spacing=str(merged["dynamics.sample_spacing"]),
        )
    except ValueError as exc:
        raise ConfigError(f"dynamics: {exc}") from exc

    reports = merged["diagnostics.reports"]
    if isinstance(reports, str):
        reports = [tok for tok in re.split(r"[,\s]+", reports) if tok]
    for name in reports:
        if name not in REPORT_NAMES:
            raise ConfigError(
                f"diagnostics.reports: unknown report {name!r}; known: {', '.join(REPORT_NAMES)}"
            )

    energy_b = _get_float(merged, "diagnostics.b") if "diagnostics.b" in merged else None
    energy_p = _get_float(merged, "diagnostics.p") if "diagnostics.p" in merged else None
    cond_a = _get_float(merged, "diagnostics.a")
    growth_c = _get_float(merged, "diagnostics.c")
    eps_grid = tuple(_get_vector(merged, "diagnostics.eps_grid").tolist())
    if any(e <= 0 for e in eps_grid):
        raise ConfigError("diagnostics.eps_grid: entries must be positive")

    resolved = {
        "label": label,
        "output.dir": str(out_dir),
        "problem.name": str(merged["problem.name"]),
        **problem_keys,
        "schedule.kind": schedule.kind,
        **schedule_keys,
        "dynamics.alpha": dyn.alpha,
        "dynamics.beta": dyn.beta,
        "dynamics.t0": dyn.t0,
        "dynamics.u0": dyn.u0.tolist(),
        "dynamics.v0": dyn.v0.tolist(),
        "dynamics.horizon": dyn.horizon,
        "dynamics.rel_tol": dyn.rel_tol,
        "dynamics.abs_tol": dyn.abs_tol,
        "dynamics.sample_count": dyn.sample_count,
        "dynamics.sample_spacing": dyn.sample_spacing,
        "diagnostics.reports": list(reports),
        "diagnostics.a": cond_a,
        "diagnostics.c": growth_c,
        "diagnostics.eps_grid": list(eps_grid),
    }
    if energy_b is not None:
        resolved["diagnostics.b"] = energy_b
    if energy_p is not None:
        resolved["diagnostics.p"] = energy_p

    return ExperimentConfig(
        label=label,
        out_dir=out_dir,
        problem_name=str(merged["problem.name"]),
        problem_params=problem_keys,
        objective=objective,
        schedule=schedule,
        dynamics=dyn,
        reports=tuple(reports),
        energy_b=energy_b,
        energy_p=energy_p,
        cond_a_constant=cond_a,
        growth_constant=growth_c,
        eps_grid=eps_grid,
        resolved=resolved,
    )
