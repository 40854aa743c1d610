"""Flat key-value experiment configuration.

A config is a flat document of dotted keys, either `key = value` lines (with
`#` comments) or a JSON object with the same keys, which is exactly the shape
of the manifest each run writes, so a manifest can be re-run as-is.

The schema is `KEYS`: each key with the reader that checks its value and its
default (None: no default). `PROBLEMS` and `SCHEDULES` name the keys that
each `problem.name` and `schedule.kind` reads; `PROBLEMS` is derived from
`problems.BUILTINS`, a ``problem.<parameter>`` key for each parameter of a
builtin. Every other key is read by every run, and the keys of other
problems and schedules are ignored: their values are checked, then dropped.
`resolve` reads exactly those keys, builds the runtime objects from the
values it read, and keeps those values as the manifest.

A key given twice takes its last value, in both formats (a later line, or
a later member of the JSON object), so a setting can be overridden by
appending it. In a `key = value` file, text keys take the rest of the line;
other values are numbers, whitespace- or comma-separated vectors, or
matrices with rows separated by ';'. Scalar initial data (u0, v0) is
broadcast to the problem dimension. A malformed value (a non-finite or
non-numeric number, a JSON object, null, a boolean, a wrongly nested list)
is a ConfigError naming its key.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

from .dynamics import DynamicsConfig
from .problems import BUILTINS, ObjectiveSpec, builtin
from .schedules import TikhonovSchedule

REPORT_NAMES = ("W", "Eb", "Ebp", "rates", "ergodic", "tikhonov_curve", "hypotheses")

_LABEL_RE = re.compile(r"^[A-Za-z0-9._-]+$")
_SPLIT = re.compile(r"[,\s]+")


class ConfigError(ValueError):
    """Invalid or unresolvable configuration; maps to exit status 2."""


def _text(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key}: expected text, got {value!r}")
    return value


def _number(key: str, value) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{key}: expected a finite number, got {value!r}")


def _whole(key: str, value) -> int:
    number = _number(key, value)
    if not number.is_integer():
        raise ConfigError(f"{key}: expected a whole number, got {value!r}")
    return int(number)


def _vector(key: str, value) -> list:
    items = value if isinstance(value, list) else [value]
    if set(map(type, items)) == {float} and all(map(math.isfinite, items)):
        return list(items)  # the common case, checked without a call per entry
    return [_number(key, x) for x in items]


def _matrix(key: str, value) -> list:
    nested = isinstance(value, list) and value and all(isinstance(row, list) for row in value)
    rows = [_vector(key, row) for row in (value if nested else [value])]
    if len({len(row) for row in rows}) != 1:
        raise ConfigError(f"{key}: rows of unequal length, got {value!r}")
    return rows


def _reports(key: str, value) -> list:
    names = [n for n in _SPLIT.split(value) if n] if isinstance(value, str) else value
    if not isinstance(names, list):
        raise ConfigError(f"{key}: expected report names, got {value!r}")
    for name in names:
        if name not in REPORT_NAMES:
            raise ConfigError(f"{key}: unknown report {name!r}; known: {', '.join(REPORT_NAMES)}")
    return list(names)


KEYS = {
    "label": (_text, "run"),  # filesystem-safe
    "output.dir": (_text, "runs"),
    "problem.name": (_text, "paper1d"),
    "problem.c": (_vector, None),  # center
    "problem.A": (_matrix, None),
    "problem.b": (_vector, None),
    "schedule.kind": (_text, "power"),
    "schedule.gamma": (_number, 1.5),  # eps = scale * t^-gamma
    "schedule.scale": (_number, 1.0),
    "schedule.offset": (_number, math.e),  # eps = 1 / log(offset + t)
    "schedule.times": (_vector, None),  # piecewise-linear eps on this grid
    "schedule.values": (_vector, None),
    "dynamics.alpha": (_number, 3.0),
    "dynamics.beta": (_number, 1.0),
    "dynamics.t0": (_number, 1.0),
    "dynamics.u0": (_vector, [2.0]),
    "dynamics.v0": (_vector, [0.0]),
    "dynamics.horizon": (_number, 1e4),
    "dynamics.rel_tol": (_number, 1e-9),
    "dynamics.abs_tol": (_number, 1e-12),
    "dynamics.sample_count": (_whole, 400),
    "dynamics.sample_spacing": (_text, "logarithmic"),  # or linear
    "diagnostics.reports": (_reports, ["W", "rates", "ergodic", "hypotheses"]),
    "diagnostics.b": (_number, None),  # energy index; the report picks one if absent
    "diagnostics.p": (_number, None),  # scaling exponent; likewise
    "diagnostics.a": (_number, 2.0),  # constant of the damped-decay condition
    "diagnostics.c": (_number, 1.0),  # constant of the t^2*eps lower bound
    "diagnostics.eps_grid": (_vector, [1.0, 0.1, 0.01, 0.001]),  # Tikhonov-curve grid
}

PROBLEMS = {name: tuple(f"problem.{key}" for key in keys) for name, (_, keys) in BUILTINS.items()}
SCHEDULES = {
    "power": ("schedule.gamma", "schedule.scale"),
    "logarithmic": ("schedule.offset",),
    "zero": (),
    "tabulated": ("schedule.times", "schedule.values"),
}
_COMMON = [k for k in KEYS if not k.startswith(("problem.", "schedule."))] + [
    "problem.name",
    "schedule.kind",
]
_DYNAMICS = {k: k.split(".")[1] for k in KEYS if k.startswith("dynamics.")}  # key: field
_SCHEDULE_FIELDS = {"schedule.times": "grid_t", "schedule.values": "grid_eps"}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if KEYS.get(key, (None,))[0] in (_text, _reports):
        return raw
    rows = [[_parse_scalar(tok) for tok in _SPLIT.split(row) if tok] for row in raw.split(";")]
    if len(rows) > 1:
        return rows
    toks = rows[0]
    return toks if len(toks) > 1 else (toks[0] if toks else "")


def _parse_scalar(token: str):
    try:
        return float(token)
    except ValueError:
        return token


def load_config(path) -> dict:
    """Read a config file (key = value lines, or a JSON object of the same keys)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    if path.suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: malformed JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("JSON config must be an object of dotted keys")
        return data
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
    """A resolved experiment: the runtime objects and the resolved flat config
    (the manifest) they were built from."""

    objective: ObjectiveSpec
    schedule: TikhonovSchedule
    dynamics: DynamicsConfig
    resolved: dict

    @property
    def label(self) -> str:
        return self.resolved["label"]

    @property
    def out_dir(self) -> Path:
        return Path(self.resolved["output.dir"])


def resolve(data: dict, out_override=None) -> ExperimentConfig:
    """Validate a flat config dict and build all runtime objects.

    Raises ConfigError (naming the offending key) before any artifact is
    written; the returned config carries the fully resolved flat dict that
    becomes the run manifest.
    """
    for key in data:
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    values: dict = {}

    def read(keys, owner=None):
        for key in keys:
            reader, default = KEYS[key]
            if key in data:
                values[key] = reader(key, data[key])
            elif default is not None:
                values[key] = reader(key, default)
            elif owner:
                raise ConfigError(f"{key}: required for {owner} = {values[owner]}")

    read(_COMMON)
    if not _LABEL_RE.match(values["label"]):
        raise ConfigError(f"label: must be nonempty and filesystem-safe, got {values['label']!r}")
    values["output.dir"] = str(Path(out_override or values["output.dir"]))
    if any(e <= 0 for e in values["diagnostics.eps_grid"]):
        raise ConfigError("diagnostics.eps_grid: entries must be positive")
    name, kind = values["problem.name"], values["schedule.kind"]
    if name not in PROBLEMS:
        raise ConfigError(f"problem.name: unknown problem {name!r}")
    if kind not in SCHEDULES:
        raise ConfigError(f"schedule.kind: unknown schedule {kind!r}")
    read(PROBLEMS[name], "problem.name")
    read(SCHEDULES[kind], "schedule.kind")
    for key in [k for k in data if k not in values]:  # keys this run ignores are checked too
        KEYS[key][0](key, data[key])

    try:
        objective = builtin(name, **{k.split(".")[1]: values[k] for k in PROBLEMS[name]})
    except ValueError as exc:
        raise ConfigError(f"problem.name={name!r}: {exc}") from exc
    d = objective.dimension
    for key in [k for k in _DYNAMICS if isinstance(values[k], list)]:  # u0, v0
        if len(values[key]) == 1:
            values[key] = values[key] * d
        if len(values[key]) != d:
            raise ConfigError(f"{key}: dimension {len(values[key])} does not match problem dimension {d}")
    try:
        dyn = DynamicsConfig(**{field: values[k] for k, field in _DYNAMICS.items()})
    except ValueError as exc:
        raise ConfigError(f"dynamics: {exc}") from exc
    params = {_SCHEDULE_FIELDS.get(k, k.split(".")[1]): values[k] for k in SCHEDULES[kind]}
    try:
        schedule = TikhonovSchedule(kind=kind, t0=dyn.t0, **params)
    except ValueError as exc:
        raise ConfigError(f"schedule.kind={kind!r}: {exc}") from exc
    if kind == "tabulated":  # the one kind whose domain can miss [t0, horizon]
        try:
            schedule._span_eps(dyn.t0, dyn.horizon)
        except ValueError as exc:
            raise ConfigError(f"schedule.times: {exc}") from None
    return ExperimentConfig(objective, schedule, dyn, values)
