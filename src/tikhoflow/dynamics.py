"""Second-order inertial dynamics with Hessian damping and Tikhonov term.

The governed system is

    x'' + (alpha/t) x' + beta * hess g(x) x' + grad g(x) + eps(t) x = 0,
    x(t0) = u0,  x'(t0) = v0,

integrated through its Hessian-free lifted form in (x, y), y = x' + beta*grad g(x):

    x' = y - beta * grad g(x)
    y' = -(alpha/t) y - (1 - alpha*beta/t) grad g(x) - eps(t) x.

The lifted motion (x', y'), its time-only coefficients a = -(alpha/t) and
b = 1 - alpha*beta/t, and the three running integrands are written once, as
Python expressions (`_COEFFICIENTS`, `_MOTION`, `_INTEGRANDS`), and every
form is derived from them. On arrays (`_lifted`, `_quadrature`) they serve
one run or rows of lanes: a run forms a and b as floats at each stage, the
lanes form them for all stage times of an attempt at once, as columns, and
make one gradient call per stage for all live lanes
(`ObjectiveSpec.gradient_rows`). Runs and lanes alike read x and y as views
of their state, with no copy. A run of dimension 1, the paper's worked
example, also gives `solve` the same expressions as Python float statements
(`_float_body`), which `solve` inlines into each stage of its straight-line
float attempt, so that a stage calls nothing but the objective's float
gradient: on 1-element arrays numpy's per-call cost, not the arithmetic,
sets the price. Its weight products are left-to-right float sums, not BLAS
gemv calls, so a run of dimension 1 does not depend on the BLAS kernel.
The lanes serve two or more runs of dimension 2 or more, and only them:
`integrate_lanes` leaves any other run to `integrate`, so a run that
shares no lanes is stepped as `run` steps it. The lanes bind
their columns of alpha and beta and their schedule evaluators once per live
set (`integrator.Split`), not once per attempt. Each lane starts, its
first derivative and initial step, with its run's own `vector_field`, as
`integrate` starts that run; that field's schedule evaluator also serves
the lane's stages.
`vector_field` is the lifted right-hand side and `integrate` steps
exactly it; `integrate_lanes` integrates several runs of it that differ
only in alpha, beta and the schedule, as lanes of one loop, each
byte-identical to `integrate`; `integrate_direct` integrates the original
second-order system in (x, x') via Hessian-vector products and serves as a
cross-validation oracle. Both formulations are stepped by `_drive`, through
`solve`, and every run, alone or as a lane, is finished by `_outcome`,
which reads the gradient and the objective value of all samples as
float64 through `gradient_rows` and `value_rows` (one call each when the
objective maps rows). Running integrals needed by the ergodic diagnostics
are accumulated as extra state components, not by post-hoc quadrature.
Each formulation supplies only its motion, the derivative of (x, y) or
(x, x'); with the schedule and the integrands on arrays (`_quadrature`) it
makes the right-hand side, an `integrator.Split` (`_field`), whose
schedule and integrands `solve` evaluates once per step attempt for all
its stages.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterator, Sequence

import numpy as np

from .integrator import IntegrationError, Split, solve, solve_lanes
from .problems import ObjectiveSpec, _as_vector, min_norm_solution
from .schedules import TikhonovSchedule

__all__ = [
    "DynamicsConfig",
    "Trajectory",
    "IntegrationError",
    "vector_field",
    "integrate",
    "integrate_lanes",
    "integrate_direct",
    "sample_times",
]


@dataclass(frozen=True, eq=False)
class DynamicsConfig:
    """Run parameters: damping coefficients, initial data, horizon, tolerances."""

    alpha: float
    beta: float
    t0: float
    u0: np.ndarray
    v0: np.ndarray
    horizon: float
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    sample_count: int = 400
    sample_spacing: str = "logarithmic"

    def __post_init__(self):
        object.__setattr__(self, "u0", np.atleast_1d(np.asarray(self.u0, dtype=float)))
        object.__setattr__(self, "v0", np.atleast_1d(np.asarray(self.v0, dtype=float)))
        for name in ("alpha", "beta", "t0", "horizon", "u0", "v0"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if self.alpha < 0.0:
            raise ValueError("alpha must be nonnegative")
        if self.beta < 0.0:
            raise ValueError("beta must be nonnegative")
        if self.t0 <= 0.0:
            raise ValueError("t0 must be strictly positive")
        if self.horizon < self.t0:
            raise ValueError("horizon must not precede t0")
        for name in ("rel_tol", "abs_tol"):
            tol = getattr(self, name)
            if not (0.0 < tol <= 1e-2):
                raise ValueError(f"{name} must lie in (0, 1e-2]")
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")
        if self.horizon > self.t0 and self.sample_count < 2:
            raise ValueError("sample_count must be >= 2 for a nonempty time span")
        if self.sample_spacing not in ("linear", "logarithmic"):
            raise ValueError("sample_spacing must be 'linear' or 'logarithmic'")
        if self.u0.shape != self.v0.shape:
            raise ValueError("u0 and v0 must have the same dimension")
        # a grid with a repeated time would step zero-length steps between equal samples
        if not _grid_increases(self):
            raise ValueError(
                f"the {self.sample_count} sample times from t0 = {self.t0!r} to horizon = "
                f"{self.horizon!r} are not strictly increasing; lower dynamics.sample_count "
                "or widen dynamics.horizon"
            )


def sample_times(cfg: DynamicsConfig) -> np.ndarray:
    """The reporting grid: sample_count points from t0 to horizon inclusive."""
    if cfg.horizon == cfg.t0:
        return np.array([cfg.t0])
    if cfg.sample_spacing == "linear":
        ts = np.linspace(cfg.t0, cfg.horizon, cfg.sample_count)
    else:
        ts = np.geomspace(cfg.t0, cfg.horizon, cfg.sample_count)
    ts[0], ts[-1] = cfg.t0, cfg.horizon
    return ts


def _grid_increases(cfg: DynamicsConfig) -> bool:
    """Whether `sample_times` is strictly increasing, without building it
    unless its spacing comes near the rounding of `linspace`/`geomspace`.
    Each linspace point is off by a few ulps of the horizon, each geomspace
    point by a few ulps relative to itself times max(1, |log10 t|) (it
    powers 10 to a linspace of log10 t0 .. log10 horizon). A spacing above
    1e-12 of that scale clears twice those errors by a factor of about 500."""
    if cfg.horizon == cfg.t0:
        return True
    n = cfg.sample_count - 1
    if cfg.sample_spacing == "linear":
        wide = (cfg.horizon - cfg.t0) / n > 1e-12 * cfg.horizon
    else:
        lo, hi = math.log10(cfg.t0), math.log10(cfg.horizon)
        wide = (hi - lo) / n > 1e-12 * max(1.0, abs(lo), abs(hi))
    if wide:
        return True
    ts = sample_times(cfg)
    return bool((ts[1:] > ts[:-1]).all())


@dataclass(eq=False)
class Trajectory:
    """Sampled solution plus running integrals and the integrator's counters.

    Columns per sample i: time t[i], position x[i], velocity v[i], lifted
    auxiliary y[i] = v + beta*grad g(x), schedule value eps[i], objective gap
    g(x)-min g, gradient norm, and the accumulated integrals of eps/s,
    (eps/s)*|x - xstar|^2 and (1/s)*|x'|^2 from t0 to t[i]. ``meta["stats"]``
    holds the step counters (steps, rejected, rhs_evals).
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    y: np.ndarray
    eps: np.ndarray
    gap: np.ndarray
    grad_norm: np.ndarray
    int_eps_over_t: np.ndarray
    int_erg_num: np.ndarray
    int_vel: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return self.t.shape[0]

    @property
    def dimension(self) -> int:
        return self.x.shape[1]


# The lifted motion, its time coefficients a and b and the three running
# integrands, each written once, as Python expressions over t, the schedule
# value e there, the state x and y, g = grad g(x), rr = |x - x*|^2 and
# vv = |x'|^2. Arrays evaluate them as functions of those names; a run of
# dimension 1 inlines them as Python float statements into each stage of
# its generated attempt (`_float_body`). Both give the same bits: a numpy
# ufunc on float64 rounds each multiply, add and divide on its own, as a
# Python float operation does, nothing is fused, the order is the same,
# and a 1-element dot is one product. Float operations raise no numpy
# floating-point warning; a state that overflows or turns NaN is caught by
# `solve`'s finiteness test after the attempt.
_COEFFICIENTS = ("-(alpha / t)", "1.0 - alpha * beta / t")  # a, b
_MOTION = ("y - beta * g", "a * y - b * g - e * x")  # x', y'
_INTEGRANDS = ("(e_t := e / t)", "e_t * rr", "vv / t")  # eps/t, (eps/t)|x - x*|^2, |x'|^2/t
_coefficients = eval(f"lambda alpha, beta, t: ({', '.join(_COEFFICIENTS)})")  # the lanes' columns
_motion = eval(f"lambda a, b, e, beta, x, y, g: ({', '.join(_MOTION)})")
_integrands = eval(f"lambda t, e, rr, vv: ({', '.join(_INTEGRANDS)})")
# one run's motion(t, e, z, out), with a and b formed inline as floats at
# each stage: compiled once, bound to a run's lifted, alpha and beta as the
# globals of `eval` (`vector_field`)
_run_motion = compile(f"lambda t, e, z, out: lifted({', '.join(_COEFFICIENTS)}, e, beta, z, out)",
                      "<run motion>", "eval")


def vector_field(obj: ObjectiveSpec, s: TikhonovSchedule, cfg: DynamicsConfig):
    """The lifted right-hand side rhs(t, z) that `integrate` steps.

    z = (x, y, three running integrals); rhs returns (x', y') and the
    integrands eps/t, (eps/t)|x - x*|^2 and |x'|^2/t. The schedule is checked
    against [t0, horizon] once here; rhs evaluates it unchecked. rhs is an
    `integrator.Split`: `solve` steps its motion stage by stage and evaluates
    the schedule and the integrands once per attempt. For d = 1 its ``body``
    is the same derivative in Python floats (`_float_body`), which `solve`
    inlines into each stage of its straight-line float attempt.
    """
    alpha, beta, lifted = cfg.alpha, cfg.beta, _lifted(obj.dimension, obj.gradient)
    motion = eval(_run_motion, {"lifted": lifted, "alpha": alpha, "beta": beta})
    body = None
    if obj.dimension == 1:
        body = (_float_body, {"grad": obj.gradient_float or _float_gradient(obj.gradient),
                              "alpha": alpha, "beta": beta, "xstar": min_norm_solution(obj).item()})
    return _field(obj, s, cfg, motion)._replace(body=body)


def _float_body(s: list, f: list) -> list:
    """The lifted derivative of a run of dimension 1 as the Python float
    statements that `integrator._float_source` inlines into each stage
    (`integrator.Split.body`): they read the stage time t, the schedule
    value e there and the stage state's x = s[0] and y = s[1], no other
    component, call the float gradient grad once and assign the five
    components of the derivative to the names f. alpha, beta and xstar are
    the run's."""
    return [f"x, y = {s[0]}, {s[1]}",
            "g = grad(x)",
            f"a, b = {', '.join(_COEFFICIENTS)}",
            f"{f[0]}, {f[1]} = {', '.join(_MOTION)}",
            "r = x - xstar",
            f"rr, vv = r * r, {f[0]} * {f[0]}",
            f"{', '.join(f[2:])} = {', '.join(_INTEGRANDS)}"]


def _float_gradient(gradient):
    """The one-point gradient of dimension 1 as a function of a float: it is
    called on a 1-element buffer, and its value read as a float64."""
    x1 = np.empty(1)

    def grad(s: float) -> float:
        x1[0] = s
        return gradient(x1).item()

    return grad


def _lifted(d: int, grad):
    """The lifted motion as motion(a, b, e, beta, z, out), which writes
    x' and y' (`_MOTION`), with g = grad(x), into out[..., :2d]; the
    coefficients a and b (`_COEFFICIENTS`) and the schedule value e are the
    time-only ones. For one run they and beta are floats and z is one
    state; for lanes they are (lanes, 1) columns, z holds the lanes' states
    as rows and grad maps rows of x to rows of gradients.

    Both read x and y as the views z[..., :d] and z[..., d:2d]. The
    gradient is read as float64 on both, as the lanes' float64 columns
    promote a float32 gradient; Python float coefficients would keep it in
    float32.
    """

    xs, ys = np.s_[..., :d], np.s_[..., d : 2 * d]  # built once: cheaper than ... per call

    def motion(a, b, e, beta, z: np.ndarray, out: np.ndarray) -> None:
        x, y = z[xs], z[ys]
        g = grad(x).astype(float, copy=False)
        out[xs], out[ys] = _motion(a, b, e, beta, x, y, g)

    return motion


def _field(obj: ObjectiveSpec, s: TikhonovSchedule, cfg: DynamicsConfig, motion) -> Split:
    """The right-hand side of a formulation: its motion, the derivative of
    (x, x') or (x, y) written into out[:2d], with the schedule checked over
    [t0, horizon] and the shared running integrands."""
    quadrature = _quadrature(obj.dimension, min_norm_solution(obj))
    return Split(s._span_eps(cfg.t0, cfg.horizon), motion, quadrature)


def _quadrature(d: int, xstar: np.ndarray):
    """quadrature(T, E, Z, K): the running integrands eps/t, (eps/t)|x - x*|^2
    and |x'|^2/t (`_INTEGRANDS`) written into K[..., 2d:], for times T, schedule values E,
    states Z and derivatives K, on one row or on rows of any shape; x' is
    K[..., :d] in both formulations."""

    def quadrature(T, E, Z: np.ndarray, K: np.ndarray) -> None:
        rr, vv = _row_dots(Z[..., :d] - xstar), _row_dots(K[..., :d])
        K[..., 2 * d], K[..., 2 * d + 1], K[..., 2 * d + 2] = _integrands(T, E, rr, vv)

    return quadrature


def _finish(
    obj: ObjectiveSpec,
    s: TikhonovSchedule,
    cfg: DynamicsConfig,
    ts: np.ndarray,
    Z: np.ndarray,
    stats: dict,
    formulation: str,
) -> Trajectory:
    d = obj.dimension
    X = Z[:, :d]
    G = np.asarray(obj.gradient_rows(X), dtype=float)
    if formulation == "lifted":
        Y = Z[:, d : 2 * d]
        V = Y - cfg.beta * G
    else:
        V = Z[:, d : 2 * d]
        Y = V + cfg.beta * G
    gaps = np.asarray(obj.value_rows(X), dtype=float) - obj.min_value
    eps_vals = s.eps(ts)
    return Trajectory(
        t=ts,
        x=X,
        v=V,
        y=Y,
        eps=eps_vals,
        gap=gaps,
        grad_norm=np.linalg.norm(G, axis=1),
        int_eps_over_t=Z[:, 2 * d],
        int_erg_num=Z[:, 2 * d + 1],
        int_vel=Z[:, 2 * d + 2],
        meta={"stats": dict(stats)},
    )


def _drive(
    obj: ObjectiveSpec,
    s: TikhonovSchedule,
    cfg: DynamicsConfig,
    rhs,
    z0: np.ndarray,
    formulation: str,
) -> Trajectory:
    """Step rhs from z0 over the sample grid with `solve` and return its
    `_outcome`, raising it if it is an IntegrationError. A state that
    overflows or turns NaN is diagnosed by `solve`, so numpy's overflow and
    invalid warnings are off while it steps."""
    ts = sample_times(cfg)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            result = solve(rhs, z0, ts, cfg.rel_tol, cfg.abs_tol)
    except IntegrationError as exc:
        raise _outcome(obj, s, cfg, ts, exc, formulation)
    return _outcome(obj, s, cfg, ts, result, formulation)


def _outcome(
    obj: ObjectiveSpec,
    s: TikhonovSchedule,
    cfg: DynamicsConfig,
    ts: np.ndarray,
    result,
    formulation: str,
):
    """The finished Trajectory of a `solve` result (samples, stats), or the
    IntegrationError `solve` raised with the run up to its last completed
    sample attached as ``partial``. Samples that overflowed finish as inf
    or NaN without numpy's overflow and invalid warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        if not isinstance(result, IntegrationError):
            return _finish(obj, s, cfg, ts, *result, formulation)
        result.partial = _finish(obj, s, cfg, ts[: result.rows.shape[0]], result.rows,
                                 result.stats, formulation)
    return result


def integrate(obj: ObjectiveSpec, s: TikhonovSchedule, cfg: DynamicsConfig) -> Trajectory:
    """Adaptive integration of the lifted system over [t0, horizon].

    On step underflow or non-finite state an IntegrationError is raised whose
    ``partial`` attribute holds the trajectory up to the last completed sample.
    """
    return _drive(obj, s, cfg, vector_field(obj, s, cfg), _lifted_z0(obj, cfg), "lifted")


def _lifted_z0(obj: ObjectiveSpec, cfg: DynamicsConfig) -> np.ndarray:
    """Initial lifted state: x = u0, y = v0 + beta * grad g(u0), and the
    three running integrals at zero."""
    u0 = _as_vector(cfg.u0, obj.dimension, "u0")
    v0 = _as_vector(cfg.v0, obj.dimension, "v0")
    y0 = v0 + cfg.beta * np.asarray(obj.gradient(u0), dtype=float)
    return np.concatenate([u0, y0, np.zeros(3)])


def _row_dots(D: np.ndarray) -> np.ndarray:
    # one BLAS ddot per row (over the last axis), the call np.dot makes on a
    # single row, so each dot is rounded as np.dot rounds it
    return np.vecdot(D, D)


def integrate_lanes(
    obj: ObjectiveSpec, runs: Sequence[tuple[TikhonovSchedule, DynamicsConfig]]
) -> Iterator:
    """`integrate` for several runs, stepped together as lanes of `solve_lanes`.

    The runs share the objective; each has its own schedule. They step as
    lanes only when there are two or more of dimension 2 or more, and then
    must share every DynamicsConfig field but alpha and beta. Any other
    batch is not stepped here: the result yields None for each of its runs,
    which its caller integrates with `integrate`, as `run` does. A run of
    dimension 1 steps cheaper in its float attempt than as a lane's array
    work, and a lone run shares nothing. Each lane starts with its run's
    `vector_field`, the right-hand side `integrate` steps. All lanes are
    integrated before this returns; the result then yields, for each run in
    order, what `integrate` gives that run alone, byte for byte: its
    Trajectory, or the IntegrationError it raises, with ``partial``
    attached. A failed lane does not stop the others. Memory: the samples
    of all lanes, lanes x samples x (2d+3) floats, are held at once; each
    Trajectory is finished only when it is drawn, so a caller that drops it
    holds no more than that.
    """
    if not runs:
        raise ValueError("integrate_lanes needs at least one run; the run list is empty")
    if obj.dimension == 1 or len(runs) == 1:
        return (None for _ in runs)
    cfg = runs[0][1]
    shared = [f.name for f in fields(DynamicsConfig) if f.name not in ("alpha", "beta")]
    if not all(np.array_equal(getattr(c, k), getattr(cfg, k)) for _, c in runs for k in shared):
        raise ValueError("lanes must share every dynamics setting but alpha and beta")
    d, ts = obj.dimension, sample_times(cfg)
    run_fields = [vector_field(obj, s, c) for s, c in runs]
    # the lanes start each run with its right-hand side, and step its
    # stages with that side's schedule evaluator
    alphas = np.array([c.alpha for _, c in runs])
    betas = np.array([c.beta for _, c in runs])

    def coefficients(lanes: np.ndarray):
        """at(T) for the lanes: the schedule E at their times T (lanes, k)
        and, for each of the k times, the motion's coefficient columns
        (a, b, e, beta)."""
        chosen = [run_fields[i].coefficients for i in lanes.tolist()]
        # alphas[lanes][:, None]: a 1-d take is 2x faster than one on a column
        alpha, beta = alphas[lanes][:, None], betas[lanes][:, None]

        def at(T: np.ndarray):
            E = np.array([ev(row) for ev, row in zip(chosen, T)])
            columns = zip(*_coefficients(alpha, beta, T.T[..., None]), E.T[..., None])
            return E, [(a, b, e, beta) for a, b, e in columns]

        return at

    rhs = Split(coefficients, _lifted(d, obj.gradient_rows), _quadrature(d, min_norm_solution(obj)))
    z0 = np.array([_lifted_z0(obj, c) for _, c in runs])
    with np.errstate(over="ignore", invalid="ignore"):
        results = solve_lanes(rhs, run_fields, z0, ts, cfg.rel_tol, cfg.abs_tol)
    return (_outcome(obj, s, c, ts, res, "lifted") for (s, c), res in zip(runs, results))


def integrate_direct(obj: ObjectiveSpec, s: TikhonovSchedule, cfg: DynamicsConfig) -> Trajectory:
    """Integrate the original second-order system in (x, x') as cross-check.

    The Hessian damping term is evaluated with Hessian-vector products; the
    sampling contract matches ``integrate``.
    """
    d = obj.dimension
    alpha, beta = cfg.alpha, cfg.beta
    grad, hvp = obj.gradient, obj.hessian_vec

    def motion(t: float, e: float, z: np.ndarray, out: np.ndarray) -> None:
        x = z[:d]
        v = z[d : 2 * d]
        g = grad(x)
        out[:d] = v
        out[d : 2 * d] = -(alpha / t) * v - beta * hvp(x, v) - g - e * x

    rhs = _field(obj, s, cfg, motion)
    u0 = _as_vector(cfg.u0, d, "u0")
    v0 = _as_vector(cfg.v0, d, "v0")
    return _drive(obj, s, cfg, rhs, np.concatenate([u0, v0, np.zeros(3)]), "direct")
