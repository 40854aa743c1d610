"""Shared test oracles: finite differences, synthetic trajectories, the
exponent-arithmetic truth table for power-law schedules, per-sample forms of
the energies, and a frozen copy of the stepping core.

The finite-difference routines depend only on the objective's value/gradient
callables, so they stay independent of the analytic derivatives they check.
"""
from typing import Callable

import numpy as np

from tikhoflow import Trajectory
from tikhoflow.dynamics import _finish, _lifted_z0, sample_times
from tikhoflow.integrator import IntegrationError, Split
from tikhoflow.problems import _as_vector, min_norm_solution

# Truth table for eps(t) = t^-gamma (scale 1, t0 1), derived by exponent
# arithmetic before the checkers were written. Columns: finiteness of
# int eps/t, int t*eps, int eps; condition (a) at beta=1, a=2; condition (b)
# at a=1; t^2*eps growth for alpha=3 and for alpha=6 (c=1); averaged limit
# for alpha=3 and alpha=6 (beta=1).
POWER_TRUTH = {
    0.5: ("finite", "infinite", "infinite", False, False, True, True, False, False),
    1.0: ("finite", "infinite", "infinite", True, True, True, True, False, False),
    1.1: ("finite", "infinite", "finite", True, True, True, True, True, True),
    1.5: ("finite", "infinite", "finite", True, True, True, True, True, True),
    1.9: ("finite", "infinite", "finite", True, True, True, True, True, True),
    2.0: ("finite", "infinite", "finite", True, True, False, False, False, True),
    2.5: ("finite", "finite", "finite", True, True, False, False, False, True),
    3.0: ("finite", "finite", "finite", True, True, False, False, False, False),
}


def central_gradient(value, x: np.ndarray) -> np.ndarray:
    h = 1e-6 * (1.0 + np.linalg.norm(x))
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (value(x + e) - value(x - e)) / (2.0 * h)
    return out


def central_hvp(gradient, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    h = 1e-6 * (1.0 + np.linalg.norm(x))
    return (np.asarray(gradient(x + h * v)) - np.asarray(gradient(x - h * v))) / (2.0 * h)


def synthetic_trajectory(t, x, eps, xstar, v=None) -> Trajectory:
    """Hand-built trajectory with exact running integrals via trapezoid on a fine grid."""
    t = np.asarray(t, float)
    x = np.atleast_2d(np.asarray(x, float))
    if x.shape[0] != t.shape[0]:
        x = x.T
    n, d = x.shape
    v = np.zeros_like(x) if v is None else np.asarray(v, float)
    eps_vals = np.asarray([eps(tt) for tt in t])
    diff2 = np.sum((x - np.asarray(xstar)) ** 2, axis=1)
    w1 = eps_vals / t
    w2 = w1 * diff2
    w3 = np.sum(v**2, axis=1) / t
    def cum(w):
        out = np.zeros(n)
        out[1:] = np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(t))
        return out
    return Trajectory(
        t=t,
        x=x,
        v=v,
        y=v.copy(),
        eps=eps_vals,
        gap=np.zeros(n),
        grad_norm=np.zeros(n),
        int_eps_over_t=cum(w1),
        int_erg_num=cum(w2),
        int_vel=cum(w3),
        meta={"synthetic": True},
    )


# -- per-sample energies -------------------------------------------------------
# Independent forms of the energies that `diagnostics` evaluates as series.
# Each rebuilds w = x' + beta*grad g and the gap from (x, v) through the
# objective instead of reading the trajectory's y and gap columns.


def energy_W_wellposedness(obj, s, t, x, v) -> float:
    """W grouped as kinetic + potential + regularization."""
    kinetic = 0.5 * float(np.dot(v, v))
    potential = float(obj.value(x))
    regularization = 0.5 * s.eps(float(t)) * float(np.dot(x, x))
    return kinetic + potential + regularization


def energy_Eb_regrouped(obj, s, cfg, params, t, x, v) -> float:
    """E_b with the square |b(x - x*) + t w|^2 expanded."""
    t, b, beta, alpha = float(t), params.b, cfg.beta, cfg.alpha
    diff = x - params.xstar
    w = v + beta * np.asarray(obj.gradient(x), dtype=float)
    gap = float(obj.value(x)) - obj.min_value
    return (
        (t * t - beta * (b + 2.0 - alpha) * t) * gap
        + 0.5 * t * t * s.eps(t) * float(np.dot(x, x))
        + 0.5 * t * t * float(np.dot(w, w))
        + b * t * float(np.dot(w, diff))
        + 0.5 * b * (alpha - 1.0) * float(np.dot(diff, diff))
    )


def energy_Ebp_sample(obj, s, cfg, params, t, x, v) -> float:
    """E_b^p at one sample, in its defining form."""
    t, b, p = float(t), params.b, params.p
    beta, alpha = cfg.beta, cfg.alpha
    diff = x - params.xstar
    w = v + beta * np.asarray(obj.gradient(x), dtype=float)
    gap = float(obj.value(x)) - obj.min_value
    combo = b * diff + t * w
    xstar_sq = float(np.dot(params.xstar, params.xstar))
    return (
        t ** (p + 1.0) * (t + alpha - beta - beta * p - b - 1.0) * gap
        + 0.5 * t ** (p + 2.0) * s.eps(t) * (float(np.dot(x, x)) - xstar_sq)
        + 0.5 * t**p * float(np.dot(combo, combo))
    )


def lanes_split(fields) -> Split:
    """The lanes `Split` of one-run right-hand sides: lane l's rows are
    fields[l](t, z), called row by row, so that `solve_lanes(lanes_split(
    fields), fields, ...)` steps lane l as `solve` steps fields[l] alone."""

    def coefficients(lanes: np.ndarray):
        chosen = [fields[i] for i in lanes.tolist()]
        return lambda T: (T, [(t, chosen) for t in T.T])

    def motion(t, chosen, Z, out):
        for j, field in enumerate(chosen):
            out[j] = field(float(t[j]), Z[j])

    return Split(coefficients, motion, lambda T, E, Z, K: None)


# -- cross-version reference -------------------------------------------------
# The stepping core and the two right-hand sides as they stood before their
# per-call overhead was cut, copied verbatim but for the weight products of
# 5-component states (one-dimensional runs), which are left-to-right sums
# (`_ref_weighted`). The current code must reproduce them bit for bit: same
# arrays, same counters, same failures.

# classic Dormand-Prince coefficients; B is the 5th-order weight row and E the
# difference against the embedded 4th-order row (error estimate)
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_A = (
    np.array([0.0, 0, 0, 0, 0]),
    np.array([1 / 5, 0, 0, 0, 0]),
    np.array([3 / 40, 9 / 40, 0, 0, 0]),
    np.array([44 / 45, -56 / 15, 32 / 9, 0, 0]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
DP5 = (_C, _A, _B, _E, 0.2)  # C, A, B, E and the step laws' exponent 1/(q+1)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_BETA_PI = 0.04
_STEP_FLOOR = 1e-14
_MAX_STEPS = 20_000_000


def _ref_rms(v: np.ndarray) -> float:
    return float(np.sqrt(np.mean(v * v)))


def _ref_weighted(w: np.ndarray, K: np.ndarray) -> np.ndarray:
    """w @ K, or, for states of 5 components, the sum of w[i] * K[i] over
    the nonzero weights from left to right: numpy rounds each elementwise
    multiply and add as one Python float operation."""
    if K.shape[1] != 5:
        return w @ K
    terms = [a * k for a, k in zip(w, K) if a != 0.0]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _ref_initial_step(rhs, t0, z0, f0, rtol, atol, span, err_exp) -> float:
    sc = atol + rtol * np.abs(z0)
    d0, d1 = _ref_rms(z0 / sc), _ref_rms(f0 / sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = rhs(t0 + h0, z0 + h0 * f0)
    d2 = _ref_rms((f1 - f0) / sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** err_exp
    return min(100 * h0, h1, span)


def reference_solve(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    z0: np.ndarray,
    t_samples: np.ndarray,
    rel_tol: float,
    abs_tol: float,
    table: tuple = DP5,
) -> tuple[np.ndarray, dict]:
    """Integrate from t_samples[0] to t_samples[-1], returning states at all samples.

    Raises IntegrationError on step underflow, non-finite state, or step-budget
    exhaustion; the exception carries the rows filled so far. ``table`` is
    (C, A, B, E, err_exp) in the layout of `DP5`, an FSAL pair whose last
    stage evaluates at z_new.
    """
    C, A, B, E, err_exp = table
    stages = B.shape[0]
    t_samples = np.asarray(t_samples, dtype=float)
    n = t_samples.shape[0]
    z = np.array(z0, dtype=float)
    m = z.shape[0]
    out = np.empty((n, m))
    out[0] = z
    stats = {"steps": 0, "rejected": 0, "rhs_evals": 0}
    if n == 1:
        return out, stats

    t = float(t_samples[0])
    f = rhs(t, z)
    stats["rhs_evals"] += 1
    if not np.all(np.isfinite(f)):
        raise IntegrationError("non-finite derivative at the initial state",
                               t=t, state=z, rows=out[:1].copy(), stats=stats)
    h = _ref_initial_step(rhs, t, z, f, rel_tol, abs_tol, float(t_samples[-1]) - t, err_exp)
    stats["rhs_evals"] += 1

    K = np.empty((stages + 1, m))
    err_prev = 1e-4
    just_rejected = False
    next_i = 1
    while next_i < n:
        if stats["steps"] + stats["rejected"] > _MAX_STEPS:
            raise IntegrationError("step budget exhausted", t=t, state=z,
                                   rows=out[:next_i].copy(), stats=stats)
        target = float(t_samples[next_i])
        remaining = target - t
        clamped = h >= remaining
        h_try = remaining if clamped else h
        if h_try < _STEP_FLOOR * max(abs(t), 1.0) and not clamped:
            raise IntegrationError(
                f"step size underflow at t={t:.6g} (h={h_try:.3g})",
                t=t, state=z, rows=out[:next_i].copy(), stats=stats,
            )
        K[0] = f
        for i in range(1, stages):
            K[i] = rhs(t + C[i] * h_try, z + h_try * _ref_weighted(A[i][:i], K[:i]))
        z_new = z + h_try * _ref_weighted(B, K[:stages])
        t_new = target if clamped else t + h_try
        K[stages] = rhs(t_new, z_new)  # FSAL stage
        stats["rhs_evals"] += stages
        if not (np.all(np.isfinite(z_new)) and np.all(np.isfinite(K))):
            raise IntegrationError(
                f"non-finite state encountered near t={t_new:.6g}",
                t=t, state=z, rows=out[:next_i].copy(), stats=stats,
            )
        sc = abs_tol + rel_tol * np.maximum(np.abs(z), np.abs(z_new))
        err = _ref_rms(h_try * _ref_weighted(E, K) / sc)
        if err <= 1.0:
            stats["steps"] += 1
            t, z = t_new, z_new
            f = K[stages].copy()
            if clamped:
                out[next_i] = z
                next_i += 1
            else:
                if err == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = _SAFETY * err ** -(err_exp - 0.75 * _BETA_PI) * err_prev ** _BETA_PI
                    factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
                if just_rejected:
                    factor = min(1.0, factor)
                h *= factor
            err_prev = max(err, 1e-4)
            just_rejected = False
        else:
            stats["rejected"] += 1
            just_rejected = True
            h = h_try * max(_MIN_FACTOR, _SAFETY * err ** -err_exp)
            if h < _STEP_FLOOR * max(abs(t), 1.0):
                raise IntegrationError(
                    f"step size underflow at t={t:.6g} (h={h:.3g})",
                    t=t, state=z, rows=out[:next_i].copy(), stats=stats,
                )
    return out, stats


def reference_integrate(obj, s, cfg, formulation="lifted", table=DP5):
    """The reference counterpart of `integrate` / `integrate_direct`."""
    d = obj.dimension
    xstar = min_norm_solution(obj)
    alpha, beta = cfg.alpha, cfg.beta
    grad, hvp = obj.gradient, obj.hessian_vec
    eps = s.eps
    if formulation == "lifted":
        z0 = _lifted_z0(obj, cfg)

        def rhs(t: float, z: np.ndarray) -> np.ndarray:
            x = z[:d]
            y = z[d : 2 * d]
            g = grad(x)
            dx = y - beta * g
            e = eps(t)
            out = np.empty(2 * d + 3)
            out[:d] = dx
            out[d : 2 * d] = -(alpha / t) * y - (1.0 - alpha * beta / t) * g - e * x
            out[2 * d] = e / t
            diff = x - xstar
            out[2 * d + 1] = (e / t) * np.dot(diff, diff)
            out[2 * d + 2] = np.dot(dx, dx) / t
            return out

    else:
        z0 = np.concatenate([_as_vector(cfg.u0, d, "u0"), _as_vector(cfg.v0, d, "v0"), np.zeros(3)])

        def rhs(t: float, z: np.ndarray) -> np.ndarray:
            x = z[:d]
            v = z[d : 2 * d]
            g = grad(x)
            e = eps(t)
            out = np.empty(2 * d + 3)
            out[:d] = v
            out[d : 2 * d] = -(alpha / t) * v - beta * hvp(x, v) - g - e * x
            out[2 * d] = e / t
            diff = x - xstar
            out[2 * d + 1] = (e / t) * np.dot(diff, diff)
            out[2 * d + 2] = np.dot(v, v) / t
            return out

    ts = sample_times(cfg)
    Z, stats = reference_solve(rhs, z0, ts, cfg.rel_tol, cfg.abs_tol, table)
    return _finish(obj, s, cfg, ts, Z, stats, formulation)
