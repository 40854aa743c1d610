"""Energy functionals, decay-rate estimators and the Tikhonov curve.

Everything here is a pure evaluation over an immutable Trajectory: the
descent energy W, the quadratically weighted energies E_b and E_b^p whose
drift bounds drive the convergence analysis, tail-decay verdicts for the
claimed rates, the ergodic deviation, and a Newton solver for the Tikhonov
curve point grad g(x) + eps*x = 0. Each energy is one function returning its
value at every sample; it reads x' + beta*grad g from the trajectory's y
column and the gap and eps from their columns, so a single state is
evaluated as a 1-sample Trajectory.

Tail verdicts are deliberately conservative: an asymptotic o(.) claim is not
decidable from a finite run, so a series is reported "consistent-with-o" only
when its maximum over the last decade of samples is at most half the maximum
over the preceding decade.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import DynamicsConfig, Trajectory, _row_dots
from .problems import ObjectiveSpec
from .schedules import TikhonovSchedule, _simpson, check_condition_a, check_condition_b

CONSISTENT = "consistent-with-o"
INCONCLUSIVE = "inconclusive"


class SolverError(RuntimeError):
    """Inner solver stagnation; carries the residual reached."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class EnergyParams:
    """Parameters of the weighted energies: index b, scaling exponent p, reference x*."""

    b: float
    xstar: np.ndarray
    p: float = 0.0

    def __post_init__(self):
        if self.p < 0.0:
            raise ValueError("p must be nonnegative")
        object.__setattr__(self, "xstar", np.atleast_1d(np.asarray(self.xstar, dtype=float)))


def default_energy_index(alpha: float) -> float:
    """b = 2 at alpha = 3, else the midpoint of the admissible interval (2, alpha-1)."""
    if alpha < 3.0:
        raise ValueError("energy index is defined for alpha >= 3")
    return 2.0 if alpha == 3.0 else 0.5 * (2.0 + (alpha - 1.0))


def strong_convergence_energy_params(alpha: float, xstar) -> EnergyParams:
    """The (b, p) pair used in the strong-convergence argument."""
    return EnergyParams(b=2.0 * alpha / 3.0, p=(alpha - 3.0) / 3.0, xstar=xstar)


def _validate_b(alpha: float, b: float, strict: bool = False):
    if alpha == 3.0:
        if b != 2.0:
            raise ValueError("alpha = 3 forces b = 2")
        return
    if alpha < 3.0:
        raise ValueError("energy index is defined for alpha >= 3")
    if strict:
        if not (2.0 < b < alpha - 1.0):
            raise ValueError(f"need 2 < b < alpha-1 = {alpha - 1:g}, got b={b:g}")
    elif not (2.0 <= b <= alpha - 1.0):
        raise ValueError(f"need 2 <= b <= alpha-1 = {alpha - 1:g}, got b={b:g}")


# -- energies ----------------------------------------------------------------


def energy_W_series(obj: ObjectiveSpec, traj: Trajectory) -> np.ndarray:
    """Descent energy W = g(x) + |x'|^2 / 2 + eps(t) |x|^2 / 2 at every sample."""
    g_vals = traj.gap + obj.min_value
    return (
        g_vals
        + 0.5 * np.einsum("ij,ij->i", traj.v, traj.v)
        + 0.5 * traj.eps * np.einsum("ij,ij->i", traj.x, traj.x)
    )


def energy_Eb_series(cfg: DynamicsConfig, params: EnergyParams, traj: Trajectory) -> np.ndarray:
    """Weighted energy at every sample, in its defining form.

    E_b = (t^2 - beta(b+2-alpha) t) (g - min g) + (t^2 eps / 2) |x|^2
          + |b(x - x*) + t(x' + beta grad g)|^2 / 2
          + b(alpha-1-b)/2 |x - x*|^2.
    """
    _validate_b(cfg.alpha, params.b)
    t, b, beta, alpha = traj.t, params.b, cfg.beta, cfg.alpha
    diff = traj.x - params.xstar
    combo = b * diff + t[:, None] * traj.y  # y is exactly x' + beta*grad g
    return (
        (t * t - beta * (b + 2.0 - alpha) * t) * traj.gap
        + 0.5 * t * t * traj.eps * np.einsum("ij,ij->i", traj.x, traj.x)
        + 0.5 * np.einsum("ij,ij->i", combo, combo)
        + 0.5 * b * (alpha - 1.0 - b) * np.einsum("ij,ij->i", diff, diff)
    )


def energy_Ebp(cfg: DynamicsConfig, params: EnergyParams, traj: Trajectory) -> np.ndarray:
    """Scaled energy used in the strong-convergence argument, at every sample.

    E_b^p = t^(p+1) (t + alpha - beta - beta p - b - 1)(g - min g)
            + t^(p+2) (eps/2)(|x|^2 - |x*|^2)
            + (t^p / 2) |b(x - x*) + t(x' + beta grad g)|^2.
    """
    t, b, p = traj.t, params.b, params.p
    beta, alpha = cfg.beta, cfg.alpha
    diff = traj.x - params.xstar
    combo = b * diff + t[:, None] * traj.y  # y is exactly x' + beta*grad g
    xstar_sq = float(np.dot(params.xstar, params.xstar))
    # per-row dots rounded as np.dot rounds them: |x|^2 - |x*|^2 cancels, and
    # an einsum's rounding moved E_b^p by 6e-10 relative where it nears zero
    return (
        t ** (p + 1.0) * (t + alpha - beta - beta * p - b - 1.0) * traj.gap
        + 0.5 * t ** (p + 2.0) * traj.eps * (_row_dots(traj.x) - xstar_sq)
        + 0.5 * t**p * _row_dots(combo)
    )


# -- verdicts over series -----------------------------------------------------


@dataclass(frozen=True)
class MonotonicityResult:
    passed: bool
    violation_index: Optional[int] = None
    magnitude: Optional[float] = None


def monotonicity_check(series, tol: float) -> MonotonicityResult:
    """Check a (t, value) series is nonincreasing up to tol*(1+|value|) blips."""
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ValueError("need at least two (t, value) entries")
    t, v = arr[:, 0], arr[:, 1]
    if np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")
    increases = v[1:] - v[:-1]
    allowed = tol * (1.0 + np.abs(v[:-1]))
    bad = np.nonzero(increases > allowed)[0]
    if bad.size == 0:
        return MonotonicityResult(True)
    i = int(bad[0])
    return MonotonicityResult(False, violation_index=i + 1, magnitude=float(increases[i]))


@dataclass(frozen=True)
class TailSeries:
    times: np.ndarray
    values: np.ndarray
    last_decade_max: float
    prev_decade_max: float
    verdict: str


def _tail_series(t: np.ndarray, values: np.ndarray, horizon: float) -> TailSeries:
    last = t >= horizon / 10.0
    prev = (t >= horizon / 100.0) & ~last
    last_max = float(np.max(values[last]))
    prev_max = float(np.max(values[prev]))
    verdict = CONSISTENT if last_max <= 0.5 * prev_max else INCONCLUSIVE
    return TailSeries(t, values, last_max, prev_max, verdict)


@dataclass(frozen=True)
class RateReport:
    sup_t2_gap: float
    tail_decay_t2_gap: TailSeries
    t_momentum: TailSeries
    t2_eps_x2: TailSeries
    ergodic_deviation: Optional[dict]  # {"times", "values"}, or None with the refusal in note
    note: str = ""


def rate_report(traj: Trajectory) -> RateReport:
    """Tail-decay diagnostics for the claimed rates; needs >= 50 samples over >= 2 decades."""
    t = traj.t
    if traj.n_samples < 50 or t[-1] < 100.0 * t[0]:
        raise ValueError("insufficient span: need >= 50 samples covering >= 2 decades")
    horizon = float(t[-1])
    t2_gap = t * t * traj.gap
    momentum = t * np.linalg.norm(traj.y, axis=1)  # y = x' + beta*grad g
    t2_eps_x2 = t * t * traj.eps * np.einsum("ij,ij->i", traj.x, traj.x)
    tail = t >= horizon / 100.0
    note = ""
    try:
        times, values = ergodic_deviation(traj)
        erg = {"times": times, "values": values}
    except ValueError as exc:
        erg = None
        note = str(exc)
    return RateReport(
        sup_t2_gap=float(np.max(t2_gap[tail])),
        tail_decay_t2_gap=_tail_series(t, t2_gap, horizon),
        t_momentum=_tail_series(t, momentum, horizon),
        t2_eps_x2=_tail_series(t, t2_eps_x2, horizon),
        ergodic_deviation=erg,
        note=note,
    )


def ergodic_deviation(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise ratio of the running integrals: weighted mean of |x - x*|^2.

    Refuses schedules with vanishing weight (the denominator integral must be
    positive beyond the first sample; the ergodic statement needs it to diverge).
    """
    denom = traj.int_eps_over_t
    mask = denom > 0.0
    mask[0] = False
    if not np.any(mask):
        raise ValueError(
            "ergodic deviation undefined: the integral of eps/s vanishes "
            "(schedule without regularization)"
        )
    return traj.t[mask], traj.int_erg_num[mask] / denom[mask]


# -- Tikhonov curve -----------------------------------------------------------


def _cg(apply_op, rhs: np.ndarray, rel_residual: float, max_iter: int) -> np.ndarray:
    """Conjugate gradients for an SPD operator, to a relative residual."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rs = float(np.dot(r, r))
    bnorm = math.sqrt(float(np.dot(rhs, rhs)))
    for _ in range(max_iter):
        if math.sqrt(rs) <= rel_residual * bnorm:
            return x
        Ap = apply_op(p)
        denom = float(np.dot(p, Ap))
        if denom <= 0.0:
            raise SolverError("conjugate gradients hit a non-positive curvature direction",
                              residual=math.sqrt(rs))
        alpha = rs / denom
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(np.dot(r, r))
        p = r + (rs_new / rs) * p
        rs = rs_new
    if math.sqrt(rs) <= rel_residual * bnorm * 100.0:
        return x
    raise SolverError("conjugate gradients stagnated", residual=math.sqrt(rs))


def tikhonov_point(obj: ObjectiveSpec, eps_value: float) -> np.ndarray:
    """Solve grad g(x) + eps*x = 0 by damped Newton with CG inner solves.

    The system is the stationarity condition of the strongly convex
    g(x) + eps/2 |x|^2, so Newton from the origin with Armijo backtracking
    converges globally; the returned point satisfies
    |grad g(x) + eps*x| <= 1e-10 * (1 + |x|).
    """
    if eps_value <= 0.0:
        raise ValueError("eps_value must be positive")
    d = obj.dimension
    x = np.zeros(d)

    def merit(z: np.ndarray) -> float:
        return float(obj.value(z)) + 0.5 * eps_value * float(np.dot(z, z))

    def residual(z: np.ndarray) -> np.ndarray:
        return np.asarray(obj.gradient(z), dtype=float) + eps_value * z

    target = 1e-12
    accept = 1e-10
    for _ in range(100):
        r = residual(x)
        rnorm = float(np.linalg.norm(r))
        if rnorm <= target * (1.0 + np.linalg.norm(x)):
            return x
        step = _cg(
            lambda v: np.asarray(obj.hessian_vec(x, v), dtype=float) + eps_value * v,
            -r,
            rel_residual=1e-12,
            max_iter=max(100, 20 * d),
        )
        slope = float(np.dot(r, step))
        f0 = merit(x)
        t_step = 1.0
        for _ in range(60):
            if merit(x + t_step * step) <= f0 + 1e-4 * t_step * slope:
                break
            t_step *= 0.5
        else:
            if rnorm <= accept * (1.0 + np.linalg.norm(x)):
                return x
            raise SolverError("line search stagnated on the Tikhonov system", residual=rnorm)
        x = x + t_step * step
    r = residual(x)
    rnorm = float(np.linalg.norm(r))
    if rnorm <= accept * (1.0 + np.linalg.norm(x)):
        return x
    raise SolverError("Newton iteration did not reach the target residual", residual=rnorm)


# -- drift bound --------------------------------------------------------------


@dataclass(frozen=True)
class DriftCheckResult:
    passed: bool
    case: str
    t2: float
    drift_coefficient: float
    scaled: bool
    samples_checked: int
    violation_index: Optional[int] = None
    magnitude: Optional[float] = None


def _running_drift(integral, t2: float, ts: np.ndarray) -> np.ndarray:
    """integral(t2, ts[i]) at every sample, accumulated piece by piece."""
    drift = np.empty_like(ts)
    acc = integral(t2, float(ts[0]))
    drift[0] = acc
    for i in range(1, ts.shape[0]):
        acc += integral(float(ts[i - 1]), float(ts[i]))
        drift[i] = acc
    return drift


def eb_drift_bound_check(
    traj: Trajectory,
    s: TikhonovSchedule,
    cfg: DynamicsConfig,
    params: EnergyParams,
    a: float,
    case: str,
    tol: float = 1e-7,
) -> DriftCheckResult:
    """Verify the integrated drift bound on the weighted energy.

    For alpha > 3 the compensated series E_b(t) - (l |x*|^2 / 2) * int_t2^t
    s*eps(s) ds must be nonincreasing beyond t2, with l = b in case (a) and
    l = b + a*beta in case (b). For alpha = 3 the scaled functional
    t/(t-beta) * E_2 is used with the matching drift weight; samples at
    t <= 2*beta are excluded to stay clear of the pole.
    """
    if case not in ("a", "b"):
        raise ValueError("case must be 'a' or 'b'")
    alpha, beta, b = cfg.alpha, cfg.beta, params.b
    verdict = check_condition_a(s, beta, a) if case == "a" else check_condition_b(s, a)
    if not verdict.holds:
        raise ValueError(f"case ({case}) hypotheses not certified for this schedule: {verdict.status}")
    t1 = max(verdict.t1, cfg.t0)
    xstar_sq = float(np.dot(params.xstar, params.xstar))
    t = traj.t

    if alpha > 3.0:
        _validate_b(alpha, b, strict=True)
        if case == "a":
            # a = 1 is legal when beta = 0 (the condition degenerates); avoid 0/0
            t2 = t1 if beta == 0.0 else max(t1, 2.0 * a * beta / (a - 1.0),
                                            beta * (alpha - 2.0) / (b - 2.0))
            l = b
        else:
            t2 = t1 if beta == 0.0 else max(t1, 4.0 * beta, beta * (alpha - 2.0) / (b - 2.0))
            l = b + a * beta
        weight = 0.5 * l
        integral = s.integral_t_eps
    else:
        _validate_b(alpha, b)
        if case == "a":
            t2 = max(t1, a * beta / (a - 1.0)) if beta > 0 else t1
            l = 1.0
        else:
            t2 = max(t1, 4.0 * beta)
            l = 0.5 * (2.0 + a * beta)
        if beta > 0:
            t2 = max(t2, 2.0 * beta * (1.0 + 1e-12))  # stay clear of the t = beta pole
        weight = l
        if beta == 0.0:
            integral = s.integral_t_eps
        else:
            integrand = lambda u: u * u / (u - beta) * s.eps(u)
            integral = lambda lo, hi: _simpson(integrand, np.linspace(lo, hi, 9))

    mask = t >= t2
    ts = t[mask]
    if ts.shape[0] < 2:
        raise ValueError(f"fewer than two samples beyond t2 = {t2:g}")
    energies = energy_Eb_series(cfg, params, traj)[mask]
    scaled = alpha <= 3.0
    if scaled:
        energies = energies * (ts / (ts - beta))
    series = energies - weight * xstar_sq * _running_drift(integral, t2, ts)
    result = monotonicity_check(np.column_stack([ts, series]), tol)
    return DriftCheckResult(
        passed=result.passed,
        case=case,
        t2=t2,
        drift_coefficient=l,
        scaled=scaled,
        samples_checked=int(ts.shape[0]),
        violation_index=result.violation_index,
        magnitude=result.magnitude,
    )


def averaged_t_eps(s: TikhonovSchedule, T: float) -> float:
    """(1/T^2) * int_t0^T u*eps(u) du: must vanish when eps/t is integrable."""
    if T <= s.t0:
        raise ValueError("T must exceed the schedule start")
    return s.integral_t_eps(s.t0, T) / (T * T)
