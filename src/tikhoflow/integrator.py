"""Embedded Dormand-Prince 5(4) stepper with PI step-size control.

The solver advances an autonomous-in-form system z' = f(t, z) from the first
sample time to the last, clamping steps so that every requested sample time is
hit exactly (no interpolation error enters the reported states). Step size is
controlled by the standard proportional-integral rule; a step shrinking below
1e-14 * t is diagnosed as a failure instead of silently stalling. Everything
is plain float64 arithmetic in a fixed order, so identical inputs produce
bit-identical output.

For small states numpy's per-call overhead, not arithmetic, sets the cost, so
everything invariant across attempts (stage rows, views of K, the step floor
between accepted steps) is built once. `dynamics` checks the schedule domain
once per run before calling `solve`; the public `TikhonovSchedule.eps` still
checks on every call.

A right-hand side may also carry its `Split`: its last components are
quadratures, running integrals whose integrands read the state and its
derivative but never feed back (CVODES calls them quadrature variables). An
attempt then knows all six stage times before its first stage, evaluates the
time-only coefficients (the schedule) at all six in one call, lets each stage
write only the derivative of the other components into its row of K, and
fills the integrand columns of the six new rows in one batch after the FSAL
stage. The integrals stay in the state and in the error norm, and every bit
is what calling the whole right-hand side stage by stage gives. A plain
callable goes through the same attempt as a `Split` without quadratures
(`_split`), called once per stage.

`solve_lanes` spreads that overhead over many runs (lanes) on one sample
grid, as `compare` and `sweep` use it: each attempt does its elementwise work
and DP5 weight products for all active lanes at once, while the initial
step, acceptance and the step-size law `_next_h` stay per lane in Python
floats. Each lane's samples, counters and failure are byte-identical to
`solve` on that lane alone. One lane runs about 2x slower through it than
through `solve` (1.9-2.0x on paper1d at the example.cfg settings), so single
runs keep `solve`. Memory: lanes x samples x m floats for the samples.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

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

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_BETA_PI = 0.04
_ALPHA_PI = 0.2 - 0.75 * _BETA_PI
_STEP_FLOOR = 1e-14
_MAX_STEPS = 20_000_000


class IntegrationError(RuntimeError):
    """Diagnosed integrator failure; carries the last valid state and samples."""

    def __init__(
        self,
        message: str,
        *,
        t: float,
        state: np.ndarray,
        rows: Optional[np.ndarray] = None,
        stats: Optional[dict] = None,
    ):
        super().__init__(message)
        self.t = t
        self.state = state
        self.rows = rows  # completed sample rows, shape (filled, m)
        self.stats = stats or {}
        self.partial = None  # higher layers may attach a partial Trajectory


class Split(NamedTuple):
    """A right-hand side as `solve` steps it attempt by attempt, exposed as
    its ``split`` attribute. With T the six stage times of an attempt:

    - ``coefficients(T)`` returns E, the time-only coefficients at T;
    - ``motion(t, e, z, out)`` writes the derivative of every component but
      the quadratures of state z at time t, with e the coefficient there,
      into the front of out;
    - ``quadrature(T, E, Z, K)`` fills the quadrature columns of the rows K
      from the stage states Z (the same rows, in the same order) and the
      motion already in K.

    For `solve_lanes` T and E are (lanes, 6) and ``coefficients`` and
    ``motion`` also take the lane indices: ``coefficients(T, lanes)`` and
    ``motion(t, e, Z, lanes, out)`` on rows of lanes.
    """

    coefficients: Callable
    motion: Callable
    quadrature: Callable


def _split(rhs) -> Split:
    """rhs's `Split`, or a plain callable as one without quadratures: its
    coefficients are the times themselves and its motion writes the whole
    derivative, so each stage calls rhs once with the time and state that
    calling it stage by stage would pass."""
    split = getattr(rhs, "split", None)
    if split is not None:
        return split

    def motion(t, e, z, *lanes_out):
        *lanes, out = lanes_out
        out[...] = rhs(t, z, *lanes)

    return Split(lambda T, *lanes: T, motion, lambda T, E, Z, K: None)


def _rms(v: np.ndarray) -> float:
    # bit-equal to np.sqrt(np.mean(v * v)): mean is the same add.reduce over n
    return math.sqrt(float(np.add.reduce(v * v)) / v.shape[0])


def _initial_step(rhs, t0, z0, f0, rtol, atol, span) -> float:
    sc = atol + rtol * np.abs(z0)
    d0, d1 = _rms(z0 / sc), _rms(f0 / sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = rhs(t0 + h0, z0 + h0 * f0)
    d2 = _rms((f1 - f0) / sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def _next_h(err, h, h_try, clamped, err_prev, just_rejected) -> float:
    """The step-size law: the step to try after an attempt of size h_try with
    error norm err, when h was the step size before it (both loops use it).
    A NaN err takes the reject law, as it fails the loops' test err <= 1."""
    if not err <= 1.0:
        return h_try * max(_MIN_FACTOR, _SAFETY * err ** -0.2)
    if clamped:
        return h  # a step shortened onto a sample time leaves h as it was
    if err == 0.0:
        factor = _MAX_FACTOR
    else:
        factor = _SAFETY * err ** (-_ALPHA_PI) * err_prev ** _BETA_PI
        factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
    if just_rejected:
        factor = min(1.0, factor)
    return h * factor


def _attempt(rhs, K: np.ndarray):
    """One DP5 attempt on the stage rows K (7, m), K[0] holding f(t, z):
    returns attempt(t, z, h, t_new), which fills K[1:7] and returns z_new.
    Stage k evaluates at t + c_k h and z + h (a_k @ K[:k]); the quadrature
    columns of K[1:6] are only filled after the FSAL stage, which leaves the
    other columns of every product untouched (K starts zeroed, so no stage
    reads uninitialised memory). The weight products
    use ndarray.dot: the BLAS gemv that `@` calls, at half its overhead."""
    K6 = K[:6]
    coefficients, motion, quadrature = _split(rhs)
    S = np.empty((6, K.shape[1]))  # stage states; S[5] is z_new before its integrals
    stages = tuple((_A[k][:k], K[:k], S[k - 1], K[k]) for k in range(1, 6))
    cs = _C[1:].tolist()
    S5, K6_row, K_new = S[5], K[6], K[1:]

    def attempt(t, z, h, t_new):
        ts = [t + c * h for c in cs]
        ts.append(t_new)
        T = np.array(ts)
        E = coefficients(T)
        es = E.tolist()
        for (a, Kk, Sk, Kout), tk, ek in zip(stages, ts, es):
            np.add(z, h * a.dot(Kk), out=Sk)
            motion(tk, ek, Sk, Kout)
        np.add(z, h * _B.dot(K6), out=S5)
        motion(t_new, es[5], S5, K6_row)  # FSAL stage
        quadrature(T, E, S, K_new)
        return z + h * _B.dot(K6)

    return attempt


def solve(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    z0: np.ndarray,
    t_samples: np.ndarray,
    rel_tol: float,
    abs_tol: float,
) -> tuple[np.ndarray, dict]:
    """Integrate from t_samples[0] to t_samples[-1], returning states at all samples.

    Raises IntegrationError on step underflow, non-finite state, or step-budget
    exhaustion; the exception carries the rows filled so far.
    """
    t_samples = np.asarray(t_samples, dtype=float)
    n = t_samples.shape[0]
    z = np.array(z0, dtype=float)
    m = z.shape[0]
    out = np.empty((n, m))
    out[0] = z
    steps = rejected = evals = 0

    def stats() -> dict:
        return {"steps": steps, "rejected": rejected, "rhs_evals": evals}

    if n == 1:
        return out, stats()

    t = float(t_samples[0])
    f = rhs(t, z)
    evals += 1
    if not np.isfinite(f).all():
        raise IntegrationError("non-finite derivative at the initial state",
                               t=t, state=z, rows=out[:1].copy(), stats=stats())
    h = _initial_step(rhs, t, z, f, rel_tol, abs_tol, float(t_samples[-1]) - t)
    evals += 1

    K = np.zeros((7, m))
    K[0] = f  # FSAL: after an accepted step K[0] takes over K[6]
    attempt = _attempt(rhs, K)
    floor = _STEP_FLOOR * max(abs(t), 1.0)
    err_prev = 1e-4
    just_rejected = False
    next_i = 1
    while next_i < n:
        if steps + rejected > _MAX_STEPS:
            raise IntegrationError("step budget exhausted", t=t, state=z,
                                   rows=out[:next_i].copy(), stats=stats())
        target = float(t_samples[next_i])
        remaining = target - t
        clamped = h >= remaining
        h_try = remaining if clamped else h
        if not clamped and h_try < floor:
            raise IntegrationError(
                f"step size underflow at t={t:.6g} (h={h_try:.3g})",
                t=t, state=z, rows=out[:next_i].copy(), stats=stats(),
            )
        t_new = target if clamped else t + h_try
        z_new = attempt(t, z, h_try, t_new)
        evals += 6
        if not (np.isfinite(z_new).all() and np.isfinite(K).all()):
            raise IntegrationError(
                f"non-finite state encountered near t={t_new:.6g}",
                t=t, state=z, rows=out[:next_i].copy(), stats=stats(),
            )
        sc = abs_tol + rel_tol * np.maximum(np.abs(z), np.abs(z_new))
        err = _rms(h_try * _E.dot(K) / sc)
        h = _next_h(err, h, h_try, clamped, err_prev, just_rejected)
        if err <= 1.0:
            steps += 1
            t, z = t_new, z_new
            K[0] = K[6]
            floor = _STEP_FLOOR * max(abs(t), 1.0)
            if clamped:
                out[next_i] = z
                next_i += 1
            err_prev = max(err, 1e-4)
            just_rejected = False
        else:
            rejected += 1
            just_rejected = True
            if h < floor:
                raise IntegrationError(
                    f"step size underflow at t={t:.6g} (h={h:.3g})",
                    t=t, state=z, rows=out[:next_i].copy(), stats=stats(),
                )
    return out, stats()


class _Lane:
    """Step-control state of one lane of `solve_lanes`, in Python floats."""

    __slots__ = ("i", "t", "h", "h_try", "t_new", "clamped", "floor", "err_prev",
                 "just_rejected", "next_i", "steps", "rejected", "evals")

    def __init__(self, i: int, t: float):
        self.i, self.t = i, t
        self.floor = _STEP_FLOOR * max(abs(t), 1.0)
        self.err_prev = 1e-4
        self.just_rejected = False
        self.next_i = 1
        self.steps = self.rejected = self.evals = 0

    def stats(self) -> dict:
        return {"steps": self.steps, "rejected": self.rejected, "rhs_evals": self.evals}

    def error(self, message: str, state: np.ndarray, out: np.ndarray) -> IntegrationError:
        return IntegrationError(message, t=self.t, state=state.copy(),
                                rows=out[self.i, : self.next_i].copy(), stats=self.stats())


def _lanes_attempt(rhs):
    """`_attempt` on rows of lanes: returns attempt(T, Hc, T_new, Z, K,
    lanes), which fills K[:, 1:7] and returns Z_new, for the lanes' times T,
    step sizes Hc (lanes, 1) and stage rows K (lanes, 7, m)."""
    coefficients, motion, quadrature = _split(rhs)
    stages = tuple((k, _A[k][:k]) for k in range(1, 6))
    C = _C[1:]

    def attempt(T, Hc, T_new, Z, K, lanes):
        TS = np.empty((T.shape[0], 6))
        TS[:, :5] = T[:, None] + C * Hc
        TS[:, 5] = T_new
        E = coefficients(TS, lanes)
        S = np.empty((T.shape[0], 6, Z.shape[1]))
        for k, a in stages:
            Sk = S[:, k - 1]
            np.add(Z, Hc * np.matmul(a, K[:, :k]), out=Sk)
            motion(TS[:, k - 1], E[:, k - 1], Sk, lanes, K[:, k])
        S5 = S[:, 5]
        np.add(Z, Hc * np.matmul(_B, K[:, :6]), out=S5)
        motion(T_new, E[:, 5], S5, lanes, K[:, 6])  # FSAL stage
        quadrature(TS, E, S, K[:, 1:])
        return Z + Hc * np.matmul(_B, K[:, :6])

    return attempt


def _one_lane(rhs, i: int):
    lane = np.array([i])
    return lambda t, z: rhs(np.array([t]), z[None], lane)[0]


def solve_lanes(
    rhs: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    z0: np.ndarray,
    t_samples: np.ndarray,
    rel_tol: float,
    abs_tol: float,
) -> list:
    """Integrate the lanes z0[l] over one shared sample grid, each under its own step control.

    ``rhs(t, Z, lanes)`` evaluates the right-hand sides of the lanes whose
    indices are in ``lanes`` (shape (a,)) at times t (a,) and states Z (a, m)
    and returns their derivatives (a, m). Each attempt does the elementwise
    arithmetic and the DP5 weight products of all active lanes at once, as
    stacked matmuls that run the same per-lane BLAS calls as `solve`. The
    initial step, acceptance and the step-size law run per lane with `solve`'s
    arithmetic, so every lane gets exactly the bits `solve` gives it alone.
    Lanes that finish or fail leave the arrays; the others run on.

    Returns one entry per lane: ``(samples, stats)`` as `solve` returns them,
    or the IntegrationError `solve` raises on that lane alone. Exceptions
    raised by rhs propagate. The samples of all lanes share one
    (lanes, samples, m) buffer.
    """
    t_samples = np.asarray(t_samples, dtype=float)
    n = t_samples.shape[0]
    Z = np.array(z0, dtype=float)
    L, m = Z.shape
    out = np.empty((L, n, m))
    out[:, 0] = Z
    t = float(t_samples[0])
    live = [_Lane(i, t) for i in range(L)]
    results: list = [None] * L
    if n == 1:
        return [(out[ln.i], ln.stats()) for ln in live]

    idx = np.arange(L)
    F = rhs(np.full(L, t), Z, idx)
    span = float(t_samples[-1]) - t
    for ln in live:
        ln.evals = 1
        if not np.isfinite(F[ln.i]).all():
            results[ln.i] = ln.error("non-finite derivative at the initial state", Z[ln.i], out)
            continue
        ln.h = _initial_step(_one_lane(rhs, ln.i), t, Z[ln.i], F[ln.i], rel_tol, abs_tol, span)
        ln.evals += 1
    live = [ln for ln in live if results[ln.i] is None]
    idx = np.array([ln.i for ln in live], dtype=np.intp)
    Z = Z[idx]
    K = np.zeros((len(live), 7, m))
    K[:, 0] = F[idx]
    attempt = _lanes_attempt(rhs)
    grid = t_samples.tolist()
    while live:
        go = []
        for p, ln in enumerate(live):
            if ln.steps + ln.rejected > _MAX_STEPS:
                results[ln.i] = ln.error("step budget exhausted", Z[p], out)
                continue
            target = grid[ln.next_i]
            remaining = target - ln.t
            ln.clamped = clamped = ln.h >= remaining
            ln.h_try = h_try = remaining if clamped else ln.h
            if not clamped and h_try < ln.floor:
                results[ln.i] = ln.error(
                    f"step size underflow at t={ln.t:.6g} (h={h_try:.3g})", Z[p], out)
                continue
            ln.t_new = target if clamped else ln.t + h_try
            go.append(p)
        if len(go) < len(live):
            live, Z, K, idx = [live[p] for p in go], Z[go], K[go], idx[go]
            if not live:
                break
        T = np.array([ln.t for ln in live])
        Hc = np.array([ln.h_try for ln in live])[:, None]
        Z_new = attempt(T, Hc, np.array([ln.t_new for ln in live]), Z, K, idx)
        finite = (np.isfinite(Z_new).all(axis=1) & np.isfinite(K).all(axis=(1, 2))).tolist()
        go = []
        for p, ln in enumerate(live):
            ln.evals += 6
            if finite[p]:
                go.append(p)
            else:
                results[ln.i] = ln.error(
                    f"non-finite state encountered near t={ln.t_new:.6g}", Z[p], out)
        if len(go) < len(live):
            live, Z, K, idx, Z_new, Hc = ([live[p] for p in go], Z[go], K[go], idx[go],
                                          Z_new[go], Hc[go])
            if not live:
                break
        sc = abs_tol + rel_tol * np.maximum(np.abs(Z), np.abs(Z_new))
        v = Hc * np.matmul(_E, K) / sc
        errs = np.sqrt(np.add.reduce(v * v, axis=1) / m).tolist()
        accepted, go = [], []
        for p, (ln, err) in enumerate(zip(live, errs)):
            ln.h = _next_h(err, ln.h, ln.h_try, ln.clamped, ln.err_prev, ln.just_rejected)
            if err <= 1.0:
                ln.steps += 1
                ln.t = ln.t_new
                ln.floor = _STEP_FLOOR * max(abs(ln.t), 1.0)
                accepted.append(p)
                if ln.clamped:
                    out[ln.i, ln.next_i] = Z_new[p]
                    ln.next_i += 1
                ln.err_prev = max(err, 1e-4)
                ln.just_rejected = False
                if ln.next_i == n:
                    results[ln.i] = (out[ln.i], ln.stats())
                    continue
            else:
                ln.rejected += 1
                ln.just_rejected = True
                if ln.h < ln.floor:
                    results[ln.i] = ln.error(
                        f"step size underflow at t={ln.t:.6g} (h={ln.h:.3g})", Z[p], out)
                    continue
            go.append(p)
        Z[accepted] = Z_new[accepted]
        K[accepted, 0] = K[accepted, 6]
        if len(go) < len(live):
            live, Z, K, idx = [live[p] for p in go], Z[go], K[go], idx[go]
    return results
