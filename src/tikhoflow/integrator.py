"""Embedded Dormand-Prince 5(4) stepper with PI step-size control.

The table `_C`, `_A`, `_E` and its exponent `_ERR_EXP` alone fix the method:
the stage count, the FSAL row, the eval count and the step laws' exponent are
read from them where they are used, so replacing them replaces the method.

The solver advances an autonomous-in-form system z' = f(t, z) from the first
sample time to the last, clamping steps so that every requested sample time is
hit exactly (no interpolation error enters the reported states). Step size is
controlled by the standard proportional-integral rule; a step shrinking below
1e-14 * t is diagnosed as a failure instead of silently stalling. Everything
is plain float64 arithmetic in a fixed order, so identical inputs produce
bit-identical output.

For small states numpy's per-call overhead, not arithmetic, sets the cost, so
everything invariant across attempts (stage rows, views of K, the step floor
between accepted steps) is built once. A run of dimension 1 goes further:
its `Split` has a ``stage`` in Python floats, and `_float_attempt` steps each
attempt around its weight products, which stay ndarray.dot (a BLAS gemv does
not round as a Python sum does), and one schedule call on all stage times.
The stage states, the motion and integrands of each stage, z_new, the
finiteness test and the error norm are Python floats, which round as numpy
does, so the bits are `_attempt`'s.
`dynamics` checks the schedule domain once per run before calling `solve`;
the public `TikhonovSchedule.eps` still checks on every call.

A right-hand side is a `Split`: its last components are quadratures,
running integrals whose integrands read the state and its derivative but
never feed back (CVODES calls them quadrature variables). An attempt
evaluates the time-only coefficients (the schedule) at all its stage times
in one call, lets each stage write only the derivative of the other
components into its row of K, and fills the integrand columns of the new
rows in one batch after the last stage. Dormand-Prince is
first-same-as-last (FSAL): the last stage evaluates at z_new, with the
solution weights as the last row of the table, so one loop over the table
runs every stage. The integrals stay in the state and in the error norm,
and every bit is what calling the whole `Split` stage by stage gives. A
plain callable goes through the same attempt as a `Split` without
quadratures (`_split`), called once per stage.

`solve_lanes` spreads that overhead over many runs (lanes) on one sample
grid, as `compare` and `sweep` use it: each attempt does its elementwise work
and weight products for all active lanes at once, and its `Split` gathers
the per-lane coefficients of all stages in one call, so that each stage
makes one motion call for all lanes. The stage states are stored stage-major,
so that each stage's state rows are one block.

The step control is written once, in `_Lane`, and both loops drive it in
Python floats: `solve` one lane, `solve_lanes` one per run. After each finite
attempt one call of `_Lane.advance` concludes it and proposes the next one,
so a lane costs one controller call per attempt. `solve_lanes` tests
finiteness once for the whole batch, and lane by lane only when that test
fails. One pass over the lanes then concludes each attempt: a lane that did
not stay finite (`_Lane.non_finite`), finished or failed leaves, and the
others give the next attempt's step sizes and times. The lanes that left
are dropped from the arrays at one place, which also binds the live lanes'
coefficients (`Split`) before the live set's first attempt, so that the
right-hand side picks its per-lane columns once per live set, not once per
attempt. Only the array work differs (`_attempt` with ndarray.dot,
`_lanes_attempt` with stacked matmuls), so each lane's samples, counters
and failure are byte-identical to `solve` on that lane alone. One lane runs slower through `solve_lanes` than
through `solve`: the row gradient's fixed cost of a few numpy calls is not
spread over other lanes, and a run of dimension 1 steps its attempts in
Python floats. So single runs keep `solve`.
Memory: lanes x samples x m floats for the samples.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

# The classic Dormand-Prince 5(4) pair, the only place that knows the method.
# Stage k = 1, 2, ... evaluates at t + C[k-1] h and z + h (A[k-1] @ K[:k]),
# K[0] being f(t, z). The last row is the 5th-order solution: the last stage
# evaluates at z_new and t_new (FSAL), so C has one entry fewer than A. E is
# the difference against the embedded 4th-order row (error estimate), and
# _ERR_EXP = 1/(q+1), q = 4 the embedded order, is the step laws' exponent.
_C = np.array([1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_ERR_EXP = 0.2

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_BETA_PI = 0.04
_STEP_FLOOR = 1e-14
_MAX_STEPS = 20_000_000
_NORM_OVERFLOWS = "the scaled norm of the initial derivative"


class IntegrationError(RuntimeError):
    """Diagnosed integrator failure; carries the last valid state and samples."""

    def __init__(
        self,
        message: str,
        *,
        t: float,
        state: np.ndarray,
        rows: np.ndarray,
        stats: dict,
    ):
        super().__init__(message)
        self.t = t
        self.state = state
        self.rows = rows  # completed sample rows, shape (filled, m)
        self.stats = stats
        self.partial = None  # higher layers may attach a partial Trajectory


class Split(NamedTuple):
    """A right-hand side in the parts that `solve` steps attempt by attempt.
    With T the stage times of an attempt:

    - ``coefficients(T)`` returns E, the time-only coefficients at T;
    - ``motion(t, e, z, out)`` writes the derivative of every component but
      the quadratures of state z at time t, with e the coefficient there,
      into the front of out;
    - ``quadrature(T, E, Z, K)`` fills the quadrature columns of the rows K
      from the stage states Z (the same rows, in the same order) and the
      motion already in K.

    For `solve_lanes` the per-lane data is bound to the live lanes:
    ``coefficients(lanes)``, with lanes the integer indices of the live
    lanes, returns at(T) -> (E, P) for their times T (lanes, stages), E of
    T's shape for ``quadrature`` and P one tuple of arguments per stage, so
    that stage k calls ``motion(*P[k], Z, out)`` on rows of lanes.
    `solve_lanes` binds once per live set, before its first attempt, and
    calls ``at`` once per attempt.

    Called as rhs(t, z), or rhs(t, Z, lanes) on rows of lanes, a `Split`
    evaluates the whole derivative at one time: the coefficients there, the
    motion and the quadrature columns, as the stages of an attempt do.

    ``stage(t, e, z, h, p)``, if given, returns that whole derivative, with
    the same bits, as a tuple of Python floats, at the stage state z + h p
    of the lists of floats z and p, h a float; it need form only the
    components of z + h p that the derivative reads. `solve` then steps
    each attempt in floats (`_float_attempt`), which suits states of fewer
    than 8 components, on which a left-to-right sum is numpy's.
    """

    coefficients: Callable
    motion: Callable
    quadrature: Callable
    stage: Optional[Callable] = None

    def __call__(self, t, z: np.ndarray, *lanes) -> np.ndarray:
        if lanes:
            E, P = self.coefficients(*lanes)(t[:, None])
            e, args = E[:, 0], P[0]
        else:
            e = float(self.coefficients(t))
            args = (t, e)
        out = np.empty(z.shape)
        self.motion(*args, z, out)
        self.quadrature(t, e, z, out)
        return out


def _split(rhs, on_lanes: bool = False) -> Split:
    """rhs itself if it is a `Split`, or a plain callable as one without
    quadratures: its coefficients are the times themselves (with the bound
    lane indices, for `solve_lanes`) and its motion writes the whole
    derivative, so each stage calls rhs once with the time and state that
    calling it stage by stage would pass."""
    if isinstance(rhs, Split):
        return rhs
    if on_lanes:
        def coefficients(lanes):
            return lambda T: (T, [(t, lanes) for t in T.T])

        def motion(t, lanes, Z, out):
            out[...] = rhs(t, Z, lanes)
    else:
        def coefficients(T):
            return T

        def motion(t, e, z, out):
            out[...] = rhs(t, z)

    return Split(coefficients, motion, lambda T, E, Z, K: None)


def _rms(v: np.ndarray) -> float:
    # bit-equal to np.sqrt(np.mean(v * v)): mean is the same add.reduce over n
    return math.sqrt(float(np.add.reduce(v * v)) / v.shape[0])


def _initial_step(rhs, t0, z0, f0, rtol, atol, span):
    """The first step size from z0 and f0 = rhs(t0, z0), or, when a guess
    overflows to 0, what overflowed: f0's scaled norm d1 (the first guess is
    0.01 * d0 / d1; rhs is not called again) or d2, the change of the
    derivative over the trial step h0 (the second guess is (0.01 / d2) **
    _ERR_EXP)."""
    sc = atol + rtol * np.abs(z0)
    d0, d1 = _rms(z0 / sc), _rms(f0 / sc)
    if d1 == math.inf:
        return _NORM_OVERFLOWS
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = rhs(t0 + h0, z0 + h0 * f0)
    d2 = _rms((f1 - f0) / sc) / h0
    if d2 == math.inf:
        return "the change of the derivative over the first trial step"
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ERR_EXP
    return min(100 * h0, h1, span)


def _next_h(err, h, h_try, clamped, err_prev, just_rejected) -> float:
    """The step-size law: the step to try after an attempt of size h_try with
    error norm err, when h was the step size before it (`_Lane.advance`).
    A NaN err takes the reject law, as it fails the acceptance test err <= 1."""
    if not err <= 1.0:
        return h_try * max(_MIN_FACTOR, _SAFETY * err ** -_ERR_EXP)
    if clamped:
        return h  # a step shortened onto a sample time leaves h as it was
    if err == 0.0:
        factor = _MAX_FACTOR
    else:
        factor = _SAFETY * err ** -(_ERR_EXP - 0.75 * _BETA_PI) * err_prev ** _BETA_PI
        factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
    if just_rejected:
        factor = min(1.0, factor)
    return h * factor


def _attempt(rhs: Split, K: np.ndarray, rel_tol: float, abs_tol: float):
    """One attempt on the stage rows K (one row per stage of the table and
    one more), K[0] holding f(t, z): returns attempt(t, z, h, t_new), which
    fills K[1:], one row per stage, and returns z_new and its error norm, or
    (None, None) if z_new or K is not finite. The quadrature columns of
    K[1:] are only filled after the last stage, which leaves the other
    columns of every product untouched (K starts zeroed, so no stage reads
    uninitialised memory). The weight products use ndarray.dot: the BLAS
    gemv that `@` calls, at half its overhead."""
    coefficients, motion, quadrature, _ = rhs
    S = np.empty((len(_A), K.shape[1]))  # stage states; S[-1] is z_new before its integrals
    stages = tuple((a, K[:k], S[k - 1], K[k]) for k, a in enumerate(_A, 1))
    cs = _C.tolist()
    b, K_b, K_new, e = _A[-1], K[:-1], K[1:], _E

    def attempt(t, z, h, t_new):
        ts = [t + c * h for c in cs]
        ts.append(t_new)
        T = np.array(ts)
        E = coefficients(T)
        for (a, Kk, Sk, Kout), tk, ek in zip(stages, ts, E.tolist()):
            np.add(z, h * a.dot(Kk), out=Sk)
            motion(tk, ek, Sk, Kout)
        quadrature(T, E, S, K_new)
        z_new = z + h * b.dot(K_b)
        if not (np.isfinite(z_new).all() and np.isfinite(K).all()):
            return None, None
        sc = abs_tol + rel_tol * np.maximum(np.abs(z), np.abs(z_new))
        return z_new, _rms(h * e.dot(K) / sc)

    return attempt


def _float_attempt(rhs: Split, K: np.ndarray, rel_tol: float, abs_tol: float):
    """`_attempt` in Python floats around its weight products, for a `Split`
    with a ``stage``. The products stay ndarray.dot, read back with
    `tolist`, and the schedule one call on all stage times; the stage
    states, each K row (written once, by its stage, so that the FSAL
    stage's product is z_new's), z_new, the finiteness test and the error
    norm are floats. Each float operation rounds as its numpy counterpart
    does, in the same order, and the norm sums its squares left to right,
    as `np.add.reduce` does on fewer than 8 terms, so every bit is
    `_attempt`'s. K[0] is finite when an attempt starts (`_Lane.start`
    checks it, and each accepted attempt its last row), so only the new
    rows are tested."""
    coefficients, stage = rhs.coefficients, rhs.stage
    stages = tuple((a, K[:k], K[k]) for k, a in enumerate(_A, 1))
    cs = _C.tolist()
    e, m = _E, K.shape[1]

    def attempt(t, z, h, t_new):
        zs = z.tolist()
        ts = [t + c * h for c in cs]
        ts.append(t_new)
        finite = True
        for (a, Kk, Kout), tk, ek in zip(stages, ts, coefficients(np.array(ts)).tolist()):
            p = a.dot(Kk).tolist()
            Kout[...] = row = stage(tk, ek, zs, h, p)
            finite = finite and all(map(math.isfinite, row))
        # the last stage's product, over rows complete by then, is z_new's
        z_new = [zj + h * pj for zj, pj in zip(zs, p)]
        if not (finite and all(map(math.isfinite, z_new))):
            return None, None
        total = 0.0
        for zj, nj, ej in zip(zs, z_new, e.dot(K).tolist()):
            zj, nj = abs(zj), abs(nj)
            v = h * ej / (abs_tol + rel_tol * (zj if zj >= nj else nj))
            total += v * v
        return np.array(z_new), math.sqrt(total / m)

    return attempt


class _Lane:
    """Step control of one run in Python floats, shared by `solve` and each
    lane of `solve_lanes`. `start` checks the first derivative, picks the
    initial step and proposes the first attempt. After each finite attempt
    one call of `advance` does the rest: it accepts or rejects the attempt
    (`_next_h`, then the underflow test after a rejection) and proposes the
    next one (the step budget, clamping onto the next sample time, the
    underflow test before an attempt). `non_finite` gives the error of an
    attempt that did not stay finite. A failure raises the IntegrationError
    that carries the samples so far from ``rows``, the run's (samples, m)
    buffer.

    A state is given as an array Z and an index p: Z[p] is a row of the
    lanes' states, or `solve`'s state with p = Ellipsis. The row is taken
    only to store a sample or a failure, so the lanes pay no indexing."""

    __slots__ = ("grid", "rows", "t", "h", "h_try", "t_new", "clamped", "floor",
                 "err_prev", "just_rejected", "next_i", "steps", "rejected", "evals")

    def __init__(self, grid: list, rows: np.ndarray):
        self.grid, self.rows, self.t = grid, rows, grid[0]
        self.floor = _STEP_FLOOR * max(abs(self.t), 1.0)
        self.err_prev = 1e-4
        self.just_rejected = False
        self.next_i = 1
        self.steps = self.rejected = self.evals = 0

    @property
    def done(self) -> bool:
        return self.next_i == len(self.grid)

    def stats(self) -> dict:
        return {"steps": self.steps, "rejected": self.rejected, "rhs_evals": self.evals}

    def error(self, message: str, Z: np.ndarray, p) -> IntegrationError:
        return IntegrationError(message, t=self.t, state=Z[p].copy(),
                                rows=self.rows[: self.next_i].copy(), stats=self.stats())

    def start(self, rhs, z: np.ndarray, f: np.ndarray, rel_tol: float, abs_tol: float):
        """Check f = rhs(t0, z), pick the initial step, which calls rhs once
        more unless f's scaled norm overflows, and propose the first attempt
        from z. An initial step that overflows to 0 is a failure."""
        self.evals = 1
        if not np.isfinite(f).all():
            raise self.error("non-finite derivative at the initial state", z, Ellipsis)
        h = _initial_step(rhs, self.t, z, f, rel_tol, abs_tol, self.grid[-1] - self.t)
        if h is not _NORM_OVERFLOWS:  # rhs was called at the trial step
            self.evals += 1
        if isinstance(h, str):
            raise self.error(f"initial step size underflow: {h} overflows at t={self.t:.6g}",
                             z, Ellipsis)
        self.h = h
        self.advance(None, z, z, Ellipsis)

    def non_finite(self, Z: np.ndarray, p) -> IntegrationError:
        """Count the attempt from Z[p], which did not stay finite, and return its error."""
        self.evals += len(_A)
        return self.error(f"non-finite state encountered near t={self.t_new:.6g}", Z, p)

    def advance(self, err: Optional[float], Z: np.ndarray, Z_new: np.ndarray, p) -> bool:
        """Count the finite attempt from Z[p] to Z_new[p] of error norm err
        and accept it (True) or reject it; then, unless the run is done, set
        h_try and t_new of the next attempt from the state it starts at.
        With err None (from `start`) there is no attempt to conclude."""
        accepted = False
        if err is not None:
            self.evals += len(_A)
            self.h = _next_h(err, self.h, self.h_try, self.clamped, self.err_prev,
                             self.just_rejected)
            if err <= 1.0:
                accepted = True
                self.steps += 1
                self.t = self.t_new
                self.floor = _STEP_FLOOR * max(abs(self.t), 1.0)
                if self.clamped:
                    self.rows[self.next_i] = Z_new[p]
                    self.next_i += 1
                    if self.done:
                        return True
                self.err_prev = max(err, 1e-4)
                self.just_rejected = False
                Z = Z_new
            else:
                self.rejected += 1
                self.just_rejected = True
                if self.h < self.floor:
                    raise self.error(f"step size underflow at t={self.t:.6g} (h={self.h:.3g})", Z, p)
        if self.steps + self.rejected > _MAX_STEPS:
            raise self.error("step budget exhausted", Z, p)
        target = self.grid[self.next_i]
        remaining = target - self.t
        self.clamped = clamped = self.h >= remaining
        self.h_try = h_try = remaining if clamped else self.h
        if not clamped and h_try < self.floor:
            raise self.error(f"step size underflow at t={self.t:.6g} (h={h_try:.3g})", Z, p)
        self.t_new = target if clamped else self.t + h_try
        return accepted


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
    z = np.array(z0, dtype=float)
    out = np.empty((t_samples.shape[0], z.shape[0]))
    out[0] = z
    lane = _Lane(t_samples.tolist(), out)
    if lane.done:
        return out, lane.stats()
    f = rhs(lane.t, z)
    lane.start(rhs, z, f, rel_tol, abs_tol)
    K = np.zeros((len(_A) + 1, z.shape[0]))
    K[0] = f  # FSAL: after an accepted step K[0] takes over the last stage's row
    rhs = _split(rhs)
    attempt = (_attempt if rhs.stage is None else _float_attempt)(rhs, K, rel_tol, abs_tol)
    while not lane.done:
        z_new, err = attempt(lane.t, z, lane.h_try, lane.t_new)
        if err is None:
            raise lane.non_finite(z, Ellipsis)
        if lane.advance(err, z, z_new, Ellipsis):
            z = z_new
            K[0] = K[-1]
    return out, lane.stats()


def _lanes_attempt(motion, quadrature):
    """`_attempt` on rows of lanes: returns attempt(T, Hc, T_new, Z, K, at),
    which fills K[:, 1:] and returns Z_new, for the lanes' times T, step
    sizes Hc (lanes, 1), stage rows K (lanes, stages + 1, m) and their bound
    coefficients at (`Split`)."""
    stages = tuple(enumerate(_A, 1))
    C, b, n = _C, _A[-1], len(_A)

    def attempt(T, Hc, T_new, Z, K, at):
        TS = np.empty((T.shape[0], n))
        TS[:, :-1] = T[:, None] + C * Hc
        TS[:, -1] = T_new
        E, P = at(TS)
        # stage-major, so that each stage state is one block
        S = np.empty((n,) + Z.shape)
        for (k, a), p in zip(stages, P):
            Sk = S[k - 1]
            np.add(Z, Hc * np.matmul(a, K[:, :k]), out=Sk)
            motion(*p, Sk, K[:, k])
        quadrature(TS, E, S.transpose(1, 0, 2), K[:, 1:])
        return Z + Hc * np.matmul(b, K[:, :-1])

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
    stacked matmuls that run the same per-lane BLAS calls as `solve`. Each
    lane's step control is a `_Lane`, as in `solve`, so every lane gets
    exactly the bits `solve` gives it alone. The error norms are computed
    for every row, row by row, so a finite lane's norm does not depend on
    the others; then one pass over the lanes concludes each attempt. Lanes
    that did not stay finite, finished or failed leave the arrays at once,
    and the others run on.

    Returns one entry per lane: ``(samples, stats)`` as `solve` returns them,
    or the IntegrationError `solve` raises on that lane alone. Exceptions
    raised by rhs propagate. The samples of all lanes share one
    (lanes, samples, m) buffer.
    """
    t_samples = np.asarray(t_samples, dtype=float)
    Z = np.array(z0, dtype=float)
    L, m = Z.shape
    out = np.empty((L, t_samples.shape[0], m))
    out[:, 0] = Z
    grid = t_samples.tolist()
    lanes = [_Lane(grid, out[i]) for i in range(L)]
    results: list = [None] * L
    if len(grid) == 1:
        return [(ln.rows, ln.stats()) for ln in lanes]

    F = rhs(np.full(L, grid[0]), Z, np.arange(L))
    K = np.zeros((L, len(_A) + 1, m))
    K[:, 0] = F
    go = []  # the rows of the lanes that go on to the next attempt
    for i, ln in enumerate(lanes):
        try:
            ln.start(_one_lane(rhs, i), Z[i], F[i], rel_tol, abs_tol)
            go.append(i)
        except IntegrationError as exc:
            results[i] = exc
    # the next attempt's step sizes, times and end times, in the order of go
    H = [lanes[i].h_try for i in go]
    T = [lanes[i].t for i in go]
    T_new = [lanes[i].t_new for i in go]
    bind, motion, quadrature, _ = _split(rhs, on_lanes=True)
    attempt = _lanes_attempt(motion, quadrature)
    live, at = range(L), None
    while True:
        # lanes that finished or failed leave the arrays, and each live set
        # is bound before its first attempt
        if at is None or len(go) < len(live):
            live, Z, K = [live[p] for p in go], Z[go], K[go]
            if not live:
                return results
            at = bind(np.array(live))
        Hc = np.array(H)[:, None]
        Z_new = attempt(np.array(T), Hc, np.array(T_new), Z, K, at)
        # row by row, so a finite lane's norm is the same whatever the others hold
        sc = abs_tol + rel_tol * np.maximum(np.abs(Z), np.abs(Z_new))
        v = Hc * np.matmul(_E, K) / sc
        errs = np.sqrt(np.add.reduce(v * v, axis=1) / m).tolist()
        if not (np.isfinite(Z_new).all() and np.isfinite(K).all()):
            finite = np.isfinite(Z_new).all(axis=1) & np.isfinite(K).all(axis=(1, 2))
            errs = [err if ok else None for err, ok in zip(errs, finite.tolist())]
        accepted, go, H, T, T_new = [], [], [], [], []
        for p, (i, err) in enumerate(zip(live, errs)):
            ln = lanes[i]
            try:
                if err is None:
                    raise ln.non_finite(Z, p)
                if ln.advance(err, Z, Z_new, p):
                    accepted.append(p)
                    if ln.done:
                        results[i] = (ln.rows, ln.stats())
                        continue
            except IntegrationError as exc:
                results[i] = exc
                continue
            go.append(p)
            H.append(ln.h_try)
            T.append(ln.t)
            T_new.append(ln.t_new)
        if len(accepted) == len(live):
            Z = Z_new
            K[:, 0] = K[:, -1]
        else:
            Z[accepted] = Z_new[accepted]
            K[accepted, 0] = K[accepted, -1]
