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
between accepted steps) is built once. A state of 5 components, that of a
one-dimensional run, goes further: `_generated_attempt` steps each attempt
in straight-line Python floats, generated from the table at its first use
and compiled once per table. Its weight products, z_new and the error
estimate are left-to-right float sums over the table's nonzero weights, so
such a run calls no BLAS and its bits do not depend on the BLAS kernel.
Each stage's derivative is a body of float statements inlined into that
stage (`_float_source`), so a stage calls only what its body calls. A
`Split` may carry its derivative as such a body (``body``), its schedule
then evaluated once on all stage times; the body of any other right-hand
side, a plain callable or a `Split` without one, calls it whole on a buffer
that holds the stage state, with the same bits, and it evaluates its
schedule itself, once per stage (`_whole`). Every other state steps with
numpy (`_attempt`), its weight products BLAS gemv calls (ndarray.dot).
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
grid, as `compare` and `sweep` use it for two or more runs of dimension 2
or more (any other run is a `dynamics.integrate`, stepped by `solve`): each
attempt does its elementwise work and weight products for all active lanes
at once, and its `Split` gathers the per-lane coefficients of all stages in
one call, so that each stage makes one motion call for all lanes. The stage
states are stored stage-major, so that each stage's state rows are one
block.

The step control is written once, in `_Lane`, and both loops drive it in
Python floats: `solve` one lane, `solve_lanes` one per run. Each lane starts
as its run starts: `_Lane.start` evaluates the first derivative and picks
the initial step with the run's own one-run right-hand side, which
`solve_lanes` is given beside the lanes `Split`, so the lanes call the
whole derivative nowhere and a lanes `Split` is only stepped. After each finite
attempt one call of `_Lane.advance` concludes it and proposes the next one,
so a lane costs one controller call per attempt. `solve_lanes` tests
finiteness once for the whole batch, and lane by lane only when that test
fails. One pass over the lanes then concludes each attempt: a lane that did
not stay finite (`_Lane.non_finite`), finished or failed leaves, and the
next attempt reads the others' step sizes and times from their `_Lane`s,
the one copy of each lane's step state. The lanes that left
are dropped from the arrays at one place, which also binds the live lanes'
coefficients (`Split`) before the live set's first attempt, so that the
right-hand side picks its per-lane columns once per live set, not once per
attempt. Only the array work differs (`_attempt` with ndarray.dot,
`_lanes_attempt` with stacked matmuls), so each lane's samples, counters
and failure are byte-identical to `solve` on that lane alone, for every
state size but the 5 components that `solve` steps in floats.
Memory: lanes x samples x m floats for the samples.
"""
from __future__ import annotations

import functools
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
# the states that `solve` steps in floats: those of a one-dimensional run
_FLOAT_SIZE = 5
_WHOLE = slice(None)  # the index of `solve`'s whole state for `_Lane`


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

    Called as rhs(t, z), a `Split` evaluates the whole derivative at one
    time: the coefficients there, the motion and the quadrature columns, as
    the stages of an attempt do. `_Lane.start` calls a run's one-run `Split`
    so, in `solve` and for each lane of `solve_lanes`; a lanes `Split` is
    only stepped, never called whole.

    ``body``, if given, is (source, names): that whole derivative, with the
    same bits, as Python float statements that `solve` inlines into each
    stage of its attempt on states of 5 components (`_float_source`).
    source(s, f) returns the statements, one per line. They read the stage
    time t, the coefficient e there and the stage state's components s[j],
    expressions of which only those they read are evaluated, and assign
    component j of the derivative to the name f[j]; names binds every other
    name they read.
    """

    coefficients: Callable
    motion: Callable
    quadrature: Callable
    body: Optional[tuple] = None

    def __call__(self, t: float, z: np.ndarray) -> np.ndarray:
        e = float(self.coefficients(t))
        out = np.empty(z.shape)
        self.motion(t, e, z, out)
        self.quadrature(t, e, z, out)
        return out


def _times(T):
    """The coefficients of a right-hand side that evaluates its own: the
    stage times themselves."""
    return T


def _split(rhs) -> Split:
    """rhs itself if it is a `Split`, or a plain callable as one without
    quadratures: its coefficients are the times themselves and its motion
    writes the whole derivative, so each stage calls rhs once with the time
    and state that calling it stage by stage would pass."""
    if isinstance(rhs, Split):
        return rhs

    def motion(t, e, z, out):
        out[...] = rhs(t, z)

    return Split(_times, motion, lambda T, E, Z, K: None)


def _rms(v: np.ndarray) -> float:
    # bit-equal to np.sqrt(np.mean(v * v)): mean is the same add.reduce over n
    return math.sqrt(float(np.add.reduce(v * v)) / v.shape[0])


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


def _attempt(rhs, m: int, rel_tol: float, abs_tol: float):
    """One attempt on states of m components: returns attempt(t, z, f, h,
    t_new), f = rhs(t, z), which returns z_new, its error norm and the
    FSAL row rhs(t_new, z_new), or None if z_new or a stage row is not
    finite. The stage rows are K, one row per stage of the table and one
    more; the quadrature columns of K[1:] are only filled after the last
    stage, which leaves the other columns of every product untouched (K
    starts zeroed, so no stage reads uninitialised memory). The weight
    products use ndarray.dot: the BLAS gemv that `@` calls, at half its
    overhead."""
    coefficients, motion, quadrature, _ = _split(rhs)
    K = np.zeros((len(_A) + 1, m))
    S = np.empty((len(_A), m))  # stage states; S[-1] is z_new before its integrals
    stages = tuple((a, K[:k], S[k - 1], K[k]) for k, a in enumerate(_A, 1))
    cs = _C.tolist()
    b, K_b, K_new, e = _A[-1], K[:-1], K[1:], _E

    def attempt(t, z, f, h, t_new):
        K[0] = f
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
            return None
        sc = abs_tol + rel_tol * np.maximum(np.abs(z), np.abs(z_new))
        return z_new, _rms(h * e.dot(K) / sc), K[-1].copy()

    return attempt


def _float_source(C: tuple, A: tuple, E: tuple, m: int, body: Callable, names: tuple) -> str:
    """The source of make(coefficients, rel_tol, abs_tol, *names), which
    returns the attempt of the table C, A, E on states of m components in
    straight-line Python floats (`_generated_attempt`), with each stage's
    derivative inlined from body (`Split.body`). T holds the stage times,
    stage row k the floats k{k}_0 .. k{k}_{m-1}, and each weight product is
    a left-to-right sum over the table's nonzero weights, formed only for
    the components that body reads, or for all of z_new at the last stage.
    The finiteness test is one sum: the error norm is finite only if z_new
    and every row that E weights are, so z_new and the rows that E drops
    join it, and the new rows and z_new are tested one by one only when
    that sum is not finite. K[0] is finite when an attempt starts
    (`_Lane.start` tests it, and each accepted attempt its last row)."""
    def dot(w, j):
        return " + ".join(f"{a!r} * k{i}_{j}" for i, a in enumerate(w) if a) or "0.0"

    def tup(names: list) -> str:
        return f"({', '.join(names)},)"

    n, cols = len(A), range(m)
    K = [[f"k{k}_{j}" for j in cols] for k in range(n + 1)]
    z, z_new = ([f"{v}{j}" for j in cols] for v in "zn")
    dropped = [v for k in range(1, n + 1) if not E[k] for v in K[k]]
    lines = [f"def make(coefficients, rel_tol, abs_tol, {', '.join(names)}):",
             "    def attempt(t0, z, f, h, t_new):",
             f"        {tup(z)} = z",
             f"        {tup(K[0])} = f",
             f"        T = ({''.join(f't0 + {c!r} * h, ' for c in C)}t_new)",
             f"        {tup([f'e{k}' for k in range(n)])} = coefficients(array(T)).tolist()"]
    for k, a in enumerate(A):
        s = [f"z{j} + h * ({dot(a, j)})" for j in cols]  # the stage state
        if k == n - 1:
            # the last row is z_new's weights: the last stage evaluates at z_new (FSAL)
            lines += [f"        {v} = {p}" for v, p in zip(z_new, s)]
            s = z_new
        # the stage's time and coefficient, then its derivative
        lines += [f"        {line}" for line in [f"t, e = T[{k}], e{k}", *body(s, K[k + 1])]]
    lines.append("        try:")
    for j in cols:
        lines += [f"            a, b = abs(z{j}), abs(n{j})",
                  f"            v{j} = h * ({dot(E, j)}) / (abs_tol + rel_tol * (a if a >= b else b))"]
    # a zero scale (abs_tol 0): numpy's inf or NaN, either of which rejects
    lines += [f"            total = {' + '.join(f'v{j} * v{j}' for j in cols)}",
              "        except ZeroDivisionError:",
              "            total = nan",
              f"        if not isfinite({' + '.join(['total', *z_new, *dropped])}):",
              f"            if not all(map(isfinite, {tup(sum(K[1:], []) + z_new)})):",
              "                return None",
              f"        return {tup(z_new)}, sqrt(total / {m}), {tup(K[n])}",
              "    return attempt"]
    return "\n".join(lines) + "\n"


@functools.cache
def _compiled(C: tuple, A: tuple, E: tuple, m: int, body: Callable, names: tuple):
    """The make function of `_float_source`, compiled once per table, m,
    body and names."""
    namespace = {"array": np.array, "isfinite": math.isfinite, "sqrt": math.sqrt, "nan": math.nan}
    exec(compile(_float_source(C, A, E, m, body, names), "<float attempt>", "exec"), namespace)
    return namespace["make"]


def _whole(s: list, f: list) -> list:
    """The body of a right-hand side rhs that has none (`Split.body`), a
    plain callable or a `Split` without one: rhs evaluates its own
    coefficients, so it is called whole, rhs(t, buf), on a buffer buf that
    holds the stage state, and the array it returns, as `_Lane.start`
    requires, is read back as floats."""
    return [f"buf[:] = ({', '.join(s)},)", f"({', '.join(f)},) = rhs(t, buf).tolist()"]


def _generated_attempt(rhs, m: int, rel_tol: float, abs_tol: float):
    """`_attempt` in Python floats, generated from the table at its first
    use (`_float_source`), for states of m components given as tuples of
    floats: attempt(t, z, f, h, t_new) returns z_new and the FSAL row as
    tuples. The derivative is rhs's float body, inlined into each stage,
    with rhs's schedule evaluated once on all stage times, or, for a plain
    callable or a `Split` without a body, the call of the whole rhs on a
    buffer (`_whole`), once per stage."""
    coefficients, body, names = _times, _whole, {"rhs": rhs, "buf": np.empty(m)}
    if isinstance(rhs, Split) and rhs.body is not None:
        coefficients, (body, names) = rhs.coefficients, rhs.body
    table = tuple(_C.tolist()), tuple(tuple(a.tolist()) for a in _A), tuple(_E.tolist())
    return _compiled(*table, m, body, tuple(names))(coefficients, rel_tol, abs_tol, **names)


class _Lane:
    """Step control of one run in Python floats, shared by `solve` and each
    lane of `solve_lanes`. `start` evaluates and checks the first
    derivative with the run's one-run right-hand side, picks the initial
    step and proposes the first attempt. After each finite attempt
    one call of `advance` does the rest: it accepts or rejects the attempt
    (`_next_h`, then the underflow test after a rejection) and proposes the
    next one (the step budget, clamping onto the next sample time, the
    underflow test before an attempt). `non_finite` gives the error of an
    attempt that did not stay finite. A failure raises the IntegrationError
    that carries the samples so far from ``rows``, the run's (samples, m)
    buffer.

    A state is given as an array Z and an index p: Z[p] is a row of the
    lanes' states, or `solve`'s state, an array or a tuple of floats, with
    p = `_WHOLE`. The row is taken only to store a sample or a failure, so
    the lanes pay no indexing."""

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
        return IntegrationError(message, t=self.t, state=np.array(Z[p]),
                                rows=self.rows[: self.next_i].copy(), stats=self.stats())

    def start(self, rhs, z: np.ndarray, rel_tol: float, abs_tol: float):
        """Evaluate f0 = rhs(t0, z) and check it, pick the initial step,
        which calls rhs once more unless f0's scaled norm d1 overflows,
        propose the first attempt from z and return f0. The first guess is
        0.01 * d0 / d1, d0 being z's scaled norm, the second (0.01 / d2) **
        _ERR_EXP, d2 being the change of the derivative over the trial step
        h0; a guess that overflows to 0 is a failure, which names what
        overflowed."""
        t0, span = self.t, self.grid[-1] - self.t
        f0 = rhs(t0, z)
        self.evals = 1
        if not np.isfinite(f0).all():
            raise self.error("non-finite derivative at the initial state", z, _WHOLE)
        sc = abs_tol + rel_tol * np.abs(z)
        d0, d1 = _rms(z / sc), _rms(f0 / sc)
        if d1 == math.inf:
            raise self.error("initial step size underflow: the scaled norm of the initial "
                             f"derivative overflows at t={t0:.6g}", z, _WHOLE)
        h0 = min(1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1, span)
        f1 = rhs(t0 + h0, z + h0 * f0)
        self.evals = 2
        d2 = _rms((f1 - f0) / sc) / h0
        if d2 == math.inf:
            raise self.error("initial step size underflow: the change of the derivative over "
                             f"the first trial step overflows at t={t0:.6g}", z, _WHOLE)
        d = max(d1, d2)
        h1 = max(1e-6, h0 * 1e-3) if d <= 1e-15 else (0.01 / d) ** _ERR_EXP
        self.h = min(100 * h0, h1, span)
        self.advance(None, z, z, _WHOLE)
        return f0

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
    f = lane.start(rhs, z, rel_tol, abs_tol)
    m = z.shape[0]
    if m == _FLOAT_SIZE:
        attempt = _generated_attempt(rhs, m, rel_tol, abs_tol)
        z, f = tuple(z.tolist()), tuple(np.asarray(f, dtype=float).tolist())
    else:
        attempt = _attempt(rhs, m, rel_tol, abs_tol)
    while not lane.done:
        step = attempt(lane.t, z, f, lane.h_try, lane.t_new)
        if step is None:
            raise lane.non_finite(z, _WHOLE)
        z_new, err, f_new = step
        if lane.advance(err, z, z_new, _WHOLE):
            z, f = z_new, f_new  # FSAL: the last stage's row is the next f
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


def solve_lanes(
    rhs: Split,
    fields: list,
    z0: np.ndarray,
    t_samples: np.ndarray,
    rel_tol: float,
    abs_tol: float,
) -> list:
    """Integrate the lanes z0[l] over one shared sample grid, each under its own step control.

    ``rhs`` is a lanes `Split`: its ``coefficients`` bind to the live lanes,
    and its motion and quadrature act on rows of lanes. ``fields[l]`` is
    lane l's one-run right-hand side, fields[l](t, z), the one `solve`
    steps for that run alone: `_Lane.start` evaluates each lane's first
    derivative and initial step with it, so each lane starts exactly as
    its run does. Each attempt does the elementwise arithmetic and the DP5
    weight products of all active lanes at once, as stacked matmuls that
    run the same per-lane BLAS calls as `solve`. Each lane's step control
    is a `_Lane`, as in `solve`, so every lane gets exactly the bits
    `solve` gives it alone, unless m is 5: `solve` steps such states in
    floats, and `dynamics` does not make lanes of them. The error norms are
    computed for every row, row by row, so a finite lane's norm does not
    depend on the others; then one pass over the lanes concludes each
    attempt. Lanes that did not stay finite, finished or failed leave the
    arrays at once, and the others run on.

    Returns one entry per lane: ``(samples, stats)`` as `solve` returns them,
    or the IntegrationError `solve` raises on that lane alone. Exceptions
    raised by the right-hand sides propagate. The samples of all lanes
    share one (lanes, samples, m) buffer.
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

    K = np.zeros((L, len(_A) + 1, m))
    go = []  # the rows of the lanes that go on to the next attempt
    for i, (ln, field) in enumerate(zip(lanes, fields)):
        try:
            K[i, 0] = ln.start(field, Z[i], rel_tol, abs_tol)
            go.append(i)
        except IntegrationError as exc:
            results[i] = exc
    attempt = _lanes_attempt(rhs.motion, rhs.quadrature)
    live, at = range(L), None
    while True:
        # lanes that finished or failed leave the arrays, and each live set
        # is bound before its first attempt
        if at is None or len(go) < len(live):
            live, Z, K = [live[p] for p in go], Z[go], K[go]
            if not live:
                return results
            at = rhs.coefficients(np.array(live))
            running = [lanes[i] for i in live]
        Hc = np.array([ln.h_try for ln in running])[:, None]
        Z_new = attempt(np.array([ln.t for ln in running]), Hc,
                        np.array([ln.t_new for ln in running]), Z, K, at)
        # row by row, so a finite lane's norm is the same whatever the others hold
        sc = abs_tol + rel_tol * np.maximum(np.abs(Z), np.abs(Z_new))
        v = Hc * np.matmul(_E, K) / sc
        errs = np.sqrt(np.add.reduce(v * v, axis=1) / m).tolist()
        if not (np.isfinite(Z_new).all() and np.isfinite(K).all()):
            finite = np.isfinite(Z_new).all(axis=1) & np.isfinite(K).all(axis=(1, 2))
            errs = [err if ok else None for err, ok in zip(errs, finite.tolist())]
        accepted, go = [], []
        for p, (i, ln, err) in enumerate(zip(live, running, errs)):
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
        if len(accepted) == len(live):
            Z = Z_new
            K[:, 0] = K[:, -1]
        else:
            Z[accepted] = Z_new[accepted]
            K[accepted, 0] = K[accepted, -1]
