"""Vanishing regularization schedules and the decay conditions they satisfy.

A schedule is the map t -> eps(t) that multiplies the state inside the
dynamics. The checkers in this module decide, per schedule, which analytic
conditions hold: the damped-decay condition (a) eps'(t) <= -(a*beta/2)*eps^2(t),
the envelope condition (b) eps(t) <= a/t, integrability of eps/t, t*eps and
eps, the growth of t^2*eps(t), and the averaged limit required for strong
convergence to the minimum-norm solution.

Verdict conventions: "holds" carries the smallest grid-certified threshold t1,
"fails" carries a witness time, and tabulated schedules are never certified
beyond their grid ("unknown"). Certification means the inequality was checked
on a geometric grid {t1 * 1.05^k} up to T_CHECK together with the closed-form
tail argument available for the analytic kinds. From t1 >= T_CHECK that grid
is empty: "holds" then rests on the closed form alone, and its note says that
no grid point was checked. A power law's threshold or witness is its closed
form, ratio^(1/exponent); where that exceeds the float range it is inf, and
the verdict keeps the status the closed form gives. A logarithmic schedule
has no closed form: its threshold or witness is searched by doubling t until
the inequality flips, and the verdict is "unknown" if t leaves the float
range first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

T_CHECK = 1e6
_GRID_RATIO = 1.05

FINITE = "finite"
INFINITE = "infinite"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    status: str  # "holds" | "fails" | "unknown"
    t1: Optional[float] = None
    witness: Optional[float] = None
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.status == "holds"


def _holds(t1: float, note: str = "") -> Verdict:
    return Verdict("holds", t1=float(t1), note=note)


def _fails(witness: float, note: str = "") -> Verdict:
    return Verdict("fails", witness=float(witness), note=note)


def _unknown(note: str = "") -> Verdict:
    return Verdict("unknown", note=note)


def _root(ratio: float, exponent: float) -> float:
    """ratio ** (1 / exponent), the closed form of a power law's threshold
    or witness, or inf past the float range, where ** raises."""
    try:
        return ratio ** (1.0 / exponent)
    except OverflowError:
        return math.inf


@dataclass(frozen=True, eq=False)
class TikhonovSchedule:
    """A nonincreasing C^1 regularization weight on [t0, infinity).

    kind is one of "power" (scale * t^-gamma), "logarithmic"
    (1 / log(offset + t)), "zero", or "tabulated" (piecewise-linear on a
    grid, defined only on the grid span).
    """

    kind: str
    t0: float = 1.0
    gamma: float = 0.0
    scale: float = 1.0
    offset: float = math.e
    grid_t: Optional[np.ndarray] = None
    grid_eps: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.t0 <= 0.0:
            raise ValueError("t0 must be positive")
        if self.kind == "power":
            if self.gamma <= 0.0:
                raise ValueError("power schedule needs gamma > 0 (use kind 'zero' otherwise)")
            if self.scale <= 0.0:
                raise ValueError("power schedule needs scale > 0")
        elif self.kind == "logarithmic":
            if self.offset + self.t0 <= 1.0:
                raise ValueError("logarithmic schedule needs offset + t0 > 1")
        elif self.kind == "zero":
            pass
        elif self.kind == "tabulated":
            t = np.asarray(self.grid_t, dtype=float)
            e = np.asarray(self.grid_eps, dtype=float)
            if t.ndim != 1 or t.shape != e.shape or t.shape[0] < 2:
                raise ValueError("tabulated schedule needs matching 1-d grids of length >= 2")
            if np.any(np.diff(t) <= 0):
                raise ValueError("tabulated times must be strictly increasing")
            if np.any(e < 0):
                raise ValueError("tabulated values must be nonnegative")
            if np.any(np.diff(e) > 1e-14 * (1.0 + np.abs(e[:-1]))):
                raise ValueError("tabulated values must be nonincreasing")
            object.__setattr__(self, "grid_t", t)
            object.__setattr__(self, "grid_eps", e)
            object.__setattr__(self, "t0", float(t[0]))
        else:
            raise ValueError(
                f"unknown schedule kind {self.kind!r}; known: power, logarithmic, zero, tabulated"
            )

    def _check_domain(self, t):
        tmin = np.min(t)
        if tmin < self.t0 - 1e-12 * max(1.0, self.t0):
            raise ValueError(f"schedule evaluated at t={tmin:g} below t0={self.t0:g}")
        if self.kind == "tabulated":
            tmax = np.max(t)
            hi = self.grid_t[-1]
            if tmax > hi * (1.0 + 1e-12):
                raise ValueError(f"tabulated schedule evaluated at t={tmax:g} beyond grid end {hi:g}")

    def _eval(self, t):
        """eps at a float or a float array, without the domain check."""
        if self.kind == "power":
            # np.power, not Python's **: the two round differently
            return self.scale * np.power(t, -self.gamma)
        if self.kind == "logarithmic":
            return 1.0 / np.log(self.offset + t)
        if self.kind == "zero":
            return np.zeros_like(t)
        return np.interp(t, self.grid_t, self.grid_eps)

    def eps(self, t):
        """eps(t); accepts scalars or arrays, errors below t0 / beyond a grid.

        The domain is checked on every call. The integrators instead check
        their span once per run and then evaluate through `_span_eps`.
        """
        t_arr = np.asarray(t, dtype=float)
        self._check_domain(t_arr)
        out = self._eval(t_arr)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def _span_eps(self, lo: float, hi: float):
        """Check [lo, hi] against the domain once; return the unchecked
        evaluator `_eval` for times (floats or arrays) in [lo, hi]. An array
        gets, element by element, the bits a float gets."""
        try:
            self._check_domain(np.array([lo, hi], dtype=float))
        except ValueError as exc:
            end = f"{self.grid_t[-1]:g}" if self.kind == "tabulated" else "inf"
            raise ValueError(
                f"schedule domain [{self.t0:g}, {end}] does not cover the run "
                f"[t0, horizon] = [{lo:g}, {hi:g}]: {exc}"
            ) from None
        return self._eval

    def eps_dot(self, t):
        """d eps / dt; piecewise slope for tabulated grids."""
        t_arr = np.asarray(t, dtype=float)
        self._check_domain(t_arr)
        if self.kind == "power":
            out = -self.gamma * self.scale * t_arr ** (-self.gamma - 1.0)
        elif self.kind == "logarithmic":
            u = self.offset + t_arr
            out = -1.0 / (u * np.log(u) ** 2)
        elif self.kind == "zero":
            out = np.zeros_like(t_arr)
        else:
            slopes = np.diff(self.grid_eps) / np.diff(self.grid_t)
            idx = np.clip(np.searchsorted(self.grid_t, t_arr, side="right") - 1, 0, len(slopes) - 1)
            out = slopes[idx]
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def integral_t_eps(self, lo: float, hi: float) -> float:
        """Integral of s*eps(s) over [lo, hi]: closed form for the power and
        zero kinds, Simpson on the grid pieces for a tabulated schedule (exact,
        as t*eps is quadratic on each), Simpson on log-spaced nodes for the
        logarithmic kind."""
        if hi < lo:
            raise ValueError("empty integration interval")
        if self.kind == "zero":
            return 0.0
        if self.kind == "power":
            e = 2.0 - self.gamma
            if abs(e) < 1e-14:
                return self.scale * math.log(hi / lo)
            return self.scale * (hi**e - lo**e) / e
        if self.kind == "tabulated":
            # t*eps is quadratic on each grid piece, where Simpson is exact;
            # eps at lo and hi checks the domain
            inner = self.grid_t[(lo < self.grid_t) & (self.grid_t < hi)]
            return _simpson(lambda s: s * self.eps(s), np.union1d([lo, hi], inner))
        # Simpson on a log-spaced grid of 200 points per decade, at least 16 pieces
        n = 2 * max(8, int(200 * max(math.log10(hi / lo), 1e-9) / 2))
        return _simpson(lambda s: s * self.eps(s), np.geomspace(lo, hi, n + 1))


def power_schedule(gamma: float, scale: float = 1.0, t0: float = 1.0) -> TikhonovSchedule:
    return TikhonovSchedule(kind="power", t0=t0, gamma=gamma, scale=scale)


def logarithmic_schedule(offset: float = math.e, t0: float = 1.0) -> TikhonovSchedule:
    return TikhonovSchedule(kind="logarithmic", t0=t0, offset=offset)


def zero_schedule(t0: float = 1.0) -> TikhonovSchedule:
    return TikhonovSchedule(kind="zero", t0=t0)


def tabulated_schedule(times, values) -> TikhonovSchedule:
    return TikhonovSchedule(kind="tabulated", grid_t=np.asarray(times, float), grid_eps=np.asarray(values, float))


def _simpson(f, grid: np.ndarray) -> float:
    """Composite Simpson over the pieces of grid, f evaluated point by point
    at the grid and the piece midpoints; 0.0 when grid[-1] <= grid[0]."""
    if grid[-1] <= grid[0]:
        return 0.0
    vals = np.array([f(g) for g in grid])
    mid = 0.5 * (grid[:-1] + grid[1:])
    vmid = np.array([f(g) for g in mid])
    return float(np.sum((grid[1:] - grid[:-1]) / 6.0 * (vals[:-1] + 4.0 * vmid + vals[1:])))


_CERT_NOTE = "grid-certified on {t1*1.05^k} up to 1e6 with analytic tail"
_CLOSED_FORM_NOTE = "from the closed form alone: t1 >= 1e6, so no grid point was checked"


def _certify(pred, t1: float, fail_note: str = "", how: str = "") -> Verdict:
    """The one certification rule: "holds" from t1 when pred holds on the
    grid {t1 * 1.05^k} up to T_CHECK, else "fails" at the first grid time
    violating it, with fail_note. From t1 >= T_CHECK, inf included, that
    grid is empty and "holds" rests on the closed form alone. A "holds"
    note starts with how, which says how t1 was found where that is not
    the closed form."""
    if t1 >= T_CHECK:
        return _holds(t1, note=how + _CLOSED_FORM_NOTE)
    n = int(math.log(T_CHECK / t1) / math.log(_GRID_RATIO)) + 1
    grid = t1 * _GRID_RATIO ** np.arange(n + 1)
    grid = grid[grid <= T_CHECK * (1.0 + 1e-12)]
    bad = np.nonzero(~pred(grid))[0]
    if bad.size:
        return _fails(grid[bad[0]], note=fail_note)
    return _holds(t1, note=how + _CERT_NOTE)


def check_condition_a(s: TikhonovSchedule, beta: float, a: float) -> Verdict:
    """eps'(t) <= -(a*beta/2) * eps(t)^2 for all t beyond some threshold."""
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    if beta > 0.0 and a <= 1.0:
        raise ValueError("the damped-decay condition requires a > 1 when beta > 0")
    if beta == 0.0 or s.kind == "zero":
        # right-hand side vanishes (or both sides do); monotone eps settles it
        return _holds(s.t0, note="degenerate: right-hand side is zero and eps is nonincreasing")
    rhs_coeff = 0.5 * a * beta

    def pred(ts: np.ndarray) -> np.ndarray:
        rhs = -rhs_coeff * np.asarray(s.eps(ts)) ** 2
        # relative slack absorbs roundoff at exact-equality thresholds
        return s.eps_dot(ts) <= rhs + 1e-12 * (1.0 + np.abs(rhs))

    if s.kind == "power":
        # need gamma * t^(gamma-1) >= (a*beta/2) * scale
        target = rhs_coeff * s.scale
        if s.gamma > 1.0:
            t1 = max(s.t0, _root(target / s.gamma, s.gamma - 1.0))
            return _certify(pred, t1, "grid check contradicts closed form")
        if s.gamma == 1.0:
            if s.gamma >= target:
                return _certify(pred, s.t0)
            return _fails(s.t0, note="gamma=1: inequality fails uniformly")
        # gamma < 1: left side decays, eventually fails
        if s.gamma * s.t0 ** (s.gamma - 1.0) < target:
            return _fails(s.t0)
        witness = 2.0 * _root(s.gamma / target, 1.0 - s.gamma)
        return _fails(max(witness, s.t0), note="t^(gamma-1) decays below the required level")
    if s.kind == "logarithmic":
        # reduces to offset + t <= 2/(a*beta): fails for large t
        bound = 2.0 / (a * beta)
        witness = max(s.t0, 2.0 * max(bound - s.offset, s.t0))
        return _fails(witness, note="1/(offset+t) eventually drops below a*beta/2")
    # tabulated: can refute on the grid, never certify beyond it
    mids = 0.5 * (s.grid_t[:-1] + s.grid_t[1:])
    bad = ~pred(mids)
    if np.any(bad):
        return _fails(float(mids[np.nonzero(bad)[0][0]]), note="violated inside the tabulated grid")
    return _unknown("holds on the tabulated grid; tail behaviour unknown beyond it")


def check_condition_b(s: TikhonovSchedule, a: float) -> Verdict:
    """eps(t) <= a/t for all t beyond some threshold."""
    if a <= 0.0:
        raise ValueError("the envelope condition requires a > 0")

    def pred(ts: np.ndarray) -> np.ndarray:
        return ts * np.asarray(s.eps(ts)) <= a * (1.0 + 1e-12)

    if s.kind == "zero":
        return _holds(s.t0, note="eps is identically zero")
    if s.kind == "power":
        # scale * t^(1-gamma) <= a
        if s.gamma > 1.0:
            t1 = max(s.t0, _root(s.scale / a, s.gamma - 1.0))
            return _certify(pred, t1, "grid check contradicts closed form")
        if s.gamma == 1.0:
            if s.scale <= a:
                return _holds(s.t0, note="t*eps is constant at scale <= a")
            return _fails(s.t0, note="t*eps is constant at scale > a")
        witness = max(s.t0, 2.0 * _root(a / s.scale, 1.0 - s.gamma))
        return _fails(witness, note="t*eps grows like t^(1-gamma)")
    if s.kind == "logarithmic":
        # need t <= a*log(offset+t): fails once t outgrows the logarithm
        t = max(s.t0, 1.0)
        while t <= a * math.log(s.offset + t):
            t *= 2.0
            if t == math.inf:
                return _unknown("t/log(offset+t) exceeds a only past the float range")
        return _fails(t, note="t/log(offset+t) is unbounded")
    bad = ~pred(s.grid_t)
    if np.any(bad):
        return _fails(float(s.grid_t[np.nonzero(bad)[0][0]]), note="violated inside the tabulated grid")
    return _unknown("holds on the tabulated grid; tail behaviour unknown beyond it")


@dataclass(frozen=True)
class IntegralClassification:
    int_eps_over_t: str
    int_t_eps: str
    int_eps: str


def classify_integrals(s: TikhonovSchedule) -> IntegralClassification:
    """Finiteness of the improper integrals of eps/t, t*eps and eps on [t0, inf)."""
    if s.kind == "zero":
        return IntegralClassification(FINITE, FINITE, FINITE)
    if s.kind == "power":
        # power-law integrand t^e converges at infinity iff e < -1
        def cls(exponent: float) -> str:
            return FINITE if exponent < -1.0 else INFINITE

        return IntegralClassification(cls(-s.gamma - 1.0), cls(1.0 - s.gamma), cls(-s.gamma))
    if s.kind == "logarithmic":
        # 1/(t log t) already diverges; the larger integrands follow
        return IntegralClassification(INFINITE, INFINITE, INFINITE)
    return IntegralClassification(UNKNOWN, UNKNOWN, UNKNOWN)


def t2eps_threshold(alpha: float, beta: float, c: float) -> float:
    """Lower bound required of t^2*eps(t) in the strong-convergence setting."""
    return (2.0 / 3.0) * alpha * (alpha / 3.0 - 1.0 + beta * c * c)


def check_t2eps_growth(s: TikhonovSchedule, alpha: float, beta: float, c: float = 1.0) -> Verdict:
    """alpha = 3: t^2*eps -> infinity; alpha > 3: eventual bound t^2*eps >= threshold."""
    if alpha < 3.0:
        raise ValueError("the growth condition is formulated for alpha >= 3")
    if s.kind == "zero":
        return _fails(s.t0, note="eps is identically zero")
    if alpha == 3.0:
        if s.kind == "power":
            if s.gamma < 2.0:
                return _holds(s.t0, note=f"t^2*eps grows like t^{2.0 - s.gamma:g}")
            if s.gamma == 2.0:
                return _fails(s.t0, note=f"t^2*eps is constant at {s.scale:g}")
            return _fails(s.t0, note="t^2*eps decays")
        if s.kind == "logarithmic":
            return _holds(s.t0, note="t^2/log(offset+t) diverges")
        return _unknown("divergence cannot be decided from a finite grid")
    bound = t2eps_threshold(alpha, beta, c)

    def pred(ts: np.ndarray) -> np.ndarray:
        return ts * ts * np.asarray(s.eps(ts)) >= bound * (1.0 - 1e-12)

    if s.kind == "power":
        if s.gamma < 2.0:
            t1 = max(s.t0, _root(bound / s.scale, 2.0 - s.gamma))
            return _certify(pred, t1, "grid check contradicts closed form")
        if s.gamma == 2.0:
            if s.scale >= bound:
                return _holds(s.t0, note="t^2*eps is constant above the threshold")
            return _fails(s.t0, note=f"t^2*eps is constant at {s.scale:g} < {bound:g}")
        return _fails(max(s.t0, _root(s.scale / bound, s.gamma - 2.0)) * 2.0,
                      note="t^2*eps decays below any positive threshold")
    if s.kind == "logarithmic":
        # t^2*eps = t^2/log(offset+t) grows without bound. It does not
        # decrease where 2(offset + t) log(offset + t) >= t, a condition that
        # once met stays met (its left side less t grows for offset + t > 1)
        # and is met from offset + t >= 3 and t >= -2 offset on
        t1, start = max(s.t0, 1.0), "max(t0, 1)"
        if 2.0 * (s.offset + t1) * math.log(s.offset + t1) < t1:
            t1, start = max(3.0 - s.offset, -2.0 * s.offset), "max(3 - offset, -2 offset)"
        while t1 * t1 < bound * math.log(s.offset + t1):
            t1 *= 2.0
        if t1 * t1 == math.inf:
            return _unknown("t^2*eps reaches the threshold only past the float range")
        how = f"t1 is the first of {start} * 2^k with t1^2 >= threshold * log(offset + t1); "
        return _certify(pred, t1, "grid check contradicts the doubling search", how=how)
    if not pred(s.grid_t[-1:])[0]:
        return _unknown("below the threshold at the grid end; tail unknown")
    return _unknown("eventual lower bound cannot be certified from a finite grid")


def check_limit_condition(s: TikhonovSchedule, alpha: float, beta: float) -> Verdict:
    """Averaged limit: beta / (eps(t) t^(alpha/3+1)) * int eps^2 s^(alpha/3+1) ds -> 0."""
    if alpha < 3.0:
        raise ValueError("the averaged limit is formulated for alpha >= 3")
    if beta == 0.0 and s.kind != "zero":
        return _holds(s.t0, note="beta = 0 makes the expression identically zero")
    if s.kind == "zero":
        return _fails(s.t0, note="eps is identically zero; the averaged ratio is undefined")
    m = alpha / 3.0 + 1.0
    if s.kind == "power":
        g = s.gamma
        if g <= 1.0:
            return _fails(s.t0, note=f"ratio behaves like t^{1.0 - g:g} (log t at gamma=1), no decay")
        if g < m:
            rate = min(g - 1.0, m - g)
            return _holds(s.t0, note=f"ratio decays like t^-{rate:g}")
        if g == m:
            return _fails(s.t0, note="ratio tends to a positive constant")
        return _fails(s.t0, note="numerator integral converges while eps*t^(alpha/3+1) stays bounded")
    if s.kind == "logarithmic":
        return _fails(s.t0, note="ratio grows like t/log t")
    # tabulated: report the trend of the ratio over the grid
    t, e = s.grid_t, s.grid_eps
    w = e * e * t**m
    num = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(t))])
    denom = e * t**m
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(denom > 0, beta * num / denom, np.inf)
    return _unknown(f"ratio at grid end: {float(ratio[-1]):.3e}; limit undecidable from finite data")


def check_sufficient_pair(s: TikhonovSchedule, alpha: float) -> Verdict:
    """Sufficient pair: int eps < inf and t^(alpha/3+1)*eps(t) eventually nondecreasing."""
    m = alpha / 3.0 + 1.0
    ints = classify_integrals(s)
    if s.kind == "power":
        if ints.int_eps != FINITE:
            return _fails(s.t0, note="int eps dt diverges")
        if s.gamma <= m:
            note = "t^(alpha/3+1)*eps is nondecreasing"
            if s.gamma == m:
                note += " (constant); note eps*t^(alpha/3+1) does not diverge"
            return _holds(s.t0, note=note)
        return _fails(s.t0, note="t^(alpha/3+1)*eps is eventually decreasing")
    if s.kind == "logarithmic":
        return _fails(s.t0, note="int eps dt diverges")
    if s.kind == "zero":
        return _holds(s.t0, note="vacuous: eps*t^(alpha/3+1) is identically zero and never diverges")
    return _unknown("pair undecidable from a finite grid")


@dataclass(frozen=True)
class HypothesisReport:
    """Structured verdicts for one schedule under fixed (alpha, beta, a, c)."""

    alpha: float
    beta: float
    a: float
    c: float
    cond_a: Verdict
    cond_b: Verdict
    int_eps_over_t: str
    int_t_eps: str
    int_eps: str
    t2eps_growth: Verdict
    limit_condition: Verdict
    sufficient_pair: Verdict
    applicable_theorems: tuple = ()
    notes: tuple = ()


def applicable_theorems_from(
    alpha: float,
    cond_a: Verdict,
    cond_b: Verdict,
    int_eps_over_t: str,
    int_t_eps: str,
    t2eps_growth: Verdict,
    limit_condition: Verdict,
) -> tuple:
    """Recompute the applicable-theorem set from individual verdicts."""
    out = []
    either = cond_a.holds or cond_b.holds
    if alpha >= 3.0 and ((cond_a.holds and int_eps_over_t == FINITE) or cond_b.holds):
        out.append("function_values_converge")
    if alpha >= 3.0 and int_t_eps == FINITE and either:
        out.append("gap_rate_O_inverse_t2")
    if alpha > 3.0 and int_t_eps == FINITE and either:
        out.append("gap_rate_o_inverse_t2")
        out.append("trajectory_weak_convergence")
    if alpha > 0.0 and int_eps_over_t == INFINITE:
        out.append("ergodic_strong_convergence")
    if (
        alpha >= 3.0
        and int_eps_over_t == FINITE
        and cond_a.holds
        and limit_condition.holds
        and t2eps_growth.holds
    ):
        out.append("strong_convergence_min_norm")
    return tuple(out)


def check_strong_convergence_hypotheses(
    s: TikhonovSchedule,
    alpha: float,
    beta: float,
    a: float = 2.0,
    c: float = 1.0,
) -> HypothesisReport:
    """Evaluate every schedule hypothesis for fixed (alpha, beta, a, c).

    `a` parametrizes the damped-decay condition (a); the envelope condition
    (b) is checked with constant 1; `c` enters the alpha > 3 growth threshold.
    """
    if alpha < 3.0:
        raise ValueError("strong-convergence hypotheses require alpha >= 3")
    ints = classify_integrals(s)
    cond_a = check_condition_a(s, beta, a)
    cond_b = check_condition_b(s, 1.0)
    growth = check_t2eps_growth(s, alpha, beta, c)
    limit = check_limit_condition(s, alpha, beta)
    pair = check_sufficient_pair(s, alpha)
    notes = []
    if s.kind == "power" and 1.0 < s.gamma < 2.0 and ints.int_t_eps == INFINITE:
        notes.append(
            "t^-gamma with gamma in (1,2) satisfies the averaged-limit and pair "
            "conditions while int t*eps(t) dt is infinite; conclusions that "
            "require that integral are not implied for this family"
        )
    theorems = applicable_theorems_from(
        alpha, cond_a, cond_b, ints.int_eps_over_t, ints.int_t_eps, growth, limit
    )
    return HypothesisReport(
        alpha=alpha,
        beta=beta,
        a=a,
        c=c,
        cond_a=cond_a,
        cond_b=cond_b,
        int_eps_over_t=ints.int_eps_over_t,
        int_t_eps=ints.int_t_eps,
        int_eps=ints.int_eps,
        t2eps_growth=growth,
        limit_condition=limit,
        sufficient_pair=pair,
        applicable_theorems=theorems,
        notes=tuple(notes),
    )


def crossing_time_on_grid(s: TikhonovSchedule, bound: float, times: np.ndarray) -> Optional[float]:
    """Smallest grid time with t^2*eps(t) >= bound, or None."""
    times = np.asarray(times, dtype=float)
    ok = times * times * s.eps(times) >= bound * (1.0 - 1e-15)
    idx = np.nonzero(ok)[0]
    return float(times[idx[0]]) if idx.size else None
