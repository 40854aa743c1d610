"""Convex test objectives with analytic gradients, Hessian products and minimizers.

Every builtin carries its exact minimal value and, where the argmin is not a
singleton, the minimum-norm minimizer, so that trajectory diagnostics can be
checked against closed forms.

Every builtin also maps rows: its `gradient` and `value` take rows X (n, d)
as well as one point and give, bit for bit, what they give row by row.
`value` has one form, which on one point x (d,) gives what it gives on the
row x[None], and so has `gradient` for the quadratics. paper1d and least
squares keep a one-point `gradient` beside the row form, which is cheaper
on one point: `run` calls least squares' at every stage. paper1d and the
one-center shifted quadratic also give their gradient as a function of a
Python float (`ObjectiveSpec.gradient_float`), which a run of dimension 1
calls at every stage instead; paper1d's one-point gradient is that
function on x[0], about 7x cheaper than the row form on one point, and
every run calls it for its first derivative and initial step. The
row forms repeat each one-point operation elementwise: paper1d powers
through `np.float_power`, which calls libm `pow` as the scalar `**` does
(`np.square`, which an array's `** 2` calls, differs in the last bit); the
quadratics and least squares multiply by matrices with stacked
`np.matmul(A, X[..., None])`, one BLAS gemv per row as `A @ x` or
`A.dot(x)` makes (`X @ A.T` is one gemm, which rounds differently), and
dot rows with `np.vecdot`, one ddot per row as `np.dot` makes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Vector = np.ndarray


@dataclass(frozen=True, eq=False)
class ObjectiveSpec:
    """A convex, twice differentiable objective on R^d.

    `value`, `gradient` and `hessian_vec` must be mutually consistent;
    `min_value` is the exact minimum and `min_norm_solution`, when present,
    the smallest-norm minimizer. Instances are immutable and safe to share.

    `rows` declares that `gradient` and `value` also map rows X (n, d) to
    gradients (n, d) and values (n,), bit for bit what they give row by row.
    `gradient_rows` and `value_rows` then make one call on the rows; without
    it they call the one-point forms once per row.
    """

    dimension: int
    value: Callable[[Vector], float]
    gradient: Callable[[Vector], Vector]
    hessian_vec: Callable[[Vector, Vector], Vector]
    min_value: float
    min_norm_solution: Optional[Vector] = None
    rows: bool = False

    @property
    def gradient_float(self) -> Optional[Callable[[float], float]]:
        """The gradient at d = 1 as a function of a Python float s, bit for
        bit `gradient(np.array([s])).item()` and raising nothing, if the
        one-point `gradient` carries one as its attribute ``float_form``; a
        run of dimension 1 calls it at every stage. It lives on the
        gradient, so an objective whose gradient is replaced
        (`dataclasses.replace`) loses it with the gradient."""
        return getattr(self.gradient, "float_form", None)

    def gradient_rows(self, X: np.ndarray) -> np.ndarray:
        return self.gradient(X) if self.rows else np.array([self.gradient(x) for x in X])

    def value_rows(self, X: np.ndarray) -> np.ndarray:
        return self.value(X) if self.rows else np.array([self.value(x) for x in X])


def _as_vector(x, dimension: int, name: str = "x") -> Vector:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1 or x.shape[0] != dimension:
        raise ValueError(
            f"{name} has shape {x.shape}, expected vector of dimension {dimension}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def min_norm_solution(obj: ObjectiveSpec) -> Vector:
    """The smallest-norm minimizer; available for all builtins."""
    if obj.min_norm_solution is None:
        raise ValueError("objective does not carry an analytic minimum-norm solution")
    return np.array(obj.min_norm_solution, dtype=float)


# -- builtins ---------------------------------------------------------------


def _stacked(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    # A @ x for each row x of X, one gemv per row
    return np.matmul(A, X[..., None])[..., 0]


# 0-d float64 constants for the row forms: numpy 2 takes a Python float
# operand through its weak-scalar promotion, about 0.3 us more per call at
# the lanes' row counts; the float64 operation, and so every bit, is the same
_ZERO, _ONE, _TWO, _THREE = (np.array(c) for c in (0.0, 1.0, 2.0, 3.0))


def _beyond(X: np.ndarray) -> np.ndarray:
    """s + 1 where s < -1, s - 1 where s > 1 and +0.0 elsewhere (NaN too), for
    each entry s of X: fmin/fmax drop NaN, and u + 0.0 is u for u != 0."""
    u = np.fmin(X + _ONE, _ZERO)
    u += np.fmax(X - _ONE, _ZERO)
    return u


def _paper1d() -> ObjectiveSpec:
    # piecewise cubic, flat on [-1, 1]; C^2 with vanishing derivatives at the seams.
    # On rows, with u = _beyond(x): -(u^3) = |u^3| for u < 0, and -3 u^2 is
    # 3 u^2 with u's sign, as IEEE rounding is symmetric in the sign.
    def value(x: Vector) -> float:
        return np.abs(np.float_power(_beyond(x[..., 0]), _THREE))

    def gradient_float(s: float) -> float:
        try:
            if s < -1.0:
                return -3.0 * (s + 1.0) ** 2
            if s > 1.0:
                return 3.0 * (s - 1.0) ** 2
        except OverflowError:  # Python's ** raises where numpy's gives inf
            return math.copysign(math.inf, s)
        return 0.0

    def gradient(x: Vector) -> Vector:
        if x.ndim > 1:
            u = _beyond(x)
            g = np.float_power(u, _TWO)
            g *= _THREE
            return np.copysign(g, u, out=g)
        return np.array([gradient_float(float(x[0]))])

    gradient.float_form = gradient_float

    def hessian_vec(x: Vector, v: Vector) -> Vector:
        s = x[0]
        if s < -1.0:
            h = -6.0 * (s + 1.0)
        elif s > 1.0:
            h = 6.0 * (s - 1.0)
        else:
            h = 0.0
        return np.array([h * v[0]])

    return ObjectiveSpec(
        dimension=1,
        value=value,
        gradient=gradient,
        hessian_vec=hessian_vec,
        min_value=0.0,
        min_norm_solution=np.array([0.0]),
        rows=True,
    )


def _shifted_quadratic(c) -> ObjectiveSpec:
    c = np.atleast_1d(np.asarray(c, dtype=float))
    d = c.shape[0]

    def value(x: Vector) -> float:
        D = x - c
        return 0.5 * np.vecdot(D, D)

    def gradient(x: Vector) -> Vector:
        return x - c

    if d == 1:
        c0 = c.item()
        gradient.float_form = lambda s: s - c0

    return ObjectiveSpec(
        dimension=d,
        value=value,
        gradient=gradient,
        hessian_vec=lambda x, v: np.array(v, dtype=float),
        min_value=0.0,
        min_norm_solution=c.copy(),
        rows=True,
    )


def _psd_quadratic(A, b) -> ObjectiveSpec:
    A = np.asarray(A, dtype=float)
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be a square matrix")
    d = A.shape[0]
    if b.shape[0] != d:
        raise ValueError("b does not match the dimension of A")
    if not np.allclose(A, A.T, rtol=1e-12, atol=1e-12):
        raise ValueError("A must be symmetric")
    A = 0.5 * (A + A.T)
    eigs = np.linalg.eigvalsh(A)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    if eigs.min() < -1e-10 * scale:
        raise ValueError(f"A is indefinite (smallest eigenvalue {eigs.min():g})")
    xhat = np.linalg.pinv(A) @ b
    if np.linalg.norm(A @ xhat - b) > 1e-8 * (1.0 + np.linalg.norm(b)):
        raise ValueError("b is not in the range of A; the quadratic is unbounded below")

    return ObjectiveSpec(
        dimension=d,
        value=lambda x: 0.5 * np.vecdot(x, _stacked(A, x)) - np.vecdot(x, b),
        gradient=lambda x: _stacked(A, x) - b,
        hessian_vec=lambda x, v: A @ v,
        min_value=-0.5 * float(b @ xhat),
        min_norm_solution=xhat,
        rows=True,
    )


def _least_squares(A, b) -> ObjectiveSpec:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if A.shape[0] != b.shape[0]:
        raise ValueError("row count of A does not match length of b")
    d = A.shape[1]
    xhat = np.linalg.pinv(A) @ b  # minimum-norm least-squares solution
    residual = A @ xhat - b
    At = A.T

    def value(x: Vector) -> float:
        R = _stacked(A, x) - b
        return 0.5 * np.vecdot(R, R)

    def gradient(x: Vector) -> Vector:
        if x.ndim > 1:
            return _stacked(At, _stacked(A, x) - b)
        return At.dot(A.dot(x) - b)

    return ObjectiveSpec(
        dimension=d,
        value=value,
        gradient=gradient,
        hessian_vec=lambda x, v: At @ (A @ v),
        min_value=0.5 * float(residual @ residual),
        min_norm_solution=xhat,
        rows=True,
    )


# each builtin's constructor and parameter names, in the order it takes them
BUILTINS = {
    "paper1d": (_paper1d, ()),
    "shifted_quadratic": (_shifted_quadratic, ("c",)),
    "psd_quadratic": (_psd_quadratic, ("A", "b")),
    "least_squares": (_least_squares, ("A", "b")),
}


def builtin(name: str, **params) -> ObjectiveSpec:
    """Construct the builtin objective `name` from exactly the parameters
    that `BUILTINS` lists for it."""
    if name not in BUILTINS:
        raise ValueError(f"unknown problem name {name!r}; known: {', '.join(BUILTINS)}")
    make, names = BUILTINS[name]
    if set(params) != set(names):
        raise ValueError(f"{name} takes exactly the parameters ({', '.join(names)}), "
                         f"got ({', '.join(params)})")
    return make(*(params[key] for key in names))
