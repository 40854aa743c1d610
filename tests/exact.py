"""Closed-form solutions of the dynamics, as test oracles.

With beta = 0 and a zero schedule, a quadratic objective's Hessian mode of
eigenvalue 1 (every mode of `shifted_quadratic`) obeys, with u = x - c,

    u'' + (alpha/t) u' + u = 0,

whose solutions are u = t^-nu (A J_nu(t) + B Y_nu(t)), nu = (alpha - 1)/2,
with u' = -t^-nu (A J_{nu+1}(t) + B Y_{nu+1}(t)) (from d/ds (s^-nu Z_nu(s))
= -s^-nu Z_{nu+1}(s) for Z = J, Y). A and B follow from u and u' at t0.
mpmath evaluates them at 30 significant digits, far below the float64
rounding of the runs they check.
"""
from functools import lru_cache

import mpmath
import numpy as np

_DPS = 30


@lru_cache(maxsize=None)
def _basis(alpha: float, t0: float, times: tuple) -> tuple:
    """The modes (u, u') at each of times for the initial data (1, 0) and
    (0, 1) at t0, as four float arrays."""
    with mpmath.workdps(_DPS):
        nu = (mpmath.mpf(alpha) - 1) / 2

        def modes(t):
            t = mpmath.mpf(t)
            s = t ** -nu
            return (s * mpmath.besselj(nu, t), s * mpmath.bessely(nu, t),
                    -s * mpmath.besselj(nu + 1, t), -s * mpmath.bessely(nu + 1, t))

        uj, uy, vj, vy = modes(t0)
        inverse = mpmath.matrix([[uj, uy], [vj, vy]]) ** -1
        rows = []
        for t in times:
            wj, wy, dj, dy = modes(t)
            # (A, B) = inverse @ (u0, v0): the columns of inverse are the
            # coefficients of the data (1, 0) and (0, 1)
            rows.append([float(wj * inverse[0, k] + wy * inverse[1, k]) for k in (0, 1)]
                        + [float(dj * inverse[0, k] + dy * inverse[1, k]) for k in (0, 1)])
    return tuple(np.array(col) for col in zip(*rows))


def shifted_quadratic_undamped(alpha: float, t0: float, c, u0, v0, times) -> tuple:
    """x and x' of the beta = 0, zero-schedule run on `shifted_quadratic`
    with centre c from x(t0) = u0, x'(t0) = v0, at times: two arrays of
    shape (len(times), d), component by component."""
    c, u0, v0 = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (c, u0, v0))
    u_a, u_b, v_a, v_b = _basis(float(alpha), float(t0), tuple(np.asarray(times, float).tolist()))
    a, b = u0 - c, v0
    x = c + u_a[:, None] * a + u_b[:, None] * b
    v = v_a[:, None] * a + v_b[:, None] * b
    return x, v
