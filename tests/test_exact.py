"""Global error against the closed-form solutions of `exact`.

Each case runs the beta = 0, zero-schedule `shifted_quadratic` from t0 = 1
to T = 300 at the default abs_tol and bounds max |x - exact| / (1 + |exact|)
over the samples and components, and the same for x'. A bound is a multiple
of rel_tol, set about 20% above the error that was measured when the bound
was written, so that a change which makes a run less accurate fails here even
if its golden hashes were regenerated. At rel_tol 1e-12 abs_tol (1e-12)
governs the step once x is near its limit, so that error is tens of rel_tol.
"""
import numpy as np
import pytest

from tikhoflow import DynamicsConfig, builtin, integrate, zero_schedule
from tikhoflow.dynamics import integrate_lanes

from exact import shifted_quadratic_undamped

# rel_tol -> bounds on (x, x') as multiples of rel_tol; measured:
# d = 1: 0.106, 0.200 at 1e-9 and 24.2, 45.7 at 1e-12;
# d = 3: 0.210, 0.581 at 1e-9 and 22.7, 65.9 at 1e-12
BOUNDS_1D = {1e-9: (0.13, 0.24), 1e-12: (29.0, 55.0)}
BOUNDS_3D = {1e-9: (0.25, 0.7), 1e-12: (27.0, 79.0)}


def _config(rel_tol: float, u0, v0) -> DynamicsConfig:
    return DynamicsConfig(alpha=3.0, beta=0.0, t0=1.0, u0=u0, v0=v0, horizon=300.0,
                          rel_tol=rel_tol, sample_count=60)


def _errors(traj, c, cfg) -> tuple:
    x, v = shifted_quadratic_undamped(cfg.alpha, cfg.t0, c, cfg.u0, cfg.v0, traj.t)
    return tuple(float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))
                 for got, want in ((traj.x, x), (traj.v, v)))


@pytest.mark.parametrize("rel_tol", sorted(BOUNDS_1D))
def test_one_dimensional_run_follows_the_bessel_solution(rel_tol):
    c = [1.0]
    cfg = _config(rel_tol, [2.0], [0.0])
    traj = integrate(builtin("shifted_quadratic", c=np.array(c)), zero_schedule(), cfg)
    err_x, err_v = _errors(traj, c, cfg)
    bound_x, bound_v = BOUNDS_1D[rel_tol]
    assert err_x <= bound_x * rel_tol and err_v <= bound_v * rel_tol, (err_x, err_v)


@pytest.mark.parametrize("rel_tol", sorted(BOUNDS_3D))
def test_three_dimensional_lane_follows_the_bessel_modes(rel_tol):
    # each component is its own mode around c; the run steps as a lane,
    # twice, since a lone run does not take the lanes
    c = [1.0, -2.0, 0.5]
    cfg = _config(rel_tol, [2.0, 2.0, -1.0], [0.0, 1.0, 0.5])
    lanes = integrate_lanes(builtin("shifted_quadratic", c=np.array(c)), [(zero_schedule(), cfg)] * 2)
    bound_x, bound_v = BOUNDS_3D[rel_tol]
    for traj in lanes:
        err_x, err_v = _errors(traj, c, cfg)
        assert err_x <= bound_x * rel_tol and err_v <= bound_v * rel_tol, (err_x, err_v)
