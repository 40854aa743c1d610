import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tikhoflow import builtin, min_norm_solution
from tikhoflow.problems import ObjectiveSpec

from helpers import central_gradient, central_hvp


@pytest.fixture(scope="module")
def suite():
    return {
        "paper1d": builtin("paper1d"),
        "shifted_quadratic": builtin("shifted_quadratic", c=np.array([1.0, 2.0])),
        "psd_quadratic": builtin("psd_quadratic", A=np.array([[2.0, 0.0], [0.0, 1.0]]), b=np.array([2.0, 1.0])),
        "least_squares": builtin("least_squares", A=np.array([[1.0, 1.0]]), b=np.array([2.0])),
    }


def test_paper1d_values_on_the_cubic_piece():
    obj = builtin("paper1d")
    x = np.array([2.0])
    val, grad = obj.value(x), obj.gradient(x)
    assert val == 1.0
    assert grad[0] == 3.0


def test_paper1d_flat_region():
    obj = builtin("paper1d")
    x = np.array([0.5])
    val, grad = obj.value(x), obj.gradient(x)
    assert val == 0.0
    assert grad[0] == 0.0


def test_quadratic_evaluate():
    obj = builtin("shifted_quadratic", c=np.zeros(2))
    x = np.array([3.0, 4.0])
    val, grad = obj.value(x), obj.gradient(x)
    assert val == pytest.approx(12.5, abs=0)
    assert np.array_equal(grad, np.array([3.0, 4.0]))


def test_hvp_identity_for_quadratic():
    obj = builtin("shifted_quadratic", c=np.array([5.0, -1.0]))
    v = np.array([0.3, -0.7])
    for x in (np.zeros(2), np.array([10.0, 3.0])):
        assert np.array_equal(obj.hessian_vec(x, v), v)


def test_hvp_paper1d_against_finite_differences():
    obj = builtin("paper1d")
    # second derivative of the cubic piece at x=2 is 6
    got = obj.hessian_vec(np.array([2.0]), np.array([1.0]))
    assert got[0] == pytest.approx(6.0, rel=1e-12)
    fd = central_hvp(obj.gradient, np.array([2.0]), np.array([1.0]))
    assert got[0] == pytest.approx(fd[0], rel=1e-6)
    # flat piece: vanishing curvature
    got0 = obj.hessian_vec(np.array([0.0]), np.array([1.0]))
    assert got0[0] == 0.0
    fd0 = central_hvp(obj.gradient, np.array([0.0]), np.array([1.0]))
    assert abs(fd0[0]) <= 1e-9


def test_builtin_paper1d_metadata():
    obj = builtin("paper1d")
    assert obj.dimension == 1
    assert obj.min_value == 0.0
    assert np.array_equal(min_norm_solution(obj), np.array([0.0]))
    assert obj.value(np.array([-1.0])) - obj.min_value <= 1e-12
    assert obj.value(np.array([1.0])) - obj.min_value <= 1e-12
    assert obj.value(np.array([1.1])) - obj.min_value > 1e-12


def test_builtin_shifted_quadratic_min_norm():
    obj = builtin("shifted_quadratic", c=np.array([1.0, 2.0]))
    assert np.array_equal(min_norm_solution(obj), np.array([1.0, 2.0]))


def test_builtin_least_squares_min_norm_pseudoinverse():
    A = np.array([[1.0, 1.0]])
    b = np.array([2.0])
    obj = builtin("least_squares", A=A, b=b)
    xhat = min_norm_solution(obj)
    assert np.allclose(xhat, np.array([1.0, 1.0]), atol=1e-12)
    # solves the system and is orthogonal to the null direction (1, -1)
    assert np.allclose(A @ xhat, b, atol=1e-12)
    assert abs(xhat @ np.array([1.0, -1.0])) <= 1e-12
    assert np.allclose(xhat, np.linalg.pinv(A) @ b, atol=1e-14)


def test_builtin_psd_quadratic():
    A = np.array([[2.0, 0.0], [0.0, 1.0]])
    b = np.array([2.0, 1.0])
    obj = builtin("psd_quadratic", A=A, b=b)
    assert np.allclose(min_norm_solution(obj), np.array([1.0, 1.0]))
    assert obj.min_value == pytest.approx(-1.5)
    x = np.array([1.0, 1.0])
    val, grad = obj.value(x), obj.gradient(x)
    assert val == pytest.approx(obj.min_value)
    assert np.linalg.norm(grad) <= 1e-12


@pytest.mark.parametrize("name, params", [
    ("paper1d", {"c": 1.0}),
    ("shifted_quadratic", {}),
    ("psd_quadratic", {"A": np.eye(2)}),
    ("least_squares", {"A": np.eye(2), "b": np.ones(2), "c": 1.0}),
])
def test_builtin_rejects_a_wrong_parameter_set(name, params):
    with pytest.raises(ValueError, match=f"^{name} takes exactly the parameters "):
        builtin(name, **params)


def test_builtin_rejects_unknown_and_indefinite():
    with pytest.raises(ValueError, match="unknown problem"):
        builtin("nosuch")
    with pytest.raises(ValueError, match="indefinite"):
        builtin("psd_quadratic", A=np.array([[1.0, 0.0], [0.0, -1.0]]), b=np.zeros(2))
    with pytest.raises(ValueError, match="unbounded"):
        builtin("psd_quadratic", A=np.array([[1.0, 0.0], [0.0, 0.0]]), b=np.array([0.0, 1.0]))


def test_min_norm_unavailable():
    obj = ObjectiveSpec(
        dimension=1,
        value=lambda x: float(x[0] ** 2),
        gradient=lambda x: 2 * x,
        hessian_vec=lambda x, v: 2 * v,
        min_value=0.0,
    )
    with pytest.raises(ValueError, match="minimum-norm"):
        min_norm_solution(obj)


def _sample_points(obj, count=50):
    rng = np.random.default_rng(1234)
    return rng.uniform(-3.0, 3.0, size=(count, obj.dimension))


def test_gradient_matches_finite_differences(suite):
    for name, obj in suite.items():
        for x in _sample_points(obj):
            analytic = np.asarray(obj.gradient(x))
            fd = central_gradient(obj.value, x)
            scale = 1.0 + np.linalg.norm(analytic)
            assert np.linalg.norm(analytic - fd) <= 1e-6 * scale, name


def test_hvp_linearity_and_symmetry(suite):
    rng = np.random.default_rng(99)
    for name, obj in suite.items():
        d = obj.dimension
        for _ in range(50):
            x = rng.uniform(-3, 3, d)
            u, v = rng.uniform(-1, 1, d), rng.uniform(-1, 1, d)
            a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
            lin = obj.hessian_vec(x, a * u + b * v)
            ref = a * obj.hessian_vec(x, u) + b * obj.hessian_vec(x, v)
            assert np.linalg.norm(lin - ref) <= 1e-12 * (1 + np.linalg.norm(ref)), name
            sym1 = obj.hessian_vec(x, u) @ v
            sym2 = obj.hessian_vec(x, v) @ u
            assert abs(sym1 - sym2) <= 1e-10 * (1 + abs(sym1)), name
            quad = obj.hessian_vec(x, v) @ v
            assert quad >= -1e-10 * (v @ v), name


def test_hvp_matches_gradient_finite_differences(suite):
    rng = np.random.default_rng(7)
    for name, obj in suite.items():
        d = obj.dimension
        for _ in range(50):
            x = rng.uniform(-3, 3, d)
            v = rng.uniform(-1, 1, d)
            got = obj.hessian_vec(x, v)
            fd = central_hvp(obj.gradient, x, v)
            assert np.linalg.norm(got - fd) <= 1e-5 * (1 + np.linalg.norm(got)), name


def test_gradient_vanishes_at_known_minimizers(suite):
    for name, obj in suite.items():
        x = min_norm_solution(obj)
        grad = np.asarray(obj.gradient(x))
        assert np.linalg.norm(grad) <= 1e-12 * (1 + np.linalg.norm(x)), name


def test_min_norm_lies_in_argmin_and_is_smallest(suite):
    rng = np.random.default_rng(5)
    for name, obj in suite.items():
        xstar = min_norm_solution(obj)
        gap = obj.value(xstar) - obj.min_value
        assert gap <= 1e-12 * (1 + abs(obj.min_value)), name
        if name == "paper1d":
            others = rng.uniform(-1, 1, size=(30, 1))
        elif name == "least_squares":
            null = np.array([1.0, -1.0]) / np.sqrt(2.0)
            others = xstar + rng.uniform(-2, 2, size=(30, 1)) * null
        else:
            others = np.tile(xstar, (2, 1))
        for other in others:
            assert obj.value(other) - obj.min_value <= 1e-12 * (1 + abs(obj.min_value)), name
            assert np.linalg.norm(xstar) <= np.linalg.norm(other) + 1e-12, name


def test_paper1d_is_c2_at_the_seams():
    # value, first and second derivatives of the cubic pieces vanish at +-1
    for seam, piece in ((1.0, lambda s: (s - 1.0) ** 3), (-1.0, lambda s: -((s + 1.0) ** 3))):
        assert piece(seam) == 0.0
    # derivative pieces: 3(x-1)^2 and -3(x+1)^2; second: 6(x-1), -6(x+1)
    assert 3.0 * (1.0 - 1.0) ** 2 == 0.0
    assert -3.0 * (-1.0 + 1.0) ** 2 == 0.0
    assert 6.0 * (1.0 - 1.0) == 0.0
    assert -6.0 * (-1.0 + 1.0) == 0.0
    obj = builtin("paper1d")
    for seam in (-1.0, 1.0):
        val, grad = obj.value(np.array([seam])), obj.gradient(np.array([seam]))
        assert val == 0.0 and grad[0] == 0.0
        assert obj.hessian_vec(np.array([seam]), np.array([1.0]))[0] == 0.0


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(-4, 4),
    u=st.floats(-2, 2),
    v=st.floats(-2, 2),
    a=st.floats(-3, 3),
    b=st.floats(-3, 3),
)
def test_hvp_linearity_property_paper1d(x, u, v, a, b):
    obj = builtin("paper1d")
    xa, ua, va = np.array([x]), np.array([u]), np.array([v])
    lin = obj.hessian_vec(xa, a * ua + b * va)
    ref = a * obj.hessian_vec(xa, ua) + b * obj.hessian_vec(xa, va)
    assert np.linalg.norm(lin - ref) <= 1e-12 * (1 + np.linalg.norm(ref))


# -- row forms --------------------------------------------------------------
# Every builtin's gradient and value also take rows X (n, d); they must give,
# bit for bit, what the one-point forms give row by row, since the lanes and
# the sample finishing call them on rows while `run` steps the one-point form.


def _assert_rows_match_points(obj, X):
    assert obj.rows
    with np.errstate(over="ignore", invalid="ignore"):
        G, V = obj.gradient(X), obj.value(X)
        G_ref = np.array([obj.gradient(x) for x in X])
        V_ref = np.array([obj.value(x) for x in X])
    assert G.shape == X.shape and G.dtype == np.float64
    assert V.shape == X.shape[:1] and V.dtype == np.float64
    assert G.tobytes() == G_ref.tobytes()
    assert V.tobytes() == V_ref.tobytes()


def _as_lane_rows(X):
    # the x columns of a wider state array, as the lanes and `_finish` pass them
    Z = np.zeros((X.shape[0], 2 * X.shape[1] + 3))
    Z[:, : X.shape[1]] = X
    return Z[:, : X.shape[1]]


def test_paper1d_rows_match_points_at_the_seams_and_beyond():
    seams = [1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0),
             np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0), 0.0, -0.0, np.nan,
             1e154, -1e154, 1.5e154, -1.5e154, 1e200, -1e200, 1.7e308, -1.7e308,
             np.inf, -np.inf, 1.0 + 1e-300, -1.0 - 2.0**-52, 1.0 + 2.0**-30, -1.0 - 2.0**-30]
    obj = builtin("paper1d")
    X = np.array(seams)[:, None]
    _assert_rows_match_points(obj, X)
    _assert_rows_match_points(obj, _as_lane_rows(X))
    # the flat part gives +0.0, as the one-point forms do, also for -0.0 and NaN
    flat = obj.gradient(np.array([[-0.0], [np.nan], [-0.5]]))
    assert flat.tobytes() == np.zeros((3, 1)).tobytes()


@pytest.mark.parametrize("lo, hi", [(-3.0, 3.0), (-1e8, 1e8), (-1.0 - 1e-9, 1.0 + 1e-9)])
def test_paper1d_rows_match_points_on_draws(lo, hi):
    X = np.random.default_rng(11).uniform(lo, hi, (20000, 1))
    _assert_rows_match_points(builtin("paper1d"), _as_lane_rows(X))


def test_quadratic_rows_match_points():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((60, 60))
    for obj, d in (
        (builtin("shifted_quadratic", c=rng.standard_normal(3)), 3),
        (builtin("psd_quadratic", A=M @ M.T, b=M @ rng.standard_normal(60)), 60),
        (builtin("psd_quadratic", A=np.array([[1.0, 1.0], [1.0, 1.0]]), b=np.array([1.0, 1.0])), 2),
    ):
        X = rng.standard_normal((500, d)) * 10.0
        _assert_rows_match_points(obj, X)
        _assert_rows_match_points(obj, _as_lane_rows(X))


def test_least_squares_40x60_rows_match_points():
    # a stacked gemv per row keeps the per-row bits; X @ A.T, one gemm,
    # would not at this size
    rng = np.random.default_rng(0)
    obj = builtin("least_squares", A=rng.standard_normal((40, 60)), b=rng.standard_normal(40))
    X = rng.standard_normal((500, 60))
    _assert_rows_match_points(obj, X)
    _assert_rows_match_points(obj, _as_lane_rows(X))
    _assert_rows_match_points(obj, X[:1])


# -- float gradients -----------------------------------------------------------

FLOAT_EDGES = [1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), np.nextafter(-1.0, -2.0),
               np.nextafter(-1.0, 0.0), 0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310,
               1e154, -1e154, 1e155, -1e155, 1e200, -1e200, 1.7976931348623157e308,
               -1.7976931348623157e308, np.inf, -np.inf, np.nan]


def _float_gradient_objectives():
    return [builtin("paper1d"), builtin("shifted_quadratic", c=np.array([1.0])),
            builtin("shifted_quadratic", c=np.array([-0.3]))]


def _assert_float_gradient_matches(obj, points):
    # bit for bit the one-point and the row gradient; the float form raises
    # nothing, also where the array forms overflow
    g = obj.gradient_float
    for s in points:
        got = g(float(s))
        assert type(got) is float
        with np.errstate(over="ignore"):
            point = obj.gradient(np.array([s])).item()
            row = obj.gradient(np.array([[s]])).item()
        want = np.float64(point).tobytes()
        assert np.float64(got).tobytes() == want == np.float64(row).tobytes(), s


@pytest.mark.parametrize("obj", _float_gradient_objectives(), ids=["paper1d", "c1", "c-0.3"])
def test_float_gradient_matches_array_gradient_on_edges(obj):
    _assert_float_gradient_matches(obj, FLOAT_EDGES)


def test_paper1d_float_gradient_overflows_to_signed_inf():
    # at 1e154 the product overflows, from 1e155 already the power, where
    # Python raises OverflowError and numpy gives inf
    g = builtin("paper1d").gradient_float
    for s in (1e154, 1e155, 1e200):
        assert (g(s), g(-s)) == (np.inf, -np.inf)


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_float_gradient_matches_array_gradient_on_draws(s):
    for obj in _float_gradient_objectives():
        _assert_float_gradient_matches(obj, [s])


def test_only_one_dimensional_builtins_with_a_float_form_carry_one():
    assert builtin("shifted_quadratic", c=np.array([1.0, 2.0])).gradient_float is None
    assert builtin("psd_quadratic", A=np.array([[2.0]]), b=np.array([1.0])).gradient_float is None
    assert builtin("least_squares", A=np.array([[1.0], [2.0]]), b=np.array([1.0, 0.0])).gradient_float is None
    # the float form lives on the gradient: replacing the gradient drops it
    obj = builtin("paper1d")
    assert dataclasses.replace(obj, gradient=lambda x: obj.gradient(x)).gradient_float is None
