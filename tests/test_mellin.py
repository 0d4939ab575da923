import math

import numpy as np
import pytest

from bnladder import (
    ParameterError,
    SmoothingParams,
    mellin_closed,
    mellin_closed_grid,
    mellin_direct,
    psi,
    zeta_half,
)

ZETA_AT_ZERO = -1.4603545088095868  # frozen high-precision reference


def test_psi_at_origin():
    sm = SmoothingParams(W=5.0, epsilon=1e-6)
    assert psi(np.array([0.0]), sm)[0] == 1.0 + 1e-6


def test_psi_at_width_without_floor():
    sm = SmoothingParams(W=7.0, epsilon=0.0)
    assert psi(np.array([7.0]), sm)[0] == pytest.approx(math.exp(-1.0), rel=1e-15)


@pytest.mark.parametrize("W", [1e-160, 5e-324])
@pytest.mark.parametrize("eps", [0.0, 1e-3])
def test_psi_where_t_over_w_overflows(W, eps):
    """t/W or its square leaves the double range: psi takes the exact limit
    exp(-inf) = 0 and raises no RuntimeWarning (an error under tier-1)."""
    sm = SmoothingParams(W=W, epsilon=eps)
    want = [1.0 + eps, eps, eps]
    assert np.array_equal(psi(np.array([0.0, 1.0, 5000.0]), sm), want)
    assert [psi(t, sm) for t in (0.0, 1.0, 5000.0)] == want


def test_psi_even():
    sm = SmoothingParams(W=5.0, epsilon=0.01)
    assert psi(np.array([-3.0]), sm)[0] == psi(np.array([3.0]), sm)[0]


def test_psi_bounds():
    sm = SmoothingParams(W=2.0, epsilon=0.25)
    vals = psi(np.linspace(-30, 30, 301), sm)
    assert np.all(vals >= 0.25)
    assert np.all(vals <= 1.25)


@pytest.mark.parametrize("w,eps", [(0.0, 0.0), (-1.0, 0.1), (2.0, -0.5)])
def test_smoothing_params_validation(w, eps):
    with pytest.raises(ParameterError):
        SmoothingParams(W=w, epsilon=eps)


def test_closed_form_vanishes_at_unit_theta():
    assert mellin_closed(1.0, 0.0) == 0
    assert mellin_closed(1.0, 7.3) == 0


def test_closed_form_at_origin_arithmetic():
    # s = 1/2, so the prefactor is (theta - sqrt(theta)) / (1/2)
    expected = 2.0 * ZETA_AT_ZERO * (0.5 - math.sqrt(0.5))
    got = mellin_closed(0.5, 0.0)
    assert got.real == pytest.approx(expected, rel=1e-9)
    assert got.imag == pytest.approx(0.0, abs=1e-12)


def test_closed_form_reflection():
    assert mellin_closed(0.5, -3.0) == pytest.approx(
        np.conj(mellin_closed(0.5, 3.0)), rel=1e-12
    )


def test_grid_matches_scalar():
    ts = np.array([0.0, 0.7, 5.0, 19.3])
    grid = mellin_closed_grid(1.0 / 3.0, ts)
    for t, v in zip(ts, grid):
        assert v == pytest.approx(mellin_closed(1.0 / 3.0, float(t)), rel=1e-12)


def test_direct_vanishes_at_unit_theta():
    assert abs(mellin_direct(1.0, 2.0)) <= 1e-6


@pytest.mark.parametrize("theta", [0.5, 1.0 / 3.0, 1.0 / 6.0, 1.0 / 12.0])
@pytest.mark.parametrize("t", [0.0, 1.0, 5.0, 20.0])
def test_direct_matches_closed_form(theta, t):
    closed = mellin_closed(theta, t)
    direct = mellin_direct(theta, t)
    assert abs(closed - direct) / max(1.0, abs(closed)) < 1e-6


def test_direct_honors_explicit_cutoff():
    from bnladder import QuadratureConfig

    loose = mellin_direct(0.5, 1.0, quad=QuadratureConfig(x_min=1e-2))
    tight = mellin_direct(0.5, 1.0, quad=QuadratureConfig(x_min=1e-5))
    closed = mellin_closed(0.5, 1.0)
    assert abs(tight - closed) < abs(loose - closed) + 1e-9


def test_closed_form_uses_fresh_zeta():
    # consistency with the scalar zeta evaluator at an awkward ordinate
    t = 33.7
    expected = zeta_half(t) * (0.5 - math.exp(0.5 * math.log(0.5)) * np.exp(1j * t * math.log(0.5))) / (0.5 + 1j * t)
    assert mellin_closed(0.5, t) == pytest.approx(expected, rel=1e-12)


def test_direct_array_call_repeats_the_scalar_calls():
    # One sweep serves every ordinate, each with the operations of its own
    # call: measured against the scalar calls the difference is 0, so the
    # tolerance is equality.
    ts = np.array([0.0, 1.0, 5.0, 20.0, 123.4])
    for theta in (0.5, 1.0 / 3.0, 1.0 / 12.0, 1.0):
        got = mellin_direct(theta, ts)
        assert got.shape == ts.shape and got.dtype == np.complex128
        assert np.array_equal(got, [mellin_direct(theta, float(t)) for t in ts])
    assert np.array_equal(mellin_direct(0.5, [1, 5]), mellin_direct(0.5, np.array([1.0, 5.0])))
    assert isinstance(mellin_direct(0.5, 5.0), complex)


@pytest.mark.parametrize(
    "ts",
    [np.array([True, False]), np.array(["1", "2"]), np.array([[1.0, 2.0]]), [1.0, None], [1.0, [2.0]]],
    ids=["bool", "str", "2d", "none", "ragged"],
)
def test_direct_rejects_non_real_ordinate_arrays(ts):
    with pytest.raises(ParameterError):
        mellin_direct(0.5, ts)
