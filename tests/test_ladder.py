import math

import numpy as np
import pytest

from bnladder import (
    LOG2,
    LOG3,
    IndexWindow,
    LadderIndex,
    ParameterError,
    check_injectivity,
    distance,
    lambda_mu,
    shell,
    theta_of,
)


@pytest.mark.parametrize(
    "ix,expected",
    [((0, 0), 1.0), ((1, 1), 1.0 / 6.0), ((3, 2), 1.0 / 72.0), ((1, 0), 0.5), ((0, 1), 1.0 / 3.0)],
)
def test_theta_of_values(ix, expected):
    p = theta_of(ix)
    assert p.theta == pytest.approx(expected, rel=1e-15)
    assert p.denominator == round(1.0 / expected)


def test_theta_of_origin_log_is_positive_zero():
    p = theta_of((0, 0))
    assert p.log_theta == 0.0
    assert math.copysign(1.0, p.log_theta) == 1.0


def test_theta_of_deep_index_underflows_cleanly():
    p = theta_of((2000, 0))
    assert p.theta == 0.0
    assert p.denominator == 2**2000
    assert math.isfinite(p.log_theta)
    assert p.log_theta == pytest.approx(-2000 * LOG2, rel=1e-15)


@pytest.mark.parametrize("bad", [(-1, 0), (0, -3), (0.5, 1), ("a", 0)])
def test_theta_of_rejects_bad_indices(bad):
    with pytest.raises(ParameterError):
        theta_of(bad)


@pytest.mark.parametrize(
    "a,b,d",
    [((0, 0), (1, 2), 3), ((2, 1), (2, 1), 0), ((5, 0), (0, 5), 10)],
)
def test_distance(a, b, d):
    assert distance(a, b) == d
    assert distance(b, a) == d


def test_lambda_mu_axis_pair():
    lam, mu = lambda_mu((0, 0), (1, 0))
    assert lam == pytest.approx(LOG2, rel=1e-15)
    assert mu == pytest.approx(-LOG2, rel=1e-15)


def test_lambda_mu_equal_indices():
    lam, mu = lambda_mu((1, 1), (1, 1))
    assert lam == 0.0
    assert mu == pytest.approx(-2 * (LOG2 + LOG3), rel=1e-15)


def test_lambda_mu_cross_pair():
    lam, mu = lambda_mu((0, 2), (2, 0))
    assert lam == pytest.approx(2 * LOG2 - 2 * LOG3, rel=1e-12)
    assert mu == pytest.approx(-2 * (LOG2 + LOG3), rel=1e-15)


def test_window_basics():
    w = IndexWindow(2, 3)
    assert w.size == 12
    assert (2, 3) in w
    assert (3, 0) not in w
    pts = list(w)
    # row major: j outer, k inner
    assert pts[0] == LadderIndex(0, 0)
    assert pts[1] == LadderIndex(0, 1)
    assert pts[-1] == LadderIndex(2, 3)
    for i, ix in enumerate(pts):
        assert w.position(ix) == i


def test_window_rejects_negative_bounds():
    with pytest.raises(ParameterError):
        IndexWindow(-1, 0)


@pytest.mark.parametrize("bound", [1.5, 1.0, "2", True, None])
def test_window_rejects_non_integer_bounds(bound):
    with pytest.raises(ParameterError, match="must be integers"):
        IndexWindow(bound, 1)
    with pytest.raises(ParameterError, match="must be integers"):
        IndexWindow(1, bound)


def test_window_accepts_numpy_integers():
    w = IndexWindow(np.int64(2), np.int32(1))
    assert w.size == 6
    assert list(w) == list(IndexWindow(2, 1))


def test_shell_corner():
    got = shell((0, 0), 1, window=IndexWindow(10, 10))
    assert got == [LadderIndex(0, 1), LadderIndex(1, 0)]


def test_shell_interior_counts():
    w = IndexWindow(10, 10)
    assert len(shell((5, 5), 1, window=w)) == 4
    assert len(shell((5, 5), 3, window=w)) == 12


def test_shell_unbounded_interior_is_4r():
    for r in range(1, 9):
        assert len(shell((20, 20), r)) == 4 * r


def test_injectivity_1x1():
    rep = check_injectivity(IndexWindow(1, 1))
    assert rep.injective
    assert rep.min_gap == pytest.approx(LOG3 - LOG2, rel=1e-12)


def test_injectivity_5x5():
    rep = check_injectivity(IndexWindow(5, 5))
    assert rep.injective
    assert rep.min_gap > 0.0


def test_injectivity_single_point():
    rep = check_injectivity(IndexWindow(0, 0))
    assert rep.injective
