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


@pytest.mark.parametrize(
    "ix,want",
    [
        ((1024, 0), 2.0**-1024),
        ((1073, 0), 2.0**-1073),
        ((1074, 0), 5e-324),  # the least subnormal, 2^-1074
        # 1/3^647, correctly rounded: within half an ulp of Fraction(1, 3**647)
        ((0, 647), float.fromhex("0x0.17174f38df4d5p-1022")),
        ((2000, 0), 0.0),
    ],
    ids=["j1024", "j1073", "j1074", "k647", "j2000"],
)
def test_theta_of_deep_index_underflows_cleanly(ix, want):
    # from 2^1024 on the denominator has no float, yet theta is still 1/n
    p = theta_of(ix)
    j, k = ix
    assert p.denominator == 2**j * 3**k
    assert p.theta == want
    assert math.isfinite(p.log_theta)
    assert p.log_theta == pytest.approx(-(j * LOG2 + k * LOG3), rel=1e-15)


@pytest.mark.parametrize(
    "bad",
    [(-1, 0), (0, -3), (0.5, 1), ("a", 0), (True, False), (np.True_, 0), (0, None), 5, (1,)],
)
def test_theta_of_rejects_bad_indices(bad):
    with pytest.raises(ParameterError):
        theta_of(bad)


def test_ladder_functions_accept_numpy_indices():
    p = theta_of((np.int64(1), np.int32(0)))
    assert p == theta_of((1, 0)) and type(p.index.j) is int
    assert distance((np.int64(2), 0), (0, np.uint8(1))) == 3
    assert IndexWindow(2, 2).position((np.int64(1), np.int64(2))) == 5


def test_shell_accepts_numpy_radius():
    got = shell((1, 1), np.int64(1))
    assert got == shell((1, 1), 1)
    assert theta_of(got[0]).index == (0, 1)
    assert all(type(v) is int for ix in got for v in ix)


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


@pytest.mark.parametrize("bound", [1.5, 1.0, "2", True, None, np.True_, np.float64(2.0)])
def test_window_rejects_non_integer_bounds(bound):
    with pytest.raises(ParameterError, match="j_max must be an integer"):
        IndexWindow(bound, 1)
    with pytest.raises(ParameterError, match="k_max must be an integer"):
        IndexWindow(1, bound)


@pytest.mark.parametrize("ix", [(0.5, 1), ("a", 1), (True, 0), (-1, 0), (3, 0), 5, None, (1,)])
def test_window_contains_only_its_indices(ix):
    assert ix not in IndexWindow(2, 2)


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


def test_shell_window_clip_matches_window_membership():
    # The clip tests two bounds; IndexWindow.__contains__ gives the same set.
    rng = np.random.default_rng(0)
    for _ in range(200):
        j_max, k_max, cj, ck, r = (int(v) for v in rng.integers(0, 9, 5))
        w = IndexWindow(j_max, k_max)
        want = sorted(ix for ix in shell((cj, ck), r) if ix in w)
        assert shell((cj, ck), r, window=w) == want


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
