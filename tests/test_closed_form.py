"""The closed form for unit-fraction inner products against independent
references.

Frozen constants were computed offline with mpmath at 30 significant
digits (mpmath is not a dependency):

- COT_SUMS: V(h, k) = sum_{m=1}^{k-1} {mh/k} cot(pi m/k), summed term by
  term over the whole range 1..k-1 with ``mpmath.cot(m * mpmath.pi / k)``
  and the exact rational {mh/k} = (m h mod k)/k; no folding.
- CORNER_ENTRIES: <f_(1/a), f_(1/b)> from Vasyunin's formula with every
  constant, logarithm and cotangent sum above in 30-digit arithmetic.
  At (2, 3) it agrees with the 50-digit digamma value in
  test_fractional.py to all 30 digits.
- F_ONE: F(1, k) from Vasyunin's formula at 80 digits, with V(1, k) the
  sum of g(m/k), g(x) = (x - 1/2) cot(pi x), split as in
  ``fractional._f_one``: the poles give -(k/pi) ``mpmath.harmonic(k - 1)``,
  and the analytic rest phi goes through Euler-Maclaurin with 6
  correction terms, its integral by ``mpmath.quad`` and its derivatives
  at 0 by ``mpmath.diff`` on a circle of radius 1/2.  None of the
  library's series coefficients enter.  For k <= 6^8 the stored value is
  the direct 40-digit sum over m, which the Euler-Maclaurin route
  matches to 1.3e-25 relative at k = 64 (its remainder there) and to
  2.3e-31 at k = 6^8.

They are kept as decimal strings and compared exactly (Fraction), so the
only slack is the route's own err_estimate.  The cutoff lattice pass
``pair_inner_matrix`` is a second, independent reference, and
:func:`_vasyunin_assembly`, the published four-term combination of
I(a, b) = F(a, b) - 1/(ab), is the oracle for the assembly of the K table.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bnladder import (
    IndexWindow,
    QuadratureConfig,
    SmoothingParams,
    build_gram,
    inner_direct,
    pair_inner_matrix,
)
from bnladder import fractional, gram
from bnladder.fractional import (
    _SERIES_K0,
    DEFAULT_QUAD,
    _cot_sum,
    _f_one,
    _vasyunin_f,
)
from bnladder.ladder import theta_of

_U = 2.0**-53

COT_SUMS = {
    (1, 6561): "-15722.522885856646864573253752",
    (256, 6561): "-4234.03669657042372851455744343",
    (6561, 256): "11.2890313463238249068417280733",
    (1, 209952): "-734725.291931979009504489788534",
    (6561, 262144): "-208516.40943914133634803547244",
    (1, 1679616): "-6989549.3598413437250670198114",
}

# (a, b) -> <f_(1/a), f_(1/b)>; 256 = 2^8, 6561 = 3^8, 1679616 = 6^8.
# Vasyunin's formula for F(1, 6^8/3) cancels terms of size log(6^8) down
# to about 1e-5, so summing its cotangents leaves (3, 6^8) about 5e-11
# relative off; the series of F(1, k) has no such cancellation.
CORNER_ENTRIES = {
    (2, 3): "0.106308922802654589708360331229",
    (2, 1679616): "0.00000217920778662208072088238916491",
    (3, 1679616): "0.00000287416297700430677023884958359",
    (256, 256): "0.00482457077670256371370718897925",
    (256, 6561): "0.000414406202273439637029196420268",
    (6561, 1679616): "0.000002322876366142332159719221712",
    (1679616, 1679616): "0.000000750559813668675292001217985799",
}


# k -> F(1, k); 2^30 is the closed form's cap and 6^24 lies beyond it.
F_ONE = {
    64: "0.0501861570197538656575199953261",
    216: "0.0176787246450257901320216422848",
    1679616: "0.00000494003906802431767336069981725",
    2**30: "0.0000000107358567503101654710121193628",
    6**24: "4.77619733736053739263869487601e-18",
}


def _ladder_index(n: int) -> tuple[int, int]:
    j = (n & -n).bit_length() - 1
    k = round(math.log(n >> j, 3))
    assert 2**j * 3**k == n
    return j, k


@pytest.mark.parametrize("h,k", sorted(COT_SUMS))
def test_cot_sum_against_frozen_mpmath(h, k):
    value, err = _cot_sum(h, k)
    assert abs(Fraction(value) - Fraction(COT_SUMS[h, k])) <= Fraction(err)


@pytest.mark.parametrize("a,b", sorted(CORNER_ENTRIES))
def test_8x8_entries_against_frozen_mpmath(gram_8x8_raw_direct, a, b):
    g = gram_8x8_raw_direct
    i, j = g.window.position(_ladder_index(a)), g.window.position(_ladder_index(b))
    diff = abs(Fraction(g.entries[i, j]) - Fraction(CORNER_ENTRIES[a, b]))
    assert diff <= Fraction(g.err_estimate[i, j])
    assert 0.0 < g.err_estimate[i, j] < 1e-13


def test_deep_entry_free_of_the_log_cancellation(gram_8x8_raw_direct):
    g = gram_8x8_raw_direct
    i, j = g.window.position(_ladder_index(3)), g.window.position(_ladder_index(1679616))
    want = Fraction(CORNER_ENTRIES[3, 1679616])
    diff = abs(Fraction(g.entries[i, j]) - want)
    assert diff <= Fraction(g.err_estimate[i, j]) <= Fraction(1e-14) * want


@pytest.mark.parametrize("k", sorted(F_ONE))
def test_f_one_series_against_frozen_mpmath(k):
    value, err = _f_one(k)
    want = Fraction(F_ONE[k])
    assert abs(Fraction(value) - want) <= Fraction(err) <= Fraction(1e-14) * want
    assert _vasyunin_f(1, k) == (value, err)


def _cot_route(k):
    """F(1, k) and its budget by Vasyunin's formula with the cotangent sum."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(fractional, "_SERIES_K0", math.inf)
        return _vasyunin_f(1, k)


def test_f_one_series_against_cot_route_on_8x8():
    # the same-sign slots of IndexWindow(8, 8) are F(1, 2^x 3^y), 0 <= x, y <= 8
    ks = [k for k in (2**x * 3**y for x in range(9) for y in range(9)) if k >= _SERIES_K0]
    assert len(ks) == 65
    for k in ks:
        value, err = _f_one(k)
        want, want_err = _cot_route(k)
        assert abs(value - want) <= want_err
        assert err < want_err


@settings(max_examples=20, deadline=None)
@given(st.integers(_SERIES_K0, 2**22))
def test_f_one_series_against_cot_route_random(k):
    value, _ = _f_one(k)
    want, want_err = _cot_route(k)
    assert abs(value - want) <= want_err


def test_8x8_within_lattice_tail_and_zero_row_exact(gram_8x8_raw_direct):
    g = gram_8x8_raw_direct
    dens = [p.denominator for p in g.points]
    lattice, tail = pair_inner_matrix(dens, DEFAULT_QUAD.resolved_x_min())
    assert np.all(np.abs(g.entries - lattice) <= tail)
    zero = g.window.position((0, 0))
    for m in (g.entries, g.err_estimate):
        assert np.all(m[zero, :] == 0.0)
        assert np.all(m[:, zero] == 0.0)


def test_fallback_above_cap_is_the_lattice_build(monkeypatch):
    quad = QuadratureConfig(x_min=1e-5)
    window = IndexWindow(2, 2)  # largest denominator 36
    dens = [p.denominator for p in window.points()]
    lattice, tail = pair_inner_matrix(dens, quad.x_min)

    monkeypatch.setattr(fractional, "_CLOSED_FORM_CAP", 36)
    g = build_gram(window, kind="raw", method="direct", quad=quad)
    assert not np.array_equal(g.entries, lattice)
    assert np.all(g.err_estimate < 1e-14)

    monkeypatch.setattr(fractional, "_CLOSED_FORM_CAP", 35)
    g = build_gram(window, kind="raw", method="direct", quad=quad)
    assert np.array_equal(g.entries, lattice)
    assert np.array_equal(g.err_estimate, tail)
    res = inner_direct(1.0 / 36.0, 0.5, quad=quad)
    pair, pair_tail = pair_inner_matrix([36, 2], quad.x_min)
    assert res.value == pair[0, 1]
    assert res.err_estimate == pair_tail[0, 1]


def test_smoothed_fallback_above_cap_is_the_lattice_build(monkeypatch):
    # The epsilon^2 share of a smoothed build is epsilon^2 times the raw
    # direct build: the closed form up to the cap, and above it the lattice
    # pass at the coarse cutoff of _epsilon_cutoff.
    quad = QuadratureConfig(x_min=1e-5)
    sm = SmoothingParams(W=5.0, epsilon=1e-2)
    eps2 = sm.epsilon * sm.epsilon
    window = IndexWindow(2, 2)  # largest denominator 36
    dens = [p.denominator for p in window.points()]
    unit = np.array(dens) == 1
    tapered = _tapered_share(window, sm, quad)

    def assert_share(g, share, share_err):
        errs = tapered.err_estimate + eps2 * share_err
        errs[unit, :] = errs[:, unit] = 0.0
        assert np.array_equal(g.entries, tapered.entries + eps2 * share)
        assert np.array_equal(g.err_estimate, errs)

    monkeypatch.setattr(fractional, "_CLOSED_FORM_CAP", 35)
    lattice, tail = pair_inner_matrix(dens, gram._epsilon_cutoff(sm.epsilon, quad))
    assert_share(build_gram(window, kind="smoothed", smoothing=sm, quad=quad), lattice, tail)

    monkeypatch.setattr(fractional, "_CLOSED_FORM_CAP", 36)
    closed, closed_err = _gcd_keyed_gram(dens)
    assert not np.array_equal(closed, lattice)
    assert_share(build_gram(window, kind="smoothed", smoothing=sm, quad=quad), closed, closed_err)


def _tapered_share(window, smoothing, quad=DEFAULT_QUAD):
    """The smoothed build with a zero epsilon^2 share: its Gaussian-tapered
    share alone."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(gram, "_direct", lambda points, slots, q: (np.zeros((len(points),) * 2),) * 2)
        return build_gram(window, kind="smoothed", smoothing=smoothing, quad=quad)


def test_smoothed_build_below_cap_ignores_x_min():
    # below the cap the epsilon^2 share is the closed form, which has no cutoff
    sm = SmoothingParams(W=5.0, epsilon=1e-2)
    quads = (DEFAULT_QUAD, QuadratureConfig(x_min=1e-3))
    assert len({gram._epsilon_cutoff(sm.epsilon, q) for q in quads}) == 2
    a, b = (build_gram(IndexWindow(3, 3), kind="smoothed", smoothing=sm, quad=q) for q in quads)
    assert np.array_equal(a.entries, b.entries)
    assert np.array_equal(a.err_estimate, b.err_estimate)


def _vasyunin_assembly(dens):
    """(gram, err) as I(a, b) - I(a, 1)/b - I(1, b)/a + I(1, 1)/(ab) with
    I(a, b) = F(a/d, b/d)/d - 1/(ab), whose -1/(ab) terms cancel exactly,
    and a roundoff estimate carried through each of those steps.

    It shares F(h, k) with the library but none of the K-table assembly.
    """
    n = len(dens)
    a = np.array(list(dens) + [1], dtype=np.int64)
    d = np.gcd.outer(a, a)
    h, k = a[:, None] // d, a[None, :] // d
    f = np.array(
        [_vasyunin_f(int(min(p, q)), int(max(p, q))) for p, q in zip(h.ravel(), k.ravel())]
    ).reshape(n + 1, n + 1, 2)
    f_val, f_err = f[..., 0], f[..., 1]
    af = a.astype(np.float64)
    inv_ab = 1.0 / np.outer(af, af)
    df = d.astype(np.float64)
    big_i = f_val / df - inv_ab
    big_i_err = f_err / df + 2.0 * _U * (np.abs(f_val) / df + inv_ab)
    inv_n = 1.0 / af[:n]
    cross = np.outer(big_i[:n, n], inv_n)
    corner = big_i[n, n] * inv_ab[:n, :n]
    gram = big_i[:n, :n] + corner - (cross + cross.T)
    cross_err = np.outer(big_i_err[:n, n], inv_n) + 4.0 * _U * np.abs(cross)
    err = (
        big_i_err[:n, :n]
        + big_i_err[n, n] * inv_ab[:n, :n]
        + (cross_err + cross_err.T)
        + 4.0 * _U * (np.abs(big_i[:n, :n]) + np.abs(corner))
    )
    return gram, err


# Ladder denominators of the 6x6 window, three that are not on the
# ladder, and N = 1, the origin.
_DENOMINATORS = sorted({2**j * 3**k for j in range(7) for k in range(7)} | {5, 7, 97})


def _inner_direct_matrix(dens):
    """(gram, err) of inner_direct over every ordered pair of 1/N."""
    res = [[inner_direct(1.0 / a, 1.0 / b) for b in dens] for a in dens]
    gram_ = np.array([[r.value for r in row] for row in res])
    return gram_, np.array([[r.err_estimate for r in row] for row in res])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(_DENOMINATORS), min_size=1, max_size=8))
def test_k_table_assembly_against_vasyunin_oracle(dens):
    gram, err = _inner_direct_matrix(dens)
    want, want_err = _vasyunin_assembly(dens)
    assert np.all(np.abs(gram - want) <= err)
    assert np.all(np.abs(gram - want) <= want_err)
    assert np.array_equal(gram, gram.T)
    assert np.array_equal(err, err.T)
    for i, n in enumerate(dens):
        if n == 1:
            for m in (gram, err):
                assert np.all(m[i, :] == 0.0)
                assert np.all(m[:, i] == 0.0)
        else:
            assert err[i, i] > 0.0
        j = dens.index(n)  # the first row with the same denominator
        assert np.array_equal(gram[i], gram[j])
        assert np.array_equal(err[i], err[j])


def test_cot_sum_reduces_h_before_int64_products():
    # m * 3^39 would wrap in int64 for m >= 3; only h mod k may enter.
    h, k = 3**39, 2**13
    assert _cot_sum(h, k) == _cot_sum(h % k, k)
    assert fractional._CLOSED_FORM_CAP**2 // 2 < 2**63


def _gcd_keyed_gram(dens):
    """(gram, err) of the closed form keyed by gcd-reduced pairs: each
    distinct unordered (a/d, b/d) of the denominators and the origin is
    found by np.unique over the pairs, independent of the displacement
    key of :func:`bnladder.gram._displacements`."""
    a = np.array(list(dens) + [1], dtype=np.int64)  # the origin N = 1 last
    d = np.gcd.outer(a, a)
    h, k = a[:, None] // d, a[None, :] // d
    pairs = np.stack([np.minimum(h, k).ravel(), np.maximum(h, k).ravel()], axis=1)
    keys, where = np.unique(pairs, axis=0, return_inverse=True)
    reduced = [_vasyunin_f(int(p), int(q)) for p, q in keys]
    f_val, f_err = (np.array(col) for col in zip(*reduced))
    scale = np.sqrt(keys[:, 0] * keys[:, 1].astype(np.float64))
    k_val = scale * f_val
    k_err = scale * f_err + 10.0 * _U * np.abs(k_val)
    where = where.reshape(d.shape)
    theta = 1.0 / np.array(dens, dtype=np.float64)
    sqrt_theta = np.sqrt(theta)
    gram_ = fractional._assemble(theta, sqrt_theta, k_val[where])
    err = fractional._assemble(theta, -sqrt_theta, k_err[where])
    err[theta == 1.0, :] = err[:, theta == 1.0] = 0.0
    return gram_, err


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


_ORACLE_WINDOWS = [(s, s) for s in range(12)] + [(1, 0), (0, 3), (5, 2), (0, 11), (11, 0)]


def _window_id(window):
    return "x".join(map(str, window))


@pytest.mark.parametrize("window", _ORACLE_WINDOWS, ids=_window_id)
def test_direct_build_matches_gcd_keyed_oracle(window):
    """Every entry and budget of a raw direct build, up to 11x11, keeps the
    bits of the gcd-keyed closed form; so does inner_direct on a sample
    of the window's pairs, the diagonal and the origin's row included."""
    g = build_gram(IndexWindow(*window), kind="raw", method="direct")
    dens = [p.denominator for p in g.points]
    _assert_same_bits((g.entries, g.err_estimate), _gcd_keyed_gram(dens))
    rng = np.random.default_rng(sum(window))
    picks = rng.integers(0, g.size, size=(8, 2)).tolist() + [[0, g.size - 1], [g.size - 1] * 2]
    for i, m in picks:
        res = inner_direct(1.0 / dens[i], 1.0 / dens[m])
        assert (res.value, res.err_estimate) == (g.entries[i, m], g.err_estimate[i, m])


@pytest.mark.parametrize("window", [(2, 2), (5, 3), (8, 8)], ids=_window_id)
@pytest.mark.parametrize("eps", [1e-6, 1e-2])
def test_epsilon_share_matches_gcd_keyed_oracle(window, eps):
    """The epsilon^2 share of a smoothed build is epsilon^2 times the
    gcd-keyed closed form, bit for bit, entries and budgets."""
    sm = SmoothingParams(W=5.0, epsilon=eps)
    g = build_gram(IndexWindow(*window), kind="smoothed", smoothing=sm)
    tapered = _tapered_share(IndexWindow(*window), sm)
    share, share_err = _gcd_keyed_gram([p.denominator for p in g.points])
    errs = tapered.err_estimate + (eps * eps) * share_err
    unit = np.array([p.denominator == 1 for p in g.points])
    errs[unit, :] = errs[:, unit] = 0.0
    _assert_same_bits((g.entries, g.err_estimate), (tapered.entries + (eps * eps) * share, errs))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=1, max_size=8))
@example([(3, 1), (0, 0), (3, 1), (11, 11), (0, 11)])
@example([(0, 4), (4, 0), (0, 4), (2, 9)])
@example([(11, 0), (0, 11)])
def test_direct_point_tuples_match_gcd_keyed_oracle(idx):
    """Ladder points in any order, duplicates included: the direct route
    and inner_direct keep the bits of the gcd-keyed closed form."""
    points = tuple(theta_of(ix) for ix in idx)
    dens = [p.denominator for p in points]
    want = _gcd_keyed_gram(dens)
    _assert_same_bits(gram._direct(points, gram._displacements(points), DEFAULT_QUAD), want)
    _assert_same_bits(_inner_direct_matrix(dens), want)
