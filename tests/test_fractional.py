"""Profile evaluation and exact inner products against independent oracles.

Reference values were computed before the implementation existed:

- EXACT_*: full inner products from the residue-class closed form
  sum_r c_r (psi((r+1)/L) - psi(r/L)) / L with mpmath at 50 dps, where
  c_r is the periodic product of the two profiles on the unit lattice
  and L the period.  For theta = 1/2 this reduces to log(2)/4, which the
  digamma evaluation reproduces exactly.
- MIDPOINT_*: 10^6-point midpoint-rule integrals using plain floor
  arithmetic, an entirely different discretization (error ~1e-5).
- The truncated-integral check of the cutoff pass needs no stored
  constant: at the cutoff 2^-10 the integral is a finite rational sum
  evaluated here with Fraction arithmetic.
- The integer lattice, where f_(1/N) equals (u mod N)/N on [u, u+1),
  is the float oracle of ``pair_inner_matrix`` (:func:`_lattice_gram`):
  it shares no code with the step-function sweep behind that function.

Unit-fraction pairs go through the closed form; ``pair_inner_matrix``,
the cutoff sweep at theta = 1/N, is its independent reference.  The
closed form's own frozen high-precision oracle is in test_closed_form.py.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bnladder import (
    DEFAULT_QUAD,
    ConvergenceError,
    IndexWindow,
    ParameterError,
    QuadratureConfig,
    breakpoints,
    eval_f,
    inner_direct,
    l2_norm,
    SmoothingParams,
    mellin_closed,
    mellin_direct,
    pair_inner_matrix,
    zeta_half,
)
from bnladder import fractional
from bnladder.errors import BNLadderError
from bnladder.fractional import _sweep, _unit_denominator
from bnladder.gram import _direct
from bnladder.ladder import theta_of

EXACT_INNER = {
    (2, 2): 0.17328679513998632,  # = log(2)/4
    (3, 3): 0.17695830991757186,
    (6, 6): 0.13129441193316020,
    (12, 12): 0.08069579353249011,
    (2, 3): 0.10630892280265460,
    (2, 6): 0.09310401798489244,
    (3, 6): 0.11777172436589105,
    (2, 12): 0.05958632895939559,
}

MIDPOINT_INNER = {
    (0.5, 0.5): 0.17327325,
    (1.0 / 3.0, 1.0 / 3.0): 0.17694733333333298,
    (1.0 / 6.0, 1.0 / 6.0): 0.13127425000000023,
    (0.5, 1.0 / 3.0): 0.10629916666666653,
    (0.3, 0.3): 0.18103524999999976,
    (0.3, 0.5): 0.10890235000000015,
}


@pytest.mark.parametrize(
    "theta,x,expected",
    [(1.0, 0.7, 0.0), (0.5, 0.4, 0.0), (0.5, 0.3, 0.5)],
)
def test_eval_f_hand_values(theta, x, expected):
    assert eval_f(theta, np.array([x]))[0] == pytest.approx(expected, abs=1e-12)


def test_eval_f_identically_zero_at_one():
    xs = np.linspace(1e-4, 1.0, 517)
    assert np.all(eval_f(1.0, xs) == 0.0)


@pytest.mark.parametrize("theta", [0.0, -0.5, 1.5])
def test_eval_f_rejects_bad_theta(theta):
    with pytest.raises(ParameterError):
        eval_f(theta, np.array([0.5]))


REAL_TAKERS = {
    "eval_f": lambda th: eval_f(th, 0.3),
    "breakpoints": lambda th: breakpoints(th, 0.3),
    "inner_direct_a": lambda th: inner_direct(th, 0.5).value,
    "inner_direct_b": lambda th: inner_direct(0.5, th).value,
    "l2_norm": l2_norm,
    "mellin_closed": lambda th: mellin_closed(th, 1.0),
    "mellin_direct": lambda th: mellin_direct(th, 1.0),
    "mellin_closed_t": lambda t: mellin_closed(0.5, t),
    "mellin_direct_t": lambda t: mellin_direct(0.5, t),
    "zeta_half": zeta_half,
    "SmoothingParams_W": lambda w: SmoothingParams(W=w),
    "SmoothingParams_epsilon": lambda eps: SmoothingParams(W=5.0, epsilon=eps),
    "QuadratureConfig_t_max_raw": lambda t: QuadratureConfig(t_max_raw=t),
    "breakpoints_x_min": lambda x: breakpoints(0.5, x),
}


@pytest.mark.parametrize(
    "flag", [True, np.True_, "1", None], ids=["bool", "numpy_bool", "str", "none"]
)
@pytest.mark.parametrize("call", REAL_TAKERS.values(), ids=REAL_TAKERS.keys())
def test_theta_rejects_bools(call, flag):
    # float(True) == 1.0 and float("1") == 1.0, which every range check
    # would accept as 1; only Python and numpy reals are real arguments.
    with pytest.raises(ParameterError):
        call(flag)


def test_eval_f_rejects_bad_x():
    with pytest.raises(ParameterError):
        eval_f(0.5, np.array([0.0]))
    with pytest.raises(ParameterError):
        eval_f(0.5, np.array([1.5]))


def test_breakpoints_theta_one():
    got = breakpoints(1.0, 0.3)
    assert got == pytest.approx([1.0 / 3.0, 0.5, 1.0])


def test_breakpoints_merged():
    got = breakpoints(0.5, 0.2)
    assert got == pytest.approx([0.25, 1.0 / 3.0, 0.5, 1.0])


def test_breakpoints_coarse():
    assert breakpoints(0.5, 0.6) == pytest.approx([1.0])


_U = 2.0**-53


def _exact_jumps(p, q, cut):
    """{1/n} and {(p/q)/m} above the cutoff, in exact arithmetic, ascending."""
    theta = Fraction(p, q)
    ones = {Fraction(1, n) for n in range(1, math.ceil(1 / cut))}
    return sorted(ones | {theta / m for m in range(1, math.ceil(theta / cut))})


def _check_breakpoints(p, q, x_min):
    want = _exact_jumps(p, q, Fraction(x_min))
    got = breakpoints(p / q, x_min)
    assert len(got) == len(want)
    assert np.all(np.diff(got) > 0.0)
    for g, w in zip(got, want):
        if w.numerator == 1:
            # the jump sits on an integer u = n: 1/n correctly rounded
            assert g == float(w)
        else:
            # theta = p/q, u = m/theta and x = 1/u each round once
            assert abs(Fraction(float(g)) - w) <= 3 * _U * w


@pytest.mark.parametrize("p,q", [(1, 3), (3, 10), (1, 7)])
def test_breakpoints_reports_coincident_jumps_once(p, q):
    # 999, 1,199 and 999 distinct jumps; float deduplication of 1/n
    # against theta/m used to keep 1,096, 1,224 and 1,040 points.
    _check_breakpoints(p, q, 1e-3)


@settings(max_examples=60, deadline=None)
@given(
    pq=st.integers(1, 60).flatmap(lambda q: st.tuples(st.integers(1, q), st.just(q))),
    x_min=st.floats(1e-3, 0.95),
)
@example(pq=(1, 1), x_min=9.7e-4)
@example(pq=(1, 12), x_min=9.7e-4)
@example(pq=(2, 3), x_min=3.7e-3)
@example(pq=(7, 10), x_min=9.7e-4)  # some m/theta land an ulp off their integer
def test_breakpoints_match_exact_jumps(pq, x_min):
    p, q = pq
    # Within a few roundings of the cutoff, which side a jump falls on is
    # decided by rounding, not by the profile.
    cut = Fraction(x_min)
    near = _exact_jumps(p, q, cut * (1 - 8 * _U))
    assume(all(abs(j - cut) > 8 * _U * cut for j in near))
    _check_breakpoints(p, q, x_min)


def test_l2_norm_unit_theta_is_zero():
    assert l2_norm(1.0) == 0.0


@pytest.mark.parametrize("theta", [0.5, 1.0 / 6.0])
def test_l2_norm_positive_and_bounded(theta):
    v = l2_norm(theta)
    assert 0.0 < v <= 2.0


def test_inner_with_unit_theta_is_zero():
    assert inner_direct(1.0, 0.5).value == 0.0
    assert inner_direct(0.5, 1.0).value == 0.0


def test_inner_matches_squared_norm():
    assert inner_direct(0.5, 0.5).value == pytest.approx(l2_norm(0.5) ** 2, rel=1e-12)


def test_inner_symmetric():
    assert inner_direct(0.5, 1.0 / 3.0).value == pytest.approx(
        inner_direct(1.0 / 3.0, 0.5).value, rel=1e-14
    )


def test_inner_cauchy_schwarz():
    v = inner_direct(0.5, 1.0 / 3.0).value
    assert abs(v) <= l2_norm(0.5) * l2_norm(1.0 / 3.0) + 1e-12
    assert abs(v) <= 4.0


@pytest.mark.parametrize("a,b", sorted(EXACT_INNER))
def test_inner_against_exact_series(a, b):
    res = inner_direct(1.0 / a, 1.0 / b)
    # the roundoff budget covers the gap; 2^-53 |v| is the constant's rounding
    assert abs(res.value - EXACT_INNER[a, b]) <= res.err_estimate + 2.0**-53 * EXACT_INNER[a, b]
    assert res.value == pytest.approx(EXACT_INNER[a, b], abs=5e-6)


@pytest.mark.parametrize("ta,tb", sorted(MIDPOINT_INNER))
def test_inner_against_midpoint_oracle(ta, tb):
    assert inner_direct(ta, tb).value == pytest.approx(MIDPOINT_INNER[ta, tb], abs=1e-4)


@pytest.mark.parametrize("a,b", [(2, 3), (2, 2), (6, 12)])
def test_truncated_inner_is_exact_rational(a, b):
    # x_min = 2^-10 puts the cutoff exactly on a lattice point, so the
    # truncated integral is the finite sum below, a rational number.
    exact = Fraction(0)
    for n in range(1, 1024):
        c = Fraction((n % a) * (n % b), a * b)
        exact += c * (Fraction(1, n) - Fraction(1, n + 1))
    gram, _ = pair_inner_matrix([a, b], 2.0**-10)
    assert gram[0, 1] == pytest.approx(float(exact), rel=5e-15)


def _lattice_gram(denominators, x_min):
    """Cutoff Gram matrix on the integer lattice: on u in [n, n+1) each
    profile is (n mod N)/N, plus a final fragment covering (x_min, 1/U]."""
    big_u = int(math.floor(1.0 / x_min))
    usable = np.array([min(int(n), 2**62) for n in denominators], dtype=np.int64)
    zero_row = np.array([int(n) > 2**62 for n in denominators])
    nf = usable.astype(np.float64)
    gram = np.zeros((len(denominators), len(denominators)))
    chunk = 1 << 16
    for lo in range(1, big_u, chunk):
        hi = min(lo + chunk, big_u)
        u = np.arange(lo, hi, dtype=np.int64)
        vals = (u[None, :] % usable[:, None]).astype(np.float64) / nf[:, None]
        vals[zero_row, :] = 0.0
        uf = u.astype(np.float64)
        lengths = 1.0 / (uf * (uf + 1.0))
        gram += (vals * lengths) @ vals.T
    frag_len = 1.0 / big_u - x_min
    if frag_len > 0.0:
        fv = (np.int64(big_u) % usable).astype(np.float64) / nf
        fv[zero_row] = 0.0
        gram += np.outer(fv, fv) * frag_len
    return 0.5 * (gram + gram.T)


_LATTICE_DENOMS = [1, 2, 3, 5, 7, 12, 36, 97, 2**20, 3**13, 6**10, 2**63, 6**24]
# Cutoffs on a lattice point (0.25, 2^-10) and between two, where a
# fragment (x_min, 1/U] remains (0.3, 1/1000.5, 3.3e-5).
_LATTICE_CUTOFFS = [0.25, 0.3, 1e-2, 2.0**-10, 1.0 / 1000.5, 1e-4, 3.3e-5]


@settings(max_examples=40, deadline=None)
@given(
    dens=st.lists(
        st.one_of(st.sampled_from(_LATTICE_DENOMS), st.integers(1, 10**6)),
        min_size=1,
        max_size=8,
    ),
    x_min=st.sampled_from(_LATTICE_CUTOFFS),
)
def test_pair_inner_matrix_matches_integer_lattice(dens, x_min):
    gram, tail = pair_inner_matrix(dens, x_min)
    ref = _lattice_gram(dens, x_min)
    assert np.all(np.abs(gram - ref) <= 1e-14 * np.abs(ref).max())
    assert np.array_equal(gram, gram.T)
    zero = np.array([n == 1 or n > 2**62 for n in dens])
    assert np.all(gram[zero, :] == 0.0) and np.all(gram[:, zero] == 0.0)
    theta = np.array([0.0 if n > 2**62 else 1.0 / n for n in dens])
    want = x_min * np.outer(1.0 + theta, 1.0 + theta)
    unit = np.array([n == 1 for n in dens])
    want[unit, :] = want[:, unit] = 0.0  # f_1 = 0 drops nothing below the cutoff
    assert np.array_equal(tail, want)


@pytest.mark.parametrize("x_min", _LATTICE_CUTOFFS)
def test_unit_fraction_sweep_walks_the_lattice_cells(monkeypatch, x_min):
    """At theta = 1/N every edge is an integer, so the sweep's pieces are
    the lattice's cells: [n, n+1) for n < U, plus the fragment (x_min, 1/U]
    when the cutoff lies between two lattice points."""
    big_u = int(math.floor(1.0 / x_min))
    cells = big_u - 1 + (1.0 / big_u - x_min > 0.0)
    dens = [p.denominator for p in IndexWindow(8, 8).points()] + list(range(5, 40))
    monkeypatch.setattr(fractional, "_MAX_PIECES", big_u)  # unit fractions add no pieces
    spans = _sweep([1.0 / n for n in dens], x_min, "lattice")
    assert sum(e.size - 1 for e, _ in spans) == cells


def test_lattice_and_sweep_agree():
    # theta = 0.3 forces the general sweep; 1/2 x 1/3 uses the closed form
    q = QuadratureConfig(x_min=1e-5)
    direct = inner_direct(0.5, 1.0 / 3.0, quad=q).value
    sweep = inner_direct(0.5, 0.3, quad=q).value
    mid_a, mid_b = MIDPOINT_INNER[(0.5, 1.0 / 3.0)], MIDPOINT_INNER[(0.3, 0.5)]
    assert direct == pytest.approx(mid_a, abs=1e-4)
    assert sweep == pytest.approx(mid_b, abs=1e-4)


def test_pair_inner_matrix_consistent_with_scalar():
    dens = [2, 3, 6]
    points = tuple(theta_of(ix) for ix in ((1, 0), (0, 1), (1, 1)))  # 2, 3, 6
    closed, err = _direct(points, DEFAULT_QUAD)
    mat, tail = pair_inner_matrix(dens, DEFAULT_QUAD.resolved_x_min())
    for i, a in enumerate(dens):
        for j, b in enumerate(dens):
            res = inner_direct(1.0 / a, 1.0 / b)
            assert abs(closed[i, j] - res.value) <= err[i, j] + res.err_estimate
            assert abs(mat[i, j] - res.value) <= tail[i, j] + res.err_estimate
    assert np.array_equal(closed, closed.T)
    assert np.array_equal(mat, mat.T)
    assert np.all(tail > 0.0)
    assert np.all((err > 0.0) & (err < 1e-13))


def test_pair_inner_matrix_huge_denominator_row_is_zero():
    mat, _ = pair_inner_matrix([2, 2**63], DEFAULT_QUAD.resolved_x_min())
    assert np.all(mat[1, :] == 0.0)
    assert np.all(mat[:, 1] == 0.0)


@pytest.mark.parametrize(
    "dens",
    [
        [2.5, 3],
        [True, 3],
        [2, np.float64(3.0)],
        ["6", 2],
        [2, 0],
        [np.int64(-3), 2],
        [np.True_, 3],
        [2, None],
    ],
    ids=["float", "bool", "numpy-float", "str", "zero", "negative", "numpy-bool", "none"],
)
def test_pair_inner_matrix_rejects_non_integer_denominators(dens):
    # int() would take 2.5 as 2 and True as N = 1 without a word.
    with pytest.raises(ParameterError):
        pair_inner_matrix(dens, 1e-3)


def test_pair_inner_matrix_accepts_numpy_integers():
    got = pair_inner_matrix(np.array([2, 3, 6], dtype=np.int64), 1e-3)
    want = pair_inner_matrix([2, 3, 6], 1e-3)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_near_unit_theta_takes_the_cutoff_route():
    # 1/(10^6 + 10^-3) is not 1/10^6: ||f_(1/N)||^2 falls by 1.26e-12 per
    # unit of N there, so the closed form at N = 10^6 would miss by ~1e-15
    # against a roundoff budget of ~1e-19.
    theta = 1.0 / (1e6 + 1e-3)
    x_min = 1e-4
    res = inner_direct(theta, theta, QuadratureConfig(x_min=x_min))
    assert res.err_estimate == x_min * ((1.0 + theta) * (1.0 + theta))


def test_unit_denominator_names_one_integer_or_none():
    # Below 2^48 exactly one integer passes the 8 eps test; above it the
    # neighbours of N pass too, and the float 1/N picks one of them.
    for j in range(63):
        for k in range(40):
            n = 2**j * 3**k
            if n > 2**62:
                break
            got = _unit_denominator(1.0 / n)
            assert got == (n if n < 2**48 else None), n


@pytest.mark.parametrize(
    "call",
    [
        lambda: inner_direct(5e-324, 0.5).value,
        lambda: l2_norm(5e-324),
        lambda: breakpoints(5e-324, 0.5),
        lambda: mellin_direct(5e-324, 1.0),
    ],
    ids=["inner_direct", "l2_norm", "breakpoints", "mellin_direct"],
)
def test_subnormal_theta_is_finite_or_typed(call):
    # 1/theta overflows to inf here
    try:
        value = call()
    except BNLadderError:
        return
    assert np.all(np.isfinite(value))


def test_piece_bound_beyond_the_float_range_prints_short():
    # theta = 5e-324 clamps the cutoff to the smallest normal float, so the
    # bound has 309 digits, more than a float holds
    with pytest.raises(ConvergenceError) as info:
        mellin_direct(5e-324, 1.0)
    msg = str(info.value)
    assert "~4.49e+307 pieces" in msg and "above the cap 100000000" in msg
    assert len(msg) < 100


_THETAS = st.one_of(
    st.integers(1, 10**6).map(lambda n: 1.0 / n),
    st.integers(1, 40).flatmap(lambda q: st.integers(1, q).map(lambda p: p / q)),
    st.floats(1e-3, 1.0),
    st.just(0.0),
)


@settings(max_examples=60, deadline=None)
@given(
    thetas=st.lists(_THETAS, min_size=1, max_size=6).map(lambda ts: ts + ts[:1]),
    x_min=st.floats(1e-4, 0.9),
)
def test_sweep_piece_bound_never_undercounts(thetas, x_min):
    # A cap one below the pieces walked is refused, so the bound the sweep
    # takes before walking is at least the pieces it then walks.
    pieces = sum(e.size - 1 for e, _ in _sweep(thetas, x_min, "test sweep"))
    with mock.patch.object(fractional, "_MAX_PIECES", pieces - 1), pytest.raises(
        ConvergenceError, match="test sweep needs"
    ):
        next(_sweep(thetas, x_min, "test sweep"))


def test_inner_direct_reports_roundoff_or_cutoff_budget():
    # Unit fractions: the budget is the closed form's roundoff estimate.
    res = inner_direct(0.5, 0.5)
    assert 0.0 < res.err_estimate < 1e-14
    assert abs(res.value - math.log(2.0) / 4.0) <= res.err_estimate
    # Other parameters: the sweep's cutoff tail.
    res = inner_direct(0.5, 0.3)
    xm = DEFAULT_QUAD.resolved_x_min()
    assert res.err_estimate == pytest.approx(1.5 * 1.3 * xm, rel=1e-12)


@pytest.mark.parametrize("theta", [0.5, 1.0 / 3.0, 0.3, 0.9])
def test_eval_f_pointwise_bound(theta):
    xs = np.linspace(1e-4, 1.0, 4097)
    assert np.all(np.abs(eval_f(theta, xs)) < 1.0 + theta)


def test_inner_stable_under_cutoff_halving():
    # theta = 0.3 takes the cutoff sweep; unit fractions have no cutoff.
    x_min = 1e-3
    a = inner_direct(0.5, 0.3, quad=QuadratureConfig(x_min=x_min)).value
    b = inner_direct(0.5, 0.3, quad=QuadratureConfig(x_min=x_min / 2)).value
    assert abs(a - b) <= 4.0 * x_min + 1e-6
    a = inner_direct(0.5, 1.0 / 3.0, quad=QuadratureConfig(x_min=x_min)).value
    b = inner_direct(0.5, 1.0 / 3.0, quad=QuadratureConfig(x_min=x_min / 2)).value
    assert a == b


def test_quadrature_config_validation():
    with pytest.raises(ParameterError):
        QuadratureConfig(x_min=2.0)
    with pytest.raises(ParameterError):
        QuadratureConfig(t_max_raw=-1.0)
    assert QuadratureConfig().resolved_x_min() == 1e-6 / 8
