import decimal
from fractions import Fraction
from math import comb, factorial, inf, nextafter

import numpy as np
import pytest

import bnladder.zeta
from bnladder import T_CAP, ZetaRangeError, zeta_half, zeta_half_grid, zeta_selfcheck
from bnladder.oracle import ZETA_ORACLE


# zeta(1/2 + i t) above the oracle table's reach, from mpmath at 40 digits
# and rounded to 30, with tolerances on the absolute error of each route:
# the scalar call, about 4x its largest error over four summation orders
# of the same terms (so that another BLAS does not trip it), and one grid
# over all six points, whose block starts at t = 150 and sums every point
# to the term count of t = 9999.
HIGH_T = (
    (150.0, complex(-0.0635050565486052305800892886459, -0.0651927599258052326532936766778), 2.2e-15, 2.6e-13),
    (500.0, complex(-0.396256507275146617829576525567, -1.41812674134537081553125171514), 2.9e-15, 2.1e-12),
    (1000.0, complex(0.356334367194396055074402476711, 0.931997831232993665115060432737), 2.9e-15, 1.7e-12),
    (2500.0, complex(0.590883896839177563092591156037, 0.405404442479313334755408418409), 1.8e-15, 8.7e-12),
    (5000.0, complex(0.406842713635432558981330918771, -0.693764159198085102454522258529), 2.9e-15, 7.5e-12),
    (9999.0, complex(1.39985791048172059768481915305, 1.07187619213679093666341596683), 6.0e-15, 5.9e-11),
)

# What the module docstring promises of Backlund's bound on [0, T_CAP].
TRUNCATION_TARGET = 4.0e-19


def test_high_ordinates_match_frozen_values():
    grid = zeta_half_grid(np.array([t for t, _, _, _ in HIGH_T]))
    for (t, ref, tol_scalar, tol_grid), g in zip(HIGH_T, grid):
        assert abs(zeta_half(t) - ref) <= tol_scalar, t
        assert abs(g - ref) <= tol_grid, t


@pytest.mark.parametrize("t,ref,is_zero", ZETA_ORACLE)
def test_matches_frozen_table(t, ref, is_zero):
    val = zeta_half(t)
    if is_zero:
        assert abs(val - ref) < 1e-8
    else:
        assert abs(val - ref) / abs(ref) < 1e-9


def test_value_at_origin():
    assert zeta_half(0.0).real == pytest.approx(-1.4603545088095868, abs=1e-10)
    assert zeta_half(0.0).imag == pytest.approx(0.0, abs=1e-12)


def test_schwarz_reflection():
    assert zeta_half(-5.0) == np.conj(zeta_half(5.0))


def test_grid_matches_scalar():
    ts = np.array([0.0, 1.0, 5.0, 14.134725141734695, 25.0, 50.0, 100.0])
    grid = zeta_half_grid(ts)
    for t, v in zip(ts, grid):
        ref = zeta_half(float(t))
        assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref))


def test_grid_handles_unsorted_input():
    ts = np.array([50.0, 0.5, 25.0, 3.0])
    grid = zeta_half_grid(ts)
    for t, v in zip(ts, grid):
        assert v == pytest.approx(zeta_half(float(t)), rel=1e-12)


def test_grid_rejects_bad_input():
    with pytest.raises(Exception):
        zeta_half_grid(np.array([-1.0, 2.0]))
    with pytest.raises(Exception):
        zeta_half_grid(np.array([[1.0, 2.0]]))


def test_range_cap():
    with pytest.raises(ZetaRangeError):
        zeta_half(T_CAP + 1.0)
    # the message keeps every digit of the rejected height
    with pytest.raises(ZetaRangeError, match=r"\|t\| = 10000\.000000000002 exceeds the"):
        zeta_half(nextafter(T_CAP, inf))
    # the boundary itself is allowed
    zeta_half(T_CAP)


def test_selfcheck_passes_on_fresh_table():
    rep = zeta_selfcheck()
    assert rep.passed
    assert rep.max_rel_dev < 1e-9
    assert rep.max_zero_abs < 1e-8
    assert len(rep.points) == len(ZETA_ORACLE)


def test_selfcheck_detects_perturbation(monkeypatch):
    t, ref, is_zero = ZETA_ORACLE[1]
    patched = list(ZETA_ORACLE)
    patched[1] = (t, ref + 1e-6, is_zero)
    monkeypatch.setattr(bnladder.zeta, "ZETA_ORACLE", tuple(patched))
    assert not zeta_selfcheck().passed


def test_bernoulli_table_is_the_exact_fractions_rounded():
    # B_m from sum_{j<=m} C(m+1, j) B_j = 0, in exact arithmetic
    b = [Fraction(1)]
    for m in range(1, 2 * bnladder.zeta._M + 3):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    want = tuple(float(b[2 * k] / factorial(2 * k)) for k in range(1, bnladder.zeta._M + 2))
    assert bnladder.zeta._BERNOULLI == want


def test_backlund_bound_below_target_at_every_block_top():
    # A block's bound is largest at its top ordinate, which sets its N.
    tops = np.append(np.linspace(0.0, T_CAP, 200_001), T_CAP)
    n = np.array([bnladder.zeta._terms(t) for t in tops], dtype=np.float64)
    _, bound = bnladder.zeta._tail(0.5 + 1j * tops, n)
    assert np.all(bound < TRUNCATION_TARGET)
    assert bound[-1] > 0.5 * TRUNCATION_TARGET  # the target is not slack


def test_backlund_bound_below_target_on_the_grid_blocks(monkeypatch):
    tail = bnladder.zeta._tail
    bounds = []

    def spy(s, n):
        series, bound = tail(s, n)
        bounds.append(bound)
        return series, bound

    monkeypatch.setattr(bnladder.zeta, "_tail", spy)
    zeta_half_grid(np.linspace(0.0, T_CAP, 3 * 512 + 7))
    assert len(bounds) == 4
    assert max(float(np.max(b)) for b in bounds) < TRUNCATION_TARGET


def _omega(k):
    """Number of prime factors of k, with multiplicity, by trial division."""
    count, p = 0, 2
    while p * p <= k:
        while k % p == 0:
            k, count = k // p, count + 1
        p += 1
    return count + (k > 1)


@pytest.mark.parametrize("lo,hi", [(0.0, 40.0), (2500.0, 2530.0), (T_CAP - 30.0, T_CAP)])
def test_power_table_rows_match_direct_phases(lo, hi):
    # Reference row k: cos/sin of (t_a ln k mod 2 pi) + (t - t_a) ln k, with
    # t_a ln k mod 2 pi from 40-digit decimal logarithms rounded once.
    ts = np.linspace(lo, hi, 7)
    n = bnladder.zeta._terms(hi)
    table = bnladder.zeta._powers(ts, bnladder.zeta._phase_reducer(bnladder.zeta._terms(T_CAP)))
    assert table.shape == (n + 1, ts.size)
    ctx = decimal.Context(prec=40)
    two_pi = ctx.create_decimal("6.283185307179586476925286766559005768394")
    t_a = decimal.Decimal(float(ts[0]))
    reduced = [float(ctx.remainder(ctx.multiply(t_a, ctx.ln(k)), two_pi)) for k in range(1, n + 1)]
    k = np.arange(1, n + 1)
    phase = np.array(reduced)[:, None] + np.outer(np.log(k), ts - ts[0])
    ref_re, ref_im = np.cos(phase), -np.sin(phase)
    omega = np.array([_omega(int(j)) for j in k])
    prime = omega == 1
    # A prime row is the reference's own formula, so its bits are the reference's.
    assert np.array_equal(table.real[1:][prime], ref_re[prime])
    assert np.array_equal(table.imag[1:][prime], ref_im[prime])
    assert np.all(table[1] == 1.0)
    # A composite row is a product of Omega(k) prime rows.  With u = 2^-53,
    # each prime row's phase errs by <= 4u (the reduced phase, below 2 pi,
    # rounded once) + u (2 pi + |t - t_a| ln p) (the float64 sum) + 2u
    # |t - t_a| ln p (ln p and its product with t - t_a), and its cosine and
    # sine by a few ulp; the Omega(k) - 1 complex products add <= sqrt(5) u
    # each.  The reference row errs as one such factor with ln k for ln p, so
    # the two differ by at most about u [16 (Omega(k) + 1) + 3 (Omega(k) - 1)
    # + 6 |t - t_a| ln k]: the |t - t_a| terms add up to ln k over the
    # factors, the rest grows with Omega(k).
    u = 2.0**-53
    tol = u * (16.0 * (omega + 1) + 3.0 * (omega - 1))[:, None]
    tol = tol + 6.0 * u * np.outer(np.log(k), ts - ts[0])
    err = np.abs(table[1:] - (ref_re + 1j * ref_im))
    assert np.all(err <= tol)
