import decimal
import hashlib
import math
from fractions import Fraction
from math import comb, factorial, inf, isqrt, nextafter

import numpy as np
import pytest

import bnladder.gram
import bnladder.zeta
from bnladder import T_CAP, ZetaRangeError, zeta_half, zeta_half_grid, zeta_selfcheck
from bnladder.oracle import ZETA_ORACLE


# zeta(1/2 + i t) above the oracle table's reach, from mpmath at 40 digits
# and rounded to 30, with the tolerance of the scalar call on its absolute
# error: about 4x its largest error over four summation orders of the same
# terms (so that another BLAS does not trip it).  The ordinates lie more
# than _SPAN apart, so a grid over all six takes each as its own block and
# repeats the scalar calls' bits.
HIGH_T = (
    (150.0, complex(-0.0635050565486052305800892886459, -0.0651927599258052326532936766778), 2.2e-15),
    (500.0, complex(-0.396256507275146617829576525567, -1.41812674134537081553125171514), 2.9e-15),
    (1000.0, complex(0.356334367194396055074402476711, 0.931997831232993665115060432737), 2.9e-15),
    (2500.0, complex(0.590883896839177563092591156037, 0.405404442479313334755408418409), 1.8e-15),
    (5000.0, complex(0.406842713635432558981330918771, -0.693764159198085102454522258529), 2.9e-15),
    (9999.0, complex(1.39985791048172059768481915305, 1.07187619213679093666341596683), 6.0e-15),
)

# zeta(1/2 + i t) at stored nodes of K15 grids at panel width 1/4: the 15
# nodes of panel 144 of ``gram._spectral_grid(37.25, 0.25)``, where 1/4
# divides the height, and those of the last panel of
# ``gram._spectral_grid(37.3, 0.25)``, 150 panels of width 37.3 / 150, as
# (index in ``(grid.mids[:, None] + grid.offs).ravel()``, node, value),
# from mpmath at 40 digits rounded to 30.
PANEL_NODES = (
    (2160, 36.0010680786099, complex(2.37714919929074455670091177111, -1.18960691833080671393207733537)),
    (2161, 36.006361510957156, complex(2.36725043720977330527237975343, -1.19836185965584762688758526145)),
    (2162, 36.016891947080026, complex(2.34736278884293340866567938578, -1.21553021029426948656348037308)),
    (2163, 36.032308601800075, complex(2.31778749379169936510212898642, -1.2400612551708300512490876122)),
    (2164, 36.05173909556654, complex(2.2797592783237009206930424072, -1.26993896705040983264437964833)),
    (2165, 36.07426935607783, complex(2.23465869536051127839009304419, -1.30309934435192257409837199869)),
    (2166, 36.09902688062401, complex(2.1839210966812720230358841562, -1.33765738101565037963352678805)),
    (2167, 36.125, complex(2.12945056899066667901511679782, -1.37174579418236269735138967032)),
    (2168, 36.15097311937599, complex(2.07380158713313066900831891213, -1.40356602523712000780708236187)),
    (2169, 36.17573064392217, complex(2.0197486128198753949034330598, -1.43174283501412597154573093353)),
    (2170, 36.19826090443346, complex(1.96977610084748618456413360801, -1.45552578501987530093471116259)),
    (2171, 36.217691398199925, complex(1.92613208472172052652408436414, -1.47459391541228238642923997673)),
    (2172, 36.233108052919974, complex(1.89117323821712056294440388886, -1.48876206388209879480044057316)),
    (2173, 36.243638489042844, complex(1.86713836237603093865066596494, -1.49794710114606092772929656415)),
    (2174, 36.2489319213901, complex(1.85501126408555372504386139051, -1.50241246286807555239594695899)),
    (2235, 37.05239571552398, complex(0.190154602050444887784270254032, -1.03568932760342078475849612293)),
    (2236, 37.057660916232045, complex(0.183513974473344715611115982517, -1.02649622257728667366266833116)),
    (2237, 37.06813519002893, complex(0.170565585571452939130848639981, -1.00806345457811142628617032234)),
    (2238, 37.08346962259047, complex(0.152243691405853709776005800666, -0.980742069255346110954487581142)),
    (2239, 37.10279648705685, complex(0.130238809439072055182431051328, -0.945767487899195661184877960191)),
    (2240, 37.12520658617874, complex(0.106262963580584268635293129173, -0.904510113815099525223394578198)),
    (2241, 37.149832070594016, complex(0.0818516879661524920871317306662, -0.858377064378523743413263392035)),
    (2242, 37.175666666666665, complex(0.0584506372349014337501929671045, -0.809174209299051729279992198816)),
    (2243, 37.20150126273931, complex(0.0373406397776662874950289979744, -0.759247833066050701467323191818)),
    (2244, 37.22612674715459, complex(0.0193745371421838729796059272495, -0.711079150646339969702217767806)),
    (2245, 37.24853684627648, complex(0.00486901995813021276782340537001, -0.666830068765334694847278893744)),
    (2246, 37.26786371074286, complex(-0.00622077385288267177692132384806, -0.628406464702587193398005695566)),
    (2247, 37.283198143304396, complex(-0.014080220574420141642797305807, -0.597778165737521063654991067577)),
    (2248, 37.293672417101284, complex(-0.0189696724035422951824625237627, -0.576797556498882564558872630672)),
    (2249, 37.29893761780935, complex(-0.0212804709865428801737628392604, -0.566235349449925841483292864527)),
)
# The evaluator errs by at most 1.6e-15 on these nodes.  Without the
# first-order term in the node's rounding e it errs by up to 9.0e-15 on
# panel 144 and 7.4e-15 on the last panel.
PANEL_TOL = 3.0e-15

# What the module docstring promises of Backlund's bound on [0, T_CAP].
TRUNCATION_TARGET = 4.0e-19


def test_high_ordinates_match_frozen_values():
    grid = zeta_half_grid(np.array([t for t, _, _ in HIGH_T]))
    for (t, ref, tol), g in zip(HIGH_T, grid):
        assert abs(zeta_half(t) - ref) <= tol, t
        assert g == zeta_half(t), t


def test_panel_evaluator_matches_frozen_values_at_the_grid_nodes():
    # (height, its number of panels, the panel whose nodes are frozen)
    for t_max, n_panels, panel in ((37.25, 149, 144), (37.3, 150, 149)):
        grid = bnladder.gram._spectral_grid(t_max, 0.25)
        assert grid.mids.size == n_panels
        values = bnladder.zeta._panel_zeta(grid.mids, grid.offs)
        nodes = (grid.mids[:, None] + grid.offs).ravel()
        frozen = [(i, t, ref) for i, t, ref in PANEL_NODES if i // 15 == panel]
        assert len(frozen) == 15
        for i, t, ref in frozen:
            assert nodes[i] == t
            assert abs(values[i] - ref) <= PANEL_TOL, t


# sha256 of the panel evaluator's values on the K15 grids of
# ``gram._spectral_grid(t_max, 1/2)``, frozen when the evaluator came to
# write into one output and to run the tail over chunks of whole runs:
# neither may move a bit.  1/2 does not divide 999.7, so its 2,000 panels
# are 999.7 / 2000 wide; its hash was frozen when the grid came to lay out
# equal panels that end at the height.
PANEL_GRID_SHA256 = {
    1000.0: "e46e97b99780da084cb1a1f1fa8a60a61531ee1907a83c29a6f93911c44e8aaa",
    999.7: "9371029fa89a25e3668e9dc50f87b06c24051326fb176f8dc50f4610383778f5",
    1.0e4: "52fc5ab06b0c34a51af8727546b8e7e019c2e0c881567710d9539afdffb187c6",
}


@pytest.mark.parametrize("t_max", list(PANEL_GRID_SHA256))
def test_panel_grid_values_keep_their_bits(monkeypatch, t_max):
    with monkeypatch.context() as m:  # the panels alone: skip the grid's own zeta
        m.setattr(bnladder.gram, "_panel_zeta", lambda mids, offs: np.zeros(mids.size * offs.size))
        grid = bnladder.gram._spectral_grid(t_max, 0.5)
    values = bnladder.zeta._panel_zeta(grid.mids, grid.offs)
    assert values.size == 15 * math.ceil(t_max / 0.5)
    assert hashlib.sha256(values.tobytes()).hexdigest() == PANEL_GRID_SHA256[t_max]


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
    # The tail runs over chunks of whole runs of blocks, each node with the
    # N of its block: the chunks cover every node exactly once, in a grid
    # and in panel calls with two panel shapes.
    tail = bnladder.zeta._tail
    calls = []

    def spy(s, n):
        series, bound = tail(s, n)
        calls.append((s.copy(), bound))
        return series, bound

    monkeypatch.setattr(bnladder.zeta, "_tail", spy)
    ts = np.linspace(0.0, T_CAP, 3 * 512 + 7)
    zeta_half_grid(ts)
    offs = 0.2 * np.linspace(-1.0, 1.0, 15)
    mids = np.arange(0.5, T_CAP - 40.0, 3.7)
    panels = [(mids, offs), (np.array([T_CAP - 0.1]), 0.5 * offs)]
    for m, o in panels:
        bnladder.zeta._panel_zeta(m, o)
    nodes = np.concatenate([ts] + [(m[:, None] + o).ravel() for m, o in panels])
    covered = np.concatenate([s.imag for s, _ in calls])
    assert np.array_equal(covered, nodes)  # each node once, in order
    assert len(calls) > 3  # the first panels take more than one chunk
    assert max(float(np.max(b)) for _, b in calls) < TRUNCATION_TARGET


def _omega(k):
    """Number of prime factors of k, with multiplicity, by trial division."""
    count, p = 0, 2
    while p * p <= k:
        while k % p == 0:
            k, count = k // p, count + 1
        p += 1
    return count + (k > 1)


# 2 pi to 70 digits (from mpmath), and the 40-digit decimal reduction the
# frozen ln p table and the reducer are checked against.
TWO_PI_70 = "6.283185307179586476925286766559005768394338798750211641949889184615633"
CTX_40 = decimal.Context(prec=40)
TWO_PI_40 = CTX_40.create_decimal(TWO_PI_70)


def _primes_to(n):
    """The primes <= n, by trial division."""
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, isqrt(p) + 1))]


def _decimal_phases(ts, ks):
    """t ln k mod 2 pi in 40-digit decimal arithmetic, rounded once: rows t."""
    logs = [CTX_40.ln(int(k)) for k in ks]
    mul, rem = CTX_40.multiply, CTX_40.remainder
    rows = ([mul(decimal.Decimal(float(t)), lg) for lg in logs] for t in ts)
    return np.array([[float(rem(x, TWO_PI_40)) for x in row] for row in rows])


def test_log_table_is_the_decimal_logs_split_into_words():
    # w1 = float(L), w2 = float(L - w1), w3 = float(L - w1 - w2), with L at
    # 60 digits and the differences exact.
    primes = _primes_to(int(bnladder.zeta._terms(T_CAP)))
    ctx, exact = decimal.Context(prec=60), decimal.Context(prec=200)
    want = []
    for p in primes:
        rest, words = ctx.ln(p), []
        for _ in range(3):
            words.append(float(rest))
            rest = exact.subtract(rest, decimal.Decimal(words[-1]))
        want.append(words)
    assert len(primes) == 452 and primes[-1] == 3191
    assert np.array_equal(bnladder.zeta._LN_PRIMES, np.array(want))


def test_two_pi_words():
    c1, c2, c3 = bnladder.zeta._TWO_PI
    # k C1 and k C2 are exact for every k the reduction takes (k < 2^14)
    for c in (c1, c2):
        num, _ = c.as_integer_ratio()
        assert (num >> ((num & -num).bit_length() - 1)).bit_length() <= 36
    assert int(T_CAP * math.log(3191) / (2 * math.pi)) + 1 < 2**14
    exact = decimal.Context(prec=200)
    rest = exact.subtract(decimal.Decimal(TWO_PI_70), decimal.Decimal(c1))
    rest = exact.subtract(rest, decimal.Decimal(c2))
    assert c3 == float(rest)
    assert abs(exact.subtract(rest, decimal.Decimal(c3))) < decimal.Decimal(2) ** -127


def test_phase_reducer_equals_decimal_reduction_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(20261020)
    primes = _primes_to(int(bnladder.zeta._terms(T_CAP)))
    # the 63 block middles of the raw 8x8 spectral grid at T = 1000
    reducer, middles = bnladder.zeta._phase_reducer, []

    def spy(t_a, count):
        middles.extend(t_a)
        return reducer(t_a, count)

    monkeypatch.setattr(bnladder.zeta, "_phase_reducer", spy)
    bnladder.gram.build_gram(bnladder.IndexWindow(7, 7), "raw", method="spectral")
    assert len(middles) == 63
    # within about 1e-12 of a period of one prime: t = 2 pi k / ln p rounded
    ctx = decimal.Context(prec=60)
    near, which = [], rng.choice(len(primes), 300)
    for p in (primes[i] for i in which):
        k = int(rng.integers(1, int(T_CAP * math.log(p) / (2 * math.pi)) + 1))
        near.append(float(ctx.divide(ctx.multiply(k, decimal.Decimal(TWO_PI_70)), ctx.ln(p))))
    ts = np.concatenate(
        (rng.uniform(0.0, T_CAP, 2000), middles, np.geomspace(0.1, 5000.0, 200), [0.0, T_CAP], near)
    )
    got = bnladder.zeta._phase_reducer(ts, len(primes))
    want = _decimal_phases(ts, primes)
    assert np.array_equal(got, want)
    # each near period's phase lies within 1e-9 of 0 or of 2 pi, some of
    # them just above 0, where an ulp is smallest
    phase = want[-300:][np.arange(300), which]
    assert np.all(np.minimum(phase, 2 * math.pi - phase) < 1e-9)
    assert phase.min() < 1e-14


@pytest.mark.parametrize("lo,hi", [(0.0, 40.0), (2500.0, 2530.0), (T_CAP - 30.0, T_CAP)])
def test_power_table_rows_match_direct_phases(lo, hi):
    # Reference row k: cos/sin of (t_a ln k mod 2 pi) + (t - t_a) ln k at
    # the column's block middle t_a, with t_a ln k mod 2 pi from 40-digit
    # decimal logarithms rounded once.  The seven ordinates are two blocks
    # of one table, reduced at ts[1] and at ts[5].
    ts = np.linspace(lo, hi, 7)
    n = int(bnladder.zeta._terms(hi))
    least = bnladder.zeta._least_factors(n)
    t_a = np.where(np.arange(ts.size) < 3, ts[1], ts[5])
    primes = _primes_to(n)
    reduced = bnladder.zeta._phase_reducer(t_a, len(primes)).T
    table = bnladder.zeta._powers(ts, t_a, reduced, least, n)
    assert table.shape == (n + 1, ts.size)
    k = np.arange(1, n + 1)
    phase = _decimal_phases(t_a, k).T + np.outer(np.log(k), ts - t_a)
    ref_re, ref_im = np.cos(phase), -np.sin(phase)
    omega = np.array([_omega(int(j)) for j in k])
    prime = omega == 1
    assert np.array_equal(k[prime], primes)
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
    tol = tol + 6.0 * u * np.outer(np.log(k), np.abs(ts - t_a))
    err = np.abs(table[1:] - (ref_re + 1j * ref_im))
    assert np.all(err <= tol)
