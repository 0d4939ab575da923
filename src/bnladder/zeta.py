"""Riemann zeta on the critical line Re s = 1/2.

Euler-Maclaurin summation (Edwards, *Riemann's Zeta Function*, 6.4) with
N terms and M = 30 corrections,

    zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_{k=1}^{M} B_2k/(2k)! s(s+1)...(s+2k-2) N^(1-s-2k) + R_M,

with Backlund's bound |R_M| <= |s+2M+1|/(sigma+2M+1) |T_(M+1)| by the
first omitted term.  Every node of a block takes N = ceil(t_top/pi) + 10
from the block's top node t_top, so |s|/(2 pi N) < 1/2 on it, and the
truncation error is proven: below 4e-19 on [0, T_CAP].  The tail runs
elementwise, each node with its own N, over chunks of consecutive runs of
blocks (below), so a grid's working set stays bounded whatever its size.

One evaluator, :func:`_panel_zeta`, serves every call.  It takes the
ascending midpoints of panels and the offsets that they all share, and
evaluates at the nodes t = mid + off, their float64 sums.  A spectral
Gram grid hands it its equal K15 panels; :func:`zeta_half_grid` and
:func:`zeta_half` pass the one offset 0, a panel per ordinate.  With
e = t - (mid + off), exact by Fast2Sum and at most ulp(t)/2,

    k^-it = k^(-i mid) k^(-i off) (1 - i e ln k) + O((e ln k)^2),

so over a block of midpoints the head sum is one matrix product: the
table of k^(-i mid) (N x panels) against the one table of
k^-1/2 k^(-i off) and, beside it, its ln k multiple (N x offsets each),
which gives the first-order term.  That term is needed: without it a
grid at h = 1/2 errs by up to 4.8e-13 on [0, 1000] and 2.4e-11 on
[6000, 10000]; the omitted (e ln k)^2 / 2 is below 1e-22.  This is the
simplest case of the shared-work multi-evaluation of Odlyzko and
Schonhage (Trans. AMS 309, 1988), and it leaves N unchanged.

The table over midpoints uses that k^-it is completely multiplicative:
only the primes take a cosine and a sine, and a composite k is the
product of the rows of its least prime factor p and of k/p.  A block
holds at most 32 midpoints spanning at most 32; consecutive blocks share
one table while it stays within 512 KiB (_TABLE_BYTES), and each block
takes its own head product from its columns.  The head sums go straight
into the one output array, and the tail series, times N^(-it) / sqrt(N),
is added over chunks of whole runs, a chunk closing once its nodes reach
_TABLE_BYTES / 64 (four complex arrays of the tail).  Every step is
elementwise or per block, so the chunking moves no bit.  With the moment
slabs of :mod:`.gram` bounded by the same budget, the allocations of the
raw 8x8 spectral build peak at 2.8 MB at T = 1000 (30,000 nodes) and at
12.2 MB at T = 10000, the grid's power spectrum included (tracemalloc).

The roundoff is an estimate.  Float64 gets the phase t ln p wrong by
~t ulp(ln p), so a block takes t_a ln p mod 2 pi at its middle midpoint
t_a and adds only (t - t_a) ln p in float64, |t - t_a| <= 16.  The
reduced phase comes from a frozen table of ln p in three float64 words
for the 452 primes up to the cap's term count, by a Cody-Waite reduction
with exact two-products (:func:`_phase_reducer`).  It equals the
reduction in 40-digit decimal arithmetic, rounded once, bit for bit on
all 1.16 million (t_a, p) pairs the tests take, the CLI's grids among
them.  A prime row then errs by about
(4 + 2 pi + 6) u + 3 u |t - t_a| ln p, u = 2^-53 (the rounded phase, its
float64 sum and product, a cosine and a sine).  A composite row is a
product of Omega(k) <= 11 prime rows (2^12 > 3,194, the term count at the
cap), so it errs by at most the sum of its factors' errors plus sqrt(5) u
per complex product: about 19 Omega(k) u + 3 u |t - t_a| ln k, 2.2e-14 at
Omega = 11 and t = t_a.  The offset phases off ln k, |off| <= h/2, err by
a few u.  A prime's error reaches every multiple of it, so the head sum
adds these errors less randomly than independent phases would, and the
matrix product sums its N terms in order.  Against 30-digit mpmath the
K15 grid at h = 1/2 errs at its stored nodes (200 per band) by at most
4.3e-15 on [0, 100], 9.1e-15 on [100, 1000] (the grid to T = 1000),
1.3e-14 on [1000, 3000], 2.1e-14 on [3000, 6000] and 1.8e-14 on
[6000, 10000] (the grid to T_CAP).  Over 25 random t per band (four
draws) a scalar call errs by at most 2.0e-15, 9.8e-15, 2.1e-14, 1.4e-14
and 2.1e-14 on those bands, and one grid over the 25 by at most 1.8e-14,
3.1e-14, 2.6e-14, 3.1e-14 and 2.1e-14.  Ordinates above the cap raise.
"""

from __future__ import annotations

import binascii
import math
from dataclasses import dataclass

import numpy as np

from .errors import ZetaRangeError, _real
from .oracle import ZETA_ORACLE

__all__ = [
    "T_CAP",
    "zeta_half",
    "zeta_half_grid",
    "ZetaCheckPoint",
    "ZetaSelfCheck",
    "zeta_selfcheck",
]

# Height up to which the implementation is accuracy-checked.  The term
# count grows like t/pi, to 3,194 at the cap, where Backlund's bound is
# 3.3e-19 and a scalar call measurably errs by 1.7e-15.
T_CAP = 1.0e4

# Tolerances of zeta_selfcheck against the frozen oracle table.
_SELFCHECK_REL_TOL = 1.0e-9
_SELFCHECK_ZERO_ABS_TOL = 1.0e-8

# A block of the midpoint table holds at most _BLOCK panels spanning at most
# _SPAN: its phases grow from the middle one, and their error with the span.
_BLOCK = 32
_SPAN = 32.0
# Consecutive blocks share one table of powers while it fits in this many
# bytes; the tail's chunks and the moment slabs of gram keep to it too.
_TABLE_BYTES = 1 << 19
_M = 30  # Euler-Maclaurin corrections
# 2 pi = C1 + C2 + C3 to 2^-127: C1 and C2 of 36 bits, C3 the float64 rest.
# The primes' ln p in three words, _LN_PRIMES, closes the module.
_TWO_PI = (6.283185307169333, 1.0253376606335823e-11, 4.225199626794971e-23)

# B_2k/(2k)! for k = 1..M+1, each exact fraction rounded once to float64.
_BERNOULLI = (
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23, 2.267952452337683e-24,
    -5.744790668872202e-26, 1.455172475614865e-27, -3.6859949406653103e-29,
    9.336734257095045e-31, -2.36502241570063e-32, 5.990671762482134e-34,
    -1.5174548844682903e-35, 3.843758125454189e-37, -9.736353072646691e-39,
    2.466247044200681e-40, -6.247076741820743e-42, 1.5824030244644914e-43,
    -4.008273685948936e-45, 1.0153075855569557e-46, -2.5718041582418717e-48,
    6.514456035233815e-50,
)


def _terms(t_top):
    """Euler-Maclaurin term count N of the ordinates at or below t_top,
    elementwise."""
    return np.ceil(np.asarray(t_top) / math.pi).astype(np.int64) + 10


def _least_factors(n_max: int) -> np.ndarray:
    """The least prime factor of each k <= n_max (k itself for k < 2)."""
    least = np.arange(n_max + 1)
    for p in range(math.isqrt(n_max), 1, -1):  # the smallest p is written last
        least[p * p :: p] = p
    return least


def _split(a):
    """Dekker's split: a = hi + lo exactly, each half of at most 26 bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_sum(a, b):
    """Knuth's TwoSum: a + b = s + err exactly, s = fl(a + b)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, a_halves, b, b_halves):
    """Dekker's two-product: a b = p + err exactly, p = fl(a b), from the
    :func:`_split` halves of both factors."""
    (a_hi, a_lo), (b_hi, b_lo) = a_halves, b_halves
    p = a * b
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _phase_reducer(t_a, count: int) -> np.ndarray:
    """t_a ln p mod 2 pi, in [0, 2 pi], for each ordinate of ``t_a`` (rows)
    and the first ``count`` primes (columns), rounded once to float64.

    ln p = w1 + w2 + w3 comes from the frozen table :data:`_LN_PRIMES`, and
    t_a w1 and t_a w2 are split exactly by Dekker's two-product.  Cody and
    Waite's reduction takes k = rint(t_a w1 / 2 pi) and subtracts k times
    2 pi = C1 + C2 + C3 (:data:`_TWO_PI`): C1 and C2 have 36 bits, so for
    k < 2^14 (t_a ln p / 2 pi <= 12,850 on [0, T_CAP]) k C1 and k C2 are
    exact, and t_a w1 - k C1 is exact by Sterbenz's lemma.  The rest is
    summed with TwoSum, so before its one rounding the remainder errs by
    about 1e-34 near a period and 2^-100 of itself elsewhere; a negative
    remainder takes 2 pi once more.

    The result equals ``float(remainder(Decimal(t_a) * ln p, 2 pi))`` in
    40-digit decimal arithmetic bit for bit, checked in the tests on every
    prime at 2,000 random t_a, the block middles of the raw 8x8 spectral
    grid, the 200 ordinates of ``spectrum``, 0, T_CAP and 300 t_a within
    1e-12 of a period of one prime (another 1,500 such, as close as 5e-17,
    agreed too).  Two words of ln p would not do: ln p - w1 - w2
    reaches 2^-104 ln p, and 72 of 300 near periods came out an ulp or more
    apart.  Dropping w3 changes 55 of the tests' random and near-period pairs,
    dropping C3 2,439.
    """
    t = np.asarray(t_a, dtype=np.float64)[:, None]
    w1, w2, w3 = _LN_PRIMES[:count].T
    t_halves = _split(t)
    p, p_err = _two_prod(t, t_halves, w1, _split(w1))
    q, q_err = _two_prod(t, t_halves, w2, _split(w2))
    c1, c2, c3 = _TWO_PI
    k = np.rint(p * (0.5 / math.pi))
    s, e1 = _two_sum(p - k * c1, -(k * c2))
    s, e2 = _two_sum(s, p_err)
    s, e3 = _two_sum(s, q)
    tail = (((e1 + e2) + e3) + (q_err + t * w3)) - k * c3
    neg = s + tail < 0.0  # the sign of the exact remainder: take k - 1
    s, e4 = _two_sum(s, np.where(neg, c1, 0.0))
    return s + ((e4 + np.where(neg, c2 + c3, 0.0)) + tail)


def _tail(s, n):
    """The Euler-Maclaurin terms after sum_{k<n} k^-s, divided by n^-s, and
    Backlund's bound on the rest: ``(series, bound)``, elementwise in s, n."""
    series = n / (s - 1.0) + 0.5
    rising = s / n  # s(s+1)...(s+2k-2) n^(1-2k) at k = 1
    for k, b in enumerate(_BERNOULLI[:-1], start=1):
        series = series + b * rising
        rising = rising * (s + (2 * k - 1)) * (s + 2 * k) / (n * n)
    bound = np.abs(s + (2 * _M + 1)) / (s.real + (2 * _M + 1))
    return series, bound * np.abs(_BERNOULLI[-1] * rising) / np.sqrt(n)


def _powers(ts: np.ndarray, t_a: np.ndarray, reduced: np.ndarray, least, n: int) -> np.ndarray:
    """k^(-it) for k = 0..n on ascending ordinates ``ts``: an (n+1) x
    len(ts) complex table whose row 0 is unused.  Column j takes its prime
    phases at its block's middle ordinate ``t_a[j]``, where ``reduced[i, j]``
    is t_a[j] ln p mod 2 pi for the i-th prime p <= n (from
    :func:`_phase_reducer`), and adds (t - t_a) ln p in float64.  Only prime
    rows take a cosine and a sine; a composite row k is the product of the
    rows of its least prime factor p and of k/p.  ``least`` is a
    :func:`_least_factors` reaching n."""
    primes = np.flatnonzero(least[: n + 1] == np.arange(n + 1))[2:]
    # p^(-it) = exp(-i [(t_a ln p mod 2 pi) + (t - t_a) ln p])
    phase = reduced + np.outer(np.log(primes), ts - t_a)
    table = np.zeros((n + 1, ts.size), dtype=np.complex128)
    table[1] = 1.0
    table.real[primes] = np.cos(phase)
    table.imag[primes] = -np.sin(phase)
    # k/p <= k/2, so the composites in (lo, 2 lo] need only rows up to lo
    lo = 2
    while lo < n:
        k = np.arange(lo + 1, min(2 * lo, n) + 1)
        k = k[least[k] != k]
        table[k] = table[least[k]] * table[k // least[k]]
        lo *= 2
    return table


def _blocks(mids: np.ndarray):
    """Slices of at most _BLOCK ascending midpoints spanning at most _SPAN."""
    lo = 0
    while lo < mids.size:
        hi = min(lo + _BLOCK, int(np.searchsorted(mids, mids[lo] + _SPAN, side="right")))
        yield slice(lo, hi)
        lo = hi


def _runs(blocks, tops: np.ndarray):
    """Runs of consecutive blocks whose table of powers, rows up to the
    run's largest N, fits in _TABLE_BYTES; a larger block runs alone."""
    run = []
    for blk in blocks:
        if run and (tops[blk.stop - 1] + 1) * (blk.stop - run[0].start) * 16 > _TABLE_BYTES:
            yield run
            run = []
        run.append(blk)
    yield run


def _panel_zeta(mids, offs) -> np.ndarray:
    """zeta(1/2 + i t) at the nodes t = mid + off (float64 sums) of panels
    that share their offsets; see the module docstring.

    ``mids`` are nonempty ascending midpoints, each at least max |off|.
    The values come back midpoint-major, in the layout of
    ``(mids[:, None] + offs).ravel()``.
    """
    mids, offs = np.asarray(mids, dtype=np.float64), np.asarray(offs, dtype=np.float64)
    tops = _terms(mids + offs.max())  # N of each panel's top node
    n_max = int(tops[-1])
    least = _least_factors(n_max)
    pi_k = np.cumsum(least == np.arange(n_max + 1)) - 2  # the number of primes <= k
    log_k = np.log(np.arange(1.0, n_max + 1.0))[:, None]  # ln k in row k - 1
    # midpoint-major: the head sums until the tail is added
    values = np.empty((mids.size, offs.size), dtype=np.complex128)
    o_table = np.exp(-1j * log_k * offs)  # k^(-i off), k = 1..N
    # k^-1/2 k^(-i off) and its ln k multiple, side by side: one product
    # gives each block's head sums and their first-order terms.
    wo = o_table[:-1] / np.sqrt(np.arange(1.0, n_max))[:, None]
    wo = np.concatenate((wo, wo * log_k[:-1]), axis=1)
    chunk = []  # runs awaiting the tail: their panels, N and N^(-i t)
    for run in _runs(_blocks(mids), tops):
        cols = slice(run[0].start, run[-1].stop)
        n_run = int(tops[cols.stop - 1])
        # the prime phases of the run's blocks at their middle midpoints,
        # in one reduction, and each midpoint's block
        middles = mids[[(b.start + b.stop) // 2 for b in run]]
        reduced = _phase_reducer(middles, int(pi_k[n_run]))
        owner = np.repeat(np.arange(len(run)), [b.stop - b.start for b in run])
        table = _powers(mids[cols], middles[owner], reduced[owner].T, least, n_run)
        m = mids[cols, None]
        # mid >= |off|, so both differences are exact (Fast2Sum): e is the
        # node's rounding, node = mid + off + e with |e| <= ulp(node) / 2,
        # and k^(-i node) = k^(-i mid) k^(-i off) (1 - i e ln k) + O(e^2).
        e = ((m + offs) - m) - offs
        n_pow = np.empty(e.shape, dtype=np.complex128)
        n = np.empty(m.size)
        for blk in run:
            top = int(tops[blk][-1])  # every panel of a block sums to its top's N
            rows = slice(blk.start - cols.start, blk.stop - cols.start)
            own = table[:, rows]
            both = own[1:top].T @ wo[: top - 1]
            values[blk] = both[:, : offs.size] - 1j * e[rows] * both[:, offs.size :]
            n_pow[rows] = own[top][:, None] * o_table[top - 1]
            n[rows] = top
        n_pow *= 1.0 - 1j * e * np.log(n)[:, None]
        chunk.append((cols, n, n_pow))
        # the tail holds about four complex arrays over the chunk's nodes
        if (cols.stop - chunk[0][0].start) * offs.size * 64 >= _TABLE_BYTES:
            _add_tail(values, mids, offs, chunk)
            chunk = []
    if chunk:
        _add_tail(values, mids, offs, chunk)
    return values.ravel()


def _add_tail(values, mids, offs, chunk) -> None:
    """Add N^(-i t) / sqrt(N) times the tail series to the head sums in
    ``values`` at the nodes of a chunk of consecutive runs."""
    first, stop = chunk[0][0].start, chunk[-1][0].stop
    nodes = (mids[first:stop, None] + offs).ravel()
    n = np.repeat(np.concatenate([c[1] for c in chunk]), offs.size)
    n_pow = np.concatenate([c[2].ravel() for c in chunk])
    series, _ = _tail(0.5 + 1j * nodes, n)
    values[first:stop] += (n_pow / np.sqrt(n) * series).reshape(-1, offs.size)


def zeta_half(t: float) -> complex:
    """zeta(1/2 + i t) for a single real ordinate t.

    Negative t is handled by the reflection zeta(conj s) = conj zeta(s).
    Raises :class:`ZetaRangeError` when |t| exceeds ``T_CAP``.
    """
    t = _real(t, "t")
    if not math.isfinite(t):
        raise ZetaRangeError(f"ordinate must be finite, got {t!r}")
    if abs(t) > T_CAP:
        raise ZetaRangeError(f"|t| = {abs(t)!r} exceeds the accuracy-checked cap {T_CAP:g}")
    val = complex(_panel_zeta([abs(t)], [0.0])[0])
    return val if t >= 0 else val.conjugate()


def _check_grid_top(t_top: float) -> None:
    """Reject a grid whose largest ordinate ``t_top`` exceeds ``T_CAP``."""
    if t_top > T_CAP:
        raise ZetaRangeError(
            f"grid reaches |t| = {t_top!r}, beyond the accuracy-checked cap {T_CAP:g}"
        )


def zeta_half_grid(ts: np.ndarray) -> np.ndarray:
    """Vectorized zeta(1/2 + i t) over a grid of nonnegative ordinates: the
    panel evaluator with one offset, 0, and a panel per ordinate, taken in
    ascending order (see the module docstring).  Ordinates within 32 of
    each other share blocks of up to 32; one more than 32 from its
    neighbours is a block of its own and repeats the bits of its scalar
    call."""
    ts = np.asarray(ts, dtype=np.float64)
    if ts.ndim != 1:
        raise ZetaRangeError("ordinate grid must be one-dimensional")
    if ts.size == 0:
        return np.empty(0, dtype=np.complex128)
    if not np.all(np.isfinite(ts)) or np.any(ts < 0.0):
        raise ZetaRangeError("ordinate grid must be finite and nonnegative")
    _check_grid_top(float(ts.max()))
    order = np.argsort(ts, kind="stable")
    out = np.empty(ts.size, dtype=np.complex128)
    out[order] = _panel_zeta(ts[order], [0.0])
    return out


@dataclass(frozen=True)
class ZetaCheckPoint:
    """One oracle comparison: computed vs stored reference value."""

    t: float
    computed: complex
    reference: complex
    deviation: float  # relative, except absolute at near-zeros
    is_zero_ordinate: bool


@dataclass(frozen=True)
class ZetaSelfCheck:
    points: tuple[ZetaCheckPoint, ...]
    max_rel_dev: float
    max_zero_abs: float
    passed: bool


def zeta_selfcheck() -> ZetaSelfCheck:
    """Compare the evaluator against the frozen high-precision table.

    Ordinary points must match to 1e-9 in relative terms.  At an ordinate
    where zeta vanishes the reference is the exact zero, so the check is
    absolute with the looser 1e-8.
    """
    pts = []
    for t, ref, is_zero in ZETA_ORACLE:
        val = zeta_half(t)
        dev = abs(val - ref) / (1.0 if is_zero else abs(ref))
        pts.append(ZetaCheckPoint(t, val, ref, dev, is_zero))
    max_rel = max((p.deviation for p in pts if not p.is_zero_ordinate), default=0.0)
    max_zero = max((p.deviation for p in pts if p.is_zero_ordinate), default=0.0)
    passed = max_rel <= _SELFCHECK_REL_TOL and max_zero <= _SELFCHECK_ZERO_ABS_TOL
    return ZetaSelfCheck(tuple(pts), max_rel, max_zero, passed)


# ln p = w1 + w2 + w3 for the 452 primes p <= _terms(T_CAP) = 3,194, one
# row (w1, w2, w3) per prime, as little-endian float64: w1 = float(L),
# w2 = float(L - w1), w3 = float(L - w1 - w2), with L = ln p in 60-digit
# decimal arithmetic, computed once offline (checked in the tests).
_LN_PRIMES = np.frombuffer(
    binascii.a2b_base64(
        "7zn6/kIu5j8/gDk7nrx6PDQZmgd6tQc5CwOteuqT8T/rq8qZbyWavJn0rgcpDRK5M43t90HA+T8dWJTefb+aPMFw"
        "TEn0MTk5V1oyrnIi/z+YPFtS2huVPGTONUxG4Ds5TDd/t+MuA0AF1gzQ6BCivBp305oy+kI5UYwxKwSFBEAowHUQ"
        "I5hHvH4tuNrJQNA4en/6wWuqBkDqoeMxaICYvDOm6yiqrDq5LLMEBjaOB0Ck3MSlHoCsPPB/Kdm5UDM58LPR/X0V"
        "CUD5teQBDCtyPF6WR3lg/hi5H/7NyzjwCkBz6UPYV6agvM0fPQ/VyDk5WiuRSM54C0CIJY+7otF9vPCPg64Q9hW5"
        "vcc67ijjDEAH8I+t9MubPGFS7X4Tuyi5TqyORWW1DUCFMUsByBSlvOpr53qBmju5EewUFvAWDkChYWC3JF2GPOV+"
        "23jPiSc5tvCQLxrNDkAIcgypG2OmPHTR8gpshTQ5qzwiaCjDD0BZISSFVuCivAbuJUjtgk45eSnH+WVPEEDzUHx6"
        "7FayvJb5CWnMZ1+5DWwS64hxEEAqQgNNQk+evM48nJdK+iW5LREo8ZrREEA9h4bP1Sm4PLO1Ku/TEEG5ydYk9PsM"
        "EUBtnf68xqGEvNUVybWT4CK55i8iM24pEUA6I1Ry1KepPOcg0aTHyC05c7GviVB6EUCZEwBm+ulRvMjIxPYu+PU4"
        "guRijeSsEUAoDkrLdHu4vFu9FppWVT259oquF130EUCHnXGXwFusPAN7yyB1KCC5+EvlCIFMEkBgViYFS+5NPFve"
        "b1BrgOe4MbobJ+J1EkBFwJqGyXGwvGvESR3TzEA57BNZZfaJEkDt8zVwOK2ZvBl7g05A+Co5W0e/CvqwEkDPGPoH"
        "eHm8PN+TK65M6x05BlUBs/DDEkDg6w272vWxPB6jZjqX7l05XIMzWtjoEkCWWZH1UuKxvPRB2XrlJiu5Qi5glHJg"
        "E0CgiNCErjWWPGlEuKA8hi65YsgiujOAE0B3RDw3z1y6PNhHZXlwzlq5nYDVeg+uE0AiNP/TMMqmvCYSmMpjrkq5"
        "EgsXvOa8E0BLklHIrBuzPFRbN0iLC0s5LecbgAoEFEAP3GDE/K6OvKSFbc5lag85UwA4zrERFECPfbfsacKHPKn9"
        "RoL2zR+5XAgagJg5FEBPHUpd8+S5PLcTe1VbvFC5e9V5DQBgFEACi2Wkva1VPBmSC3YNGO04X9e1XtN4FEAYpWlD"
        "/Oq3vP5xMqwXoDg5h3rEePicFEC0INcoZfS4vHwTqSSTZDe5WEiPEOK/FEDyeUVUwBOUPNr2JIE8QD65K49GzkLL"
        "FEDdP4xJvY+3vFXZIU+2Q0m5unAs91MCFUB/nVumYO1xvB2E1IjCbxI5Yk4pqP4MFUCG6NRZQeyMvMjdIel84iI5"
        "wSOEKAAiFUB+vXTyP4xxPCw93lpMIfW4hs2XGVgsFUALJS5+qAKjPDnWORDAmkK5+3Ggf01oFUCTS3sKN+6lvLQU"
        "RP6tBTc5NhoJo/GgFUAGaL/6S6OZvMBPyhJKhjQ5qxHuGCazFUDGT0DvWG2yvMBERxcSxzU5w0jzniG8FUB8qbkP"
        "lAq2vBd1Tg8K+V+5XzY9Bt3NFUAyAZ3vr0K9PJyCLiB4SVU5miC1D+bnFUCG8pPbBXO5vMp7GRMsNV+5fix6m27w"
        "FUAZX4gtMgyvPOnNyAMzqi+54qHUVRAaFkBhwNXMHDe9PGHEYJMDCEU5EZBOAEEyFkAGiwifYJ+0vIgYOqN0iQA5"
        "gekhv+JJFkB60+qRd0WpvLHlbv75OzE5t8sXBfxgFkC8IevUGeiIPHKvINI1ZhS5BvAP1pFoFkDEJ5T/fTGjvBDz"
        "wzX4oU05C9P0cf5+FkCXZeQZsi+DvJ51r/smJSQ5Oiaw2KyNFkAbW2Wek+K5PEjAdRO4VEW5vroSCPCUFkD2wW16"
        "EBeXvJFJY0fBBxK5BXQdK3+4FkDoa3HYbNC5vMj/cWB5Rke5rDukxkroFkDsHhIctvG2POqE1FfIVEU5WX3uRYz1"
        "FkDIKR+2AGatPL4KeECuJTg5yylusBz8FkAQwpQ2/gm0PEDwEDYziBy5nLfuix0JF0Atj30cYzu2PLw7qPq5c1m5"
        "gA/3hF41F0Ca+SrYsyp9PBZamKqDKB+5JnzX0cNHF0BoGlZxGPelPCBBYc/Rqvc4dTcmZbVlF0Bxi03YdGGbvPmQ"
        "65EB5CQ5YFlW+ZdrF0AOR2WCUfamPNWgTpmkAku5jDr+ZkN3F0BhNI0DUY6wPIceLnHI71G57YYJqoWIF0B81r1l"
        "ks+zPIBbB1EXRkm5E8MhLRefF0BL/PEiF0u7vOSJyfYNXki5OUfUQLKvF0Di9mes1Mq7vCAYPzPII0W5c5SufQnA"
        "F0D0qct7c+uLPEqz5L7Wgig5dfonr8nKF0De4jIy0My3PJh7XdZOTl25/cQfi7TaF0AOTnuYe469PLZKb7xF5k+5"
        "8pgL/ozvF0ARRm+bbe63vPjnNgn1E1I5nBE/BtH5F0BjlGg+6lelvBUCKa7K3k+5S6eKWAsOGECnqcOoz5+9vOEN"
        "e7L0ZDM52yNqoscmGEBgyIwC2g+2PENvEvL8d1q5RpsJ8acrGEC3SobHdoe0PARJyVWVz0+5ifzT1rFDGEApbEiK"
        "4mC7PKK3wAnyTks5xnSReG9IGEAOxJCR5MSoPCHfeCqKdzw5mMGeA4dWGEAGWh3X6BmmvP9HuQHE1D450PP4wNBf"
        "GEAfcpSN5CCCvND6Flxj4ii5GRtraJdtGECSuYT+UUGyvKTn68c/fVU54Pq4AK1/GEA3lW7unCm9vDSk3KVecEs5"
        "gxUgf5mIGEDXjVrudA+VvM2ZjGz6gTe5mEwkUgiNGEBuAJSyh1RzvIWtnGh1dRc5IotAVteVGEB9PQcrs8GovAsN"
        "1dOLDyc5jFUKSNKvGEC+vIRLQXO2PEKzFGtCcFe5cJluT8jAGEAWy1KMz3CiPJRcejpTiT+5j3lBpijJGEBiAI2L"
        "8S+vPOBbRziq2Uo5abuQabXZGEBahlvQLnuhvPZ/ZMs49yg5/5a5Y+LhGEDaN8Ub2TuHvCNowTEiAfQ4EmtU2gbu"
        "GEBojoBbOMmxPERSsRRjj1G5GSDFVuMFGUCy1s1DAG9nPKxhWkQDqPy4AToruc8JGUD+k3O199C2vN+mCpHfk0S5"
        "a6V6GnYsGUBAHBJhZnC9PEmglyzmajy5ydVGbcE3GUCjkZLirlaUPB4wxG8BQ/O4nkHRik5KGUAB/gPcj6awvAyb"
        "YE2sf0e5ziE9QUdVGUBw4U7QFoatvCzSveKZ6kO5PTpJMSJgGUC4j2aBcD6VPDBBegsP8zO5y9I5/7ljGUBh/s7d"
        "nW60vPm8jGbr0kq5fx3/M25uGUA2EaE5XYGxvNUHD0tJ9jS5XmahgQaAGUDYOcu0fvi2vO9l3AIYIl25wDCJZnCK"
        "GUBdx6CueOe3vPEpQJnPGEO5CxXVdL+UGUBdJzjGU5qbPK+PlA2TgDQ5TLhARSmYGUDKJ5MSWet5PGEIBKdWCwy5"
        "w0wUX1WiGUCmJYtDzymavJXg6j3LAD85gY6W22esGUA6cqeq4CGtvCWSk0g7QD65QQeL3RCzGUDqmuua31axvBQu"
        "pquzHVC5t7OFOmG2GUAO5m0zGYOavI7k0nUHLjW5v7FLjArKGUCcuzyi3xS+PAKaeIc4aCY5VTzaZCTaGUDvQ9hn"
        "zBenPP+97ZcITkk5zDbnClXdGUBx+aV2Bpq0PNcrKTcz6FQ5lxI9v67jGUDFbh9HNnO6vC/j9stlhU+5sPkSjiLt"
        "GUCFjsOWTrB7PPUSbzG4IQ05YEPwOoD2GUD8ylnrO/OPPBJbH9Q2Bik56b9Jm5r5GUCzqhkvXKO+PGEqnicbn1m5"
        "w9G69wYMGkCVYbFGcgyMvJZqNGrSfBO5mfIMaxgSGkBUSz/YbuoJvBGsHrviI5g4gXntdyEbGkCb0Culww+QvG6x"
        "fMEU0Cs5hgc/IA4nGkA7Hc9aJHi3vB6rd+kX9Cy57GGmoMQ1GkC65CNER4FePOOyudRXNOe4VX/YV2NBGkCtYiRM"
        "x+qMPDMGcguivRe53yJE47pPGkC16Kly396zvBV5oIba51U5EAXjig9bGkB44mR2oTejPHGWbui4mzW5VjOyKXpj"
        "GkCDJiTzL22uPGYIjoGQxf04vjzbN9NrGkBleEvJhEi3PMQiqK6fsVe59G/PTVpxGkBP8uZ+NyZwvIpI2I5kExg5"
        "j4Ffw1F8GkDxwZ8z+PO2PFhvdb4rSlS5okX7zHeEGkAuZHyXp4O1PNzy/Yj551Y5zt2zU92JGkCi4Y38yHewvImf"
        "UtTrMks5/+IjupKUGkArAnQK3sS8vNptrGM1lzy58dM7wOKZGkAe0exabqW8vMXVcWe5FF85TN2kBkSsGkCTixVA"
        "BA+aPBNHfogGxDA5JO4K+DG5GkACTzRNC6+pvC0jv3FnGj65Cm/lgn/IGkB41vtdazS9PMbJGxJNiU85rBHhxwbL"
        "GkCyJKVTs4OwvE+QpsgynlO5BJq4XpPXGkDUebUADSG+PFySsKuw4045wI21MBHaGkB+5cRqdyGGPM+ZwUL1piq5"
        "BCuoMQjfGkBII+R0vk6nPEl+iwuqSia5kedwZIHhGkDLMl/83WanvHOu/gOdSzK5Fzu4pMjtGkASDr5URNi1PGbk"
        "j6ozDlI5ly2k0rr+GkCvPgRwchanvFdC+WYOs0a5bcbPOoUDG0BjsR5JYvSqvOLW582M9E05rwXNSegFG0AlwwqM"
        "Ez6/PO1hxCerPFA5smcWJqoKG0BItSkvrYOtPFzubuNzNES5V2olpiQbG0Aj1o0qGqB+PPzGaMEEsfQ4yr/+kc0f"
        "G0BwiShBJW27vNeJaoI160C5FuhaACAiG0DR4g+EwYW1PBvSNnUEPVK5cFnF1cAmG0BGyOfuEUyzPFDeCtefhkc5"
        "H2KB+5U9G0Bd0te9dpa9PHAa2iM3GCk5tK6DiBdCG0BOyTwnSAygPD0P3xk/HUK5xRJrhAtLG0AN/D5VMLyoPCF6"
        "xPc7YzC5jw3qmSBWG0Bixf8YwlK4PCanKzwX9yc5XGbIXeheG0DuNL6nlZylPGJmM3CTTkY58lz4D0VjG0A92Al6"
        "REG7PK8E1T0lXla5PcPLPMdpG0DbAoFF2jh/PItQ6XkrJRq5XWWp4z5wG0DMe3i1YUC3PCqPW4zxvFC5urzw4y1/"
        "G0AsjX8dGiaiPLDBPE3GmgK59haCA2iDG0AcnlHq8761vHe/XaOUUVs50RZx3raJG0AMNcMNUne+PDC6NAUjkVu5"
        "pjRS1vuPG0C7U+8FvbyiPKvC/a6tska5dox1n0iYG0B67cwE8g+0vJ/40FLz4125UhFg/HaeG0CF2E/k0sWcPDv+"
        "szUkqTu50q6gV7eqG0AYCiy/hj6/PMNkR9IvplU5y23EgsSuG0DOjbt3N9OfPCx0k9PIYBa5TaobnNC0G0B2IHi5"
        "Kc2qvLb5FiKN7Ug5OncontK2G0AA6n2Rl7KyPBpagihySV65z8nUpc3AG0CZC/iugrqyvLCY8KJ180e5N1XPrcnC"
        "G0A6WFH75WCEvJYc+C/B2CS5h1FF5LfIG0Db4dWcU1eKPN9N8ZZZcSo5G3Jl3obSG0AFMOra5fSQPPCQpCwIFjo5"
        "obDXMHrUG0AExoHtbtS0vJR1DximRFs5cp0yoizeG0AYefxscjezPK7TkcrAi0a5mMhGUBrgG0B4f+x7VkeoPAzK"
        "TJLxEU45IPq1zN3lG0Ax6I5AhdWZPBvb9e6jbw+5XPLqEvf2G0AqvRKpQTyvvCKwwHaITiA5AFFm9Ln6G0CS4G1K"
        "zM+uPGV5g+PRGkU5xfxwEpr8G0BBRA6xzV+4vLNTC8749zQ5lMY/rVcAHEA1Xu9xRLSyPIUHDKVPQ1g5lXqBju0F"
        "HEA+PXYzzli6vFA6MqUbjVi52bXzrXsLHEBBfIr1zQ25vPTav47CD1g5VsLU69cSHEClqb6U2FuuvAGE/3rEHU05"
        "41p2RFQYHECl7xxphAKzPA8LYR7BYkO57/hiIckdHEADlZEZxyW0PKUTc9N1Wl45ISDsNIwxHEBKMfdzH9WpvH5Y"
        "wgy00UM5E2VlUVMzHEBOjBZUri+XPG46DQYjOjC5ocPdGCs8HEDYDJOkUQ+AvA4kjPCdvyW5vVRLJjBDHEDj10lL"
        "7f+lPAny/KYOf0Y58ppWR+VLHEDUUJnZp9WaPBAVvXDk2DM5787EthVRHECUvLs/v+mmvMa0/GB+x005g3qBcz9W"
        "HEBDzHJzSt+xPIrAQi3/EkW59d/idhddHEDcu5EAvgJivBbykLTRmOa4j50KuUVnHEDkZk8jSm6kvPPmHiqYpEc5"
        "4s/Fv6RqHEDVzEDE/pK6PLolNdp0U1E5hQgI/K1vHECXo/YGQm17vBbDImTlSei44g8P6bB0HEAAsKupblu9PEfl"
        "3YMbhTa5hdsvKVt2HEB3Uip9yVq4vBWbtRdWFju55KYBxVV7HEBBInPLqSe8PDoKh9jJPlU5oP04iziFHEBcGZoK"
        "xYKUPPGEKBg7Dz85Sbh2BGONHEA7hZZMUr2SvJWCLQ69ExO5tW/zXeybHECL55BAoS6WvOEn7SPinTK5sjOrm4ad"
        "HECZo4yD5t6zvAfJ3L+Mahy5XrFTK7mgHEDOiwlDO4J0vNPRG9MApAq5VcADPYClHECmRasUQHO4PBSxmtcfv1U5"
        "ky/JqRanHEAgYn62OQR4PLW/lAJtXRM5JW66K9arHEBHo47U9uOcvKJY+6U7lTK5y+WpY/2uHEDmpNBYL0m8PG0X"
        "lmEGYiC5ghx/EZCwHEBng2+xeeaGvAHxR+p07yQ5pjNTk7OzHEDXDcyiLEuwPECZXJj7RE25eTyzbA+9HEA2wO7W"
        "lTWbPL0rSqzyGim5SwrRnJy+HEAqOiRnOh2cPL38iP5ZMDI56VkOlEDDHEAWIQ46A0O6PLf62X7EflY59ZAUjSjd"
        "HEAxNHaJcyOfPEnLh/IDOig5Xn7WranhHECtsarLU0e8PHKItYmH0F85kcC9wSXmHECOMm78o3yTPImyXd+JyTM5"
        "4DhOvxjsHECNchZAgS64vMFp/r77GFw5FFwZd1v5HECBmJRzcSG/vJl9ZirNbl25wUh7mKYAHUA+SvtMQt27PD6q"
        "9Z9dLUq506iab8YKHUARkHlZ3uyjPJQJ0vnz4ik5WoZ8R6YNHUCwBOvZX8CQvFU2+qIXhCQ5ZeSBbRUPHUAQbl9F"
        "XJlmvKhM8ZmPhwC5THuNL/IRHUD1rb/MEoWnvEyqpVunAU05AyIdfzkWHUD3WKwgC3+FPC8+qonBOy65HRf70+Yb"
        "HUBlwxMMPjOCvM2jP88SqiS5of3Ce7oeHUCA84rlX9AjvPoGgC8T2Le492M6kCMgHUAH7W+sq2G9POfLsGohOFS5"
        "+8si1FskHUAykuqLlu29PAYJZZD++T85WpJjGL8sHUDE5gcGfCi/vBpCZ/7kc1o5GHg6Ja8zHUCDBw41M2OyvBM8"
        "qhCNpkC5+LyC6hA1HUCH5iWtMmW1PHE/NQX+dl25nqA8B9M3HUAzc+wd+x2TPKyJp4L/yTW5ECBWXzM5HUAIgZ9x"
        "8Ia2vKyAbV+sA0m5gWOjpPI7HUD1Cto9vO+KPPUQ5d9Vvyg5e2cyBg5AHUCC07KfhqxoPFyMV1iiua64Y8pRODhI"
        "HUATzhNVfL2wvME9Gr2uwDI5zeCl4VFQHUBlgZb1Q8ayvDmUgN45XVM5CTDbQ69VHUBS/ozvyhS0vCTfkkyy1Fc5"
        "Jwxo8a1dHUCghWuZUgqkPJ/SBbG4RUA5Zh0bUqdhHUBbkv7KoYqYPBVX+LQrLBO5RRO1YktkHUCq0S7L9BSrPDbL"
        "zKCd3Qy5ZlyROT5oHUB9nPZyg2qYvCqLYlw/uSO5RQ/J+XttHUCL5DCQUb6LvDDAwHVnySA57hzZSBhwHUCKHv/4"
        "CXuTvM/TSoSDgTo5aFQA0Et1HUDZiFa/jJmjPKUvU/0QU0u5ADR9DON3HUCab3W5wU2cvKS9lTu7Jzo5UO/2P+eA"
        "HUBm9FKQSR2dvKroTw719y85x6MiBXeDHUDfojIWs9+uPC4Bdpj7S045smMXnEuHHUAFWoQBcwSqPL7Gm/PJ0xg5"
        "QqTWqJGIHUAR2SqFwhC3vMEID34siFg5S7KGixyLHUDuXMpwJrKzvOoJ1Yg/4zC5zvti2umOHUBcnp2bDTS0vFQn"
        "9WrMTlY5MbjYfC2QHUCwPYRCmg6bvHqW/S77uzI5RANIAPaTHUCMxCp5alqPvGEXOR4d7AC5l6fXRzyaHUB5ij8H"
        "Cs18PJmwxplqEhE5KkBPnKumHUA6TsQwh1u6PFpwuzS5xVs5P5G7Hl+qHUCsIdNEb4+xvG2m8aDd1Ae5L2tO5dSs"
        "HUDsUDT5RjeovCUJrnDVtka5qGqUNw+uHUB5smbi8eO8PPDrZW/wRjS5yzuZ9628HUDgY5R0r5KmvIh7IZB6hEq5"
        "KTOsmBi/HUD46olqWJK1vCVuhUwz1Vw5mLdHXU3AHUDVs4HH0bC/vNbfq0o0HEa5E57FxU/GHUAJT/1y51yuPGNS"
        "a8LgIEo5g0UVBnrNHUDsWKBqaSVkvCmA2RKkXw253vgFfarOHUDQChuEZH1pvG4ecGf+4eo4gLKWh5fUHUCneNEH"
        "U3OsPChm0kanU0i5oRuI307ZHUCqVO/r3gibPJu0dl2HDCq5I/DgvtTcHUDzfv/VylG+PCINWpKqwVA58kSjhlfg"
        "HUDujjmIkCuUPJh5odL74j+5D+83PNfjHUB54N8nN0mqPP0tw0UTFT053TApJUTuHUAomAJM4na4PFXGR3boylm5"
        "820Hx7fxHUAjXA3+Lq+zPDMaZaTIrVG5odUZNwP0HUBZCIYw3zm8PE6GLDTnT1Y5qb/zcCj1HUBq9tXoRd26PAEQ"
        "PAyYAlG5EqdE8QD8HUCAbHdj3iiAPJdEBbB/Uh65sZ+cdqwBHkDuAB8uUm20PACqNnDugFs5RDfPvm8IHkDHdOvZ"
        "+3GVPJON7jXJCxU5bu4WnesMHkDHghahxmqwPK/CIZmLT1c5DRdvYdQVHkADMV8BHHmmPHkYLOOen0u5no0E548d"
        "HkBMFJ3BCX+RvCJn7kYJ8D05emfcttsgHkCAPCapqnmuPNRvJ4gU2T05sMYXwAwjHkBkQT9J6gO8PEuPrMz+Azo5"
        "s52a0SQkHkAcFAoCrnmTPA95xRFamCY5yhs8D1QmHkBr7WpiDGCyPIVF2+7svEm5VymuO2snHkCz4rINnrC9PNy5"
        "VeM1QVy5XY+tqNosHkCWpZDpHg66PP4ySm+f40o5PXLhrVYzHkBkZC2WLEa8POyfTIA37lC5f3mRw5A2HkC0R3WW"
        "VkW+PAREblcKhUc5Y03tQMg5HkDnfxK1Kb2iPDFBfKFEHiq5z05xUF9DHkAJ3TFHAtuhvB2vWKJeBDy5lpBSr25E"
        "HkBmcPWlF7RfvEItD7ENpvo44PV4mN9MHkAS7eP5UPCmPBjbim7vJzC5xCcVduxNHkDGdi4o9bm1PAg0IaIiy0C5"
        "fdvf7GdZHkAv1CQ25JZ0vKOpi5GdLAi5RKDi6INcHkAt3MSVX7K3PAmanejtIVu5rnb4eaVgHkA8rHJV8NqzvDnY"
        "9TiX8Bm5QEJo3LtjHkDCiA2tITWJvFoDFrN9L+U4g8yQdsllHkCpzeV/w7KEvHmGxvcn0Bm5Lnyc3s9mHkD1+NGA"
        "Ju+5PNqXu+l4lVS5cQFP5dtoHkBDXA/HZHOFPOJwRH47Qh85Ex/f0PBsHkAy2ekUO82gvAJCAY3pRUa5CykfyP1v"
        "HkBUEk8ucIm1PAIwyT+d/Fa5BzBKPg51HkAj8qn+BrStPO8DxHSZ0005AlebxBB2HkDSRSLmQE54PJGJY+s+FxS5"
        "JnSwlBl7HkDeSn43+PS/PHes3dTWIlu5Aj7rVhuCHkB5VjmFrNKwvEUn0wrFE1E5BsZVHxWHHkBccpBIwgGsPEOI"
        "CJrpjE45dveGbg6KHkAWcd0s7wy1PHRNvkRCska5ZTYQc/qPHkBHkNXSioO+PN2suUwdxEa5NPjVRPaQHkDx3xig"
        "fgu/PO03ZmQr5TE58bnlLu2SHkBYbaQ0iXWpPCn/pVwtsBc5D2FsR+iTHkBQJ8M89K+VPBlKDTtCrje56qK2KcyY"
        "HkBhlj4YLZKgvGMbb11l+ze51mcYk6KeHkD0SzSYUvS/PONyC3UwMVm58yIp0ZqfHkC2VY4K/QG2PPU0cq4li1q5"
        "a4jCVlSnHkBshrVoQ2ewPN5rCbsb4Va5BEnIe0qoHkDZ7KfhM2WCPLLoP+AwhBM5nGifiCurHkD7Ax3cb4yhvFL3"
        "sNttNB05vF1uwBWtHkCtjgVyQX16POtmQHDP1gS513xwhAquHkC8npR0aqmjvPxaKr/YD0y5DPXh7c6yHkAHEqI7"
        "mpS+PLvy4oNo3DY5/9g0L5u2HkB2OpMq5WO+PAra7kJPfEy5wkrJqRm/HkAUxkgFsHy2vCtIOEjsJ0m5NQwUMVHK"
        "HkDyAFzYxiawPL13EY6tJ0g5iiqMvCzMHkC4DrMonRa4vLcr3zs0Y1o5f5ircPTOHkCSJEUy5vGnvJGt/6y69Um5"
        "PfrrYabSHkDtdfvhsGZ6vGrD27JPCh85PtuUFgDaHkAoKsqrPvG6vHB0KXy7szs53LfCWuraHkDfvHGh3vqiPHxO"
        "X93ACyi56hyTQr7cHkBKJaVpskG3PNfx67ArT105oRaxkmPgHkC2gu9QckajvPuTqPCZN0G5Onz/SaTnHkD6vzjc"
        "ltmGvJip8+MA/cq48ezkdIvoHkAG8OArYqu/PEwgBTIZ10o5gshbLlnqHkB2olzDETO3PE6aTpSMQ1q5zTuJMvLt"
        "HkAbLUw190C+PI7BqADnW1C5nAyg16LwHkCySTpyqbW+POvu1ivVDV25tXzPrlHzHkA3c61hFxGqPAj2B20KUkc5"
        "bC8ulBr1HkCOCIh6eIG+PLAjG9vwplE56RATgnD6HkCBdGRm72e3vD9mqIjh2l657Jv9eFP7HkBCGgwPs72lvKvD"
        "cHYe5zQ5bPzGMgcFH0DSW6rc2DGMvJB/6OpM3Ss56ZKHg6gHH0A+cnvinhCbvJf1rrSAFyk5zFeJkYgIH0CQNQo+"
        "1t69PLzG5C2iIUm5Xrf/lScLH0CXkrlbj3ilvKUaAy6ZQUo5WSeC+uUMH0AOlWHct6W7PJH1auVFsV05Qz87JYIP"
        "H0B55DkULlm5vE4hXdenikI5FrE2nJIVH0AaFXWaFGC7vBkiBpkE71g53LbmJSkYH0B2+ul1uQy1vFZ6qF8bCE+5"
        "vyhY6eEZH0AtzY70yEexPMl0uc1dbd848DsABL4aH0D8XJf7zfC7PP65rnISLgw5rMapOFEdH0Aday4VIIK8vB9Q"
        "VssHWFE5GSPOxQcfH0BipiKKE7O3POMgfj293U25/t4jOpghH0BKatWqOJS5vHxdRZbrkzu5UreOObQmH0AANqmP"
        "s4W/PDqGkksq9Du56+fOyD8pH0CbTzd6ZzO3vJCsAh5X2RY57bWBuskrH0D7Wbg8iIC4vD3zcVNxnlE5c7ABB7Ax"
        "H0DqBh/UCJi1PCcpSfhcHjQ5Bjir8l0zH0BZQxEakiixvG2UpkztOTU5F6l2guE1H0BFzcDQUHqzPDKcz5Orm1u5"
        "Xwqa6eM6H0DQBOuFXK26vOxQM/fvshS5MNctYDc+H0Aes/74reMRPBmuQ9Al+J64why+KbRAH0A9WvpfT9e9PBAV"
        "s6t4eFq5QE2J1FtCH0DNRIH34aS+PLTqEJZNeR45hYIHGg1NH0At/8w3bly0vOJsgaFcwVG5rWu0h2NUH0BkaOIg"
        "UKOpPNqPcdHuNEa5X56DUHFYH0CwYTq/SjiWvN9QIb9SLTm50U4WmKxbH0AILvFUFjumPP+9RbXSrjW5JaXEQUld"
        "H0ADYLEKPmy5PATFtMtQfz85s5YhCbNfH0Dlo27o5UJ6vEHf5GvvGAg5h3uJo4BgH0A7Cy9kpNm7PBI8I0mo0D+5"
        "Bv2De+hiH0BMwZrQMZm3PDSjusDhG1+5l9I0R65rH0B+J5uJklq2PJd+kAYaO0M5RJFGMm9wH0BBPEet87SRPPCJ"
        "YSNeDTA5WiDPdzlxH0BX5vJMKHdovDHPzTO0Ev04rYH1C4Z3H0BIzQuV1s6wvK425+W6Kky5IdGfoah6H0CW+1kX"
        "FUimPAieuzXJQC+5VqYLATl8H0CoIOBqEjWnvIZm9VBo/0a5cyNld+aAH0CV3xquf+S7vK+IzXu9FFK52IeRoFSG"
        "H0BMsUC7TdC6vMaeat+Xfk+5KCbiGjGKH0A9A1m92USyvDV2+JFYeVc5Xh6lWvaKH0DwxZlz6TWjvCZ/daPE0UQ5"
        "ejRTaICMH0ByG1vvMbC+PPnmY+5YFzk5ZMDnvZKPH0CTERtBkD2yvDLsf9f9MSq5UqzQ8t6RH0AcZgjiucGzPNLE"
        "0CR8QlW5Fm+a1imUH0AjUfEkQ7SwPMrM328JR0c5bECVXrCVH0BrCfIF4me2vAw6ME3LLe+4b5rGanOWH0CfTI8x"
        "hiWyPLhv3Wvskku5L/XXE/mXH0ByuwnpjiuuPE4/BCQekT+5XPj5e0CaH0DkkgpZETmkvFsMKHEVTxI5sriCWEid"
        "H0DJG87AKHy5PL7SO4yjLlo5kGDEasueH0CKNFQUr8mtvID8x6HCMEQ5o/8UvYyfH0BYSWQH/qq3PEaonPRjjUI5"
        "blBr2c+hH0BRDeNSHvaFvPWbc7NFJQ655g8qM5KlH0CEcuKUYUu2vODVmggJ1Cc5DWArP1KmH0Cm/tRFnxK1vCmB"
        "lANgG0G5Q89gYBCqH0CaQM/WLe2hvPIgqKa4BUe58cHnXQytH0B5Yxmptb+4PBbM3D0m1V65UDhVh4muH0CZbSrJ"
        "uhK6PHqV1eHFPUi5bAxYP7uzH0BZJ67jkhOyPJL+EgbL+0y5/FET72y3H0Clw6jmseeUPCm9mN+UBQy5n8PORde7"
        "H0ButyGOg8SCvC01W/kxaxY597OFMJO8H0DoDQrMosqpvLYUvahovQk5KNYZIsa+H0BnTPVfBI66POntWOnTJ1a5"
        "FaYswjzAH0D5+RKq7M+4vJtDi+J6al45XlHd3vfAH0BEIfCJnqaNPHN0Sgbp6/K46Ax9+svGH0AcXuKhPVCQPDJa"
        "QCoWzzy5EbxipN7LH0DPqz+f52afvHCCFfdejws57RahglDNH0CWVAC9x2R5PGU6RuAwExq5od34VXrPH0Azc/5G"
        "0ve+vJevupdY3kQ5m6Fa9FrSH0CrKgicEA2jPOmWZCXwxUg5h2s2EILUH0BXEurDL72kPHBxriA1fkW5O6yb0/DV"
        "H0CyuBuAamaxPNZsaozpRlO5bVbR8FzcH0CQgtQTfpGwvJlIR5r1qlW50Tp4XDTfH0ChGBh74lKlPLSGVnEFkUM5"
        "xfW2zr7iH0AZ5FEsfV6avAJrsqvINzQ5ZZKwLN3kH0CPzRksn+a4vIZPfT0GZCA5MHv9a/rmH0AS3mdNdcynvEBq"
        "1P39PRI5gZnTWcrpH0BQPfG6aHO0vO9CYYwTPV656fGefUvtH0CqULRtSOC2PLXLyEwPQVO5/G93BXzxH0Ct8oi0"
        "/m+SvNbV9XWC4Bm5JA49yVn2H0DsOyUFZcm/vDSg0vf4ZE85xK5aorz3H0BHLq88EICzvPI413/ValO5aMPhAdD5"
        "H0AfCHIy2SCePL/3KVv9nAG5dkI6TuL7H0D1UpE434i6vFnx8d7XI1a5mixi1ZL8H0DS5pwwcxWgPJvkYmc/bE65"
        "O8Vw6RYDIEAZVSvQM6LNvF+0+9yRq2K5OgsQS24DIEBorL2RXv2jPFb7lbeemCM5C8cFVCIFIEAWd7awcSWfvHVl"
        "iFgaWh45XL9kHX4GIEAgVHnoxhW1vPbiW3EAL1e56h2lqSsHIEAXWbJdxcnHvLx89BvlNmA5E33mRokJIEDHEfuw"
        "YDnNvNOkvUzbZl+5e80AzDUKIEArSsXaWEq8vE8k8fiWWF25fnAyKI4LIECGtQ20rb+mPMrGBVGYOkc55228AZEN"
        "IECMdIk1KlnEPB7ay6mv8WY5yoverJEOIED7CL/GDdnDvD+POpIgb1E5FA9igpEQIEDQmJQKNRbAPGSfmQnblWU5"
        "9wJurTsRIEBiTPWoNx2hvFwQEimoW7s4PXgjhDoSIEB6mTqmvbWzvOCLE/v9Jly5O5TzaogVIEBv9xqfMnmcPPqq"
        "zSerxzM5TMqEVC0XIEDlSnryj5JZvJeko6aRfvo4lk7FWYEXIEBg7VpUuAbDPMkAt6s8/2G56xg3lR8aIECBPXoH"
        "fSjAvOYoeG7E4Gm5ag4BdFkeIEC699nsx27DPA1uNYwc6Gy5q/bfGv8eIECgv32iLl/FPFui1I5ifE05EqY62lEf"
        "IED8vSa4lgC0PDZzH3MyClM5NdFHPkEhIEAxDaEn6qjGPMLDej7/kle52kcDPTgiIEDQzh1tPp3BPOLM16wmpmm5"
        "tB+8pNwiIEDFO3AJUpnBvF81nnC8DAK5"
    ),
    dtype="<f8",
).reshape(-1, 3)
