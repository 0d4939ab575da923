"""Riemann zeta on the critical line Re s = 1/2.

Euler-Maclaurin summation (Edwards, *Riemann's Zeta Function*, 6.4) with
N terms and M = 30 corrections,

    zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_{k=1}^{M} B_2k/(2k)! s(s+1)...(s+2k-2) N^(1-s-2k) + R_M,

with Backlund's bound |R_M| <= |s+2M+1|/(sigma+2M+1) |T_(M+1)| by the
first omitted term.  Every node of a block takes N = ceil(t_top/pi) + 10
from the block's top node t_top, so |s|/(2 pi N) < 1/2 on it, and the
truncation error is proven: below 4e-19 on [0, T_CAP].  The tail runs
once per call, over all nodes with their own N.

One evaluator, :func:`_panel_zeta`, serves every call.  It takes groups
of panels, each a list of ascending midpoints and the offsets that its
panels share, and evaluates at the nodes t = mid + off, their float64
sums.  A spectral Gram grid hands it its full-width K15 panels and, as a
second group with its own offsets, a clipped last panel;
:func:`zeta_half_grid` and :func:`zeta_half` are the one-offset case, a
panel per ordinate with offset 0.  With e = t - (mid + off), exact by
Fast2Sum and at most ulp(t)/2,

    k^-it = k^(-i mid) k^(-i off) (1 - i e ln k) + O((e ln k)^2),

so over a block of midpoints the head sum is one matrix product: the
table of k^(-i mid) (N x panels) against the group's one table of
k^-1/2 k^(-i off) and, beside it, its ln k multiple (N x offsets each),
which gives the first-order term.  That term is needed: without it a
grid at h = 1/2 errs by up to 4.8e-13 on [0, 1000] and 2.4e-11 on
[6000, 10000]; the omitted (e ln k)^2 / 2 is below 1e-22.  This is the
simplest case of the shared-work multi-evaluation of Odlyzko and
Schonhage (Trans. AMS 309, 1988), and it leaves N unchanged.

The table over midpoints uses that k^-it is completely multiplicative:
only the primes take a cosine and a sine, and a composite k is the
product of the rows of its least prime factor p and of k/p.  A block
holds at most 32 midpoints spanning at most 32.

The roundoff is an estimate.  Float64 gets the phase t ln p wrong by
~t ulp(ln p), so a block takes t_a ln p mod 2 pi at its middle midpoint
t_a from 40-digit decimal logarithms and adds only (t - t_a) ln p in
float64, |t - t_a| <= 16.  A prime row then errs by about
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
_M = 30  # Euler-Maclaurin corrections

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


def _phase_reducer(n_max: int):
    """The least prime factor of each k <= n_max, and a function
    (t_a, n) -> (primes p <= n, [t_a ln p mod 2 pi]) whose phases come from
    40-digit decimals rounded once to float64."""
    import decimal  # imported on first use: only zeta needs it

    ctx = decimal.Context(prec=40)
    least = np.arange(n_max + 1)
    for p in range(math.isqrt(n_max), 1, -1):  # the smallest p is written last
        least[p * p :: p] = p
    primes = np.flatnonzero(least == np.arange(n_max + 1))[2:]
    logs = [ctx.ln(int(p)) for p in primes]
    two_pi = ctx.create_decimal("6.2831853071795864769252867665590057683943387988")

    def reduce(t_a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
        count = int(np.searchsorted(primes, n, side="right"))
        t_exact, mul, rem = decimal.Decimal(t_a), ctx.multiply, ctx.remainder
        phases = [float(rem(mul(t_exact, lg), two_pi)) for lg in logs[:count]]
        return primes[:count], np.array(phases)

    return least, reduce


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


def _powers(ts: np.ndarray, sieve, n: int) -> np.ndarray:
    """k^(-it) for k = 0..n on an ascending block of ordinates: an
    (n+1) x len(ts) complex table whose row 0 is unused.  Only prime rows
    take a cosine and a sine, with phases reduced at the block's middle
    ordinate; a composite row k is the product of the rows of its least
    prime factor p and of k/p.  ``sieve`` is a :func:`_phase_reducer`
    reaching n."""
    least, reduce = sieve
    t_a = float(ts[ts.size // 2])
    primes, reduced = reduce(t_a, n)
    # p^(-it) = exp(-i [(t_a ln p mod 2 pi) + (t - t_a) ln p])
    phase = reduced[:, None] + np.outer(np.log(primes), ts - t_a)
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


def _panel_zeta(groups) -> np.ndarray:
    """zeta(1/2 + i t) at the nodes t = mid + off (float64 sums) of panel
    groups; see the module docstring.

    Each group is ``(mids, offs)``: nonempty ascending midpoints, each at
    least max |off|, and the offsets its panels share.  The values come back
    flattened group by group, midpoint-major: the layout of
    ``(mids[:, None] + offs).ravel()``.
    """
    groups = [(np.asarray(m, dtype=np.float64), np.asarray(o, dtype=np.float64)) for m, o in groups]
    n_max = int(max(_terms(m[-1] + o.max()) for m, o in groups))
    sieve = _phase_reducer(n_max)
    log_k = np.log(np.arange(1.0, n_max + 1.0))[:, None]  # ln k in row k - 1
    parts = []  # per group: the nodes, their N, the head sums and N^(-i t)
    for mids, offs in groups:
        nodes = mids[:, None] + offs
        # mid >= |off|, so both differences are exact (Fast2Sum): e is the
        # node's rounding, node = mid + off + e with |e| <= ulp(node) / 2,
        # and k^(-i node) = k^(-i mid) k^(-i off) (1 - i e ln k) + O(e^2).
        e = (nodes - mids[:, None]) - offs
        tops = _terms(mids + offs.max())  # N of each panel's top node
        o_table = np.exp(-1j * log_k[: tops[-1]] * offs)  # k^(-i off), k = 1..N
        # k^-1/2 k^(-i off) and its ln k multiple, side by side: one product
        # gives each block's head sums and their first-order terms.
        wo = o_table[:-1] / np.sqrt(np.arange(1.0, tops[-1]))[:, None]
        wo = np.concatenate((wo, wo * log_k[: tops[-1] - 1]), axis=1)
        head = np.empty(nodes.shape, dtype=np.complex128)
        n_pow = np.empty(nodes.shape, dtype=np.complex128)
        n = np.empty(mids.size)
        for blk in _blocks(mids):
            top = int(tops[blk][-1])  # every panel of a block sums to its top's N
            table = _powers(mids[blk], sieve, top)
            both = table[1:top].T @ wo[: top - 1]
            head[blk] = both[:, : offs.size] - 1j * e[blk] * both[:, offs.size :]
            n_pow[blk] = table[top][:, None] * o_table[top - 1]
            n[blk] = top
        n_pow *= 1.0 - 1j * e * np.log(n)[:, None]
        parts.append((nodes, np.repeat(n, offs.size), head, n_pow))
    nodes, n, head, n_pow = (np.concatenate([p[c].ravel() for p in parts]) for c in range(4))
    series, _ = _tail(0.5 + 1j * nodes, n)  # once per grid, with each node's N
    return head + n_pow / np.sqrt(n) * series


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
    val = complex(_panel_zeta([([abs(t)], [0.0])])[0])
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
    out[order] = _panel_zeta([(ts[order], [0.0])])
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
