"""Riemann zeta on the critical line Re s = 1/2.

Evaluation goes through the alternating (eta) series accelerated with
Chebyshev-polynomial weights:

    zeta(s) = -1 / (1 - 2^(1-s)) * sum_{k=0}^{n-1} (-1)^k w_k (k+1)^(-s),
    w_k = (d_k - d_n) / d_n,
    d_k = n * sum_{i=0}^{k} (n+i-1)! 4^i / ((n-i)! (2i)!).

The d_k are integers and obey an exact ratio recurrence, so the weights
are computed in arbitrary-precision integer arithmetic and rounded to
float64 once, at the end.  With n ~ 1.3 |t| + 60 terms the series error
is far below float64 resolution; the roundoff left grows with the term
count: ~2e-13 absolute for |t| <= 1000, ~1e-12 at 5000 and ~1.5e-11 at
the height cap, against the 30-digit values in tests/test_zeta.py.
Evaluations above the cap raise rather than silently degrade.

Grid evaluation batches points into blocks and shares one phase-matrix
product per block; the term count for a block is chosen from the block's
largest |t| (rounded up to a multiple of 64 so the weight cache stays
small).  Points low in a block carry the roundoff of its longer sum, so
scalar and grid values may differ by up to ~6e-13 for |t| <= 1000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZetaRangeError
from .oracle import ZETA_ORACLE

__all__ = [
    "T_CAP",
    "zeta_half",
    "zeta_half_grid",
    "ZetaCheckPoint",
    "ZetaSelfCheck",
    "zeta_selfcheck",
]

# Height up to which the implementation is accuracy-checked.  The weight
# build and the per-point cost both grow linearly with the cap; 1e4 keeps
# the worst-case term count at ~13k.
T_CAP = 1.0e4

_LOG2 = math.log(2.0)

_weight_cache: dict[int, np.ndarray] = {}


def _term_count(t_abs: float) -> int:
    n = int(math.ceil(1.3 * t_abs + 60.0))
    # Round up to a multiple of 64 so grid blocks reuse cached weights.
    return ((n + 63) // 64) * 64


def _weights(n: int) -> np.ndarray:
    """Chebyshev acceleration weights w_k = (d_k - d_n)/d_n, exact until
    the final float rounding."""
    w = _weight_cache.get(n)
    if w is not None:
        return w
    # Integer recurrence: term_i = term_{i-1} * 4(n+i-1)(n-i+1) / ((2i)(2i-1)),
    # with term_0 = 1.  Every division is exact because each d_k is an integer.
    term = 1
    d = [1]
    acc = 1
    for i in range(1, n + 1):
        term = term * (4 * (n + i - 1) * (n - i + 1)) // ((2 * i) * (2 * i - 1))
        acc += term
        d.append(acc)
    dn = d[-1]
    # int/int division is correctly rounded, so each w_k carries one ulp
    # of error regardless of how large the d's are.
    w = np.array([(dk - dn) / dn for dk in d[:-1]], dtype=np.float64)
    _weight_cache[n] = w
    return w


def _eval_block(ts: np.ndarray, n: int) -> np.ndarray:
    """Evaluate zeta(1/2 + i ts) for a block sharing one term count."""
    w = _weights(n)
    k1 = np.arange(1, n + 1, dtype=np.float64)
    logk = np.log(k1)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    coef = -signs * w / np.sqrt(k1)  # leading minus folded into the sum
    # eta-type sum: rows of exp(-i t log k) weighted by k^(-1/2).
    out = np.empty(ts.shape, dtype=np.complex128)
    rows = max(1, int(4.0e6 / max(n, 1)))
    for lo in range(0, ts.size, rows):
        tt = ts[lo : lo + rows]
        phase = np.exp(-1j * np.outer(tt, logk))
        out[lo : lo + rows] = phase @ coef
    s = 0.5 + 1j * ts
    eta_factor = 1.0 - np.exp((1.0 - s) * _LOG2)
    return out / eta_factor


def zeta_half(t: float, t_cap: float = T_CAP) -> complex:
    """zeta(1/2 + i t) for a single real ordinate t.

    Negative t is handled by the reflection zeta(conj s) = conj zeta(s).
    Raises :class:`ZetaRangeError` when |t| exceeds ``t_cap``.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ZetaRangeError(f"ordinate must be finite, got {t!r}")
    if abs(t) > t_cap:
        raise ZetaRangeError(
            f"|t| = {abs(t):g} exceeds the accuracy-checked cap {t_cap:g}"
        )
    val = _eval_block(np.array([abs(t)]), _term_count(abs(t)))[0]
    return complex(val) if t >= 0 else complex(val).conjugate()


def _check_grid_top(t_top: float, t_cap: float = T_CAP) -> None:
    """Reject a grid whose largest ordinate ``t_top`` exceeds ``t_cap``."""
    if t_top > t_cap:
        raise ZetaRangeError(
            f"grid reaches |t| = {t_top:g}, beyond the accuracy-checked cap {t_cap:g}"
        )


def zeta_half_grid(ts: np.ndarray, t_cap: float = T_CAP) -> np.ndarray:
    """Vectorized zeta(1/2 + i t) over a grid of nonnegative ordinates.

    The grid is processed in ascending blocks of 512 points; each block
    uses the term count of its largest ordinate.
    """
    ts = np.asarray(ts, dtype=np.float64)
    if ts.ndim != 1:
        raise ZetaRangeError("ordinate grid must be one-dimensional")
    if ts.size == 0:
        return np.empty(0, dtype=np.complex128)
    if not np.all(np.isfinite(ts)) or np.any(ts < 0.0):
        raise ZetaRangeError("ordinate grid must be finite and nonnegative")
    _check_grid_top(float(ts.max()), t_cap)
    order = np.argsort(ts, kind="stable")
    sorted_ts = ts[order]
    out_sorted = np.empty(ts.size, dtype=np.complex128)
    block = 512
    for lo in range(0, ts.size, block):
        chunk = sorted_ts[lo : lo + block]
        out_sorted[lo : lo + block] = _eval_block(chunk, _term_count(float(chunk[-1])))
    out = np.empty(ts.size, dtype=np.complex128)
    out[order] = out_sorted
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


def zeta_selfcheck(
    rel_tol: float = 1.0e-9, zero_abs_tol: float = 1.0e-8
) -> ZetaSelfCheck:
    """Compare the evaluator against the frozen high-precision table.

    Ordinary points must match to ``rel_tol`` in relative terms.  At an
    ordinate where zeta vanishes the reference is the exact zero, so the
    check is absolute with the looser ``zero_abs_tol``.
    """
    pts = []
    max_rel = 0.0
    max_zero = 0.0
    for t, ref, is_zero in ZETA_ORACLE:
        val = zeta_half(t)
        if is_zero:
            dev = abs(val - ref)
            max_zero = max(max_zero, dev)
        else:
            dev = abs(val - ref) / abs(ref)
            max_rel = max(max_rel, dev)
        pts.append(
            ZetaCheckPoint(
                t=t, computed=val, reference=ref, deviation=dev, is_zero_ordinate=is_zero
            )
        )
    return ZetaSelfCheck(
        points=tuple(pts),
        max_rel_dev=max_rel,
        max_zero_abs=max_zero,
        passed=(max_rel <= rel_tol) and (max_zero <= zero_abs_tol),
    )
