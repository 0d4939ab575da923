"""Dyadic-triadic parameter ladder.

The ladder assigns to each pair of nonnegative integers (j, k) the
parameter theta = 2^-j 3^-k.  Because 2 and 3 are multiplicatively
independent, the map (j, k) -> log theta = -(j log 2 + k log 3) is
injective, and the additive gaps between log-parameters control how well
spectral phases separate the corresponding profiles.

Windows are finite rectangles 0 <= j <= j_max, 0 <= k <= k_max iterated
in row-major order (j outer, k inner); that order fixes the layout of
every Gram matrix built downstream.  Distances on the ladder are L1
(taxicab) distances between index pairs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import ParameterError

__all__ = [
    "LOG2",
    "LOG3",
    "LadderIndex",
    "LadderPoint",
    "IndexWindow",
    "InjectivityReport",
    "theta_of",
    "distance",
    "lambda_mu",
    "shell",
    "check_injectivity",
]

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)


class LadderIndex(NamedTuple):
    """Position (j, k) on the ladder; both coordinates are >= 0."""

    j: int
    k: int


@dataclass(frozen=True)
class LadderPoint:
    """A ladder index together with its parameter.

    ``denominator`` is the exact integer 2^j 3^k, so theta == 1/denominator
    in exact arithmetic; the float field ``theta`` may underflow to 0.0 for
    very deep indices while ``log_theta`` stays finite.  Exact integer
    denominators are what let the direct integrators work on an integer
    lattice instead of accumulating float breakpoints.
    """

    index: LadderIndex
    theta: float
    log_theta: float
    denominator: int


def _check_index(ix: LadderIndex | tuple[int, int]) -> LadderIndex:
    j, k = ix
    if not (isinstance(j, int) and isinstance(k, int)):
        raise ParameterError(f"ladder index must be a pair of ints, got {ix!r}")
    if j < 0 or k < 0:
        raise ParameterError(f"ladder index must be nonnegative, got {ix!r}")
    return LadderIndex(j, k)


def theta_of(ix: LadderIndex | tuple[int, int]) -> LadderPoint:
    """Return the ladder point at index ``ix``.

    >>> theta_of((1, 1)).theta
    0.16666666666666666
    """
    ix = _check_index(ix)
    n = 2**ix.j * 3**ix.k
    # +0.0 normalizes the -0.0 that negation produces at the origin
    log_theta = -(ix.j * LOG2 + ix.k * LOG3) + 0.0
    # 1/n underflows before log_theta loses meaning; keep both.
    theta = 1.0 / n if n < 2**1074 else 0.0
    return LadderPoint(index=ix, theta=theta, log_theta=log_theta, denominator=n)


@dataclass(frozen=True)
class IndexWindow:
    """Rectangle of ladder indices 0..j_max x 0..k_max."""

    j_max: int
    k_max: int

    def __post_init__(self) -> None:
        # numbers.Integral admits numpy integers; bool is an int subclass.
        for bound in (self.j_max, self.k_max):
            if not isinstance(bound, numbers.Integral) or isinstance(bound, bool):
                raise ParameterError(f"window bounds must be integers, got {bound!r}")
        if self.j_max < 0 or self.k_max < 0:
            raise ParameterError(
                f"window bounds must be nonnegative, got ({self.j_max}, {self.k_max})"
            )

    @property
    def size(self) -> int:
        return (self.j_max + 1) * (self.k_max + 1)

    def __contains__(self, ix: object) -> bool:
        try:
            j, k = ix  # type: ignore[misc]
        except (TypeError, ValueError):
            return False
        return 0 <= j <= self.j_max and 0 <= k <= self.k_max

    def __iter__(self) -> Iterator[LadderIndex]:
        # Row-major: j outer, k inner.  Gram layouts depend on this.
        for j in range(self.j_max + 1):
            for k in range(self.k_max + 1):
                yield LadderIndex(j, k)

    def points(self) -> list[LadderPoint]:
        return [theta_of(ix) for ix in self]

    def position(self, ix: LadderIndex | tuple[int, int]) -> int:
        """Row-major offset of ``ix`` inside this window."""
        ix = _check_index(ix)
        if ix not in self:
            raise ParameterError(f"index {tuple(ix)} outside window {self}")
        return ix.j * (self.k_max + 1) + ix.k


def distance(a: LadderIndex | tuple[int, int], b: LadderIndex | tuple[int, int]) -> int:
    """L1 distance |j_a - j_b| + |k_a - k_b| between two ladder indices."""
    a = _check_index(a)
    b = _check_index(b)
    return abs(a.j - b.j) + abs(a.k - b.k)


def lambda_mu(
    a: LadderIndex | tuple[int, int], b: LadderIndex | tuple[int, int]
) -> tuple[float, float]:
    """Difference and sum of log-parameters for an index pair.

    Returns ``(lam, mu)`` with lam = log theta_a - log theta_b and
    mu = log theta_a + log theta_b.  These are the two phase frequencies
    seen by the spectral kernels; lam vanishes only on the diagonal a == b
    because the ladder is injective in log theta.
    """
    la = theta_of(a).log_theta
    lb = theta_of(b).log_theta
    return la - lb, la + lb


def shell(
    center: LadderIndex | tuple[int, int],
    r: int,
    window: IndexWindow | None = None,
) -> list[LadderIndex]:
    """Ladder indices at L1 distance exactly ``r`` from ``center``.

    Only nonnegative indices qualify; pass ``window`` to clip to a
    rectangle as well.  The result is sorted row-major.  ``r == 0`` gives
    the singleton [center].
    """
    center = _check_index(center)
    if r < 0:
        raise ParameterError(f"shell radius must be nonnegative, got {r}")
    out = set()
    for dj in range(-r, r + 1):
        dk = r - abs(dj)
        for cand in {(center.j + dj, center.k + dk), (center.j + dj, center.k - dk)}:
            if cand[0] < 0 or cand[1] < 0:
                continue
            if window is not None and cand not in window:
                continue
            out.add(LadderIndex(*cand))
    return sorted(out)


@dataclass(frozen=True)
class InjectivityReport:
    """Outcome of a log-parameter separation check on a window."""

    injective: bool
    min_gap: float
    closest: tuple[LadderIndex, LadderIndex]


def check_injectivity(window: IndexWindow) -> InjectivityReport:
    """Verify the log-parameters of a window are pairwise distinct.

    Reports the smallest gap between consecutive sorted log-parameters and
    the index pair achieving it.  On a 1 x 1 window the minimum gap is
    log(3/2): the ladder neighbours (1, 0) and (0, 1).
    """
    pts = window.points()
    order = sorted(pts, key=lambda p: p.log_theta)
    best_gap = math.inf
    best_pair = (order[0].index, order[0].index)
    for lo, hi in zip(order, order[1:]):
        gap = hi.log_theta - lo.log_theta
        if gap < best_gap:
            best_gap = gap
            best_pair = (lo.index, hi.index)
    if len(order) == 1:
        best_gap = math.inf
    return InjectivityReport(
        injective=best_gap > 0.0, min_gap=best_gap, closest=best_pair
    )
