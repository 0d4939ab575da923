"""Off-diagonal decay diagnostics for Gram matrices.

Entries are grouped into shells by ladder distance; per-shell statistics
feed a log-log least-squares fit of mean |entry| against log(1 + c r)
with the fixed decay scale c = log 2, the envelope form the decay theory
predicts.  Two envelope variants are kept apart deliberately: the shell
sup (largest |entry| at distance exactly n) and the tail sup (largest at
distance >= n).  Only the tail sup is nonincreasing by construction;
shell-sup monotonicity fails on real windows and is reported, never
asserted.

Truncation diagnostics quantify finite-section error: per-row tail sums
T_B (the l1 mass at distance >= B), their maximum over rows (a rigorous
Schur bound on the spectral norm of what truncation removes), and that
norm itself, the largest |eigenvalue| of the symmetric residual.

Everything is computed with numpy from one distance matrix per call,
|j_a - j_b| + |k_a - k_b| broadcast over the window's index arrays, with
one route per statistic: the envelopes are read off the shells, and each
radius's residual gives its row tail sums (a cumulative sum, so left to
right) and its norm.  Shell sums use numpy's reduction over the shell in
row-major order, so the results are bit-for-bit those of the obvious
per-pair loops.

The row and column belonging to index (0, 0) are all zeros (f_1 == 0),
which deflates shell means without telling us anything; statistics
exclude such pairs by default and every report records the flag.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .errors import DegenerateFitError, ParameterError, _integer
from .gram import GramMatrix
from .io import csv_text, json_text
from .ladder import LOG2, LadderIndex

__all__ = [
    "ShellStats",
    "DecayReport",
    "LambdaGapReport",
    "TruncationReport",
    "TruncationSuite",
    "shell_stats",
    "fit_exponent",
    "decay_report",
    "truncation_suite",
    "shells_to_csv",
    "decay_report_to_json",
    "truncation_suite_to_json",
]


@dataclass(frozen=True)
class ShellStats:
    """Statistics of |Gram entries| over one ladder-distance shell."""

    r: int
    count: int
    mean_abs: float
    max_abs: float
    sum_abs: float


def _distance_matrix(g: GramMatrix) -> np.ndarray:
    """Ladder distances between every pair of the window's points."""
    j = np.array([p.index.j for p in g.points], dtype=np.int64)
    k = np.array([p.index.k for p in g.points], dtype=np.int64)
    return np.abs(j[:, None] - j[None, :]) + np.abs(k[:, None] - k[None, :])


def _pair_mask(g: GramMatrix, exclude_zero_row: bool) -> np.ndarray:
    keep = np.array([not exclude_zero_row or p.denominator != 1 for p in g.points])
    mask = keep[:, None] & keep[None, :]
    # Degenerate single-point window {(0,0)}: keep its diagonal shell
    # rather than returning nothing.
    return mask if mask.any() else np.ones_like(mask)


def _normalized(g: GramMatrix) -> tuple[np.ndarray, np.ndarray]:
    """G_ij / sqrt(G_ii G_jj) and its validity mask (both diagonals > 0);
    invalid entries are 0 and the valid diagonal is exactly 1, not
    d / sqrt(d * d) roundoff.  Where G_ii G_jj falls below the least
    normal double (deep windows), the scale is sqrt(G_ii) sqrt(G_jj)
    instead, which neither underflows nor loses digits."""
    diag = np.diag(g.entries)
    pos = diag > 0.0
    ok = pos[:, None] & pos[None, :]
    safe = np.where(pos, diag, 1.0)
    prod, root = np.outer(safe, safe), np.sqrt(safe)
    scale = np.where(prod >= np.finfo(np.float64).tiny, np.sqrt(prod), np.outer(root, root))
    vals = np.where(ok, g.entries / scale, 0.0)
    vals[np.diag_indices_from(vals)] = np.where(pos, 1.0, 0.0)
    return vals, ok


def shell_stats(g: GramMatrix, exclude_zero_row: bool = True) -> list[ShellStats]:
    """Group |entries| of all ordered pairs by ladder distance and
    summarize each shell, in increasing r, one per distance that occurs."""
    return _shells(np.abs(g.entries), _distance_matrix(g), _pair_mask(g, exclude_zero_row))


def _shells(a: np.ndarray, d: np.ndarray, mask: np.ndarray) -> list[ShellStats]:
    # a[...] keeps row-major order, so each shell's numpy sum and mean
    # are those of its values listed pair by pair
    out = []
    for r in range(int(d.max()) + 1):
        vals = a[(d == r) & mask]
        if vals.size:
            mean, top, total = float(vals.mean()), float(vals.max()), float(vals.sum())
            out.append(ShellStats(r, vals.size, mean, top, total))
    return out


def _envelopes(shells: list[ShellStats], diam: int) -> tuple[np.ndarray, np.ndarray]:
    """Shell and tail sups over r = 0..diam; 0.0 at a distance with no shell."""
    env_shell = np.zeros(diam + 1)
    env_shell[[s.r for s in shells]] = [s.max_abs for s in shells]
    return env_shell, np.maximum.accumulate(env_shell[::-1])[::-1]


def fit_exponent(shells: list[ShellStats], fit_range: tuple[int, int]) -> float:
    """Least-squares decay exponent from shell means.

    Fits log(mean_abs) = a - m log(1 + c r), c = log 2, over shells with
    r inside ``fit_range`` and positive mean, returning m.  Requires at
    least three usable shells and a non-degenerate abscissa.
    """
    lo, hi = _fit_range(fit_range)
    xs, ys = [], []
    for s in shells:
        if lo <= s.r <= hi and s.mean_abs > 0.0:
            xs.append(math.log1p(LOG2 * s.r))
            ys.append(math.log(s.mean_abs))
    if len(xs) < 3:
        raise DegenerateFitError(
            f"only {len(xs)} usable shells in [{lo}, {hi}]; need at least 3"
        )
    if float(np.ptp(np.array(xs))) <= 0.0:
        raise DegenerateFitError("abscissa has zero variance")
    return _negated_slope(xs, ys)


def _fit_range(fit_range: tuple[int, int]) -> tuple[int, int]:
    lo, hi = (_integer(r, "fit range bound") for r in fit_range)
    if lo > hi:
        raise ParameterError(f"empty fit range [{lo}, {hi}]")
    return lo, hi


def _negated_slope(xs: list[float], ys: list[float]) -> float:
    """-m of the least-squares line y = a + m x."""
    design = np.vstack([xs, np.ones(len(xs))]).T
    return float(-np.linalg.lstsq(design, np.array(ys), rcond=None)[0][0])


@dataclass(frozen=True)
class LambdaGapReport:
    """Smallest |lambda|/d over distinct pairs of a window.

    The proof-level claim |lambda| >= c d fails for mixed-sign index
    displacements (already at (3, -2): |3 log 2 - 2 log 3| ~ 0.118), so
    the observed minimum ratio is reported as data, never asserted.
    """

    min_ratio: float
    pair: tuple[LadderIndex, LadderIndex]
    c: float


def _lambda_gap(g: GramMatrix, d: np.ndarray) -> LambdaGapReport:
    pts = g.points
    if len(pts) < 2:
        return LambdaGapReport(min_ratio=0.0, pair=(pts[0].index, pts[0].index), c=LOG2)
    log_theta = np.array([p.log_theta for p in pts])
    iu, ju = np.triu_indices(len(pts), 1)
    ratio = np.abs(log_theta[iu] - log_theta[ju]) / d[iu, ju]
    # argmin takes the first minimum in row-major order, the pair a scan
    # with a strict "<" over i < j would keep
    best = int(np.argmin(ratio))
    pair = (pts[iu[best]].index, pts[ju[best]].index)
    return LambdaGapReport(min_ratio=float(ratio[best]), pair=pair, c=LOG2)


@dataclass(frozen=True)
class DecayReport:
    """Shell statistics, envelopes, and the decay exponent fitted at c = log 2.

    ``envelope_shell[n]`` is the largest |entry| at distance exactly n and
    ``envelope_tail[n]`` the largest at distance >= n, which makes it
    nonincreasing identically.  Both are read off the shells' max_abs: the
    zero row holds only zeros, so they are the sups over every pair.
    """

    shells: tuple[ShellStats, ...]
    envelope_shell: tuple[float, ...]
    envelope_tail: tuple[float, ...]
    fitted_exponent: float
    c: float
    fit_range: tuple[int, int]
    lambda_gap: LambdaGapReport
    exclude_zero_row: bool


def decay_report(
    g: GramMatrix,
    fit_range: tuple[int, int] | None = None,
    exclude_zero_row: bool = True,
) -> DecayReport:
    """Full decay diagnosis of a Gram matrix.

    The default fit range [1, floor((j_max + k_max)/2)] stops where the
    window boundary starts depleting shells; outer shells lose pairs to
    the boundary and bias the slope.
    """
    diam = g.window.j_max + g.window.k_max
    fit_range = _fit_range((1, max(1, diam // 2)) if fit_range is None else fit_range)
    d = _distance_matrix(g)
    shells = _shells(np.abs(g.entries), d, _pair_mask(g, exclude_zero_row))
    env_shell, env_tail = _envelopes(shells, diam)
    m_hat = fit_exponent(shells, fit_range)
    return DecayReport(
        shells=tuple(shells),
        envelope_shell=tuple(float(v) for v in env_shell),
        envelope_tail=tuple(float(v) for v in env_tail),
        fitted_exponent=m_hat,
        c=LOG2,
        fit_range=fit_range,
        lambda_gap=_lambda_gap(g, d),
        exclude_zero_row=exclude_zero_row,
    )


@dataclass(frozen=True)
class TruncationReport:
    """Finite-section diagnosis at one truncation radius B.

    The residual G - G^(B) keeps the entries at ladder distance >= B and
    zeroes the rest.  ``tail_sums`` holds each row's l1 mass in it, per
    ladder index.  The residual is symmetric, so by Schur's test its
    spectral norm is at most the largest absolute row sum: ``schur_bound``,
    the largest tail sum, is a rigorous bound.  ``empirical_opnorm`` is
    that norm exactly, the largest |eigenvalue| of the symmetric residual
    (eigvalsh), so it never exceeds ``schur_bound``; the name is kept for
    schema stability.
    """

    B: int
    schur_bound: float
    empirical_opnorm: float
    tail_sums: tuple[tuple[LadderIndex, float], ...]


@dataclass(frozen=True)
class TruncationSuite:
    """Truncation reports over several radii plus the tail-decay slope.

    ``fit_exponent_tail`` is the negated log-log slope of the Schur
    bound against 1 + B; None when fewer than three radii have positive
    tails (nothing to fit).
    """

    reports: tuple[TruncationReport, ...]
    fit_exponent_tail: float | None


def truncation_suite(g: GramMatrix, bs: tuple[int, ...] = (1, 2, 3, 4)) -> TruncationSuite:
    """One :class:`TruncationReport` per radius B in ``bs``, integers >= 1,
    in the order given: row tail sums, their maximum and the residual's
    norm, all from its one residual.  The norm comes from eigvalsh, which
    reads only the lower triangle, so it is ``g``'s only if ``g`` is
    exactly symmetric, as every build is and every document
    :func:`.gram.gram_from_json` accepts.  Its last bits depend on the
    BLAS thread count (README, "Determinism")."""
    bs = tuple(_integer(b, "truncation radius B", minimum=1) for b in bs)
    d = _distance_matrix(g)
    reports = []
    for b in bs:
        resid = np.where(d >= b, g.entries, 0.0)
        tails = np.cumsum(np.abs(resid), axis=1)[:, -1]  # left to right
        reports.append(
            TruncationReport(
                B=b,
                schur_bound=float(tails.max()),
                empirical_opnorm=float(np.abs(np.linalg.eigvalsh(resid)).max()),
                tail_sums=tuple(zip((p.index for p in g.points), tails.tolist())),
            )
        )
    tails = [r for r in reports if r.schur_bound > 0.0]
    xs, ys = [math.log1p(r.B) for r in tails], [math.log(r.schur_bound) for r in tails]
    fit = _negated_slope(xs, ys) if len(xs) >= 3 and float(np.ptp(np.array(xs))) > 0.0 else None
    return TruncationSuite(reports=tuple(reports), fit_exponent_tail=fit)


def shells_to_csv(shells: list[ShellStats] | tuple[ShellStats, ...]) -> str:
    columns = list(zip(*map(astuple, shells)))
    return csv_text([f.name for f in fields(ShellStats)], columns)


def decay_report_to_json(r: DecayReport) -> str:
    # tuples (ladder indices included) serialize as JSON lists
    return json_text({"schema": "bnladder.decay/1", **asdict(r)})


def truncation_suite_to_json(s: TruncationSuite) -> str:
    reports = [
        {
            "B": r.B,
            "schur_bound": r.schur_bound,
            "empirical_opnorm": r.empirical_opnorm,
            "tail_sums": [{"j": ix.j, "k": ix.k, "tail_sum": t} for ix, t in r.tail_sums],
        }
        for r in s.reports
    ]
    payload = {"reports": reports, "fit_exponent_tail": s.fit_exponent_tail}
    return json_text({"schema": "bnladder.truncation/1", **payload})
