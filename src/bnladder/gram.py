"""Gram matrices of ladder profiles, direct and spectral.

Two independent routes produce the same raw Gram matrix.  Both fill a
table with one kernel value per distinct displacement between the points
and the origin, and :func:`.fractional._assemble` turns it into entries:

* direct: sqrt(hk) F(h, k) from Vasyunin's closed form (see
  :mod:`.fractional`), exact with a roundoff estimate as its budget; a
  window above the closed form's cap falls back to the cutoff sweep of
  :mod:`.fractional` and reports its tail bound;
* spectral: the Parseval identity <f_a, f_b> = (1/pi) *
  integral_0^inf Re[M_a(1/2+it) conj(M_b(1/2+it))] dt, truncated at
  ``t_max_raw`` and integrated on equal Gauss-Kronrod K15 panels.  The
  integrand is |zeta/s|^2 times cosines of ladder displacements, so the
  table holds cosine moments of |zeta/s|^2 on a (dj, dk) grid (9 x 17 =
  153 cells on 8x8, covering its 145 distinct frequencies; see
  :func:`_pair_matrices`).  Every frequency is dj log 2 + dk log 3, so
  e^{i omega t} factors into one exponential per dj and one per dk, each
  the product of its values at the panel midpoint and at the node's
  offset, and the whole grid is one complex matrix product per slab of
  panels within zeta's 512 KiB table budget.  The panels share their
  quadrature weights too, so the grid's one array over its nodes is
  |zeta/s|^2, and each slab forms its own nodes and tapered weights (see
  :func:`_moments`).  zeta comes from the panel evaluator of :mod:`.zeta`.

The raw spectral integrand decays only like (log t)/t^2, so truncation
leaves a visible deficit; every spectral entry therefore carries an error
estimate combining the K15 - G7 difference of its panels (the Gauss rule
embedded in K15) with a tail estimate based on the mean-square growth of
zeta, mean |zeta(1/2+it)|^2 ~ log(t/2pi) + 2 gamma.  Both terms are
estimates, not rigorous bounds: on the diagonal the actual deficit is
what the comparison budget in cross-validation accounts for.

The panel width is sized per build by that same difference: the widest
width 0.25 * 2^m at or below a first candidate, taken from the highest
frequency the build integrates and narrowed where the first panel would
miss the target beside the poles of |zeta/s|^2 at t = +-i/2 (see
:func:`_first_width`), at which every entry off the theta = 1
row has |K15 - G7|_ab <= 1e-3 * amp_a * amp_b * tau.  Here tau * amp_a *
amp_b is the raw tail estimate, or for the tapered share of a smoothed
build tau = _GAUSSIAN_TAIL_TOL / 4 (see :func:`_spectral`).

Smoothed Gram matrices weight the spectral integrand by
psi_W(t)^2 = (epsilon + exp(-(t/W)^2))^2.  Expanding the square makes the
epsilon^2 part epsilon^2 times the raw direct build (above the closed
form's cap, at the coarse cutoff of :func:`_epsilon_cutoff`), while the
two Gaussian-tapered parts are integrated on a short grid truncated where
the taper pushes the tail below 1e-10 (``_GAUSSIAN_TAIL_TOL``).  That
split, the ``hybrid`` method, is the one route of smoothed matrices.

Every build makes its own grids and keeps none, so the module holds no
state between calls.  The widths are quantized to 0.25 * 2^m, powers of
two, so each halving is exact.  A grid lays out n = ceil(t_max / h)
panels of width t_max / n: where h divides t_max, as at every default
height, that is h and every panel edge i * h is an exact double;
otherwise the panels are slightly narrower and still end at t_max.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, ParameterError
from .fractional import (
    DEFAULT_QUAD,
    InnerProductResult,
    QuadratureConfig,
    _assemble,
    _unit_inner_matrix,
)
from .io import _ranked, csv_text, json_text
from .ladder import LOG2, LOG3, IndexWindow, LadderIndex, LadderPoint, theta_of
from .mellin import SmoothingParams
from .zeta import _TABLE_BYTES, _check_grid_top, _panel_zeta

__all__ = [
    "GramMatrix",
    "CrossValidationReport",
    "build_gram",
    "inner_spectral",
    "cross_validate",
    "gram_to_csv",
    "gram_to_json",
    "gram_from_json",
]

# The methods of each kind; the first is its default.
_ROUTES = {"raw": ("direct", "spectral"), "smoothed": ("hybrid",)}
_GRAM_SCHEMA = "bnladder.gram/4"

_EULER_GAMMA = float(np.euler_gamma)
_MEAN_SQ_FLOOR = 10.0  # the mean-square tail estimate is meaningless below ~2pi
# Absolute tail target of the Gaussian-tapered share of smoothed builds.
_GAUSSIAN_TAIL_TOL = 1.0e-10

# The 15-point Gauss-Kronrod rule on [-1, 1] (QUADPACK's qk15, Piessens et
# al. 1983) at its nodes >= 0, from the top node down to 0, and the weights
# of the 7-point Gauss rule it embeds on every other node.  Computed offline
# by Laurie's algorithm ("Calculation of Gauss-Kronrod quadrature rules",
# Math. Comp. 66, 1997) in 50-digit arithmetic and rounded to float64.
_K15_TOP_NODES = (
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
    0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0,
)
_K15_TOP_WEIGHTS = (
    0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
    0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782,
)
_G7_TOP_WEIGHTS = (0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694)


def _ascending(top_down, sign: float = 1.0) -> np.ndarray:
    """A symmetric table over [-1, 1] from its values at nodes >= 0 listed
    from the top down to 0; ``sign`` -1 mirrors the nodes themselves."""
    half = np.array(top_down)
    return np.concatenate((sign * half[:-1], half[::-1]))


_K15_NODES = _ascending(_K15_TOP_NODES, -1.0)
_K15_WEIGHTS = _ascending(_K15_TOP_WEIGHTS)
_G7_ON_K15 = np.zeros(15)
_G7_ON_K15[1::2] = _ascending(_G7_TOP_WEIGHTS)  # the Gauss nodes are the odd-indexed ones

# The width rule: a grid is accepted when every entry off the theta = 1 row
# has |K15 - G7|_ab <= _QUAD_SHARE * amp_a * amp_b * tau (see _spectral).
_QUAD_SHARE = 1.0e-3
# Radians a panel may span where _QUAD_SHARE * tau = 1e-6; G7's error on a
# panel goes roughly like (omega h)^14, so the span scales like the 14th
# root of the target.  Sized so that the raw windows IndexWindow(3, 3) and
# (8, 8) at t_max_raw = 1000 and the smoothed (24, 24) at W = 5 accept
# their first candidate; a test pins that each tries one width.
_PANEL_RADIANS = 12.0
# The poles of |zeta/s|^2 at t = +-i/2 limit the first panel [0, h]: its G7
# error, relative to amp_a * amp_b, goes like omega^2 rho(h)^-14, with omega
# the displacement span and rho(h) the Bernstein ellipse through i/2.  At
# h = 1/4 it measured 0.034-0.052 omega^2 rho^-14 on the windows (1, 0) to
# (4, 4); without this cap the smoothed (2, 2) at W = 2 tried 1/2 and 1/4
# before it accepted 1/8.
_POLE_SHARE = 0.05
# A target below what roundoff allows is never met, so the halving stops
# with ConvergenceError before a grid would exceed this many nodes.
_MAX_GRID_NODES = 1 << 22


@dataclass(frozen=True)
class _SpectralGrid:
    """Gauss-Kronrod K15 panels on [0, t_max] with the zeta power spectrum.

    The panels are equal: ``mids`` holds their ascending midpoints, and
    ``offs``, ``w_quad`` and ``w_diff`` the 15 node offsets, K15 weights
    and K15 minus embedded G7 weights that every panel shares.  The K15 -
    G7 difference is the error estimate of the cruder G7 rule, so as the
    quadrature term of a budget it is an estimate, not a bound, and a
    generous one for the K15 value itself.  ``power`` is the one array
    over the nodes, in the order of ``(mids[:, None] + offs).ravel()``.
    """

    mids: np.ndarray
    offs: np.ndarray
    w_quad: np.ndarray
    w_diff: np.ndarray
    power: np.ndarray  # |zeta(s)/s|^2 at the nodes: all an entry needs of zeta


def _first_width(omega: float, t_max: float, tau: float) -> float:
    """Widest 0.25 * 2^m whose panels span at most the radians that the
    target tau allows, at the frequency omega plus |zeta|^2's own band,
    about log(t/2pi) at t_max, and whose first panel meets the target
    beside the poles at t = +-i/2: _POLE_SHARE omega^2 rho(h)^-14 <=
    _QUAD_SHARE tau."""
    radians = _PANEL_RADIANS * (_QUAD_SHARE * tau / 1.0e-6) ** (1.0 / 14.0)
    band = omega + max(1.0, math.log(t_max / (2.0 * math.pi)))
    h = 0.25 * 2.0 ** math.floor(math.log2(radians / (0.25 * band)))
    rho_min = (_POLE_SHARE * omega * omega / (_QUAD_SHARE * tau)) ** (1.0 / 14.0)
    while _pole_rho(h) < rho_min:
        h *= 0.5
    return h


def _pole_rho(h: float) -> float:
    """rho of the Bernstein ellipse of the panel [0, h] through the pole
    t = i/2, whose image on [-1, 1] is x = 2t/h - 1 = -1 + i/h: the
    ellipse with foci -1 and 1 through x has semi-major axis
    a = (|x - 1| + |x + 1|) / 2, and rho = a + sqrt(a^2 - 1)."""
    a = 0.5 * (math.hypot(2.0, 1.0 / h) + 1.0 / h)
    return a + math.sqrt(a * a - 1.0)


def _spectral_grid(t_max: float, h: float) -> _SpectralGrid:
    """n = ceil(t_max / h) equal K15 panels of width t_max / n on
    [0, t_max], with zeta evaluated afresh at every node by the panel
    evaluator of :mod:`.zeta`.  Where h divides t_max the width is h
    itself; otherwise it is slightly narrower, and the last panel still
    ends at t_max.  The grid keeps one array over its nodes, the power
    spectrum; the evaluator adds its one complex output and working space
    that does not grow with the number of panels (see :mod:`.zeta`)."""
    n_panels = int(math.ceil(t_max / h))
    if 15 * n_panels > _MAX_GRID_NODES:
        raise ConvergenceError(
            f"spectral grid on [0, {t_max:g}] at panel width {h:g} needs "
            f"{15 * n_panels} nodes (cap {_MAX_GRID_NODES})"
        )
    width = t_max / n_panels
    mids = (np.arange(n_panels) + 0.5) * width
    offs = 0.5 * width * _K15_NODES
    power = np.abs(_panel_zeta(mids, offs)) ** 2 / (0.25 + (mids[:, None] + offs).ravel() ** 2)
    w_quad, w_diff = 0.5 * width * _K15_WEIGHTS, 0.5 * width * (_K15_WEIGHTS - _G7_ON_K15)
    return _SpectralGrid(mids, offs, w_quad, w_diff, power)


def _moments(grid: _SpectralGrid, uj: np.ndarray, uk: np.ndarray, smoothing) -> np.ndarray:
    """C_w(omega) = (1/pi) * sum_nodes w |zeta/s|^2 cos(omega t) at the
    ladder frequencies omega = dj log 2 + dk log 3, indexed (rule, dj, dk)
    over the rules (K15, K15 - G7) and every dj in ``uj`` and dk in
    ``uk``.  The weight w is the rule's, times :func:`_taper` where
    ``smoothing`` is given: the tapered share of a smoothed build.

    cos(omega t) = Re[e^{i dj log2 t} e^{i dk log3 t}], so a rule's grid
    is Re[(A * w |zeta/s|^2) B^T], with A holding e^{i dj log2 t} for each
    dj and B e^{i dk log3 t} for each dk.  Each is the product of its
    value at the panel midpoint and at the node's offset, which all panels
    share, so a node costs no exponential at all.  The node t is the
    rounded mid + off, which moves the product's phase by at most
    f ulp(t)/2, as much as rounding f t itself would.  The panels go in
    slabs whose A and B take at most zeta's table budget, _TABLE_BYTES
    (512 KiB): 84 panels on raw 8x8 and 29 on smoothed 24x24.  Each slab
    forms its own nodes, taper and weights (w * taper) * |zeta/s|^2, so
    beyond its inputs the pass allocates nothing the size of the grid.
    """
    out = np.zeros((2, uj.size, uk.size))
    freqs = (uj * LOG2, uk * LOG3)
    at_offs = [np.exp(1j * np.outer(f, grid.offs))[:, None, :] for f in freqs]
    # a panel's rows of A and B: (|uj| + |uk|) x offsets complex values
    slab = max(1, _TABLE_BYTES // ((uj.size + uk.size) * grid.offs.size * 16))
    power = grid.power.reshape(grid.mids.size, grid.offs.size)
    for first in range(0, grid.mids.size, slab):
        m = grid.mids[first : first + slab]
        # e^{i f t} = e^{i f mid} e^{i f off}, frequencies by nodes
        a, b = (
            (np.exp(1j * np.outer(f, m))[:, :, None] * at_off).reshape(f.size, -1)
            for f, at_off in zip(freqs, at_offs)
        )
        taper = 1.0 if smoothing is None else _taper(m[:, None] + grid.offs, smoothing)
        for c, w in enumerate((grid.w_quad, grid.w_diff)):
            out[c] += ((a * ((w * taper) * power[first : first + slab]).ravel()) @ b.T).real
    return out / math.pi


def _pair_matrices(points: tuple[LadderPoint, ...], grid: _SpectralGrid, smoothing):
    """(1/pi) * sum_nodes w Re[M_a conj(M_b)] for all pairs, for the rules
    K15 and K15 - G7, with w tapered where ``smoothing`` is given (see
    :func:`_moments`).

    With l = log theta, Re[M_a conj(M_b)] / |zeta/s|^2 = theta_a theta_b
    + sqrt(theta_a theta_b) cos(t(l_a - l_b)) - theta_a sqrt(theta_b) cos(t l_b)
    - theta_b sqrt(theta_a) cos(t l_a), so each rule's moments on the
    (dj, dk) grid (153 cells on 8x8, for 145 distinct frequencies) fill
    the table of :func:`.fractional._assemble`.
    """
    # The origin appended last turns each l_a into the displacement a - 0.
    ij = np.array([tuple(p.index) for p in points] + [(0, 0)], dtype=np.int64)
    dj, dk = (ij[:, None, c] - ij[None, :, c] for c in (0, 1))
    # cos is even, so d takes the sign with dj > 0, or dj = 0 and dk >= 0:
    # d and -d read one cell, so the table is exactly symmetric (a cell and
    # its mirror, computed apart, can differ in the last bit).  On a window
    # _ranked ranks each axis with no sort.
    flip = np.where((dj < 0) | ((dj == 0) & (dk < 0)), -1, 1)
    uj, row = _ranked(flip * dj)
    uk, col = _ranked(flip * dk)
    theta = np.array([p.theta for p in points])
    # sqrt(theta) via exp(log_theta / 2) so deep indices degrade to 0
    # instead of raising; log_theta == 0.0 keeps the theta = 1 row exact.
    sqrt_theta = np.array([math.exp(0.5 * p.log_theta) for p in points])
    return [_assemble(theta, sqrt_theta, m[row, col]) for m in _moments(grid, uj, uk, smoothing)]


def _displacement_span(points) -> float:
    """The largest ladder displacement of the points and the origin."""
    logs = [p.log_theta for p in points] + [0.0]
    return max(logs) - min(logs)


def _mean_sq_tail(t_from: float) -> float:
    """integral_T^inf (log(t/2pi) + 2 gamma) / (1/4 + t^2) dt.

    Alternating series in T^-2; the integrand is the mean-square density
    of zeta on the critical line over the kernel 1/|s|^2.  Above T = 1e6,
    where no successful build reads it, only the leading term is summed, so
    no power of T overflows."""
    t_from = max(t_from, _MEAN_SQ_FLOOR)
    lead = math.log(t_from / (2.0 * math.pi)) + 2.0 * _EULER_GAMMA
    if t_from > 1.0e6:
        return (lead + 1.0) / t_from if math.isfinite(t_from) else 0.0
    out = 0.0
    for k in range(12):
        q = 2 * k + 1
        out += (-0.25) ** k * (lead / q + 1.0 / (q * q)) / t_from**q
    return out


def _amp_bound(p: LadderPoint) -> float:
    # |theta - theta^s| <= theta + sqrt(theta), and exactly 0 at theta = 1.
    if p.denominator == 1:
        return 0.0
    return p.theta + math.exp(0.5 * p.log_theta)


def _taper(t, smoothing: SmoothingParams):
    """psi_W(t)^2 - epsilon^2 = 2 epsilon g + g^2 with g = exp(-(t/W)^2):
    the weight of the Gaussian-tapered share of a smoothed build."""
    g = np.exp(-((t / smoothing.W) ** 2))
    return 2.0 * smoothing.epsilon * g + g * g


def _gaussian_cutoff(smoothing: SmoothingParams) -> float:
    """Doubling search for the height where the tapered tail dips below
    _GAUSSIAN_TAIL_TOL."""
    t = 2.0 * smoothing.W
    while _taper(t, smoothing) * 4.0 * _mean_sq_tail(t) / math.pi > _GAUSSIAN_TAIL_TOL:
        t *= 2.0
        if t > 1.0e6:
            raise ConvergenceError(
                f"Gaussian taper W={smoothing.W:g} will not reach tail {_GAUSSIAN_TAIL_TOL:g}"
            )
    return t


def _epsilon_cutoff(eps: float, quad: QuadratureConfig) -> float:
    # Above the cap the epsilon^2 share (eps > 0) tolerates a cutoff larger
    # by 1/eps^2; cap it well inside (0, 1) so the sweep stays meaningful.
    # An eps^2 that underflows to 0 counts as the least double: the cap.
    base = quad.resolved_x_min()
    return min(0.25, max(base, base / max(eps * eps, 5e-324)))


def _as_point(p) -> LadderPoint:
    if isinstance(p, LadderPoint):
        return p
    return theta_of(p)


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of pairwise inner products over a window.

    Rows and columns follow the window's row-major order (j outer, k
    inner); ``points[i]`` is the ladder point behind row i.
    ``err_estimate`` holds per-entry absolute error budgets: the roundoff
    estimate of the closed form for direct builds (the cutoff tail above
    the closed form's cap), quadrature-difference plus truncation tail
    for spectral ones, and for smoothed builds the Gaussian tail plus
    epsilon^2 times a direct one.  Direct entries below the cap and every
    spectral share come out of :func:`.fractional._assemble`, so they are
    exactly symmetric with an exactly-zero theta = 1 row.
    """

    window: IndexWindow
    method: str
    smoothing: SmoothingParams | None
    entries: np.ndarray
    err_estimate: np.ndarray
    quad: QuadratureConfig

    @property
    def kind(self) -> str:
        """Derived, so no matrix can pair kind "raw" with smoothing."""
        return "raw" if self.smoothing is None else "smoothed"

    @cached_property
    def points(self) -> tuple[LadderPoint, ...]:
        return tuple(self.window.points())

    @cached_property
    def _pair_columns(self) -> tuple[np.ndarray, ...]:
        """Columns j, k, j2, k2 of the row-major pair layout: row i*n + m
        belongs to the pair (points[i], points[m]).  Cached, so the two
        files of the ``gram`` command share one set."""
        n = len(self.points)
        j = np.array([p.index.j for p in self.points])
        k = np.array([p.index.k for p in self.points])
        return np.repeat(j, n), np.repeat(k, n), np.tile(j, n), np.tile(k, n)

    @property
    def size(self) -> int:
        return self.window.size

    def entry(self, a, b) -> float:
        return float(self.entries[self.window.position(a), self.window.position(b)])


def _validate_build(kind: str, method: str | None, smoothing: SmoothingParams | None):
    """The method ``kind`` builds with: ``method``, or the kind's default."""
    if kind not in _ROUTES:
        raise ParameterError(f"kind must be one of {tuple(_ROUTES)}, got {kind!r}")
    if kind == "raw" and smoothing is not None:
        raise ParameterError("raw Gram takes no smoothing parameters")
    if kind == "smoothed" and smoothing is None:
        raise ParameterError("smoothed Gram requires SmoothingParams")
    routes = _ROUTES[kind]
    if method is None:
        return routes[0]
    if method not in routes:
        raise ParameterError(f"{kind} Gram methods are {routes}, got {method!r}")
    return method


def _spectral(points, smoothing: SmoothingParams | None, quad: QuadratureConfig):
    """``(values, budgets)`` of the spectral share of every pair of points.

    Raw (``smoothing`` None) integrates |zeta/s|^2 up to ``t_max_raw``
    with tau = the mean-square tail over pi; smoothed integrates the
    Gaussian-tapered share up to :func:`_gaussian_cutoff` with
    tau = _GAUSSIAN_TAIL_TOL / 4.  A height past the zeta cap raises
    before any grid.  Starting from :func:`_first_width` at the points'
    displacement span, the panel width halves until every entry off the
    theta = 1 row has |K15 - G7|_ab <= _QUAD_SHARE * amp_a * amp_b * tau,
    with amp the points' :func:`_amp_bound`.  The budget is |K15 - G7|
    plus amp_a * amp_b * tau raw; smoothed, the flat Gaussian tail plus
    epsilon^2 times that of the epsilon^2 share, the raw direct build,
    and 0 on the theta = 1 row.
    """
    amps = np.array([_amp_bound(p) for p in points])
    if smoothing is None:
        t_max = quad.t_max_raw
        if t_max < _MEAN_SQ_FLOOR:
            raise ParameterError(f"raw spectral builds need t_max_raw >= 10, got {t_max!r}")
        tau = _mean_sq_tail(t_max) / math.pi  # times amp_a * amp_b: the tail estimate
    else:
        # amp_a * amp_b <= 4, so a target of _GAUSSIAN_TAIL_TOL / 4 keeps the
        # quadrature share below _QUAD_SHARE of the Gaussian tail term.
        t_max = _gaussian_cutoff(smoothing)
        tau = _GAUSSIAN_TAIL_TOL / 4.0
    _check_grid_top(t_max)
    off, limit = amps > 0.0, _QUAD_SHARE * tau
    h = _first_width(_displacement_span(points), t_max, tau)
    while True:
        grid = _spectral_grid(t_max, h)
        vals, qdiff = _pair_matrices(points, grid, smoothing)
        # Unnamed, the ratios die here: kept alive through the budget below,
        # they raised the peak RSS of a smoothed 24x24 gram run by 6 MB.
        if np.all(np.abs(qdiff[np.ix_(off, off)]) / amps[off, None] / amps[None, off] <= limit):
            break
        h *= 0.5
    if smoothing is None:
        return vals, np.abs(qdiff) + np.outer(amps, amps) * tau
    errs = np.abs(qdiff) + _GAUSSIAN_TAIL_TOL
    eps = smoothing.epsilon
    if eps > 0.0:
        coarse = replace(quad, x_min=_epsilon_cutoff(eps, quad))
        base, base_err = _unit_inner_matrix([p.denominator for p in points], coarse)
        vals = vals + (eps * eps) * base
        errs = errs + (eps * eps) * base_err
    # f_1 = 0, so the theta = 1 row is exactly 0 in every share: no budget.
    unit = np.array([p.denominator == 1 for p in points])
    errs[unit, :] = errs[:, unit] = 0.0
    return vals, errs


def build_gram(
    window: IndexWindow,
    kind: str = "raw",
    method: str | None = None,
    smoothing: SmoothingParams | None = None,
    quad: QuadratureConfig | None = None,
) -> GramMatrix:
    """Build the Gram matrix of a window.

    Raw matrices default to the direct route, the exact closed form;
    ``method='spectral'`` switches to truncated Parseval integration
    (useful as a consistency probe, see :func:`cross_validate`).
    Smoothed matrices have one route, ``hybrid``: the epsilon^2 share of
    psi^2 is epsilon^2 times the raw direct build, and only the
    Gaussian-tapered share is integrated spectrally.  Both spectral
    routes are one builder, :func:`_spectral`, which picks the height, the
    panel width and the budget from ``smoothing``.
    """
    quad = quad if quad is not None else DEFAULT_QUAD
    method = _validate_build(kind, method, smoothing)
    points = tuple(window.points())
    if method == "direct":
        vals, errs = _unit_inner_matrix([p.denominator for p in points], quad)
    else:
        vals, errs = _spectral(points, smoothing, quad)
    g = GramMatrix(
        window=window,
        method=method,
        smoothing=smoothing,
        entries=vals,
        err_estimate=errs,
        quad=quad,
    )
    g.__dict__["points"] = points  # seeds the cached property: no second window walk
    return g


def inner_spectral(
    a,
    b,
    smoothing: SmoothingParams | None = None,
    quad: QuadratureConfig | None = None,
) -> InnerProductResult:
    """Spectral inner product of two ladder points with its error budget.

    Raw (no smoothing): truncated Parseval integral.  Smoothed: the
    psi^2-weighted integral via the hybrid decomposition.  It runs the
    spectral builder of :func:`build_gram` on the two points alone, so
    value and budget are composed as a matrix entry's; the width search
    sees only this pair, so its grid may be coarser than a window's.
    """
    quad = quad if quad is not None else DEFAULT_QUAD
    vals, errs = _spectral((_as_point(a), _as_point(b)), smoothing, quad)
    return InnerProductResult(value=float(vals[0, 1]), err_estimate=float(errs[0, 1]))


@dataclass(frozen=True)
class CrossValidationReport:
    """Entrywise comparison of the direct and spectral raw builds."""

    window: IndexWindow
    max_abs_diff: float
    mean_abs_diff: float
    worst: tuple[LadderIndex, LadderIndex]
    max_err_estimate: float


def cross_validate(
    window: IndexWindow, quad: QuadratureConfig | None = None
) -> CrossValidationReport:
    """Build the raw Gram both ways and report the discrepancy.

    The direct route is exact up to roundoff, so the discrepancy is the
    spectral route's error, dominated by its truncation at ``t_max_raw``;
    expect the maximum on the diagonal, where the truncated integrand is
    largest.
    """
    quad = quad if quad is not None else DEFAULT_QUAD
    direct = build_gram(window, kind="raw", method="direct", quad=quad)
    spectral = build_gram(window, kind="raw", method="spectral", quad=quad)
    diff = np.abs(direct.entries - spectral.entries)
    i, j = np.unravel_index(np.argmax(diff), diff.shape)
    pts = direct.points
    return CrossValidationReport(
        window=window,
        max_abs_diff=float(diff[i, j]),
        mean_abs_diff=float(diff.mean()),
        worst=(pts[i].index, pts[j].index),
        max_err_estimate=float(spectral.err_estimate.max()),
    )


def gram_to_csv(g: GramMatrix) -> str:
    """Render all entries as CSV rows ``j,k,j2,k2,value,err_estimate``.

    The full square matrix is written (symmetry included) so downstream
    tools can reshape without knowing the triangle convention.
    """
    return csv_text(
        ("j", "k", "j2", "k2", "value", "err_estimate"),
        [*g._pair_columns, g.entries.ravel(), g.err_estimate.ravel()],
    )


def gram_to_json(g: GramMatrix) -> str:
    """Serialize a Gram matrix to JSON; exact float round trip."""
    payload = {
        "schema": _GRAM_SCHEMA,
        "window": asdict(g.window),
        "kind": g.kind,
        "method": g.method,
        "smoothing": None if g.smoothing is None else asdict(g.smoothing),
        "quad": asdict(g.quad),
        "entries": g.entries.tolist(),
        "err_estimate": g.err_estimate.tolist(),
    }
    return json_text(payload)


def gram_from_json(text: str) -> GramMatrix:
    """Rebuild a :class:`GramMatrix` from its JSON serialization.

    Any document that no build writes raises :class:`ParameterError`:
    bad JSON, a schema other than ``bnladder.gram/4``, a missing or
    misspelled field, an invalid kind, method or smoothing, or an entry
    array that is ragged, of the wrong size, or not exactly symmetric, or
    that holds a cell other than a finite JSON number (a string such as
    "0.25", true, null), or a negative ``err_estimate``.
    """
    try:
        payload = json.loads(text)
        schema = payload.get("schema")
        if schema != _GRAM_SCHEMA:
            raise ParameterError(
                f"Gram serialization has schema {schema!r}, expected {_GRAM_SCHEMA!r}"
            )
        window = IndexWindow(payload["window"]["j_max"], payload["window"]["k_max"])
        sm = payload["smoothing"]
        smoothing = None if sm is None else SmoothingParams(W=sm["W"], epsilon=sm["epsilon"])
        quad = QuadratureConfig(**payload["quad"])
        method = payload["method"]
        if method is None:  # the kind's default, which the document need not have run
            raise ParameterError("Gram serialization names no method")
        _validate_build(payload["kind"], method, smoothing)
        cells = (payload["entries"], payload["err_estimate"])
        # numpy would read "0.25" and true as numbers; a bool is no real
        if not {type(x) for rows in cells for row in rows for x in row} <= {int, float}:
            raise ParameterError("entry arrays must hold JSON numbers only")
        entries, err = (np.array(c, dtype=np.float64) for c in cells)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"malformed Gram serialization: {exc!r}") from exc
    n = window.size
    if entries.shape != (n, n) or err.shape != (n, n):
        raise ParameterError("entry arrays do not match the window size")
    if not (np.all(np.isfinite(entries)) and np.all(np.isfinite(err)) and np.all(err >= 0.0)):
        raise ParameterError("entry arrays must be finite, err_estimate nonnegative")
    if not (np.array_equal(entries, entries.T) and np.array_equal(err, err.T)):
        raise ParameterError("entry arrays must be exactly symmetric")
    return GramMatrix(
        window=window,
        method=method,
        smoothing=smoothing,
        entries=entries,
        err_estimate=err,
        quad=quad,
    )
