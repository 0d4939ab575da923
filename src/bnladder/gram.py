"""Gram matrices of ladder profiles, direct and spectral.

Two independent routes produce the same raw Gram matrix:

* direct: Vasyunin's closed form for unit-fraction inner products (see
  :mod:`.fractional`), exact with a roundoff estimate as its budget; a
  window with a denominator above the closed form's cap falls back to
  the cutoff lattice pass and reports its tail bound;
* spectral: the Parseval identity <f_a, f_b> = (1/pi) *
  integral_0^inf Re[M_a(1/2+it) conj(M_b(1/2+it))] dt, truncated at
  ``t_max_raw`` and integrated with fixed Gauss-Legendre panels.  The
  integrand is |zeta/s|^2 times cosines whose frequencies are ladder
  displacements, so each entry combines a few cosine moments of |zeta/s|^2,
  one per distinct displacement (145 on 8x8; see :func:`_pair_matrices`).

The raw spectral integrand decays only like (log t)/t^2, so truncation
leaves a visible deficit; every spectral entry therefore carries an error
estimate combining an embedded-rule quadrature difference with a tail
estimate based on the mean-square growth of zeta,
mean |zeta(1/2+it)|^2 ~ log(t/2pi) + 2 gamma.  The estimate is a
plausibility budget, not a rigorous bound: on the diagonal the actual
deficit is what the comparison budget in cross-validation accounts for.

Smoothed Gram matrices weight the spectral integrand by
psi_W(t)^2 = (epsilon + exp(-(t/W)^2))^2.  Expanding the square lets the
epsilon^2 part reuse the direct lattice pass at a coarse cutoff (the
closed form's cost grows with the denominators, which reach 6^24 on a
24x24 window), while the two Gaussian-tapered parts are integrated on a
short grid truncated where the taper pushes the tail below
``gaussian_tail_tol``.  That split is what the hybrid method means for
smoothed matrices; for raw matrices hybrid falls back to direct, which is
both faster and exact.

Grids are cached per (t_max, panel_width), and panel widths are quantized
to 0.25 / 2^m so windows of different sizes share zeta evaluations.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError
from .fractional import (
    DEFAULT_QUAD,
    QuadratureConfig,
    _unit_inner_matrix,
    pair_inner_matrix,
)
from .io import csv_text, json_text
from .ladder import LOG2, LOG3, IndexWindow, LadderIndex, LadderPoint, theta_of
from .mellin import SmoothingParams
from .zeta import _check_grid_top, zeta_half_grid

__all__ = [
    "GramMatrix",
    "CrossValidationReport",
    "KernelFormComparison",
    "build_gram",
    "inner_spectral",
    "cross_validate",
    "compare_kernel_forms",
    "gram_to_csv",
    "gram_to_json",
    "gram_from_json",
]

KINDS = ("raw", "smoothed")
METHODS = ("direct", "spectral", "hybrid")

_EULER_GAMMA = float(np.euler_gamma)

_GL15 = np.polynomial.legendre.leggauss(15)
_GL7 = np.polynomial.legendre.leggauss(7)

_grid_cache: dict[tuple[float, float], "_SpectralGrid"] = {}


@dataclass(frozen=True)
class _SpectralGrid:
    """Panelized quadrature grid on [0, t_max] with the zeta power spectrum.

    ``w_quad`` integrates with the 15-point rule; ``w_diff`` yields the
    difference between the 15- and 7-point results in a single dot
    product, which is the per-entry quadrature error proxy.
    """

    nodes: np.ndarray
    w_quad: np.ndarray
    w_diff: np.ndarray
    power: np.ndarray  # |zeta(s)/s|^2 at the nodes: all an entry needs of zeta


def _panel_width(points: tuple[LadderPoint, ...]) -> float:
    # Gram phases are displacements, |l_a - l_b| <= max |log theta|; twice
    # that is needed only by compare_kernel_forms' mu = l_a + l_b.  Add a few
    # units for zeta's own oscillation, then keep ~8 radians per panel (far
    # inside the comfort zone of a 15-point rule).
    omega = max((2.0 * abs(p.log_theta) for p in points), default=0.0) + 4.0
    h = 0.25
    while h > 8.0 / omega:
        h *= 0.5
    return h


def _spectral_grid(t_max: float, h: float) -> _SpectralGrid:
    n_panels = int(math.ceil(t_max / h))
    x15, w15 = _GL15
    x7, w7 = _GL7
    # Reject a grid beyond the zeta cap before allocating it: its top node,
    # by the same arithmetic as below, is the last panel's top G15 node.
    last_lo, last_hi = min((n_panels - 1) * h, t_max), min(n_panels * h, t_max)
    _check_grid_top(0.5 * (last_lo + last_hi) + 0.5 * (last_hi - last_lo) * x15[-1])
    key = (float(t_max), float(h))
    got = _grid_cache.get(key)
    if got is not None:
        return got
    edges = np.minimum(np.arange(n_panels + 1) * h, t_max)
    mids = 0.5 * (edges[:-1] + edges[1:])[:, None]
    halves = 0.5 * (edges[1:] - edges[:-1])[:, None]
    # Each panel's 15 Gauss nodes, then its 7 embedded-rule nodes; adding
    # in place saves a node-sized temporary (2.6 MB of peak RSS on 8x8).
    nodes = halves * np.concatenate((x15, x7))
    nodes += mids
    nodes = nodes.ravel()
    w_quad = (halves * np.concatenate((w15, np.zeros(7)))).ravel()
    w_diff = (halves * np.concatenate((w15, -w7))).ravel()
    power = np.abs(zeta_half_grid(nodes)) ** 2 / (0.25 + nodes**2)
    grid = _SpectralGrid(nodes=nodes, w_quad=w_quad, w_diff=w_diff, power=power)
    _grid_cache[key] = grid
    return grid


def _moments(grid: _SpectralGrid, weights, omegas: np.ndarray) -> np.ndarray:
    """C_w(omega) = (1/pi) * sum_nodes w |zeta/s|^2 cos(omega t), one row per
    omega and one column per weight vector, in one pass over the nodes that
    is slabbed to a few million cosines at a time."""
    wp = np.stack(weights, axis=1) * grid.power[:, None]
    out = np.zeros((omegas.size, wp.shape[1]))
    slab = max(1024, int(4.0e6 / max(omegas.size, 1)))
    for lo in range(0, grid.nodes.size, slab):
        out += np.cos(np.outer(omegas, grid.nodes[lo : lo + slab])) @ wp[lo : lo + slab]
    return out / math.pi


def _pair_matrices(points: tuple[LadderPoint, ...], grid: _SpectralGrid, weights):
    """(1/pi) * sum_nodes w Re[M_a conj(M_b)] for all pairs, per weight vector.

    With l = log theta, Re[M_a conj(M_b)] / |zeta/s|^2 = theta_a theta_b
    + sqrt(theta_a theta_b) cos(t(l_a - l_b)) - theta_a sqrt(theta_b) cos(t l_b)
    - theta_b sqrt(theta_a) cos(t l_a), so a matrix is (A + D) - (B + B^T):
    exactly symmetric, and exactly 0 on the theta = 1 row, where A = B^T and
    D = B bit for bit.
    """
    n = len(points)
    # The origin appended last turns each l_a into the displacement a - 0.
    ij = np.array([tuple(p.index) for p in points] + [(0, 0)], dtype=np.int64)
    dj, dk = (ij[:, None, c] - ij[None, :, c] for c in (0, 1))
    # With |dk| < span / 2, (dj, dk) -> dj * span + dk is one-to-one and
    # odd; cos is even, so |key| names the moment of d and of -d.
    key = np.abs(dj * (2 * int(ij[:, 1].max()) + 1) + dk)
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    omegas = (dj * LOG2 + dk * LOG3).ravel()[first]
    inv = inv.reshape(n + 1, n + 1)
    theta = np.array([p.theta for p in points])
    # sqrt(theta) via exp(log_theta / 2) so deep indices degrade to 0
    # instead of raising; log_theta == 0.0 keeps the theta = 1 row exact.
    sqrt_theta = np.array([math.exp(0.5 * p.log_theta) for p in points])
    out = []
    for c in _moments(grid, weights, omegas).T:
        a = np.outer(theta, theta) * c[inv[n, n]]
        d = np.outer(sqrt_theta, sqrt_theta) * c[inv[:n, :n]]
        b = np.outer(theta, sqrt_theta * c[inv[:n, n]])
        out.append((a + d) - (b + b.T))
    return out


def _mean_sq_tail(t_from: float) -> float:
    """integral_T^inf (log(t/2pi) + 2 gamma) / (1/4 + t^2) dt.

    Alternating series in T^-2; the integrand is the mean-square density
    of zeta on the critical line over the kernel 1/|s|^2.
    """
    t_from = max(t_from, 10.0)  # asymptotic mean is meaningless below ~2pi
    lead = math.log(t_from / (2.0 * math.pi)) + 2.0 * _EULER_GAMMA
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


def _raw_tail_estimates(points: tuple[LadderPoint, ...], t_max: float) -> np.ndarray:
    amps = np.array([_amp_bound(p) for p in points])
    return np.outer(amps, amps) * (_mean_sq_tail(t_max) / math.pi)


def _gaussian_cutoff(smoothing: SmoothingParams, quad: QuadratureConfig) -> float:
    """Doubling search for the height where the tapered tail dips below
    gaussian_tail_tol."""
    w, eps = smoothing.W, smoothing.epsilon

    def bound(t: float) -> float:
        g1 = math.exp(-((t / w) ** 2))
        g2 = math.exp(-2.0 * ((t / w) ** 2))
        return (2.0 * eps * g1 + g2) * 4.0 * _mean_sq_tail(t) / math.pi

    t = 2.0 * w
    while bound(t) > quad.gaussian_tail_tol:
        t *= 2.0
        if t > 1.0e6:
            raise ConvergenceError(
                f"Gaussian taper W={w:g} will not reach tail {quad.gaussian_tail_tol:g}"
            )
    return t


def _epsilon_cutoff(eps: float, quad: QuadratureConfig) -> float:
    # The epsilon^2 slice tolerates a cutoff larger by 1/eps^2; cap well
    # inside (0, 1) so the lattice pass stays meaningful.
    base = quad.resolved_x_min()
    if eps <= 0.0:
        return base
    return min(0.25, max(base, base / (eps * eps)))


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
    for spectral ones, and for smoothed builds the Gaussian tail plus the
    epsilon^2 share's cutoff tail.
    """

    window: IndexWindow
    kind: str
    method: str
    smoothing: SmoothingParams | None
    entries: np.ndarray
    err_estimate: np.ndarray
    points: tuple[LadderPoint, ...]
    quad: QuadratureConfig

    @property
    def size(self) -> int:
        return len(self.points)

    def index_of(self, ix: LadderIndex | tuple[int, int]) -> int:
        return self.window.position(ix)

    def entry(self, a, b) -> float:
        return float(self.entries[self.index_of(a), self.index_of(b)])


def _validate_build(kind: str, method: str | None, smoothing: SmoothingParams | None):
    if kind not in KINDS:
        raise ParameterError(f"kind must be one of {KINDS}, got {kind!r}")
    if kind == "raw":
        if smoothing is not None:
            raise ParameterError("raw Gram takes no smoothing parameters")
        method = method if method is not None else "direct"
    else:
        if smoothing is None:
            raise ParameterError("smoothed Gram requires SmoothingParams")
        method = method if method is not None else "hybrid"
    if method not in METHODS:
        raise ParameterError(f"method must be one of {METHODS}, got {method!r}")
    if kind == "smoothed" and method == "direct":
        raise ParameterError(
            "smoothed entries exist only spectrally; use method='hybrid' or 'spectral'"
        )
    return method


def _direct_raw(points, quad):
    gram, err, _ = _unit_inner_matrix([p.denominator for p in points], quad)
    return gram, err


def _spectral_raw(points, quad):
    grid = _spectral_grid(quad.t_max_raw, _panel_width(points))
    vals, qdiff = _pair_matrices(points, grid, (grid.w_quad, grid.w_diff))
    tails = _raw_tail_estimates(points, quad.t_max_raw)
    return vals, np.abs(qdiff) + tails


def _spectral_smoothed(points, smoothing, quad):
    h = _panel_width(points)
    t_cut = _gaussian_cutoff(smoothing, quad)
    grid = _spectral_grid(t_cut, h)
    g1 = np.exp(-((grid.nodes / smoothing.W) ** 2))
    taper = 2.0 * smoothing.epsilon * g1 + g1 * g1
    vals, qdiff = _pair_matrices(points, grid, (grid.w_quad * taper, grid.w_diff * taper))
    errs = np.abs(qdiff) + quad.gaussian_tail_tol
    eps = smoothing.epsilon
    if eps > 0.0:
        denoms = [p.denominator for p in points]
        x_min_e = _epsilon_cutoff(eps, quad)
        base, tail = pair_inner_matrix(denoms, x_min_e, quad.max_subdivisions)
        vals = vals + (eps * eps) * base
        errs = errs + (eps * eps) * tail
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
    Smoothed matrices default to ``hybrid``: the epsilon^2 share of psi^2
    goes through the direct lattice pass at a coarse cutoff and only the
    Gaussian-tapered share is integrated spectrally.  ``method='spectral'``
    on a smoothed build is accepted as an alias; the decomposition is the
    only evaluation the taper admits.
    """
    quad = quad if quad is not None else DEFAULT_QUAD
    method = _validate_build(kind, method, smoothing)
    points = tuple(window.points())
    if kind == "raw":
        if method in ("direct", "hybrid"):
            vals, errs = _direct_raw(points, quad)
        else:
            vals, errs = _spectral_raw(points, quad)
    else:
        vals, errs = _spectral_smoothed(points, smoothing, quad)
    return GramMatrix(
        window=window,
        kind=kind,
        method=method,
        smoothing=smoothing,
        entries=vals,
        err_estimate=errs,
        points=points,
        quad=quad,
    )


def inner_spectral(
    a,
    b,
    smoothing: SmoothingParams | None = None,
    quad: QuadratureConfig | None = None,
    full_output: bool = False,
):
    """Spectral inner product of two ladder points.

    Raw (no smoothing): truncated Parseval integral with a reported
    error budget.  Smoothed: the psi^2-weighted integral via the hybrid
    decomposition.  ``full_output=True`` returns ``(value, err_estimate)``.
    """
    quad = quad if quad is not None else DEFAULT_QUAD
    points = (_as_point(a), _as_point(b))
    if smoothing is None:
        vals, errs = _spectral_raw(points, quad)
    else:
        vals, errs = _spectral_smoothed(points, smoothing, quad)
    value, err = float(vals[0, 1]), float(errs[0, 1])
    return (value, err) if full_output else value


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
    flat = int(np.argmax(diff))
    i, j = divmod(flat, diff.shape[1])
    pts = direct.points
    return CrossValidationReport(
        window=window,
        max_abs_diff=float(diff[i, j]),
        mean_abs_diff=float(diff.mean()),
        worst=(pts[i].index, pts[j].index),
        max_err_estimate=float(spectral.err_estimate.max()),
    )


@dataclass(frozen=True)
class KernelFormComparison:
    """Parseval integrand vs the two-phase display kernel.

    The display form sqrt(theta_a theta_b) (e^{it lam} - e^{it mu})
    |zeta/s|^2 keeps only the extreme phases of the expanded product
    (theta_a - theta_a^s)(theta_b - conj theta_b^s); the comparison
    quantifies what the dropped middle terms contribute on a finite
    integration range [0, t_max].
    """

    a: LadderIndex
    b: LadderIndex
    lam: float
    mu: float
    t_max: float
    value_parseval: float
    value_two_term: float
    lambda_part: float
    mu_part: float

    @property
    def difference(self) -> float:
        return self.value_parseval - self.value_two_term


def compare_kernel_forms(
    a,
    b,
    smoothing: SmoothingParams | None = None,
    quad: QuadratureConfig | None = None,
) -> KernelFormComparison:
    """Integrate the full Parseval integrand and the two-phase display
    kernel over the same finite range and report both.

    Both forms share the grid, the zeta power spectrum, and (optionally)
    the psi^2 weight, so the difference isolates the kernel shape itself,
    not the truncation.
    """
    from .mellin import psi

    quad = quad if quad is not None else DEFAULT_QUAD
    pa, pb = _as_point(a), _as_point(b)
    grid = _spectral_grid(quad.t_max_raw, _panel_width((pa, pb)))
    w = grid.w_quad.copy()
    if smoothing is not None:
        w *= psi(grid.nodes, smoothing) ** 2
    (vals,) = _pair_matrices((pa, pb), grid, (w,))
    full = float(vals[0, 1])

    lam = pa.log_theta - pb.log_theta
    mu = pa.log_theta + pb.log_theta
    amp = math.exp(0.5 * (pa.log_theta + pb.log_theta))  # sqrt(theta_a theta_b)
    c_lam, c_mu = _moments(grid, (w,), np.array([lam, mu]))[:, 0]
    lam_part = amp * float(c_lam)
    mu_part = -amp * float(c_mu)
    return KernelFormComparison(
        a=pa.index,
        b=pb.index,
        lam=lam,
        mu=mu,
        t_max=float(quad.t_max_raw),
        value_parseval=full,
        value_two_term=lam_part + mu_part,
        lambda_part=lam_part,
        mu_part=mu_part,
    )


def _pair_columns(g: GramMatrix) -> list[np.ndarray]:
    """Columns j, k, j2, k2 of the row-major pair layout: row i*n + m
    belongs to the pair (points[i], points[m])."""
    n = len(g.points)
    j = np.array([p.index.j for p in g.points])
    k = np.array([p.index.k for p in g.points])
    return [np.repeat(j, n), np.repeat(k, n), np.tile(j, n), np.tile(k, n)]


def gram_to_csv(g: GramMatrix) -> str:
    """Render all entries as CSV rows ``j,k,j2,k2,value,err_estimate``.

    The full square matrix is written (symmetry included) so downstream
    tools can reshape without knowing the triangle convention.
    """
    return csv_text(
        ("j", "k", "j2", "k2", "value", "err_estimate"),
        "ddddgg",
        _pair_columns(g) + [g.entries.ravel(), g.err_estimate.ravel()],
    )


def gram_to_json(g: GramMatrix) -> str:
    """Serialize a Gram matrix to JSON; exact float round trip."""
    payload = {
        "schema": "bnladder.gram/1",
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

    Any malformed document (bad JSON, a missing or misspelled field, a
    ragged or non-numeric array, an invalid kind, method or smoothing)
    raises :class:`ParameterError`.
    """
    try:
        payload = json.loads(text)
        if payload.get("schema") != "bnladder.gram/1":
            raise ParameterError("not a bnladder Gram serialization")
        window = IndexWindow(payload["window"]["j_max"], payload["window"]["k_max"])
        sm = payload["smoothing"]
        smoothing = None if sm is None else SmoothingParams(W=sm["W"], epsilon=sm["epsilon"])
        quad = QuadratureConfig(**payload["quad"])
        method = _validate_build(payload["kind"], payload["method"], smoothing)
        entries = np.array(payload["entries"], dtype=np.float64)
        err = np.array(payload["err_estimate"], dtype=np.float64)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed Gram serialization: {exc!r}") from exc
    n = window.size
    if entries.shape != (n, n) or err.shape != (n, n):
        raise ParameterError("entry arrays do not match the window size")
    if not (np.all(np.isfinite(entries)) and np.all(np.isfinite(err))):
        raise ParameterError("entry arrays must be finite")
    return GramMatrix(
        window=window,
        kind=payload["kind"],
        method=method,
        smoothing=smoothing,
        entries=entries,
        err_estimate=err,
        points=tuple(window.points()),
        quad=quad,
    )
