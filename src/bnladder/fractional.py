"""Fractional-part profiles and exact inner products.

The basic object is the one-parameter family on (0, 1]

    f_theta(x) = {theta/x} - theta * {1/x},        0 < theta <= 1,

with {.} the fractional part.  Substituting u = 1/x and writing the
fractional parts through floors gives

    f_theta(1/u) = theta * floor(u) - floor(theta * u),

so f_theta is a step function of u: it jumps only where u or theta*u
crosses an integer, and is constant in between.

For ladder parameters theta = 1/N with integer N the inner products
have a closed form (Vasyunin 1995; Baez-Duarte, Balazard, Landreau and
Saias 2005).  With F(a, b) = integral_0^inf {t/a}{t/b} dt/t^2,

    <f_(1/a), f_(1/b)> = I(a, b) - I(a, 1)/b - I(1, b)/a + I(1, 1)/(ab),
    I(a, b) = F(a, b) - 1/(ab),   F(a, b) = F(h, k)/d,
    F(h, k) = (log 2pi - gamma)/2 (1/h + 1/k) + (k - h)/(2hk) log(h/k)
              - pi/(2hk) (V(h, k) + V(k, h)),
    V(h, k) = sum_{m=1}^{k-1} {mh/k} cot(pi m/k),

where d = gcd(a, b), h = a/d, k = b/d.  That is the one route for unit
fractions: exact, with a roundoff estimate as its error budget, at
O(h + k) work per reduced pair (:func:`_unit_inner_matrix`).

Everything else is integrated exactly piece by piece above a small-x
cutoff x_min; the neglected mass obeys |tail| <= (1+theta_a)
(1+theta_b) x_min <= 4 x_min because |f_theta| <= 1 + theta.  For
theta = 1/N the pieces are the integer lattice, where the profile
equals (n mod N)/N on u in [n, n+1):

    <f_a, f_b> = sum_{n=1}^{U-1} f_a(n) f_b(n) / (n (n+1)) + fragment,

with U = floor(1/x_min) and a final fragment covering (x_min, 1/U].
That lattice pass (:func:`pair_inner_matrix`) is the closed form's
independent test reference, its fallback above the denominator cap, and
the route of the coarse epsilon^2 share of smoothed Gram matrices.

Every other cutoff integral walks the pieces of one sweep, :func:`_sweep`:
inner products of general theta sum f_a f_b (e_1 - e_0)/(e_0 e_1) over
its u-pieces [e_0, e_1), and :func:`bnladder.mellin.mellin_direct` sums
f (e_0^-s - e_1^-s)/s over them for every theta.

Pointwise evaluation divides by x, so for x below roughly 1e-12 the
floats in theta/x stop resolving the steps; the integrators never
evaluate pointwise near 0 (they work in u = 1/x instead), but plots
and spot checks should stay on moderate grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, ParameterError

__all__ = [
    "QuadratureConfig",
    "InnerProductResult",
    "eval_f",
    "breakpoints",
    "l2_norm",
    "inner_direct",
    "pair_inner_matrix",
]

# Denominators beyond this are treated as exact-zero rows: the profile's
# sup is below 2^-62 * U, which is invisible at any supported tolerance.
_HUGE_DENOM = 2**62

# Largest denominator the closed form takes; windows reaching above it
# use the lattice pass.  Set where the O(N) cotangent sums of a window
# cost about as much as its lattice pass at the default cutoff (2-core
# x86 VM, numpy 2.4: 11x11 window, N <= 3.6e8, 3.8 s against 6.6 s;
# 12x12, N <= 2.2e9, 14.7 s against 8.7 s).  It must stay below 3e9 so
# that m * (h mod k) < k^2 / 2 fits in int64.
_CLOSED_FORM_CAP = 2**30

_LOG_2PI_MINUS_GAMMA = math.log(2.0 * math.pi) - float(np.euler_gamma)
_COT_CHUNK = 1 << 16
_U = 0.5 * float(np.finfo(np.float64).eps)  # unit roundoff
_SUM_GROWTH = 16.0 + math.log2(_COT_CHUNK)  # numpy pairwise-sum error factor


@dataclass(frozen=True)
class QuadratureConfig:
    """Accuracy budget shared by the direct and spectral integrators.

    abs_tol            target absolute error for cutoff-based inner
                       products (theta not a unit fraction, the
                       epsilon^2 share of smoothed Gram matrices, and the
                       lattice fallback above the closed form's cap);
                       drives the small-x cutoff when x_min is unset.
    rel_tol            only recorded in ``quad`` (and in JSON output);
                       no computation reads it.
    x_min              explicit small-x cutoff for those same integrals;
                       default abs_tol / 8 so the cutoff tail
                       (<= 4 x_min) spends at most half the absolute
                       budget.  Unit-fraction pairs have no cutoff.
    max_subdivisions   cap on the number of exact pieces an integrator may
                       walk; guards against accidentally tiny cutoffs.
    t_max_raw          truncation height for raw spectral integrals.
    gaussian_tail_tol  absolute tail target when truncating Gaussian-
                       smoothed spectral integrals.
    """

    abs_tol: float = 1.0e-6
    rel_tol: float = 1.0e-8
    x_min: float | None = None
    max_subdivisions: int = 100_000_000
    t_max_raw: float = 1000.0
    gaussian_tail_tol: float = 1.0e-10

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise ParameterError(f"abs_tol must be positive, got {self.abs_tol!r}")
        if not (self.rel_tol > 0.0 and math.isfinite(self.rel_tol)):
            raise ParameterError(f"rel_tol must be positive, got {self.rel_tol!r}")
        if self.x_min is not None and not (0.0 < self.x_min < 1.0):
            raise ParameterError(f"x_min must lie in (0, 1), got {self.x_min!r}")
        if self.max_subdivisions < 1:
            raise ParameterError("max_subdivisions must be at least 1")
        if not (self.t_max_raw > 0.0 and math.isfinite(self.t_max_raw)):
            raise ParameterError(f"t_max_raw must be positive, got {self.t_max_raw!r}")
        if not (0.0 < self.gaussian_tail_tol < 1.0):
            raise ParameterError(
                f"gaussian_tail_tol must lie in (0, 1), got {self.gaussian_tail_tol!r}"
            )

    def resolved_x_min(self) -> float:
        return self.x_min if self.x_min is not None else self.abs_tol / 8.0


DEFAULT_QUAD = QuadratureConfig()


@dataclass(frozen=True)
class InnerProductResult:
    """Inner product value plus its error budget.

    ``tail_bound`` is the cutoff tail of a piecewise integral, or the
    roundoff estimate of the unit-fraction closed form; ``pieces`` counts
    the integration pieces, or the cotangent terms of the closed form.
    """

    value: float
    tail_bound: float
    pieces: int


def _check_theta(theta: float, name: str = "theta") -> float:
    theta = float(theta)
    if not (0.0 < theta <= 1.0) or not math.isfinite(theta):
        raise ParameterError(f"{name} must lie in (0, 1], got {theta!r}")
    return theta


def eval_f(theta: float, x):
    """Evaluate f_theta at x in (0, 1]; x may be a scalar or an array."""
    theta = _check_theta(theta)
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr <= 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
        raise ParameterError("x must lie in (0, 1]")
    u = 1.0 / arr
    out = theta * np.floor(u) - np.floor(theta * u)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def breakpoints(theta: float, x_min: float, max_count: int | None = None) -> np.ndarray:
    """Jump locations of f_theta in (x_min, 1], sorted ascending.

    These are the points 1/n and theta/m that exceed x_min.  Coincident
    values (theta rational) are reported once.

    >>> breakpoints(0.5, 0.2)
    array([0.25      , 0.33333333, 0.5       , 1.        ])
    """
    theta = _check_theta(theta)
    if not (0.0 < x_min < 1.0):
        raise ParameterError(f"x_min must lie in (0, 1), got {x_min!r}")
    est = (1.0 + theta) / x_min
    cap = max_count if max_count is not None else DEFAULT_QUAD.max_subdivisions
    if est > cap:
        raise ConvergenceError(
            f"breakpoint count ~{est:.3g} exceeds the cap {cap:g}; raise x_min"
        )
    n_max = int(math.floor(1.0 / x_min))
    pts = [1.0 / np.arange(1, n_max + 1, dtype=np.float64)]
    m_max = int(math.floor(theta / x_min))
    if m_max >= 1:
        pts.append(theta / np.arange(1, m_max + 1, dtype=np.float64))
    vals = np.unique(np.concatenate(pts))
    return vals[vals > x_min]


def _unit_denominator(theta: float) -> int | None:
    """Integer N with theta == 1/N (to float accuracy), if one exists."""
    n = round(1.0 / theta)
    if n >= 1 and abs(theta * n - 1.0) <= 8.0 * np.finfo(float).eps * n:
        return n
    return None


def _check_denominators(denominators: Sequence[int]) -> list[int]:
    dens = [int(n) for n in denominators]
    for n in dens:
        if n < 1:
            raise ParameterError(f"denominators must be positive integers, got {n!r}")
    return dens


def _cot_sum(h: int, k: int) -> tuple[float, float, int]:
    """V(h, k) = sum_{m=1}^{k-1} {mh/k} cot(pi m/k) for coprime h, k >= 1.

    Returns ``(value, err, terms)``.  Pairing m with k - m folds the sum
    to sum_{m < k/2} (2{mh/k} - 1) cot(pi m/k): half the terms, and every
    cot argument stays in (0, pi/2), away from the pole at pi where the
    rounded argument would lose relative accuracy.  {mh/k} is taken
    exactly in integers; m (h mod k) < k^2/2 fits in int64 for every k
    up to the closed-form cap.  Chunks of fixed size keep memory flat in
    k, and fsum adds the chunk sums without further rounding.

    ``err`` is a first-order roundoff estimate in the standard model with
    a tan accurate to 1 ulp (numpy does not promise that, so this is an
    estimate, not a proof): each term is off by <= 7u |term| + 5u, and
    numpy's pairwise summation adds <= (16 + log2 chunk) u sum |term|.
    """
    n = (k - 1) // 2
    hr = h % k
    step = math.pi / k
    sums, abs_sum = [], 0.0
    for lo in range(1, n + 1, _COT_CHUNK):
        m = np.arange(lo, min(lo + _COT_CHUNK, n + 1), dtype=np.int64)
        terms = ((2 * (m * hr % k) - k) / k) / np.tan(m * step)
        sums.append(float(terms.sum()))
        abs_sum += float(np.abs(terms).sum())
    value = math.fsum(sums)
    err = _U * ((_SUM_GROWTH + 7.0) * abs_sum + 5.0 * n + abs(value))
    return value, err, n


def _vasyunin_f(h: int, k: int) -> tuple[float, float, int]:
    """F(h, k) for coprime h, k by Vasyunin's formula (module docstring).

    Returns ``(value, err, terms)`` with the roundoff estimate of
    :func:`_cot_sum` carried through the three terms.
    """
    v1, e1, n1 = _cot_sum(h, k)
    v2, e2, n2 = _cot_sum(k, h)
    scale = math.pi / (2.0 * h * k)
    t_const = 0.5 * _LOG_2PI_MINUS_GAMMA * (1.0 / h + 1.0 / k)
    slope = (k - h) / (2.0 * h * k)
    t_log = slope * math.log(h / k)
    t_cot = scale * (v1 + v2)
    value = t_const + t_log - t_cot
    err = scale * (e1 + e2) + 8.0 * _U * (
        abs(t_const) + abs(t_log) + abs(t_cot) + abs(slope)
    )
    return value, err, n1 + n2


def _unit_inner_matrix(
    denominators: Sequence[int], quad: QuadratureConfig
) -> tuple[np.ndarray, np.ndarray, int]:
    """All pairwise <f_(1/Na), f_(1/Nb)>: the one exact route for unit fractions.

    Returns ``(gram, err, pieces)``.  Each entry combines four values of
    I(a, b) = F(a, b) - 1/(ab) as in the module docstring; F is computed
    once per distinct reduced pair (a/d, b/d), of which a ladder window
    of side s has only (2s+1)^2.  There is no cutoff: ``err`` is the
    propagated roundoff estimate and ``pieces`` the number of cotangent
    terms summed.  Rows with N = 1 are exactly zero.

    Windows with a denominator above ``_CLOSED_FORM_CAP`` fall back to
    the lattice pass of :func:`pair_inner_matrix` at ``quad``'s cutoff;
    ``err`` is then its tail bound and ``pieces`` its piece count.
    """
    dens = _check_denominators(denominators)
    if max(dens, default=1) > _CLOSED_FORM_CAP:
        x_min = quad.resolved_x_min()
        gram, tail = pair_inner_matrix(dens, x_min, quad.max_subdivisions)
        return gram, tail, int(math.floor(1.0 / x_min))
    n = len(dens)
    # Append N = 1 so row/column n carries I(a, 1) and the corner I(1, 1).
    a = np.array(dens + [1], dtype=np.int64)
    d = np.gcd.outer(a, a)
    h, k = a[:, None] // d, a[None, :] // d
    pairs = np.stack([np.minimum(h, k).ravel(), np.maximum(h, k).ravel()], axis=1)
    keys, where = np.unique(pairs, axis=0, return_inverse=True)
    reduced = [_vasyunin_f(int(p), int(q)) for p, q in keys]
    f_val, f_err, terms = (np.array(col) for col in zip(*reduced))
    where = where.reshape(d.shape)
    f_val, f_err = f_val[where], f_err[where]
    af = a.astype(np.float64)
    inv_ab = 1.0 / np.outer(af, af)
    df = d.astype(np.float64)
    big_i = f_val / df - inv_ab
    big_i_err = f_err / df + 2.0 * _U * (np.abs(f_val) / df + inv_ab)

    # Every piece is symmetric elementwise (x + y == y + x in floats), so
    # the matrix is exactly symmetric without averaging it with its transpose.
    inv_n = 1.0 / af[:n]
    cross = np.outer(big_i[:n, n], inv_n)
    corner = big_i[n, n] * inv_ab[:n, :n]
    gram = big_i[:n, :n] + corner - (cross + cross.T)
    cross_err = np.outer(big_i_err[:n, n], inv_n) + 4.0 * _U * np.abs(cross)
    err = (
        big_i_err[:n, :n]
        + big_i_err[n, n] * inv_ab[:n, :n]
        + (cross_err + cross_err.T)
        + 4.0 * _U * (np.abs(big_i[:n, :n]) + np.abs(corner))
    )
    unit = a[:n] == 1
    gram[unit, :] = gram[:, unit] = 0.0
    err[unit, :] = err[:, unit] = 0.0
    return gram, err, int(terms.sum())


def pair_inner_matrix(
    denominators: Sequence[int], x_min: float, max_pieces: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """All pairwise inner products <f_(1/Na), f_(1/Nb)> in one lattice pass.

    Returns ``(gram, tail)`` where ``tail[a, b]`` bounds the mass dropped
    below the cutoff.  One pass over u = 1..floor(1/x_min) evaluates every
    profile as (u mod N)/N and accumulates the rank-one updates with a
    matrix product per chunk.  It is independent of the closed form in
    :func:`_unit_inner_matrix` and serves three uses: the epsilon^2 share
    of smoothed Gram matrices (whose coarse cutoff keeps it cheap at any
    window size), raw windows above the closed form's denominator cap,
    and the reference the closed form is tested against.

    Denominators above 2^62 produce exact-zero rows (their profiles are
    numerically indistinguishable from zero at any supported cutoff).
    """
    if not (0.0 < x_min < 1.0):
        raise ParameterError(f"x_min must lie in (0, 1), got {x_min!r}")
    cap = max_pieces if max_pieces is not None else DEFAULT_QUAD.max_subdivisions
    big_u = int(math.floor(1.0 / x_min))
    if big_u > cap:
        raise ConvergenceError(
            f"lattice pass needs {big_u} pieces, above the cap {cap}; raise x_min"
        )
    d = len(denominators)
    _check_denominators(denominators)
    usable = np.array([min(int(n), _HUGE_DENOM) for n in denominators], dtype=np.int64)
    zero_row = np.array([int(n) > _HUGE_DENOM for n in denominators])
    nf = usable.astype(np.float64)

    gram = np.zeros((d, d))
    chunk = 1 << 16
    for lo in range(1, big_u, chunk):
        hi = min(lo + chunk, big_u)
        u = np.arange(lo, hi, dtype=np.int64)
        vals = (u[None, :] % usable[:, None]).astype(np.float64) / nf[:, None]
        vals[zero_row, :] = 0.0
        uf = u.astype(np.float64)
        lengths = 1.0 / (uf * (uf + 1.0))
        gram += (vals * lengths) @ vals.T
    # Fragment (x_min, 1/U]: constant piece cut short by the cutoff.
    frag_len = 1.0 / big_u - x_min
    if frag_len > 0.0:
        fv = (np.int64(big_u) % usable).astype(np.float64) / nf
        fv[zero_row] = 0.0
        gram += np.outer(fv, fv) * frag_len
    gram = 0.5 * (gram + gram.T)
    theta = 1.0 / nf
    theta[zero_row] = 0.0
    tail = x_min * np.outer(1.0 + theta, 1.0 + theta)
    return gram, tail


def _sweep(thetas: Sequence[float], x_min: float):
    """Common pieces of the f_theta on u = 1/x in [1, 1/x_min].

    Yields ``(e, f)`` per 65,536-wide span of u: the sorted edges ``e``,
    where u or some theta*u crosses an integer, and ``f[i, j]``, the value
    of f_(thetas[i]) on the piece [e_j, e_(j+1)), taken at its midpoint.
    """
    th = np.array(thetas, dtype=np.float64)[:, None]
    big_u = 1.0 / x_min
    span = 65536.0
    lo = 1.0
    while lo < big_u:
        hi = min(lo + span, big_u)
        edges = [np.array([lo, hi]), np.arange(math.ceil(lo), hi, dtype=np.float64)]
        for theta in thetas:
            m0 = math.ceil(theta * lo)
            m1 = math.ceil(theta * hi)
            if m1 > m0:
                edges.append(np.arange(m0, m1, dtype=np.float64) / theta)
        e = np.unique(np.concatenate(edges))
        e = e[(e >= lo) & (e <= hi)]
        um = 0.5 * (e[:-1] + e[1:])
        yield e, th * np.floor(um) - np.floor(th * um)
        lo = hi


def _pair_inner_general(
    theta_a: float, theta_b: float, x_min: float, cap: int
) -> tuple[float, int]:
    """Step-function sweep for parameters that are not unit fractions."""
    est = (1.0 + theta_a + theta_b) * (1.0 / x_min)
    if est > cap:
        raise ConvergenceError(
            f"sweep needs ~{est:.3g} pieces, above the cap {cap}; raise x_min"
        )
    total = 0.0
    pieces = 0
    for e, f in _sweep((theta_a, theta_b), x_min):
        lengths = (e[1:] - e[:-1]) / (e[:-1] * e[1:])  # x-length of each u-piece
        total += float(np.dot(f[0] * f[1], lengths))
        pieces += e.size - 1
    return total, pieces


def inner_direct(
    theta_a: float,
    theta_b: float,
    quad: QuadratureConfig | None = None,
    full_output: bool = False,
):
    """L2(0, 1] inner product <f_{theta_a}, f_{theta_b}>.

    Unit fractions theta = 1/N go through the closed form of
    :func:`_unit_inner_matrix`: no cutoff, and ``tail_bound`` is its
    roundoff estimate (above the denominator cap the lattice fallback
    and its cutoff tail apply).  Other parameters are integrated piece by
    piece above the cutoff x_min resolved from ``quad``; the value omits
    at most (1+theta_a)(1+theta_b) x_min of tail mass, which is then
    ``tail_bound``.  With ``full_output=True`` an
    :class:`InnerProductResult` carrying that budget and the piece count
    (cotangent terms for the closed form) is returned instead of a bare
    float.
    """
    theta_a = _check_theta(theta_a, "theta_a")
    theta_b = _check_theta(theta_b, "theta_b")
    quad = quad if quad is not None else DEFAULT_QUAD
    if theta_a == 1.0 or theta_b == 1.0:
        # f_1 is identically zero: {1/x} - {1/x}.
        res = InnerProductResult(value=0.0, tail_bound=0.0, pieces=0)
        return res if full_output else 0.0
    na = _unit_denominator(theta_a)
    nb = _unit_denominator(theta_b)
    if na is not None and nb is not None:
        gram, err, pieces = _unit_inner_matrix([na, nb], quad)
        res = InnerProductResult(
            value=float(gram[0, 1]), tail_bound=float(err[0, 1]), pieces=pieces
        )
    else:
        x_min = quad.resolved_x_min()
        value, pieces = _pair_inner_general(
            theta_a, theta_b, x_min, quad.max_subdivisions
        )
        res = InnerProductResult(
            value=value,
            tail_bound=(1.0 + theta_a) * (1.0 + theta_b) * x_min,
            pieces=pieces,
        )
    return res if full_output else res.value


def l2_norm(theta: float, quad: QuadratureConfig | None = None) -> float:
    """L2 norm of f_theta on (0, 1] (nonnegative square root)."""
    return math.sqrt(inner_direct(theta, theta, quad))
