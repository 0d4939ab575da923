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
Saias 2005).  With F(a, b) = integral_0^inf {t/a}{t/b} dt/t^2 = F(h, k)/d,
d = gcd(a, b), h = a/d and k = b/d,

    F(h, k) = (log 2pi - gamma)/2 (1/h + 1/k) + (k - h)/(2hk) log(h/k)
              - pi/(2hk) (V(h, k) + V(k, h)),
    V(h, k) = sum_{m=1}^{k-1} {mh/k} cot(pi m/k).

K_ab = sqrt(hk) F(h, k) depends only on a/b, and with 0 the origin N = 1,

    <f_a, f_b> = sqrt(theta_a theta_b) K_ab - theta_b sqrt(theta_a) K_a0
                 - theta_a sqrt(theta_b) K_b0 + theta_a theta_b K_00,

which :func:`_unit_gram` forms from a table of K with one slot per
reduced pair; :mod:`.gram` keys it by ladder displacement, one-to-one
with the reduced pair, and its spectral route fills the same table with
cosine moments of |zeta/s|^2.  That is the one route for unit fractions:
exact, with a roundoff estimate as its error budget.  A slot costs
O(h + k), except F(1, k), the same-sign pairs of a ladder window and
every pair with the origin, whose slots reach the largest k: for k >= k0
= 64 (``_SERIES_K0``) it is O(1) by the Euler-Maclaurin series of
:func:`_f_one`,

    F(1, k) = (log 2pi k - gamma + 1)/(2k) + sum_{j>=1} d_j k^(-2j),
    d_j = sgn(B_2j) (2pi)^(2j) B_2j^2 / (4j (2j)!),   d_1 = pi^2/72,

which also avoids the cancellation of terms of size log k that leaves
the cotangent route relative errors up to 5e-11 at k = 6^8.  Its
truncation error is a proven bound; its roundoff, like the cotangent
route's, an estimate.

Everything else is integrated exactly piece by piece above a small-x
cutoff x_min; the neglected mass obeys |tail| <= (1+theta_a)
(1+theta_b) x_min <= 4 x_min because |f_theta| <= 1 + theta.  Every
cutoff integral walks the pieces of one sweep, :func:`_sweep`, whose
u-pieces [e_0, e_1) are where no u or theta*u crosses an integer.  Inner
products sum f_a f_b (e_1 - e_0)/(e_0 e_1) over them for all pairs at
once (:func:`_sweep_gram`), and :func:`bnladder.mellin.mellin_direct`
sums f (e_0^-s - e_1^-s)/s over them for every theta.  The sweep alone
lists the jumps (:func:`breakpoints`) and caps the pieces walked.

For theta = 1/N that integral (:func:`pair_inner_matrix`) is the closed
form's independent test reference and its fallback above the cap 2^30,
also in the epsilon^2 share of smoothed Gram matrices.  The sweep's
oracle is the integer lattice: f is (n mod N)/N on [n, n+1).

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

from .errors import ConvergenceError, ParameterError, _integer, _real

__all__ = [
    "QuadratureConfig",
    "DEFAULT_QUAD",
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
# use the cutoff pass of pair_inner_matrix.  Set where the O(N) cotangent
# sums of a window cost about as much as that pass, then an integer
# lattice, at the default cutoff (2-core x86 VM, numpy 2.4: 11x11 window,
# N <= 3.6e8, 3.8 s against 6.6 s; 12x12, N <= 2.2e9, 14.7 s against
# 8.7 s).  Those sums were F(1, N)'s, now an O(1) series, so the closed
# form of 12x12 would take 0.17 s.  The cap must stay below 3e9 so that
# m * (h mod k) < k^2 / 2 fits in int64.
_CLOSED_FORM_CAP = 2**30

# Most pieces one cutoff sweep may walk: a guard against tiny cutoffs.
_MAX_PIECES = 100_000_000

# Smallest k whose F(1, k) takes the series of _f_one.  There its proven
# truncation bound is 3.8e-32, against F(1, 64) = 0.05, and below it the
# folded cotangent sum has at most 31 terms, so the series saves nothing.
_SERIES_K0 = 64

# Bernoulli numbers B_2, B_4, ..., B_18: the series keeps 8 terms, and the
# ninth coefficient sets its truncation bound.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798)
_SERIES_COEFFS = tuple(
    b * abs(b) * (2.0 * math.pi) ** (2 * j) / (4 * j * math.factorial(2 * j))
    for j, b in enumerate(_BERNOULLI, start=1)
)

_LOG_2PI_MINUS_GAMMA = math.log(2.0 * math.pi) - float(np.euler_gamma)
_COT_CHUNK = 1 << 16
_U = 0.5 * float(np.finfo(np.float64).eps)  # unit roundoff
_SUM_GROWTH = 16.0 + math.log2(_COT_CHUNK)  # numpy pairwise-sum error factor
# Absolute error target of cutoff integrals whose x_min is unset.
_ABS_TOL = 1.0e-6


def _check_x_min(x_min: float) -> float:
    x_min = _real(x_min, "x_min")
    if not (0.0 < x_min < 1.0):
        raise ParameterError(f"x_min must lie in (0, 1), got {x_min!r}")
    return x_min


@dataclass(frozen=True)
class QuadratureConfig:
    """Accuracy budget shared by the direct and spectral integrators.

    x_min       small-x cutoff of cutoff-based inner products (theta not
                a unit fraction, and the fallback above the closed form's
                cap, coarsened for the epsilon^2 share of smoothed Gram
                matrices); default _ABS_TOL / 8 = 1.25e-7, so the cutoff tail
                (<= 4 x_min) spends at most half the absolute target
                _ABS_TOL = 1e-6.  Unit-fraction pairs have no cutoff.
    t_max_raw   truncation height for raw spectral integrals, at least
                10, where their tail estimate starts to hold.
    """

    x_min: float | None = None
    t_max_raw: float = 1000.0

    def __post_init__(self) -> None:
        # plain values, so every config that passes here also serializes
        t_max_raw = _real(self.t_max_raw, "t_max_raw")
        if not (t_max_raw > 0.0 and math.isfinite(t_max_raw)):
            raise ParameterError(f"t_max_raw must be finite and positive, got {t_max_raw!r}")
        object.__setattr__(self, "t_max_raw", t_max_raw)
        if self.x_min is not None:
            object.__setattr__(self, "x_min", _check_x_min(self.x_min))

    def resolved_x_min(self) -> float:
        return self.x_min if self.x_min is not None else _ABS_TOL / 8.0


DEFAULT_QUAD = QuadratureConfig()


@dataclass(frozen=True)
class InnerProductResult:
    """Inner product value plus its error budget.

    ``err_estimate`` is the cutoff tail of a piecewise integral, the
    roundoff estimate of the unit-fraction closed form, or the quadrature
    and truncation estimate of a spectral entry.
    """

    value: float
    err_estimate: float


def _check_theta(theta: float, name: str = "theta") -> float:
    theta = _real(theta, name)
    if not (0.0 < theta <= 1.0):
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


def breakpoints(theta: float, x_min: float) -> np.ndarray:
    """Jump locations of f_theta in (x_min, 1], sorted ascending.

    These are the points 1/n and theta/m that exceed x_min, read off the
    edges of :func:`_sweep` as 1/u, so coincident values (theta rational)
    are reported once.  A sweep of more than ``_MAX_PIECES`` pieces raises
    :class:`ConvergenceError`.

    >>> breakpoints(0.5, 0.2)
    array([0.25      , 0.33333333, 0.5       , 1.        ])
    """
    theta = _check_theta(theta)
    x_min = _check_x_min(x_min)
    spans = _sweep((theta,), x_min, "breakpoint list")
    # every span's last edge is the next span's first, or the cutoff
    u = np.concatenate([e[:-1] for e, _ in spans])
    x = 1.0 / u[::-1]
    return x[x > x_min]


def _unit_denominator(theta: float) -> int | None:
    """Integer N with theta == 1/N (to float accuracy), if exactly one fits."""
    # theta * N rounds twice whatever N is; 1/(N + d) misses 1 by d/N, so
    # the 8 eps test names one N only below 1/(16 eps) = 2^48
    u, eps = 1.0 / theta, np.finfo(float).eps
    n = round(u) if 16.0 * eps * u < 1.0 else 0
    return n if n >= 1 and abs(theta * n - 1.0) <= 8.0 * eps else None


def _cot_sum(h: int, k: int) -> tuple[float, float]:
    """V(h, k) = sum_{m=1}^{k-1} {mh/k} cot(pi m/k) for coprime h, k >= 1.

    Returns ``(value, err)``.  Pairing m with k - m folds the sum
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

    The closed form calls it only for V(1, k) with k < ``_SERIES_K0`` = 64
    and for pairs with h, k > 1, at most 3^11 on a ladder window under the
    cap: F(1, k) for larger k takes the O(1) series of :func:`_f_one`,
    which needs no cotangent and has a proven truncation bound.
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
    return value, err


def _f_one(k: int) -> tuple[float, float]:
    """F(1, k) for k >= 1 by its Euler-Maclaurin series (module docstring).

    Returns ``(value, err)``.  With g(x) = (x - 1/2) cot(pi x), V(1, k) is
    the sum of g(m/k) over 0 < m < k (the cot(pi m/k)/2 cancel in pairs).
    g = phi + P with the poles P(x) = -(1/x + 1/(1 - x))/(2 pi) split off:
    the sum of P(m/k) is -(k/pi) H_(k-1), expanded by digamma's series
    H_(k-1) = log k + gamma - 1/(2k) - sum_j B_2j/(2j k^2j), and phi is
    analytic on [0, 1] with phi(1 - x) = phi(x), so Euler-Maclaurin over
    the nodes m/k gives the rest.  The two expansions combine to the d_j.

    ``err`` is a proven truncation bound plus a roundoff estimate.  The
    partial fractions of cot make every even derivative of phi negative on
    [0, 1], and those of 1/t are positive, so by the integral form of the
    Euler-Maclaurin remainder (DLMF 2.10.1) each expansion cut after 8
    terms is off by at most twice its first omitted term; the two omitted
    terms add up to at most 2 |d_9| k^-18, so the truncation error is at
    most 4 |d_9| k^-18 (6.8e-16 at k = 8, 3.8e-32 at k = 64).  The
    roundoff estimate is 8u of the absolute terms, as in
    :func:`_vasyunin_f`: log(2 pi k) - gamma + 1 adds positive terms, and
    the d_j sum is below 1e-3 of the leading term from k = 64 on.
    """
    x = 1.0 / (float(k) * k)
    tail = 0.0
    for d in reversed(_SERIES_COEFFS[:-1]):  # Horner in 1/k^2
        tail = (tail + d) * x
    lead = (math.log(k) + _LOG_2PI_MINUS_GAMMA + 1.0) / (2.0 * k)
    truncation = 4.0 * abs(_SERIES_COEFFS[-1]) * x**9
    return lead + tail, truncation + 8.0 * _U * (lead + abs(tail))


def _vasyunin_f(h: int, k: int) -> tuple[float, float]:
    """F(h, k) for coprime h <= k by Vasyunin's formula (module docstring).

    Returns ``(value, err)``.  For h = 1 and k >= ``_SERIES_K0`` = 64 it
    is the series of :func:`_f_one`, in O(1) instead of O(k) and without
    the cancellation of the log k terms; its budget is a proven truncation
    bound plus a roundoff estimate.  Below k0 the cotangent sum has at
    most 31 terms, so the series would save nothing, and pairs with h > 1
    (the mixed-sign slots of a ladder window) have no such series: there
    ``err`` is the roundoff estimate of :func:`_cot_sum` carried through
    the three terms.
    """
    if h == 1 and k >= _SERIES_K0:
        return _f_one(k)
    v1, e1 = _cot_sum(h, k)
    v2, e2 = _cot_sum(k, h)
    scale = math.pi / (2.0 * h * k)
    t_const = 0.5 * _LOG_2PI_MINUS_GAMMA * (1.0 / h + 1.0 / k)
    slope = (k - h) / (2.0 * h * k)
    t_log = slope * math.log(h / k)
    t_cot = scale * (v1 + v2)
    value = t_const + t_log - t_cot
    err = scale * (e1 + e2) + 8.0 * _U * (
        abs(t_const) + abs(t_log) + abs(t_cot) + abs(slope)
    )
    return value, err


def _assemble(theta: np.ndarray, sqrt_theta: np.ndarray, table: np.ndarray) -> np.ndarray:
    """<f_a, f_b> for all pairs from a symmetric K table, the origin last.

    The four terms are (A + D) - (B + B^T), B_ab = theta_a sqrt(theta_b)
    K_b0.  Each piece is symmetric elementwise, so the result is exactly
    symmetric.  On a theta = 1 row the table repeats the origin's row, so
    A = B^T and D = B bit for bit and the row is exactly 0.
    """
    n = theta.size
    a = np.outer(theta, theta) * table[n, n]
    d = np.outer(sqrt_theta, sqrt_theta) * table[:n, :n]
    b = np.outer(theta, sqrt_theta * table[:n, n])
    return (a + d) - (b + b.T)


def _unit_gram(theta: np.ndarray, h: np.ndarray, k: np.ndarray, where: np.ndarray):
    """``(gram, err)``: all <f_(1/Na), f_(1/Nb)>, theta = 1/N, from K =
    sqrt(hk) F(h, k) per slot i, the reduced pair (h[i], k[i]), and the
    slot ``where[a, b]`` of each pair, the origin N = 1 last.  No cutoff:
    ``err`` carries :func:`_vasyunin_f`'s budgets.  N = 1 rows are 0."""
    lo, hi = np.minimum(h, k), np.maximum(h, k)
    f_val, f_err = np.array([_vasyunin_f(int(p), int(q)) for p, q in zip(lo, hi)]).T
    scale = np.sqrt(lo * hi.astype(np.float64))  # sqrt(hk)
    k_val = scale * f_val
    # Per assembled term: sqrt(hk) rounds by 2.5u, the theta products by
    # 5u, and _assemble's additions by 2u of the terms' absolute sum.
    k_err = scale * f_err + 10.0 * _U * np.abs(k_val)
    sqrt_theta = np.sqrt(theta)
    gram = _assemble(theta, sqrt_theta, k_val[where])
    # Negating sqrt(theta) flips B and B^T: all four budgets add up.
    err = _assemble(theta, -sqrt_theta, k_err[where])
    err[theta == 1.0, :] = err[:, theta == 1.0] = 0.0
    return gram, err


def pair_inner_matrix(denominators: Sequence[int], x_min: float) -> tuple[np.ndarray, np.ndarray]:
    """All pairwise inner products <f_(1/Na), f_(1/Nb)> in one cutoff pass.

    Returns ``(gram, tail)`` where ``tail[a, b]`` bounds the mass dropped
    below the cutoff, exactly 0 on the rows with N = 1, where f_1 = 0.  The
    step-function sweep of :func:`_sweep_gram` at theta = 1/N integrates
    every pair at once.  It is independent of the closed form of
    :func:`_unit_gram` and serves two uses: denominators above the closed
    form's cap, raw ones and the epsilon^2 share of smoothed Gram builds
    (whose coarse cutoff keeps it cheap at any window size), and the
    reference the closed form is tested against.
    Its pieces, at most ``_MAX_PIECES``, are the cells of the integer
    lattice, where the profiles equal (u mod N)/N: this function's oracle.

    Denominators above 2^62 produce exact-zero rows (their profiles are
    numerically indistinguishable from zero at any supported cutoff).
    """
    x_min = _check_x_min(x_min)
    dens = [_integer(n, "denominator", minimum=1) for n in denominators]
    theta = [1.0 / n if n <= _HUGE_DENOM else 0.0 for n in dens]
    return _sweep_gram(theta, x_min, "lattice pass")


def _sweep(thetas: Sequence[float], x_min: float, what: str):
    """Common pieces of the f_theta on u = 1/x in [1, 1/x_min].

    Yields ``(e, f)`` per 65,536-wide span of u: the sorted edges ``e``,
    where u or some theta*u crosses an integer, and ``f[i, j]``, the value
    of f_(thetas[i]) on the piece [e_j, e_(j+1)), taken at its midpoint.
    Spans share their boundary edges; the last ends at u = 1/x_min.
    Before building any piece it bounds them by floor(1/x_min) integer
    cells plus ceil(theta/x_min) per theta not 1/N; a bound above
    ``_MAX_PIECES`` raises :class:`ConvergenceError` naming the caller's
    ``what``.
    """
    th = np.array(thetas, dtype=np.float64)[:, None]
    # theta = 1/N crosses only the integers m N, edges already (m / theta
    # would land many an ulp off and leave slivers); a rounded p/q crosses
    # the integers within 2 ulps, and those edges are snapped.
    units = [_unit_denominator(theta) if theta > 0.0 else None for theta in thetas]
    big_u = 1.0 / x_min
    extra = (math.ceil(theta / x_min) for theta, n in zip(thetas, units) if n is None)
    # 1/x_min overflows below x_min = 5.6e-309, where it has no floor
    bound = math.inf if big_u == math.inf else math.floor(big_u) + sum(extra)
    if bound > _MAX_PIECES:
        # the bound can exceed the float range, so Decimal rounds it
        from decimal import Decimal

        raise ConvergenceError(
            f"{what} needs ~{Decimal(bound):.2e} pieces, above the cap {_MAX_PIECES}; "
            "raise x_min"
        )
    span = 65536.0
    lo = 1.0
    while lo < big_u:
        hi = min(lo + span, big_u)
        edges = [np.array([lo, hi]), np.arange(math.ceil(lo), hi, dtype=np.float64)]
        for theta, n in zip(thetas, units):
            m0 = math.ceil(theta * lo)
            m1 = math.ceil(theta * hi)
            if n is None and m1 > m0:
                u = np.arange(m0, m1, dtype=np.float64) / theta
                near = np.rint(u)
                edges.append(np.where(np.abs(u - near) <= 2.0 * np.spacing(near), near, u))
        # sorted, each value once: the edges are finite, so == dedupes them
        # (np.unique without flags would import numpy.ma to test for a mask)
        e = np.sort(np.concatenate(edges))
        e = e[(e >= lo) & (e <= hi) & np.concatenate(([True], e[1:] != e[:-1]))]
        um = 0.5 * (e[:-1] + e[1:])
        yield e, th * np.floor(um) - np.floor(th * um)
        lo = hi


def _sweep_gram(thetas: Sequence[float], x_min: float, what: str):
    """All pairwise integrals of the f_theta over (x_min, 1], exactly.

    Returns ``(gram, tail)``.  Each u-piece [e_0, e_1) of
    :func:`_sweep` adds f f^T (e_1 - e_0)/(e_0 e_1), one matrix product
    per span, and the sum is symmetrized once at the end.  theta = 0
    gives an exact-zero row.  ``tail`` = x_min (1+theta_a)(1+theta_b)
    bounds the mass below the cutoff, 0 on theta = 1 rows (f_1 = 0).
    This is the one integrator behind every cutoff inner product.
    """
    theta = np.array(thetas, dtype=np.float64)
    gram = np.zeros((theta.size, theta.size))
    for e, f in _sweep(thetas, x_min, what):
        lengths = (e[1:] - e[:-1]) / (e[:-1] * e[1:])  # x-length of each u-piece
        gram += (f * lengths) @ f.T
    tail = x_min * np.outer(1.0 + theta, 1.0 + theta)
    unit = theta == 1.0
    tail[unit, :] = tail[:, unit] = 0.0
    return 0.5 * (gram + gram.T), tail


def inner_direct(
    theta_a: float,
    theta_b: float,
    quad: QuadratureConfig | None = None,
) -> InnerProductResult:
    """L2(0, 1] inner product <f_{theta_a}, f_{theta_b}> with its budget.

    Unit fractions theta = 1/N go through the closed form of
    :func:`_unit_gram` on the slots of 1/Na, 1/Nb and the origin: no
    cutoff, the bits of a direct Gram build's entry, and ``err_estimate``
    its roundoff estimate (above the denominator cap, the cutoff tail of
    :func:`pair_inner_matrix`).  Other parameters are integrated piece by
    piece above the cutoff x_min resolved from ``quad``; the value omits
    at most (1+theta_a)(1+theta_b) x_min of tail mass, which is then
    ``err_estimate``.
    """
    theta_a = _check_theta(theta_a, "theta_a")
    theta_b = _check_theta(theta_b, "theta_b")
    quad = quad if quad is not None else DEFAULT_QUAD
    if theta_a == 1.0 or theta_b == 1.0:
        # f_1 is identically zero: {1/x} - {1/x}.
        return InnerProductResult(value=0.0, err_estimate=0.0)
    na, nb = _unit_denominator(theta_a), _unit_denominator(theta_b)
    if na is None or nb is None:  # err is the cutoff tail
        gram, err = _sweep_gram((theta_a, theta_b), quad.resolved_x_min(), "sweep")
    elif max(na, nb) > _CLOSED_FORM_CAP:
        gram, err = pair_inner_matrix([na, nb], quad.resolved_x_min())
    else:  # the slots 1/1, a/b reduced, a/1 and b/1; the origin last
        d = math.gcd(na, nb)
        h, k = np.array([1, na // d, na, nb]), np.array([1, nb // d, 1, 1])
        slots = np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        gram, err = _unit_gram(1.0 / np.array([na, nb], dtype=np.float64), h, k, slots)
    return InnerProductResult(value=float(gram[0, 1]), err_estimate=float(err[0, 1]))


def l2_norm(theta: float, quad: QuadratureConfig | None = None) -> float:
    """L2 norm of f_theta on (0, 1] (nonnegative square root)."""
    return math.sqrt(inner_direct(theta, theta, quad).value)
