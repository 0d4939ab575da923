"""Mellin transforms of the fractional-part profiles on the critical line.

For 0 < theta <= 1 the transform of f_theta evaluated at s = 1/2 + it has
the closed form

    M_theta(s) = integral_0^1 f_theta(x) x^(s-1) dx = zeta(s) (theta - theta^s) / s,

with theta^s = sqrt(theta) * exp(i t log theta).  The direct route
integrates over the pieces of the one step-function sweep,
:func:`bnladder.fractional._sweep`, for every theta: each constant piece
contributes f * (beta^s - alpha^s) / s exactly, and the part below the
small-x cutoff is restored through the mean value of the profile near 0,

    integral_0^eps f_theta(x) x^(s-1) dx ~ (1 - theta)/2 * eps^s / s,

because f_theta averages to (1-theta)/2 as x -> 0.  After that correction
the cutoff residual scales like eps^(3/2), so modest cutoffs already reach
float-level agreement with the closed form; this is what makes the
closed-form/direct comparison a meaningful self-check of both the zeta
evaluator and the piecewise integrators.

Smoothing multipliers live here too: psi_W(t) = epsilon + exp(-(t/W)^2)
tapers the spectral side while keeping an epsilon floor, and the smoothed
objects downstream integrate against psi^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError
from .fractional import DEFAULT_QUAD, QuadratureConfig, _check_theta, _sweep
from .zeta import zeta_half, zeta_half_grid

__all__ = [
    "SmoothingParams",
    "psi",
    "mellin_closed",
    "mellin_closed_grid",
    "mellin_direct",
]


@dataclass(frozen=True)
class SmoothingParams:
    """Gaussian taper of width W with an epsilon floor.

    psi(t) = epsilon + exp(-(t/W)^2).  W sets where the taper rolls off;
    epsilon keeps a raw remnant so smoothed quantities stay comparable to
    raw ones as epsilon -> 1 - exp(...), and must be nonnegative.
    """

    W: float
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if not (self.W > 0.0 and math.isfinite(self.W)):
            raise ParameterError(f"smoothing width W must be positive, got {self.W!r}")
        if not (self.epsilon >= 0.0 and math.isfinite(self.epsilon)):
            raise ParameterError(
                f"smoothing floor epsilon must be nonnegative, got {self.epsilon!r}"
            )


def psi(t, smoothing: SmoothingParams):
    """Multiplier psi_W(t) = epsilon + exp(-(t/W)^2), elementwise."""
    tt = np.asarray(t, dtype=np.float64)
    out = smoothing.epsilon + np.exp(-((tt / smoothing.W) ** 2))
    return float(out) if np.isscalar(t) or tt.ndim == 0 else out


def mellin_closed(theta: float, t: float, log_theta: float | None = None) -> complex:
    """Closed-form M_theta(1/2 + it) = zeta(s) (theta - theta^s) / s.

    Pass ``log_theta`` when an exact logarithm is available (ladder
    points); otherwise math.log(theta) is used.
    """
    theta = _check_theta(theta)
    lt = log_theta if log_theta is not None else math.log(theta)
    s = 0.5 + 1j * float(t)
    # theta^s = sqrt(theta) e^{i t log theta}; exp(lt/2) survives theta
    # underflow as long as lt is finite.
    theta_s = math.exp(0.5 * lt) * np.exp(1j * float(t) * lt)
    return complex(zeta_half(t) * (theta - theta_s) / s)


def mellin_closed_grid(
    theta: float,
    ts: np.ndarray,
    log_theta: float | None = None,
    zeta_values: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized closed form over a grid of nonnegative ordinates.

    ``zeta_values`` lets callers reuse a precomputed zeta grid; it must
    match ``ts`` elementwise.
    """
    theta = _check_theta(theta)
    lt = log_theta if log_theta is not None else math.log(theta)
    ts = np.asarray(ts, dtype=np.float64)
    z = zeta_values if zeta_values is not None else zeta_half_grid(ts)
    if z.shape != ts.shape:
        raise ParameterError("zeta_values must match the ordinate grid")
    s = 0.5 + 1j * ts
    theta_s = math.exp(0.5 * lt) * np.exp(1j * ts * lt)
    return z * (theta - theta_s) / s


def _mellin_cutoff(theta: float, quad: QuadratureConfig) -> float:
    """Cutoff for the direct transform: honor an explicit x_min, else pick
    one whose post-correction residual ~ coef * x_min^(3/2) stays below an
    eighth of the absolute budget."""
    if quad.x_min is not None:
        return quad.x_min
    coef = (1.0 / theta + theta) / 4.0
    return min(1.0e-2, (quad.abs_tol / (8.0 * coef)) ** (2.0 / 3.0))


def mellin_direct(theta: float, t: float, quad: QuadratureConfig | None = None) -> complex:
    """Piecewise-exact Mellin transform at s = 1/2 + it.

    Walks the step structure of f_theta above the cutoff, then adds the
    mean-value tail term (1-theta)/2 * x_min^s / s.  Independent of the
    zeta evaluator, which is the point: disagreements with
    :func:`mellin_closed` implicate one side or the other.
    """
    theta = _check_theta(theta)
    quad = quad if quad is not None else DEFAULT_QUAD
    s = 0.5 + 1j * float(t)
    if theta == 1.0:
        return 0.0 + 0.0j
    x_min = _mellin_cutoff(theta, quad)
    cap = quad.max_subdivisions
    est = (1.0 + 2.0 * theta) * (1.0 / x_min)
    if est > cap:
        raise ConvergenceError(
            f"transform needs ~{est:.3g} pieces, above the cap {cap}; raise x_min"
        )
    total = 0.0 + 0.0j
    for e, f in _sweep((theta,), x_min):
        # x-interval of u-piece [e_i, e_{i+1}) is (1/e_{i+1}, 1/e_i]
        pow_edges = np.exp(-s * np.log(e))
        total += np.dot(f[0], pow_edges[:-1] - pow_edges[1:]) / s
    # Mean-value restoration of the cut tail; x_min^s as exp(s log x_min),
    # stable where float x^s is not.
    total += 0.5 * (1.0 - theta) * np.exp(s * math.log(x_min)) / s
    return complex(total)
