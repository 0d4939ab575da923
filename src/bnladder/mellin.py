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

from .errors import ParameterError, _real, _reals
from .fractional import _ABS_TOL, DEFAULT_QUAD, QuadratureConfig, _check_theta, _sweep
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
        for name in ("W", "epsilon"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not (self.W > 0.0 and math.isfinite(self.W)):
            raise ParameterError(f"smoothing width W must be finite and positive, got {self.W!r}")
        if not (self.epsilon >= 0.0 and math.isfinite(self.epsilon)):
            raise ParameterError(
                f"smoothing floor epsilon must be finite and nonnegative, got {self.epsilon!r}"
            )


def psi(t, smoothing: SmoothingParams):
    """Multiplier psi_W(t) = epsilon + exp(-(t/W)^2), elementwise."""
    tt = np.asarray(t, dtype=np.float64)
    with np.errstate(over="ignore"):  # exp(-inf) = 0 where t/W overflows: the exact limit
        out = smoothing.epsilon + np.exp(-((tt / smoothing.W) ** 2))
    return float(out) if np.isscalar(t) or tt.ndim == 0 else out


def _closed(theta: float, t, zeta):
    """zeta(s) (theta - theta^s) / s at s = 1/2 + it, elementwise in t, with
    theta^s = sqrt(theta) e^{i t log theta}."""
    lt = math.log(theta)
    theta_s = math.exp(0.5 * lt) * np.exp(1j * t * lt)
    return zeta * (theta - theta_s) / (0.5 + 1j * t)


def mellin_closed(theta: float, t: float) -> complex:
    """Closed-form M_theta(1/2 + it) = zeta(s) (theta - theta^s) / s."""
    theta = _check_theta(theta)
    t = _real(t, "t")
    return complex(_closed(theta, t, zeta_half(t)))


def mellin_closed_grid(theta: float, ts: np.ndarray) -> np.ndarray:
    """Vectorized closed form over a grid of nonnegative ordinates."""
    theta = _check_theta(theta)
    ts = np.asarray(ts, dtype=np.float64)
    return _closed(theta, ts, zeta_half_grid(ts))


def _mellin_cutoff(theta: float, quad: QuadratureConfig) -> float:
    """Cutoff for the direct transform: honor an explicit x_min, else pick
    one whose post-correction residual ~ coef * x_min^(3/2) stays below an
    eighth of the absolute target _ABS_TOL."""
    if quad.x_min is not None:
        return quad.x_min
    coef = (1.0 / theta + theta) / 4.0
    # a tiny theta makes coef overflow; the smallest normal cutoff then
    # lets the sweep report the pieces it would need
    return min(1.0e-2, max((_ABS_TOL / (8.0 * coef)) ** (2.0 / 3.0), np.finfo(float).tiny))


def mellin_direct(theta: float, t, quad: QuadratureConfig | None = None):
    """Piecewise-exact Mellin transform at s = 1/2 + it.

    Walks the step structure of f_theta above the cutoff, then adds the
    mean-value tail term (1-theta)/2 * x_min^s / s.  Independent of the
    zeta evaluator, which is the point: disagreements with
    :func:`mellin_closed` implicate one side or the other.  ``t`` is a real
    ordinate, giving a complex, or a 1-D array of them, giving an array:
    one sweep serves every ordinate, each with the bits of its own call.
    """
    theta = _check_theta(theta)
    quad = quad if quad is not None else DEFAULT_QUAD
    ts = _reals(t, "t")
    s = 0.5 + 1j * np.atleast_1d(ts)
    total = np.zeros(s.size, dtype=np.complex128)
    if theta != 1.0:
        x_min = _mellin_cutoff(theta, quad)
        for e, f in _sweep((theta,), x_min, "transform"):
            # x-interval of u-piece [e_i, e_{i+1}) is (1/e_{i+1}, 1/e_i]
            log_e = np.log(e)
            # a row per ordinate keeps a scalar call's memory and operations
            for i, s_i in enumerate(s):
                pow_edges = np.exp(-s_i * log_e)
                total[i] += np.dot(f[0], pow_edges[:-1] - pow_edges[1:]) / s_i
        # Mean-value restoration of the cut tail; x_min^s as exp(s log x_min),
        # stable where float x^s is not.
        total += 0.5 * (1.0 - theta) * np.exp(s * math.log(x_min)) / s
    return complex(total[0]) if np.ndim(ts) == 0 else total
