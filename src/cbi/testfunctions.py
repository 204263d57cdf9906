"""Twice continuously differentiable compactly supported test functions.

Generator evaluation needs C^2 functions with compact support and exact
derivatives. The built-in family consists of radial smooth bumps

    f(x) = a * exp( -1 / (1 - |(x - x0)/R|^2) )   for |x - x0| < R,
    f(x) = 0                                       otherwise,

with analytic gradients and Hessians. Evaluations outside the support are
valid and return 0, so jump displacements x + z may leave the support
freely.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError

# Treat 1 - s below this as outside: exp(-1/(1-s)) already underflowed to 0
# there, and the (1-s)^-4 Hessian factors would otherwise overflow.
_EDGE = 1e-8


@dataclass(frozen=True, eq=False)
class TestFunction:
    """A C^2 compactly supported function R_+^d -> R, bundled with its
    analytic gradient and Hessian."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]

    __test__ = False  # not a pytest collection target


def bump(center, radius: float, amplitude: float = 1.0) -> TestFunction:
    """Radial smooth bump of the given amplitude on the ball |x - center| < radius."""
    x0 = np.atleast_1d(np.asarray(center, dtype=float))
    if not np.all(np.isfinite(x0)):  # an infinite center leaves nothing in the support
        raise ValueError(f"center must be finite, got {x0.tolist()}")
    R = float(radius)
    if not 0 < R < np.inf:  # an infinite "bump" is a constant without compact support
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if not np.finfo(float).tiny <= R * R < np.inf:  # the derivatives divide by R^2
        raise ValueError(f"radius {R:.6g} squared leaves the normal floating-point range")
    a = float(amplitude)
    if not np.isfinite(a):
        raise ValueError(f"amplitude must be finite, got {amplitude}")
    d, center_entries = len(x0), x0.tolist()

    def _at(x) -> tuple[np.ndarray, float]:
        """x as a point of length d, and s = |(x - center) / radius|^2, taken
        as inf off the cube |x_i - center_i| < radius: f is 0 there, and s
        could overflow."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (d,):
            raise DimensionError(f"point has shape {x.shape}; the bump's center has length {d}")
        if any(abs(p - c) >= R for p, c in zip(x.tolist(), center_entries)):
            return x, np.inf
        u = (x - x0) / R
        return x, float(u @ u)

    def value(x) -> float:
        s = _at(x)[1]
        if s >= 1.0 - _EDGE:
            return 0.0
        return a * np.exp(-1.0 / (1.0 - s))

    def gradient(x) -> np.ndarray:
        x, s = _at(x)
        if s >= 1.0 - _EDGE:
            return np.zeros(d)
        g = a * np.exp(-1.0 / (1.0 - s))
        gp = -g / (1.0 - s) ** 2          # d/ds of a*exp(-1/(1-s))
        return gp * (2.0 / R**2) * (x - x0)

    def hessian(x) -> np.ndarray:
        x, s = _at(x)
        if s >= 1.0 - _EDGE:
            return np.zeros((d, d))
        g = a * np.exp(-1.0 / (1.0 - s))
        gp = -g / (1.0 - s) ** 2
        gpp = g * (2.0 * s - 1.0) / (1.0 - s) ** 4
        u = (2.0 / R**2) * (x - x0)
        return gpp * np.outer(u, u) + gp * (2.0 / R**2) * np.eye(d)

    return TestFunction(value=value, gradient=gradient, hessian=hessian)
