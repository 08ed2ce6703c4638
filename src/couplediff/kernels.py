"""Convolution kernels driving the jump diffusion on (0, 1).

Three built-in families (uniform, triangle, epanechnikov), each an even,
compactly supported, unit-mass density on [-R, R].  The rescaled kernel is

    J_eps(z) = eps^-3 * J(z / eps),

so its integral over the line is eps^-2 while its second moment stays equal
to that of the base family.  That cancellation is what turns the jump
operator into the Laplacian as eps -> 0 once the diffusion strength is set
to 2 / M(J) with M(J) the base second moment.

The uniform family is discontinuous at |z| = R, which violates one of the
admissibility hypotheses; it is kept for its simple closed forms and is fine
everywhere continuity of the kernel is not needed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILIES = ("uniform", "triangle", "epanechnikov")


def _base_eval(family: str, radius: float, s):
    """Unscaled family density at s, vectorized."""
    a = np.abs(s) / radius
    inside = a <= 1.0
    if family == "uniform":
        val = 0.5 / radius * np.ones_like(a)
    elif family == "triangle":
        val = (1.0 - a) / radius
    else:  # epanechnikov
        val = 0.75 * (1.0 - a * a) / radius
    return np.where(inside, val, 0.0)


def _base_cdf(family: str, radius: float, s):
    """Antiderivative of the unscaled family, normalized to [0, 1]."""
    a = np.clip(np.asarray(s, dtype=float) / radius, -1.0, 1.0)
    if family == "uniform":
        return 0.5 * (a + 1.0)
    if family == "triangle":
        neg = 0.5 * (a + 1.0) ** 2
        pos = 1.0 - 0.5 * (1.0 - a) ** 2
        return np.where(a <= 0.0, neg, pos)
    return 0.5 + 0.25 * (3.0 * a - a**3)  # epanechnikov


@dataclass(frozen=True)
class Kernel:
    """A rescaled kernel J_eps(z) = eps^-3 J(z/eps) with support [-R*eps, R*eps]."""

    family: str
    radius: float
    epsilon: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; expected one of {FAMILIES}"
            )
        if not (self.radius > 0.0 and np.isfinite(self.radius)):
            raise ValueError(f"kernel radius must be positive, got {self.radius}")
        if not (self.epsilon > 0.0 and np.isfinite(self.epsilon)):
            raise ValueError(f"kernel epsilon must be positive, got {self.epsilon}")

    @property
    def support_radius(self) -> float:
        return self.radius * self.epsilon

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        return _base_eval(self.family, self.radius, z / self.epsilon) / self.epsilon**3

    def integral(self, a, b):
        """Exact integral of the rescaled kernel over [a, b]."""
        lo = _base_cdf(self.family, self.radius, np.asarray(a, dtype=float) / self.epsilon)
        hi = _base_cdf(self.family, self.radius, np.asarray(b, dtype=float) / self.epsilon)
        return (hi - lo) / self.epsilon**2


@dataclass(frozen=True)
class CouplingConstants:
    """Diffusion strengths of the coupled flow.

    c1 multiplies the jump operator, c2 the interface exchange; m_j is the
    second moment of the unscaled kernel family.  The defaults c1 = 2/m_j and
    c2 = 1 make the eps -> 0 limit of the jump operator the unit Laplacian.
    """

    c1: float
    c2: float
    m_j: float

    def __post_init__(self):
        if not (self.m_j > 0.0 and np.isfinite(self.m_j)):
            raise ValueError(f"second moment must be positive and finite, got {self.m_j}")
        if not (0.0 < self.c1 < np.inf and 0.0 < self.c2 < np.inf):
            raise ValueError(f"coupling constants must be positive and finite, c1 = {self.c1}")


def make_kernel(family: str, radius: float, epsilon: float = 1.0) -> Kernel:
    return Kernel(family, float(radius), float(epsilon))


def second_moment(kernel: Kernel) -> float:
    """Second moment of the UNSCALED base family (independent of epsilon)."""
    r2 = kernel.radius**2
    if kernel.family == "uniform":
        return r2 / 3.0
    if kernel.family == "triangle":
        return r2 / 6.0
    return r2 / 5.0  # epanechnikov


def coupling_constants(kernel: Kernel) -> CouplingConstants:
    try:
        m = second_moment(kernel)
        return CouplingConstants(c1=2.0 / m, c2=1.0, m_j=m)
    except ArithmeticError:
        raise ValueError(f"kernel radius {kernel.radius}: radius**2 over- or underflows") from None


def coupling_profile_analytic(kernel: Kernel, y):
    """Interface coupling weight q(y) = integral of J_eps(y - s) over s in (-1, 0).

    Closed form via the kernel antiderivative; piecewise polynomial in y,
    nonincreasing, and zero once y exceeds the kernel support radius.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0) or np.any(y >= 1.0):
        raise ValueError("coupling profile is defined for y strictly inside (0, 1)")
    return kernel.integral(y, y + 1.0)
