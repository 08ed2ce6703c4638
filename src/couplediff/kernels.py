"""Convolution kernels driving the jump diffusion on (0, 1).

Each family is declared once, in DENSITIES, by the exact coefficients of its
density p(t), integer numerators over one integer denominator, a polynomial
in t = 1 - |s|/R (the distance from the support's edge in units of R): the
unscaled kernel is p(1 - |s|/R) / R on |s| <= R,
even, of unit mass (2 * integral of p over [0, 1] = 1).  Its values, its cdf
(so the interface profile q) and its second moment are integrals of p, so a
further family is one table entry.  The rescaled kernel is

    J_eps(z) = eps^-3 * J(z / eps),

so its integral over the line is eps^-2 while its second moment stays equal
to that of the base family.  That cancellation is what turns the jump
operator into the Laplacian as eps -> 0 once the diffusion strength is set
to 2 / M(J) with M(J) the base second moment.

Continuity at the support's edge, one of the paper's admissibility
hypotheses, means p(0) = 0: the uniform family (p = 1/2) violates it, and is
fine everywhere continuity of the kernel is not needed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# p(t) = (n_0 t^d + n_1 t^(d - 1) + ... + n_d) / denominator: (numerators,
# highest power first as in np.polyval, denominator)
DENSITIES = {
    "triangle": ((1, 0), 1),  # 1 - a, a = |s|/R
    "uniform": ((1,), 2),  # 1/2
    "epanechnikov": ((-3, 6, 0), 4),  # 3/4 (1 - a^2)
}
FAMILIES = tuple(DENSITIES)


def _antiderivative(numerators, denominator):
    """Q(t) = integral of p over [0, t] in the same form, exact: t^k
    integrates to t^(k + 1) / (k + 1), over one common denominator."""
    top = len(numerators)
    common = math.lcm(*range(1, top + 1))
    return [c * (common // (top - k)) for k, c in enumerate(numerators)] + [0], denominator * common


def _floats(numerators, denominator) -> np.ndarray:
    """Each coefficient the one rounding of its exact value (Python's
    int / int is correctly rounded)."""
    return np.array([c / denominator for c in numerators])


_P = {family: _floats(*p) for family, p in DENSITIES.items()}
_Q = {family: _floats(*_antiderivative(*p)) for family, p in DENSITIES.items()}


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
        a = np.abs(np.asarray(z, dtype=float) / self.epsilon) / self.radius
        p = np.polyval(_P[self.family], 1.0 - np.minimum(a, 1.0))
        return np.where(a <= 1.0, p / self.radius, 0.0) / self.epsilon**3

    def _cdf(self, z):
        """Unscaled cdf at z/eps: Q(1 - |a|), a = z/(eps R) <= 0; 1 - Q(1 - a) beyond."""
        a = np.clip(np.asarray(z, dtype=float) / self.epsilon / self.radius, -1.0, 1.0)
        q = np.polyval(_Q[self.family], 1.0 - np.abs(a))
        return np.where(a <= 0.0, q, 1.0 - q)

    def integral(self, a, b):
        """Exact integral of the rescaled kernel over [a, b]."""
        return (self._cdf(b) - self._cdf(a)) / self.epsilon**2


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
    """Second moment of the UNSCALED base family (independent of epsilon):
    R^2 M, with M = 2 * integral of (1 - t)^2 p(t) over [0, 1] exact, in
    lowest terms, in integers."""
    n, d = DENSITIES[kernel.family]
    q, den = _antiderivative(np.polymul(n, (1, -2, 1)).tolist(), d)
    num = 2 * sum(q)  # 2 Q(1)
    g = math.gcd(num, den)
    return kernel.radius**2 * (num // g) / (den // g)


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
