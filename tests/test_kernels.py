from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from scipy.integrate import quad

from couplediff import (
    coupling_constants,
    coupling_profile_analytic,
    make_kernel,
    second_moment,
)
from couplediff.kernels import DENSITIES, FAMILIES

EPS_SET = (1.0, 0.5, 0.25, 0.1)


def test_point_values():
    assert make_kernel("uniform", 1.0, 1.0)(0.0) == pytest.approx(0.5)
    assert make_kernel("triangle", 1.0, 1.0)(0.5) == pytest.approx(0.5)
    # substitution x = eps z: the rescaled kernel integrates to eps^-2
    k = make_kernel("uniform", 1.0, 0.25)
    z = np.linspace(-0.25, 0.25, 10_001)
    assert np.trapezoid(k(z), z) == pytest.approx(16.0, rel=1e-6)


def test_bad_arguments():
    with pytest.raises(ValueError):
        make_kernel("gauss", 1.0, 1.0)
    with pytest.raises(ValueError):
        make_kernel("uniform", 0.0, 1.0)
    with pytest.raises(ValueError):
        make_kernel("uniform", 1.0, -0.5)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("eps", EPS_SET)
def test_unit_mass_rescaled(family, eps):
    k = make_kernel(family, 1.0, eps)
    r = k.support_radius
    z = (np.arange(10_000) + 0.5) / 10_000 * 2 * r - r
    total = np.sum(k(z)) * (2 * r / 10_000)
    assert total == pytest.approx(eps**-2, rel=1e-8)


@pytest.mark.parametrize("family", FAMILIES)
def test_even_and_nonnegative(family):
    k = make_kernel(family, 1.0, 0.5)
    z = np.random.default_rng(0).uniform(-1.0, 1.0, 200)
    assert np.all(k(z) >= 0.0)
    np.testing.assert_allclose(k(z), k(-z), rtol=0, atol=0)
    assert np.all(k(np.array([0.51, -0.7, 3.0])) == 0.0)


def test_second_moment_closed_forms():
    assert second_moment(make_kernel("uniform", 1.0)) == pytest.approx(1 / 3)
    assert second_moment(make_kernel("triangle", 1.0)) == pytest.approx(1 / 6)
    assert second_moment(make_kernel("epanechnikov", 1.0)) == pytest.approx(1 / 5)
    # scales with the square of the support radius
    assert second_moment(make_kernel("triangle", 2.0)) == pytest.approx(4 / 6)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("eps", EPS_SET)
def test_second_moment_invariant_under_rescaling(family, eps):
    k = make_kernel(family, 1.0, eps)
    r = k.support_radius
    z = (np.arange(20_000) + 0.5) / 20_000 * 2 * r - r
    m = np.sum(k(z) * z * z) * (2 * r / 20_000)
    assert m == pytest.approx(second_moment(k), rel=1e-8)


def test_coupling_constants():
    for family, c1 in (("uniform", 6.0), ("triangle", 12.0), ("epanechnikov", 10.0)):
        k = make_kernel(family, 1.0)
        cc = coupling_constants(k)
        assert cc.c1 == pytest.approx(c1)
        assert cc.c1 == 2 / second_moment(k)


def test_coupling_profile_closed_values():
    assert coupling_profile_analytic(make_kernel("uniform", 1.0), 0.5) == pytest.approx(0.25)
    assert coupling_profile_analytic(make_kernel("triangle", 1.0), 0.5) == pytest.approx(0.125)
    for family in FAMILIES:
        k = make_kernel(family, 1.0, 0.5)
        assert coupling_profile_analytic(k, 0.6) == 0.0  # support exhausted


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("eps", (1.0, 0.3))
def test_coupling_profile_matches_quadrature(family, eps):
    k = make_kernel(family, 1.0, eps)
    rng = np.random.default_rng(7)
    for y in rng.uniform(1e-3, 1.0 - 1e-3, 100):
        kinks = [s for s in (y - k.support_radius, y, y + k.support_radius)
                 if -1.0 < s < 0.0]
        ref, _ = quad(lambda s: float(k(y - s)), -1.0, 0.0, points=kinks, limit=200)
        assert coupling_profile_analytic(k, y) == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("family", FAMILIES)
def test_coupling_profile_monotone_and_vanishing(family):
    k = make_kernel(family, 1.0, 0.5)
    y = np.linspace(1e-4, 1.0 - 1e-4, 400)
    q = coupling_profile_analytic(k, y)
    assert np.all(np.diff(q) <= 1e-15)
    assert np.all(q[y >= k.support_radius] == 0.0)


def test_coupling_profile_domain():
    k = make_kernel("triangle", 1.0)
    with pytest.raises(ValueError):
        coupling_profile_analytic(k, 0.0)
    with pytest.raises(ValueError):
        coupling_profile_analytic(k, 1.0)


# The textbook closed forms of each family's unscaled density at a = |s|/R
# (times 1/R, on a <= 1), written independently of kernels.DENSITIES.
TEXTBOOK = {
    "uniform": lambda a: sp.Rational(1, 2),
    "triangle": lambda a: 1 - a,
    "epanechnikov": lambda a: sp.Rational(3, 4) * (1 - a**2),
}
# Rational radii and epsilons whose floats are exact, so the oracle is exact
# at the kernel's own parameters.
RATIONAL_R_EPS = ((sp.Integer(1), sp.Integer(1)), (sp.Rational(3, 2), sp.Rational(1, 4)),
                  (sp.Rational(5, 4), sp.Rational(3, 8)))


def _ulps(x, exact):
    """|x - exact| in units of the spacing of doubles at the exact value."""
    if exact == 0:
        return 0.0 if x == 0.0 else np.inf
    return float(abs(sp.Rational(float(x)) - exact)
                 / sp.Rational(np.spacing(abs(float(exact)))))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("r_eps", RATIONAL_R_EPS, ids=str)
def test_kernel_integrals_match_sympy(family, r_eps):
    """Density, Kernel.integral, unit mass and second moment agree with sympy
    integrals of the textbook closed form to within 2 ulp."""
    radius, eps = r_eps
    k = make_kernel(family, float(radius), float(eps))
    u = sp.Symbol("u", nonnegative=True)
    rescaled = TEXTBOOK[family](u / (eps * radius)) / radius / eps**3  # J_eps at |z| = u

    def exact_cdf0(x):  # integral of J_eps over [0, x], odd in x
        return sp.sign(x) * sp.integrate(rescaled, (u, 0, min(abs(x), eps * radius)))

    for j in range(-70, 71):  # a = j/64 exactly, inside and outside the support
        z = sp.Rational(j, 64) * eps * radius
        exact = rescaled.subs(u, abs(z)) if abs(j) <= 64 else sp.Integer(0)
        assert _ulps(k(float(z)), exact) <= 2.0, (j, float(k(float(z))), exact)
    for lo, hi in ((-1, 1), (-1, 0), (0, sp.Rational(1, 2)), (sp.Rational(-1, 4), sp.Rational(1, 2)),
                   (-2, sp.Rational(1, 8)), (sp.Rational(-3, 4), sp.Rational(7, 8))):
        a, b = lo * eps * radius, hi * eps * radius
        assert _ulps(k.integral(float(a), float(b)), exact_cdf0(b) - exact_cdf0(a)) <= 2.0
    assert 2 * exact_cdf0(eps * radius) == eps**-2  # the oracle's own mass
    assert _ulps(k.integral(-k.support_radius, k.support_radius), eps**-2) <= 2.0
    moment = 2 * sp.integrate(u**2 * TEXTBOOK[family](u / radius) / radius, (u, 0, radius))
    assert _ulps(second_moment(k), moment) <= 2.0


@pytest.mark.parametrize("family", FAMILIES)
def test_declaration_exact_unit_mass_and_nonnegative(family):
    """Each declared p(t), integer numerators over an integer denominator, has
    2 * integral over [0, 1] equal to 1 exactly, and is nonnegative on [0, 1]."""
    t = sp.Symbol("t", real=True)
    numerators, denominator = DENSITIES[family]
    assert all(type(c) is int for c in (*numerators, denominator)) and denominator > 0
    p = sum(c * t**k for k, c in enumerate(reversed(numerators))) / sp.Integer(denominator)
    assert 2 * sp.integrate(p, (t, 0, 1)) == 1
    assert sp.minimum(p, t, sp.Interval(0, 1)) >= 0


@pytest.mark.parametrize("radius, eps", ((1.0, 1.0), (2.0, 0.25), (0.5, 0.5)))
def test_epanechnikov_correctly_rounded_near_edge(radius, eps):
    """Within 1e-3 R of the support's edge the epanechnikov value is within
    4 ulp of the exact rational 3/4 (1 - a^2) / R / eps^3 at the float z
    (R and eps powers of two, so a = z / (eps R) is exact)."""
    k = make_kernel("epanechnikov", radius, eps)
    rng = np.random.default_rng(3)
    gaps = np.concatenate([rng.uniform(0.0, 1e-3, 200), 2.0 ** -np.arange(10, 53)])
    for z in np.concatenate([k.support_radius * (1.0 - gaps), -k.support_radius * (1.0 - gaps)]):
        a = abs(Fraction(float(z))) / Fraction(eps) / Fraction(radius)
        exact = Fraction(3, 4) * (1 - a * a) / Fraction(radius) / Fraction(eps) ** 3
        value = float(k(z))
        assert abs(Fraction(value) - exact) <= 4 * Fraction(np.spacing(float(exact))), z
