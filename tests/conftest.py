import numpy as np
import pytest
from scipy.optimize import brentq

from couplediff import (
    GeneratorMatrix,
    assemble_generator,
    build_grid,
    coupling_constants,
    make_kernel,
)


@pytest.fixture(scope="session")
def triangle_kernel():
    return make_kernel("triangle", 1.0, 1.0)


@pytest.fixture(scope="session")
def constants(triangle_kernel):
    return coupling_constants(triangle_kernel)


@pytest.fixture(scope="session")
def grid50():
    return build_grid(50, 50)


@pytest.fixture(scope="session")
def gen50(grid50, triangle_kernel, constants):
    return assemble_generator(grid50, triangle_kernel, constants)


@pytest.fixture(scope="session")
def grid100():
    return build_grid(100, 100)


@pytest.fixture(scope="session")
def gen100(grid100, triangle_kernel, constants):
    return assemble_generator(grid100, triangle_kernel, constants)


def weighted_norm(grid, values):
    return float(np.sqrt(np.sum(grid.weights * values * values)))


def transmission_beta1(eps, half_moment):
    """Small-eps oracle for the spectral gap of the rescaled problem.

    The interface contact conductance of J_eps = eps^-3 J(./eps) is
    g = half_moment / eps with half_moment = int_0^R rho J(rho) drho (R/6 for
    the triangle family).  The slowest antisymmetric mode of two unit rods
    exchanging flux g (v(0) - u(0)) solves mu tan mu = 2 g and decays at rate
    mu^2, so beta1 = mu^2 / 2; it tends to pi^2/8 as eps -> 0.
    """
    g = half_moment / eps
    mu = brentq(lambda m: m * np.tan(m) - 2.0 * g, 1e-9, np.pi / 2 - 1e-12)
    return 0.5 * mu * mu


def with_edges(gen, edges):
    """gen with each (i, j, c) of edges adding conductance c between nodes i
    and j (c < 0 weakens an edge), rebuilt through from_dense."""
    L, W = gen.dense(), gen.weights
    for i, j, c in edges:
        L[i, j] += c / W[i]
        L[j, i] += c / W[j]
        L[i, i] -= c / W[i]
        L[j, j] -= c / W[j]
    return GeneratorMatrix.from_dense(gen.grid, L)
