import itertools
import math

import numpy as np
import pytest

from projmetrics.bodies import VPolytope
from projmetrics.grassmann import axis_subspace


def random_convex_polygon(rng: np.random.Generator, n_points: int = 8,
                          scale: float = 2.0) -> VPolytope:
    """A 2-D body from random points; interior points are fine by contract."""
    return VPolytope(rng.uniform(0.0, scale, size=(n_points, 2)))


def unit_cube(d: int, j: int) -> VPolytope:
    """Unit j-cube embedded in the first j coordinates of R^d."""
    verts = [list(bits) + [0.0] * (d - j)
             for bits in itertools.product((0.0, 1.0), repeat=j)]
    return VPolytope(np.array(verts))


def zonotope(generators: np.ndarray) -> VPolytope:
    """Z = [0, g_1] + ... + [0, g_m] for the rows g_i of generators, as its
    2^m subset sums (interior sums are fine by contract)."""
    g = np.asarray(generators, dtype=float)
    return VPolytope(np.array(list(itertools.product((0.0, 1.0), repeat=len(g)))) @ g)


def zonotope_volume(generators: np.ndarray, j: int) -> float:
    """V_j(Z) = the sum over j-subsets S of the generators of the j-volume of
    the parallelotope they span (McMullen, "On zonotopes", 1971, with
    Kubota's formula): the exact reference at every j."""
    g = np.asarray(generators, dtype=float)
    return math.fsum(math.sqrt(abs(np.linalg.det(g[list(s)] @ g[list(s)].T)))
                     for s in itertools.combinations(range(len(g)), j))


@pytest.fixture
def square2() -> VPolytope:
    return VPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


@pytest.fixture
def cube3() -> VPolytope:
    return unit_cube(3, 3)


@pytest.fixture
def plane_e12():
    return axis_subspace(3, [0, 1])
