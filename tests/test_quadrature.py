"""Quadrature rules: exactness against the barycentric factorial formula."""

import itertools
import math

import numpy as np
import pytest

from barrierfem.quadrature import REFERENCE_MEASURE, simplex_rule


def barycentric_monomial_integral(dim, alpha):
    """Exact integral of prod(lambda_i^alpha_i) over the reference d-simplex.

    Classical formula: d! * V * prod(alpha_i!) / (|alpha| + d)! with
    V the reference measure.
    """
    num = math.factorial(dim) * REFERENCE_MEASURE[dim]
    for a in alpha:
        num *= math.factorial(a)
    return num / math.factorial(sum(alpha) + dim)


def rule_and_exact(dim, total):
    """(rule value, exact value) of each barycentric monomial of degree `total`."""
    points, weights = simplex_rule(dim)
    for alpha in itertools.product(range(total + 1), repeat=dim + 1):
        if sum(alpha) == total:
            mono = np.prod(points ** np.asarray(alpha, dtype=float), axis=1)
            yield float(np.sum(weights * mono)), barycentric_monomial_integral(dim, alpha)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_exactness_brute_force(dim):
    """Every barycentric monomial up to degree 5 integrates exactly."""
    for total in range(6):
        for value, exact in rule_and_exact(dim, total):
            assert abs(value - exact) < 1e-13


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_degree6_not_exact(dim):
    # u^5 phi_i of the P1 residual has degree 6: the rules miss it by
    # up to about 5% (5.0% in 1D, 5.1% in 2D, 5.2% in 3D)
    worst = max(abs(value - exact) / exact for value, exact in rule_and_exact(dim, 6))
    assert 0.04 < worst < 0.06


@pytest.mark.parametrize("dim", [0, 1, 2, 3])
def test_weights_positive_and_normalized(dim):
    points, weights = simplex_rule(dim)
    assert points.shape == (len(weights), dim + 1)
    assert np.all(weights > 0)
    assert abs(weights.sum() - REFERENCE_MEASURE[dim]) < 1e-14


def test_interval_degree5_monomial():
    # oracle: int_0^1 x^5 dx = 1/6
    points, weights = simplex_rule(1)
    x = points[:, 1]
    assert abs(float(np.sum(weights * x**5)) - 1.0 / 6.0) < 1e-14


def test_triangle_bubble_integral():
    # oracle: a!b!c! * 2! / (a+b+c+2)! * area = 1*1*1*2/120 * (1/2) = 1/120
    points, weights = simplex_rule(2)
    value = float(np.sum(weights * points.prod(axis=1)))
    assert abs(value - 1.0 / 120.0) < 1e-14


def test_tetrahedron_weight_sum():
    _, weights = simplex_rule(3)
    assert abs(weights.sum() - 1.0 / 6.0) < 1e-14


def test_dimension_out_of_range():
    with pytest.raises(ValueError):
        simplex_rule(4)


def test_facet_rules():
    # facets of 3D, 2D and 1D meshes: triangles, intervals and points
    assert [len(simplex_rule(d)[1]) for d in (2, 1, 0)] == [7, 3, 1]
    points, weights = simplex_rule(0)
    assert points.tolist() == [[1.0]] and weights.tolist() == [1.0]
