"""Degree-5 quadrature rules on reference simplices.

Rules are stored in barycentric coordinates with weights that sum to the
reference-simplex measure (1 for the unit interval, 1/2 for the unit
triangle, 1/6 for the unit tetrahedron), so that

    integral_K f dx  ~=~ (|K| / ref_measure) * sum_q w_q f(x_q).

The rules are 3-point Gauss-Legendre in 1D, a 7-point rule on the
triangle and a 15-point rule on the tetrahedron, each exact to degree 5.
That is not exact for the P1 residual: u^5 phi_i has degree 6 per cell,
and degree-6 barycentric monomials are missed by up to about 5%; the
negative-power and logarithm terms are approximated as well.  The
discretization stays consistent because the residual, the Jacobian and
the energy all use the same rule, so the assembled residual is the exact
gradient of the assembled energy (test_fem checks this by finite
differences).
"""

import math

import numpy as np

REFERENCE_MEASURE = {0: 1.0, 1: 1.0, 2: 0.5, 3: 1.0 / 6.0}


def _triangle():
    # Radon 7-point rule; weights below are normalized to 1 and scaled by
    # the reference area 1/2.
    s15 = math.sqrt(15.0)
    a = (6.0 - s15) / 21.0
    b = (6.0 + s15) / 21.0
    wa = (155.0 - s15) / 1200.0
    wb = (155.0 + s15) / 1200.0
    pts = [(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)]
    wts = [9.0 / 40.0]
    for v, w in ((a, wa), (b, wb)):
        rest = 1.0 - 2.0 * v
        pts += [(rest, v, v), (v, rest, v), (v, v, rest)]
        wts += [w, w, w]
    return np.array(pts), 0.5 * np.array(wts)


def _tetrahedron():
    # 15-point degree-5 rule (Keast); weights normalized to 1 and scaled
    # by the reference volume 1/6.
    s15 = math.sqrt(15.0)
    a = (7.0 + s15) / 34.0
    b = (7.0 - s15) / 34.0
    c = (10.0 - 2.0 * s15) / 40.0
    d = (10.0 + 2.0 * s15) / 40.0
    wa = (2665.0 - 14.0 * s15) / 37800.0
    wb = (2665.0 + 14.0 * s15) / 37800.0
    wcd = 10.0 / 189.0
    pts = [(0.25, 0.25, 0.25, 0.25)]
    wts = [16.0 / 135.0]
    for v, w in ((a, wa), (b, wb)):
        rest = 1.0 - 3.0 * v
        pts += [
            (rest, v, v, v),
            (v, rest, v, v),
            (v, v, rest, v),
            (v, v, v, rest),
        ]
        wts += [w] * 4
    # the six permutations of (c, c, d, d)
    pts += [
        (c, c, d, d),
        (c, d, c, d),
        (c, d, d, c),
        (d, c, c, d),
        (d, c, d, c),
        (d, d, c, c),
    ]
    wts += [wcd] * 6
    return np.array(pts), np.array(wts) / 6.0


def simplex_rule(dim):
    """(points, weights) of the degree-5 rule on the reference `dim`-simplex.

    points are (Q, dim+1) barycentric coordinates and weights (Q,)
    positive values summing to REFERENCE_MEASURE[dim]; dim is 0 to 3,
    where 0 is the single point (a facet of an interval) with weight 1.
    """
    if dim == 0:
        return np.array([[1.0]]), np.array([1.0])
    if dim == 1:
        x, w = np.polynomial.legendre.leggauss(3)
        t = 0.5 * (x + 1.0)
        return np.column_stack([1.0 - t, t]), 0.5 * w
    if dim == 2:
        return _triangle()
    if dim == 3:
        return _tetrahedron()
    raise ValueError(f"no quadrature rule for dimension {dim}")
