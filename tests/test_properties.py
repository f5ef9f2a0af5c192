"""Property tests of the assembled system at mu: B(mu) = J + mu M and
f = G - mu H, on small random meshes with mixed boundary markers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from barrierfem.fem import apply_dirichlet, assemble_jacobian, assemble_residual, compute_energy
from barrierfem.mesh import (
    Marker,
    generate_annulus_mesh,
    generate_interval_mesh,
    generate_shell_mesh,
)
from barrierfem.problem import FeFunction, ProblemSpec

# few examples, no deadline and a fixed example sequence keep tier-1
# short and reproducible
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

MARKERS = st.sampled_from([Marker.DIRICHLET, Marker.ROBIN])
FD_STEP = 1e-6


@st.composite
def meshes(draw):
    """An interval, annulus or shell mesh with at least one interior vertex."""
    kind = draw(st.sampled_from(["interval", "annulus", "shell"]))
    inner, outer = draw(MARKERS), draw(MARKERS)
    r_in = draw(st.floats(0.2, 2.0))
    r_out = r_in * draw(st.floats(1.5, 4.0))
    if kind == "interval":
        return generate_interval_mesh(r_in, r_out, draw(st.integers(2, 12)), left=inner, right=outer)
    if kind == "annulus":
        return generate_annulus_mesh(
            r_in, r_out, draw(st.integers(2, 3)), draw(st.integers(5, 9)), inner=inner, outer=outer
        )
    return generate_shell_mesh(r_in, r_out, 0, inner=inner, outer=outer, n_layers=2)


@st.composite
def specs(draw):
    """A spec with a subset of the Hamiltonian-constraint exponents."""
    coefficient = st.floats(-2.0, 2.0)
    exponents = draw(st.sets(st.sampled_from([1, 5, -3, -7]), min_size=1))
    return ProblemSpec(
        diffusion=draw(st.floats(0.5, 3.0)),
        power_terms=tuple((p, draw(coefficient)) for p in sorted(exponents)),
        robin_coeff=draw(st.floats(0.0, 2.0)),
        robin_data=draw(st.floats(-1.0, 1.0)),
        dirichlet_data=draw(st.floats(0.5, 2.0)),
    )


@st.composite
def cases(draw):
    """(spec, mesh, u, w, mu): a positive state, a free direction, a mu > 0."""
    mesh, spec = draw(meshes()), draw(specs())
    n = mesh.num_vertices
    u = apply_dirichlet(draw(arrays(float, n, elements=st.floats(0.5, 2.0))), mesh, spec)
    free = np.ones(n, dtype=bool)
    free[mesh.dirichlet_vertices()] = False
    w = np.where(free, draw(arrays(float, n, elements=st.floats(-1.0, 1.0))), 0.0)
    if not w.any():
        w[np.flatnonzero(free)[0]] = 1.0
    return spec, mesh, u.coefficients, w, draw(st.floats(0.01, 10.0))


@PROPERTY_SETTINGS
@given(cases())
def test_system_matrix_exactly_symmetric(case):
    spec, mesh, u, _, mu = case
    for m in (0.0, mu):
        b = assemble_jacobian(spec, mesh, u, m).jacobian.toarray()
        assert np.array_equal(b, b.T)


@PROPERTY_SETTINGS
@given(cases())
def test_residual_is_energy_gradient(case):
    spec, mesh, u, w, mu = case
    for m in (0.0, mu):
        residual = assemble_residual(spec, mesh, u, m)
        energy = compute_energy(spec, mesh, u, m)
        fd = (
            compute_energy(spec, mesh, u + FD_STEP * w, m)
            - compute_energy(spec, mesh, u - FD_STEP * w, m)
        ) / (2 * FD_STEP)
        assert abs(fd - float(w @ residual)) <= 1e-6 * max(1.0, abs(energy))


@PROPERTY_SETTINGS
@given(cases())
def test_system_matrix_is_residual_derivative(case):
    spec, mesh, u, w, mu = case
    for m in (0.0, mu):
        bw = assemble_jacobian(spec, mesh, u, m).jacobian @ w
        fd = (
            assemble_residual(spec, mesh, u + FD_STEP * w, m)
            - assemble_residual(spec, mesh, u - FD_STEP * w, m)
        ) / (2 * FD_STEP)
        assert np.linalg.norm(fd - bw) <= 1e-5 * np.linalg.norm(bw)
