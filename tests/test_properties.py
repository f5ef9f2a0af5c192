"""Property tests of the assembled system at mu, B(mu) = J + mu M and
f = G - mu H, of the Jacobian's reuse of a State's power pass, of
the barrier gradient H and of the energy on small random meshes with
mixed boundary markers; of the positivity cap of the safeguarded
step; and of the barrier's mu schedule."""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from barrierfem import fem
from barrierfem.errors import NonpositiveState
from barrierfem.fem import (
    apply_dirichlet,
    assemble_barrier_gradient,
    assemble_jacobian,
    State,
    assemble_residual,
    compute_energy,
)
from barrierfem.mesh import (
    Marker,
    SimplicialMesh,
    generate_annulus_mesh,
    generate_interval_mesh,
    generate_shell_mesh,
)
from barrierfem.problem import ProblemSpec
from barrierfem.solvers import EPS, GAMMA, MU_POWER, _mu_schedule, step_to_boundary

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
        b = assemble_jacobian(spec, mesh, u, m).toarray()
        assert np.array_equal(b, b.T)


@PROPERTY_SETTINGS
@given(cases())
def test_jacobian_after_residual_equals_a_cold_one(case):
    """A Jacobian at a State whose residual was assembled, at that
    residual's mu or another, equals bit for bit one at the plain vector,
    which runs its own pass; it always reuses the residual's pass, as the
    barrier is no part of it.  A State's coefficients are read-only."""
    spec, mesh, u, w, mu = case
    for residual_mu in (0.0, mu):
        state = State(u.copy())
        with pytest.raises(ValueError):
            state.coefficients[0] += w[0]
        assemble_residual(spec, mesh, state, residual_mu)
        kept = state.power_pass
        for m in (residual_mu, 0.1 * mu, 0.0, mu):
            cold = assemble_jacobian(spec, mesh, u, m).data
            with mock.patch.object(fem, "_power_pass", wraps=fem._power_pass) as passes:
                warm = assemble_jacobian(spec, mesh, state, m).data
            assert np.array_equal(warm, cold)
            assert passes.call_count == 0
            assert state.power_pass is kept


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
        bw = assemble_jacobian(spec, mesh, u, m) @ w
        fd = (
            assemble_residual(spec, mesh, u + FD_STEP * w, m)
            - assemble_residual(spec, mesh, u - FD_STEP * w, m)
        ) / (2 * FD_STEP)
        assert np.linalg.norm(fd - bw) <= 1e-5 * np.linalg.norm(bw)


@PROPERTY_SETTINGS
@given(cases(), st.floats(0.0, 10.0))
def test_residual_shifts_in_mu_by_the_barrier_gradient(case, mu2):
    """f(u, mu2) = f(u, mu1) + (mu1 - mu2) H(u), within 1e-12 of sum|terms|;
    H is zero on the Dirichlet entries and positive on the free ones."""
    spec, mesh, u, _, mu1 = case
    barrier = assemble_barrier_gradient(mesh, u)
    fixed = np.zeros(mesh.num_vertices, dtype=bool)
    fixed[mesh.dirichlet_vertices()] = True
    assert np.all(barrier[fixed] == 0.0) and np.all(barrier[~fixed] > 0)
    f1 = assemble_residual(spec, mesh, u, mu1)
    shifted = f1 + (mu1 - mu2) * barrier
    terms = np.sum(np.abs(f1) + np.abs((mu1 - mu2) * barrier))
    assert np.max(np.abs(shifted - assemble_residual(spec, mesh, u, mu2))) <= 1e-12 * terms


@PROPERTY_SETTINGS
@given(cases(), st.data())
def test_barrier_gradient_rejects_nonpositive_state(case, data):
    """u < 0 at any vertex, or u = 0 at a free vertex, raises; u = 0 at a
    Dirichlet vertex (zero boundary data) gives a finite H."""
    _, mesh, u, _, _ = case
    u = u.copy()
    i = data.draw(st.integers(0, len(u) - 1))
    u[i] = data.draw(st.just(0.0) | st.floats(-2.0, 0.0))
    if u[i] == 0 and i in mesh.dirichlet_vertices():
        assert np.all(np.isfinite(assemble_barrier_gradient(mesh, u)))
    else:
        with pytest.raises(NonpositiveState):
            assemble_barrier_gradient(mesh, u)


@PROPERTY_SETTINGS
@given(cases(), st.randoms(use_true_random=False))
def test_energy_invariant_under_vertex_permutation(case, random):
    """Renumbering the vertices, with the state renumbered alike, leaves
    the energy unchanged at mu = 0 and mu > 0."""
    spec, mesh, u, _, mu = case
    perm = np.array(random.sample(range(mesh.num_vertices), mesh.num_vertices))
    new_index = np.argsort(perm)  # old vertex perm[i] becomes vertex i
    permuted = SimplicialMesh(
        mesh.dim,
        mesh.vertices[perm],
        new_index[mesh.cells],
        new_index[mesh.facets],
        np.where(mesh.robin, "robin", "dirichlet"),
    )
    for m in (0.0, mu):
        energy = compute_energy(spec, mesh, u, m)
        assert abs(compute_energy(spec, permuted, u[perm], m) - energy) <= 1e-12 * max(
            1.0, abs(energy)
        )


@PROPERTY_SETTINGS
@given(cases(), st.data())
def test_energy_tends_to_infinity_as_a_free_value_tends_to_zero(case, data):
    """The barrier is infinite on each face u_i = 0 of a free vertex: with
    the other values fixed, the energy at mu > 0 rises by at least
    0.99 mu m_i ln(t1 / t2) as u_i falls from t1 to t2, where m_i = int
    phi_i is the volume of the vertex's cells over d + 1."""
    spec, mesh, u, _, mu = case
    free = np.setdiff1d(np.arange(mesh.num_vertices), mesh.dirichlet_vertices())
    i = data.draw(st.sampled_from(free.tolist()))
    mass = mesh.cell_volumes[np.any(mesh.cells == i, axis=1)].sum() / (mesh.dim + 1)
    values = (1e-30, 1e-100, 1e-300)
    energies = [compute_energy(spec, mesh, np.where(np.arange(len(u)) == i, t, u), mu)
                for t in values]
    for k in range(len(values) - 1):
        rise = 0.99 * mu * mass * math.log(values[k] / values[k + 1])
        assert energies[k + 1] - energies[k] >= rise


@PROPERTY_SETTINGS
@given(
    st.integers(1, 30).flatmap(lambda n: st.tuples(
        arrays(float, n, elements=st.floats(1e-6, 1e3)),
        arrays(float, n, elements=st.floats(-1e3, 1e3)),
        arrays(bool, n),
        arrays(float, n, elements=st.floats(-2.0, 2.0)),
    )),
    st.lists(st.floats(0.0, 1.0), max_size=5),
)
def test_step_to_boundary_keeps_free_dofs_positive(vectors, fractions):
    """For every alpha up to the cap, u + alpha w > 0 on the free dofs;
    the fixed dofs, of any sign, do not limit the step."""
    u, w, free, fixed_values = vectors
    u = np.where(free, u, fixed_values)
    cap = step_to_boundary(u, w, free=free)
    assert 0 < cap <= 1
    for alpha in [cap] + [cap * t for t in fractions]:
        assert np.all((u + alpha * w)[free] > 0)
    if not np.any(w[free] < 0):
        assert cap == 1.0


@PROPERTY_SETTINGS
@given(st.floats(0.0, 1.7e308))
@example(1.0)
@example(1e300)
@example(1.7e308)
@example(1e-8)
def test_mu_schedule_is_the_superlinear_rule(mu0):
    """Each stage is min(GAMMA a, a sqrt(a)) of the one before, the stages
    fall strictly and stay >= EPS, the next one would not, and there are
    no more of them than in the geometric schedule mu0, GAMMA mu0, ...
    No finite mu0 overflows into an error."""
    schedule = _mu_schedule(mu0)
    step = lambda a: min(GAMMA * a, a * math.sqrt(a))
    assert schedule[:1] == ([mu0] if mu0 >= EPS else [])
    for a, b in zip(schedule, schedule[1:]):
        assert b == step(a) and b < a
    assert all(mu >= EPS for mu in schedule)
    if schedule:
        assert step(schedule[-1]) < EPS
    for a in schedule:  # a * sqrt(a) is a ** MU_POWER where that is a normal float
        if a <= 1 and a**MU_POWER >= sys.float_info.min:
            assert math.isclose(a * math.sqrt(a), a**MU_POWER, rel_tol=1e-15)
    geometric, mu = 0, mu0
    while mu >= EPS:
        geometric, mu = geometric + 1, mu * GAMMA
    assert len(schedule) <= geometric
