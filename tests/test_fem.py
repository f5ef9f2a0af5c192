"""Assembly: residual/Jacobian/energy consistency, constraints, MMS."""

import functools
import gc
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from barrierfem import fem, problem
from barrierfem.errors import (
    CoefficientViolation, DimensionMismatch, NonpositiveState, ValidationError,
)
from barrierfem.fem import (
    State,
    apply_dirichlet,
    assemble_barrier_gradient,
    assemble_jacobian,
    assemble_residual,
    compute_energy,
    l2_error,
    workspace_for,
)
from barrierfem.mesh import (
    Marker,
    SimplicialMesh,
    generate_annulus_mesh,
    generate_interval_mesh,
    generate_shell_mesh,
)
from barrierfem.problem import FeFunction, ProblemSpec, builtin_example
from barrierfem.solvers import barrier_solve, newton_safeguarded, newton_standard


@pytest.fixture(scope="module")
def annulus_mixed():
    return generate_annulus_mesh(1, 2, 3, 12, inner=Marker.DIRICHLET, outer=Marker.ROBIN)


@pytest.fixture(scope="module")
def small_shell():
    return generate_shell_mesh(1, 3, 1)


def random_positive_state(mesh, seed=0, lo=0.6, hi=1.8):
    rng = np.random.default_rng(seed)
    return FeFunction(rng.uniform(lo, hi, mesh.num_vertices)), rng


def barrier_part(spec, mesh, u, mu):
    """mu M as B(mu) - B(0): the two Jacobians share one CSR pattern."""
    return assemble_jacobian(spec, mesh, u, mu) - assemble_jacobian(spec, mesh, u, 0.0)


class TestResidual:
    def test_constant_state_pure_diffusion(self):
        mesh = generate_interval_mesh(0, 1, 4, left=Marker.ROBIN, right=Marker.ROBIN)
        residual = assemble_residual(ProblemSpec(), mesh, FeFunction.constant(mesh, 3.0))
        assert np.abs(residual).max() == 0.0

    def test_hand_assembled_tridiagonal(self):
        # oracle: 1D stiffness is (1/h) [-1, 2, -1]; robin markers with a
        # zero robin coefficient leave the matrix unconstrained
        n, h = 4, 0.25
        mesh = generate_interval_mesh(0, 1, n, left=Marker.ROBIN, right=Marker.ROBIN)
        matrix = assemble_jacobian(ProblemSpec(), mesh, FeFunction.constant(mesh, 1.0))
        hand = np.zeros((n + 1, n + 1))
        for i in range(n):
            hand[i, i] += 1 / h
            hand[i + 1, i + 1] += 1 / h
            hand[i, i + 1] -= 1 / h
            hand[i + 1, i] -= 1 / h
        assert np.allclose(matrix.toarray(), hand, rtol=1e-13, atol=1e-13)
        # applied to linear data the interior rows are in equilibrium
        x = mesh.vertices[:, 0]
        residual = assemble_residual(ProblemSpec(), mesh, FeFunction(x.copy()))
        assert np.abs(residual[1:-1]).max() < 1e-13

    def test_robin_point_terms_1d(self):
        # residual at a 1D robin endpoint is exactly (c*u - g)
        spec = ProblemSpec(robin_coeff=2.0, robin_data=3.0)
        mesh = generate_interval_mesh(0, 1, 4, left=Marker.ROBIN, right=Marker.ROBIN)
        residual = assemble_residual(spec, mesh, FeFunction.constant(mesh, 5.0))
        assert np.isclose(residual[0], 2.0 * 5.0 - 3.0, rtol=1e-14)
        assert np.isclose(residual[-1], 7.0, rtol=1e-14)
        assert np.abs(residual[1:-1]).max() < 1e-13

    def test_energy_gradient_consistency(self, annulus_mixed):
        spec = builtin_example(1)
        u, rng = random_positive_state(annulus_mixed, seed=1)
        u = apply_dirichlet(u, annulus_mixed, ProblemSpec(dirichlet_data=1.0))
        mask = workspace_for(annulus_mixed).dirichlet_mask
        for mu in (0.0, 0.1, 1.0):
            residual = assemble_residual(spec, annulus_mixed, u, mu)
            energy = compute_energy(spec, annulus_mixed, u, mu)
            for _ in range(5):
                v = rng.standard_normal(annulus_mixed.num_vertices)
                v[mask] = 0.0
                t = 1e-6
                up = FeFunction(u.coefficients + t * v)
                um = FeFunction(u.coefficients - t * v)
                fd = (
                    compute_energy(spec, annulus_mixed, up, mu)
                    - compute_energy(spec, annulus_mixed, um, mu)
                ) / (2 * t)
                assert abs(fd - float(v @ residual)) <= 1e-6 * max(1.0, abs(energy))


class TestJacobian:
    def test_matvec_finite_difference(self, annulus_mixed):
        spec = builtin_example(1)
        u, rng = random_positive_state(annulus_mixed, seed=2)
        mask = workspace_for(annulus_mixed).dirichlet_mask
        for mu in (0.0, 0.5):
            matrix = assemble_jacobian(spec, annulus_mixed, u, mu)
            for _ in range(3):
                w = rng.standard_normal(annulus_mixed.num_vertices)
                w[mask] = 0.0
                t = 1e-6
                rp = assemble_residual(spec, annulus_mixed, FeFunction(u.coefficients + t * w), mu)
                rm = assemble_residual(spec, annulus_mixed, FeFunction(u.coefficients - t * w), mu)
                fd = (rp - rm) / (2 * t)
                bw = matrix @ w
                assert np.linalg.norm(fd - bw) / np.linalg.norm(bw) < 1e-5

    def test_barrier_matrix_is_mass_matrix_at_one(self):
        # u == 1, so M = B(1) - B(0) is diag(m), whose rows sum to the
        # lumped mass m_i, the vertex patch volume / (d+1)
        mesh = generate_annulus_mesh(1, 2, 2, 8)
        u = FeFunction.constant(mesh, 1.0)
        m = barrier_part(ProblemSpec(), mesh, u, 1.0)
        rows = m.toarray().sum(axis=1)
        patch = np.zeros(mesh.num_vertices)
        for cell, vol in zip(mesh.cells, mesh.cell_volumes):
            patch[cell] += vol / 3.0
        assert np.allclose(rows, patch, rtol=1e-13)

    def test_barrier_matrix_positive_definite(self, annulus_mixed):
        spec = builtin_example(1)
        u, rng = random_positive_state(annulus_mixed, seed=3)
        mask = workspace_for(annulus_mixed).dirichlet_mask
        m = barrier_part(spec, annulus_mixed, u, 1.0)
        for _ in range(50):
            x = rng.standard_normal(annulus_mixed.num_vertices)
            x[mask] = 0.0
            assert float(x @ (m @ x)) > 0.0

    def test_exact_symmetry(self, annulus_mixed, small_shell):
        spec = builtin_example(1)
        for mesh in (annulus_mixed, small_shell):
            u, _ = random_positive_state(mesh, seed=4)
            for mu in (0.0, 1.0):
                b = assemble_jacobian(spec, mesh, u, mu).toarray()
                assert np.abs(b - b.T).max() == 0.0

    def test_dirichlet_reduction(self, annulus_mixed):
        spec = builtin_example(3)
        u = apply_dirichlet(FeFunction.constant(annulus_mixed, 2.0), annulus_mixed, spec)
        mask = workspace_for(annulus_mixed).dirichlet_mask
        b = assemble_jacobian(spec, annulus_mixed, u, mu=0.5).toarray()
        idx = np.flatnonzero(mask)
        for i in idx:
            row = np.zeros(len(mask))
            row[i] = 1.0
            assert np.array_equal(b[i], row)
            assert np.array_equal(b[:, i], row)
        assert np.all(assemble_residual(spec, annulus_mixed, u, mu=0.5)[mask] == 0.0)


# 1D, 2D and 3D meshes with one Dirichlet and one Robin boundary part
MIXED_MESHES = {
    "1d": lambda: generate_interval_mesh(0, 1, 9, left=Marker.DIRICHLET, right=Marker.ROBIN),
    "2d": lambda: generate_annulus_mesh(1, 2, 3, 12, inner=Marker.DIRICHLET, outer=Marker.ROBIN),
    "3d": lambda: generate_shell_mesh(1, 3, 1, inner=Marker.ROBIN, outer=Marker.DIRICHLET),
}


PATTERN_SPEC = ProblemSpec(
    diffusion=lambda x: 1.0 + 0.1 * np.sum(np.atleast_2d(x) ** 2, axis=1),
    power_terms=((1, 1.0), (-3, 0.5)),
    robin_coeff=2.0,
    robin_data=1.0,
    dirichlet_data=1.0,
)


def _reference_gradients(mesh):
    """(M, d+1, d) gradients of the barycentric coordinates: row i of the
    inverse of [1 | x_j] holds the affine coefficients of lambda_i."""
    pts = mesh.vertices[mesh.cells]
    aug = np.concatenate([np.ones(pts.shape[:2] + (1,)), pts], axis=2)
    return np.transpose(np.linalg.inv(aug)[:, 1:, :], (0, 2, 1))


def _reference_local(spec, mesh):
    """Full local stiffness matrices (M, k, k) and Robin mass matrices
    (B, k-1, k-1), with the Robin coefficient read from the spec."""
    ws = workspace_for(mesh)
    grads = _reference_gradients(mesh)
    diffusion = spec.diffusion(ws.xq_flat).reshape(ws.wq.shape)
    diff_w = np.einsum("mq,mq->m", ws.wq, diffusion)
    stiffness = np.einsum("m,mid,mjd->mij", diff_w, grads, grads)
    fphi = np.einsum("qi,qj->qij", ws.flam, ws.flam)
    robin_coeff = spec.robin_coeff(ws.fxq_flat).reshape(ws.fwq.shape)
    return stiffness, np.einsum("fq,qij->fij", ws.fwq * robin_coeff, fphi)


def _reference_lumped_mass(mesh):
    """m_i = int phi_i as the row sums of the consistent mass matrix, from
    full local matrices summed by scipy's COO -> CSR build, with the
    Dirichlet entries zeroed."""
    ws = workspace_for(mesh)
    cells, n, k = mesh.cells, mesh.num_vertices, mesh.dim + 1
    local = np.einsum("mq,qi,qj->mij", ws.wq, ws.lam, ws.lam)
    rows = np.repeat(cells, k, axis=1).ravel()
    cols = np.tile(cells, (1, k)).ravel()
    mass = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return np.where(ws.dirichlet_mask, 0.0, np.asarray(mass.sum(axis=1)).ravel())


def _reference_matrices(spec, mesh, u):
    """J from full local matrices, summed by scipy's COO -> CSR build and
    reduced as D J D + I_fixed (D zeroes the Dirichlet part), and the
    nodal barrier's M = diag(m / u^2)."""
    ws = workspace_for(mesh)
    cells, n, k = mesh.cells, mesh.num_vertices, mesh.dim + 1
    uq = u[cells] @ ws.lam.T
    phi = np.einsum("qi,qj->qij", ws.lam, ws.lam)
    jac, fjac = _reference_local(spec, mesh)
    jac += np.einsum("mq,qij->mij", ws.wq * (1.0 - 1.5 * uq**-4), phi)
    rows = np.repeat(cells, k, axis=1).ravel()
    cols = np.tile(cells, (1, k)).ravel()
    facets = ws.robin_idx
    jrows = np.concatenate([rows, np.repeat(facets, k - 1, axis=1).ravel()])
    jcols = np.concatenate([cols, np.tile(facets, (1, k - 1)).ravel()])
    jvals = np.concatenate([jac.ravel(), fjac.ravel()])
    a = sp.coo_matrix((jvals, (jrows, jcols)), shape=(n, n)).tocsr().toarray()
    free = ~ws.dirichlet_mask
    keep = np.outer(free, free)
    m = np.diag(_reference_lumped_mass(mesh) / u**2)
    return np.where(keep, a, 0.0) + np.diag((~free).astype(float)), m


def _pattern_keys(ws, indptr, indices):
    """Row-major keys i * n + j of a CSR pattern's slots, in slot order."""
    rows = np.repeat(np.arange(ws.num_vertices), np.diff(indptr))
    return rows * ws.num_vertices + indices


def _full_bincount(ws, local, vertex_sets):
    """Full-pattern data of the upper-triangle local matrices local[s],
    (E, K), on the simplices vertex_sets[s], (E, k): every (i, j) and
    (j, i) entry of the full k x k local matrices, in the order given,
    goes to its own slot, found by searchsorted, in one bincount."""
    keys, vals = [], []
    for upper, verts in zip(local, vertex_sets):
        k = verts.shape[1]
        iu, ju = np.triu_indices(k)
        sym = np.empty((k, k), dtype=np.intp)
        sym[iu, ju] = sym[ju, iu] = np.arange(len(iu))
        rows, cols = np.divmod(np.arange(k * k), k)
        keys.append((verts[:, rows] * ws.num_vertices + verts[:, cols]).ravel())
        vals.append(upper[:, sym.ravel()].ravel())
    full_keys = _pattern_keys(ws, ws.full_indptr, ws.full_indices)
    slots = np.searchsorted(full_keys, np.concatenate(keys))
    assert np.array_equal(full_keys[slots], np.concatenate(keys))
    return np.bincount(slots, weights=np.concatenate(vals), minlength=len(full_keys))


def _full_scatter(ws, local):
    """Reduced-pattern data from (M, K) upper-triangle local cell matrices:
    the full bincount, restricted to the free-free slots of the reduced
    pattern (its fixed diagonal receives nothing)."""
    data = _full_bincount(ws, [local], [ws.cells])
    full_keys = _pattern_keys(ws, ws.full_indptr, ws.full_indices)
    reduced_keys = _pattern_keys(ws, ws.indptr, ws.indices)
    free = ~ws.dirichlet_mask
    i, j = np.divmod(reduced_keys, ws.num_vertices)
    return np.where(free[i] & free[j], data[np.searchsorted(full_keys, reduced_keys)], 0.0)


def _reference_residual(spec, mesh, u, mu):
    """f from full local matrices times the local state, the power terms
    u + 0.5 u^-3 and a source and a Robin load, each summed at the
    vertices with np.add.at, and the nodal barrier -mu m / u; the
    Dirichlet entries are zeroed."""
    ws = workspace_for(mesh)
    stiffness, robin_mass = _reference_local(spec, mesh)
    uq = u[mesh.cells] @ ws.lam.T
    source = spec.source(ws.xq_flat).reshape(uq.shape)
    power = ws.wq * (uq + 0.5 * uq**-3 - source)
    robin_data = spec.robin_data(ws.fxq_flat).reshape(ws.fwq.shape)
    residual = np.zeros(mesh.num_vertices)
    np.add.at(residual, mesh.cells, np.einsum("mij,mj->mi", stiffness, u[mesh.cells]))
    np.add.at(residual, mesh.cells, power @ ws.lam)
    facets = ws.robin_idx
    np.add.at(residual, facets, np.einsum("fij,fj->fi", robin_mass, u[facets]))
    np.add.at(residual, facets, -(ws.fwq * robin_data) @ ws.flam)
    residual -= mu * _reference_lumped_mass(mesh) / u
    residual[ws.dirichlet_mask] = 0.0
    return residual


class TestAssemblyPattern:
    """The per-mesh CSR pattern and the bincount scatter of B(mu) = J + mu M."""

    @pytest.fixture(scope="class", params=sorted(MIXED_MESHES))
    def case(self, request):
        mesh = MIXED_MESHES[request.param]()
        u, _ = random_positive_state(mesh, seed=7)
        u = apply_dirichlet(u, mesh, PATTERN_SPEC)
        matrices = {mu: assemble_jacobian(PATTERN_SPEC, mesh, u, mu) for mu in (0.0, 0.7)}
        return mesh, u, matrices

    def test_exact_symmetry(self, case):
        _, _, matrices = case
        for matrix in matrices.values():
            a = matrix.toarray()
            assert np.array_equal(a, a.T)

    def test_shared_pattern(self, case):
        mesh, _, matrices = case
        ws = workspace_for(mesh)
        for matrix in matrices.values():
            assert matrix.indptr is ws.indptr
            assert matrix.indices is ws.indices

    def test_matches_coo_reference(self, case):
        mesh, u, matrices = case
        ref_j, ref_m = _reference_matrices(PATTERN_SPEC, mesh, u.coefficients)
        for mu, matrix in matrices.items():
            ref = ref_j + mu * ref_m
            err = np.abs(matrix.toarray() - ref).max()
            assert err <= 1e-13 * np.abs(ref).max()

    def test_residual_matches_reference(self, case):
        mesh, u, _ = case
        spec = replace(
            PATTERN_SPEC,
            robin_data=lambda x: 1.0 - 0.5 * np.atleast_2d(x)[:, 0],
            source=lambda x: 3.0 + np.sum(np.atleast_2d(x), axis=1),
        )
        for mu in (0.0, 0.7):
            ref = _reference_residual(spec, mesh, u.coefficients, mu)
            err = np.abs(assemble_residual(spec, mesh, u, mu) - ref).max()
            assert err <= 1e-13 * np.abs(ref).max()

    def test_scatter_matches_full_bincount(self, case):
        mesh, _, _ = case
        ws = workspace_for(mesh)
        k = mesh.dim + 1
        local = np.random.default_rng(3).standard_normal((len(mesh.cells), k * (k + 1) // 2))
        assert np.array_equal(ws.scatter(local, 0.0), _full_scatter(ws, local))

    def test_operator_matches_full_bincount(self, case):
        mesh, _, _ = case
        ws = workspace_for(mesh)
        # the upper-triangle local matrices, computed as fields_for does
        diffusion = PATTERN_SPEC.diffusion(ws.xq_flat).reshape(ws.wq.shape)
        stiffness = (ws.scale * (diffusion @ ws.qw))[:, None] * ws.grad_gram
        robin_coeff = PATTERN_SPEC.robin_coeff(ws.fxq_flat).reshape(ws.fwq.shape)
        robin_mass = (ws.fwq * robin_coeff) @ ws.fphi2
        assert len(robin_mass)
        ref = _full_bincount(ws, [stiffness, robin_mass], [ws.cells, ws.robin_idx])
        assert np.array_equal(ws.fields_for(PATTERN_SPEC)["operator"].data, ref)

    def test_constant_kept_by_construction(self, case):
        """A number's coefficient is kept as a scalar and a callable's at
        every point, even where its values are equal, with the same bits."""
        mesh, u, _ = case
        ws = workspace_for(mesh)
        number = replace(PATTERN_SPEC, power_terms=((5, 0.5),))
        callable_ = replace(PATTERN_SPEC, power_terms=((5, lambda x: np.full(len(x), 0.5)),))
        [(_, c)] = ws.fields_for(number)["coeffs"]
        assert np.ndim(c) == 0 and c == 0.5
        [(_, c)] = ws.fields_for(callable_)["coeffs"]
        assert c.shape == ws.wq.shape and np.all(c == 0.5)
        for mu in (0.0, 0.7):
            _assert_same_bits(assemble_residual(callable_, mesh, u, mu),
                              assemble_residual(number, mesh, u, mu))
            _assert_same_bits(assemble_jacobian(callable_, mesh, u, mu).data,
                              assemble_jacobian(number, mesh, u, mu).data)

    def test_dirichlet_rows_and_columns(self, case):
        mesh, _, matrices = case
        mask = workspace_for(mesh).dirichlet_mask
        assert mask.any() and not mask.all()
        eye = np.eye(mesh.num_vertices)
        for matrix in matrices.values():
            b = matrix.toarray()
            assert np.array_equal(b[mask], eye[mask])
            assert np.array_equal(b[:, mask], eye[:, mask])


#: _BLOCK_ELEMENTS values for TestBlocks.  1 is below Q, so every pass
#: takes the 4-row floor (the 1D mesh's 9 cells as 4 + 5: a last row joins
#: the block before it); 150 and 660 give ragged last blocks (2D: 20-row
#: blocks of the pass, 3D: 44-row blocks of the pass and 20-row ones of
#: grad_gram's)
BLOCK_ELEMENTS = [1, 150, 660]


@functools.cache
def _blocked_values(name, block_elements):
    """What the per-block passes give on a new MIXED_MESHES[name] at
    _BLOCK_ELEMENTS = block_elements (None: the module's own, one block on
    these meshes): the workspace's grad_gram, fields_for's A, b and
    coefficients, and at a positive state the residual, the Jacobian data
    (from the residual's kept pass and from a pass of its own), the energy,
    the barrier gradient and the L2 error."""
    size = block_elements or fem._BLOCK_ELEMENTS
    with mock.patch.object(fem, "_BLOCK_ELEMENTS", size):
        mesh = MIXED_MESHES[name]()
        ws = workspace_for(mesh)
        # constant on the first 4-row block and varying after it: a
        # callable, so fields_for keeps it at every point from the first block
        cut = ws.xq_flat[: 4 * len(ws.lam), 0].max()
        spec = replace(
            PATTERN_SPEC,
            power_terms=((1, 1.0), (-3, lambda x: np.maximum(np.atleast_2d(x)[:, 0], cut)),
                         (5, lambda x: 1.0 + 0.1 * np.atleast_2d(x)[:, -1] ** 2)),
            source=lambda x: 3.0 + np.sum(np.atleast_2d(x), axis=1),
        )
        fields = ws.fields_for(spec)
        values = {
            "grad_gram": ws.grad_gram,
            "operator": fields["operator"].data,
            "load": fields["load"],
            "coeffs": [(p, np.ndim(c), np.asarray(c)) for p, c in fields["coeffs"]],
        }
        u = apply_dirichlet(random_positive_state(mesh, seed=3)[0], mesh, spec).coefficients
        for mu in (0.0, 0.7):
            state = State(u)
            values[f"residual at {mu}"] = assemble_residual(spec, mesh, state, mu)
            values[f"kept-pass jacobian at {mu}"] = assemble_jacobian(spec, mesh, state, mu).data
            values[f"jacobian at {mu}"] = assemble_jacobian(spec, mesh, u, mu).data
            values[f"energy at {mu}"] = np.array(compute_energy(spec, mesh, u, mu))
        values["barrier gradient"] = assemble_barrier_gradient(mesh, u)
        values["l2 error"] = np.array(
            l2_error(mesh, u, lambda x: 2.0 + np.sin(3.0 * np.atleast_2d(x)[:, 0])))
    return values


def _assert_same_bits(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("block_elements", BLOCK_ELEMENTS)
@pytest.mark.parametrize("name", sorted(MIXED_MESHES))
class TestBlocks:
    """Every per-block pass gives the bits of its default blocks at blocks
    of a few rows."""

    def assert_blocked_matches(self, name, block_elements, *keys):
        blocked, default = _blocked_values(name, block_elements), _blocked_values(name, None)
        for key in keys:
            _assert_same_bits(blocked[key], default[key])

    def test_grad_gram(self, name, block_elements):
        self.assert_blocked_matches(name, block_elements, "grad_gram")

    def test_fields(self, name, block_elements):
        self.assert_blocked_matches(name, block_elements, "operator", "load")
        blocked, default = _blocked_values(name, block_elements), _blocked_values(name, None)
        assert [c[:2] for c in default["coeffs"]] == [(1, 0), (-3, 2), (5, 2)]
        assert [c[:2] for c in blocked["coeffs"]] == [c[:2] for c in default["coeffs"]]
        for got, want in zip(blocked["coeffs"], default["coeffs"]):
            _assert_same_bits(got[2], want[2])

    def test_residual(self, name, block_elements):
        self.assert_blocked_matches(name, block_elements, "residual at 0.0", "residual at 0.7")

    def test_jacobian(self, name, block_elements):
        self.assert_blocked_matches(name, block_elements, *(
            f"{kind}jacobian at {mu}" for kind in ("", "kept-pass ") for mu in (0.0, 0.7)
        ))

    def test_barrier_gradient(self, name, block_elements):
        self.assert_blocked_matches(name, block_elements, "barrier gradient")

    def test_energy_and_l2_error(self, name, block_elements):
        self.assert_blocked_matches(name, block_elements, "energy at 0.0", "energy at 0.7",
                                    "l2 error")


def test_workspace_freed_with_mesh():
    """A State's power pass, which the residual keeps for the Jacobian,
    does not keep a mesh's workspace alive."""
    mesh = generate_annulus_mesh(1, 2, 2, 8, inner=Marker.DIRICHLET, outer=Marker.ROBIN)
    state = State(np.ones(mesh.num_vertices))
    assemble_residual(PATTERN_SPEC, mesh, state, mu=0.5)
    assemble_jacobian(PATTERN_SPEC, mesh, state, mu=0.5)
    assert state.power_pass is not None
    mesh_ref = weakref.ref(mesh)
    ws_ref = weakref.ref(workspace_for(mesh))
    del mesh
    gc.collect()
    assert mesh_ref() is None
    assert ws_ref() is None


def test_jacobian_at_a_state_of_another_spec_runs_its_own_pass(small_shell, monkeypatch):
    u, _ = random_positive_state(small_shell)
    state = State(u.coefficients.copy())
    assemble_residual(builtin_example(1), small_shell, state, 0.5)
    spec = builtin_example(3)
    passes = []
    real_pass = fem._power_pass
    monkeypatch.setattr(fem, "_power_pass",
                        lambda *a, **k: passes.append(1) or real_pass(*a, **k))
    b = assemble_jacobian(spec, small_shell, state, 0.5)
    assert len(passes) == 1
    assert np.array_equal(b.data, assemble_jacobian(spec, small_shell, u, 0.5).data)


def test_state_keeps_its_own_coefficients():
    """Writing the array a State was made from after its residual changes
    neither the state nor the Jacobian at it, which reuses that pass."""
    spec, mesh = builtin_example(1), generate_interval_mesh(0.1, 10.0, 20)
    a = np.ones(mesh.num_vertices)
    state = State(a)
    assemble_residual(spec, mesh, state, 0.5)
    a[3] = 2.0
    fresh = assemble_jacobian(spec, mesh, state.coefficients.copy(), 0.5)
    assert np.array_equal(assemble_jacobian(spec, mesh, state, 0.5).data, fresh.data)
    assert np.array_equal(state.coefficients, np.ones(mesh.num_vertices))


class TestEnergy:
    def test_zero_spec_zero_state(self):
        mesh = generate_interval_mesh(0, 1, 3, left=Marker.ROBIN, right=Marker.ROBIN)
        assert compute_energy(ProblemSpec(), mesh, FeFunction.constant(mesh, 0.0)) == 0.0

    def test_linear_state_constant_gradient(self):
        # int 0.5 * 2 * 1 dx = 1 over [0, 1]
        mesh = generate_interval_mesh(0, 1, 7, left=Marker.ROBIN, right=Marker.ROBIN)
        u = FeFunction(mesh.vertices[:, 0] + 1.0)
        energy = compute_energy(ProblemSpec(diffusion=2.0), mesh, u)
        assert np.isclose(energy, 1.0, rtol=1e-14)

    def test_barrier_term_constant_e(self):
        # -mu * sum m_i ln(e) = -|Omega| = -1: no vertex is Dirichlet
        mesh = generate_interval_mesh(0, 1, 5, left=Marker.ROBIN, right=Marker.ROBIN)
        u = FeFunction.constant(mesh, np.e)
        assert np.isclose(compute_energy(ProblemSpec(), mesh, u, mu=1.0), -1.0, rtol=1e-14)


class TestDirichlet:
    def test_example3_boundary_ones(self):
        mesh = generate_shell_mesh(1, 2, 0, inner=Marker.DIRICHLET, outer=Marker.DIRICHLET)
        spec = builtin_example(3)
        u = apply_dirichlet(FeFunction.constant(mesh, 7.0), mesh, spec)
        boundary = mesh.dirichlet_vertices()
        assert np.all(u.coefficients[boundary] == 1.0)

    def test_no_dirichlet_unchanged(self):
        mesh = generate_interval_mesh(0, 1, 3, left=Marker.ROBIN, right=Marker.ROBIN)
        u = FeFunction.constant(mesh, 7.0)
        out = apply_dirichlet(u, mesh, builtin_example(1))
        assert np.array_equal(out.coefficients, u.coefficients)

    def test_idempotent(self, annulus_mixed):
        spec = builtin_example(3)
        u = FeFunction.constant(annulus_mixed, 4.0)
        once = apply_dirichlet(u, annulus_mixed, spec)
        twice = apply_dirichlet(once, annulus_mixed, spec)
        assert np.array_equal(once.coefficients, twice.coefficients)


class TestGuards:
    def test_nonpositive_state_with_barrier(self, annulus_mixed):
        u = FeFunction.constant(annulus_mixed, 1.0)
        u.coefficients[3] = -0.1
        with pytest.raises(NonpositiveState):
            assemble_residual(builtin_example(1), annulus_mixed, u, mu=0.5)
        with pytest.raises(NonpositiveState):
            compute_energy(builtin_example(1), annulus_mixed, u, mu=0.5)

    def test_positivity_propagation(self, annulus_mixed):
        # vertex values above delta imply quadrature values above delta,
        # so assembly with a barrier never raises
        u, _ = random_positive_state(annulus_mixed, seed=5, lo=0.05, hi=0.2)
        assemble_residual(builtin_example(1), annulus_mixed, u, mu=1.0)
        ws = workspace_for(annulus_mixed)
        uq = u.coefficients[annulus_mixed.cells] @ ws.lam.T
        assert uq.min() >= u.coefficients.min() - 1e-15

    def test_coefficient_violation(self):
        mesh = generate_interval_mesh(0, 1, 4, left=Marker.ROBIN, right=Marker.ROBIN)
        spec = ProblemSpec(diffusion=lambda x: np.atleast_2d(x)[:, 0] - 0.5)
        with pytest.raises(CoefficientViolation):
            assemble_residual(spec, mesh, FeFunction.constant(mesh, 1.0))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_diffusion_is_a_coefficient_violation(self, value):
        # nan fails every comparison: it must not pass the > 0 check
        mesh = generate_interval_mesh(0, 1, 4, left=Marker.ROBIN, right=Marker.ROBIN)
        with pytest.raises(CoefficientViolation, match="finite"):
            assemble_jacobian(ProblemSpec(diffusion=value), mesh, FeFunction.constant(mesh, 1.0))

    @pytest.mark.parametrize("length", [3, 8])  # the mesh has 5 vertices
    @pytest.mark.parametrize("call", [
        lambda mesh, u: assemble_residual(ProblemSpec(), mesh, u),
        lambda mesh, u: l2_error(mesh, u, lambda x: np.ones(len(x))),
        lambda mesh, u: newton_standard(ProblemSpec(), mesh, u),
        lambda mesh, u: newton_safeguarded(ProblemSpec(), mesh, u),
        lambda mesh, u: barrier_solve(ProblemSpec(), mesh, u),
    ], ids=["residual", "l2_error", "newton_standard", "newton_safeguarded", "barrier_solve"])
    def test_length_mismatch(self, call, length):
        mesh = generate_interval_mesh(0, 1, 4)
        with pytest.raises(DimensionMismatch):
            call(mesh, FeFunction(np.ones(length)))

    def test_degenerate_cell_is_rejected_at_construction(self):
        # a zero measure would give infinite gradients (cof / det), so no
        # workspace or solve can be reached with one
        with pytest.raises(ValidationError, match="cell 0 has nonpositive measure 0.000e"):
            SimplicialMesh(2, [[0, 0], [1, 0], [2, 0]], [[0, 1, 2]], fix_orientation=False)
        with pytest.raises(ValidationError, match="cell 1 has nonpositive measure 0.000e"):
            SimplicialMesh(1, [[0.0], [1.0], [1.0]], [[0, 1], [1, 2]], [[0], [2]],
                           ["dirichlet"] * 2)

    def test_mesh_without_cells_is_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="mesh has no cells"):
            SimplicialMesh(1, [[0.0], [1.0]], [])


class TestManufacturedSolutions:
    def test_interval_second_order(self):
        def exact(x):
            return np.sin(np.pi * np.atleast_2d(x)[:, 0]) + 2.0

        def source(x):
            t = np.atleast_2d(x)[:, 0]
            return (np.pi**2 + 1.0) * np.sin(np.pi * t) + 2.0

        spec = ProblemSpec(power_terms=((1, 1.0),), source=source, dirichlet_data=exact)
        errors = []
        for n in (8, 16, 32, 64):
            mesh = generate_interval_mesh(0, 1, n)
            u0 = apply_dirichlet(FeFunction.constant(mesh, 0.0), mesh, spec)
            report = newton_standard(spec, mesh, u0)
            assert report.converged
            errors.append(l2_error(mesh, report.solution, exact))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(np.abs(orders - 2.0) <= 0.2)

    def test_annulus_second_order(self):
        def exact(x):
            x = np.atleast_2d(x)
            return np.sin(x[:, 0]) * np.cos(x[:, 1]) + 2.0

        def source(x):
            x = np.atleast_2d(x)
            return 3.0 * np.sin(x[:, 0]) * np.cos(x[:, 1]) + 2.0

        spec = ProblemSpec(power_terms=((1, 1.0),), source=source, dirichlet_data=exact)
        errors = []
        for n_r, n_a in ((3, 12), (6, 24), (12, 48), (24, 96)):
            mesh = generate_annulus_mesh(
                1, 2, n_r, n_a, inner=Marker.DIRICHLET, outer=Marker.DIRICHLET
            )
            u0 = apply_dirichlet(FeFunction.constant(mesh, 0.0), mesh, spec)
            report = newton_standard(spec, mesh, u0)
            assert report.converged
            errors.append(l2_error(mesh, report.solution, exact))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(np.abs(orders - 2.0) <= 0.2)
