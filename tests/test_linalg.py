"""Sparse storage and the conjugate-gradient solver."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from barrierfem.errors import DimensionMismatch
from barrierfem.fem import assemble_jacobian, workspace_for
from barrierfem.linalg import (
    CgStatus,
    SparseMatrix,
    add_scaled,
    cg_solve,
)
from barrierfem.mesh import Marker, generate_annulus_mesh, generate_interval_mesh
from barrierfem.problem import FeFunction, ProblemSpec


def dense(mat):
    return SparseMatrix(np.asarray(mat))


def on_full_pattern(*mats):
    """Dense n x n matrices as SparseMatrix objects on one shared pattern."""
    n = len(mats[0])
    indptr = np.arange(0, n * n + 1, n, dtype=np.int32)
    indices = np.tile(np.arange(n, dtype=np.int32), n)
    return [SparseMatrix.from_pattern(indptr, indices, np.ravel(m).astype(float)) for m in mats]


class TestSparseMatrix:
    def test_csr_fields(self):
        a = dense([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 1.0]])
        assert a.shape == (3, 3)
        # column indices strictly increasing within each row
        for i in range(3):
            cols = a.indices[a.indptr[i] : a.indptr[i + 1]]
            assert np.all(np.diff(cols) > 0)

    def test_from_coo_sums_duplicates(self):
        a = SparseMatrix.from_coo([0, 0, 1], [1, 1, 0], [1.0, 2.0, 4.0], 2)
        expected = np.array([[0.0, 3.0], [4.0, 0.0]])
        assert np.array_equal(a.toarray(), expected)


class TestVectorOps:
    def test_add_scaled_zero(self):
        rng = np.random.default_rng(0)
        a, m = on_full_pattern(rng.standard_normal((5, 5)), rng.standard_normal((5, 5)))
        x = rng.standard_normal(5)
        combined = add_scaled(a, 0.0, m)
        assert np.allclose(combined @ x, a @ x, rtol=1e-14, atol=0)

    def test_add_scaled_combination(self):
        a, m = on_full_pattern(np.diag([1.0, 2.0]), np.diag([3.0, 5.0]))
        out = add_scaled(a, 0.5, m) @ np.ones(2)
        assert np.allclose(out, [2.5, 4.5], rtol=1e-15)

    def test_add_scaled_rejects_different_patterns(self):
        a = dense(np.diag([1.0, 2.0]))
        m = dense([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DimensionMismatch):
            add_scaled(a, 0.5, m)


class TestCg:
    def test_identity_one_iteration(self):
        b = np.array([2.0, -1.0, 5.0])
        result = cg_solve(dense(np.eye(3)), b)
        assert result.status == CgStatus.CONVERGED
        assert result.iterations == 1
        assert np.allclose(result.x, b, rtol=1e-14)

    def test_tridiagonal_vs_dense_oracle(self):
        # interior system of the 1D Laplacian with h = 1/4
        h = 0.25
        a = (1.0 / h) * np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        b = np.array([0.0, 1.0, 0.0])
        expected = np.linalg.solve(a, b)  # dense Gaussian-elimination oracle
        result = cg_solve(dense(a), b)
        assert result.status == CgStatus.CONVERGED
        assert np.linalg.norm(result.x - expected) < 1e-10

    def test_indefinite_detected_at_first_step(self):
        a = dense(np.diag([1.0, -1.0]))
        result = cg_solve(a, np.array([1.0, 1.0]))
        assert result.status == CgStatus.INDEFINITE
        assert np.array_equal(result.x, np.zeros(2))

    def test_indefinite_returns_last_iterate(self):
        a = dense(np.diag([1.0, 1.0, -1.0]))
        # the diagonal is not positive, so CG runs unpreconditioned
        result = cg_solve(a, np.array([1.0, 1.0, 0.05]))
        assert result.status == CgStatus.INDEFINITE
        assert result.iterations > 0 and result.x.any()

    def test_random_spd_against_dense_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(4, 201))
            f = rng.standard_normal((n, n))
            a = f.T @ f + 0.5 * n * np.eye(n)  # bounded condition number
            b = rng.standard_normal(n)
            expected = np.linalg.solve(a, b)
            result = cg_solve(dense(a), b)
            assert result.status == CgStatus.CONVERGED
            assert np.linalg.norm(result.x - expected) / np.linalg.norm(expected) < 1e-8

    def test_zero_rhs(self):
        result = cg_solve(dense(np.eye(4)), np.zeros(4))
        assert result.status == CgStatus.CONVERGED and result.iterations == 0

    def test_rhs_size_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cg_solve(dense(np.eye(3)), np.ones(4))

    def test_jacobi_regression_guard(self):
        """Jacobi preconditioning at most doubles iterations on the
        manufactured-solution stiffness systems, against scipy's
        unpreconditioned CG at the same tolerance."""
        spec = ProblemSpec(power_terms=((1, 1.0),))
        meshes = [
            generate_interval_mesh(0, 1, 64),
            generate_annulus_mesh(1, 2, 6, 24, inner=Marker.DIRICHLET, outer=Marker.DIRICHLET),
        ]
        rng = np.random.default_rng(11)
        for mesh in meshes:
            u = FeFunction.constant(mesh, 1.0)
            matrix = assemble_jacobian(spec, mesh, u)
            b = rng.standard_normal(mesh.num_vertices)
            b[workspace_for(mesh).dirichlet_mask] = 0.0
            plain_iterations = []
            _, info = spla.cg(
                matrix, b, rtol=1e-10, atol=0.0,
                callback=lambda xk: plain_iterations.append(1),
            )
            jacobi = cg_solve(matrix, b)
            assert info == 0
            assert jacobi.status == CgStatus.CONVERGED
            assert jacobi.iterations <= 2 * len(plain_iterations)
