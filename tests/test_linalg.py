"""Sparse storage and the conjugate-gradient solver."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from barrierfem.errors import DimensionMismatch
from barrierfem.fem import assemble_jacobian, workspace_for
from barrierfem.linalg import (
    CG_REL_TOL,
    CgStatus,
    SparseMatrix,
    _matvec_into,
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

    @pytest.mark.parametrize("a_entry, b_entry", [(np.nan, 1.0), (np.inf, 1.0), (2.0, np.nan)],
                             ids=["nan_in_a", "inf_in_a", "nan_in_b"])
    def test_nonfinite_curvature_is_indefinite(self, a_entry, b_entry):
        # the curvature is NaN or inf, never <= 0: the solve stops at once,
        # with no RuntimeWarning, instead of running all 10 N steps
        n = 500
        a = sp.diags([-np.ones(n - 1), np.full(n, 2.0), -np.ones(n - 1)], [-1, 0, 1],
                     format="csr")
        a[7, 7] = a_entry
        b = np.ones(n)
        b[5] = b_entry
        result = cg_solve(SparseMatrix(a), b)
        assert (result.status, result.iterations) == (CgStatus.INDEFINITE, 0)
        assert np.array_equal(result.x, np.zeros(n))

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


def reference_cg(a, b):
    """The plain CG loop that cg_solve runs without allocations: fresh
    vectors, `a @ p` and np.linalg.norm at every iteration."""
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    d = a.diagonal()
    inv_diag = 1.0 / d if np.all(d > 0) else np.ones(n)
    b_norm = np.linalg.norm(b)
    x = np.zeros(n)
    if b_norm == 0.0:
        return x, CgStatus.CONVERGED, 0
    r = b.copy()
    z = r * inv_diag
    p = z.copy()
    rz = float(np.dot(r, z))
    for k in range(10 * n):
        ap = a @ p
        pap = float(np.dot(p, ap))
        if not 0.0 < pap < np.inf:
            return x, CgStatus.INDEFINITE, k
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        if np.linalg.norm(r) <= CG_REL_TOL * b_norm:
            true_res = b - a @ x
            if np.linalg.norm(true_res) <= CG_REL_TOL * b_norm:
                return x, CgStatus.CONVERGED, k + 1
            r = true_res
        z = r * inv_diag
        rz_new = float(np.dot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, CgStatus.MAX_ITERS, 10 * n


def with_duplicates(n, rng):
    """A symmetric positive definite CSR matrix whose rows repeat column
    indices out of order; scipy sums the repeats in storage order."""
    indptr, indices, data = [0], [], []
    for i in range(n):
        indices += [i, (i + 1) % n, i, (i - 1) % n, (i + 1) % n, (i - 1) % n]
        data += [2.0 + rng.random(), -0.25, 1.5, -0.25, -0.25, -0.25]
        indptr.append(len(indices))
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def ill_conditioned(condition, seed):
    """A 20 x 20 SPD matrix with eigenvalues from 1 to `condition` and a
    rhs; CG's recurrence residual drifts from the true one on these."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    a = (q * np.logspace(0, np.log10(condition), 20)) @ q.T
    return dense(0.5 * (a + a.T)), rng.standard_normal(20)


def cg_cases():
    rng = np.random.default_rng(7)
    f = rng.standard_normal((30, 30))
    spd = f.T @ f + 15.0 * np.eye(30)
    skew = rng.standard_normal((12, 12))
    mesh = generate_annulus_mesh(1, 2, 6, 24, inner=Marker.DIRICHLET, outer=Marker.ROBIN)
    jacobian = assemble_jacobian(ProblemSpec(power_terms=((1, 1.0), (5, 0.5))), mesh,
                                 FeFunction.constant(mesh, 1.2))
    b_mesh = rng.standard_normal(mesh.num_vertices)
    b_mesh[workspace_for(mesh).dirichlet_mask] = 0.0
    return {
        "spd": (dense(spd), rng.standard_normal(30), CgStatus.CONVERGED),
        "jacobian": (jacobian, b_mesh, CgStatus.CONVERGED),
        "indefinite_first_step": (dense(np.diag([1.0, -1.0])), np.ones(2), CgStatus.INDEFINITE),
        "indefinite_later": (dense(np.diag([1.0, 1.0, -1.0])), np.array([1.0, 1.0, 0.05]),
                             CgStatus.INDEFINITE),
        # p.Ap = |p|^2 > 0 for I + a skew part, but CG does not converge on it
        "max_iters": (dense(np.eye(12) + 3.0 * (skew - skew.T)), rng.standard_normal(12),
                      CgStatus.MAX_ITERS),
        "duplicates": (with_duplicates(25, rng), rng.standard_normal(25), CgStatus.CONVERGED),
        "ill_conditioned": (*ill_conditioned(1e6, 1), CgStatus.CONVERGED),
        "ill_conditioned_max_iters": (*ill_conditioned(1e8, 1), CgStatus.MAX_ITERS),
        "zero_rhs": (dense(np.eye(4)), np.zeros(4), CgStatus.CONVERGED),
    }


CG_CASES = cg_cases()


class TestCgBitIdentity:
    @pytest.mark.parametrize("case", sorted(CG_CASES))
    def test_matches_reference_loop(self, case):
        a, b, status = CG_CASES[case]
        x, ref_status, ref_iterations = reference_cg(a, b)
        result = cg_solve(a, b)
        assert ref_status == status  # each case reaches the branch it is named for
        assert (result.status, result.iterations) == (ref_status, ref_iterations)
        assert result.x.tobytes() == x.tobytes()

    def test_duplicates_case_is_not_canonical(self):
        a = CG_CASES["duplicates"][0]
        summed = a.copy()
        summed.sum_duplicates()
        assert summed.nnz < a.nnz

    @pytest.mark.parametrize("case", ["spd", "jacobian", "duplicates", "max_iters"])
    def test_matvec_into_buffer_is_a_times_p(self, case):
        a, b, _ = CG_CASES[case]
        a = sp.csr_matrix(a)
        rng = np.random.default_rng(3)
        out = rng.standard_normal(len(b))  # stale contents must not leak into the product
        for p in (b, rng.standard_normal(len(b)), -np.zeros(len(b))):
            assert _matvec_into(a, p, out) is out
            assert out.tobytes() == (a @ p).tobytes()
