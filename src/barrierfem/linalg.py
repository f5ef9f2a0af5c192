"""Sparse storage and a preconditioned conjugate-gradient solver.

The CG loop detects indefiniteness (a search direction with
nonpositive curvature) and returns the last iterate before breakdown,
so callers can test the returned direction for descent instead of
trusting an exact solve.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch


class SparseMatrix:
    """Square CSR matrix (thin wrapper over scipy.sparse).

    Stored in canonical form: duplicate entries summed, column indices
    strictly increasing within each row.
    """

    def __init__(self, csr):
        csr = sp.csr_matrix(csr)
        if csr.shape[0] != csr.shape[1]:
            raise DimensionMismatch(f"matrix must be square, got {csr.shape}")
        csr.sum_duplicates()
        csr.sort_indices()
        self._csr = csr

    @classmethod
    def from_coo(cls, rows, cols, values, n):
        """Build from triplets; duplicates are summed."""
        return cls(sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr())

    @classmethod
    def from_pattern(cls, indptr, indices, data):
        """Wrap canonical CSR arrays (sorted, duplicate-free) as they are.

        Nothing is copied or checked; matrices built on the same
        indptr/indices arrays share them.
        """
        n = len(indptr) - 1
        csr = sp.csr_matrix((n, n))
        csr.indptr, csr.indices, csr.data = indptr, indices, data
        csr.has_canonical_format = True
        matrix = cls.__new__(cls)
        matrix._csr = csr
        return matrix

    @classmethod
    def identity(cls, n):
        return cls(sp.identity(n, format="csr"))

    @property
    def shape(self):
        return self._csr.shape

    @property
    def row_offsets(self):
        return self._csr.indptr

    @property
    def col_indices(self):
        return self._csr.indices

    @property
    def values(self):
        return self._csr.data

    def diagonal(self):
        return self._csr.diagonal()

    def toarray(self):
        return self._csr.toarray()

    def transpose(self):
        return SparseMatrix(self._csr.T.tocsr())

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.shape[1],):
            raise DimensionMismatch(
                f"matrix {self.shape} cannot multiply vector of shape {x.shape}"
            )
        return self._csr @ x

    def __matmul__(self, x):
        if isinstance(x, SparseMatrix):
            return SparseMatrix(self._csr @ x._csr)
        return self.matvec(x)

    def __repr__(self):
        return f"SparseMatrix(shape={self.shape}, nnz={self._csr.nnz})"


def add_scaled(a, s, m):
    """The operator a + s*m; on a shared pattern only the values are combined."""
    if a.row_offsets is m.row_offsets and a.col_indices is m.col_indices:
        return SparseMatrix.from_pattern(
            a.row_offsets, a.col_indices, a.values + float(s) * m.values
        )
    return SparseMatrix(a._csr + float(s) * m._csr)


class CgStatus(Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    INDEFINITE = "indefinite"


@dataclass
class CgResult:
    x: np.ndarray
    status: CgStatus
    iterations: int
    residual_norm: float


def cg_solve(a_op, b, rel_tol=1e-10, max_iters=None, precond="jacobi"):
    """Preconditioned CG for symmetric systems.

    Parameters
    ----------
    a_op : SparseMatrix or object with a matvec(x) method
    b : right-hand side vector
    rel_tol : convergence on ||A x - b|| <= rel_tol * ||b||
    max_iters : default 10 * N
    precond : "jacobi" or None; Jacobi silently falls back to the
        identity when the diagonal is not strictly positive.

    Returns CgResult; status INDEFINITE means a direction with
    p^T A p <= 0 was met, and x is the last iterate before breakdown
    (the zero vector when breakdown happens on the first step).
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    probe = a_op.matvec(np.zeros(n))  # raises DimensionMismatch on bad shapes
    if probe.shape != b.shape:
        raise DimensionMismatch("operator and rhs sizes differ")
    if max_iters is None:
        max_iters = 10 * n

    inv_diag = None
    if precond == "jacobi" and hasattr(a_op, "diagonal"):
        d = a_op.diagonal()
        if np.all(d > 0):
            inv_diag = 1.0 / d

    def apply_precond(r):
        return r * inv_diag if inv_diag is not None else r

    b_norm = np.linalg.norm(b)
    x = np.zeros(n)
    if b_norm == 0.0:
        return CgResult(x, CgStatus.CONVERGED, 0, 0.0)

    r = b.copy()
    z = apply_precond(r)
    p = z.copy()
    rz = float(np.dot(r, z))
    for k in range(max_iters):
        ap = a_op.matvec(p)
        pap = float(np.dot(p, ap))
        if pap <= 0.0:
            return CgResult(x, CgStatus.INDEFINITE, k, float(np.linalg.norm(b - a_op.matvec(x))))
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        if np.linalg.norm(r) <= rel_tol * b_norm:
            true_res = b - a_op.matvec(x)
            if np.linalg.norm(true_res) <= rel_tol * b_norm:
                return CgResult(x, CgStatus.CONVERGED, k + 1, float(np.linalg.norm(true_res)))
            r = true_res  # recurrence drifted; continue with the true residual
        z = apply_precond(r)
        rz_new = float(np.dot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return CgResult(x, CgStatus.MAX_ITERS, max_iters, float(np.linalg.norm(b - a_op.matvec(x))))
