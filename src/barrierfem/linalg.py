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

#: CG stops once ||A x - b|| <= CG_REL_TOL * ||b||
CG_REL_TOL = 1e-10


class SparseMatrix(sp.csr_matrix):
    """scipy's CSR matrix, built from summed triplets or on a shared pattern."""

    @classmethod
    def from_coo(cls, rows, cols, values, n):
        """Build from triplets; duplicates are summed."""
        return cls(sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr())

    @classmethod
    def from_pattern(cls, indptr, indices, data):
        """Wrap canonical CSR arrays (sorted, duplicate-free) as they are.

        Nothing is copied or checked; matrices built on the same
        indptr/indices arrays share them.  (scipy's (data, indices,
        indptr) constructor would store a view of indices instead.)
        """
        n = len(indptr) - 1
        matrix = cls((n, n))
        matrix.indptr, matrix.indices, matrix.data = indptr, indices, data
        matrix.has_canonical_format = True
        return matrix


def add_scaled(a, s, m):
    """The operator a + s*m of two matrices on one shared pattern."""
    if a.indptr is not m.indptr or a.indices is not m.indices:
        raise DimensionMismatch("add_scaled needs two matrices on one shared CSR pattern")
    return SparseMatrix.from_pattern(a.indptr, a.indices, a.data + float(s) * m.data)


class CgStatus(Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    INDEFINITE = "indefinite"


@dataclass
class CgResult:
    x: np.ndarray
    status: CgStatus
    iterations: int


def cg_solve(a, b):
    """Jacobi-preconditioned CG for a symmetric sparse matrix a.

    Converges on ||A x - b|| <= CG_REL_TOL * ||b||, within 10 * N steps.
    The Jacobi preconditioner falls back to the identity when the
    diagonal is not strictly positive.

    Returns CgResult; status INDEFINITE means a direction with
    p^T A p <= 0 was met, and x is the last iterate before breakdown
    (the zero vector when breakdown happens on the first step).
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if a.shape != (n, n):
        raise DimensionMismatch(f"matrix {a.shape} does not match a rhs of length {n}")
    max_iters = 10 * n

    d = a.diagonal()
    inv_diag = 1.0 / d if np.all(d > 0) else np.ones(n)

    b_norm = np.linalg.norm(b)
    x = np.zeros(n)
    if b_norm == 0.0:
        return CgResult(x, CgStatus.CONVERGED, 0)

    r = b.copy()
    z = r * inv_diag
    p = z.copy()
    rz = float(np.dot(r, z))
    for k in range(max_iters):
        ap = a @ p
        pap = float(np.dot(p, ap))
        if pap <= 0.0:
            return CgResult(x, CgStatus.INDEFINITE, k)
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        if np.linalg.norm(r) <= CG_REL_TOL * b_norm:
            true_res = b - a @ x
            if np.linalg.norm(true_res) <= CG_REL_TOL * b_norm:
                return CgResult(x, CgStatus.CONVERGED, k + 1)
            r = true_res  # recurrence drifted; continue with the true residual
        z = r * inv_diag
        rz_new = float(np.dot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return CgResult(x, CgStatus.MAX_ITERS, max_iters)
