"""Sparse storage and a preconditioned conjugate-gradient solver.

The CG loop detects indefiniteness (a search direction with
nonpositive curvature) and returns the last iterate before breakdown,
so callers can test the returned direction for descent instead of
trusting an exact solve.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

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


def _matvec_into(a, v, out):
    """out = a @ v for a csr_matrix a, bit for bit: the kernel that
    `a @ v` calls, on a zeroed out (the kernel adds to it)."""
    out.fill(0.0)
    csr_matvec(a.shape[0], a.shape[1], a.indptr, a.indices, a.data, v, out)
    return out


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

    Returns CgResult; status INDEFINITE means a direction whose
    curvature p^T A p is not > 0 and finite was met, and x is the last
    iterate before breakdown (the zero vector when breakdown happens on
    the first step).  So a NaN or inf in a, which makes the curvature
    NaN or inf, stops the solve at once with a finite x.  A NaN or inf
    in b (a ||b|| that is not finite) returns INDEFINITE, 0 iterations
    and x = 0 before any product.

    An iteration allocates nothing: each product A p goes into one
    buffer through scipy's CSR kernel, the one `a @ p` calls, and the
    vector updates run in place, in the order and with the operands of
    x + alpha p, r - alpha A p and z + beta p, so every iterate is bit
    for bit that of the plain expressions.
    """
    a = sp.csr_matrix(a)
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if a.shape != (n, n):
        raise DimensionMismatch(f"matrix {a.shape} does not match a rhs of length {n}")
    max_iters = 10 * n

    d = a.diagonal()
    inv_diag = 1.0 / d if np.all(d > 0) else np.ones(n)

    b_norm = math.sqrt(b.dot(b))
    x = np.zeros(n)
    if b_norm == 0.0:
        return CgResult(x, CgStatus.CONVERGED, 0)
    if not b_norm < math.inf:  # a NaN or inf in b; p.A p could sum inf and -inf
        return CgResult(x, CgStatus.INDEFINITE, 0)

    r = b.copy()
    z = r * inv_diag
    p = z.copy()
    ap, step = np.empty(n), np.empty(n)
    rz = float(r.dot(z))
    for k in range(max_iters):
        _matvec_into(a, p, ap)
        pap = float(p.dot(ap))
        if not 0.0 < pap < math.inf:
            return CgResult(x, CgStatus.INDEFINITE, k)
        alpha = rz / pap
        x += np.multiply(p, alpha, out=step)
        r -= np.multiply(ap, alpha, out=step)
        if math.sqrt(r.dot(r)) <= CG_REL_TOL * b_norm:
            true_res = np.subtract(b, _matvec_into(a, x, ap), out=step)
            if math.sqrt(true_res.dot(true_res)) <= CG_REL_TOL * b_norm:
                return CgResult(x, CgStatus.CONVERGED, k + 1)
            r, step = true_res, r  # recurrence drifted; continue with the true residual
        np.multiply(r, inv_diag, out=z)
        rz_new = float(r.dot(z))
        p *= rz_new / rz
        p += z
        rz = rz_new
    return CgResult(x, CgStatus.MAX_ITERS, max_iters)
