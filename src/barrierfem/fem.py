"""P1 Galerkin assembly of residuals, Jacobians and energies.

For a state u_h and a barrier parameter mu >= 0, with k_mu(u) = k(u) -
mu u^-1 and K' = k, the module assembles

    residual  f = A u - b + [int k_mu(u_h) phi_i]_i        = G - mu H
    jacobian  B = A + [int k_mu'(u_h) phi_j phi_i]_ij      = J + mu M
    energy    0.5 u.A u - b.u + int K(u_h) - mu int ln u_h

where A is the stiffness plus the Robin mass, b the source plus the
Robin load, H_i = int u_h^-1 phi_i and M_ij = int u_h^-2 phi_j phi_i.
Where each mechanism is documented:

* `_row_blocks`: the blocks of cells every pass runs over;
* `_Workspace`: what is kept per mesh (geometry, quadrature points, the
  two CSR patterns, the pair scatter shared by A and B, Dirichlet
  reduction) and, through `fields_for`, per spec (A, b, coefficients);
* `_at_points`: the one walker that hands a pass its blocks;
* `_power_pass` and `State`: the one power pass per state, which the
  residual and the Jacobian share;
* `assemble_residual`, `assemble_jacobian`, `assemble_barrier_gradient`,
  `compute_energy` and `l2_error`: the assembled objects.
"""

from weakref import WeakKeyDictionary

import numpy as np

from .errors import CoefficientViolation, DimensionMismatch, NonpositiveState
# add_scaled is unused here; the traced benchmark run wraps fem.add_scaled
from .linalg import SparseMatrix, add_scaled  # noqa: F401
from .mesh import simplex_geometry
from .problem import FeFunction, _power_kernel, as_coefficients
from .quadrature import REFERENCE_MEASURE, simplex_rule

#: blocked passes run over the leading axis of their arrays in blocks of
#: about this many elements, so that each block's temporaries stay in
#: cache and its matrix products run on one BLAS thread
_BLOCK_ELEMENTS = 2**15


def _row_blocks(n, row):
    """(slices, most rows) of the blocks over n rows of `row` elements.

    A block has about _BLOCK_ELEMENTS elements in a multiple of 4 rows, at
    least 4, and a last block of one row joins the block before it.  The
    alignment is there for the matrix products on a block: OpenBLAS's
    matrix-vector kernels take rows in groups of 4, and numpy sends a
    one-row matmul to them, so a matmul per block has the bits of one over
    all n rows.  That was verified with OpenBLAS 0.3.31 (Haswell kernels,
    x86-64) at one and two threads only; on other BLAS builds or kernels
    the per-block products are unverified."""
    rows = max(4, _BLOCK_ELEMENTS // max(1, row) // 4 * 4)
    starts = list(range(0, max(n, 1), rows))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    blocks = [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]
    return blocks, max(b.stop - b.start for b in blocks)


class _Workspace:
    """What assembly keeps per mesh and, through fields_for, per spec.

    Per mesh: geometry (the basis gradients' Gram products `grad_gram`,
    formed per row block from `simplex_geometry`; every mesh is valid by
    construction, so no geometry is checked here), quadrature tables of
    the cells and of the Robin facets (points from `_rule_points`), and
    two CSR patterns: the full
    P1 pattern (`full_indptr`, `full_indices`) carries the linear
    operator A, the Dirichlet-reduced one (`indptr`, `indices`:
    free-free pairs and every diagonal) the Jacobian.  `_build_patterns`
    sorts the canonical (row <= col) pairs once, which numbers them
    0..num_pairs-1, and builds the full pattern from them and their
    mirrors.  Local matrices are kept on their upper triangle.  Every
    sum is per pair: `upper_slots` sends each upper entry, cells then
    Robin facets, to its pair; `full_mirror` and `mirror` send each full
    and each reduced slot to its pair, and the reduced pattern's fixed
    diagonal to num_pairs, one past the last.  So a symmetric operator
    is one bincount of num_pairs + 1 bins and one gather, and A == A.T
    and B == B.T bit for bit.

    Dirichlet constraints are imposed by row/column reduction: the
    Jacobian's Dirichlet rows and columns are those of the identity and
    the residual's Dirichlet entries are zeroed (`vertex_sum`), which
    keeps B symmetric.

    Holds no reference to the mesh itself, so a mesh and its workspace
    are freed together once the mesh is no longer used.
    """

    def __init__(self, mesh):
        d, n = mesh.dim, mesh.num_vertices
        self.num_vertices = n
        self.cells = cells = mesh.cells                  # (M, d+1)
        self.lam, self.qw = simplex_rule(d)              # (Q, d+1), (Q,)
        verts = mesh.vertices
        iu, ju = np.triu_indices(d + 1)
        self.grad_gram = np.empty((len(cells), len(iu)))  # (M, K)
        for b in _row_blocks(len(cells), len(iu) * d)[0]:
            det, cof = simplex_geometry(verts, cells[b])
            grads = cof / det[:, None, None]             # barycentric gradients 1..d (det > 0)
            grads = np.concatenate([-grads.sum(axis=1, keepdims=True), grads], axis=1)
            self.grad_gram[b] = np.einsum("mkd,mkd->mk", grads[:, iu], grads[:, ju])
        self.phi2 = self.lam[:, iu] * self.lam[:, ju]    # (Q, K)
        self.scale = mesh.cell_volumes / REFERENCE_MEASURE[d]
        self.wq = self.scale[:, None] * self.qw          # (M, Q)
        self.xq_flat = _rule_points(self.lam, verts, cells)

        self.robin_idx = mesh.facets[mesh.robin]         # (B, d)
        self.flam, fqw = simplex_rule(d - 1)             # (Qf, d), (Qf,)
        fiu, fju = np.triu_indices(d)
        self.fphi2 = self.flam[:, fiu] * self.flam[:, fju]
        fscale = mesh.facet_measures[mesh.robin] / REFERENCE_MEASURE[d - 1]
        self.fwq = fscale[:, None] * fqw                 # (B, Qf)
        self.fxq_flat = _rule_points(self.flam, verts, self.robin_idx)

        self.dirichlet_mask = np.zeros(n, dtype=bool)
        self.dirichlet_mask[mesh.dirichlet_vertices()] = True
        rows = np.concatenate([cells[:, iu].ravel(), self.robin_idx[:, fiu].ravel()])
        cols = np.concatenate([cells[:, ju].ravel(), self.robin_idx[:, fju].ravel()])
        self._build_patterns(rows, cols)
        self.spec_fields = WeakKeyDictionary()

    def _build_patterns(self, rows, cols):
        """The two patterns and the pair maps of the upper-triangle entries
        (rows[i], cols[i]); the inverse of one np.unique over their
        canonical keys is each entry's pair."""
        n, m = self.num_vertices, len(rows)
        fixed = np.flatnonzero(self.dirichlet_mask)
        # one sort numbers the canonical (row <= col) pairs; the full
        # pattern adds the mirror of each off-diagonal pair
        upper = np.concatenate([np.minimum(rows, cols) * n + np.maximum(rows, cols),
                                fixed * (n + 1)])
        canonical, pair = np.unique(upper, return_inverse=True)
        self.num_pairs = len(canonical)
        ci, cj = np.divmod(canonical, n)
        off = np.flatnonzero(ci != cj)
        keys = np.concatenate([canonical, cj[off] * n + ci[off]])
        order = np.argsort(keys)  # the keys are distinct
        unique = keys[order]
        urows, ucols = np.divmod(unique, n)
        self.full_indptr = np.searchsorted(unique, np.arange(n + 1) * n).astype(np.int32)
        self.full_indices = ucols.astype(np.int32)
        self.upper_slots = pair[:m].astype(np.int32)
        self.full_mirror = np.concatenate([np.arange(self.num_pairs), off])[order].astype(np.int32)
        free = ~self.dirichlet_mask
        free_pair = free[urows] & free[ucols]
        reduced = free_pair | (urows == ucols)
        self.indptr = np.searchsorted(unique[reduced], np.arange(n + 1) * n).astype(np.int32)
        self.indices = self.full_indices[reduced]
        self.mirror = np.where(free_pair, self.full_mirror, self.num_pairs)[reduced]

    def scatter(self, local, sums):
        """Reduced-pattern data: `sums` (A's "operator_sums", or 0.0) plus
        one bincount, per pair, of the (M, K) upper-triangle local cell
        matrices, whose pairs lead `upper_slots`, gathered by `mirror`."""
        power = np.bincount(self.upper_slots[: local.size], weights=local.ravel(),
                            minlength=self.num_pairs + 1)
        return (sums + power)[self.mirror]

    def vertex_sum(self, local, offset=0.0):
        """offset plus the (M, d+1) local cell vectors summed at their
        vertices, with the Dirichlet entries zeroed."""
        total = offset + np.bincount(
            self.cells.ravel(), weights=local.ravel(), minlength=self.num_vertices
        )
        total[self.dirichlet_mask] = 0.0
        return total

    def at(self, field, rows):
        """A field at the quadrature points of the cells `rows`, as (rows, Q)."""
        q = len(self.qw)
        return np.asarray(field(self.xq_flat[rows.start * q : rows.stop * q]),
                          dtype=float).reshape(-1, q)

    def fields_for(self, spec):
        """The u-independent part of the system, assembled once per spec.

        A dict of "coeffs", the (p, c_p) power terms, c_p the `value` of a
        constant field (constant_field, or a number given to the spec)
        and any other field's (M, Q) values at the quadrature points;
        "operator", the linear operator A (stiffness plus Robin mass) on
        the full pattern; "operator_sums", A's sums per pair and a
        trailing 1.0 for the fixed diagonal, which `scatter` takes; and
        "load", the vector b (source plus Robin data).  Fields are
        evaluated per row block (`at`), so the only (M, Q) arrays a spec
        keeps are its coefficients that are not constant.
        """
        cached = self.spec_fields.get(spec)
        if cached is not None:
            return cached
        (m, q), k = self.wq.shape, self.grad_gram.shape[1]
        # the cells' upper-triangle stiffness and load vectors lead, the
        # Robin facets' follow
        local = np.empty(m * k + self.fphi2.shape[1] * len(self.fwq))
        stiffness = local[: m * k].reshape(m, k)
        load = np.empty(self.cells.size + self.robin_idx.size)
        cell_load = load[: self.cells.size].reshape(self.cells.shape)
        # a constant is kept as its scalar, which the power kernel
        # broadcasts; any other field fills its (M, Q) values per block
        coeffs = [(p, field.value if hasattr(field, "value") else np.empty((m, q)))
                  for p, field in spec.power_terms]
        for b in _row_blocks(m, q)[0]:
            diff = self.at(spec.diffusion, b)
            if not np.all((diff > 0) & (diff < np.inf)):
                raise CoefficientViolation("diffusion must be > 0 and finite at quadrature points")
            np.multiply((self.scale[b] * (diff @ self.qw))[:, None], self.grad_gram[b],
                        out=stiffness[b])
            np.matmul(self.wq[b] * self.at(spec.source, b), self.lam, out=cell_load[b])
            for (_, c), (_, field) in zip(coeffs, spec.power_terms):
                if np.ndim(c):
                    c[b] = self.at(field, b)

        def on_facets(field):
            """A field, weighted, at the Robin facet quadrature points."""
            return self.fwq * np.asarray(field(self.fxq_flat), dtype=float).reshape(self.fwq.shape)

        local[m * k :] = (on_facets(spec.robin_coeff) @ self.fphi2).ravel()
        load[self.cells.size :] = (on_facets(spec.robin_data) @ self.flam).ravel()
        sums = np.bincount(self.upper_slots, local, minlength=self.num_pairs + 1)
        sums[-1] = 1.0
        vertices = np.concatenate([self.cells.ravel(), self.robin_idx.ravel()])
        fields = {
            "coeffs": coeffs,
            "operator": SparseMatrix.from_pattern(
                self.full_indptr, self.full_indices, sums[self.full_mirror]
            ),
            "operator_sums": sums,
            "load": np.bincount(vertices, load, minlength=self.num_vertices),
        }
        self.spec_fields[spec] = fields
        return fields


def _rule_points(lam, vertices, simplices):
    """(len(simplices) * Q, dim) physical points of the barycentric rule
    points `lam` (Q, k) on each simplex (k vertex indices).

    One coordinate at a time over the `_row_blocks` of simplices, each
    point is 0.0 + the k products lam[q, r] * x_r summed in r order, so
    the points are bit for bit those of einsum("qk,mkd->mqd"), with no
    (M, Q, d) temporaries."""
    q, k = lam.shape
    dim = vertices.shape[1]
    points = np.empty((len(simplices), q, dim))
    for b in _row_blocks(len(simplices), q)[0]:
        for j in range(dim):
            x = vertices[simplices[b], j]                        # (b, k)
            total = np.add(0.0, np.multiply.outer(x[:, 0], lam[:, 0]))  # -0.0 becomes 0.0
            for r in range(1, k):
                total += np.multiply.outer(x[:, r], lam[:, r])
            points[b, :, j] = total
    return points.reshape(-1, dim)


_workspaces = WeakKeyDictionary()


def workspace_for(mesh):
    ws = _workspaces.get(mesh)
    if ws is None:
        ws = _Workspace(mesh)
        _workspaces[mesh] = ws
    return ws


def _check_state(ws, u, positive):
    """u as the coefficients of ws, a workspace (or a mesh, without `positive`);
    with `positive`, u must be > 0 at every free vertex and >= 0 at every
    vertex: zero Dirichlet data is allowed, as u_h > 0 still holds at the
    quadrature points of every cell that has a free vertex."""
    u = as_coefficients(u)
    if len(u) != ws.num_vertices:
        raise DimensionMismatch(
            f"state has {len(u)} coefficients, mesh has {ws.num_vertices} vertices"
        )
    if positive and np.any((u < 0) | ((u == 0) & ~ws.dirichlet_mask)):
        raise NonpositiveState(
            "state must be > 0 at every free vertex and >= 0 at every vertex "
            f"(min = {u.min():.3e})"
        )
    return u


def _state_fields(spec, mesh, u, mu):
    """(u, workspace, spec fields); u passes _check_state at mu."""
    ws = workspace_for(mesh)
    u = _check_state(ws, u, mu > 0)
    return u, ws, ws.fields_for(spec)


class State(FeFunction):
    """A read-only copy of the coefficients, and the (spec fields, k', u^-2)
    of the residual's pass at them."""

    power_pass = None

    def __post_init__(self):
        super().__post_init__()
        self.coefficients = self.coefficients.copy()
        self.coefficients.setflags(write=False)


def _at_points(ws, x, scratch=0):
    """(cells, x at their quadrature points, *scratch) for each of the
    workspace's row blocks: (rows, Q) views of block buffers that the next
    block overwrites.  With x None, the first view is scratch too."""
    q = len(ws.lam)
    blocks, rows = _row_blocks(len(ws.cells), q)
    buffers = np.empty((1 + scratch, rows * q))
    for b in blocks:
        views = [a[: (b.stop - b.start) * q].reshape(-1, q) for a in buffers]
        if x is not None:
            np.matmul(x[ws.cells[b]], ws.lam.T, out=views[0])
        yield b, *views


def _power_pass(ws, fields, x, mu):
    """The (M, d+1) local vectors int k_mu phi_i of x, and the (fields, k',
    u^-2) a State keeps: only those two and the locals are full-size."""
    coeffs = fields["coeffs"]
    slope = np.empty(ws.wq.shape)
    inv_u2 = np.empty(ws.wq.shape) if mu > 0 or any(p < 0 for p, _ in coeffs) else None
    local = np.empty(ws.cells.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for b, uq, k, u2, power in _at_points(ws, x, 3):
            _power_kernel([(p, c if np.ndim(c) == 0 else c[b]) for p, c in coeffs], uq,
                          (0, 1), mu, (k, slope[b]), None if inv_u2 is None else inv_u2[b],
                          u2, power)
            k *= ws.wq[b]
            np.matmul(k, ws.lam, out=local[b])
    return local, (fields, slope, inv_u2)


def assemble_residual(spec, mesh, u, mu=0.0):
    """Residual vector f = A u - b + int k_mu(u_h) phi_i = G - mu*H with
    Dirichlet entries zeroed; at a State, keeps the pass on it."""
    x, ws, fields = _state_fields(spec, mesh, u, mu)
    linear = fields["operator"] @ x - fields["load"]
    local, kept = _power_pass(ws, fields, x, mu)
    if isinstance(u, State):
        u.power_pass = kept
    with np.errstate(invalid="ignore"):  # local is +-inf at an overflowed u: f is nonfinite
        return ws.vertex_sum(local, linear)


def assemble_barrier_gradient(mesh, u):
    """H_i = int u_h^-1 phi_i with Dirichlet entries zeroed, so that
    f(u, mu2) = f(u, mu1) + (mu1 - mu2) H(u), with no power pass; u must
    pass _check_state."""
    ws = workspace_for(mesh)
    u = _check_state(ws, u, True)
    local = np.empty(ws.cells.shape)
    for b, uq in _at_points(ws, u):
        np.matmul(np.divide(ws.wq[b], uq, out=uq), ws.lam, out=local[b])
    return ws.vertex_sum(local)


def assemble_jacobian(spec, mesh, u, mu=0.0):
    """Jacobian B = J + mu*M at the state u, on the mesh's reduced CSR pattern.

    Takes k' and u^-2 from a State's power_pass made for this spec (with
    u^-2 at mu > 0, as a Newton step's residual makes it), else runs the pass."""
    x, ws, fields = _state_fields(spec, mesh, u, mu)
    kept = u.power_pass if isinstance(u, State) else None
    if kept is None or kept[0] is not fields or (mu > 0 and kept[2] is None):
        _, kept = _power_pass(ws, fields, x, mu)
    _, slope, inv_u2 = kept
    local = np.empty(ws.grad_gram.shape)
    for b, weighted in _at_points(ws, None):
        # k'_mu = k' + mu u^-2, the barrier term added last as in the kernel
        if mu > 0:
            with np.errstate(invalid="ignore", over="ignore"):
                np.add(slope[b], np.multiply(inv_u2[b], mu, out=weighted), out=weighted)
            weighted *= ws.wq[b]
        else:
            np.multiply(slope[b], ws.wq[b], out=weighted)
        np.matmul(weighted, ws.phi2, out=local[b])
    data = ws.scatter(local, fields["operator_sums"])
    return SparseMatrix.from_pattern(ws.indptr, ws.indices, data)


def compute_energy(spec, mesh, u, mu=0.0):
    """0.5 u.Au - b.u + int K(u_h), and the barrier -mu*int(ln u_h) when mu > 0."""
    u, ws, fields = _state_fields(spec, mesh, u, mu)
    coeffs = fields["coeffs"]
    density = np.empty(ws.wq.shape)
    for b, uq, u2, power, inv in _at_points(ws, u, 3):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            _power_kernel([(p, c if np.ndim(c) == 0 else c[b]) for p, c in coeffs], uq,
                          (-1,), 0.0, (density[b],), inv, u2, power)
        if mu > 0:
            density[b] -= np.multiply(np.log(uq, out=power), mu, out=power)
    linear = 0.5 * (fields["operator"] @ u) - fields["load"]
    return float(u @ linear) + float(np.einsum("mq,mq->", ws.wq, density))


def apply_dirichlet(u, mesh, spec):
    """Overwrite Dirichlet-vertex coefficients with the boundary data."""
    coeffs = _check_state(mesh, u, False).copy()
    dv = mesh.dirichlet_vertices()
    if dv.size:
        coeffs[dv] = spec.dirichlet_data(mesh.vertices[dv])
    return FeFunction(coeffs)


def l2_error(mesh, u, exact):
    """L2 norm of u_h - exact over the mesh (degree-5 quadrature)."""
    ws = workspace_for(mesh)
    u = _check_state(ws, u, False)
    square = np.empty(ws.wq.shape)
    for b, uq in _at_points(ws, u):
        np.square(np.subtract(uq, ws.at(exact, b), out=square[b]), out=square[b])
    return float(np.sqrt(np.einsum("mq,mq->", ws.wq, square)))
