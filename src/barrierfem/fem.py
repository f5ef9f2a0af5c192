"""P1 Galerkin assembly of residuals, Jacobians and energies.

For a state u_h and a barrier parameter mu >= 0, with K' = k, the
module assembles

    residual  f = A u - b + [int k(u_h) phi_i]_i - mu [m_i / u_i]_i     = G - mu H
    jacobian  B = A + [int k'(u_h) phi_j phi_i]_ij + mu diag(m_i / u_i^2) = J + mu M
    energy    0.5 u.A u - b.u + int K(u_h) - mu sum_i m_i ln u_i

where A is the stiffness plus the Robin mass, b the source plus the
Robin load and m_i = int phi_i the lumped mass of a free vertex (0 at a
Dirichlet vertex).  The barrier is nodal because the method keeps
u_i > 0 at the free vertices (`solvers.step_to_boundary`): the nodal sum
is infinite on exactly the faces u_i = 0, where -mu int ln u_h, summed at
quadrature points inside the cells, stays finite.  This is the usual
lumping of a logarithmic potential (Copetti & Elliott 1992).  So the
barrier never enters the quadrature pass: H and the diagonal of M are
vertex vectors.  Where each mechanism is documented:

* `_row_blocks`: the blocks of cells every pass runs over;
* `_Workspace`: what is kept per mesh (geometry, quadrature points, the
  two CSR patterns, the pair scatter shared by A and B, Dirichlet
  reduction, the lumped mass) and, through `fields_for`, per spec (A, b,
  coefficients);
* `_at_points`: the one walker that hands a pass its blocks;
* `_add_at`: the one cell scatter, a block at a time;
* `_power_pass` and `State`: the one power pass per state, which the
  residual and the Jacobian share;
* `assemble_residual`, `assemble_jacobian`, `assemble_barrier_gradient`,
  `compute_energy` and `l2_error`: the assembled objects.

Only what is kept is full-size: the workspace's arrays, a spec's fields
and a State's k'.  Every other array of a pass or a scatter, the local
vectors and matrices included, is one block's, so the peak of a pass is
what is kept plus one block.
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
    writes the canonical key min(i, j) * n + max(i, j) of each upper
    entry (i, j), per row block, into one key array, and the n diagonals
    after them, so that every diagonal is a pair.  One argsort ranks the
    keys; a key unlike the one ranked before it starts a pair, and the
    running count (cumsum) of these first occurrences numbers the pairs
    0..num_pairs-1 in key order, as np.unique's inverse would.  The full
    pattern is the pairs and the mirrors of the off-diagonal ones.
    Local matrices are kept on their upper triangle.  Every sum is per
    pair: `upper_slots` sends each upper entry, cells then Robin facets,
    to its pair; `full_mirror` and `mirror` send each full and each
    reduced slot to its pair, and the reduced pattern's fixed diagonal
    to num_pairs, one past the last.  So a symmetric operator is one sum
    over num_pairs + 1 bins and one gather, and A == A.T and B == B.T
    bit for bit.

    Every cell scatter adds a block's local vectors (`add_to_vertices`)
    or upper-triangle matrices (`add_to_pairs`) as the block forms them,
    with np.add.at in entry order (`_add_at`); the Robin facets' follow
    the cells'.  np.bincount adds its weights in that order too, from
    0.0, so each sum has the bits of one bincount over full-size local
    arrays, which no pass makes.  Full-size are only the arrays kept
    here (grad_gram, wq, the quadrature points, the patterns and their
    maps, mass), a spec's fields (`fields_for`) and a State's k'.

    Dirichlet constraints are imposed by row/column reduction: the
    Jacobian's Dirichlet rows and columns are those of the identity and
    the residual's Dirichlet entries are zeroed, which keeps B
    symmetric.  The barrier's vertex vectors come from `mass`,
    the lumped mass m_i = int phi_i with Dirichlet entries 0, through
    `lumped`; `diagonal` holds each row's diagonal slot in the reduced
    pattern, where B takes mu m_i / u_i^2.

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
        self.free = ~self.dirichlet_mask
        self.mass = np.zeros(n)
        for b in _row_blocks(len(cells), len(self.qw))[0]:
            self.add_to_vertices(self.mass, b, self.wq[b] @ self.lam)
        self.mass[self.dirichlet_mask] = 0.0
        self._build_patterns()
        self.spec_fields = WeakKeyDictionary()

    def _build_patterns(self):
        """The two patterns and the pair maps of the upper-triangle entries,
        cells then Robin facets.  The key array and the numbering's index
        arrays are the only full-size temporaries; each is freed once
        used."""
        n = self.num_vertices
        simplices = [(s, np.triu_indices(s.shape[1])) for s in (self.cells, self.robin_idx)]
        m = sum(len(s) * len(iu) for s, (iu, _) in simplices)
        # each entry's canonical key min * n + max, written per row block,
        # then the n diagonals, so that every diagonal is a pair (even one
        # of a vertex in no cell)
        key = np.empty(m + n, dtype=np.int64)
        at = 0
        for s, (iu, ju) in simplices:
            for b in _row_blocks(len(s), len(iu))[0]:
                i, j = s[b][:, iu], s[b][:, ju]
                block = key[at : at + i.size].reshape(i.shape)
                np.minimum(i, j, out=block)
                block *= n
                block += np.maximum(i, j)
                at += i.size
        diagonal = np.arange(n) * (n + 1)
        key[m:] = diagonal
        # a key unlike the one ranked before it opens a pair: the running
        # count of these first occurrences numbers the pairs in key order,
        # as np.unique's inverse does
        order = np.argsort(key)
        first = np.ones(len(key), dtype=bool)
        for b in _row_blocks(len(key) - 1, 1)[0]:
            ranked = key[order[b.start : b.stop + 1]]
            np.not_equal(ranked[1:], ranked[:-1], out=first[b.start + 1 : b.stop + 1])
        canonical = key[order[first]]
        del key
        pair = np.cumsum(first, dtype=np.int32)
        pair -= 1
        del first
        slots = np.empty(len(order), dtype=np.int32)
        slots[order] = pair
        del order, pair
        self.num_pairs = len(canonical)
        self.upper_slots = slots[:m]
        # the full pattern adds the mirror of each off-diagonal pair
        ci, cj = np.divmod(canonical, n)
        off = np.flatnonzero(ci != cj)
        keys = np.concatenate([canonical, cj[off] * n + ci[off]])
        del canonical, ci, cj
        order = np.argsort(keys)  # the keys are distinct
        unique = keys[order]
        del keys
        urows, ucols = np.divmod(unique, n)
        self.full_indptr = np.searchsorted(unique, np.arange(n + 1) * n).astype(np.int32)
        self.full_indices = ucols.astype(np.int32)
        self.full_mirror = np.concatenate([np.arange(self.num_pairs), off])[order].astype(np.int32)
        free_pair = self.free[urows] & self.free[ucols]
        reduced = free_pair | (urows == ucols)
        self.indptr = np.searchsorted(unique[reduced], np.arange(n + 1) * n).astype(np.int32)
        self.indices = self.full_indices[reduced]
        self.mirror = np.where(free_pair, self.full_mirror, np.int32(self.num_pairs))[reduced]
        self.diagonal = np.searchsorted(unique[reduced], diagonal)

    def add_to_pairs(self, sums, rows, local):
        """Adds the (rows, K) upper-triangle local matrices of the cells
        `rows` to their pairs' `sums`, whose entries lead `upper_slots`."""
        k = local.shape[1]
        _add_at(sums, self.upper_slots[rows.start * k : rows.stop * k], local)

    def add_to_vertices(self, sums, rows, local):
        """Adds the (rows, d+1) local vectors of the cells `rows` to their
        vertices' `sums`."""
        _add_at(sums, self.cells[rows].ravel(), local)

    def lumped(self, u, power):
        """[m_i / u_i^power]_i, 0 at the Dirichlet vertices, where u_i
        may be 0; a u_i^power that underflows or overflows gives inf or 0."""
        with np.errstate(divide="ignore", over="ignore"):
            return np.divide(self.mass, u**power, out=np.zeros(len(u)), where=self.free)

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
        trailing 1.0 for the fixed diagonal, to which the Jacobian adds
        its power terms' pair sums; and
        "load", the vector b (source plus Robin data).  Fields are
        evaluated per row block (`at`), so the only (M, Q) arrays a spec
        keeps are its coefficients that are not constant.
        """
        cached = self.spec_fields.get(spec)
        if cached is not None:
            return cached
        (m, q), k = self.wq.shape, self.grad_gram.shape[1]
        # the cells' upper-triangle stiffness and load vectors are added
        # first, the Robin facets' after them
        sums = np.zeros(self.num_pairs + 1)
        load = np.zeros(self.num_vertices)
        # a constant is kept as its scalar, which the power kernel
        # broadcasts; any other field fills its (M, Q) values per block
        coeffs = [(p, field.value if hasattr(field, "value") else np.empty((m, q)))
                  for p, field in spec.power_terms]
        for b in _row_blocks(m, q)[0]:
            diff = self.at(spec.diffusion, b)
            if not np.all((diff > 0) & (diff < np.inf)):
                raise CoefficientViolation("diffusion must be > 0 and finite at quadrature points")
            self.add_to_pairs(sums, b, (self.scale[b] * (diff @ self.qw))[:, None]
                              * self.grad_gram[b])
            self.add_to_vertices(load, b, (self.wq[b] * self.at(spec.source, b)) @ self.lam)
            for (_, c), (_, field) in zip(coeffs, spec.power_terms):
                if np.ndim(c):
                    c[b] = self.at(field, b)

        def on_facets(field):
            """A field, weighted, at the Robin facet quadrature points."""
            return self.fwq * np.asarray(field(self.fxq_flat), dtype=float).reshape(self.fwq.shape)

        _add_at(sums, self.upper_slots[m * k :], on_facets(spec.robin_coeff) @ self.fphi2)
        _add_at(load, self.robin_idx.ravel(), on_facets(spec.robin_data) @ self.flam)
        sums[-1] = 1.0
        fields = {
            "coeffs": coeffs,
            "operator": SparseMatrix.from_pattern(
                self.full_indptr, self.full_indices, sums[self.full_mirror]
            ),
            "operator_sums": sums,
            "load": load,
        }
        self.spec_fields[spec] = fields
        return fields


def _add_at(sums, index, values):
    """sums[index[i]] += values.flat[i] for each i in turn, the order in
    which np.bincount adds its weights: sums that start at 0.0 and take
    their entries block by block, in entry order, have the bits of one
    bincount over all of them.  inf - inf gives nan, as in bincount,
    without a warning."""
    with np.errstate(invalid="ignore", over="ignore"):
        np.add.at(sums, index, values.ravel())


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
    vertex: zero Dirichlet data is allowed, as the nodal barrier sums over
    the free vertices only (m_i = 0 at a Dirichlet vertex) and u_h > 0
    still holds at the quadrature points, where the power terms are
    evaluated, of every cell that has a free vertex."""
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
    """A read-only copy of the coefficients, and the (spec fields, k') of
    the residual's pass at them."""

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


def _power_pass(ws, fields, x):
    """The vertex sums of the local vectors int k phi_i of x, and the
    (fields, k') a State keeps: only k' is full-size; the local vectors
    and u^-2, which only p < 0 needs, are block scratch."""
    coeffs = fields["coeffs"]
    negative = any(p < 0 for p, _ in coeffs)
    slope = np.empty(ws.wq.shape)
    sums = np.zeros(ws.num_vertices)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for b, uq, k, u2, power, *inv in _at_points(ws, x, 3 + negative):
            _power_kernel([(p, c if np.ndim(c) == 0 else c[b]) for p, c in coeffs], uq,
                          (0, 1), (k, slope[b]), inv[0] if inv else None, u2, power)
            k *= ws.wq[b]
            ws.add_to_vertices(sums, b, k @ ws.lam)
    return sums, (fields, slope)


def assemble_residual(spec, mesh, u, mu=0.0):
    """Residual vector f = A u - b + int k(u_h) phi_i - mu H = G - mu*H with
    Dirichlet entries zeroed; at a State, keeps the pass on it."""
    x, ws, fields = _state_fields(spec, mesh, u, mu)
    linear = fields["operator"] @ x - fields["load"]
    f, kept = _power_pass(ws, fields, x)
    if isinstance(u, State):
        u.power_pass = kept
    # the sums are +-inf at an overflowed u, mu H at a huge mu: f is nonfinite
    with np.errstate(invalid="ignore", over="ignore"):
        f += linear
        f[ws.dirichlet_mask] = 0.0
        if mu > 0:
            f -= mu * ws.lumped(x, 1)
    return f


def assemble_barrier_gradient(mesh, u):
    """H = [m_i / u_i]_i, zero at the Dirichlet vertices, so that
    f(u, mu2) = f(u, mu1) + (mu1 - mu2) H(u); u must pass _check_state."""
    ws = workspace_for(mesh)
    return ws.lumped(_check_state(ws, u, True), 1)


def assemble_jacobian(spec, mesh, u, mu=0.0):
    """Jacobian B = J + mu*M at the state u, on the mesh's reduced CSR
    pattern, M = diag(m_i / u_i^2) added on its diagonal slots.

    Takes k' from a State's power_pass made for this spec, else runs the pass."""
    x, ws, fields = _state_fields(spec, mesh, u, mu)
    kept = u.power_pass if isinstance(u, State) else None
    if kept is None or kept[0] is not fields:
        _, kept = _power_pass(ws, fields, x)
    slope = kept[1]
    sums = np.zeros(ws.num_pairs + 1)
    for b, weighted in _at_points(ws, None):
        ws.add_to_pairs(sums, b, np.multiply(slope[b], ws.wq[b], out=weighted) @ ws.phi2)
    # A's sums and the fixed diagonal's 1.0, plus the power terms', per pair
    data = (fields["operator_sums"] + sums)[ws.mirror]
    if mu > 0:
        with np.errstate(invalid="ignore", over="ignore"):
            data[ws.diagonal] += mu * ws.lumped(x, 2)
    return SparseMatrix.from_pattern(ws.indptr, ws.indices, data)


def compute_energy(spec, mesh, u, mu=0.0):
    """0.5 u.Au - b.u + int K(u_h), and the barrier -mu sum m_i ln u_i
    over the free vertices when mu > 0."""
    u, ws, fields = _state_fields(spec, mesh, u, mu)
    coeffs = fields["coeffs"]
    density = np.empty(ws.wq.shape)
    for b, uq, u2, power, inv in _at_points(ws, u, 3):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            _power_kernel([(p, c if np.ndim(c) == 0 else c[b]) for p, c in coeffs], uq,
                          (-1,), (density[b],), inv, u2, power)
    linear = 0.5 * (fields["operator"] @ u) - fields["load"]
    energy = float(u @ linear) + float(np.einsum("mq,mq->", ws.wq, density))
    if mu > 0:
        energy -= mu * float(ws.mass @ np.log(u, out=np.zeros(len(u)), where=ws.free))
    return energy


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
