"""P1 Galerkin assembly of residuals, Jacobians and energies.

The Galerkin system is a linear part plus a power-law part.  For a
state u_h = sum_i u_i phi_i and a barrier parameter mu >= 0 the
assembled objects are

    residual  = A u - b + [int k_mu(u_h) phi_i]_i
    jacobian  = A + [int k_mu'(u_h) phi_j phi_i]_ij
    energy    = 0.5 u.A u - b.u + int K(u_h) - mu int ln u_h

with the linear operator A_ij = int a grad(phi_j).grad(phi_i) +
int_Robin c phi_j phi_i, the load b_i = int source phi_i +
int_Robin g phi_i, and K' = k.  A and b do not depend on u: the mesh
workspace assembles them once per spec (`_Workspace.fields_for`), so
each state costs the power terms only.

k_mu(u) = k(u) - mu u^-1: the barrier -mu int ln u of the energy is
one more power term, p = -1 with coefficient -mu.  So the residual is
f = G - mu H and the Jacobian B = J + mu M, with H_i = int u_h^-1 phi_i
and M_ij = int u_h^-2 phi_j phi_i.

One power pass (problem.power_sums) over the quadrature points serves
both.  It runs in cache-sized blocks of cells, and its only full-size
arrays are its outputs.  assemble_residual sums k_mu and, in the same
loop over the terms, k' of the spec's terms, and weights k_mu in
place.  Given a `State`, it keeps the pass (the spec's fields, k' and
u^-2) on that state; assemble_jacobian at that state, at any mu, adds
the barrier's mu u^-2 to k' and needs no pass of its own, and at
anything else it runs the pass.  A Newton step takes its matrix at the
state of its last residual, so each step makes one pass, and a caller
pays for the matrix only when it takes a step.  At a fixed u, f is
affine in mu, and assemble_barrier_gradient builds H alone (one
product and one bincount, no power pass), so f at a second mu costs
f(mu1) + (mu1 - mu2) H.

The workspace is built once per mesh.  Its quadrature points are
summed one coordinate at a time over cache-sized blocks of cells, and
its CSR patterns come from one sort of the canonical (row <= col)
pairs and a second of those pairs and their mirrors; both give the
arrays of the einsum and of a sort over both orientations bit for bit.

A and the Jacobian share one scatter.  The upper triangle of every
local matrix goes into the canonical (row <= col) slots of the mesh's
full pattern with one bincount, and one gather mirrors the sums onto a
pattern: the full one for A, the Dirichlet-reduced one for the
Jacobian, whose sums are A's plus its power part's.

Dirichlet constraints are imposed by row/column reduction: constrained
rows and columns of the Jacobian become identity and constrained
entries of the residual are zeroed, which keeps the matrix symmetric.

All integrals use the degree-5 rules from the quadrature module; the
negative-power and logarithm integrands are thereby approximated by a
finite sum with fixed positive weights.
"""

from weakref import WeakKeyDictionary

import numpy as np

from .errors import CoefficientViolation, DimensionMismatch, InvalidGeometry, NonpositiveState
# add_scaled is unused here; the traced benchmark run wraps fem.add_scaled
from .linalg import SparseMatrix, add_scaled  # noqa: F401
from .mesh import simplex_geometry
from .problem import (
    _BLOCK_ELEMENTS, FeFunction, as_coefficients, barrier_slope, power_sum, power_sums,
)
from .quadrature import REFERENCE_MEASURE, simplex_rule


class _Workspace:
    """What assembly keeps per mesh and, through fields_for, per spec.

    Per mesh: geometry, quadrature tables of the cells and of the Robin
    facets (points from `_rule_points`), and two CSR patterns: the full
    P1 pattern (`full_indptr`, `full_indices`) carries the linear
    operator A, the Dirichlet-reduced one (`indptr`, `indices`:
    free-free pairs and every diagonal) the Jacobian.  `_build_patterns`
    sorts the canonical (row <= col) pairs once and builds the full
    pattern from them and their mirrors.  Local matrices are kept on their
    upper triangle.  `upper_slots` sends each upper entry, cells then
    Robin facets, to the canonical slot (row <= col) of its pair in the
    full pattern; `full_mirror` and `mirror` send each full and each
    reduced slot to its canonical one, and the reduced pattern's fixed
    diagonal to the slot one past the full pattern.  So a symmetric
    operator is one bincount and one gather, and A == A.T bit for bit.

    Holds no reference to the mesh itself, so a mesh and its workspace
    are freed together once the mesh is no longer used.
    """

    def __init__(self, mesh):
        d, n = mesh.dim, mesh.num_vertices
        vol = mesh.cell_volumes
        bad = np.flatnonzero(~((vol > 0) & (vol < np.inf)))
        if bad.size:  # the gradients below divide by each cell's det
            raise InvalidGeometry(f"cell {bad[0]} has measure {vol[bad[0]]}, not > 0 and finite")
        self.num_vertices = n
        self.cells = cells = mesh.cells                  # (M, d+1)
        self.lam, self.qw = simplex_rule(d)              # (Q, d+1), (Q,)
        verts = mesh.vertices
        det, cof = simplex_geometry(verts, cells)
        grads = cof / det[:, None, None]                 # barycentric gradients 1..d
        grads = np.concatenate([-grads.sum(axis=1, keepdims=True), grads], axis=1)
        iu, ju = np.triu_indices(d + 1)
        self.grad_gram = np.einsum("mkd,mkd->mk", grads[:, iu], grads[:, ju])
        self.phi2 = self.lam[:, iu] * self.lam[:, ju]    # (Q, K)
        self.scale = vol / REFERENCE_MEASURE[d]
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
        n, m = self.num_vertices, len(rows)
        fixed = np.flatnonzero(self.dirichlet_mask)
        # one sort of the canonical (row <= col) keys; the full pattern
        # adds the mirror of each off-diagonal pair
        upper = np.concatenate([np.minimum(rows, cols) * n + np.maximum(rows, cols),
                                fixed * (n + 1)])
        canonical, canonical_of = np.unique(upper, return_inverse=True)
        ci, cj = np.divmod(canonical, n)
        off = ci != cj
        keys = np.concatenate([canonical, cj[off] * n + ci[off]])
        order = np.argsort(keys)  # the keys are distinct
        unique = keys[order]
        slot = np.empty(len(keys), dtype=np.int64)
        slot[order] = np.arange(len(keys))
        urows, ucols = np.divmod(unique, n)
        self.full_indptr = np.searchsorted(unique, np.arange(n + 1) * n).astype(np.int32)
        self.full_indices = ucols.astype(np.int32)
        canonical_slot = slot[: len(canonical)]
        self.upper_slots = canonical_slot[canonical_of[:m]].astype(np.int32)
        self.full_mirror = np.empty(len(keys), dtype=np.int64)
        self.full_mirror[canonical_slot] = canonical_slot
        self.full_mirror[slot[len(canonical):]] = canonical_slot[off]
        free = ~self.dirichlet_mask
        free_pair = free[urows] & free[ucols]
        reduced = free_pair | (urows == ucols)
        self.indptr = np.searchsorted(unique[reduced], np.arange(n + 1) * n).astype(np.int32)
        self.indices = self.full_indices[reduced]
        self.mirror = np.where(free_pair, self.full_mirror, len(unique))[reduced]

    def scatter(self, local, sums):
        """Reduced-pattern data: `sums` (A's "operator_sums", or 0.0) plus
        one bincount of the (M, K) upper-triangle local cell matrices, whose
        slots lead `upper_slots`, gathered by `mirror`."""
        power = np.bincount(self.upper_slots[: local.size], weights=local.ravel(),
                            minlength=len(self.full_indices) + 1)
        return (sums + power)[self.mirror]

    def vertex_sum(self, local, offset=0.0):
        """offset plus the (M, d+1) local cell vectors summed at their
        vertices, with the Dirichlet entries zeroed."""
        total = offset + np.bincount(
            self.cells.ravel(), weights=local.ravel(), minlength=self.num_vertices
        )
        total[self.dirichlet_mask] = 0.0
        return total

    def fields_for(self, spec):
        """The u-independent part of the system, assembled once per spec.

        A dict of "coeffs", the (p, c_p) power terms with c_p at the
        quadrature points (a scalar when constant); "operator", the
        linear operator A (stiffness plus Robin mass) on the full
        pattern; "operator_sums", A's sums in the canonical slots and a
        trailing 1.0 for the fixed diagonal, which `scatter` takes; and
        "load", the vector b (source plus Robin data).
        """
        cached = self.spec_fields.get(spec)
        if cached is not None:
            return cached

        def at(field, facets=False):
            """A field at the cell (or Robin facet) quadrature points."""
            pts, wq = (self.fxq_flat, self.fwq) if facets else (self.xq_flat, self.wq)
            return np.asarray(field(pts), dtype=float).reshape(wq.shape)

        diff = at(spec.diffusion)
        if not np.all((diff > 0) & (diff < np.inf)):
            raise CoefficientViolation("diffusion must be > 0 and finite at quadrature points")
        coeffs = []
        for p, c in spec.power_terms:
            c = at(c)
            # a constant coefficient is kept as a scalar: power_sum broadcasts it
            coeffs.append((p, c.flat[0] if np.all(c == c.flat[0]) else c))

        stiffness = (self.scale * (diff @ self.qw))[:, None] * self.grad_gram
        robin_mass = (self.fwq * at(spec.robin_coeff, True)) @ self.fphi2
        local = np.concatenate([stiffness.ravel(), robin_mass.ravel()])
        sums = np.bincount(self.upper_slots, local, minlength=len(self.full_indices) + 1)
        sums[-1] = 1.0
        load = [(self.wq * at(spec.source)) @ self.lam,
                (self.fwq * at(spec.robin_data, True)) @ self.flam]
        vertices = np.concatenate([self.cells.ravel(), self.robin_idx.ravel()])
        fields = {
            "coeffs": coeffs,
            "operator": SparseMatrix.from_pattern(
                self.full_indptr, self.full_indices, sums[self.full_mirror]
            ),
            "operator_sums": sums,
            "load": np.bincount(
                vertices, np.concatenate([v.ravel() for v in load]), minlength=self.num_vertices
            ),
        }
        self.spec_fields[spec] = fields
        return fields


def _rule_points(lam, vertices, simplices):
    """(len(simplices) * Q, dim) physical points of the barycentric rule
    points `lam` (Q, k) on each simplex (k vertex indices).

    One coordinate at a time over cache-sized blocks of simplices, each
    point is 0.0 + the k products lam[q, r] * x_r summed in r order, so
    the points are bit for bit those of einsum("qk,mkd->mqd"), with no
    (M, Q, d) temporaries."""
    q, k = lam.shape
    dim = vertices.shape[1]
    points = np.empty((len(simplices), q, dim))
    rows = max(1, _BLOCK_ELEMENTS // q)
    for lo in range(0, len(simplices), rows):
        block = simplices[lo : lo + rows]
        for j in range(dim):
            x = vertices[block, j]                               # (b, k)
            total = np.add(0.0, np.multiply.outer(x[:, 0], lam[:, 0]))  # -0.0 becomes 0.0
            for r in range(1, k):
                total += np.multiply.outer(x[:, r], lam[:, r])
            points[lo : lo + rows, :, j] = total
    return points.reshape(-1, dim)


_workspaces = WeakKeyDictionary()


def workspace_for(mesh):
    ws = _workspaces.get(mesh)
    if ws is None:
        ws = _Workspace(mesh)
        _workspaces[mesh] = ws
    return ws


def _check_state(ws, u, positive):
    """u as coefficients; with `positive`, u must be > 0 at every free
    vertex and >= 0 at every vertex (zero Dirichlet data is allowed)."""
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


def _power_pass(ws, fields, x, mu):
    """k_mu at the quadrature points of x, and the (fields, k', u^-2) a State keeps."""
    (k, slope), inv_u2 = power_sums(fields["coeffs"], x[ws.cells] @ ws.lam.T, (0, 1), mu)
    return k, (fields, slope, inv_u2)


def assemble_residual(spec, mesh, u, mu=0.0):
    """Residual vector f = A u - b + int k_mu(u_h) phi_i = G - mu*H with
    Dirichlet entries zeroed; at a State, keeps the pass on it."""
    x, ws, fields = _state_fields(spec, mesh, u, mu)
    linear = fields["operator"] @ x - fields["load"]
    k, kept = _power_pass(ws, fields, x, mu)
    if isinstance(u, State):
        u.power_pass = kept
    with np.errstate(invalid="ignore"):  # k is +-inf at an overflowed u: f is nonfinite
        k *= ws.wq  # in place: k is the pass's own array
        return ws.vertex_sum(k @ ws.lam, linear)


def assemble_barrier_gradient(mesh, u):
    """H_i = int u_h^-1 phi_i with Dirichlet entries zeroed, so that
    f(u, mu2) = f(u, mu1) + (mu1 - mu2) H(u); u must pass _check_state."""
    ws = workspace_for(mesh)
    u = _check_state(ws, u, True)
    return ws.vertex_sum((ws.wq / (u[ws.cells] @ ws.lam.T)) @ ws.lam)


def assemble_jacobian(spec, mesh, u, mu=0.0):
    """Jacobian B = J + mu*M at the state u, on the mesh's reduced CSR pattern.

    Takes k' and u^-2 from a State's power_pass made for this spec (with
    u^-2 at mu > 0, as a Newton step's residual makes it), else runs the pass."""
    x, ws, fields = _state_fields(spec, mesh, u, mu)
    kept = u.power_pass if isinstance(u, State) else None
    if kept is None or kept[0] is not fields or (mu > 0 and kept[2] is None):
        _, kept = _power_pass(ws, fields, x, mu)
    _, slope, inv_u2 = kept
    local = (ws.wq * barrier_slope(slope, inv_u2, mu)) @ ws.phi2
    data = ws.scatter(local, fields["operator_sums"])
    return SparseMatrix.from_pattern(ws.indptr, ws.indices, data)


def compute_energy(spec, mesh, u, mu=0.0):
    """0.5 u.Au - b.u + int K(u_h), and the barrier -mu*int(ln u_h) when mu > 0."""
    u, ws, fields = _state_fields(spec, mesh, u, mu)
    uq = u[ws.cells] @ ws.lam.T
    density = power_sum(fields["coeffs"], uq, derivative=-1)
    if mu > 0:
        density -= mu * np.log(uq)
    linear = 0.5 * (fields["operator"] @ u) - fields["load"]
    return float(u @ linear) + float(np.einsum("mq,mq->", ws.wq, density))


def apply_dirichlet(u, mesh, spec):
    """Overwrite Dirichlet-vertex coefficients with the boundary data."""
    coeffs = as_coefficients(u).copy()
    dv = mesh.dirichlet_vertices()
    if dv.size:
        coeffs[dv] = spec.dirichlet_data(mesh.vertices[dv])
    return FeFunction(coeffs)


def l2_error(mesh, u, exact):
    """L2 norm of u_h - exact over the mesh (degree-5 quadrature)."""
    u = as_coefficients(u)
    ws = workspace_for(mesh)
    uq = u[ws.cells] @ ws.lam.T
    eq = np.asarray(exact(ws.xq_flat), dtype=float).reshape(uq.shape)
    return float(np.sqrt(np.einsum("mq,mq->", ws.wq, (uq - eq) ** 2)))
