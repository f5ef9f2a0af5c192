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
and M_ij = int u_h^-2 phi_j phi_i.  assemble_residual builds f from k
and assemble_jacobian builds B from k', each at mu with one power_sum
pass and one bincount, so a caller pays for the matrix only when it
takes a Newton step.  At a fixed u, f is affine in mu, and
assemble_barrier_gradient builds H alone (one product and one bincount,
no power_sum), so f at a second mu costs f(mu1) + (mu1 - mu2) H.

Dirichlet constraints are imposed by row/column reduction: constrained
rows and columns of the Jacobian become identity and constrained
entries of the residual are zeroed, which keeps the matrix symmetric.

All integrals use the degree-5 rules from the quadrature module; the
negative-power and logarithm integrands are thereby approximated by a
finite sum with fixed positive weights.
"""

from weakref import WeakKeyDictionary

import numpy as np

from .errors import CoefficientViolation, DimensionMismatch, NonpositiveState
# add_scaled is unused here; the traced benchmark run wraps fem.add_scaled
from .linalg import SparseMatrix, add_scaled  # noqa: F401
from .mesh import Marker
from .problem import FeFunction, as_coefficients, power_sum
from .quadrature import REFERENCE_MEASURE, simplex_rule


def _pair_tables(k):
    """Local index pairs of a k-vertex simplex.

    Returns (iu, ju, sym, rows, cols): the upper-triangle pairs, the map
    from each entry of the row-major k*k local matrix to its
    upper-triangle column, and the row/column index of each entry.
    """
    iu, ju = np.triu_indices(k)
    sym = np.empty((k, k), dtype=np.intp)
    sym[iu, ju] = sym[ju, iu] = np.arange(len(iu))
    rows, cols = np.divmod(np.arange(k * k), k)
    return iu, ju, sym.ravel(), rows, cols


class _Workspace:
    """What assembly keeps per mesh and, through fields_for, per spec.

    Per mesh: geometry, quadrature tables of the cells and of the Robin
    facets, and two CSR patterns from one symbolic pass.  The full P1
    pattern (cell pairs and Robin facet pairs) carries the linear
    operator A; `slots` maps each entry of every local cell (then
    facet) matrix to its slot there.  The Dirichlet-reduced pattern
    (`indptr`, `indices`: free-free pairs and every diagonal) carries
    the Jacobian; `cell_slots` maps each local cell entry to its slot
    there, or to the dummy slot `nnz` when the reduction drops it, so
    the power part of a Jacobian is one bincount.

    Holds no reference to the mesh itself, so a mesh and its workspace
    are freed together once the mesh is no longer used.
    """

    def __init__(self, mesh):
        d = mesh.dim
        n = mesh.num_vertices
        self.num_vertices = n
        self.cells = cells = mesh.cells                  # (M, d+1)
        self.lam, self.qw = simplex_rule(d)              # (Q, d+1), (Q,)
        verts = mesh.vertices
        cell_pts = verts[cells]                          # (M, d+1, d)
        edges = cell_pts[:, 1:, :] - cell_pts[:, :1, :]
        inv_t = np.transpose(np.linalg.inv(edges), (0, 2, 1))
        grads = np.empty((len(cells), d + 1, d))
        grads[:, 1:, :] = inv_t
        grads[:, 0, :] = -inv_t.sum(axis=1)
        # local matrices are computed on the upper triangle only and
        # scattered to (i, j) and (j, i) alike, so A == A.T exactly
        iu, ju, self.sym, rr, cc = _pair_tables(d + 1)
        self.grad_gram = np.einsum("mkd,mkd->mk", grads[:, iu], grads[:, ju])
        self.phi2 = self.lam[:, iu] * self.lam[:, ju]    # (Q, K)
        self.scale = mesh.cell_volumes / REFERENCE_MEASURE[d]
        self.wq = self.scale[:, None] * self.qw          # (M, Q)
        self.xq_flat = np.einsum("qk,mkd->mqd", self.lam, cell_pts).reshape(-1, d)

        markers, fidx = mesh.facet_arrays
        robin = np.array([m == Marker.ROBIN for m in markers], dtype=bool)
        self.robin_idx = fidx[robin]                     # (B, d)
        self.flam, fqw = simplex_rule(d - 1)             # (Qf, d), (Qf,)
        fiu, fju, self.fsym, frr, fcc = _pair_tables(d)
        self.fphi2 = self.flam[:, fiu] * self.flam[:, fju]
        fscale = mesh.facet_measures[robin] / REFERENCE_MEASURE[d - 1]
        self.fwq = fscale[:, None] * fqw                 # (B, Qf)
        fpts = verts[self.robin_idx]                     # (B, d, dim)
        self.fxq_flat = np.einsum("qk,fkd->fqd", self.flam, fpts).reshape(-1, d)

        self.dirichlet_mask = np.zeros(n, dtype=bool)
        self.dirichlet_mask[mesh.dirichlet_vertices()] = True
        rows = np.concatenate([cells[:, rr].ravel(), self.robin_idx[:, frr].ravel()])
        cols = np.concatenate([cells[:, cc].ravel(), self.robin_idx[:, fcc].ravel()])
        self._build_patterns(rows, cols)
        self.spec_fields = WeakKeyDictionary()

    def _build_patterns(self, rows, cols):
        n = self.num_vertices
        fixed = np.flatnonzero(self.dirichlet_mask)
        keys = np.concatenate([rows * n + cols, fixed * (n + 1)])
        unique, slot = np.unique(keys, return_inverse=True)
        urows, ucols = np.divmod(unique, n)
        self.full_indptr = np.searchsorted(unique, np.arange(n + 1) * n).astype(np.int32)
        self.full_indices = ucols.astype(np.int32)
        self.slots = slot[: len(rows)].astype(np.int32)
        # the reduced pattern: the full slots that are free-free or diagonal
        free = ~self.dirichlet_mask
        free_pair = free[urows] & free[ucols]
        self.reduced = free_pair | (urows == ucols)
        self.fixed_diagonal = ~free_pair[self.reduced]
        self.nnz = int(self.reduced.sum())
        self.indptr = np.searchsorted(unique[self.reduced], np.arange(n + 1) * n).astype(np.int32)
        self.indices = self.full_indices[self.reduced]
        reduced_slot = np.where(free_pair, np.cumsum(self.reduced) - 1, self.nnz).astype(np.int32)
        self.cell_slots = reduced_slot[self.slots[: self.cells.size * self.cells.shape[1]]]

    def scatter(self, local):
        """Data on the reduced pattern from (M, K) upper-triangle local cell
        matrices, summed in cell order, so the (i, j) and (j, i) slots see
        identical additions; the fixed diagonal receives nothing."""
        vals = local[:, self.sym].ravel()
        return np.bincount(self.cell_slots, weights=vals, minlength=self.nnz + 1)[:-1]

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
        pattern; "reduced_operator", A's data on the reduced pattern
        with the fixed diagonal set to 1; and "load", the vector b
        (source plus Robin data).
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
        local = [stiffness[:, self.sym].ravel(), robin_mass[:, self.fsym].ravel()]
        data = np.bincount(self.slots, np.concatenate(local), minlength=len(self.full_indices))
        reduced = data[self.reduced]
        reduced[self.fixed_diagonal] = 1.0
        source = at(spec.source) if spec.source is not None else np.zeros(self.wq.shape)
        load = [(self.wq * source) @ self.lam, (self.fwq * at(spec.robin_data, True)) @ self.flam]
        vertices = np.concatenate([self.cells.ravel(), self.robin_idx.ravel()])
        fields = {
            "coeffs": coeffs,
            "operator": SparseMatrix.from_pattern(self.full_indptr, self.full_indices, data),
            "reduced_operator": reduced,
            "load": np.bincount(
                vertices, np.concatenate([v.ravel() for v in load]), minlength=self.num_vertices
            ),
        }
        self.spec_fields[spec] = fields
        return fields


_workspaces = WeakKeyDictionary()


def workspace_for(mesh):
    ws = _workspaces.get(mesh)
    if ws is None:
        ws = _Workspace(mesh)
        _workspaces[mesh] = ws
    return ws


def _check_state(mesh, u, positive):
    u = as_coefficients(u)
    if len(u) != mesh.num_vertices:
        raise DimensionMismatch(
            f"state has {len(u)} coefficients, mesh has {mesh.num_vertices} vertices"
        )
    if positive and np.any(u <= 0):
        raise NonpositiveState(
            f"state must be strictly positive at every vertex (min = {u.min():.3e})"
        )
    return u


def _at_quadrature(spec, mesh, u, mu):
    """(u, workspace, spec fields, power terms at mu, u at the quadrature
    points); the barrier -mu int ln u is the power term -mu u^-1 of k."""
    u = _check_state(mesh, u, mu > 0)
    ws = workspace_for(mesh)
    fields = ws.fields_for(spec)
    coeffs = fields["coeffs"] + [(-1, -mu)] if mu > 0 else fields["coeffs"]
    return u, ws, fields, coeffs, u[ws.cells] @ ws.lam.T


def assemble_residual(spec, mesh, u, mu=0.0):
    """Residual vector f = A u - b + int k_mu(u_h) phi_i = G - mu*H with
    Dirichlet entries zeroed."""
    u, ws, fields, coeffs, uq = _at_quadrature(spec, mesh, u, mu)
    linear = fields["operator"] @ u - fields["load"]
    return ws.vertex_sum((ws.wq * power_sum(coeffs, uq)) @ ws.lam, linear)


def assemble_barrier_gradient(mesh, u):
    """H_i = int u_h^-1 phi_i with Dirichlet entries zeroed, so that
    f(u, mu2) = f(u, mu1) + (mu1 - mu2) H(u); u must be > 0."""
    u = _check_state(mesh, u, True)
    ws = workspace_for(mesh)
    return ws.vertex_sum((ws.wq / (u[ws.cells] @ ws.lam.T)) @ ws.lam)


def assemble_jacobian(spec, mesh, u, mu=0.0):
    """Jacobian B = J + mu*M at the state u, on the mesh's reduced CSR pattern."""
    _, ws, fields, coeffs, uq = _at_quadrature(spec, mesh, u, mu)
    local = (ws.wq * power_sum(coeffs, uq, derivative=1)) @ ws.phi2
    data = fields["reduced_operator"] + ws.scatter(local)
    return SparseMatrix.from_pattern(ws.indptr, ws.indices, data)


def compute_energy(spec, mesh, u, mu=0.0):
    """0.5 u.Au - b.u + int K(u_h), and the barrier -mu*int(ln u_h) when mu > 0."""
    u, ws, fields, _, uq = _at_quadrature(spec, mesh, u, mu)
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
