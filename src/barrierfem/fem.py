"""P1 Galerkin assembly of residuals, Jacobians and energies.

For a state u_h = sum_i u_i phi_i and a barrier parameter mu >= 0 the
assembled objects are

    residual_i  = int [ a grad(u_h).grad(phi_i) + k_mu(u_h) phi_i ]
                  + int_Robin (c u_h - g) phi_i - int source phi_i
    jacobian_ij = int [ a grad(phi_j).grad(phi_i) + k_mu'(u_h) phi_j phi_i ]
                  + int_Robin c phi_j phi_i

with k_mu(u) = k(u) - mu u^-1: the barrier -mu int ln u of the energy is
one more power term, p = -1 with coefficient -mu.  So the residual is
f = G - mu H and the Jacobian B = J + mu M, with H_i = int u_h^-1 phi_i
and M_ij = int u_h^-2 phi_j phi_i.  assemble_residual builds f from k
and assemble_jacobian builds B from k', each at mu with one power_sum
pass and one scatter, so a caller pays for the matrix only when it
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
    """Per-mesh geometry, quadrature tables and the CSR sparsity pattern.

    Holds no reference to the mesh itself, so a mesh and its workspace
    are freed together once the mesh is no longer used.

    The pattern is that of the Dirichlet-reduced operator: free-free
    cell pairs, Robin facet pairs and the diagonal of every fixed
    vertex.  Each entry of every local cell (then facet) matrix has a
    slot in the CSR data array, or the dummy slot `nnz` when the
    reduction drops it, so numeric assembly is one bincount.
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
        self.grads = grads                               # (M, d+1, d)
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
        self.robin_idx = fidx[robin]
        rows, cols = [cells[:, rr].ravel()], [cells[:, cc].ravel()]
        if len(self.robin_idx):
            self.flam, fqw = simplex_rule(d - 1)         # (Qf, d), (Qf,)
            fiu, fju, self.fsym, frr, fcc = _pair_tables(d)
            self.fphi2 = self.flam[:, fiu] * self.flam[:, fju]
            fscale = mesh.facet_measures[robin] / REFERENCE_MEASURE[d - 1]
            self.fwq = fscale[:, None] * fqw             # (B, Qf)
            fpts = verts[self.robin_idx]                 # (B, d, dim)
            self.fxq_flat = np.einsum("qk,fkd->fqd", self.flam, fpts).reshape(-1, d)
            rows.append(self.robin_idx[:, frr].ravel())
            cols.append(self.robin_idx[:, fcc].ravel())

        dv = mesh.dirichlet_vertices()
        self.dirichlet_mask = np.zeros(n, dtype=bool)
        self.dirichlet_mask[dv] = True
        self._build_pattern(np.concatenate(rows), np.concatenate(cols), dv)
        self.spec_fields = WeakKeyDictionary()

    def _build_pattern(self, rows, cols, fixed):
        n = self.num_vertices
        mask = self.dirichlet_mask
        free = ~(mask[rows] | mask[cols])
        keys = np.concatenate([rows[free] * n + cols[free], fixed * n + fixed])
        unique, slot = np.unique(keys, return_inverse=True)
        self.nnz = len(unique)
        self.indptr = np.searchsorted(unique, np.arange(n + 1) * n).astype(np.int32)
        self.indices = (unique % n).astype(np.int32)
        n_free = int(free.sum())
        self.slots = np.full(len(rows), self.nnz, dtype=np.int32)
        self.slots[free] = slot[:n_free]
        self.cell_slots = self.slots[: self.cells.size * self.cells.shape[1]]
        self.fixed_slots = slot[n_free:]

    def scatter(self, local, facet_vals=None):
        """CSR data of the pattern from upper-triangle local matrices.

        `local` is (M, K) for the cells; `facet_vals` the expanded Robin
        facet entries (see fields_for).  Entries are summed in cell order,
        then facet order, so the (i, j) and (j, i) slots see identical
        additions.
        """
        vals = local[:, self.sym].ravel()
        slots = self.cell_slots
        if facet_vals is not None:
            vals = np.concatenate([vals, facet_vals])
            slots = self.slots
        return np.bincount(slots, weights=vals, minlength=self.nnz + 1)[:-1]

    def fields_for(self, spec):
        """Evaluate the u-independent coefficient fields once per spec."""
        cached = self.spec_fields.get(spec)
        if cached is not None:
            return cached
        shape = self.wq.shape
        diff = np.asarray(spec.diffusion(self.xq_flat), dtype=float)
        if np.any(diff <= 0):
            raise CoefficientViolation("diffusion must be > 0 at quadrature points")
        coeffs = []
        for p, c in spec.power_terms:
            c = np.asarray(c(self.xq_flat), dtype=float).reshape(shape)
            # a constant coefficient is kept as a scalar: power_sum broadcasts it
            coeffs.append((p, c.flat[0] if np.all(c == c.flat[0]) else c))
        source = (
            np.asarray(spec.source(self.xq_flat), dtype=float).reshape(shape)
            if spec.source is not None
            else None
        )
        fields = {
            "diffusion_w": self.scale * (diff.reshape(shape) @ self.qw),
            "coeffs": coeffs,
            "source": source,
        }
        if len(self.robin_idx):
            fshape = self.fwq.shape
            cf = np.asarray(spec.robin_coeff(self.fxq_flat), dtype=float).reshape(fshape)
            fields["robin_coeff"] = cf
            fields["robin_data"] = np.asarray(
                spec.robin_data(self.fxq_flat), dtype=float
            ).reshape(fshape)
            # the Robin matrix does not depend on u
            fields["robin_matrix"] = ((self.fwq * cf) @ self.fphi2)[:, self.fsym].ravel()
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
    """(u, workspace, spec fields, power terms at mu, u at the cell vertices, u at the
    quadrature points); the barrier -mu int ln u is the power term -mu u^-1 of k."""
    u = _check_state(mesh, u, mu > 0)
    ws = workspace_for(mesh)
    fields = ws.fields_for(spec)
    coeffs = fields["coeffs"] + [(-1, -mu)] if mu > 0 else fields["coeffs"]
    u_cells = u[ws.cells]                                # (M, d+1)
    return u, ws, fields, coeffs, u_cells, u_cells @ ws.lam.T


def assemble_residual(spec, mesh, u, mu=0.0):
    """Residual vector f = G - mu*H with Dirichlet entries zeroed."""
    u, ws, fields, coeffs, u_cells, uq = _at_quadrature(spec, mesh, u, mu)
    n = ws.num_vertices
    gradu = np.einsum("mk,mkd->md", u_cells, ws.grads)   # (M, d)
    kq = power_sum(coeffs, uq)
    if fields["source"] is not None:
        kq -= fields["source"]
    local_res = np.einsum(
        "md,mkd->mk", fields["diffusion_w"][:, None] * gradu, ws.grads
    )
    local_res += (ws.wq * kq) @ ws.lam
    residual = np.bincount(ws.cells.ravel(), weights=local_res.ravel(), minlength=n)

    # Robin boundary terms
    if len(ws.robin_idx):
        uqf = u[ws.robin_idx] @ ws.flam.T                # (B, Qf)
        cf, gf = fields["robin_coeff"], fields["robin_data"]
        local = (ws.fwq * (cf * uqf - gf)) @ ws.flam
        residual += np.bincount(ws.robin_idx.ravel(), weights=local.ravel(), minlength=n)
    residual[ws.dirichlet_mask] = 0.0
    return residual


def assemble_barrier_gradient(mesh, u):
    """H_i = int u_h^-1 phi_i with Dirichlet entries zeroed, so that
    f(u, mu2) = f(u, mu1) + (mu1 - mu2) H(u); u must be > 0."""
    u = _check_state(mesh, u, True)
    ws = workspace_for(mesh)
    local = (ws.wq / (u[ws.cells] @ ws.lam.T)) @ ws.lam
    barrier = np.bincount(ws.cells.ravel(), weights=local.ravel(), minlength=ws.num_vertices)
    barrier[ws.dirichlet_mask] = 0.0
    return barrier


def assemble_jacobian(spec, mesh, u, mu=0.0):
    """Jacobian B = J + mu*M at the state u, on the mesh's CSR pattern."""
    _, ws, fields, coeffs, _, uq = _at_quadrature(spec, mesh, u, mu)
    local_jac = fields["diffusion_w"][:, None] * ws.grad_gram
    local_jac += (ws.wq * power_sum(coeffs, uq, derivative=1)) @ ws.phi2
    data = ws.scatter(local_jac, fields.get("robin_matrix"))
    data[ws.fixed_slots] = 1.0
    return SparseMatrix.from_pattern(ws.indptr, ws.indices, data)


def compute_energy(spec, mesh, u, mu=0.0):
    """Total energy, including the -mu*int(ln u) barrier term when mu > 0."""
    u, ws, fields, _, u_cells, uq = _at_quadrature(spec, mesh, u, mu)
    gradu = np.einsum("mk,mkd->md", u_cells, ws.grads)
    grad_sq = np.einsum("md,md->m", gradu, gradu)
    total = 0.5 * float(fields["diffusion_w"] @ grad_sq)

    density = power_sum(fields["coeffs"], uq, derivative=-1)
    if fields["source"] is not None:
        density = density - fields["source"] * uq
    if mu > 0:
        with np.errstate(divide="ignore"):
            density = density - mu * np.log(uq)
    total += float(np.einsum("mq,mq->", ws.wq, density))

    if len(ws.robin_idx):
        uqf = u[ws.robin_idx] @ ws.flam.T
        cf, gf = fields["robin_coeff"], fields["robin_data"]
        total += float(np.einsum("fq,fq->", ws.fwq, 0.5 * cf * uqf**2 - gf * uqf))
    return total


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
