"""Simplicial meshes: representation, generators, file I/O, geometry.

Meshes are valid by construction and immutable (`SimplicialMesh`): the
constructor checks shapes and indices, computes every cell's measure
with `simplex_geometry`, the closed-form kernel that also gives assembly
its basis gradients, fixes orientation by default and raises
ValidationError on any violation `validate` lists, so assembly relies
on a cell and on positive, finite measures without checking them again.
Every module that needs the boundary conditions reads the two arrays
`facets` and `robin`.
"""

import math
import numbers
from enum import Enum
from functools import cached_property, reduce

import numpy as np

from .errors import InvalidGeometry, ParseError, ValidationError


class Marker(str, Enum):
    """Boundary facet marker (Dirichlet or Robin condition)."""

    DIRICHLET = "dirichlet"
    ROBIN = "robin"


def simplex_geometry(vertices, simplices):
    """det(E), (M,), of the edge matrices E (rows e_i = v_i - v_0) and their
    cofactor rows, (M, d, d): cof[:, j] . e_i = det * delta_ij.  A swap of the
    last two vertices negates a nonzero det exactly; an overflow is inf or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        e = vertices[simplices[:, 1:].T] - vertices[simplices[:, 0]]  # (d, M, d): e[i] is e_i
        if len(e) == 1:
            cof = np.ones_like(e)
        elif len(e) == 2:  # each the other edge turned a quarter
            cof = np.stack([e[1, :, ::-1] * (1.0, -1.0), e[0, :, ::-1] * (-1.0, 1.0)])
        else:
            cof = np.stack([np.cross(e[1], e[2]), np.cross(e[2], e[0]), np.cross(e[0], e[1])])
        det = reduce(np.add, (e[0] * cof[0]).T)  # e_0 . c_0, summed in order
    return det, np.moveaxis(cof, 0, 1)


def _vertex_indices(name, rows, width, num_vertices):
    """`rows` as a new (R, width) int64 array of indices in [0, num_vertices);
    InvalidGeometry with a one-line reason for anything else."""
    try:
        given = np.asarray(rows)
    except ValueError as exc:  # ragged rows
        raise InvalidGeometry(f"bad {name}s: {exc}") from None
    if given.size == 0:
        given = np.zeros((0, width), dtype=np.int64)
    if given.ndim != 2 or given.shape[1] != width:
        raise InvalidGeometry(f"{name}s have shape {given.shape}, expected (n, {width})")
    if given.dtype.kind not in "iu":  # floats, or Python ints beyond int64 (object)
        raise InvalidGeometry(f"{name} vertex indices must be int64 integers, got {given.dtype}")
    index = given.astype(np.int64)
    if index.size and (index.min() < 0 or index.max() >= num_vertices):
        raise InvalidGeometry(f"{name} vertex index out of range")
    return index


def _read_only(array):
    array.setflags(write=False)
    return array


class SimplicialMesh:
    """Conforming simplicial mesh in 1, 2 or 3 dimensions.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1, 2 or 3.
    vertices : (N, dim) array of vertex coordinates.
    cells : (M, dim+1) integer array of vertex indices per cell.
    facets : (B, dim) integer array
        Each boundary facet is a (dim-1)-simplex given by `dim` vertex
        indices (a single vertex in 1D).
    markers : B Markers, or their names "dirichlet" and "robin"
        The boundary condition of each facet.
    fix_orientation : bool
        When True (default), cells with negative signed measure get two
        vertices swapped so every cell measure is positive.

    The read-only arrays `facets` (B, dim), int64, and `robin` (B,),
    bool, hold the boundary; `robin[i]` is False for a Dirichlet facet.
    The read-only `cell_volumes` (M,) holds the measure
    (length/area/volume) of every cell, positive and finite.  Vertices
    that are not an (N, dim) array of numbers, ragged rows, rows of
    another width, indices that are not int64 integers and an index out
    of range raise InvalidGeometry; a mesh that `validate` finds a
    violation in raises ValidationError with the violations it lists.
    """

    def __init__(self, dim, vertices, cells, facets=(), markers=(), fix_orientation=True):
        if dim not in (1, 2, 3):
            raise InvalidGeometry(f"dimension must be 1, 2 or 3, got {dim}")
        self.dim = int(dim)
        try:
            self.vertices = np.atleast_2d(np.array(vertices, dtype=float))
        except (TypeError, ValueError) as exc:  # ragged or non-numeric rows
            raise InvalidGeometry(f"bad vertices: {exc}") from None
        if self.vertices.ndim != 2 or self.vertices.shape[1] != self.dim:
            raise InvalidGeometry(
                f"vertices have shape {self.vertices.shape}, expected (n, {dim})"
            )
        self.cells = _vertex_indices("cell", cells, self.dim + 1, self.num_vertices)
        self.facets = _vertex_indices("facet", facets, self.dim, self.num_vertices)
        try:
            robin = {m: Marker(m) is Marker.ROBIN for m in set(markers)}
            self.robin = np.array([robin[m] for m in markers], dtype=bool)
        except (TypeError, ValueError) as exc:  # an unknown or unhashable marker
            raise InvalidGeometry(f"bad boundary: {exc}") from None
        if len(self.robin) != len(self.facets):
            raise InvalidGeometry(
                f"{len(self.robin)} boundary markers for {len(self.facets)} facets"
            )
        measures = simplex_geometry(self.vertices, self.cells)[0] / math.factorial(self.dim)
        if fix_orientation:
            flip = np.flatnonzero(measures < 0)
            self.cells[flip, -2:] = self.cells[flip, -1:-3:-1]  # swap the last two
            measures[flip] = -measures[flip]  # bit for bit what a recompute gives
        self.cell_volumes = measures
        for array in (self.vertices, self.cells, self.facets, self.robin, self.cell_volumes):
            _read_only(array)
        violations = validate(self)
        if violations:
            raise ValidationError(violations)

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    @cached_property
    def facet_measures(self):
        """Length/area of each boundary facet (1.0 for 1D point facets), read-only."""
        if self.dim == 1:
            return _read_only(np.ones(len(self.facets)))
        pts = self.vertices[self.facets]
        if self.dim == 2:
            return _read_only(np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1))
        cross = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
        return _read_only(0.5 * np.linalg.norm(cross, axis=1))

    def dirichlet_vertices(self):
        """Sorted indices of vertices lying on Dirichlet-marked facets."""
        return np.unique(self.facets[~self.robin])

    def __repr__(self):
        return (
            f"SimplicialMesh(dim={self.dim}, vertices={self.num_vertices}, "
            f"cells={self.num_cells}, facets={len(self.facets)})"
        )


def _facet_groups(mesh):
    """(owners, first) per boundary facet: the number of cells that have
    it as a face, and the index of the first facet listed on the same
    vertices (its own index when it is the first)."""
    d, n = mesh.dim, mesh.num_vertices
    # face r of a sorted cell drops its vertex r, so its vertices stay sorted
    keep = np.array([[j for j in range(d + 1) if j != r] for r in range(d + 1)])
    faces = np.sort(mesh.cells, axis=1)[:, keep].reshape(-1, d)
    rows = np.concatenate([faces, np.sort(mesh.facets, axis=1)])
    # one integer key per sorted row (a, b, c), below len(rows) * n: the
    # rank of a*n + b among the rows times n plus c in 3D, a*n + b in 2D
    key = rows[:, 0]
    if d == 3:
        key = np.unique(key * n + rows[:, 1], return_inverse=True)[1]
    if d > 1:
        key = key * n + rows[:, -1]
    face_keys, facet_keys = np.sort(key[: len(faces)]), key[len(faces) :]
    owners = (np.searchsorted(face_keys, facet_keys, "right")
              - np.searchsorted(face_keys, facet_keys, "left"))
    _, first, inverse = np.unique(facet_keys, return_index=True, return_inverse=True)
    return owners, first[inverse]


def validate(mesh):
    """Check the mesh invariants beyond shapes and indices: at least one
    cell, finite vertices, positive finite cell measures, and boundary
    facets that are each listed once and a face of exactly one cell.
    Returns a list of violations (empty = ok); the constructor raises
    ValidationError on any, so it is [] for every SimplicialMesh."""
    violations = [] if len(mesh.cells) else ["mesh has no cells"]
    finite = np.isfinite(mesh.vertices).all(axis=1)
    for v in np.flatnonzero(~finite):
        violations.append(f"vertex {v} has nonfinite coordinates")
    # a nonfinite measure on finite vertices has overflowed (to NaN through
    # inf - inf, or to inf) and reads inf; one on an infinite vertex is reported as that vertex
    measures = mesh.cell_volumes
    overflow = ~np.isfinite(measures) & finite[mesh.cells].all(axis=1)
    for c in np.flatnonzero(~(measures > 0) | overflow):  # NaN is not > 0 either
        kind, value = ("infinite", np.inf) if overflow[c] else ("nonpositive", measures[c])
        violations.append(f"cell {c} has {kind} measure {value:.3e}")

    owners, first = _facet_groups(mesh)
    repeated = first != np.arange(len(first))
    names = np.where(mesh.robin, Marker.ROBIN.value, Marker.DIRICHLET.value)
    for i in np.flatnonzero(repeated | (owners != 1)).tolist():
        facet = tuple(mesh.facets[i].tolist())
        if repeated[i]:
            markers = f"{names[first[i]]}, {names[i]}"
            violations.append(f"facet {facet} listed more than once (markers {markers})")
        if owners[i] != 1:
            violations.append(
                f"facet {facet} is a face of {owners[i]} cells, expected exactly 1"
            )
    return violations


def _count(name, value, least):
    """`value` as an int, or InvalidGeometry unless it is an integer >=
    least (a float, NaN included, is not)."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise InvalidGeometry(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def generate_interval_mesh(a, b, n_cells, left=Marker.DIRICHLET, right=Marker.DIRICHLET):
    """Uniform 1D mesh of [a, b] with `n_cells` cells.

    Endpoint markers default to Dirichlet on both sides.
    """
    if not -math.inf < a < b < math.inf:
        raise InvalidGeometry(f"need -inf < a < b < inf, got a={a}, b={b}")
    n_cells = _count("n_cells", n_cells, 1)
    x = np.linspace(a, b, n_cells + 1)
    cells = np.column_stack([np.arange(n_cells), np.arange(1, n_cells + 1)])
    return SimplicialMesh(1, x[:, None], cells, [[0], [n_cells]], [left, right])


def generate_annulus_mesh(
    r_in, r_out, n_radial, n_angular, inner=Marker.ROBIN, outer=Marker.ROBIN
):
    """Structured triangulation of the annulus r_in <= |x| <= r_out.

    `n_radial` rings of quads, each split into two triangles, with
    `n_angular` vertices per ring.  The circles are approximated by the
    inscribed regular polygons on `n_angular` vertices.
    """
    if not 0 < r_in < r_out < math.inf:
        raise InvalidGeometry(f"need 0 < r_in < r_out < inf, got {r_in}, {r_out}")
    n_radial, n_angular = _count("n_radial", n_radial, 1), _count("n_angular", n_angular, 3)
    radii = np.linspace(r_in, r_out, n_radial + 1)
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    verts = np.stack([np.outer(radii, np.cos(theta)), np.outer(radii, np.sin(theta))], axis=-1)
    verts = verts.reshape(-1, 2)

    j = np.arange(n_angular)
    jn = (j + 1) % n_angular
    lo = n_angular * np.arange(n_radial)[:, None]  # first vertex of each ring but the last
    hi = lo + n_angular
    # two triangles per quad, in (ring, angle) order
    cells = np.stack([lo + j, lo + jn, hi + j, lo + jn, hi + jn, hi + j], axis=-1).reshape(-1, 3)
    last = n_radial * n_angular
    facets = np.stack([j, jn, last + j, last + jn], axis=-1).reshape(-1, 2)  # inner, outer edge
    return SimplicialMesh(2, verts, cells, facets, [inner, outer] * n_angular)


def _unit_rows(points):
    """Each row of `points` over its Euclidean norm.  The batched dot sums
    a row's squares as np.linalg.norm does, so each row is v / norm(v)
    bit for bit (an einsum or a column sum is not)."""
    return points / np.sqrt(np.matmul(points[:, None, :], points[:, :, None])[:, 0])


def _icosphere(subdivisions):
    """Unit icosphere: (vertices, triangles) after `subdivisions` splits.

    A split puts a vertex at the normalized midpoint of every edge, in
    the order the triangles' edges ab, bc, ca first meet it, and turns
    triangle abc into (a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca).
    """
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    verts = _unit_rows(np.array(raw, dtype=float))
    faces = np.array([
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ], dtype=np.int64)
    for _ in range(subdivisions):
        n = len(verts)
        a, b = faces.ravel(), np.roll(faces, -1, axis=1).ravel()  # edges ab, bc, ca
        _, first, edge = np.unique(np.minimum(a, b) * n + np.maximum(a, b),
                                   return_index=True, return_inverse=True)
        order = np.argsort(first)  # the edges in order of first appearance
        number = np.empty(len(first), dtype=np.int64)
        number[order] = np.arange(n, n + len(first))
        mids = number[edge].reshape(-1, 3)  # ab, bc, ca
        ends = first[order]
        verts = np.concatenate([verts, _unit_rows(verts[a[ends]] + verts[b[ends]])])
        corners = np.stack([faces, mids, np.roll(mids, 1, axis=1)], axis=-1)
        faces = np.concatenate([corners, mids[:, None, :]], axis=1).reshape(-1, 3)
    return verts, faces


def generate_shell_mesh(
    r_in,
    r_out,
    refinement,
    inner=Marker.ROBIN,
    outer=Marker.ROBIN,
    n_layers=None,
):
    """Tetrahedral spherical shell r_in <= |x| <= r_out.

    The sphere is an icosphere subdivided `refinement` times, extruded
    radially through `n_layers` layers (default refinement + 1).  Radii
    are geometrically graded, which keeps cell aspect ratios reasonable
    for large r_out/r_in; each triangular prism is split into three
    tetrahedra with globally consistent quad-face diagonals.
    """
    if not (0 < r_in < r_out < math.inf and r_out / r_in < math.inf):
        raise InvalidGeometry(
            f"need 0 < r_in < r_out < inf and a finite r_out / r_in, got {r_in}, {r_out}"
        )
    refinement = _count("refinement", refinement, 0)
    layers = refinement + 1 if n_layers is None else _count("n_layers", n_layers, 1)

    surf_v, surf_f = _icosphere(refinement)
    ns = len(surf_v)
    radii = r_in * (r_out / r_in) ** (np.arange(layers + 1) / layers)
    verts = np.concatenate([r * surf_v for r in radii], axis=0)

    # p: a triangle's sorted vertices (global surface ids fix the diagonal
    # pattern) on the inner sphere of a layer, q: the same on its outer one
    p = np.sort(surf_f, axis=1) + ns * np.arange(layers)[:, None, None]
    (p0, p1, p2), (q0, q1, q2) = np.moveaxis(p, -1, 0), np.moveaxis(p + ns, -1, 0)
    # three tetrahedra per prism, in (layer, triangle) order
    cells = np.stack([p0, p1, p2, q2, p0, p1, q2, q1, p0, q1, q2, q0], axis=-1).reshape(-1, 4)
    facets = np.stack([surf_f, layers * ns + surf_f], axis=1).reshape(-1, 3)  # inner, outer
    return SimplicialMesh(3, verts, cells, facets, [inner, outer] * len(surf_f))


def save_mesh(mesh, path):
    """Write a mesh to the whitespace-separated ASCII format."""
    lines = [f"dim {mesh.dim}", f"vertices {mesh.num_vertices}"]
    for v in mesh.vertices:
        lines.append(" ".join(repr(float(c)) for c in v))
    lines.append(f"cells {mesh.num_cells}")
    for cell in mesh.cells:
        lines.append(" ".join(str(int(i)) for i in cell))
    lines.append(f"boundary_facets {len(mesh.facets)}")
    names = np.where(mesh.robin, Marker.ROBIN.value, Marker.DIRICHLET.value)
    for name, facet in zip(names.tolist(), mesh.facets.tolist()):
        lines.append(name + " " + " ".join(map(str, facet)))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path):
    """Read a mesh written by save_mesh; an inverted cell is rejected, not fixed."""
    try:
        with open(path) as fh:
            raw = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not a text file ({exc.reason})") from None
    # the fields of each nonblank line, comments removed, with its 1-based number
    lines = [(fields, i) for i, line in enumerate(raw, 1)
             if (fields := line.split("#", 1)[0].split())]
    pos = 0

    def header(keyword):
        """(count, line number) of the next line, which must be `keyword <count>`."""
        nonlocal pos
        if pos == len(lines):
            raise ParseError("unexpected end of file", line=len(raw))
        (fields, line), pos = lines[pos], pos + 1
        if len(fields) != 2 or fields[0] != keyword:
            raise ParseError(f"expected '{keyword} <count>'", line=line)
        try:
            return int(fields[1]), line
        except ValueError:
            raise ParseError(f"bad count {fields[1]!r}", line=line) from None

    def section(keyword, width, convert, what):
        """convert(fields) of each row, of `width` fields, of a `keyword` section."""
        nonlocal pos
        count, line = header(keyword)
        if not 0 <= count <= len(lines) - pos:
            raise ParseError(f"{keyword} {count} is negative or exceeds the lines left", line=line)
        rows, pos = lines[pos : pos + count], pos + count
        values = []
        for fields, line in rows:
            if len(fields) != width:
                raise ParseError(f"expected {what}", line=line)
            try:
                values.append(convert(fields))
            except ValueError as exc:
                raise ParseError(f"bad {keyword} row: {exc}", line=line) from None
        return values

    dim, line = header("dim")
    if dim not in (1, 2, 3):
        raise ParseError(f"unsupported dimension {dim}", line=line)
    verts = section("vertices", dim, lambda f: [float(x) for x in f], f"{dim} coordinates")

    def indices(fields):
        """The vertex indices of a row, checked as Python ints (before int64)."""
        values = [int(x) for x in fields]
        for i in values:
            if not 0 <= i < len(verts):
                raise ValueError(f"vertex index {i} is not in [0, {len(verts)})")
        return values

    cells = section("cells", dim + 1, indices, f"{dim + 1} vertex indices")
    boundary = section("boundary_facets", dim + 1, lambda f: (Marker(f[0]), indices(f[1:])),
                       f"marker plus {dim} indices")
    if pos < len(lines):
        raise ParseError("content after the last boundary facet", line=lines[pos][1])
    return SimplicialMesh(dim, np.reshape(verts, (-1, dim)), cells, [f for _, f in boundary],
                          [m for m, _ in boundary], fix_orientation=False)
