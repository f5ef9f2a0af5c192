"""Mesh and workspace set-up against the formulations it replaced.

The references below are the earlier set-up kernels, kept as oracles:
the icosphere built one edge at a time, `validate` on a three-key
lexsort and a second np.unique, quadrature points from one einsum, and
CSR patterns from one np.unique over the keys of both orientations.
Cell measures are checked against a second pass of the closed-form
kernel over the cells as they end up, so a flipped cell's negated
measure must equal its recompute.  Every comparison is byte for byte
(dtype, shape and bits).  The kernel itself is checked against LAPACK's
determinant and inverse to roundoff.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import barrierfem.fem as fem
from barrierfem.errors import ValidationError
from barrierfem.fem import _rule_points, _Workspace
from barrierfem.mesh import (
    Marker,
    SimplicialMesh,
    _icosphere,
    generate_annulus_mesh,
    generate_interval_mesh,
    generate_shell_mesh,
    simplex_geometry,
    validate,
)
from barrierfem.quadrature import simplex_rule

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
R, D = Marker.ROBIN, Marker.DIRICHLET


def assert_bits(got, want, name=""):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


def recomputed_measures(mesh):
    """Every cell's measure from a fresh kernel pass over the mesh's cells
    as they are now, flipped ones included."""
    return simplex_geometry(mesh.vertices, mesh.cells)[0] / math.factorial(mesh.dim)


def reference_icosphere(subdivisions):
    """The icosphere split one triangle and one edge at a time."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    verts = [np.array(v, dtype=float) / np.linalg.norm(v) for v in raw]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(subdivisions):
        midpoint = {}

        def mid(i, j):
            key = (min(i, j), max(i, j))
            if key not in midpoint:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return np.array(verts), np.array(faces, dtype=np.int64)


def mesh_arrays(mesh):
    """The constructor arguments that rebuild `mesh` as it is."""
    markers = np.where(mesh.robin, R.value, D.value)
    return mesh.dim, mesh.vertices, mesh.cells, mesh.facets, markers, False


def reference_validate(dim, vertices, cells, facets, markers, fix_orientation):
    """validate of SimplicialMesh(dim, vertices, cells, facets, markers,
    fix_orientation), from those arrays alone (indices in range): the
    measures from a second kernel pass over the cells as they end up,
    with a negative cell's last two vertices swapped when orientation is
    fixed, a three-key lexsort for the facet groups and np.unique for
    the first facet on the same vertices."""
    violations = []
    vertices = np.asarray(vertices, dtype=float)
    cells = np.array(cells, dtype=np.int64).reshape(-1, dim + 1)
    facets = np.asarray(facets, dtype=np.int64).reshape(-1, dim)
    if not len(cells):
        violations.append("mesh has no cells")
    if fix_orientation:
        flip = simplex_geometry(vertices, cells)[0] < 0
        cells[flip] = cells[flip][:, list(range(dim - 1)) + [dim, dim - 1]]
    for v in np.flatnonzero(~np.isfinite(vertices).all(axis=1)):
        violations.append(f"vertex {v} has nonfinite coordinates")
    measures = simplex_geometry(vertices, cells)[0] / math.factorial(dim)
    for c in np.flatnonzero(~(measures > 0)):
        violations.append(f"cell {c} has nonpositive measure {measures[c]:.3e}")

    keep = np.array([[j for j in range(dim + 1) if j != r] for r in range(dim + 1)])
    faces = np.sort(cells[:, keep], axis=-1).reshape(-1, dim)
    rows = np.concatenate([faces, np.sort(facets, axis=1)])
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    group = np.empty(len(rows), dtype=np.int64)
    group[order] = np.cumsum(starts) - 1
    counts = np.bincount(group[: len(faces)], minlength=int(starts.sum()))
    group = group[len(faces):]
    owners = counts[group]
    _, first, inverse = np.unique(group, return_index=True, return_inverse=True)
    first = first[inverse]
    repeated = first != np.arange(len(group))
    names = [Marker(m).value for m in markers]
    for i in np.flatnonzero(repeated | (owners != 1)).tolist():
        facet = tuple(facets[i].tolist())
        if repeated[i]:
            pair = f"{names[first[i]]}, {names[i]}"
            violations.append(f"facet {facet} listed more than once (markers {pair})")
        if owners[i] != 1:
            violations.append(
                f"facet {facet} is a face of {owners[i]} cells, expected exactly 1"
            )
    return violations


def reference_patterns(ws):
    """The workspace's pattern arrays from one np.unique over the keys of
    both orientations of every local upper-triangle entry.  A sum's index
    is its pair's: the rank of the pair's canonical (row <= col) slot
    among the canonical slots, and the fixed diagonal's index is one past
    the last pair."""
    d = ws.cells.shape[1] - 1
    n = ws.num_vertices
    iu, ju = np.triu_indices(d + 1)
    fiu, fju = np.triu_indices(d)
    rows = np.concatenate([ws.cells[:, iu].ravel(), ws.robin_idx[:, fiu].ravel()])
    cols = np.concatenate([ws.cells[:, ju].ravel(), ws.robin_idx[:, fju].ravel()])
    m = len(rows)
    fixed = np.flatnonzero(ws.dirichlet_mask)
    keys = np.concatenate([rows * n + cols, cols * n + rows, fixed * (n + 1)])
    unique, slot = np.unique(keys, return_inverse=True)
    urows, ucols = np.divmod(unique, n)
    canonical = urows <= ucols
    pair = np.cumsum(canonical) - 1  # at each canonical slot, its pair's index
    lower = np.minimum(slot[:m], slot[m : 2 * m])  # each entry's canonical slot
    canonical_slot = np.arange(len(unique))
    canonical_slot[slot[:m]] = canonical_slot[slot[m : 2 * m]] = lower
    full_mirror = pair[canonical_slot]
    free = ~ws.dirichlet_mask
    free_pair = free[urows] & free[ucols]
    reduced = free_pair | (urows == ucols)
    return {
        "full_indptr": np.searchsorted(unique, np.arange(n + 1) * n).astype(np.int32),
        "full_indices": ucols.astype(np.int32),
        "upper_slots": full_mirror[slot[:m]].astype(np.int32),
        "full_mirror": full_mirror.astype(np.int32),
        "indptr": np.searchsorted(unique[reduced], np.arange(n + 1) * n).astype(np.int32),
        "indices": ucols[reduced].astype(np.int32),
        "mirror": np.where(free_pair, full_mirror, canonical.sum())[reduced].astype(np.int32),
    }


def assert_workspace_matches_references(mesh):
    ws = _Workspace(mesh)
    d = mesh.dim
    assert_bits(ws.xq_flat, np.einsum("qk,mkd->mqd", ws.lam, mesh.vertices[mesh.cells])
                .reshape(-1, d), "xq_flat")
    assert_bits(ws.fxq_flat, np.einsum("qk,fkd->fqd", ws.flam, mesh.vertices[ws.robin_idx])
                .reshape(-1, d), "fxq_flat")
    for name, want in reference_patterns(ws).items():
        assert_bits(getattr(ws, name), want, name)


MARKER_PAIRS = [(R, R), (D, D), (R, D), (D, R)]
GENERATED = (
    [pytest.param(generate_shell_mesh, (1.0, 10.0, r), {"inner": i, "outer": o},
                  id=f"shell{r}-{i.value}-{o.value}")
     for r in range(4) for i, o in MARKER_PAIRS]
    + [pytest.param(generate_shell_mesh, (0.5, 50.0, 1), {"n_layers": 4}, id="shell1-4layers")]
    + [pytest.param(generate_annulus_mesh, (1.0, 2.0) + grid, {"inner": i, "outer": o},
                    id=f"annulus{grid[0]}x{grid[1]}-{i.value}-{o.value}")
       for grid in ((1, 3), (3, 12), (12, 48)) for i, o in MARKER_PAIRS]
    + [pytest.param(generate_interval_mesh, (0.1, 10.0, n), {"left": i, "right": o},
                    id=f"interval{n}-{i.value}-{o.value}")
       for n in (1, 8, 40) for i, o in MARKER_PAIRS]
)


@pytest.mark.parametrize("subdivisions", range(5))
def test_icosphere_matches_reference(subdivisions):
    verts, faces = _icosphere(subdivisions)
    want_verts, want_faces = reference_icosphere(subdivisions)
    assert_bits(verts, want_verts, "vertices")
    assert_bits(faces, want_faces, "faces")


@pytest.mark.parametrize("generate, args, kwargs", GENERATED)
def test_generated_mesh_matches_references(generate, args, kwargs):
    mesh = generate(*args, **kwargs)
    assert_bits(mesh.cell_volumes, recomputed_measures(mesh))
    assert validate(mesh) == reference_validate(*mesh_arrays(mesh)) == []
    assert_workspace_matches_references(mesh)


@st.composite
def perturbed_meshes(draw):
    """(arguments, kept): the constructor arguments of a small generated
    mesh whose cells list their vertices in drawn orders, so some have
    negative measure, with a boundary drawn from its boundary facets,
    repeats of them and interior faces, in drawn orders, with drawn
    markers, and orientation fixed or not; `kept` marks the facets drawn
    once each from its boundary facets."""
    kind = draw(st.sampled_from(["interval", "annulus", "shell"]))
    if kind == "interval":
        base = generate_interval_mesh(0.0, 1.0, draw(st.integers(1, 6)))
    elif kind == "annulus":
        base = generate_annulus_mesh(1.0, 2.0, draw(st.integers(1, 2)), draw(st.integers(3, 6)))
    else:
        base = generate_shell_mesh(1.0, 2.0, draw(st.integers(0, 1)),
                                   n_layers=draw(st.integers(1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = base.dim
    cells = rng.permuted(base.cells, axis=1)
    keep = [[j for j in range(d + 1) if j != r] for r in range(d + 1)]
    faces = cells[:, keep].reshape(-1, d)  # boundary and interior faces
    kept = base.facets[rng.random(len(base.facets)) < draw(st.floats(0.0, 1.0))]
    extra = np.concatenate([base.facets, faces])[
        rng.integers(0, len(base.facets) + len(faces), draw(st.integers(0, 12)))]
    order = rng.permutation(len(kept) + len(extra))
    facets = rng.permuted(np.concatenate([kept, extra])[order], axis=1)
    markers = rng.choice([R.value, D.value], len(facets))
    args = (d, base.vertices, cells, facets, markers, draw(st.booleans()))
    return args, order < len(kept)


@SETTINGS
@given(perturbed_meshes())
def test_perturbed_mesh_matches_references(case):
    args, kept = case
    want = reference_validate(*args)
    if want:
        with pytest.raises(ValidationError) as err:
            SimplicialMesh(*args)
        assert err.value.violations == want
        # no mesh is built; the same cells with their orientation fixed
        # and only the kept boundary facets are compared instead
        dim, vertices, cells, facets, markers, _ = args
        args = (dim, vertices, cells, facets[kept], markers[kept], True)
        assert reference_validate(*args) == []
    mesh = SimplicialMesh(*args)
    assert_bits(mesh.cell_volumes, recomputed_measures(mesh))
    assert validate(mesh) == []
    assert_workspace_matches_references(mesh)


def test_validate_messages_in_order():
    """Every kind of violation, listed in the order validate reports them."""
    line = (1, [[0.0], [1.0], [np.inf], [3.0], [4.0]], [[1, 0], [1, 2], [2, 3], [3, 4]],
            [[3], [1], [0], [3], [1], [4]],
            ["robin", "dirichlet", "dirichlet", "dirichlet", "robin", "robin"], False)
    with pytest.raises(ValidationError) as err:
        SimplicialMesh(*line)
    assert err.value.violations == reference_validate(*line) == [
        "vertex 2 has nonfinite coordinates",
        "cell 0 has nonpositive measure -1.000e+00",
        "cell 2 has nonpositive measure -inf",
        "facet (3,) is a face of 2 cells, expected exactly 1",
        "facet (1,) is a face of 2 cells, expected exactly 1",
        "facet (3,) listed more than once (markers robin, dirichlet)",
        "facet (3,) is a face of 2 cells, expected exactly 1",
        "facet (1,) listed more than once (markers dirichlet, robin)",
        "facet (1,) is a face of 2 cells, expected exactly 1",
    ]
    square = (2, [[0, 0], [1, 0], [0, 1], [1, 1]], [[0, 1, 2], [2, 1, 3]],
              [[1, 2], [2, 0], [0, 1], [1, 0], [3, 1], [2, 3], [0, 1]],
              ["robin", "dirichlet", "dirichlet", "robin", "robin", "dirichlet", "robin"], True)
    with pytest.raises(ValidationError) as err:
        SimplicialMesh(*square)
    assert err.value.violations == reference_validate(*square) == [
        "facet (1, 2) is a face of 2 cells, expected exactly 1",
        "facet (1, 0) listed more than once (markers dirichlet, robin)",
        "facet (0, 1) listed more than once (markers dirichlet, robin)",
    ]


@st.composite
def well_shaped_simplices(draw):
    """(vertices, simplices): up to 8 simplices in 1, 2 or 3D, each the
    identity edges plus at most 0.2 per entry (so every singular value is
    at least 0.4), scaled, shifted, and with its vertices in a drawn order."""
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    perturbation = draw(arrays(float, (m, d, d), elements=st.floats(-0.2, 0.2)))
    scale = draw(st.floats(1e-3, 1e3))
    shift = draw(arrays(float, (m, 1, d), elements=st.floats(-100.0, 100.0)))
    edges = scale * (np.eye(d) + perturbation)
    vertices = (np.concatenate([np.zeros((m, 1, d)), edges], axis=1) + shift).reshape(-1, d)
    order = draw(st.permutations(range(d + 1)))
    return vertices, np.arange(m)[:, None] * (d + 1) + np.array(order, dtype=np.int64)


@SETTINGS
@given(well_shaped_simplices())
def test_simplex_geometry_matches_lapack(drawn):
    """cof / det is the inverse transpose of the edge matrix and det its
    determinant, to roundoff (LAPACK as the oracle)."""
    vertices, simplices = drawn
    det, cof = simplex_geometry(vertices, simplices)
    edges = vertices[simplices[:, 1:]] - vertices[simplices[:, :1]]
    inv_t = np.transpose(np.linalg.inv(edges), (0, 2, 1))
    error = np.abs(cof / det[:, None, None] - inv_t).max(axis=(1, 2))
    assert np.all(error <= 1e-12 * np.abs(inv_t).max(axis=(1, 2)))
    assert np.all(np.abs(det - np.linalg.det(edges)) <= 1e-13 * np.abs(det))


@SETTINGS
@given(st.integers(1, 3), st.data())
def test_simplex_geometry_swap_negates_det(dim, data):
    """Swapping the last two vertices negates every nonzero determinant
    bit for bit, an overflowed one included: the constructor negates the
    measure of the cells it flips instead of recomputing it."""
    vertices = data.draw(arrays(float, (6, dim), elements=st.floats(-1e200, 1e200)))
    simplices = data.draw(arrays(np.int64, (8, dim + 1), elements=st.integers(0, 5)))
    swapped = simplices.copy()
    swapped[:, -2:] = simplices[:, -1:-3:-1]
    det = simplex_geometry(vertices, simplices)[0]
    nonzero = (det != 0) & ~np.isnan(det)
    assert_bits((-simplex_geometry(vertices, swapped)[0])[nonzero], det[nonzero])


COORDINATES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([0.0, -0.0]))


@SETTINGS
@given(st.integers(1, 3), st.integers(0, 40), st.integers(1, 12), st.data())
def test_rule_points_match_einsum(dim, simplices, block_rows, data):
    """Signed zeros, tiny and huge coordinates, and blocks of a few rows:
    the points are still the einsum's, bit for bit."""
    lam, _ = simplex_rule(dim)
    vertices = data.draw(arrays(float, (6, dim), elements=COORDINATES))
    ids = data.draw(arrays(np.int64, (simplices, dim + 1), elements=st.integers(0, 5)))
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.einsum("qk,mkd->mqd", lam, vertices[ids]).reshape(-1, dim)
        assert_bits(_rule_points(lam, vertices, ids), want)
        with mock.patch.object(fem, "_BLOCK_ELEMENTS", block_rows * len(lam)):
            assert_bits(_rule_points(lam, vertices, ids), want)
