"""Mesh generators, invariants, geometry and file I/O."""

import numpy as np
import pytest

from barrierfem.errors import InvalidGeometry, ParseError, ValidationError
from barrierfem.mesh import (
    Marker,
    SimplicialMesh,
    _icosphere,
    generate_annulus_mesh,
    generate_interval_mesh,
    generate_shell_mesh,
    load_mesh,
    save_mesh,
    validate,
)


def shoelace(tri):
    (x0, y0), (x1, y1), (x2, y2) = tri
    return 0.5 * abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))


def tet_volume(pts):
    return abs(np.linalg.det(pts[1:] - pts[0])) / 6.0


def reference_annulus(r_in, r_out, n_radial, n_angular, inner, outer):
    """The annulus built one ring, quad and edge at a time."""
    radii = np.linspace(r_in, r_out, n_radial + 1)
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    verts = np.empty((len(radii) * n_angular, 2))
    for i, r in enumerate(radii):
        verts[i * n_angular : (i + 1) * n_angular, 0] = r * np.cos(theta)
        verts[i * n_angular : (i + 1) * n_angular, 1] = r * np.sin(theta)
    cells = []
    for i in range(n_radial):
        base, top = i * n_angular, (i + 1) * n_angular
        for j in range(n_angular):
            jn = (j + 1) % n_angular
            cells.append((base + j, base + jn, top + j))
            cells.append((base + jn, top + jn, top + j))
    facets, markers = [], []
    last = n_radial * n_angular
    for j in range(n_angular):
        jn = (j + 1) % n_angular
        facets += [(j, jn), (last + j, last + jn)]
        markers += [inner, outer]
    return SimplicialMesh(2, verts, np.array(cells), facets, markers)


def reference_shell(r_in, r_out, refinement, inner, outer, n_layers=None):
    """The shell built one prism and triangle at a time."""
    layers = refinement + 1 if n_layers is None else n_layers
    surf_v, surf_f = _icosphere(refinement)
    ns = len(surf_v)
    radii = r_in * (r_out / r_in) ** (np.arange(layers + 1) / layers)
    verts = np.concatenate([r * surf_v for r in radii], axis=0)
    cells = []
    for layer in range(layers):
        lo, hi = layer * ns, (layer + 1) * ns
        for tri in surf_f:
            g = sorted(tri)
            p = [lo + v for v in g]
            q = [hi + v for v in g]
            cells.append((p[0], p[1], p[2], q[2]))
            cells.append((p[0], p[1], q[2], q[1]))
            cells.append((p[0], q[1], q[2], q[0]))
    facets, markers = [], []
    last = layers * ns
    for tri in surf_f:
        facets += [tuple(int(v) for v in tri), tuple(int(last + v) for v in tri)]
        markers += [inner, outer]
    return SimplicialMesh(3, verts, np.array(cells), facets, markers)


def assert_same_mesh(mesh, reference):
    for name in ("vertices", "cells", "facets", "robin"):
        got, want = getattr(mesh, name), getattr(reference, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name


class TestInterval:
    def test_paper_domain(self):
        mesh = generate_interval_mesh(0.1, 10, 99)
        assert mesh.num_vertices == 100
        assert mesh.vertices.min() == 0.1 and mesh.vertices.max() == 10.0

    def test_unit_interval(self):
        mesh = generate_interval_mesh(0, 1, 1)
        assert mesh.num_vertices == 2 and mesh.num_cells == 1
        assert mesh.cell_volumes[0] == 1.0

    def test_partition_of_measure(self):
        mesh = generate_interval_mesh(0, 1, 4)
        assert abs(mesh.cell_volumes.sum() - 1.0) < 1e-15

    def test_invalid(self):
        with pytest.raises(InvalidGeometry):
            generate_interval_mesh(1.0, 1.0, 4)
        with pytest.raises(InvalidGeometry):
            generate_interval_mesh(2.0, 1.0, 4)

    def test_markers(self):
        mesh = generate_interval_mesh(0, 1, 3, left=Marker.ROBIN, right=Marker.DIRICHLET)
        assert mesh.facets.tolist() == [[0], [3]]
        assert mesh.robin.tolist() == [True, False]


class TestAnnulus:
    def test_small_counts_and_area(self):
        mesh = generate_annulus_mesh(1, 2, 1, 4)
        assert mesh.num_vertices == 8 and mesh.num_cells == 8
        # oracle: shoelace sum over the emitted triangles
        total = sum(shoelace(mesh.vertices[list(c)]) for c in mesh.cells)
        assert np.isclose(mesh.cell_volumes.sum(), total, rtol=1e-14)
        # inscribed polygonal annulus area: n/2 sin(2 pi/n) (R^2 - r^2)
        poly = 0.5 * 4 * np.sin(2 * np.pi / 4) * (4 - 1)
        assert np.isclose(total, poly, rtol=1e-13)

    def test_area_converges_to_annulus(self):
        mesh = generate_annulus_mesh(1, 2, 2, 64)
        analytic = np.pi * (4 - 1)
        assert abs(mesh.cell_volumes.sum() - analytic) / analytic < 0.01

    def test_invalid(self):
        with pytest.raises(InvalidGeometry):
            generate_annulus_mesh(2, 1, 1, 4)
        with pytest.raises(InvalidGeometry):
            generate_annulus_mesh(-1, 1, 1, 4)
        with pytest.raises(InvalidGeometry):
            generate_annulus_mesh(1, 2, 1, 2)

    def test_valid_and_positive(self):
        mesh = generate_annulus_mesh(0.5, 3, 3, 10)
        assert validate(mesh) == []
        assert np.all(mesh.cell_volumes > 0)

    @pytest.mark.parametrize("grid", [(1, 2, 1, 4), (1, 2, 2, 64), (0.5, 3, 3, 10), (1, 2, 1, 5)])
    def test_matches_reference_construction(self, grid):
        args = (*grid, Marker.DIRICHLET, Marker.ROBIN)
        assert_same_mesh(generate_annulus_mesh(*args), reference_annulus(*args))


class TestShell:
    @pytest.mark.parametrize("r_in,r_out,refinement", [(1, 100, 2), (50, 100, 1), (10, 100, 0)])
    def test_generator_emits_valid_meshes(self, r_in, r_out, refinement):
        mesh = generate_shell_mesh(r_in, r_out, refinement)
        assert validate(mesh) == []
        assert np.all(mesh.cell_volumes > 0)

    def test_volume_matches_polyhedral_oracle(self):
        # radial extrusion of the icosphere fills exactly the region between
        # the scaled polyhedra, so total volume = V_poly(1) * (R^3 - r^3)
        # with V_poly(1) recovered from the inner boundary facets
        mesh = generate_shell_mesh(2, 5, 1)
        inner = [f for f in mesh.facets if np.linalg.norm(mesh.vertices[f[0]]) < 3]
        v_inner = sum(
            abs(np.linalg.det(mesh.vertices[list(f)])) / 6.0 for f in inner
        )
        v_unit = v_inner / 2.0**3
        expected = v_unit * (5.0**3 - 2.0**3)
        assert np.isclose(mesh.cell_volumes.sum(), expected, rtol=1e-10)

    def test_volume_near_analytic(self):
        mesh = generate_shell_mesh(1, 100, 2)
        analytic = 4.0 / 3.0 * np.pi * (100**3 - 1)
        ratio = mesh.cell_volumes.sum() / analytic
        assert 0.95 < ratio < 1.0  # level-2 icosphere volume deficit ~3.4%

    def test_layers_control_vertex_count(self):
        mesh = generate_shell_mesh(1, 100, 2, n_layers=8)
        assert mesh.num_vertices == 162 * 9

    @pytest.mark.parametrize(
        "r_in, refinement, n_layers",
        [(50, 0, None), (10, 1, None), (1, 2, None), (1, 3, None), (10, 2, 5)],
    )
    @pytest.mark.parametrize("inner", [Marker.ROBIN, Marker.DIRICHLET])
    def test_matches_reference_construction(self, r_in, refinement, n_layers, inner):
        args = (r_in, 100, refinement, inner, Marker.DIRICHLET)
        assert_same_mesh(
            generate_shell_mesh(*args, n_layers=n_layers), reference_shell(*args, n_layers)
        )

    def test_invalid(self):
        with pytest.raises(InvalidGeometry):
            generate_shell_mesh(100, 1, 1)
        with pytest.raises(InvalidGeometry):
            generate_shell_mesh(1, 100, -1)


@pytest.mark.parametrize(
    "generate, args",
    [
        (generate_interval_mesh, (0.0, np.inf, 4)),
        (generate_interval_mesh, (-np.inf, 1.0, 4)),
        (generate_annulus_mesh, (1.0, np.inf, 1, 3)),
        (generate_shell_mesh, (1.0, np.inf, 0)),
        (generate_shell_mesh, (1e-300, 1e300, 0)),  # finite radii, infinite ratio
        (generate_interval_mesh, (0.0, 1.0, 2.5)),
        (generate_interval_mesh, (0.0, 1.0, np.nan)),
        (generate_annulus_mesh, (1.0, 2.0, 2, 3.5)),
        (generate_annulus_mesh, (1.0, 2.0, 2.0, 4)),
        (generate_shell_mesh, (1.0, 2.0, 1.5)),
        (generate_shell_mesh, (1.0, 2.0, 1, Marker.ROBIN, Marker.ROBIN, 2.5)),
    ],
    ids=["interval_b", "interval_a", "annulus", "shell", "shell_ratio", "interval_n_cells",
         "interval_nan_n_cells", "annulus_n_angular", "annulus_n_radial", "shell_refinement",
         "shell_n_layers"],
)
def test_generators_reject_infinite_bounds(generate, args):
    # rejected before any array is built, so no RuntimeWarning (an error
    # under pytest) and a one-line message, not a list of every vertex; the
    # same holds for a count that is not an integer
    with pytest.raises(InvalidGeometry) as err:
        generate(*args)
    assert "\n" not in str(err.value) and len(str(err.value)) < 100


def violations(*args, **kwargs):
    """The violations of the ValidationError that SimplicialMesh(*args,
    **kwargs) raises: an invalid mesh is never built."""
    with pytest.raises(ValidationError) as err:
        SimplicialMesh(*args, **kwargs)
    return err.value.violations


class TestValidate:
    def test_duplicate_facet_markers(self):
        mesh = generate_interval_mesh(0, 1, 2)
        found = violations(1, mesh.vertices, mesh.cells, [[0], [0], [2]],
                           [Marker.DIRICHLET, Marker.ROBIN, Marker.DIRICHLET])
        assert "facet (0,) listed more than once (markers dirichlet, robin)" in found

    def test_inverted_cell(self):
        found = violations(1, [[0.0], [1.0]], [[1, 0]], [[0]], [Marker.DIRICHLET],
                           fix_orientation=False)
        assert any("nonpositive measure" in v for v in found)
        # a NaN coordinate gives NaN measures, which are not > 0 either
        assert violations(1, [[0.0], [np.nan], [1.0]], [[0, 1], [1, 2]], [[0], [2]],
                          [Marker.DIRICHLET] * 2, fix_orientation=False) == [
            "vertex 1 has nonfinite coordinates",
            "cell 0 has nonpositive measure nan",
            "cell 1 has nonpositive measure nan",
        ]

    @pytest.mark.parametrize("facets, markers, violation", [
        ([[0], [0], [20]], ["robin"] * 3,
         "facet (0,) listed more than once (markers robin, robin)"),
        ([[0], [20], [10]], ["robin", "robin", "dirichlet"],
         "facet (10,) is a face of 2 cells, expected exactly 1"),
    ], ids=["robin_end_twice", "interior_dirichlet_vertex"])
    def test_invalid_boundary_raises_at_construction(self, facets, markers, violation):
        # a solve on either would be wrong: the first counts the Robin
        # term at x = 0.1 twice, the second pins u = 0 at an interior vertex
        mesh = generate_interval_mesh(0.1, 10, 20, Marker.ROBIN, Marker.ROBIN)
        assert violations(1, mesh.vertices, mesh.cells, facets, markers) == [violation]

    def test_orientation_fix(self):
        fixed = SimplicialMesh(1, [[0.0], [1.0]], [[1, 0]])
        assert fixed.cell_volumes[0] > 0

    @pytest.mark.parametrize("mesh", [
        SimplicialMesh(1, [[0.0], [1.0]], [[1, 0]], [[0]], ["robin"]),
        SimplicialMesh(1, [[0.0], [1.0]], [[0, 1]], [[0]], ["robin"], fix_orientation=False),
        generate_interval_mesh(0, 1, 2),
        generate_annulus_mesh(1, 2, 1, 3),
        generate_shell_mesh(1, 2, 0),
    ], ids=["fixed", "unfixed", "interval", "annulus", "shell"])
    def test_measures_are_read_only(self, mesh):
        # a write would reach the next workspace's quadrature weights
        for name in ("cell_volumes", "facet_measures"):
            with pytest.raises(ValueError):
                getattr(mesh, name)[:] = -1.0

    def test_caller_arrays_are_copied(self):
        v, c = np.array([[0.0], [1.0]]), np.array([[1, 0]])
        mesh = SimplicialMesh(1, v, c)
        assert v.flags.writeable and not mesh.vertices.flags.writeable
        assert c.tolist() == [[1, 0]] and mesh.cells.tolist() == [[0, 1]]
        assert not np.shares_memory(c, mesh.cells)

    def test_interior_facet_rejected(self):
        mesh = generate_interval_mesh(0, 1, 2)
        # vertex 1 is shared by both cells
        found = violations(1, mesh.vertices, mesh.cells, [[1]], [Marker.DIRICHLET])
        assert any("expected exactly 1" in v for v in found)

    @pytest.mark.parametrize(
        "facets, markers",
        [
            ([[0, 1]], ["dirichlet"]),
            ([[0], [1, 0]], ["dirichlet", "robin"]),
            ([[0], [1]], [Marker.DIRICHLET]),
            ([[0]], ["periodic"]),
            ([[0]], [["robin"]]),
        ],
        ids=["facet_width", "ragged_facets", "marker_count", "marker_name", "marker_unhashable"],
    )
    def test_constructor_rejects_bad_boundary(self, facets, markers):
        with pytest.raises(InvalidGeometry):
            SimplicialMesh(1, [[0.0], [1.0]], [[0, 1]], facets, markers)

    def test_markers_by_name(self):
        mesh = SimplicialMesh(1, [[0.0], [1.0]], [[0, 1]], [[0], [1]], ["robin", "dirichlet"])
        assert mesh.robin.tolist() == [True, False]
        assert mesh.dirichlet_vertices().tolist() == [1]

    @pytest.mark.parametrize(
        "cells, facets, message",
        [
            ([[0, 1, 1]], (), "cells have shape (1, 3), expected (n, 2)"),
            ([[0, 1], [1]], (), "bad cells: "),
            ([[0, 2**70]], (), "cell vertex indices must be int64 integers, got object"),
            ([[0, 1]], [[2**70]], "facet vertex indices must be int64 integers, got object"),
            ([[0.5, 1]], (), "cell vertex indices must be int64 integers, got float64"),
            ([[0, 1]], [[0.5]], "facet vertex indices must be int64 integers, got float64"),
        ],
        ids=["cell_width", "ragged_cells", "cell_beyond_int64", "facet_beyond_int64",
             "cell_not_integer", "facet_not_integer"],
    )
    def test_constructor_rejects_malformed_indices(self, cells, facets, message):
        with pytest.raises(InvalidGeometry) as err:
            SimplicialMesh(1, [[0.0], [1.0]], cells, facets, ["robin"] * len(facets))
        assert message in str(err.value) and "\n" not in str(err.value)

    @pytest.mark.parametrize(
        "vertices, message",
        [
            (np.array([[[0.0]], [[1.0]]]), "vertices have shape (2, 1, 1), expected (n, 1)"),
            ([[0.0, 0.0], [1.0, 0.0]], "vertices have shape (2, 2), expected (n, 1)"),
            ([[0.0], [1.0, 2.0]], "bad vertices: "),
            ([["a"], [1.0]], "bad vertices: could not convert string to float"),
        ],
        ids=["extra_axis", "vertex_width", "ragged_vertices", "non_numeric_vertices"],
    )
    def test_constructor_rejects_malformed_vertices(self, vertices, message):
        with pytest.raises(InvalidGeometry) as err:
            SimplicialMesh(1, vertices, [[0, 1]], [[0], [1]], ["robin"] * 2)
        assert message in str(err.value) and "\n" not in str(err.value)

    def test_no_cells(self):
        # load_mesh passes an empty list for `cells 0`: it is read as no
        # cells, (0, 2), not as a malformed shape, and that mesh is invalid
        assert violations(1, [[0.0], [1.0]], []) == ["mesh has no cells"]

    def test_overflowed_measure(self):
        # finite vertices whose volumes overflow: inf without a RuntimeWarning
        # (an error under pytest), and not a positive measure
        with pytest.raises(ValidationError) as err:
            generate_shell_mesh(1.0, 1e300, 0)
        assert err.value.violations[0] == "cell 1 has infinite measure inf"
        assert all(v.endswith("has infinite measure inf") for v in err.value.violations)
        # the message counts the violations and names the first three
        assert str(err.value) == (
            "40 violations: cell 1 has infinite measure inf; cell 2 has infinite measure inf; "
            "cell 4 has infinite measure inf; and 37 more"
        )
        assert len(err.value.violations) == 40

    def test_few_violations_are_all_in_the_message(self):
        assert str(ValidationError("cell 0 is bad")) == "cell 0 is bad"
        three = ["a", "b", "c"]
        assert str(ValidationError(three)) == "a; b; c"
        assert ValidationError(three).violations == three

    def test_index_out_of_range(self):
        # the constructor rejects the index before it computes a measure
        for fix in (True, False):
            for cells in ([[0, 5]], [[-1, 0]]):
                with pytest.raises(InvalidGeometry, match="cell vertex index out of range"):
                    SimplicialMesh(1, [[0.0], [1.0]], cells, fix_orientation=fix)
            for facets in ([[7]], [[-1]]):
                with pytest.raises(InvalidGeometry, match="facet vertex index out of range"):
                    SimplicialMesh(1, [[0.0], [1.0]], [[0, 1]], facets, ["robin"],
                                   fix_orientation=fix)


VALID_1D = ["dim 1", "vertices 2", "0.0", "1.0", "cells 1", "0 1",
            "boundary_facets 2", "dirichlet 0", "robin 1"]
VALID_3D = ["dim 3", "vertices 4", "0 0 0", "1 0 0", "0 1 0", "0 0 1", "cells 1", "0 1 2 3",
            "boundary_facets 4", "robin 1 2 3", "robin 0 2 3", "robin 0 1 3", "dirichlet 0 1 2"]


def swap(lines, number, text):
    """`lines` with its 1-based line `number` replaced by `text`."""
    return lines[: number - 1] + [text] + lines[number:]


class TestMeshIO:
    @pytest.mark.parametrize(
        "mesh",
        [
            generate_interval_mesh(0, 1, 4),
            generate_annulus_mesh(1, 2, 1, 5, inner=Marker.DIRICHLET),
            generate_shell_mesh(1, 2, 0),
        ],
        ids=["interval", "annulus", "shell"],
    )
    def test_round_trip(self, mesh, tmp_path):
        path = tmp_path / "m.mesh"
        save_mesh(mesh, path)
        loaded = load_mesh(path)
        assert loaded.dim == mesh.dim
        assert np.array_equal(loaded.vertices, mesh.vertices)
        assert np.array_equal(loaded.cells, mesh.cells)
        assert np.array_equal(loaded.facets, mesh.facets)
        assert np.array_equal(loaded.robin, mesh.robin)

    def test_cell_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("dim 1\nvertices 2\n0.0\n1.0\ncells 1\n0 7\nboundary_facets 0\n")
        with pytest.raises(ParseError) as err:
            load_mesh(path)
        assert err.value.line == 6
        assert "vertex index 7 is not in [0, 2)" in str(err.value)

    def test_facet_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text(
            "dim 1\nvertices 2\n0.0\n1.0\ncells 1\n0 1\nboundary_facets 1\nrobin 2\n"
        )
        with pytest.raises(ParseError) as err:
            load_mesh(path)
        assert err.value.line == 8
        assert "vertex index 2 is not in [0, 2)" in str(err.value)

    def test_degenerate_cell_is_a_validation_error(self, tmp_path):
        # indices in range that make a zero-measure cell are a mesh invariant, not a parse error
        path = tmp_path / "bad.mesh"
        path.write_text("dim 1\nvertices 2\n0.0\n1.0\ncells 1\n1 1\nboundary_facets 0\n")
        with pytest.raises(ValidationError):
            load_mesh(path)

    def test_unsupported_dimension(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("dim 4\nvertices 0\ncells 0\nboundary_facets 0\n")
        with pytest.raises(ParseError) as err:
            load_mesh(path)
        assert err.value.line == 1
        # a negative count is a bad header too, found before any allocation
        path.write_text("dim 1\nvertices -1\ncells 0\nboundary_facets 0\n")
        with pytest.raises(ParseError, match="vertices -1 is negative") as err:
            load_mesh(path)
        assert err.value.line == 2

    def test_bad_marker(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text(
            "dim 1\nvertices 2\n0.0\n1.0\ncells 1\n0 1\nboundary_facets 1\nperiodic 0\n"
        )
        with pytest.raises(ParseError) as err:
            load_mesh(path)
        assert err.value.line == 8

    def test_file_not_text(self, tmp_path):
        path = tmp_path / "binary.mesh"
        path.write_bytes(b"\xff\xfe\x00bad")
        with pytest.raises(ParseError, match="not a text file"):
            load_mesh(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("dim 1\nvertices 2\n0.0\n")
        with pytest.raises(ParseError):
            load_mesh(path)
        # the counts must account for the whole file, not just a prefix
        path.write_text(
            "dim 1\nvertices 2\n0.0\n1.0\ncells 1\n0 1\nboundary_facets 1\nrobin 0\n"
            "# a comment\n\nrobin 1\n"
        )
        with pytest.raises(ParseError, match="content after the last boundary facet") as err:
            load_mesh(path)
        assert err.value.line == 11

    @pytest.mark.parametrize(
        "lines, line",
        [
            pytest.param(swap(VALID_1D, 6, "0"), 6, id="1d_short_row"),
            pytest.param(swap(VALID_1D, 3, "0.0 5.0"), 3, id="1d_extra_field"),
            pytest.param(swap(VALID_1D, 4, "1.o"), 4, id="1d_bad_float"),
            pytest.param(swap(VALID_1D, 6, "0 1.5"), 6, id="1d_bad_int"),
            pytest.param(swap(VALID_1D, 8, "periodic 0"), 8, id="1d_unknown_marker"),
            pytest.param(swap(VALID_1D, 5, "cells -1"), 5, id="1d_negative_count"),
            pytest.param(swap(VALID_1D, 2, "vertices 99"), 2, id="1d_oversized_count"),
            # a section's count is checked against the lines left, so a
            # file that ends inside a section fails at the section's header
            pytest.param(VALID_1D[:8], 7, id="1d_eof_in_section"),
            pytest.param(VALID_1D[:6] + ["# no boundary_facets"], 7, id="1d_eof_at_header"),
            pytest.param(VALID_1D + ["robin 1"], 10, id="1d_trailing_content"),
            pytest.param(swap(VALID_3D, 3, "0 0"), 3, id="3d_short_row"),
            pytest.param(swap(VALID_3D, 8, "0 1 2 3 4"), 8, id="3d_extra_field"),
            pytest.param(swap(VALID_3D, 5, "0 1 x"), 5, id="3d_bad_float"),
            pytest.param(swap(VALID_3D, 12, "robin 0 1 3.0"), 12, id="3d_bad_int"),
            pytest.param(swap(VALID_3D, 11, "neumann 0 2 3"), 11, id="3d_unknown_marker"),
            pytest.param(swap(VALID_3D, 9, "boundary_facets -4"), 9, id="3d_negative_count"),
            pytest.param(swap(VALID_3D, 7, "cells 7"), 7, id="3d_oversized_count"),
            pytest.param(VALID_3D[:4], 2, id="3d_eof_in_section"),
            pytest.param(VALID_3D + ["", "0 1 2"], 15, id="3d_trailing_content"),
            # indices are checked on the Python int, before any int64 conversion
            pytest.param(swap(VALID_1D, 6, "0 99999999999999999999"), 6, id="1d_huge_index"),
            pytest.param(swap(VALID_1D, 9, "robin -99999999999999999999"), 9,
                         id="1d_huge_negative_facet_index"),
            pytest.param(swap(VALID_3D, 8, "0 1 2 4"), 8, id="3d_index_equal_to_vertex_count"),
            pytest.param(swap(VALID_3D, 13, "dirichlet 0 4 2"), 13,
                         id="3d_facet_index_equal_to_vertex_count"),
            pytest.param(swap(VALID_3D, 8, "-1 1 2 3"), 8, id="3d_negative_index"),
        ],
    )
    def test_malformed_file_line(self, tmp_path, lines, line):
        path = tmp_path / "bad.mesh"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_mesh(path)
        assert err.value.line == line

    def test_file_without_cells_is_invalid(self, tmp_path):
        # it parses, but a mesh needs a cell to assemble anything on
        path = tmp_path / "empty.mesh"
        path.write_text("dim 1\nvertices 2\n0.0\n1.0\ncells 0\nboundary_facets 0\n")
        with pytest.raises(ValidationError) as err:
            load_mesh(path)
        assert err.value.violations == ["mesh has no cells"]

    @pytest.mark.parametrize("lines", [VALID_1D, VALID_3D], ids=["1d", "3d"])
    def test_malformed_table_base_is_valid(self, tmp_path, lines):
        path = tmp_path / "ok.mesh"
        path.write_text("\n".join(lines) + "\n")
        assert load_mesh(path).num_cells == 1

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "ok.mesh"
        path.write_text(
            "# a comment\ndim 1\n\nvertices 2\n0.0\n1.0 # inline\ncells 1\n0 1\n"
            "boundary_facets 2\ndirichlet 0\nrobin 1\n"
        )
        mesh = load_mesh(path)
        assert mesh.num_cells == 1
        assert mesh.robin.tolist() == [False, True]
