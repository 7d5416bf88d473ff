import warnings

import numpy as np
import pytest

from esdib import (
    SurfaceMesh,
    compute_node_normals,
    displace_nodes,
    generate_icosphere,
    generate_square,
    max_aspect_ratio,
    mesh_quality,
    surface_area,
    triangle_areas,
)
from esdib import mesh as mesh_module
from esdib.errors import DegenerateGeometryError, MeshStructureError, NumericsError
from esdib.mesh import MeshQuality

from conftest import count_geometry_passes


def single_triangle(points=((0, 0, 0), (1, 0, 0), (0, 1, 0))):
    return SurfaceMesh(np.array(points, dtype=float), [[0, 1, 2]])


class TestConstruction:
    def test_counts_and_readonly(self):
        mesh = generate_square(1.0, 2)
        assert mesh.n_nodes == 9
        assert mesh.n_triangles == 8
        assert not mesh.nodes.flags.writeable
        assert not mesh.triangles.flags.writeable

    def test_caller_arrays_stay_writable_and_apart(self):
        # float64 nodes and int64 triangles already have the mesh's dtypes, and
        # the mesh still freezes only copies of its own
        nodes = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        triangles = np.array([[0, 1, 2], [1, 3, 2]], dtype=np.int64)
        mesh = SurfaceMesh(nodes, triangles)
        assert nodes.flags.writeable and triangles.flags.writeable
        assert not mesh.nodes.flags.writeable and not mesh.triangles.flags.writeable
        nodes[0] = 9.0
        triangles[0] = [2, 1, 0]
        assert np.array_equal(mesh.nodes[0], [0.0, 0.0, 0.0])
        assert np.array_equal(mesh.triangles[0], [0, 1, 2])

    @pytest.mark.parametrize(
        "nodes,triangles,message",
        [
            (np.zeros((3, 2)), [[0, 1, 2]], r"^nodes must have shape \(any, 3\), got \(3, 2\)$"),
            (np.zeros(9), [[0, 1, 2]], r"^nodes must have shape \(any, 3\), got \(9,\)$"),
            (np.eye(3), [0, 1, 2], r"^triangles must have shape \(any, 3\), got \(3,\)$"),
            (np.eye(3), [[0, 1, 2, 0]], r"^triangles must have shape \(any, 3\), got \(1, 4\)$"),
        ],
        ids=["nodes-2-columns", "nodes-1-d", "triangles-1-d", "triangles-4-columns"],
    )
    def test_wrong_shape_rejected(self, nodes, triangles, message):
        with pytest.raises(ValueError, match=message):
            SurfaceMesh(nodes, triangles)

    def test_repr(self):
        assert repr(generate_square(1.0, 2)) == "SurfaceMesh(9 nodes, 8 triangles, open)"
        assert repr(generate_icosphere(1.0, 0)) == "SurfaceMesh(12 nodes, 20 triangles, closed)"

    @pytest.mark.parametrize("n_nodes", [0, 3])
    def test_no_triangles_rejected(self, n_nodes):
        with pytest.raises(MeshStructureError, match="at least one triangle"):
            SurfaceMesh(np.zeros((n_nodes, 3)), np.zeros((0, 3), dtype=int))

    def test_index_out_of_range_rejected(self):
        with pytest.raises(MeshStructureError, match="outside"):
            SurfaceMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 3]])

    def test_negative_index_rejected(self):
        with pytest.raises(MeshStructureError):
            SurfaceMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, -1]])

    @pytest.mark.parametrize(
        "index,fragment",
        [(1.7, "is not an integer"), (np.nan, "is not an integer"), (-0.5, "is not an integer"),
         (np.inf, "outside"), (-np.inf, "outside"), (1e30, "outside")],
    )
    def test_float_index_that_is_no_node_rejected(self, index, fragment):
        nodes = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast warning on the way
            with pytest.raises(MeshStructureError, match=f"triangle 1 .*{fragment}"):
                SurfaceMesh(nodes, [[0, 1, 2], [1, 3, index]])

    def test_integral_float_indices_accepted(self):
        nodes = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
        mesh = SurfaceMesh(nodes, np.array([[0.0, 1.0, 2.0], [1.0, 3.0, 2.0]]))
        assert mesh.triangles.dtype == np.int64
        assert np.array_equal(mesh.triangles, [[0, 1, 2], [1, 3, 2]])

    @pytest.mark.parametrize("unused", [0, 2, 4], ids=["first", "middle", "last"])
    def test_unused_node_rejected(self, unused):
        # a node in no triangle would get zero mass and make the systems singular
        square = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
        nodes = np.insert(square, unused, [5.0, 5, 5], axis=0)
        corner = np.delete(np.arange(5), unused)  # the new number of each corner
        with pytest.raises(MeshStructureError, match=f"node {unused} belongs to no triangle"):
            SurfaceMesh(nodes, corner[[[0, 1, 2], [0, 2, 3]]])

    def test_inconsistent_winding_rejected(self):
        # both triangles traverse the shared edge from node 2 to node 0
        nodes = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 1, 0]]
        with pytest.raises(MeshStructureError, match="winding"):
            SurfaceMesh(nodes, [[0, 1, 2], [2, 0, 3]])
        SurfaceMesh(nodes, [[0, 1, 2], [0, 2, 3]])  # opposite directions are fine

    def test_duplicate_triangle_rejected(self):
        nodes = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        with pytest.raises(MeshStructureError):
            SurfaceMesh(nodes, [[0, 1, 2], [0, 1, 2]])

    def test_non_manifold_edge_rejected(self):
        # three triangles share the edge (0, 1) like pages of a book
        nodes = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]]
        with pytest.raises(MeshStructureError, match="manifold"):
            SurfaceMesh(nodes, [[0, 1, 2], [1, 0, 3], [1, 0, 4]])

    def test_zero_area_triangle_rejected(self):
        with pytest.raises(DegenerateGeometryError, match="triangle 0"):
            SurfaceMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])

    @pytest.mark.parametrize("row,first", [(2, 4), (4, 12)])
    def test_first_zero_area_triangle_is_named(self, row, first):
        # moving grid row ``row`` onto the row below flattens the lower and the
        # upper triangles of every cell between them: 4 (row - 1) + i and 16 + ...
        mesh = generate_square(1.0, 4)
        nodes = np.array(mesh.nodes)
        nodes[5 * row : 5 * row + 5, 1] = nodes[5 * (row - 1), 1]
        with pytest.raises(DegenerateGeometryError, match=f"^triangle {first} has zero area$"):
            SurfaceMesh(nodes, mesh.triangles)

    def test_repeated_vertex_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            SurfaceMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 1]])

    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(NumericsError, match="node 1"):
            SurfaceMesh([[0, 0, 0], [np.nan, 0, 0], [0, 1, 0]], [[0, 1, 2]])

    def test_boundary_flags_match_edge_count_oracle(self):
        mesh = generate_square(1.0, 4)
        # independent boundary detection: count undirected edge usage by hand
        usage: dict[tuple[int, int], int] = {}
        for a, b, c in mesh.triangles:
            for u, v in ((a, b), (b, c), (c, a)):
                usage[(min(u, v), max(u, v))] = usage.get((min(u, v), max(u, v)), 0) + 1
        expected = np.zeros(mesh.n_nodes, dtype=bool)
        for (u, v), count in usage.items():
            if count == 1:
                expected[u] = expected[v] = True
        assert np.array_equal(mesh.boundary_node, expected)

    @staticmethod
    def two_sort_flags(triangles, n):
        # the former construction: one np.unique for the undirected edges and
        # another for the directed ones
        u = triangles[:, [0, 1, 2]].ravel().astype(np.int64)
        v = triangles[:, [1, 2, 0]].ravel().astype(np.int64)
        codes, counts = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_counts=True)
        assert counts.max() <= 2
        assert np.unique(u * n + v, return_counts=True)[1].max() == 1
        flags = np.zeros(n, dtype=bool)
        rim = codes[counts == 1]
        flags[rim // n] = True
        flags[rim % n] = True
        return flags

    @staticmethod
    def relabelled(nodes, tri, seed=11):
        # relabel the nodes, shuffle the triangles and rotate each one's vertices
        rng = np.random.default_rng(seed)
        label = rng.permutation(len(nodes))
        moved = np.empty_like(nodes)
        moved[label] = nodes
        tri = label[tri][rng.permutation(len(tri))]
        shift = rng.integers(0, 3, len(tri))
        return moved, tri[np.arange(len(tri))[:, None], (np.arange(3) + shift[:, None]) % 3]

    @pytest.mark.parametrize(
        "kind", ["sheet", "sphere", "relabelled", "large sheet", "large relabelled"]
    )
    def test_boundary_flags_match_two_sort_construction(self, kind):
        if kind == "sphere":
            mesh = generate_icosphere(1.0, 3)
        elif kind.startswith("large"):
            # 183^2 = 33 489 nodes, above the most whose edge keys int32 holds
            mesh = generate_square(1.0, 182)
            assert mesh.n_nodes > mesh_module._INT32_KEY_NODES
        else:
            mesh = generate_square(2.0, 12)
        if kind.endswith("relabelled"):
            mesh = SurfaceMesh(*self.relabelled(mesh.nodes, mesh.triangles))
        expected = self.two_sort_flags(mesh.triangles, mesh.n_nodes)
        assert np.array_equal(mesh.boundary_node, expected)
        assert expected.any() == (kind != "sphere")

    def test_int32_key_bound_is_exact(self):
        # the largest key, of an edge run from node n - 1 to node n - 2, is
        # 2 n^2 - 2 n - 1: it fits int32 at the bound, and not one node above
        def largest(n):
            return ((n - 2) * n + (n - 1)) * 2 + 1

        bound = mesh_module._INT32_KEY_NODES
        assert largest(bound) <= np.iinfo(np.int32).max < largest(bound + 1)

    @staticmethod
    def torus_and_triangle(a, b):
        # a closed a x b torus grid, then one triangle apart on the last three
        # nodes: its edges are the only rim, and one has the largest key there is
        i, j = np.divmod(np.arange(a * b), b)
        u, v = 2 * np.pi * i / a, 2 * np.pi * j / b
        ring = 3 + np.cos(v)
        torus = np.column_stack([ring * np.cos(u), ring * np.sin(u), np.sin(v)])
        nodes = np.vstack([torus, [[9.0, 0, 0], [10.0, 0, 0], [9.0, 1, 0]]])
        v00 = np.arange(a * b)
        v10 = (i + 1) % a * b + j
        v01 = i * b + (j + 1) % b
        v11 = (i + 1) % a * b + (j + 1) % b
        tri = np.concatenate([np.column_stack([v00, v10, v11]), np.column_stack([v00, v11, v01])])
        return nodes, np.vstack([tri, a * b + np.arange(3)])

    @pytest.mark.parametrize(
        "a,b,above", [(5, 6553, 0), (127, 258, 1)], ids=["at the bound", "one above"]
    )
    def test_boundary_flags_at_the_int32_key_bound(self, a, b, above):
        nodes, tri = self.torus_and_triangle(a, b)
        assert len(nodes) == 2**15 + above  # the bound, as the test above checks it
        mesh = SurfaceMesh(nodes, tri)
        assert np.array_equal(np.flatnonzero(mesh.boundary_node), len(nodes) - 3 + np.arange(3))
        assert np.array_equal(mesh.boundary_node, self.two_sort_flags(tri, len(nodes)))

    @pytest.mark.parametrize("relabel", [False, True], ids=["plain", "relabelled"])
    def test_edge_errors_above_the_int32_key_bound(self, relabel):
        sheet = generate_square(1.0, 182)
        nodes, tri = np.array(sheet.nodes), np.array(sheet.triangles)
        # the last triangle holds the last node; turned over, it runs its
        # diagonal the way the lower triangle of its cell does
        flipped = tri.copy()
        flipped[-1] = flipped[-1, ::-1]
        # a third triangle on that diagonal, through a new node above the sheet
        a, b = tri[-1, :2]
        book = np.vstack([tri, [b, a, len(nodes)]])
        above = np.vstack([nodes, [0.5, 0.5, 1.0]])
        cases = [
            (nodes, flipped, "inconsistent winding: a directed edge is traversed more than once"),
            (above, book, "non-manifold edge shared by more than two triangles"),
        ]
        for points, triangles, message in cases:
            if relabel:
                points, triangles = self.relabelled(points, triangles)
            with pytest.raises(MeshStructureError, match=f"^{message}$"):
                SurfaceMesh(points, triangles)

    def test_closed_surface_has_no_boundary(self):
        assert generate_icosphere(1.0, 1).is_closed()
        assert not generate_square(1.0, 1).is_closed()


class TestAreas:
    def test_unit_right_triangle(self):
        assert triangle_areas(single_triangle())[0] == 0.5

    def test_equilateral_triangle(self):
        mesh = single_triangle(((0, 0, 0), (1, 0, 0), (0.5, np.sqrt(3) / 2, 0)))
        assert triangle_areas(mesh)[0] == pytest.approx(np.sqrt(3) / 4, abs=1e-15)

    def test_unit_square_area(self):
        assert surface_area(generate_square(1.0, 3)) == pytest.approx(1.0, abs=1e-12)

    def test_icosphere_area_approaches_sphere(self):
        area = surface_area(generate_icosphere(1.0, 4))
        assert area == pytest.approx(4 * np.pi, rel=5e-3)

    def test_area_scales_quadratically_with_radius(self):
        unit = surface_area(generate_icosphere(1.0, 4))
        tripled = surface_area(generate_icosphere(3.0, 4))
        assert tripled == pytest.approx(9.0 * unit, rel=1e-12)


class TestNormals:
    def test_flat_square_normals_are_plus_z(self):
        normals = compute_node_normals(generate_square(2.0, 5))
        assert np.array_equal(normals, np.tile([0.0, 0.0, 1.0], (36, 1)))

    def test_single_triangle_normal(self):
        normals = compute_node_normals(single_triangle())
        assert np.array_equal(normals, np.tile([0.0, 0.0, 1.0], (3, 1)))

    def test_unit_norm(self):
        normals = compute_node_normals(generate_icosphere(1.0, 3))
        assert np.abs(np.linalg.norm(normals, axis=1) - 1.0).max() <= 1e-12

    def test_icosphere_normals_align_with_radial_direction(self):
        mesh = generate_icosphere(1.0, 3)
        normals = compute_node_normals(mesh)
        radial = mesh.nodes / np.linalg.norm(mesh.nodes, axis=1)[:, None]
        defect = 1.0 - np.einsum("ij,ij->i", normals, radial)
        assert defect.max() <= 1e-3
        assert (np.einsum("ij,ij->i", normals, mesh.nodes) > 0).all()  # outward

    def test_normal_error_shrinks_under_refinement(self):
        def worst(level):
            mesh = generate_icosphere(1.0, level)
            normals = compute_node_normals(mesh)
            radial = mesh.nodes / np.linalg.norm(mesh.nodes, axis=1)[:, None]
            return np.linalg.norm(normals - radial, axis=1).max()

        assert worst(4) < worst(3) < worst(2)

    def test_closed_mesh_normals_integrate_to_zero(self):
        # the area-weighted normals of a closed surface cancel like a flux
        mesh = generate_icosphere(1.0, 3)
        p = mesh.nodes[mesh.triangles]
        cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        resultant = np.linalg.norm(0.5 * cross.sum(axis=0))
        assert resultant <= 1e-10 * surface_area(mesh)

    def test_isolated_node_rejected(self):
        # the mesh that holds an isolated node is refused before any normal is computed
        with pytest.raises(MeshStructureError, match="node 3"):
            compute_node_normals(
                SurfaceMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]], [[0, 1, 2]])
            )

    def test_folded_fan_rejected(self):
        # two coincident triangles with opposite winding cancel exactly
        mesh = SurfaceMesh([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2], [0, 2, 1]])
        with pytest.raises(DegenerateGeometryError, match="vanishing normal"):
            compute_node_normals(mesh)


class TestDisplacement:
    def test_zero_displacement_is_identity(self):
        mesh = generate_square(1.0, 2)
        moved = displace_nodes(mesh, np.zeros_like(mesh.nodes))
        assert np.array_equal(moved.nodes, mesh.nodes)
        assert moved.triangles is mesh.triangles
        assert moved.boundary_node is mesh.boundary_node

    def test_rigid_translation_preserves_area(self):
        mesh = generate_icosphere(1.0, 2)
        moved = displace_nodes(mesh, np.tile([0.0, 0.0, 3.7], (mesh.n_nodes, 1)))
        assert surface_area(moved) == pytest.approx(surface_area(mesh), rel=1e-12)

    def test_radial_dilation_scales_area(self):
        mesh = generate_icosphere(1.0, 3)
        eps = 0.25
        moved = displace_nodes(mesh, eps * mesh.nodes)
        assert surface_area(moved) == pytest.approx(
            (1 + eps) ** 2 * surface_area(mesh), rel=1e-12
        )

    def test_displace_then_negate_restores_bits(self):
        # exactly representable displacements: dyadic values at matching scale
        mesh = generate_square(1.0, 4)
        rng = np.random.default_rng(9)
        disp = rng.integers(-4096, 4097, mesh.nodes.shape) * 2.0**-12
        there = displace_nodes(mesh, disp)
        back = displace_nodes(there, -disp)
        assert np.array_equal(back.nodes, mesh.nodes)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            displace_nodes(generate_square(1.0, 2), np.zeros((3, 3)))

    def test_non_finite_displacement_names_node(self):
        mesh = generate_square(1.0, 2)
        disp = np.zeros_like(mesh.nodes)
        disp[5, 2] = np.inf
        with pytest.raises(NumericsError, match="node 5"):
            displace_nodes(mesh, disp)


class TestQuality:
    def test_structured_square_min_angle(self):
        q = mesh_quality(generate_square(3.0, 7))
        assert q.min_angle_deg == pytest.approx(45.0, abs=1e-9)

    def test_equilateral_triangle(self):
        mesh = single_triangle(((0, 0, 0), (1, 0, 0), (0.5, np.sqrt(3) / 2, 0)))
        q = mesh_quality(mesh)
        assert q.min_angle_deg == pytest.approx(60.0, abs=1e-9)
        assert max_aspect_ratio(mesh) == pytest.approx(1.0, abs=1e-12)

    def test_near_collinear_triangle_reports_tiny_area(self):
        mesh = single_triangle(((0, 0, 0), (1, 0, 0), (0.5, 1e-10, 0)))
        q = mesh_quality(mesh)
        assert q.min_area < 1e-10
        assert q.min_angle_deg < 1e-6
        assert max_aspect_ratio(mesh) > 1e6

    def test_collapsed_triangle_does_not_produce_nan(self):
        # a displaced mesh may contain an exactly collapsed triangle
        base = single_triangle()
        collapsed = SurfaceMesh._with_nodes(
            base, np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
        )
        q = mesh_quality(collapsed)
        assert q.min_area == 0.0
        assert q.min_angle_deg == 0.0
        assert np.isinf(max_aspect_ratio(collapsed))


# Reference formulas that each gather ``nodes[triangles]`` and compute their
# own edges and cross products.  The cached geometry pass must reproduce them
# bit for bit.


def direct_triangle_areas(nodes, triangles):
    p = nodes[triangles]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    return 0.5 * np.linalg.norm(cross, axis=1)


def direct_node_normals(mesh):
    tri = mesh.triangles
    n = mesh.n_nodes
    p = mesh.nodes[tri]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    accum = np.empty((n, 3))
    idx = tri.ravel()
    for c in range(3):
        accum[:, c] = np.bincount(idx, weights=np.repeat(cross[:, c], 3), minlength=n)
    norms = np.linalg.norm(accum, axis=1)
    return accum / norms[:, None]


def direct_mesh_quality(mesh):
    """The quality and the largest aspect ratio, as a pair."""
    p = mesh.nodes[mesh.triangles]
    e0 = p[:, 2] - p[:, 1]
    e1 = p[:, 0] - p[:, 2]
    e2 = p[:, 1] - p[:, 0]
    l0 = np.linalg.norm(e0, axis=1)
    l1 = np.linalg.norm(e1, axis=1)
    l2 = np.linalg.norm(e2, axis=1)
    areas = 0.5 * np.linalg.norm(np.cross(e2, -e1), axis=1)

    lengths = np.stack([l0, l1, l2], axis=1)
    longest = lengths.max(axis=1)
    perimeter = lengths.sum(axis=1)

    def dot(a, b):  # components summed left to right
        return (a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]) + a[:, 2] * b[:, 2]

    with np.errstate(divide="ignore", invalid="ignore"):
        cos0 = -dot(e1, e2) / (l1 * l2)
        cos1 = -dot(e2, e0) / (l2 * l0)
        cos2 = -dot(e0, e1) / (l0 * l1)
        cosines = np.clip(np.stack([cos0, cos1, cos2], axis=1), -1.0, 1.0)
        angles = np.degrees(np.arccos(cosines))
        aspect = longest * perimeter / (4.0 * np.sqrt(3.0) * areas)
    min_angles = np.where(areas > 0.0, angles.min(axis=1), 0.0)
    aspect = np.where(areas > 0.0, aspect, np.inf)
    quality = MeshQuality(
        min_angle_deg=float(min_angles.min(initial=np.inf)),
        min_area=float(areas.min(initial=np.inf)),
    )
    return quality, float(aspect.max(initial=0.0))


def row_major_geometry_pass(nodes, triangles):
    """The geometry pass on (m, 3) rows: strided columns and ``np.cross``."""
    p0, p1, p2 = (np.take(nodes, triangles[:, k], axis=0) for k in range(3))
    e0, e1, e2 = p2 - p1, p0 - p2, p1 - p0

    def dot(a, b):  # components summed left to right
        return (a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]) + a[:, 2] * b[:, 2]

    cross = np.cross(e2, -e1)
    pairs = ((e0, e0), (e0, e1), (e0, e2), (e1, e1), (e1, e2), (e2, e2))
    return cross, np.sqrt(dot(cross, cross)), np.stack([dot(a, b) for a, b in pairs])


class TestCachedGeometry:
    def test_pass_matches_row_major_pass_bitwise(self, geometry_mesh):
        mesh = geometry_mesh
        geometry = mesh_module._geometry_pass(mesh.nodes, mesh.triangles)
        cross, doubled, dots = row_major_geometry_pass(mesh.nodes, mesh.triangles)
        m = mesh.n_triangles
        assert geometry.cross.shape == (m, 3) and geometry.cross.flags.c_contiguous
        assert geometry.dots.shape == (6, m) and geometry.dots.flags.c_contiguous
        assert np.array_equal(geometry.cross, cross)
        assert np.array_equal(geometry.doubled, doubled)
        assert np.array_equal(geometry.dots, dots)

    def test_matches_direct_formulas_bitwise(self, geometry_mesh):
        mesh = geometry_mesh
        # quality first: it computes the pass the other queries then reuse
        assert (mesh_quality(mesh), max_aspect_ratio(mesh)) == direct_mesh_quality(mesh)
        assert np.array_equal(compute_node_normals(mesh), direct_node_normals(mesh))
        areas = direct_triangle_areas(mesh.nodes, mesh.triangles)
        assert np.array_equal(triangle_areas(mesh), areas)
        assert surface_area(mesh) == float(areas.sum())

    def test_quality_matches_direct_formula_per_triangle(self):
        # one triangle per mesh, so every triangle's aspect ratio and angle
        # reaches the compared fields, not only the worst one of a mesh
        rng = np.random.default_rng(11)
        scales = rng.uniform(1e-3, 1e3, (300, 1, 1))
        shapeless = scales * rng.standard_normal((300, 3, 3))
        # needles (one angle below 1e-4 degrees) and near-flat triangles (one
        # angle near 180 degrees), where the rounding of arccos matters most
        thin = np.zeros((200, 3, 3))
        thin[:, 1, 0] = 1.0
        thin[:, 2, 0] = np.where(np.arange(200) % 2, 1.0, rng.uniform(0.05, 0.95, 200))
        thin[:, 2, 1] = 10.0 ** rng.uniform(-10.0, -7.0, 200)
        rotations = np.linalg.qr(rng.standard_normal((200, 3, 3)))[0]
        thin = rng.uniform(1e-3, 1e3, (200, 1, 1)) * (thin @ rotations)
        for points in np.concatenate([shapeless, thin]):
            mesh = single_triangle(points)
            assert (mesh_quality(mesh), max_aspect_ratio(mesh)) == direct_mesh_quality(mesh)

    def test_one_pass_per_mesh(self, monkeypatch):
        passes = count_geometry_passes(monkeypatch)
        mesh = generate_square(1.0, 4)
        mesh_quality(mesh)
        max_aspect_ratio(mesh)
        compute_node_normals(mesh)
        triangle_areas(mesh)
        surface_area(mesh)
        assert len(passes) == 1

    def test_moved_mesh_recomputes(self, monkeypatch):
        passes = count_geometry_passes(monkeypatch)
        mesh = generate_icosphere(1.0, 2)
        before = surface_area(mesh)
        moved = displace_nodes(mesh, 0.5 * mesh.nodes)
        assert len(passes) == 1
        assert surface_area(mesh) == before
        assert len(passes) == 1
        assert surface_area(moved) == pytest.approx(2.25 * before, rel=1e-12)
        assert len(passes) == 2
        assert np.array_equal(
            triangle_areas(moved), direct_triangle_areas(moved.nodes, moved.triangles)
        )

    def test_cached_arrays_are_read_only(self):
        mesh = generate_square(1.0, 3)
        areas = triangle_areas(mesh)
        areas[0] = -1.0  # the caller's copy, not the cache
        assert triangle_areas(mesh)[0] > 0.0
        with pytest.raises(ValueError):
            mesh_module._geometry(mesh).cross[0, 0] = 0.0
