"""Domain generators: structured square sheets and icospheres."""

import math

import numpy as np
import pytest

from esdib import DomainSpec, build_domain, compute_node_normals, surface_area
from esdib.meshgen import _ICO_FACES, _ICO_VERTS, generate_icosphere, generate_square


def undirected_edge_count(mesh):
    """Independent edge count via sorted vertex-pair deduplication."""
    tri = mesh.triangles
    pairs = np.concatenate(
        [tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]], axis=0
    )
    pairs = np.sort(pairs, axis=1)
    return np.unique(pairs[:, 0].astype(np.int64) * mesh.n_nodes + pairs[:, 1]).size


class TestSquare:
    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_counts(self, n):
        mesh = generate_square(2.0, n)
        assert mesh.n_nodes == (n + 1) ** 2
        assert mesh.n_triangles == 2 * n * n
        assert int(mesh.boundary_node.sum()) == 4 * n

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_euler_characteristic_of_disc(self, n):
        mesh = generate_square(1.0, n)
        V, F = mesh.n_nodes, mesh.n_triangles
        E = undirected_edge_count(mesh)
        assert V - E + F == 1

    def test_nodes_fill_the_square(self):
        L = 3.5
        mesh = generate_square(L, 8)
        assert mesh.nodes[:, 0].min() == 0.0
        assert mesh.nodes[:, 1].min() == 0.0
        assert mesh.nodes[:, 0].max() == pytest.approx(L, rel=0, abs=1e-15)
        assert mesh.nodes[:, 1].max() == pytest.approx(L, rel=0, abs=1e-15)
        assert np.all(mesh.nodes[:, 2] == 0.0)

    @pytest.mark.parametrize("L,n", [(1.0, 4), (20.0, 25), (0.5, 3)])
    def test_total_area(self, L, n):
        mesh = generate_square(L, n)
        assert surface_area(mesh) == pytest.approx(L * L, rel=1e-12)

    def test_normals_point_up(self):
        mesh = generate_square(2.0, 5)
        normals = compute_node_normals(mesh)
        assert np.allclose(normals[:, 2], 1.0, atol=1e-12)
        assert np.all(np.abs(normals[:, :2]) <= 1e-12)

    def test_sheet_is_open(self):
        assert not generate_square(1.0, 3).is_closed()

    def test_boundary_nodes_are_on_perimeter(self):
        L, n = 2.0, 6
        mesh = generate_square(L, n)
        on_perimeter = (
            (mesh.nodes[:, 0] == 0.0)
            | (mesh.nodes[:, 1] == 0.0)
            | (np.abs(mesh.nodes[:, 0] - L) <= 1e-14)
            | (np.abs(mesh.nodes[:, 1] - L) <= 1e-14)
        )
        assert np.array_equal(mesh.boundary_node, on_perimeter)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_square(0.0, 4)
        with pytest.raises(ValueError):
            generate_square(-1.0, 4)
        with pytest.raises(ValueError):
            generate_square(1.0, 0)
        for edge in (np.inf, np.nan):
            with pytest.raises(ValueError, match="L must be positive and a finite number"):
                generate_square(edge, 4)
        for n in (2.5, 2.0, "2", True):
            with pytest.raises(ValueError, match="n must be an integer"):
                generate_square(1.0, n)
        assert generate_square(1.0, np.int64(2)).n_nodes == 9

    @staticmethod
    def former_square_arrays(L, n):
        # the former construction, by column_stack, stack and concatenate
        ticks = np.linspace(0.0, L, n + 1)
        nodes = np.column_stack(
            [np.tile(ticks, n + 1), np.repeat(ticks, n + 1), np.zeros((n + 1) * (n + 1))]
        )
        i = np.tile(np.arange(n), n)
        j = np.repeat(np.arange(n), n)
        v00 = j * (n + 1) + i
        v10 = v00 + 1
        v01 = v00 + (n + 1)
        v11 = v01 + 1
        lower = np.stack([v00, v10, v11], axis=1)
        upper = np.stack([v00, v11, v01], axis=1)
        return nodes, np.concatenate([lower, upper], axis=0)

    @pytest.mark.parametrize("n", [1, 7, 100])
    def test_arrays_match_former_construction_bitwise(self, n):
        L = 20.0 / 3.0  # ticks that are not exact binary fractions
        nodes, triangles = self.former_square_arrays(L, n)
        mesh = generate_square(L, n)
        for got, want in ((mesh.nodes, nodes), (mesh.triangles, triangles)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestIcosphere:
    # levels 4, 5 and 6 are the ones the sphere presets run
    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5, 6])
    def test_counts(self, level):
        mesh = generate_icosphere(1.0, level)
        assert mesh.n_nodes == 10 * 4**level + 2
        assert mesh.n_triangles == 20 * 4**level
        assert mesh.is_closed()

    @pytest.mark.parametrize("level", [0, 1, 3, 4, 5, 6])
    def test_euler_characteristic_of_sphere(self, level):
        mesh = generate_icosphere(1.0, level)
        V, F = mesh.n_nodes, mesh.n_triangles
        E = undirected_edge_count(mesh)
        assert V - E + F == 2
        assert E == 3 * F // 2

    @pytest.mark.parametrize("R,level", [(1.0, 0), (1.0, 3), (2.5, 2), (10.0, 4)])
    def test_vertices_on_sphere(self, R, level):
        mesh = generate_icosphere(R, level)
        radii = np.linalg.norm(mesh.nodes, axis=1)
        assert np.max(np.abs(radii - R)) <= 1e-12 * R

    def test_closed_no_boundary(self):
        mesh = generate_icosphere(1.0, 2)
        assert mesh.is_closed()
        assert not mesh.boundary_node.any()

    def test_icosahedron_area_closed_form(self):
        # circumradius R gives edge a = 4 R / sqrt(10 + 2 sqrt 5) and
        # surface area 5 sqrt(3) a^2
        R = 1.7
        a = 4.0 * R / math.sqrt(10.0 + 2.0 * math.sqrt(5.0))
        expected = 5.0 * math.sqrt(3.0) * a * a
        mesh = generate_icosphere(R, 0)
        assert surface_area(mesh) == pytest.approx(expected, rel=1e-12)

    def test_icosahedron_edges_equal(self):
        mesh = generate_icosphere(1.0, 0)
        tri = mesh.triangles
        e = np.concatenate(
            [
                mesh.nodes[tri[:, 1]] - mesh.nodes[tri[:, 0]],
                mesh.nodes[tri[:, 2]] - mesh.nodes[tri[:, 1]],
                mesh.nodes[tri[:, 0]] - mesh.nodes[tri[:, 2]],
            ]
        )
        lengths = np.linalg.norm(e, axis=1)
        assert np.max(lengths) - np.min(lengths) <= 1e-12

    def test_area_converges_to_sphere(self):
        target = 4.0 * math.pi
        errs = [
            abs(surface_area(generate_icosphere(1.0, lvl)) - target) / target
            for lvl in (2, 3, 4)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[1] <= 5e-3

    def test_normals_point_outward(self):
        mesh = generate_icosphere(1.0, 2)
        normals = compute_node_normals(mesh)
        radial = mesh.nodes / np.linalg.norm(mesh.nodes, axis=1)[:, None]
        assert np.all(np.einsum("ij,ij->i", normals, radial) > 0.9)

    def test_deterministic(self):
        a = generate_icosphere(2.0, 3)
        b = generate_icosphere(2.0, 3)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.triangles, b.triangles)

    @staticmethod
    def former_icosphere_arrays(R, level):
        # the former construction, by axis-1 reductions, np.unique, row
        # fancy-indexing, stack and concatenate
        nodes = _ICO_VERTS * (R / np.linalg.norm(_ICO_VERTS[0]))
        faces = _ICO_FACES
        for _ in range(level):
            n = nodes.shape[0]
            a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
            pairs = np.concatenate(
                [np.stack([a, b], 1), np.stack([b, c], 1), np.stack([c, a], 1)], axis=0
            )
            lo = pairs.min(axis=1).astype(np.int64)
            hi = pairs.max(axis=1).astype(np.int64)
            codes, inverse = np.unique(lo * n + hi, return_inverse=True)
            mids = 0.5 * (nodes[codes // n] + nodes[codes % n])
            mids *= R / np.linalg.norm(mids, axis=1)[:, None]
            m = faces.shape[0]
            mid_ab = n + inverse[:m]
            mid_bc = n + inverse[m : 2 * m]
            mid_ca = n + inverse[2 * m :]
            faces = np.concatenate(
                [
                    np.stack([a, mid_ab, mid_ca], 1),
                    np.stack([b, mid_bc, mid_ab], 1),
                    np.stack([c, mid_ca, mid_bc], 1),
                    np.stack([mid_ab, mid_bc, mid_ca], 1),
                ],
                axis=0,
            )
            nodes = np.vstack([nodes, mids])
        return nodes, faces

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("R", [1.0, 3.0, 20.0 / 3.0])
    def test_arrays_match_former_construction_bitwise(self, R, level):
        nodes, triangles = self.former_icosphere_arrays(R, level)
        mesh = generate_icosphere(R, level)
        for got, want in ((mesh.nodes, nodes), (mesh.triangles, triangles)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_icosphere(0.0, 2)
        with pytest.raises(ValueError):
            generate_icosphere(1.0, -1)
        for radius in (np.inf, np.nan):
            with pytest.raises(ValueError, match="R must be positive and a finite number"):
                generate_icosphere(radius, 1)
        for level in (2.5, 1.0, "1", True, False):
            with pytest.raises(ValueError, match="level must be an integer"):
                generate_icosphere(1.0, level)
        assert generate_icosphere(1.0, np.int64(0)).n_nodes == 12


class TestDefaults:
    @pytest.mark.parametrize(
        "kind,size,expected",
        [
            ("square", 20.0, 100),
            ("square", 30.0, 150),
            ("square", 0.1, 1),
            ("sphere", 3.0, 4),
            ("sphere", 10.0, 6),
            ("sphere", 5.0, 5),
        ],
    )
    def test_default_resolution(self, kind, size, expected):
        assert DomainSpec(kind, size).resolution == expected

    def test_default_resolution_unknown_kind(self):
        with pytest.raises(ValueError):
            DomainSpec("torus", 1.0)


class TestDomainSpec:
    def test_build_square(self):
        mesh = build_domain(DomainSpec("square", 2.0, 4))
        assert mesh.n_nodes == 25
        assert not mesh.is_closed()

    def test_build_sphere(self):
        mesh = build_domain(DomainSpec("sphere", 3.0, 1))
        assert mesh.n_nodes == 42
        assert mesh.is_closed()
        assert np.allclose(np.linalg.norm(mesh.nodes, axis=1), 3.0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            DomainSpec("torus", 1.0, 2)
        with pytest.raises(ValueError):
            DomainSpec("square", -1.0, 2)
        with pytest.raises(ValueError):
            DomainSpec("sphere", float("nan"), 2)
        with pytest.raises(ValueError):
            DomainSpec("sphere", 1.0, 0)
        for bad in (2.5, 2.0, "2", True):
            with pytest.raises(ValueError, match="resolution must be an integer"):
                DomainSpec("square", 2.0, bad)
        for kind in ("square", "sphere"):  # the default resolution overflows
            with pytest.raises(ValueError, match="size must leave a finite default resolution"):
                DomainSpec(kind, 1e308)

    def test_resolution_defaults_to_target_edge(self):
        assert DomainSpec("square", 2.0).resolution == 10
        assert DomainSpec("sphere", 3.0) == DomainSpec("sphere", 3.0, 4)
