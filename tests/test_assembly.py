"""Lumped mass and stiffness assembly against independent oracles."""

import math

import numpy as np
import pytest

from esdib import (
    DegenerateGeometryError,
    MeshStructureError,
    SimState,
    SolverConfig,
    StiffnessPattern,
    SurfaceMesh,
    assemble_lumped_mass,
    assemble_stiffness,
    compute_node_normals,
    default_params,
    displace_nodes,
    initial_condition,
    step,
    surface_area,
)
from esdib import stepper
from esdib.meshgen import generate_icosphere, generate_square


def reference_triangle():
    nodes = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return SurfaceMesh(nodes, np.array([[0, 1, 2]]))


def cotangent_stiffness_dense(mesh):
    """Independent dense assembly from interior angles: off-diagonal entries
    are -cot(opposite angle) / 2, diagonals close the zero row sums."""
    n = mesh.n_nodes
    K = np.zeros((n, n))
    for tri in mesh.triangles:
        pts = mesh.nodes[tri]
        for local in range(3):
            i, j, k = tri[local], tri[(local + 1) % 3], tri[(local + 2) % 3]
            u = pts[(local + 1) % 3] - pts[local]
            v = pts[(local + 2) % 3] - pts[local]
            cot = np.dot(u, v) / np.linalg.norm(np.cross(u, v))
            K[j, k] -= 0.5 * cot
            K[k, j] -= 0.5 * cot
            K[j, j] += 0.5 * cot
            K[k, k] += 0.5 * cot
    return K


class TestElementOracles:
    def test_reference_triangle_mass(self):
        mass = assemble_lumped_mass(reference_triangle())
        assert np.array_equal(mass, np.array([1 / 6, 1 / 6, 1 / 6]))
        assert mass.sum() == pytest.approx(0.5, rel=1e-15)

    def test_reference_triangle_stiffness(self):
        K = assemble_stiffness(reference_triangle()).toarray()
        expected = 0.5 * np.array(
            [[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]
        )
        assert np.array_equal(K, expected)

    def test_equilateral_triangle_stiffness(self):
        nodes = np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, math.sqrt(3.0) / 2.0, 0.0]]
        )
        K = assemble_stiffness(SurfaceMesh(nodes, np.array([[0, 1, 2]]))).toarray()
        off = -0.5 / math.sqrt(3.0)
        diag = 1.0 / math.sqrt(3.0)
        expected = np.full((3, 3), off)
        np.fill_diagonal(expected, diag)
        assert np.max(np.abs(K - expected)) <= 1e-15

    def test_two_triangle_square_mass(self):
        mesh = generate_square(1.0, 1)
        mass = assemble_lumped_mass(mesh)
        assert np.max(np.abs(mass - np.array([1 / 3, 1 / 6, 1 / 6, 1 / 3]))) <= 1e-16


class TestGlobalProperties:
    def test_mass_is_the_diagonal_array(self, bumpy_square):
        mass = assemble_lumped_mass(bumpy_square)
        assert type(mass) is np.ndarray
        assert mass.shape == (bumpy_square.n_nodes,) and mass.dtype == np.float64

    def test_mass_total_equals_area(self, bumpy_square):
        mass = assemble_lumped_mass(bumpy_square)
        assert mass.sum() == pytest.approx(surface_area(bumpy_square), rel=1e-12)

    def test_mass_total_equals_area_sphere(self):
        mesh = generate_icosphere(2.0, 2)
        mass = assemble_lumped_mass(mesh)
        assert mass.sum() == pytest.approx(surface_area(mesh), rel=1e-12)

    @pytest.mark.parametrize("builder", ["bumpy", "sphere"])
    def test_rows_sum_to_zero(self, builder, bumpy_square):
        mesh = bumpy_square if builder == "bumpy" else generate_icosphere(1.0, 2)
        K = assemble_stiffness(mesh)
        scale = np.max(np.abs(K.data))
        assert np.max(np.abs(K @ np.ones(mesh.n_nodes))) <= 1e-12 * scale

    def test_exact_symmetry(self, bumpy_square):
        K = assemble_stiffness(bumpy_square)
        diff = (K - K.T).tocsr()
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0

    def test_matches_cotangent_formula(self, bumpy_square):
        K = assemble_stiffness(bumpy_square).toarray()
        ref = cotangent_stiffness_dense(bumpy_square)
        assert np.max(np.abs(K - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_dirichlet_energy_of_linear_fields(self):
        L, n = 2.0, 8
        mesh = generate_square(L, n)
        K = assemble_stiffness(mesh)
        area = L * L
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        assert x @ (K @ x) == pytest.approx(area, rel=1e-12)
        u = x + 2.0 * y
        assert u @ (K @ u) == pytest.approx(5.0 * area, rel=1e-12)
        c = np.full(mesh.n_nodes, 3.7)
        assert abs(c @ (K @ c)) <= 1e-12 * area

    def test_positive_semidefinite_probes(self, bumpy_square):
        K = assemble_stiffness(bumpy_square)
        rng = np.random.default_rng(7)
        scale = np.max(np.abs(K.data))
        for _ in range(20):
            v = rng.standard_normal(bumpy_square.n_nodes)
            assert v @ (K @ v) >= -1e-12 * scale * (v @ v)


class TestGeometricInvariance:
    def test_rigid_motion_invariance(self, bumpy_square):
        rng = np.random.default_rng(11)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        moved = displace_nodes(
            bumpy_square, bumpy_square.nodes @ Q.T + np.array([3.0, -1.0, 4.0])
            - bumpy_square.nodes,
        )
        K0 = assemble_stiffness(bumpy_square)
        K1 = assemble_stiffness(moved)
        scale = np.max(np.abs(K0.data))
        assert np.max(np.abs(K0.data - K1.data)) <= 1e-12 * scale
        m0 = assemble_lumped_mass(bumpy_square)
        m1 = assemble_lumped_mass(moved)
        assert np.max(np.abs(m0 - m1)) <= 1e-12 * np.max(m0)

    def test_power_of_two_dilation_is_exact(self, bumpy_square):
        scaled = displace_nodes(bumpy_square, bumpy_square.nodes)  # nodes * 2
        K0 = assemble_stiffness(bumpy_square)
        K1 = assemble_stiffness(scaled)
        assert np.array_equal(K0.data, K1.data)
        m0 = assemble_lumped_mass(bumpy_square)
        m1 = assemble_lumped_mass(scaled)
        assert np.array_equal(4.0 * m0, m1)

    def test_general_dilation(self, bumpy_square):
        s = 1.7
        scaled = displace_nodes(bumpy_square, (s - 1.0) * bumpy_square.nodes)
        K0 = assemble_stiffness(bumpy_square)
        K1 = assemble_stiffness(scaled)
        assert np.max(np.abs(K0.data - K1.data)) <= 1e-12 * np.max(np.abs(K0.data))
        m0 = assemble_lumped_mass(bumpy_square)
        m1 = assemble_lumped_mass(scaled)
        assert np.max(np.abs(s * s * m0 - m1)) <= 1e-12 * np.max(m1)


class TestPatternReuse:
    def test_pattern_matches_on_the_fly_assembly(self, bumpy_square):
        # a mesh moved by zero shares the source's pattern; a mesh built anew
        # from the same arrays builds its own on first use
        shared = displace_nodes(bumpy_square, np.zeros_like(bumpy_square.nodes))
        own = SurfaceMesh(bumpy_square.nodes, bumpy_square.triangles)
        assert shared.pattern is bumpy_square.pattern
        assert own.pattern is not bumpy_square.pattern
        K_shared, K_own = assemble_stiffness(shared), assemble_stiffness(own)
        assert np.array_equal(K_shared.data, K_own.data)
        assert np.array_equal(K_shared.indices, K_own.indices)
        assert np.array_equal(K_shared.indptr, K_own.indptr)
        assert np.array_equal(assemble_lumped_mass(shared), assemble_lumped_mass(own))
        assert np.array_equal(compute_node_normals(shared), compute_node_normals(own))

    def test_reassembly_after_motion_keeps_structure(self, bumpy_square):
        pattern = bumpy_square.pattern
        rng = np.random.default_rng(3)
        moved = displace_nodes(
            bumpy_square, 0.01 * rng.standard_normal(bumpy_square.nodes.shape)
        )
        K = assemble_stiffness(moved)
        assert moved.pattern is pattern
        assert K.shape == (bumpy_square.n_nodes, bumpy_square.n_nodes)
        assert K.nnz == pattern.nnz
        assert np.array_equal(K.indices, pattern.indices)
        assert np.array_equal(K.indptr, pattern.indptr)
        diff = (K - K.T).tocsr()
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0

    def test_diagonal_slots_address_the_diagonal(self, bumpy_square):
        K = assemble_stiffness(bumpy_square)
        assert np.array_equal(K.data[bumpy_square.pattern.diagonal_slots], K.diagonal())

    def test_pattern_is_built_on_first_use_and_shared_by_moved_meshes(self, bumpy_square):
        mesh = SurfaceMesh(bumpy_square.nodes, bumpy_square.triangles)
        assert mesh._pattern is None
        d = np.full(mesh.nodes.shape, 0.01)
        # the moved mesh takes the pattern from its source, which builds it
        assert displace_nodes(mesh, d).pattern is mesh.pattern
        assert displace_nodes(displace_nodes(mesh, d), d).pattern is mesh.pattern
        assert isinstance(mesh.pattern, StiffnessPattern)

    def test_mass_rejects_isolated_node(self):
        # a node without triangles would get zero mass and a singular system;
        # the mesh that holds one is refused before any mass is assembled
        with pytest.raises(MeshStructureError, match="node 3 belongs to no triangle"):
            assemble_lumped_mass(
                SurfaceMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]], [[0, 1, 2]])
            )

    @pytest.mark.parametrize("mesh", [generate_square(3.0, 30), generate_icosphere(1.0, 3)],
                             ids=["sheet", "sphere"])
    def test_matches_unique_construction_on_permuted_mesh(self, mesh):
        # relabel the nodes, shuffle the triangles and rotate each triangle's
        # vertices (winding kept), so entry codes arrive in no useful order
        rng = np.random.default_rng(11)
        n = mesh.n_nodes
        label = rng.permutation(n)
        tri = label[mesh.triangles][rng.permutation(mesh.n_triangles)]
        shift = rng.integers(0, 3, size=len(tri))
        tri = np.take_along_axis(tri, (np.arange(3) + shift[:, None]) % 3, axis=1)
        nodes = np.empty_like(mesh.nodes)
        nodes[label] = mesh.nodes

        rows = tri[:, [0, 0, 0, 1, 1, 1, 2, 2, 2]].ravel()
        cols = tri[:, [0, 1, 2, 0, 1, 2, 0, 1, 2]].ravel()
        codes, slot = np.unique(rows * n + cols, return_inverse=True)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(codes // n, minlength=n))])
        # entry 3 a + b of triangle t reads dot product dot[3 a + b] of it,
        # column dot[3 a + b] m + t; each row lists its entries in entry order
        m = len(tri)
        dot = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])
        entry = np.argsort(slot, kind="stable")
        scatter_indices = dot[entry % 9] * m + entry // 9
        scatter_indptr = np.concatenate([[0], np.cumsum(np.bincount(slot))])

        pattern = StiffnessPattern(SurfaceMesh(nodes, tri))
        assert pattern.nnz == codes.size
        for got, want in ((pattern.scatter.indices, scatter_indices.astype(np.int32)),
                          (pattern.scatter.indptr, scatter_indptr.astype(np.int32)),
                          (pattern.indices, (codes % n).astype(np.int32)),
                          (pattern.indptr, indptr.astype(np.int32)),
                          (pattern.diagonal_slots,
                           np.searchsorted(codes, np.arange(n) * (n + 1)))):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestSquareGridStencil:
    """``generate_square``'s stiffness is the 5-point stencil.

    Each grid cell is split along its diagonal (v00, v11), and the two angles
    opposite that diagonal are right angles whose legs are axis-aligned, so
    their dot product, and with it the diagonal's weight, is exactly 0.0.
    """

    @pytest.mark.parametrize("L, n", [(20.0, 100), (3.0, 7), (1.0, 1)])
    def test_split_diagonals_weigh_exactly_zero_and_edges_one(self, L, n):
        K = assemble_stiffness(generate_square(L, n)).tocoo()
        size = (n + 1) ** 2
        codes = K.row.astype(np.int64) * size + K.col
        i, j = np.tile(np.arange(n), n), np.repeat(np.arange(n), n)
        v00 = j * (n + 1) + i
        v11 = v00 + n + 2
        split = np.concatenate([v00 * size + v11, v11 * size + v00])
        assert np.array_equal(np.sort(codes[K.data == 0.0]), np.sort(split))  # 2 n^2 entries

        others = (K.row != K.col) & (K.data != 0.0)
        lo = np.minimum(K.row, K.col)[others]
        hi = np.maximum(K.row, K.col)[others]
        ix, iy = lo % (n + 1), lo // (n + 1)
        horizontal = hi - lo == 1
        assert np.all(horizontal | (hi - lo == n + 1))
        on_rim = np.where(horizontal, (iy == 0) | (iy == n), (ix == 0) | (ix == n))
        expected = np.where(on_rim, -0.5, -1.0)
        assert K.data[others] == pytest.approx(expected, rel=1e-12)


class TestDegenerateInput:
    def collapsed_mesh(self):
        # node motion is the only route by which a zero area reaches the
        # operators: move node 2 onto the line through nodes 0 and 1
        nodes = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, -1.0, 0.0], [0.0, 1.0, 0.0]]
        mesh = SurfaceMesh(nodes, [[0, 1, 3], [1, 0, 2]])
        return displace_nodes(mesh, [[0.0, 0, 0], [0, 0, 0], [1.5, 1.0, 0], [0, 0, 0]])

    def test_mass_rejects_zero_area(self):
        with pytest.raises(DegenerateGeometryError, match="triangle 1"):
            assemble_lumped_mass(self.collapsed_mesh())

    def test_stiffness_rejects_zero_area(self):
        with pytest.raises(DegenerateGeometryError, match="triangle 1"):
            assemble_stiffness(self.collapsed_mesh())


# Reference assembly of the lumped mass and the stiffness values from their
# own gather of ``nodes[triangles]``, bypassing the cached geometry pass.


def direct_lumped_mass(mesh):
    p = mesh.nodes[mesh.triangles]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    thirds = np.repeat(areas / 3.0, 3)
    return np.bincount(mesh.triangles.ravel(), weights=thirds, minlength=mesh.n_nodes)


def direct_stiffness(mesh, pattern):
    tri = mesh.triangles
    rows = tri[:, [0, 0, 0, 1, 1, 1, 2, 2, 2]].ravel()
    cols = tri[:, [0, 1, 2, 0, 1, 2, 0, 1, 2]].ravel()
    _, slot = np.unique(rows * mesh.n_nodes + cols, return_inverse=True)
    p = mesh.nodes[mesh.triangles]
    e0 = p[:, 2] - p[:, 1]
    e1 = p[:, 0] - p[:, 2]
    e2 = p[:, 1] - p[:, 0]
    doubled = np.linalg.norm(np.cross(e2, -e1), axis=1)
    w = 1.0 / (2.0 * doubled)

    def dot(a, b):  # components summed left to right
        return (a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]) + a[:, 2] * b[:, 2]

    d00 = dot(e0, e0) * w
    d01 = dot(e0, e1) * w
    d02 = dot(e0, e2) * w
    d11 = dot(e1, e1) * w
    d12 = dot(e1, e2) * w
    d22 = dot(e2, e2) * w
    vals = np.stack([d00, d01, d02, d01, d11, d12, d02, d12, d22], axis=1)
    return np.bincount(slot, weights=vals.ravel(), minlength=pattern.nnz)


class TestCachedGeometry:
    def test_matches_direct_assembly_bitwise(self, geometry_mesh):
        mesh = geometry_mesh
        # the mass computes the pass, the stiffness reads it from the cache
        assert np.array_equal(assemble_lumped_mass(mesh), direct_lumped_mass(mesh))
        K = assemble_stiffness(mesh)
        assert np.array_equal(K.indptr, mesh.pattern.indptr)
        assert np.array_equal(K.data, direct_stiffness(mesh, mesh.pattern))

    def test_moving_step_stiffness_matches_direct_assembly(self, monkeypatch, bumpy_square):
        # the stiffness that one moving step assembles on its moved mesh,
        # copied before the step adds the mass to its diagonal in place
        assembled = []

        def capturing(mesh, original=stepper.assemble_stiffness):
            K = original(mesh)
            assembled.append((mesh, K.data.copy()))
            return K

        monkeypatch.setattr(stepper, "assemble_stiffness", capturing)
        params = default_params(B=30.0, C=3.0, rho=2.0, kappa=0.2)
        fields = initial_condition(bumpy_square, params, amplitude=0.5, seed=2)
        state = SimState(t=0.0, mesh=bumpy_square, eta=fields.eta, theta=fields.theta)
        after = step(state, params, SolverConfig(tau=1e-2, T=1e-2))
        [(mesh, data)] = assembled
        assert mesh is after.mesh and mesh is not bumpy_square
        assert mesh.pattern is bumpy_square.pattern
        assert np.array_equal(data, direct_stiffness(mesh, mesh.pattern))
