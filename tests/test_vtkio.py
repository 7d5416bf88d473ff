"""Legacy VTK and OBJ export, plus the matching VTK reader."""

import numpy as np
import pytest

from esdib import (
    DataError,
    SimState,
    SolverConfig,
    SurfaceMesh,
    default_params,
    export_mesh_snapshot,
    initial_condition,
    read_vtk,
    run,
    write_obj,
    write_vtk,
)
from esdib.meshgen import generate_icosphere, generate_square


@pytest.fixture
def small_mesh():
    return generate_square(1.0, 2)


class TestWriteVtk:
    def test_file_structure(self, tmp_path, small_mesh):
        path = tmp_path / "mesh.vtk"
        write_vtk(path, small_mesh, point_data={"eta": np.zeros(9)})
        lines = path.read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET UNSTRUCTURED_GRID"
        assert lines[4] == "POINTS 9 double"
        assert f"CELLS 8 {4 * 8}" in lines
        assert "CELL_TYPES 8" in lines
        assert "POINT_DATA 9" in lines
        assert "SCALARS eta double 1" in lines
        assert "LOOKUP_TABLE default" in lines
        # every cell row is a triangle record
        start = lines.index(f"CELLS 8 {4 * 8}") + 1
        for row in lines[start : start + 8]:
            assert row.startswith("3 ")

    def test_geometry_round_trip_is_exact(self, tmp_path):
        mesh = generate_icosphere(1.3, 2)
        rng = np.random.default_rng(0)
        fields = {
            "eta": rng.standard_normal(mesh.n_nodes),
            "theta": rng.uniform(0.0, 1.0, mesh.n_nodes),
        }
        path = tmp_path / "sphere.vtk"
        write_vtk(path, mesh, point_data=fields)
        nodes, triangles, data = read_vtk(path)
        assert np.array_equal(nodes, mesh.nodes)
        assert np.array_equal(triangles, mesh.triangles)
        assert set(data) == {"eta", "theta"}
        assert np.array_equal(data["eta"], fields["eta"])
        assert np.array_equal(data["theta"], fields["theta"])

    def test_no_point_data_section_when_empty(self, tmp_path, small_mesh):
        path = tmp_path / "bare.vtk"
        write_vtk(path, small_mesh)
        assert "POINT_DATA" not in path.read_text()
        _, _, data = read_vtk(path)
        assert data == {}

    def test_deterministic_bytes(self, tmp_path, small_mesh):
        a, b = tmp_path / "a.vtk", tmp_path / "b.vtk"
        field = {"eta": np.linspace(0.0, 1.0, 9)}
        write_vtk(a, small_mesh, point_data=field)
        write_vtk(b, small_mesh, point_data=field)
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_field_shape_rejected(self, tmp_path, small_mesh):
        with pytest.raises(DataError, match="eta"):
            write_vtk(tmp_path / "bad.vtk", small_mesh, point_data={"eta": np.zeros(5)})


class TestSnapshot:
    def test_state_snapshot_carries_both_fields_and_time(self, tmp_path):
        mesh = generate_square(2.0, 3)
        params = default_params(B=30.0, C=3.0)
        fields = initial_condition(mesh, params, seed=2)
        state = SimState(t=0.125, mesh=mesh, eta=fields.eta, theta=fields.theta)
        path = tmp_path / "snap.vtk"
        export_mesh_snapshot(state, path)
        assert path.read_text().splitlines()[1] == "t = 0.125"
        nodes, triangles, data = read_vtk(path)
        assert np.array_equal(nodes, mesh.nodes)
        assert np.array_equal(data["eta"], fields.eta)
        assert np.array_equal(data["theta"], fields.theta)

    def test_evolved_sphere_snapshot_rebuilds_closed_mesh(self, tmp_path):
        level = 2
        mesh = generate_icosphere(3.0, level)
        params = default_params(B=30.0, C=3.0, rho=2.0, kappa=0.2)
        fields = initial_condition(mesh, params, seed=4)
        state = SimState(t=0.0, mesh=mesh, eta=fields.eta, theta=fields.theta)
        final, _ = run(state, params, SolverConfig(tau=1e-2, T=0.05), stride=5)
        path = tmp_path / "evolved.vtk"
        export_mesh_snapshot(final, path)
        nodes, triangles, data = read_vtk(path)
        rebuilt = SurfaceMesh(nodes, triangles)
        assert rebuilt.is_closed()
        assert rebuilt.n_nodes == 10 * 4**level + 2
        assert np.array_equal(data["eta"], final.eta)


class TestObj:
    def test_obj_records(self, tmp_path, small_mesh):
        path = tmp_path / "mesh.obj"
        write_obj(path, small_mesh)
        lines = path.read_text().splitlines()
        v_lines = [l for l in lines if l.startswith("v ")]
        f_lines = [l for l in lines if l.startswith("f ")]
        assert len(v_lines) == small_mesh.n_nodes
        assert len(f_lines) == small_mesh.n_triangles
        assert v_lines[0] == "v 0.0 0.0 0.0"
        # faces are 1-based
        first = small_mesh.triangles[0]
        assert f_lines[0] == f"f {first[0] + 1} {first[1] + 1} {first[2] + 1}"
        indices = np.array(
            [[int(tok) for tok in l.split()[1:]] for l in f_lines]
        )
        assert indices.min() == 1
        assert indices.max() == small_mesh.n_nodes


class TestReadErrors:
    def test_missing_sections(self, tmp_path):
        bad = tmp_path / "bad.vtk"
        bad.write_text("# vtk DataFile Version 3.0\ntitle\nASCII\nDATASET POLYDATA\n")
        with pytest.raises(DataError):
            read_vtk(bad)

    def test_truncated_points(self, tmp_path):
        bad = tmp_path / "short.vtk"
        bad.write_text(
            "# vtk DataFile Version 3.0\ntitle\nASCII\n"
            "DATASET UNSTRUCTURED_GRID\nPOINTS 4 double\n0 0 0\n"
        )
        with pytest.raises(DataError):
            read_vtk(bad)

    def test_non_triangle_cells(self, tmp_path):
        bad = tmp_path / "quad.vtk"
        bad.write_text(
            "# vtk DataFile Version 3.0\ntitle\nASCII\n"
            "DATASET UNSTRUCTURED_GRID\nPOINTS 4 double\n"
            "0 0 0\n1 0 0\n1 1 0\n0 1 0\n"
            "CELLS 1 5\n4 0 1 2 3\nCELL_TYPES 1\n9\n"
        )
        with pytest.raises(DataError, match="non-triangle"):
            read_vtk(bad)

    def test_point_data_count_must_match_points(self, tmp_path):
        path = tmp_path / "mesh.vtk"
        write_vtk(path, generate_square(1.0, 2), point_data={"eta": np.zeros(9)})
        bad = tmp_path / "short.vtk"
        bad.write_text(path.read_text().replace("POINT_DATA 9", "POINT_DATA 5"))
        with pytest.raises(DataError, match="POINT_DATA 5 for 9 POINTS"):
            read_vtk(bad)

    def test_cell_types_count_must_match_cells(self, tmp_path):
        bad = tmp_path / "types.vtk"
        bad.write_text(
            "# vtk DataFile Version 3.0\ntitle\nASCII\n"
            "DATASET UNSTRUCTURED_GRID\nPOINTS 3 double\n"
            "0 0 0\n1 0 0\n0 1 0\n"
            "CELLS 1 4\n3 0 1 2\nCELL_TYPES 0\n"
        )
        with pytest.raises(DataError, match="0 CELL_TYPES for 1 CELLS"):
            read_vtk(bad)
