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
from esdib.mesh import displace_nodes
from esdib.meshgen import generate_icosphere, generate_square


def reference_write_vtk(path, mesh, point_data=None, title="surface snapshot"):
    """The line-by-line VTK writer whose bytes ``write_vtk`` must reproduce."""
    fmt = lambda x: repr(float(x))
    point_data = {} if point_data is None else point_data
    n, m = mesh.n_nodes, mesh.n_triangles
    with open(path, "w", newline="\n") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write(f"{title}\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {n} double\n")
        for p in mesh.nodes:
            f.write(f"{fmt(p[0])} {fmt(p[1])} {fmt(p[2])}\n")
        f.write(f"CELLS {m} {4 * m}\n")
        for tri in mesh.triangles:
            f.write(f"3 {tri[0]} {tri[1]} {tri[2]}\n")
        f.write(f"CELL_TYPES {m}\n")
        for _ in range(m):
            f.write("5\n")
        if point_data:
            f.write(f"POINT_DATA {n}\n")
            for name, values in point_data.items():
                f.write(f"SCALARS {name} double 1\n")
                f.write("LOOKUP_TABLE default\n")
                for v in np.asarray(values, dtype=np.float64):
                    f.write(f"{fmt(v)}\n")


def reference_write_obj(path, mesh):
    """The line-by-line OBJ writer whose bytes ``write_obj`` must reproduce."""
    fmt = lambda x: repr(float(x))
    with open(path, "w", newline="\n") as f:
        for p in mesh.nodes:
            f.write(f"v {fmt(p[0])} {fmt(p[1])} {fmt(p[2])}\n")
        for tri in mesh.triangles:
            f.write(f"f {tri[0] + 1} {tri[1] + 1} {tri[2] + 1}\n")


def perturbed_icosphere(seed=0):
    mesh = generate_icosphere(1.3, 2)
    rng = np.random.default_rng(seed)
    return displace_nodes(mesh, 1e-3 * rng.standard_normal(mesh.nodes.shape))


def awkward_field(n, seed=0):
    """A nodal field mixing random floats with values whose text is unusual."""
    values = np.random.default_rng(seed).standard_normal(n)
    special = [-0.0, 0.0, 5e-324, 1e300, -1e-7, 1.0, -3.0, 1e16, 0.1, 2.5e-310]
    values[: len(special)] = special
    return values


def assert_same_bytes(path, reference_path):
    assert path.read_bytes() == reference_path.read_bytes()


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


class TestNamesAndTitles:
    @pytest.mark.parametrize("name", ["", "my field", "eta\n", "\ttheta", "a\u00a0b"])
    def test_field_name_must_be_one_word(self, tmp_path, small_mesh, name):
        path = tmp_path / "mesh.vtk"
        with pytest.raises(ValueError, match="field name"):
            write_vtk(path, small_mesh, point_data={name: np.zeros(9)})
        assert not path.exists()

    @pytest.mark.parametrize("title", ["two\nlines", "carriage\rreturn", "\n"])
    def test_title_must_fit_on_one_line(self, tmp_path, small_mesh, title):
        path = tmp_path / "mesh.vtk"
        with pytest.raises(ValueError, match="title"):
            write_vtk(path, small_mesh, title=title)
        assert not path.exists()

    @pytest.mark.parametrize(
        "title", ["ASCII run", "ASCII", "DATASET UNSTRUCTURED_GRID POINTS 1", "", "  spaced  "]
    )
    def test_any_one_line_title_round_trips(self, tmp_path, small_mesh, title):
        path = tmp_path / "mesh.vtk"
        eta = np.linspace(0.0, 1.0, 9)
        write_vtk(path, small_mesh, point_data={"eta": eta}, title=title)
        assert path.read_text().split("\n")[1] == title
        nodes, triangles, data = read_vtk(path)
        assert np.array_equal(nodes, small_mesh.nodes)
        assert np.array_equal(triangles, small_mesh.triangles)
        assert np.array_equal(data["eta"], eta)

    def test_unusual_legal_field_names_round_trip(self, tmp_path, small_mesh):
        fields = {"eta_1": np.zeros(9), "ASCII": np.ones(9), "SCALARS.x": np.full(9, 2.0)}
        path = tmp_path / "mesh.vtk"
        write_vtk(path, small_mesh, point_data=fields)
        _, _, data = read_vtk(path)
        assert list(data) == list(fields)
        for name, values in fields.items():
            assert np.array_equal(data[name], values)


class TestBytesMatchLineWriter:
    def test_perturbed_sphere_with_awkward_fields(self, tmp_path):
        mesh = perturbed_icosphere()
        fields = {"eta": awkward_field(mesh.n_nodes, 1), "theta": awkward_field(mesh.n_nodes, 2)}
        write_vtk(tmp_path / "new.vtk", mesh, point_data=fields, title="t = 0.25")
        reference_write_vtk(tmp_path / "ref.vtk", mesh, point_data=fields, title="t = 0.25")
        assert_same_bytes(tmp_path / "new.vtk", tmp_path / "ref.vtk")
        assert "-0.0\n0.0\n5e-324\n1e+300\n-1e-07\n1.0\n" in (tmp_path / "new.vtk").read_text()

    @pytest.mark.parametrize("point_data", [None, {}], ids=["none", "empty"])
    def test_no_point_data_and_default_title(self, tmp_path, point_data):
        mesh = perturbed_icosphere()
        write_vtk(tmp_path / "new.vtk", mesh, point_data=point_data)
        reference_write_vtk(tmp_path / "ref.vtk", mesh, point_data=point_data)
        assert_same_bytes(tmp_path / "new.vtk", tmp_path / "ref.vtk")

    def test_list_and_integer_fields(self, tmp_path, small_mesh):
        fields = {"ids": np.arange(9), "listed": [float(k) / 3 for k in range(9)]}
        write_vtk(tmp_path / "new.vtk", small_mesh, point_data=fields)
        reference_write_vtk(tmp_path / "ref.vtk", small_mesh, point_data=fields)
        assert_same_bytes(tmp_path / "new.vtk", tmp_path / "ref.vtk")

    def test_connectivity_text_never_stale(self, tmp_path):
        # the CELLS text is reused per triangle array: switching meshes and
        # moving nodes over a shared array must still give the reference bytes
        sphere, square = perturbed_icosphere(), generate_square(2.0, 3)
        moved = displace_nodes(sphere, np.full(sphere.nodes.shape, 0.5))
        assert moved.triangles is sphere.triangles
        for k, mesh in enumerate([sphere, square, sphere, moved, square]):
            eta = awkward_field(mesh.n_nodes, k)
            write_vtk(tmp_path / f"new{k}.vtk", mesh, point_data={"eta": eta})
            reference_write_vtk(tmp_path / f"ref{k}.vtk", mesh, point_data={"eta": eta})
            assert_same_bytes(tmp_path / f"new{k}.vtk", tmp_path / f"ref{k}.vtk")

    def test_writable_triangles_are_not_reused(self, tmp_path, small_mesh):
        # a duck-typed mesh whose connectivity can change in place
        class Loose:
            nodes = small_mesh.nodes
            triangles = small_mesh.triangles.copy()
            n_nodes, n_triangles = small_mesh.n_nodes, small_mesh.n_triangles

        write_vtk(tmp_path / "before.vtk", Loose)
        Loose.triangles[0] = Loose.triangles[0, ::-1]
        write_vtk(tmp_path / "new.vtk", Loose)
        reference_write_vtk(tmp_path / "ref.vtk", Loose)
        assert_same_bytes(tmp_path / "new.vtk", tmp_path / "ref.vtk")

    def test_obj(self, tmp_path):
        for k, mesh in enumerate([perturbed_icosphere(), generate_square(2.0, 3)]):
            write_obj(tmp_path / f"new{k}.obj", mesh)
            reference_write_obj(tmp_path / f"ref{k}.obj", mesh)
            assert_same_bytes(tmp_path / f"new{k}.obj", tmp_path / f"ref{k}.obj")

    def test_state_snapshot(self, tmp_path):
        mesh = perturbed_icosphere()
        state = SimState(
            t=0.30000000000000004, mesh=mesh,
            eta=awkward_field(mesh.n_nodes, 3), theta=awkward_field(mesh.n_nodes, 4),
        )
        export_mesh_snapshot(state, tmp_path / "new.vtk")
        reference_write_vtk(
            tmp_path / "ref.vtk", mesh, point_data={"eta": state.eta, "theta": state.theta},
            title="t = 0.30000000000000004",
        )
        assert_same_bytes(tmp_path / "new.vtk", tmp_path / "ref.vtk")


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

    def test_format_is_read_from_line_three(self, tmp_path):
        bad = tmp_path / "binary.vtk"
        bad.write_text(
            "# vtk DataFile Version 3.0\nASCII\nBINARY\n"
            "DATASET UNSTRUCTURED_GRID\nPOINTS 0 double\n"
        )
        with pytest.raises(DataError, match="line 3"):
            read_vtk(bad)
        short = tmp_path / "short.vtk"
        short.write_text("# vtk DataFile Version 3.0\nASCII\n")
        with pytest.raises(DataError, match="line 3"):
            read_vtk(short)

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

    ONE_TRIANGLE = (
        "# vtk DataFile Version 3.0\ntitle\nASCII\n"
        "DATASET UNSTRUCTURED_GRID\nPOINTS 3 double\n"
        "0 0 0\n1 0 0\n0 1 0\n"
        "CELLS 1 4\n3 0 1 2\nCELL_TYPES 1\n5\n"
    )

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("POINTS 3", "POINTS abc", "POINTS count 'abc'"),
            ("POINTS 3", "POINTS -1", "POINTS count '-1'"),
            ("CELLS 1", "CELLS 1.0", "CELLS count '1.0'"),
            ("1 0 0", "x 0 0", "non-numeric"),
            ("3 0 1 2", "3 0 1 x", "non-numeric"),
            ("3 0 1 2", "3 0 1 99999999999999999999", "out-of-range"),
            ("3 0 1 2", "3 0 1 7", r"cell 0 .* outside \[0, 3\)"),
            ("3 0 1 2", "3 0 -1 2", r"cell 0 .* outside \[0, 3\)"),
        ],
        ids=["text count", "negative count", "fractional count", "coordinate",
             "index", "huge index", "index past the end", "negative index"],
    )
    def test_malformed_numbers(self, tmp_path, old, new, message):
        path = tmp_path / "one.vtk"
        path.write_text(self.ONE_TRIANGLE)
        read_vtk(path)  # the unmodified file reads
        path.write_text(self.ONE_TRIANGLE.replace(old, new, 1))
        with pytest.raises(DataError, match=message):
            read_vtk(path)

    def test_vector_field_rejected(self, tmp_path):
        path = tmp_path / "vector.vtk"
        field = "POINT_DATA 3\nSCALARS v double {}\nLOOKUP_TABLE default\n{}"
        path.write_text(self.ONE_TRIANGLE + field.format(1, "1 2 3\n"))
        assert np.array_equal(read_vtk(path)[2]["v"], [1.0, 2.0, 3.0])
        path.write_text(self.ONE_TRIANGLE + field.format(3, "1 2 3\n4 5 6\n7 8 9\n"))
        with pytest.raises(DataError, match="'v' .* has other than one component"):
            read_vtk(path)

    def test_trailing_section_rejected(self, tmp_path):
        path = tmp_path / "trailing.vtk"
        path.write_text(
            self.ONE_TRIANGLE
            + "POINT_DATA 3\nSCALARS v double 1\nLOOKUP_TABLE default\n1 2 3\n"
            + "VECTORS w double\n1 0 0\n0 1 0\n0 0 1\n"
        )
        with pytest.raises(DataError, match="unexpected 'VECTORS' after the last section"):
            read_vtk(path)
