"""Legacy binary VTK and OBJ export, plus the matching VTK reader."""

import struct

import numpy as np
import pytest

from esdib import (
    DataError,
    MeshStructureError,
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
    """A writer that packs the expected big-endian bytes value by value."""
    point_data = {} if point_data is None else point_data
    n, m = mesh.n_nodes, mesh.n_triangles
    doubles = lambda values: struct.pack(f">{len(values)}d", *map(float, values)) + b"\n"
    ints = lambda values: struct.pack(f">{len(values)}i", *map(int, values)) + b"\n"
    parts = [
        b"# vtk DataFile Version 3.0\n", title.encode() + b"\n", b"BINARY\n",
        b"DATASET UNSTRUCTURED_GRID\n", f"POINTS {n} double\n".encode(),
        doubles([x for p in mesh.nodes for x in p]),
        f"CELLS {m} {4 * m}\n".encode(),
        ints([k for tri in mesh.triangles for k in (3, *tri)]),
        f"CELL_TYPES {m}\n".encode(), ints([5] * m),
    ]
    if point_data:
        parts.append(f"POINT_DATA {n}\n".encode())
        for name, values in point_data.items():
            parts.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n".encode())
            parts.append(doubles(values))
    path.write_bytes(b"".join(parts))


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
    special = [-0.0, 0.0, 5e-324, 1e300, np.nan, -1e-7, 1.0, -3.0, 1e16, 0.1, 2.5e-310]
    values[: len(special)] = special
    return values


def assert_same_bytes(path, reference_path):
    assert path.read_bytes() == reference_path.read_bytes()


def cut(data, layout):
    """Walk ``data`` through ``layout``, returning the arrays it holds.

    Each bytes item of ``layout`` must appear next, verbatim; each
    ``(dtype, count)`` item is read as an array.  Nothing may be left over.
    """
    pos, arrays = 0, []
    for part in layout:
        if isinstance(part, bytes):
            assert data[pos : pos + len(part)] == part
            pos += len(part)
        else:
            dtype, count = np.dtype(part[0]), part[1]
            arrays.append(np.frombuffer(data, dtype, count, pos))
            pos += count * dtype.itemsize
    assert pos == len(data)
    return arrays


def bits(values):
    """The IEEE bit patterns of a float64 array, so that -0.0 and NaN compare."""
    return np.ascontiguousarray(values, np.float64).view(np.uint64)


@pytest.fixture
def small_mesh():
    return generate_square(1.0, 2)


class TestWriteVtk:
    def test_file_structure(self, tmp_path, small_mesh):
        path = tmp_path / "mesh.vtk"
        eta = np.linspace(0.0, 1.0, 9)
        write_vtk(path, small_mesh, point_data={"eta": eta})
        nodes, cells, types, values = cut(path.read_bytes(), [
            b"# vtk DataFile Version 3.0\nsurface snapshot\nBINARY\n"
            b"DATASET UNSTRUCTURED_GRID\nPOINTS 9 double\n", (">f8", 27),
            b"\nCELLS 8 32\n", (">i4", 32),
            b"\nCELL_TYPES 8\n", (">i4", 8),
            b"\nPOINT_DATA 9\nSCALARS eta double 1\nLOOKUP_TABLE default\n", (">f8", 9),
            b"\n",
        ])
        assert np.array_equal(nodes.reshape(9, 3), small_mesh.nodes)
        # every cell is a triangle record
        assert np.array_equal(cells.reshape(8, 4)[:, 0], np.full(8, 3))
        assert np.array_equal(cells.reshape(8, 4)[:, 1:], small_mesh.triangles)
        assert np.array_equal(types, np.full(8, 5))
        assert np.array_equal(values, eta)

    def test_geometry_round_trip_is_exact(self, tmp_path):
        # every bit comes back, the sign of zero and of NaN included
        mesh = perturbed_icosphere()
        fields = {"eta": awkward_field(mesh.n_nodes, 1), "theta": -awkward_field(mesh.n_nodes, 2)}
        path = tmp_path / "sphere.vtk"
        write_vtk(path, mesh, point_data=fields)
        nodes, triangles, data = read_vtk(path)
        assert np.array_equal(bits(nodes), bits(mesh.nodes))
        assert np.array_equal(triangles, mesh.triangles)
        assert list(data) == ["eta", "theta"]
        for name, values in fields.items():
            assert np.array_equal(bits(data[name]), bits(values))
        # native byte order, as the arrays that were written
        assert nodes.dtype == np.float64 and triangles.dtype == np.int64
        assert data["eta"].dtype == np.float64

    def test_no_point_data_section_when_empty(self, tmp_path, small_mesh):
        path = tmp_path / "bare.vtk"
        write_vtk(path, small_mesh)
        assert b"POINT_DATA" not in path.read_bytes()
        _, _, data = read_vtk(path)
        assert data == {}

    def test_deterministic_bytes(self, tmp_path, small_mesh):
        a, b = tmp_path / "a.vtk", tmp_path / "b.vtk"
        field = {"eta": np.linspace(0.0, 1.0, 9)}
        write_vtk(a, small_mesh, point_data=field)
        write_vtk(b, small_mesh, point_data=field)
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_field_shape_rejected(self, tmp_path, small_mesh):
        with pytest.raises(ValueError, match="eta"):
            write_vtk(tmp_path / "bad.vtk", small_mesh, point_data={"eta": np.zeros(5)})

    def test_fields_must_hold_real_numbers(self, tmp_path, small_mesh):
        # a complex field would lose its imaginary part with only a warning
        path = tmp_path / "bad.vtk"
        for values, kind in ((np.full(9, 1.0 + 2.0j), "complex128"), (["x"] * 9, "<U1")):
            with pytest.raises(ValueError,
                               match=rf"^point_data field 'a' must hold real numbers, got {kind}$"):
                write_vtk(path, small_mesh, point_data={"eta": np.zeros(9), "a": values})
            assert not path.exists()
        # bool and integer fields are real numbers, written as doubles
        fields = {"flag": np.arange(9) % 2 == 0, "small": np.arange(9, dtype=np.uint8)}
        write_vtk(tmp_path / "new.vtk", small_mesh, point_data=fields)
        reference_write_vtk(tmp_path / "ref.vtk", small_mesh, point_data=fields)
        assert_same_bytes(tmp_path / "new.vtk", tmp_path / "ref.vtk")


class TestNamesAndTitles:
    @pytest.mark.parametrize(
        "name", ["", "my field", "eta\n", "\ttheta", "a\u00a0b", "\u03b7eta", "eta\x00", "x\x7f"]
    )
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
        "title",
        ["ASCII run", "ASCII", "DATASET UNSTRUCTURED_GRID POINTS 1", "", "  spaced  ", "\u03b8 run"],
    )
    def test_any_one_line_title_round_trips(self, tmp_path, small_mesh, title):
        path = tmp_path / "mesh.vtk"
        eta = np.linspace(0.0, 1.0, 9)
        write_vtk(path, small_mesh, point_data={"eta": eta}, title=title)
        assert path.read_bytes().split(b"\n")[1] == title.encode()
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
        # the sign of zero, a subnormal, a huge value and a NaN all keep their bits
        special = struct.pack(">5d", -0.0, 0.0, 5e-324, 1e300, np.nan)
        assert special in (tmp_path / "new.vtk").read_bytes()

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
        # one triangle array shared by several meshes, switching meshes and
        # moving nodes over it, gives the reference bytes every time
        sphere, square = perturbed_icosphere(), generate_square(2.0, 3)
        moved = displace_nodes(sphere, np.full(sphere.nodes.shape, 0.5))
        assert moved.triangles is sphere.triangles
        for k, mesh in enumerate([sphere, square, sphere, moved, square]):
            eta = awkward_field(mesh.n_nodes, k)
            write_vtk(tmp_path / f"new{k}.vtk", mesh, point_data={"eta": eta})
            reference_write_vtk(tmp_path / f"ref{k}.vtk", mesh, point_data={"eta": eta})
            assert_same_bytes(tmp_path / f"new{k}.vtk", tmp_path / f"ref{k}.vtk")

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
        assert path.read_bytes().split(b"\n")[1] == b"t = 0.125"
        nodes, triangles, data = read_vtk(path)
        assert np.array_equal(nodes, mesh.nodes)
        assert np.array_equal(data["eta"], fields.eta)
        assert np.array_equal(data["theta"], fields.theta)

    def test_evolved_sphere_snapshot_rebuilds_closed_mesh(self, tmp_path):
        level = 2
        mesh = generate_icosphere(3.0, level)
        params = default_params(B=30.0, C=3.0, rho=2.0, kappa=0.2)
        state = initial_condition(mesh, params, seed=4)
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
    HEAD = b"# vtk DataFile Version 3.0\ntitle\nBINARY\nDATASET UNSTRUCTURED_GRID\n"
    CELLS = b"CELLS 1 4\n" + struct.pack(">4i", 3, 0, 1, 2)
    TYPES = b"CELL_TYPES 1\n" + struct.pack(">i", 5)
    ONE_TRIANGLE = (
        HEAD + b"POINTS 3 double\n" + struct.pack(">9d", 0, 0, 0, 1, 0, 0, 0, 1, 0)
        + b"\n" + CELLS + b"\n" + TYPES + b"\n"
    )
    FIELD = (
        b"POINT_DATA 3\nSCALARS v double 1\nLOOKUP_TABLE default\n"
        + struct.pack(">3d", 1, 2, 3) + b"\n"
    )

    def write(self, tmp_path, data):
        path = tmp_path / "bad.vtk"
        path.write_bytes(data)
        return path

    def test_reference_files_read(self, tmp_path):
        nodes, triangles, data = read_vtk(self.write(tmp_path, self.ONE_TRIANGLE))
        assert np.array_equal(triangles, [[0, 1, 2]]) and data == {}
        _, _, data = read_vtk(self.write(tmp_path, self.ONE_TRIANGLE + self.FIELD))
        assert np.array_equal(data["v"], [1.0, 2.0, 3.0])

    def test_unused_point_is_rejected_by_the_mesh(self, tmp_path):
        # read_vtk returns the arrays as stored; SurfaceMesh checks the connectivity
        points = struct.pack(">12d", 0, 0, 0, 1, 0, 0, 0, 1, 0, 5, 5, 5)
        data = self.HEAD + b"POINTS 4 double\n" + points + b"\n" + self.CELLS + b"\n" + self.TYPES
        nodes, triangles, _ = read_vtk(self.write(tmp_path, data + b"\n"))
        assert len(nodes) == 4 and np.array_equal(triangles, [[0, 1, 2]])
        with pytest.raises(MeshStructureError, match="node 3 belongs to no triangle"):
            SurfaceMesh(nodes, triangles)

    def test_missing_sections(self, tmp_path):
        with pytest.raises(DataError, match="UNSTRUCTURED_GRID"):
            read_vtk(self.write(tmp_path, self.HEAD.replace(b"UNSTRUCTURED_GRID", b"POLYDATA")))
        with pytest.raises(DataError, match="end of file"):
            read_vtk(self.write(tmp_path, self.HEAD))
        with pytest.raises(DataError, match="expected 'CELLS"):
            read_vtk(self.write(tmp_path, self.ONE_TRIANGLE.replace(b"CELLS 1 4", b"CELLZ 1 4")))

    def test_truncated_points(self, tmp_path):
        data = self.HEAD + b"POINTS 4 double\n" + struct.pack(">3d", 0, 0, 0) + b"\n"
        with pytest.raises(DataError, match="truncated POINTS block"):
            read_vtk(self.write(tmp_path, data))

    @pytest.mark.parametrize(
        "anchor, section",
        [(b"POINTS 3 double\n", "POINTS"), (b"CELLS 1 4\n", "CELLS"),
         (b"CELL_TYPES 1\n", "CELL_TYPES"), (b"LOOKUP_TABLE default\n", "field 'v'")],
        ids=["points", "cells", "cell types", "field"],
    )
    def test_truncated_block(self, tmp_path, anchor, section):
        full = self.ONE_TRIANGLE + self.FIELD
        start = full.index(anchor) + len(anchor)
        for end in (start, start + 3, full.index(b"\n", start + 4)):
            with pytest.raises(DataError, match=f"truncated {section} block"):
                read_vtk(self.write(tmp_path, full[:end]))

    def test_every_cut_is_rejected(self, tmp_path):
        # only the whole file and the file without its field are complete
        full = self.ONE_TRIANGLE + self.FIELD
        for end in range(len(full)):
            if end == len(self.ONE_TRIANGLE):
                continue
            with pytest.raises(DataError):
                read_vtk(self.write(tmp_path, full[:end]))

    def test_block_must_end_in_newline(self, tmp_path):
        data = self.ONE_TRIANGLE.replace(self.CELLS + b"\n", self.CELLS + b" ")
        with pytest.raises(DataError, match="CELLS block .* not followed by a newline"):
            read_vtk(self.write(tmp_path, data))

    def test_non_triangle_cells(self, tmp_path):
        quad = (
            self.HEAD + b"POINTS 4 double\n" + struct.pack(">12d", 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0)
            + b"\nCELLS 1 5\n" + struct.pack(">5i", 4, 0, 1, 2, 3) + b"\nCELL_TYPES 1\n"
            + struct.pack(">i", 9) + b"\n"
        )
        with pytest.raises(DataError, match="non-triangle"):
            read_vtk(self.write(tmp_path, quad))
        # a four-entry cell that claims four points is not a triangle either
        data = self.ONE_TRIANGLE.replace(self.CELLS, b"CELLS 1 4\n" + struct.pack(">4i", 4, 0, 1, 2))
        with pytest.raises(DataError, match="non-triangle"):
            read_vtk(self.write(tmp_path, data))

    def test_cell_types_must_be_triangles(self, tmp_path):
        data = self.ONE_TRIANGLE.replace(self.TYPES, b"CELL_TYPES 1\n" + struct.pack(">i", 9))
        with pytest.raises(DataError, match="unsupported cell type"):
            read_vtk(self.write(tmp_path, data))

    def test_point_data_count_must_match_points(self, tmp_path):
        path = tmp_path / "mesh.vtk"
        write_vtk(path, generate_square(1.0, 2), point_data={"eta": np.zeros(9)})
        data = path.read_bytes().replace(b"POINT_DATA 9", b"POINT_DATA 5")
        with pytest.raises(DataError, match="POINT_DATA 5 for 9 POINTS"):
            read_vtk(self.write(tmp_path, data))

    def test_point_data_needs_a_field(self, tmp_path):
        with pytest.raises(DataError, match="end of file"):
            read_vtk(self.write(tmp_path, self.ONE_TRIANGLE + b"POINT_DATA 3\n"))
        data = self.ONE_TRIANGLE + b"POINT_DATA 3\nVECTORS w double\n"
        with pytest.raises(DataError, match="expected 'SCALARS _ double _' .* got 'VECTORS w double'"):
            read_vtk(self.write(tmp_path, data))

    def test_format_is_read_from_line_three(self, tmp_path):
        data = self.ONE_TRIANGLE.replace(b"title\nBINARY\n", b"BINARY\nASCII\n")
        with pytest.raises(DataError, match="expected BINARY on line 3"):
            read_vtk(self.write(tmp_path, data))
        short = b"# vtk DataFile Version 3.0\nBINARY\n"
        with pytest.raises(DataError, match="line 3"):
            read_vtk(self.write(tmp_path, short))

    def test_ascii_file_rejected(self, tmp_path):
        # a one-triangle file in the ASCII form that earlier versions wrote
        ascii_vtk = (
            b"# vtk DataFile Version 3.0\ntitle\nASCII\n"
            b"DATASET UNSTRUCTURED_GRID\nPOINTS 3 double\n"
            b"0.0 0.0 0.0\n1.0 0.0 0.0\n0.0 1.0 0.0\n"
            b"CELLS 1 4\n3 0 1 2\nCELL_TYPES 1\n5\n"
        )
        with pytest.raises(DataError, match="expected BINARY on line 3 .* got 'ASCII'"):
            read_vtk(self.write(tmp_path, ascii_vtk))

    def test_cell_types_count_must_match_cells(self, tmp_path):
        data = self.ONE_TRIANGLE.replace(self.TYPES, b"CELL_TYPES 0\n")
        with pytest.raises(DataError, match="0 CELL_TYPES for 1 CELLS"):
            read_vtk(self.write(tmp_path, data))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (b"POINTS 3", b"POINTS abc", "POINTS count 'abc'"),
            (b"POINTS 3", b"POINTS -1", "POINTS count '-1'"),
            (b"CELLS 1", b"CELLS 1.0", "CELLS count '1.0'"),
            (CELLS, b"CELLS 1 4\n" + struct.pack(">4i", 3, 0, 1, 2**31 - 1),
             r"cell 0 .* outside \[0, 3\)"),
            (CELLS, b"CELLS 1 4\n" + struct.pack(">4i", 3, 0, 1, 7), r"cell 0 .* outside \[0, 3\)"),
            (CELLS, b"CELLS 1 4\n" + struct.pack(">4i", 3, 0, -1, 2), r"cell 0 .* outside \[0, 3\)"),
        ],
        ids=["text count", "negative count", "fractional count", "huge index",
             "index past the end", "negative index"],
    )
    def test_malformed_numbers(self, tmp_path, old, new, message):
        with pytest.raises(DataError, match=message):
            read_vtk(self.write(tmp_path, self.ONE_TRIANGLE.replace(old, new, 1)))

    def test_vector_field_rejected(self, tmp_path):
        vector = (
            b"POINT_DATA 3\nSCALARS v double 3\nLOOKUP_TABLE default\n"
            + struct.pack(">9d", *range(9)) + b"\n"
        )
        with pytest.raises(DataError, match="'v' .* has other than one component"):
            read_vtk(self.write(tmp_path, self.ONE_TRIANGLE + vector))

    def test_field_named_twice_rejected(self, tmp_path):
        # write_vtk takes a dict and cannot write this; a reader that kept the
        # last block would drop the first without a word
        path = tmp_path / "mesh.vtk"
        fields = {"eta": np.zeros(9), "theta": np.ones(9)}
        write_vtk(path, generate_square(1.0, 2), point_data=fields)
        data = path.read_bytes().replace(b"SCALARS theta", b"SCALARS eta")
        with pytest.raises(DataError, match="field 'eta' appears twice"):
            read_vtk(self.write(tmp_path, data))

    def test_trailing_section_rejected(self, tmp_path):
        data = (
            self.ONE_TRIANGLE + self.FIELD
            + b"VECTORS w double\n" + struct.pack(">9d", 1, 0, 0, 0, 1, 0, 0, 0, 1) + b"\n"
        )
        with pytest.raises(DataError, match="90 unexpected bytes after the last section"):
            read_vtk(self.write(tmp_path, data))
