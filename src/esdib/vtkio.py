"""Snapshot export and import: legacy ASCII VTK unstructured grids, plus OBJ.

The writer emits the venerable text format (`# vtk DataFile Version 3.0`)
with POINTS/CELLS/CELL_TYPES sections and one SCALARS block per nodal field.
Floats are rendered with ``repr`` (shortest round-trip decimal), so re-reading
a file reproduces the arrays exactly and identical states produce
byte-identical files.  The reader handles exactly this subset, enough for
round trips and for inspecting run artifacts.

OBJ export writes geometry only (``v`` and ``f`` records, 1-based indices).
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .mesh import SurfaceMesh

_TRIANGLE_CELL_TYPE = 5


def _fmt(x: float) -> str:
    return repr(float(x))


def write_vtk(path, mesh: SurfaceMesh, point_data=None, title="surface snapshot") -> None:
    """Write the mesh and optional nodal scalar fields as legacy ASCII VTK.

    Parameters
    ----------
    point_data : dict[str, array_like], optional
        Nodal fields, each of length ``n_nodes``, written in dict order.
    """
    point_data = {} if point_data is None else point_data
    n, m = mesh.n_nodes, mesh.n_triangles
    for name, values in point_data.items():
        if np.shape(values) != (n,):
            raise DataError(
                f"field {name!r} has shape {np.shape(values)}, expected ({n},)"
            )
    with open(path, "w", newline="\n") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write(f"{title}\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {n} double\n")
        for p in mesh.nodes:
            f.write(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}\n")
        f.write(f"CELLS {m} {4 * m}\n")
        for tri in mesh.triangles:
            f.write(f"3 {tri[0]} {tri[1]} {tri[2]}\n")
        f.write(f"CELL_TYPES {m}\n")
        for _ in range(m):
            f.write(f"{_TRIANGLE_CELL_TYPE}\n")
        if point_data:
            f.write(f"POINT_DATA {n}\n")
            for name, values in point_data.items():
                f.write(f"SCALARS {name} double 1\n")
                f.write("LOOKUP_TABLE default\n")
                for v in np.asarray(values, dtype=np.float64):
                    f.write(f"{_fmt(v)}\n")


def export_mesh_snapshot(state, path) -> None:
    """Write a solver state (mesh plus eta and theta fields) as VTK."""
    write_vtk(
        path,
        state.mesh,
        point_data={"eta": state.eta, "theta": state.theta},
        title=f"t = {_fmt(state.t)}",
    )


def write_obj(path, mesh: SurfaceMesh) -> None:
    """Write geometry only as Wavefront OBJ (vertices and 1-based faces)."""
    with open(path, "w", newline="\n") as f:
        for p in mesh.nodes:
            f.write(f"v {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}\n")
        for tri in mesh.triangles:
            f.write(f"f {tri[0] + 1} {tri[1] + 1} {tri[2] + 1}\n")


def read_vtk(path):
    """Read a legacy ASCII VTK file written by :func:`write_vtk`.

    Returns
    -------
    (nodes, triangles, point_data)
        Coordinate array, connectivity array, and a dict of nodal fields
        (empty when the file has no POINT_DATA section).

    Raises
    ------
    DataError
        The file is not in the supported subset of the format.
    """
    with open(path) as f:
        tokens = f.read().split()
    pos = 0

    def expect(word: str):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos].upper() != word:
            got = tokens[pos] if pos < len(tokens) else "<eof>"
            raise DataError(f"expected {word} in {path}, got {got!r}")
        pos += 1

    def take(count: int) -> list[str]:
        nonlocal pos
        if pos + count > len(tokens):
            raise DataError(f"unexpected end of file in {path}")
        out = tokens[pos : pos + count]
        pos += count
        return out

    # header: '# vtk DataFile Version x.x' then title line then ASCII
    while pos < len(tokens) and tokens[pos].upper() != "ASCII":
        pos += 1
    expect("ASCII")
    expect("DATASET")
    expect("UNSTRUCTURED_GRID")
    expect("POINTS")
    n = int(take(1)[0])
    take(1)  # dtype
    nodes = np.array(take(3 * n), dtype=np.float64).reshape(n, 3)
    expect("CELLS")
    m = int(take(1)[0])
    take(1)  # total index count
    cells = np.array(take(4 * m), dtype=np.int64).reshape(m, 4)
    if not (cells[:, 0] == 3).all():
        raise DataError(f"non-triangle cell in {path}")
    triangles = cells[:, 1:]
    expect("CELL_TYPES")
    type_count = int(take(1)[0])
    if type_count != m:
        raise DataError(f"{type_count} CELL_TYPES for {m} CELLS in {path}")
    types = np.array(take(type_count), dtype=np.int64)
    if not (types == _TRIANGLE_CELL_TYPE).all():
        raise DataError(f"unsupported cell type in {path}")
    point_data: dict[str, np.ndarray] = {}
    if pos < len(tokens) and tokens[pos].upper() == "POINT_DATA":
        pos += 1
        count = int(take(1)[0])
        if count != n:
            raise DataError(f"POINT_DATA {count} for {n} POINTS in {path}")
        while pos < len(tokens) and tokens[pos].upper() == "SCALARS":
            pos += 1
            name = take(1)[0]
            take(2)  # dtype and component count
            expect("LOOKUP_TABLE")
            take(1)  # table name
            point_data[name] = np.array(take(count), dtype=np.float64)
    return nodes, triangles, point_data
