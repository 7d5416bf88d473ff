"""Snapshot export and import: legacy binary VTK unstructured grids, plus OBJ.

The VTK writer emits the legacy format (``# vtk DataFile Version 3.0``) with
``BINARY`` on line 3.  The header and every section line are text; each
section line is followed by one block of big-endian values and a newline:
POINTS and the SCALARS fields (one per nodal field) as ``>f8``, CELLS and
CELL_TYPES as ``>i4``.  A block holds the array's own bits, so re-reading a
file reproduces the arrays exactly and identical states produce
byte-identical files.  ParaView and VisIt read these files.  The reader
accepts exactly what the writer writes, enough for round trips and for
inspecting run artifacts; it does not read ASCII VTK.

OBJ export writes geometry only, as text (``v`` and ``f`` records, 1-based
indices).  Each section is formatted as one block of text from ``.tolist()``
before the file is opened; the bytes are those of a line-by-line writer.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .mesh import SurfaceMesh

_TRIANGLE_CELL_TYPE = 5
_FLOAT = np.dtype(">f8")
_INT = np.dtype(">i4")


def _block(row: str, count: int, values: np.ndarray) -> str:
    """``count`` copies of the %-format ``row``, filled in order from ``values``.

    ``%r`` of a Python float is its ``repr`` and ``%d`` of an int its ``str``,
    so a block holds the same text as one f-string per row.
    """
    return (row * count) % tuple(values.ravel().tolist())


def write_vtk(path, mesh: SurfaceMesh, point_data=None, title="surface snapshot") -> None:
    """Write the mesh and optional nodal scalar fields as legacy binary VTK.

    Parameters
    ----------
    point_data : dict[str, array_like], optional
        Nodal fields, each of length ``n_nodes``, written in dict order.
    title : str
        The header's second line.

    Raises
    ------
    ValueError
        A field name that is empty, holds whitespace or is not printable
        ASCII, or a title that holds a line break: :func:`read_vtk` could
        not read either back.
    DataError
        A field of the wrong shape.
    """
    point_data = {} if point_data is None else point_data
    if "\n" in title or "\r" in title:
        raise ValueError(f"VTK title {title!r} must fit on one line")
    n = mesh.n_nodes
    for name, values in point_data.items():
        if not (name.isascii() and name.isprintable() and name.split() == [name]):
            raise ValueError(f"VTK field name {name!r} must be one word of printable ASCII")
        if np.shape(values) != (n,):
            raise DataError(
                f"field {name!r} has shape {np.shape(values)}, expected ({n},)"
            )
    m = len(mesh.triangles)
    cells = np.empty((m, 4), _INT)
    cells[:, 0] = 3
    cells[:, 1:] = mesh.triangles
    blocks = [
        f"# vtk DataFile Version 3.0\n{title}\nBINARY\n"
        f"DATASET UNSTRUCTURED_GRID\nPOINTS {n} double\n".encode(),
        np.ascontiguousarray(mesh.nodes, _FLOAT), b"\n",
        f"CELLS {m} {4 * m}\n".encode(), cells, b"\n",
        f"CELL_TYPES {m}\n".encode(), np.full(m, _TRIANGLE_CELL_TYPE, _INT), b"\n",
    ]
    if point_data:
        blocks.append(f"POINT_DATA {n}\n".encode())
        for name, values in point_data.items():
            blocks.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n".encode())
            blocks += [np.ascontiguousarray(values, _FLOAT), b"\n"]
    with open(path, "wb") as f:
        f.writelines(blocks)


def export_mesh_snapshot(state, path) -> None:
    """Write a solver state (mesh plus eta and theta fields) as VTK."""
    write_vtk(
        path,
        state.mesh,
        point_data={"eta": state.eta, "theta": state.theta},
        title=f"t = {float(state.t)!r}",
    )


def write_obj(path, mesh: SurfaceMesh) -> None:
    """Write geometry only as Wavefront OBJ (vertices and 1-based faces)."""
    blocks = [
        _block("v %r %r %r\n", mesh.n_nodes, mesh.nodes),
        _block("f %d %d %d\n", mesh.n_triangles, mesh.triangles + 1),
    ]
    with open(path, "w", newline="\n") as f:
        f.writelines(blocks)


def read_vtk(path):
    """Read a legacy binary VTK file written by :func:`write_vtk`.

    Returns
    -------
    (nodes, triangles, point_data)
        Coordinate array, connectivity array, and a dict of nodal fields
        (empty when the file has no POINT_DATA section), in native byte order.

    Raises
    ------
    DataError
        The file is not what :func:`write_vtk` writes (an ASCII file, a
        section out of place, a field of other than one component, a field
        name used twice, anything after the last field), or holds a count
        that is not a whole number, a block cut short, a cell that is not a
        triangle, or a cell index outside ``[0, n_points)``.
    """
    with open(path, "rb") as f:
        data = f.read()
    # the version line and the free-text title come first, the format third
    head = data.split(b"\n", 3)
    fmt = head[2].decode("ascii", "replace").strip() if len(head) > 2 else "<eof>"
    if fmt != "BINARY":
        raise DataError(f"expected BINARY on line 3 of {path}, got {fmt!r}")
    pos = len(data) - len(head[3]) if len(head) > 3 else len(data)

    def line() -> list[str]:
        """The words of the next line, which must end in a newline."""
        nonlocal pos
        end = data.find(b"\n", pos)
        if end < 0:
            raise DataError(f"unexpected end of file in {path}")
        words = data[pos:end].decode("ascii", "replace").split()
        pos = end + 1
        return words

    def expect(*pattern: str | None) -> list[str]:
        """The next line, whose words must match ``pattern`` (None matches any)."""
        words = line()
        if len(words) != len(pattern) or any(
            p is not None and p != w for p, w in zip(pattern, words)
        ):
            want = " ".join(p or "_" for p in pattern)
            raise DataError(f"expected {want!r} in {path}, got {' '.join(words)!r}")
        return words

    def count(word: str, section: str) -> int:
        if not word.isdecimal():
            raise DataError(f"{section} count {word!r} in {path} is not a whole number")
        return int(word)

    def block(size: int, dtype: np.dtype, section: str) -> np.ndarray:
        nonlocal pos
        end = pos + size * dtype.itemsize
        if end >= len(data):
            raise DataError(f"truncated {section} block in {path}")
        if data[end] != ord("\n"):
            raise DataError(f"{section} block in {path} is not followed by a newline")
        values = np.frombuffer(data, dtype, size, pos).astype(dtype.newbyteorder("="))
        pos = end + 1
        return values

    expect("DATASET", "UNSTRUCTURED_GRID")
    n = count(expect("POINTS", None, "double")[1], "POINTS")
    nodes = block(3 * n, _FLOAT, "POINTS").reshape(n, 3)
    cells_line = expect("CELLS", None, None)
    m, size = count(cells_line[1], "CELLS"), count(cells_line[2], "CELLS size")
    if size != 4 * m:
        raise DataError(f"non-triangle cell in {path}: CELLS {m} {size}")
    cells = block(size, _INT, "CELLS").astype(np.int64).reshape(m, 4)
    if not (cells[:, 0] == 3).all():
        raise DataError(f"non-triangle cell in {path}")
    triangles = cells[:, 1:]
    outside = ((triangles < 0) | (triangles >= n)).any(axis=1)
    if outside.any():
        bad = int(np.flatnonzero(outside)[0])
        raise DataError(f"cell {bad} in {path} references a point outside [0, {n})")
    type_count = count(expect("CELL_TYPES", None)[1], "CELL_TYPES")
    if type_count != m:
        raise DataError(f"{type_count} CELL_TYPES for {m} CELLS in {path}")
    if not (block(m, _INT, "CELL_TYPES") == _TRIANGLE_CELL_TYPE).all():
        raise DataError(f"unsupported cell type in {path}")
    point_data: dict[str, np.ndarray] = {}
    if data.startswith(b"POINT_DATA ", pos):
        points = count(expect("POINT_DATA", None)[1], "POINT_DATA")
        if points != n:
            raise DataError(f"POINT_DATA {points} for {n} POINTS in {path}")
        while not point_data or data.startswith(b"SCALARS ", pos):  # one field or more
            _, name, _, components = expect("SCALARS", None, "double", None)
            if components != "1":
                raise DataError(f"field {name!r} in {path} has other than one component")
            if name in point_data:
                raise DataError(f"field {name!r} appears twice in {path}")
            expect("LOOKUP_TABLE", "default")
            point_data[name] = block(n, _FLOAT, f"field {name!r}")
    if pos < len(data):
        raise DataError(f"{len(data) - pos} unexpected bytes after the last section of {path}")
    return nodes, triangles, point_data
