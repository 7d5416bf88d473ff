"""Snapshot export and import: legacy ASCII VTK unstructured grids, plus OBJ.

The writer emits the venerable text format (`# vtk DataFile Version 3.0`)
with POINTS/CELLS/CELL_TYPES sections and one SCALARS block per nodal field.
Floats are rendered with ``repr`` (shortest round-trip decimal), so re-reading
a file reproduces the arrays exactly and identical states produce
byte-identical files.  The reader handles exactly this subset, enough for
round trips and for inspecting run artifacts.

OBJ export writes geometry only (``v`` and ``f`` records, 1-based indices).

Both writers format each section as one block of text from ``.tolist()``
before the file is opened, then write the blocks with ``writelines``; the
bytes are those of a line-by-line writer.  The ``CELLS``/``CELL_TYPES`` text
depends only on the connectivity, which a run shares as one read-only array
across every step, so the text of the last read-only triangle array written
is kept and reused while the next mesh carries that same array.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .mesh import SurfaceMesh

_TRIANGLE_CELL_TYPE = 5

#: (triangles, text) of the last read-only connectivity written as VTK cells.
_cells_cache: tuple[np.ndarray, str] | None = None


def _block(row: str, count: int, values: np.ndarray) -> str:
    """``count`` copies of the %-format ``row``, filled in order from ``values``.

    ``%r`` of a Python float is its ``repr`` and ``%d`` of an int its ``str``,
    so a block holds the same text as one f-string per row.
    """
    return (row * count) % tuple(values.ravel().tolist())


def _vtk_cells(triangles: np.ndarray) -> str:
    """The CELLS and CELL_TYPES sections for ``triangles``, cached per array."""
    global _cells_cache
    cached = _cells_cache  # one read, so another thread's entry is never half-seen
    if cached is not None and cached[0] is triangles:
        return cached[1]
    m = triangles.shape[0]
    text = (
        f"CELLS {m} {4 * m}\n"
        + _block("3 %d %d %d\n", m, triangles)
        + f"CELL_TYPES {m}\n"
        + f"{_TRIANGLE_CELL_TYPE}\n" * m
    )
    # holding the array keeps its id from being reused; only an array that
    # cannot be written to is sure to still hold the same connectivity later
    if not triangles.flags.writeable:
        _cells_cache = (triangles, text)
    return text


def write_vtk(path, mesh: SurfaceMesh, point_data=None, title="surface snapshot") -> None:
    """Write the mesh and optional nodal scalar fields as legacy ASCII VTK.

    Parameters
    ----------
    point_data : dict[str, array_like], optional
        Nodal fields, each of length ``n_nodes``, written in dict order.
    title : str
        The header's second line.

    Raises
    ------
    ValueError
        A field name that is empty or holds whitespace, or a title that
        holds a line break: :func:`read_vtk` could not read either back.
    DataError
        A field of the wrong shape.
    """
    point_data = {} if point_data is None else point_data
    if "\n" in title or "\r" in title:
        raise ValueError(f"VTK title {title!r} must fit on one line")
    n = mesh.n_nodes
    for name, values in point_data.items():
        if name.split() != [name]:
            raise ValueError(f"VTK field name {name!r} must be one word without whitespace")
        if np.shape(values) != (n,):
            raise DataError(
                f"field {name!r} has shape {np.shape(values)}, expected ({n},)"
            )
    blocks = [
        f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
        f"DATASET UNSTRUCTURED_GRID\nPOINTS {n} double\n",
        _block("%r %r %r\n", n, mesh.nodes),
        _vtk_cells(mesh.triangles),
    ]
    if point_data:
        blocks.append(f"POINT_DATA {n}\n")
        for name, values in point_data.items():
            blocks.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            blocks.append(_block("%r\n", n, np.asarray(values, dtype=np.float64)))
    with open(path, "w", newline="\n") as f:
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
    """Read a legacy ASCII VTK file written by :func:`write_vtk`.

    Returns
    -------
    (nodes, triangles, point_data)
        Coordinate array, connectivity array, and a dict of nodal fields
        (empty when the file has no POINT_DATA section).

    Raises
    ------
    DataError
        The file is not in the supported subset of the format, or holds a
        count that is not a whole number, a value that is not a number, or
        a cell index outside ``[0, n_points)``.
    """
    with open(path) as f:
        lines = f.read().split("\n", 3)
    # the version line and the free-text title come first, the format third
    fmt = lines[2].strip() if len(lines) > 2 else "<eof>"
    if fmt.upper() != "ASCII":
        raise DataError(f"expected ASCII on line 3 of {path}, got {fmt!r}")
    tokens = lines[3].split() if len(lines) > 3 else []
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

    def take_count(section: str) -> int:
        word = take(1)[0]
        if not word.isdecimal():
            raise DataError(f"{section} count {word!r} in {path} is not a whole number")
        return int(word)

    def take_numbers(count: int, dtype) -> np.ndarray:
        words = take(count)
        try:
            return np.array(words, dtype=dtype)
        except (ValueError, OverflowError):
            raise DataError(f"non-numeric or out-of-range value in {path}") from None

    expect("DATASET")
    expect("UNSTRUCTURED_GRID")
    expect("POINTS")
    n = take_count("POINTS")
    take(1)  # dtype
    nodes = take_numbers(3 * n, np.float64).reshape(n, 3)
    expect("CELLS")
    m = take_count("CELLS")
    take(1)  # total index count
    cells = take_numbers(4 * m, np.int64).reshape(m, 4)
    if not (cells[:, 0] == 3).all():
        raise DataError(f"non-triangle cell in {path}")
    triangles = cells[:, 1:]
    outside = ((triangles < 0) | (triangles >= n)).any(axis=1)
    if outside.any():
        bad = int(np.flatnonzero(outside)[0])
        raise DataError(f"cell {bad} in {path} references a point outside [0, {n})")
    expect("CELL_TYPES")
    type_count = take_count("CELL_TYPES")
    if type_count != m:
        raise DataError(f"{type_count} CELL_TYPES for {m} CELLS in {path}")
    types = take_numbers(type_count, np.int64)
    if not (types == _TRIANGLE_CELL_TYPE).all():
        raise DataError(f"unsupported cell type in {path}")
    point_data: dict[str, np.ndarray] = {}
    if pos < len(tokens) and tokens[pos].upper() == "POINT_DATA":
        pos += 1
        count = take_count("POINT_DATA")
        if count != n:
            raise DataError(f"POINT_DATA {count} for {n} POINTS in {path}")
        while pos < len(tokens) and tokens[pos].upper() == "SCALARS":
            pos += 1
            name = take(1)[0]
            take(2)  # dtype and component count
            expect("LOOKUP_TABLE")
            take(1)  # table name
            point_data[name] = take_numbers(count, np.float64)
    return nodes, triangles, point_data
