"""Generators for the initial computational domains.

Two families cover the supported experiments: a flat square sheet in the
z = 0 plane (structured right-triangle grid, boundary on the perimeter) and
an icosphere (recursively subdivided icosahedron projected onto the sphere,
closed surface).  Both produce consistently wound meshes with outward
normals: +z for the sheet, radial for the sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_count, check_real
from .mesh import SurfaceMesh

#: target edge length used when a resolution is not given explicitly
_DEFAULT_EDGE = 0.2

# icosahedron with outward counter-clockwise faces; vertices on circumscribed
# sphere of radius sqrt(1 + phi^2) before normalisation
_PHI = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array(
    [
        (-1.0, _PHI, 0.0),
        (1.0, _PHI, 0.0),
        (-1.0, -_PHI, 0.0),
        (1.0, -_PHI, 0.0),
        (0.0, -1.0, _PHI),
        (0.0, 1.0, _PHI),
        (0.0, -1.0, -_PHI),
        (0.0, 1.0, -_PHI),
        (_PHI, 0.0, -1.0),
        (_PHI, 0.0, 1.0),
        (-_PHI, 0.0, -1.0),
        (-_PHI, 0.0, 1.0),
    ]
)
_ICO_FACES = np.array(
    [
        (0, 11, 5),
        (0, 5, 1),
        (0, 1, 7),
        (0, 7, 10),
        (0, 10, 11),
        (1, 5, 9),
        (5, 11, 4),
        (11, 10, 2),
        (10, 7, 6),
        (7, 1, 8),
        (3, 9, 4),
        (3, 4, 2),
        (3, 2, 6),
        (3, 6, 8),
        (3, 8, 9),
        (4, 9, 5),
        (2, 4, 11),
        (6, 2, 10),
        (8, 6, 7),
        (9, 8, 1),
    ],
    dtype=np.int64,
)


@dataclass(frozen=True)
class DomainSpec:
    """Shape, size, and resolution of an initial domain.

    ``kind`` is ``"square"`` (``size`` = edge length, ``resolution`` = grid
    divisions per edge) or ``"sphere"`` (``size`` = radius, ``resolution`` =
    icosphere subdivision level).  ``resolution=None`` is the finest whose edge
    length stays near ``_DEFAULT_EDGE``.  An unknown kind, a size that is not
    positive and finite, a size so large that its default resolution is not
    finite, or a resolution that is not an integer >= 1 raises ``ValueError``.
    """

    kind: str
    size: float
    resolution: int | None = None

    def __post_init__(self):
        if self.kind not in ("square", "sphere"):
            raise ValueError(f"kind must be square or sphere, got {self.kind!r}")
        check_real("size", self.size, positive=True)
        if self.resolution is None:
            try:  # rounding an infinite target to an integer overflows
                if self.kind == "square":
                    resolution = max(1, round(self.size / _DEFAULT_EDGE))
                else:  # unit icosphere edge at level l is about 1.0515 / 2**l
                    resolution = max(1, math.ceil(math.log2(1.0515 * self.size / _DEFAULT_EDGE)))
            except OverflowError:
                raise ValueError(
                    f"size must leave a finite default resolution, got {self.size}"
                ) from None
            object.__setattr__(self, "resolution", resolution)
        check_count("resolution", self.resolution, 1)


def build_domain(spec: DomainSpec) -> SurfaceMesh:
    """Construct the mesh described by ``spec``."""
    if spec.kind == "square":
        return generate_square(spec.size, spec.resolution)
    return generate_icosphere(spec.size, spec.resolution)


def generate_square(L: float, n: int) -> SurfaceMesh:
    """Structured triangulation of the square [0, L] x [0, L] at z = 0.

    Each of the n x n grid cells is split along its diagonal into two right
    triangles, giving (n+1)^2 nodes and 2 n^2 triangles wound so normals
    point along +z.  The 4 n perimeter nodes form the boundary.  An edge ``L``
    that is not positive and finite, or an ``n`` that is not an integer >= 1,
    raises ``ValueError``.

    Node ``j (n+1) + i`` sits at ``(i, j)`` on the grid of ticks
    ``linspace(0, L, n+1)``.  Triangle ``j n + i`` is cell ``(i, j)``'s lower
    triangle ``(v00, v10, v11)``, and triangle ``n^2 + j n + i`` its upper
    triangle ``(v00, v11, v01)``.  Both arrays are written in place, one
    column or one corner at a time.
    """
    check_real("L", L, positive=True)
    check_count("n", n, 1)
    ticks = np.linspace(0.0, L, n + 1)
    nodes = np.zeros(((n + 1) * (n + 1), 3))
    grid = nodes.reshape(n + 1, n + 1, 3)  # [j, i, coordinate], a view
    grid[:, :, 0] = ticks
    grid[:, :, 1] = ticks[:, None]
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()  # cell j n + i
    triangles = np.empty((2, n * n, 3), dtype=np.int64)  # [lower or upper, cell, corner]
    triangles[:, :, 0] = v00
    triangles[0, :, 1] = v00 + 1
    triangles[0, :, 2] = v00 + (n + 2)
    triangles[1, :, 1] = triangles[0, :, 2]
    triangles[1, :, 2] = v00 + (n + 1)
    return SurfaceMesh(nodes, triangles.reshape(2 * n * n, 3))


def generate_icosphere(R: float, level: int) -> SurfaceMesh:
    """Icosphere of radius ``R`` centred at the origin.

    Starts from the regular icosahedron and applies ``level`` rounds of
    midpoint subdivision, projecting every new vertex back onto the sphere.
    Vertex and face counts are 10 * 4**level + 2 and 20 * 4**level; shared
    edge midpoints are deduplicated so the surface stays closed.  A radius
    ``R`` that is not positive and finite, or a ``level`` that is not an
    integer >= 0, raises ``ValueError``.

    The 12 icosahedron vertices come first.  Each round keeps every node and
    appends its edge midpoints in ascending undirected code ``lo * n + hi``,
    with ``n`` the node count before the round.  Parent face ``k = (a, b, c)``
    gives faces ``(a, ab, ca)``, ``(b, bc, ab)``, ``(c, ca, bc)`` and
    ``(ab, bc, ca)``, as four blocks of ``m`` faces: ``k``, ``m + k``,
    ``2 m + k`` and ``3 m + k``.  The seeded initial state and every artifact
    depend on this order.
    """
    check_real("R", R, positive=True)
    check_count("level", level, 0)
    nodes = _ICO_VERTS * (R / np.linalg.norm(_ICO_VERTS[0]))
    faces = _ICO_FACES
    for _ in range(level):
        nodes, faces = _subdivide_on_sphere(nodes, faces, R)
    return SurfaceMesh(nodes, faces)


def _subdivide_on_sphere(nodes, faces, radius):
    """One round of midpoint subdivision with projection to the sphere.

    The ``n`` old nodes keep their places.  Each undirected edge ``(lo, hi)``
    gets one midpoint, and the midpoints follow in ascending code
    ``lo * n + hi``.  Parent face ``k = (a, b, c)`` with midpoints ``ab``,
    ``bc`` and ``ca`` gives faces ``k``, ``m + k``, ``2 m + k`` and
    ``3 m + k``: ``(a, ab, ca)``, ``(b, bc, ab)``, ``(c, ca, bc)`` and
    ``(ab, bc, ca)``.

    A midpoint is ``0.5 * (p_lo + p_hi)`` times ``radius`` over its norm, and
    the norm sums ``x x + y y + z z`` in that order, as ``norm(axis=1)``
    does.  One unstable sort ranks the edge codes: tied codes share a
    midpoint, so their order in the sort changes no index.
    """
    n, m = nodes.shape[0], faces.shape[0]
    # corners 0, 1, 2 and 0 again as rows: rows 0-2 and rows 1-3 are the two
    # ends of edges ab, bc and ca, one block of m edges each
    ends = np.empty((4, m), dtype=np.int64)
    ends[:3] = faces.T
    ends[3] = ends[0]
    u, v = ends[:3].ravel(), ends[1:].ravel()
    codes = np.minimum(u, v) * n + np.maximum(u, v)
    order = codes.argsort()
    ranked = codes[order]
    first = np.empty(ranked.size, dtype=bool)  # first use of each edge
    first[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    mid = np.empty(3 * m, dtype=np.int64)  # node index of each edge's midpoint
    mid[order] = np.cumsum(first) + (n - 1)
    mid = mid.reshape(3, m)  # rows ab, bc and ca

    unique = ranked[first]
    lo = unique // n
    out = np.empty((n + unique.size, 3))
    out[:n] = nodes
    mids = out[n:]
    np.take(nodes, lo, axis=0, out=mids)
    mids += np.take(nodes, unique - lo * n, axis=0)
    mids *= 0.5
    sq = mids * mids
    norm = np.sqrt((sq[:, 0] + sq[:, 1]) + sq[:, 2])
    mids *= (radius / norm)[:, None]

    new_faces = np.empty((4, m, 3), dtype=np.int64)  # [block, parent face, corner]
    new_faces[:3, :, 0] = faces.T
    new_faces[:3, :, 1] = mid
    new_faces[0, :, 2] = mid[2]
    new_faces[1:3, :, 2] = mid[:2]
    new_faces[3] = mid.T
    return out, new_faces.reshape(4 * m, 3)
