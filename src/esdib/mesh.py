"""Triangulated surfaces whose node positions move while connectivity stays fixed.

The central object is :class:`SurfaceMesh`: a triangle mesh validated once at
construction (integral indices in range, every node in a triangle, consistent
winding, manifoldness, no zero-area triangle) whose triangles and boundary
flags never change afterwards.  Time stepping only moves nodes, so
:func:`displace_nodes` returns a new mesh that shares connectivity, and the
sparse structure built from it, with the old one; nothing built from a mesh's
connectivity checks it again.

All geometric queries (areas, vertex normals, quality metrics, and the lumped
mass and stiffness) read one per-triangle geometry pass: edge vectors, the
edge cross product and edge dot products, vectorised over triangles with
numpy and summed left to right (:func:`_dot`) on every CPU.  The pass works
component-major: each edge is a (3, m) array of contiguous component rows from
one corner gather, and the cross product is written out in components.  It
is computed once per mesh, on first use, and cached on it; node arrays are
read-only and node motion makes a new mesh, so the cache never goes stale.
Only this module knows the pass's layout.

The two finite element operators assembled from the pass are

* the lumped mass matrix, kept as its diagonal array, with entry
  ``sum(area(T) / 3)`` over the triangles incident to each node, and
* the stiffness matrix of the surface Laplacian with per-triangle entries
  ``K_ij = dot(e_i, e_j) / (4 A)`` where ``e_i`` is the edge opposite vertex
  ``i`` (the classic cotangent weights, written via in-plane P1 gradients).

Connectivity never changes, so its sparse structure (:class:`StiffnessPattern`)
belongs to it: :attr:`SurfaceMesh.pattern` builds it on first use, and every
mesh moved from that one shares it as the geometry moves.  Every sum
from triangles to nodes (normals, lumped mass, stiffness values) is one
product with a CSR matrix of ones.  scipy's CSR product adds each row's terms
from 0 in the order they are stored, whatever their column numbers, and every
row stores its terms in triangle order: the sums are deterministic, and the
stiffness is exactly symmetric because mirrored entries read the same dot
products.  The stiffness columns number the dot products dot-major
(``j m + t``, the C order of the (6, m) array) while each row stays stored in
triangle order, so its indices are unsorted and must stay so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .errors import DegenerateGeometryError, MeshStructureError, NumericsError, check_shape


class SurfaceMesh:
    """Oriented triangulated surface embedded in R^3, possibly with boundary.

    Parameters
    ----------
    nodes : array_like of shape (n_nodes, 3)
        Node coordinates, finite floats.
    triangles : array_like of shape (n_triangles, 3)
        Node indices of each triangle, wound counter-clockwise when seen
        from the outward side of the surface.

    Attributes
    ----------
    nodes : ndarray of shape (n_nodes, 3)
        Read-only coordinate array, a copy of the ``nodes`` argument.
    triangles : ndarray of shape (n_triangles, 3)
        Read-only connectivity array, a copy of the ``triangles`` argument.
    boundary_node : ndarray of bool, shape (n_nodes,)
        True for nodes touching an edge used by exactly one triangle.
        Derived from connectivity at construction; empty boundary on a
        closed surface.
    pattern : StiffnessPattern
        Sparse structure of the connectivity, built on first use and shared
        with every mesh moved from this one.

    Raises
    ------
    ValueError
        ``nodes`` or ``triangles`` not of shape ``(any, 3)``.
    MeshStructureError
        No triangles, an index that is not an integer or is out of range, an
        edge traversed twice in the same direction (inconsistent winding or
        duplicated triangle), an edge shared by more than two triangles
        (non-manifold), or a node that belongs to no triangle.
    DegenerateGeometryError
        A triangle with zero area (including repeated vertices).
    NumericsError
        Non-finite coordinates.
    """

    __slots__ = ("nodes", "triangles", "boundary_node", "_geometry", "_pattern")

    def __init__(self, nodes, triangles):
        # copies, so that the arrays frozen below are the mesh's own, never the caller's
        nodes = np.array(nodes, dtype=np.float64, order="C")
        triangles = np.asarray(triangles)
        check_shape("nodes", nodes, (None, 3))
        check_shape("triangles", triangles, (None, 3))
        if triangles.shape[0] == 0:
            raise MeshStructureError("a surface mesh needs at least one triangle")
        if not np.isfinite(nodes).all():
            bad = int(np.flatnonzero(~np.isfinite(nodes).all(axis=1))[0])
            raise NumericsError(f"node {bad} has non-finite coordinates")
        # checked before the cast to int64, which would truncate 1.7 and overflow on
        # 1e30; NaN is not integral, and an infinity is out of range
        if triangles.dtype.kind == "f" and (np.floor(triangles) != triangles).any():
            bad = int(np.flatnonzero((np.floor(triangles) != triangles).any(axis=1))[0])
            raise MeshStructureError(f"triangle {bad} has an index that is not an integer")
        n = nodes.shape[0]
        if triangles.min() < 0 or triangles.max() >= n:
            bad = int(np.flatnonzero(((triangles < 0) | (triangles >= n)).any(axis=1))[0])
            raise MeshStructureError(f"triangle {bad} references a node outside [0, {n})")
        triangles = np.array(triangles, dtype=np.int64, order="C")

        # the squares of twice the areas as the geometry pass computes them, from
        # its e1 = p0 - p2 and e2 = p1 - p0 only
        corners = _corners(nodes, triangles)
        cross = _cross(corners[:, 0] - corners[:, 2], corners[:, 1] - corners[:, 0])
        _reject_zero_area(_dot(cross, cross))

        self.nodes = nodes
        self.triangles = triangles
        self.boundary_node = _boundary_flags(triangles, n)
        self._geometry = None
        self._pattern = None
        for arr in (self.nodes, self.triangles, self.boundary_node):
            arr.setflags(write=False)

    @classmethod
    def _with_nodes(cls, mesh: SurfaceMesh, nodes: np.ndarray, pattern=None) -> SurfaceMesh:
        # fast path for node motion: connectivity already validated, share it and
        # its pattern, built here if need be; a given ``pattern`` replaces it
        out = cls.__new__(cls)
        nodes = np.ascontiguousarray(nodes, dtype=np.float64)
        nodes.setflags(write=False)
        out.nodes = nodes
        out.triangles = mesh.triangles
        out.boundary_node = mesh.boundary_node
        out._geometry = None
        out._pattern = pattern or mesh.pattern
        return out

    @property
    def pattern(self) -> StiffnessPattern:
        if not self._pattern:
            self._pattern = StiffnessPattern(self)
        return self._pattern

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def is_closed(self) -> bool:
        """True when the surface has no boundary edge."""
        return not bool(self.boundary_node.any())

    def __repr__(self) -> str:
        kind = "closed" if self.is_closed() else "open"
        return (
            f"SurfaceMesh({self.n_nodes} nodes, {self.n_triangles} triangles, {kind})"
        )


#: The most nodes whose edge keys int32 holds: keys below ``2 n^2 <= 2**31``.
_INT32_KEY_NODES = 2**15


def _boundary_flags(triangles: np.ndarray, n_nodes: int) -> np.ndarray:
    """Validate node and edge usage and return the boundary-node mask.

    Every node must be in a triangle, each directed edge may appear at most
    once (consistent winding) and each undirected edge at most twice
    (manifold).  Undirected edges used once are boundary edges.

    One sort serves both edge checks: an edge's key is its undirected code
    ``lo * n + hi`` times two, plus one when it runs from ``hi`` to ``lo``.
    Runs of equal ``key >> 1`` are the uses of one undirected edge, and two
    equal neighbouring keys are a directed edge used twice.  With
    ``lo <= hi < n`` every key, and every partial sum on the way to it, is
    below ``2 n^2``.  So the keys are built and sorted as int32 up to
    ``_INT32_KEY_NODES`` nodes, and as int64 above: the same keys either way.
    The keys are made corner by corner, not triangle by triangle; the sort
    leaves the same array whatever order they come in.
    """
    uses = np.bincount(triangles.ravel(), minlength=n_nodes)
    if not uses.all():
        raise MeshStructureError(f"node {int(np.argmin(uses))} belongs to no triangle")
    # corners 0, 1, 2 and 0 again as rows: row k + 1 holds the other end of the
    # edges that leave row k, so both ends of every edge are contiguous views
    dtype = np.int32 if n_nodes <= _INT32_KEY_NODES else np.int64
    ends = np.empty((4, triangles.shape[0]), dtype=dtype)
    ends[:3] = triangles.T
    ends[3] = ends[0]
    u, v = ends[:3].ravel(), ends[1:].ravel()
    keys = (np.minimum(u, v) * n_nodes + np.maximum(u, v)) * 2 + (u > v)
    keys.sort()
    undirected = keys >> 1
    shared = undirected[1:] == undirected[:-1]  # edge i + 1 is edge i, undirected
    if (shared[1:] & shared[:-1]).any():
        raise MeshStructureError("non-manifold edge shared by more than two triangles")
    if (keys[1:] == keys[:-1]).any():
        raise MeshStructureError(
            "inconsistent winding: a directed edge is traversed more than once"
        )
    alone = np.ones(keys.size, dtype=bool)
    alone[1:] &= ~shared
    alone[:-1] &= ~shared
    flags = np.zeros(n_nodes, dtype=bool)
    rim = undirected[alone]
    flags[rim // n_nodes] = True
    flags[rim % n_nodes] = True
    return flags


class _TriangleGeometry:
    """Per-triangle quantities shared by every geometric query on one mesh.

    With ``e_i`` the edge opposite vertex ``i`` (``e0 = p2 - p1``,
    ``e1 = p0 - p2``, ``e2 = p1 - p0``):

    * ``cross``, shape (m, 3): ``e2 x (-e1) = (p1 - p0) x (p2 - p0)``, twice
      the area times the unit normal;
    * ``doubled``, shape (m,): the norm of ``cross``, twice the area;
    * ``dots``, shape (6, m): ``e0.e0, e0.e1, e0.e2, e1.e1, e1.e2, e2.e2``
      by :func:`_dot`; the squared edge lengths are ``e0.e0, e1.e1, e2.e2``.

    All arrays are read-only.
    """

    __slots__ = ("cross", "doubled", "dots")

    def __init__(self, cross, doubled, dots):
        self.cross = cross
        self.doubled = doubled
        self.dots = dots
        for arr in (cross, doubled, dots):
            arr.setflags(write=False)


def _dot(a, b) -> np.ndarray:
    """Dot products of vectors given by their components, summed left to right."""
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]


def _row_norms(v) -> np.ndarray:
    """Norms of vectors given by components, the bits of ``np.linalg.norm``."""
    return np.sqrt(_dot(v, v))


def _corners(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Corners ``[coordinate, corner, triangle]``, contiguous rows, from one gather."""
    return np.take(nodes.T.copy(), triangles.T, axis=1)


def _edges(nodes: np.ndarray, triangles: np.ndarray) -> tuple[np.ndarray, ...]:
    """Edge vectors ``e0, e1, e2``, ``e_i`` opposite vertex ``i``, each of shape (3, m)."""
    p = _corners(nodes, triangles)
    return p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]


def _cross(e1, e2) -> tuple[np.ndarray, ...]:
    """Components of ``e2 x (-e1)``, with the bits of ``np.cross(e2, -e1)``.

    The negation is folded into the order of each subtraction, which IEEE
    rounding makes exact: ``a (-b) - c (-d) = c d - a b``.
    """
    return (
        e2[2] * e1[1] - e2[1] * e1[2],
        e2[0] * e1[2] - e2[2] * e1[0],
        e2[1] * e1[0] - e2[0] * e1[1],
    )


def _geometry_pass(nodes: np.ndarray, triangles: np.ndarray) -> _TriangleGeometry:
    """Compute the per-triangle geometry of ``nodes[triangles]`` in one pass.

    The order keeps the peak memory low: ``cross`` is stacked and its
    components dropped before ``dots`` is written row by row in place.
    """
    e0, e1, e2 = _edges(nodes, triangles)
    components = _cross(e1, e2)
    doubled = _row_norms(components)
    cross = np.stack(components, axis=1)
    del components
    pairs = ((e0, e0), (e0, e1), (e0, e2), (e1, e1), (e1, e2), (e2, e2))
    dots = np.empty((len(pairs), triangles.shape[0]))
    for row, (a, b) in enumerate(pairs):
        dots[row] = _dot(a, b)
    return _TriangleGeometry(cross, doubled, dots)


def _reject_zero_area(areas: np.ndarray) -> None:
    """Name the first triangle whose area is not positive.

    ``areas`` may also be a positive multiple of the areas, or of their
    squares: for ``x >= 0``, ``sqrt(x) <= 0`` exactly when ``x <= 0``, so the
    same triangle is named either way.
    """
    if areas.size and areas.min() <= 0.0:
        bad = int(np.argmin(areas))
        raise DegenerateGeometryError(f"triangle {bad} has zero area")


def _geometry(mesh: SurfaceMesh) -> _TriangleGeometry:
    """The mesh's cached geometry pass, computed on first use."""
    geometry = mesh._geometry
    if geometry is None:
        geometry = _geometry_pass(mesh.nodes, mesh.triangles)
        mesh._geometry = geometry
    return geometry


def triangle_areas(mesh: SurfaceMesh) -> np.ndarray:
    """Areas of all triangles, shape (n_triangles,)."""
    return 0.5 * _geometry(mesh).doubled


def surface_area(mesh: SurfaceMesh) -> float:
    """Total surface area, the sum of all triangle areas."""
    return float(triangle_areas(mesh).sum())


def assemble_lumped_mass(mesh: SurfaceMesh) -> np.ndarray:
    """Lumped mass diagonal: each triangle spreads a third of its area to its nodes.

    Returns the (n_nodes,) diagonal itself, which sums to the surface area
    and is positive at every node, since every node belongs to a triangle.
    """
    areas = triangle_areas(mesh)
    _reject_zero_area(areas)
    return mesh.pattern.incidence @ (areas / 3.0)


#: The row of ``_TriangleGeometry.dots`` in entry ``3 a + b`` of a local block.
_BLOCK_DOT = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5], dtype=np.int32)


class StiffnessPattern:
    """Sparse structure of a mesh's connectivity, built once per connectivity.

    The connectivity was validated when the mesh was built, so nothing here
    checks it.  :attr:`SurfaceMesh.pattern` builds one on first use and
    every mesh moved from that mesh shares it, so a chain of steps, however
    it is driven, builds it once.

    Attributes
    ----------
    indices, indptr : ndarray
        CSR structure shared by every stiffness matrix assembled from it.
    diagonal_slots : ndarray of shape (n_nodes,)
        Position of each (i, i) entry in the data array.
    incidence : csr_matrix of shape (n_nodes, n_triangles)
        Ones where a node belongs to a triangle: ``incidence @ x`` sums a
        per-triangle ``x`` onto the nodes.
    scatter : csr_matrix of shape (nnz, 6 * n_triangles)
        Ones where dot product ``j`` of triangle ``t`` (column ``j m + t``)
        enters a stiffness entry: ``scatter @ x`` sums the dot products over
        4 A, ravelled from their (6, m) array, into the data array.

    Both store each row's entries in triangle order, and scipy's CSR product
    adds a row's terms in storage order, not column order (see the module
    notes).  ``scatter``'s column indices are therefore not sorted within a
    row, and nothing may sort or canonicalise it (``sort_indices``,
    ``sum_duplicates``, a format round trip): that would add the terms in
    dot-major order and change the stiffness bits.  So every array here,
    ``incidence``'s and ``scatter``'s too, is read-only: such a call, or
    ``eliminate_zeros``, raises ``ValueError`` on them or on a matrix sharing them.
    """

    __slots__ = (
        "n_nodes", "nnz", "indices", "indptr", "diagonal_slots", "incidence", "scatter"
    )

    def __init__(self, mesh: SurfaceMesh):
        tri, n_nodes = mesh.triangles, mesh.n_nodes
        m = tri.shape[0]
        # The sorted entry codes ``row * n_nodes + col``, built with one code
        # array alive instead of three and every temporary dropped as soon as
        # it is used.
        codes = np.empty((m, 9), dtype=np.int64)
        for a in range(3):
            row = tri[:, a] * n_nodes
            for b in range(3):
                np.add(row, tri[:, b], out=codes[:, 3 * a + b])
        del row
        codes = codes.ravel()
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        first = np.empty(codes.size, dtype=bool)
        first[:1] = True
        np.not_equal(codes[1:], codes[:-1], out=first[1:])
        unique_codes = codes[first]
        del codes
        scatter_ptr = np.append(np.flatnonzero(first), first.size).astype(np.int32)
        del first
        # Entry 3 a + b of triangle t enters column _BLOCK_DOT[3 a + b] m + t,
        # and the stable sort keeps each code's entries in triangle order.
        cols = (np.arange(m, dtype=np.int32)[:, None] + m * _BLOCK_DOT).ravel()[order]
        del order
        # the transpose of the triangle-by-node matrix, whose conversion to
        # CSR lists each node's triangles in triangle order
        self.incidence = csr_matrix(
            (np.ones(3 * m), tri.ravel(), np.arange(0, 3 * m + 1, 3)), shape=(m, n_nodes)
        ).T.tocsr()
        self.n_nodes = n_nodes
        self.nnz = int(unique_codes.size)
        self.indices = (unique_codes % n_nodes).astype(np.int32)
        rows = np.arange(n_nodes + 1) * n_nodes
        self.indptr = np.searchsorted(unique_codes, rows).astype(np.int32)
        self.diagonal_slots = np.searchsorted(unique_codes, rows[:-1] + np.arange(n_nodes))
        self.scatter = csr_matrix((np.ones(9 * m), cols, scatter_ptr), shape=(self.nnz, 6 * m))
        for arr in (self.indices, self.indptr, self.diagonal_slots):
            arr.setflags(write=False)
        for matrix in (self.incidence, self.scatter):
            for arr in (matrix.data, matrix.indices, matrix.indptr):
                arr.setflags(write=False)


def assemble_stiffness(mesh: SurfaceMesh) -> csr_matrix:
    """Stiffness matrix of the surface Laplacian in CSR form.

    Each row sums to zero up to rounding (the operator annihilates
    constants) and the matrix is symmetric positive semi-definite.  Its data
    are its own; it shares the read-only ``indices`` and ``indptr`` of
    ``mesh.pattern``, so an in-place structural call on it raises ``ValueError``.

    Raises
    ------
    DegenerateGeometryError
        A triangle has zero area (entries would be infinite).
    """
    pattern = mesh.pattern
    geometry = _geometry(mesh)
    doubled = geometry.doubled  # 2 * area
    _reject_zero_area(doubled)
    w = 1.0 / (2.0 * doubled)  # 1 / (4 A)
    data = pattern.scatter @ (geometry.dots * w).ravel()
    return csr_matrix(
        (data, pattern.indices, pattern.indptr),
        shape=(pattern.n_nodes, pattern.n_nodes),
    )


def compute_node_normals(mesh: SurfaceMesh) -> np.ndarray:
    """Outward unit normal at each node, area-weighted over incident triangles.

    The per-triangle contribution is the cross product of two edges (twice
    the area times the unit normal), so larger triangles weigh more.  The
    accumulated vector is normalised per node.

    Returns
    -------
    ndarray of shape (n_nodes, 3)
        Unit normals.

    Raises
    ------
    DegenerateGeometryError
        The accumulated vector of some node vanishes (the incident
        triangles fold over each other).
    """
    accum = mesh.pattern.incidence @ _geometry(mesh).cross
    norms = _row_norms(accum.T)
    if norms.min() == 0.0:
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise DegenerateGeometryError(
            f"node {bad} has a vanishing normal (folded incident triangles)"
        )
    return accum / norms[:, None]


def displace_nodes(mesh: SurfaceMesh, displacement) -> SurfaceMesh:
    """New mesh with ``nodes + displacement``; connectivity, boundary flags and pattern shared.

    Parameters
    ----------
    displacement : array_like of shape (n_nodes, 3)
        Per-node displacement vectors, finite floats.

    Raises
    ------
    ValueError
        A displacement of another shape than ``mesh.nodes``.
    NumericsError
        Displacement contains a non-finite entry (names the first bad node).
    """
    disp = np.asarray(displacement, dtype=np.float64)
    check_shape("displacement", disp, mesh.nodes.shape)
    if not np.isfinite(disp).all():
        bad = int(np.flatnonzero(~np.isfinite(disp).all(axis=1))[0])
        raise NumericsError(f"non-finite displacement at node {bad}")
    return SurfaceMesh._with_nodes(mesh, mesh.nodes + disp)


@dataclass(frozen=True)
class MeshQuality:
    """Worst-case triangle shape metrics that the degeneracy stop and the samples read."""

    min_angle_deg: float
    min_area: float


def mesh_quality(mesh: SurfaceMesh) -> MeshQuality:
    """Minimum interior angle and minimum area.

    Degenerate triangles report a zero angle rather than NaN, so threshold
    checks stay well defined while the mesh collapses.
    """
    geometry = _geometry(mesh)
    min_area = float(0.5 * geometry.doubled.min())
    if not min_area > 0.0:  # a zero or NaN area
        return MeshQuality(min_angle_deg=0.0, min_area=min_area)
    d00, d01, d02, d11, d12, d22 = geometry.dots
    l0, l1, l2 = np.sqrt(d00), np.sqrt(d11), np.sqrt(d22)
    with np.errstate(divide="ignore", invalid="ignore"):
        # angle at vertex i sits between the two edges that are not opposite
        # it; the smallest angle has the largest cosine, as arccos is monotone,
        # so one arccos of the mesh's largest cosine gives the minimum angle
        largest = np.maximum(-d12 / (l1 * l2), -d02 / (l2 * l0))
        largest = np.maximum(largest, -d01 / (l0 * l1))
    min_angle = np.degrees(np.arccos(np.clip(largest.max(), -1.0, 1.0)))
    return MeshQuality(min_angle_deg=float(min_angle), min_area=min_area)


def max_aspect_ratio(mesh: SurfaceMesh) -> float:
    """Largest triangle aspect ratio: longest edge over twice the inradius.

    Scaled so an equilateral triangle scores exactly 1; a degenerate
    triangle scores infinity rather than NaN.
    """
    geometry = _geometry(mesh)
    areas = 0.5 * geometry.doubled
    d00, _, _, d11, _, d22 = geometry.dots
    l0, l1, l2 = np.sqrt(d00), np.sqrt(d11), np.sqrt(d22)
    longest = np.maximum(np.maximum(l0, l1), l2)
    perimeter = (l0 + l1) + l2  # left to right, the order of numpy's row sum
    with np.errstate(divide="ignore", invalid="ignore"):
        aspect = longest * perimeter / (4.0 * np.sqrt(3.0) * areas)
    return float(np.where(areas > 0.0, aspect, np.inf).max())
