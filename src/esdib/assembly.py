"""Lumped P1 finite element operators on a triangulated surface.

Two operators are assembled from the current node positions:

* the lumped mass matrix, diagonal with entry ``sum(area(T) / 3)`` over the
  triangles incident to each node, and
* the stiffness matrix of the surface Laplacian with per-triangle entries
  ``K_ij = dot(e_i, e_j) / (4 A)`` where ``e_i`` is the edge opposite vertex
  ``i`` (the classic cotangent weights, written via in-plane P1 gradients).

Neither gathers the node coordinates itself: both read the areas and edge dot
products of the mesh's cached per-triangle geometry pass (see
:mod:`esdib.mesh`), which on a moved mesh its quality check has already
computed.

Connectivity never changes during a run, so the sparsity pattern is built
once (:class:`StiffnessPattern`) and reused for every reassembly as the
geometry moves.  Values are accumulated with ``np.bincount`` in a fixed
entry order, which makes reassembly deterministic and keeps the matrix
exactly symmetric: the local 3 x 3 blocks are symmetric by construction and
mirrored slots receive their contributions in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .errors import DegenerateGeometryError, MeshStructureError
from .mesh import SurfaceMesh, _geometry, triangle_areas


@dataclass(frozen=True)
class LumpedMass:
    """Diagonal of the lumped mass matrix; ``diag.sum()`` equals the surface area."""

    diag: np.ndarray

    def total(self) -> float:
        return float(self.diag.sum())


def assemble_lumped_mass(mesh: SurfaceMesh) -> LumpedMass:
    """Lumped mass diagonal: each triangle spreads a third of its area to its nodes."""
    areas = triangle_areas(mesh)
    if areas.size and areas.min() <= 0.0:
        bad = int(np.argmin(areas))
        raise DegenerateGeometryError(f"triangle {bad} has zero area")
    thirds = np.repeat(areas / 3.0, 3)
    diag = np.bincount(mesh.triangles.ravel(), weights=thirds, minlength=mesh.n_nodes)
    return LumpedMass(diag=diag)


class StiffnessPattern:
    """Static CSR sparsity of the stiffness matrix for a fixed connectivity.

    Attributes
    ----------
    indices, indptr : ndarray
        CSR structure shared by every matrix assembled from this pattern.
    slot : ndarray of shape (9 * n_triangles,)
        Position in the CSR data array of each per-triangle entry, in the
        fixed order (i,i), (i,j), (i,k), (j,i), ... of the local block.
    diagonal_slots : ndarray of shape (n_nodes,)
        Position of each (i, i) entry in the data array.
    """

    __slots__ = ("n_nodes", "nnz", "indices", "indptr", "slot", "diagonal_slots")

    def __init__(self, triangles: np.ndarray, n_nodes: int):
        tri = np.asarray(triangles, dtype=np.int64)
        rows = tri[:, [0, 0, 0, 1, 1, 1, 2, 2, 2]].ravel()
        cols = tri[:, [0, 1, 2, 0, 1, 2, 0, 1, 2]].ravel()
        codes = rows * n_nodes + cols
        unique_codes, slot = np.unique(codes, return_inverse=True)
        urows = unique_codes // n_nodes
        ucols = unique_codes % n_nodes

        self.n_nodes = int(n_nodes)
        self.nnz = int(unique_codes.size)
        self.indices = ucols.astype(np.int32)
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(urows, minlength=n_nodes))]
        ).astype(np.int32)
        self.slot = slot
        diag = np.searchsorted(unique_codes, np.arange(n_nodes) * (n_nodes + 1))
        ok = (diag < self.nnz) & (
            unique_codes[np.minimum(diag, self.nnz - 1)]
            == np.arange(n_nodes) * (n_nodes + 1)
        )
        if not ok.all():
            bad = int(np.flatnonzero(~ok)[0])
            raise MeshStructureError(f"node {bad} belongs to no triangle")
        self.diagonal_slots = diag


def assemble_stiffness(
    mesh: SurfaceMesh, pattern: StiffnessPattern | None = None
) -> csr_matrix:
    """Stiffness matrix of the surface Laplacian in CSR form.

    Each row sums to zero up to rounding (the operator annihilates
    constants) and the matrix is symmetric positive semi-definite.

    Parameters
    ----------
    pattern : StiffnessPattern, optional
        Precomputed sparsity for this connectivity; built on the fly when
        omitted.

    Raises
    ------
    DegenerateGeometryError
        A triangle has zero area (entries would be infinite).
    """
    if pattern is None:
        pattern = StiffnessPattern(mesh.triangles, mesh.n_nodes)
    geometry = _geometry(mesh)
    doubled = geometry.doubled  # 2 * area
    if doubled.size and doubled.min() <= 0.0:
        bad = int(np.argmin(doubled))
        raise DegenerateGeometryError(f"triangle {bad} has zero area")
    w = 1.0 / (2.0 * doubled)  # 1 / (4 A)
    d00, d01, d02, d11, d12, d22 = geometry.dots * w
    # local block mirrored explicitly so symmetry is exact in floating point
    vals = np.stack([d00, d01, d02, d01, d11, d12, d02, d12, d22], axis=1)
    data = np.bincount(pattern.slot, weights=vals.ravel(), minlength=pattern.nnz)
    return csr_matrix(
        (data, pattern.indices, pattern.indptr),
        shape=(pattern.n_nodes, pattern.n_nodes),
    )
