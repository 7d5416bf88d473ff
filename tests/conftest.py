import numpy as np
import pytest

from esdib import SurfaceMesh, generate_icosphere, generate_square
from esdib import mesh as esdib_mesh
from esdib.verify import (  # noqa: F401  (the oracle helpers, shared with the tests)
    csv_rows,
    pure_diffusion_params,
    stepwise_frozen_run,
)


@pytest.fixture
def bumpy_square() -> SurfaceMesh:
    """Small flat grid with the interior nodes jiggled out of plane."""
    flat = generate_square(2.0, 10)
    rng = np.random.default_rng(123)
    offset = 0.02 * rng.standard_normal(flat.nodes.shape)
    return SurfaceMesh(flat.nodes + offset, flat.triangles)


@pytest.fixture(params=["perturbed_sheet", "icosphere", "sliver"])
def geometry_mesh(request) -> SurfaceMesh:
    """Meshes on which the cached geometry must match the direct formulas.

    A res-100 sheet with every node jiggled in 3-d, a level-4 icosphere,
    and a small bumpy sheet with one near-degenerate (sliver) triangle.
    """
    rng = np.random.default_rng(7)
    if request.param == "icosphere":
        return generate_icosphere(1.0, 4)
    if request.param == "perturbed_sheet":
        flat = generate_square(10.0, 100)
        offset = 0.02 * rng.standard_normal(flat.nodes.shape)
        return SurfaceMesh(flat.nodes + offset, flat.triangles)
    flat = generate_square(1.0, 6)
    nodes = flat.nodes + 0.01 * rng.standard_normal(flat.nodes.shape)
    a, b, c = flat.triangles[10]
    nodes[c] = 0.5 * (nodes[a] + nodes[b]) + 1e-9
    return SurfaceMesh(nodes, flat.triangles)


def count_geometry_passes(monkeypatch):
    """Count calls of the per-triangle geometry kernel in ``esdib.mesh``."""
    original = esdib_mesh._geometry_pass
    calls = []

    def counted(nodes, triangles):
        calls.append(None)
        return original(nodes, triangles)

    monkeypatch.setattr(esdib_mesh, "_geometry_pass", counted)
    return calls
