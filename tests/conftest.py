import numpy as np
import pytest

from esdib import (
    DiagnosticsSeries,
    KineticsParams,
    SurfaceMesh,
    assemble_lumped_mass,
    generate_icosphere,
    generate_square,
    mesh_quality,
    step,
)
from esdib import mesh as esdib_mesh


def pure_diffusion_params(d: float = 20.0, kappa: float = 0.0) -> KineticsParams:
    """Parameters whose reaction terms vanish identically (f = g = 0)."""
    return KineticsParams(
        A1=0.0, A2=0.0, B=0.0, C=0.0, D=0.0, alpha=0.5, gamma=0.2,
        k2=2.5, k3=1.5, d=d, rho=1.0, kappa=kappa,
    )


def stepwise_frozen_run(state, params, cfg, stride):
    """Reference for a kappa = 0 ``run``: a chain of single ``step`` calls.

    Each step rebuilds the pattern, mass, stiffness and both systems; the
    diagnostics are recorded by hand at the steps ``run`` samples.
    """
    series = DiagnosticsSeries(evolving=False)

    def record(s):
        series.record(s, assemble_lumped_mass(s.mesh), mesh_quality(s.mesh))

    record(state)
    for k in range(1, cfg.n_steps + 1):
        state = step(state, params, cfg)
        if k % stride == 0 or k == cfg.n_steps:
            record(state)
    return state, series


def csv_rows(series):
    """Samples as their CSV cells; ``repr`` makes nan compare equal to nan."""
    return [[repr(v) for v in s.__dict__.values()] for s in series.samples]


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
