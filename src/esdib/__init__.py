"""Reaction-diffusion electrodeposition patterns on evolving triangulated surfaces.

The package simulates a two-species morphochemical system (a morphology
field eta and a surface coverage theta) on a triangulated surface that grows
along its own normal at a rate proportional to eta.  Spatial discretisation
is lumped P1 surface finite elements; time discretisation is an IMEX Euler
scheme with implicit diffusion on the moved mesh.  The frozen-surface limit
(kappa = 0) reproduces the classic fixed-domain model on flat sheets and
spheres.

Typical use::

    from esdib import (SimState, SolverConfig, default_params, build_domain,
                       DomainSpec, initial_condition, run)

    mesh = build_domain(DomainSpec("sphere", 3.0, 4))
    params = default_params(B=30.0, C=3.0, rho=2.0)
    fields = initial_condition(mesh, params, seed=1)
    state = SimState(t=0.0, mesh=mesh, eta=fields.eta, theta=fields.theta)
    final, series = run(state, params, SolverConfig(tau=1e-2, T=12.0))
"""

from . import errors
from .errors import (
    ConfigError,
    DataError,
    DegenerateGeometryError,
    DegeneracyStop,
    EsdibError,
    MeshStructureError,
    ModeError,
    NumericsError,
    SolverConvergenceError,
)
from .config import (
    PRESETS,
    ExperimentPreset,
    OutputConfig,
    RunConfig,
    dump_config,
    load_config,
)
from .diagnostics import (
    AreaGrowthFit,
    DiagnosticsSample,
    DiagnosticsSeries,
    area_growth_fit,
    increment_norm,
    mass_integral,
    mass_weighted_increment_norm,
)
from .kinetics import (
    FieldPair,
    KineticsParams,
    default_params,
    equilibrium_D,
    eval_f,
    eval_g,
    initial_condition,
)
from .mesh import (
    MeshQuality,
    StiffnessPattern,
    SurfaceMesh,
    assemble_lumped_mass,
    assemble_stiffness,
    compute_node_normals,
    displace_nodes,
    max_aspect_ratio,
    mesh_quality,
    surface_area,
    triangle_areas,
)
from .meshgen import (
    DomainSpec,
    build_domain,
    default_resolution,
    generate_icosphere,
    generate_square,
)
from .stepper import SimState, SolverConfig, run, solve_spd, step
from .vtkio import export_mesh_snapshot, read_vtk, write_obj, write_vtk

__version__ = "0.1.0"

__all__ = [
    "AreaGrowthFit",
    "ConfigError",
    "DataError",
    "DegenerateGeometryError",
    "DegeneracyStop",
    "DiagnosticsSample",
    "DiagnosticsSeries",
    "DomainSpec",
    "EsdibError",
    "ExperimentPreset",
    "FieldPair",
    "KineticsParams",
    "MeshQuality",
    "MeshStructureError",
    "ModeError",
    "NumericsError",
    "OutputConfig",
    "PRESETS",
    "RunConfig",
    "SimState",
    "SolverConfig",
    "SolverConvergenceError",
    "StiffnessPattern",
    "SurfaceMesh",
    "area_growth_fit",
    "assemble_lumped_mass",
    "assemble_stiffness",
    "build_domain",
    "compute_node_normals",
    "default_params",
    "default_resolution",
    "displace_nodes",
    "dump_config",
    "equilibrium_D",
    "errors",
    "eval_f",
    "eval_g",
    "export_mesh_snapshot",
    "generate_icosphere",
    "generate_square",
    "increment_norm",
    "initial_condition",
    "load_config",
    "mass_integral",
    "mass_weighted_increment_norm",
    "max_aspect_ratio",
    "mesh_quality",
    "read_vtk",
    "run",
    "solve_spd",
    "step",
    "surface_area",
    "triangle_areas",
    "write_obj",
    "write_vtk",
    "__version__",
]
