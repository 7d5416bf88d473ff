"""Built-in verification battery: fast analytic oracles for the whole stack.

Each check exercises one layer against a value known in closed form: the
hand-computed element matrices, exact algebraic identities of the assembled
operators, sphere geometry, conservation and no-dilution identities of the
scheme, the exponentially expanding sphere (the one moving-surface problem
with an exact solution), heat decay on the sphere against the spectrum of
the Laplacian, and, in the frozen limit, bitwise agreement of :func:`run`
(which builds the operators once) with a chain of single steps that rebuild
them every step.

The battery runs in seconds at coarse resolution; it is exposed on the
command line as ``esdib verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import DiagnosticsSeries, mass_integral
from .kinetics import KineticsParams, default_params
from .mesh import (
    SurfaceMesh, assemble_lumped_mass, assemble_stiffness, compute_node_normals,
    mesh_quality, surface_area,
)
from .meshgen import generate_icosphere, generate_square
from .stepper import SimState, SolverConfig, initial_condition, run, step


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def pure_diffusion_params(d: float = 20.0, kappa: float = 0.0) -> KineticsParams:
    """Parameters whose reaction terms vanish identically (f = g = 0)."""
    return replace(default_params(0.0, 0.0, kappa=kappa, d=d), A1=0.0, A2=0.0)


def stepwise_frozen_run(state, params, cfg, stride):
    """Reference for a kappa = 0 :func:`run`: a chain of single :func:`step` calls.

    ``step`` still starts a new chain on each call, rebuilding the mass,
    stiffness and both systems (the mesh carries its pattern, which is built
    once), so this compares operators built once with operators rebuilt
    every step.  The diagnostics are recorded by hand
    at the steps ``run`` samples.
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


def _check_element_operators() -> CheckResult:
    mesh = SurfaceMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    mass = assemble_lumped_mass(mesh)
    stiff = assemble_stiffness(mesh).toarray()
    hand_mass = np.full(3, 1.0 / 6.0)
    hand_stiff = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    ok = np.array_equal(mass, hand_mass) and np.array_equal(stiff, hand_stiff)
    return CheckResult(
        "element operators vs hand-computed matrices", ok,
        "unit right triangle: mass diag 1/6, stiffness [[1,-1/2,-1/2],...]",
    )


def _check_stiffness_algebra() -> CheckResult:
    rng = np.random.default_rng(7)
    mesh = generate_square(2.0, 12)
    bumped = SurfaceMesh(
        mesh.nodes + 0.02 * rng.standard_normal(mesh.nodes.shape), mesh.triangles
    )
    stiff = assemble_stiffness(bumped)
    sym = (stiff != stiff.T).nnz == 0
    ones = np.ones(bumped.n_nodes)
    row_sums = np.abs(stiff @ ones)
    row_scale = np.abs(stiff).max(axis=1).toarray().ravel()
    rows_ok = bool((row_sums <= 1e-12 * np.maximum(row_scale, 1e-300)).all())
    probes = rng.standard_normal((5, bumped.n_nodes))
    quad = [float(x @ (stiff @ x)) / float(x @ x) for x in probes]
    psd_ok = min(quad) >= -1e-10
    ok = sym and rows_ok and psd_ok
    return CheckResult(
        "stiffness symmetry, zero row sums, positive semi-definiteness", ok,
        f"max row sum {row_sums.max():.2e}, min Rayleigh quotient {min(quad):.2e}",
    )


def _check_sphere_geometry() -> CheckResult:
    mesh = generate_icosphere(1.0, 4)
    area = surface_area(mesh)
    area_err = abs(area - 4 * math.pi) / (4 * math.pi)
    normals = compute_node_normals(mesh)
    radial = mesh.nodes / np.linalg.norm(mesh.nodes, axis=1)[:, None]
    defect = float((1.0 - np.einsum("ij,ij->i", normals, radial)).max())
    ok = area_err < 5e-3 and defect < 1e-3
    return CheckResult(
        "icosphere area and radial normals", ok,
        f"area error {area_err:.2e}, normal alignment defect {defect:.2e}",
    )


def _check_conservation_and_uniformity() -> CheckResult:
    mesh = generate_icosphere(1.0, 2)
    n = mesh.n_nodes
    params = pure_diffusion_params(kappa=0.2)
    state = SimState(t=0.0, mesh=mesh, eta=np.ones(n), theta=np.full(n, 0.8))
    cfg = SolverConfig(tau=1e-2, T=0.5, cg_tol=1e-12)
    mass0 = assemble_lumped_mass(mesh)
    m0 = mass_integral(mass0, state.theta)
    final, series = run(state, params, cfg, stride=10)
    mass1 = assemble_lumped_mass(final.mesh)
    m1 = mass_integral(mass1, final.theta)
    drift = abs(m1 - m0) / abs(m0)
    spread = float(final.eta.max() - final.eta.min())
    ok = drift <= 1e-8 and spread <= 1e-9 and not series.stopped
    return CheckResult(
        "theta mass conserved and uniform eta undiluted while growing", ok,
        f"relative mass drift {drift:.2e}, eta spread {spread:.2e}",
    )


def _check_expanding_sphere() -> CheckResult:
    mesh = generate_icosphere(1.0, 3)
    n = mesh.n_nodes
    params = pure_diffusion_params(kappa=0.2)
    state = SimState(t=0.0, mesh=mesh, eta=np.ones(n), theta=np.ones(n))
    cfg = SolverConfig(tau=1e-2, T=1.0, cg_tol=1e-12)
    final, _ = run(state, params, cfg)
    radius = float(np.linalg.norm(final.mesh.nodes, axis=1).mean())
    # constant unit eta moves every node at speed kappa: R(t) = 1 + kappa t
    radius_err = abs(radius - 1.2) / 1.2
    theta_mean = float(final.theta.mean())
    # area scales as R^2, so conserved theta dilutes to 1 / R(T)^2
    theta_err = abs(theta_mean - 1.0 / 1.44) * 1.44
    ok = radius_err <= 1e-2 and theta_err <= 2e-2
    return CheckResult(
        "expanding sphere against the exact dilution solution", ok,
        f"radius error {radius_err:.2e}, theta error {theta_err:.2e}",
    )


def _check_heat_decay() -> CheckResult:
    d = 20.0
    mesh = generate_icosphere(1.0, 4)
    params = pure_diffusion_params(d=d)
    z = mesh.nodes[:, 2].copy()
    state = SimState(t=0.0, mesh=mesh, eta=np.zeros(mesh.n_nodes), theta=z)
    cfg = SolverConfig(tau=1e-3, T=0.1, cg_tol=1e-12)
    mass = assemble_lumped_mass(mesh)
    norm_z = mass_integral(mass, z * z)

    times, amplitudes = [], []

    def record(s, m):
        times.append(s.t)
        amplitudes.append(mass_integral(m, s.theta * z) / norm_z)

    run(state, params, cfg, observers=[record], stride=5)
    rate = -np.polyfit(times, np.log(amplitudes), 1)[0]
    # z is the first nontrivial Laplacian eigenfunction on the sphere,
    # eigenvalue 2, so theta = z exp(-2 d t)
    err = abs(rate - 2 * d) / (2 * d)
    ok = err <= 5e-2
    return CheckResult(
        "heat decay rate on the sphere vs eigenvalue 2d", ok,
        f"fitted rate {rate:.3f} vs {2 * d:.1f} ({100 * err:.2f}% off)",
    )


def _check_stationary_equivalence() -> CheckResult:
    mesh = generate_square(5.0, 16)
    params = default_params(30.0, 3.0, rho=2.0, kappa=0.0)
    state = initial_condition(mesh, params, seed=11)
    cfg = SolverConfig(tau=1e-2, T=0.3)
    stride = 5
    final_a, series_a = run(state, params, cfg, stride=stride)
    final_b, series_b = stepwise_frozen_run(state, params, cfg, stride)
    fields_equal = np.array_equal(final_a.eta, final_b.eta) and np.array_equal(
        final_a.theta, final_b.theta
    )
    series_equal = csv_rows(series_a) == csv_rows(series_b)
    ok = fields_equal and series_equal
    return CheckResult(
        "frozen-surface run matches a chain of single steps bit for bit at kappa = 0",
        ok, "identical fields and identical diagnostics samples",
    )


_CHECKS = (
    _check_element_operators,
    _check_stiffness_algebra,
    _check_sphere_geometry,
    _check_conservation_and_uniformity,
    _check_expanding_sphere,
    _check_heat_decay,
    _check_stationary_equivalence,
)


def run_verification() -> list[CheckResult]:
    """Run every check and return the results (never raises on failure)."""
    results = []
    for check in _CHECKS:
        try:
            results.append(check())
        except Exception as e:  # a crash counts as a failed check
            results.append(CheckResult(check.__name__, False, f"raised {e!r}"))
    return results
