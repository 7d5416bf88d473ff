"""Acceptance battery: one test per pinned end-to-end property.

Each criterion is a single test (criterion 8 is parametrised over the six
presets), so a verbose run prints one pass/fail line per criterion.  All
tolerances are stated inline and are part of the contract; none of them are
tuned to the implementation.
"""

import math
import time

import numpy as np
import pytest

from esdib import (
    DomainSpec,
    SimState,
    SolverConfig,
    assemble_lumped_mass,
    assemble_stiffness,
    build_domain,
    default_params,
    displace_nodes,
    initial_condition,
    load_config,
    mass_integral,
    run,
)
from esdib.cli import run_from_config
from esdib.meshgen import generate_icosphere, generate_square

from conftest import csv_rows, pure_diffusion_params, stepwise_frozen_run


def test_criterion_1_stiffness_algebra():
    """Symmetry, zero row sums, and rigid-motion invariance on every domain."""
    start = time.perf_counter()
    rng = np.random.default_rng(123)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    shift = np.array([0.7, -1.3, 2.9])
    meshes = [
        generate_square(1.0, 10),
        generate_square(1.0, 50),
        generate_icosphere(1.0, 2),
        generate_icosphere(1.0, 4),
    ]
    for mesh in meshes:
        K = assemble_stiffness(mesh)
        diff = (K - K.T).tocsr()
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0
        row_sums = np.abs(K @ np.ones(mesh.n_nodes))
        row_max = np.abs(K).max(axis=1).toarray().ravel()
        assert np.all(row_sums <= 1e-12 * row_max)
        moved = displace_nodes(mesh, mesh.nodes @ Q.T + shift - mesh.nodes)
        K2 = assemble_stiffness(moved)
        assert np.max(np.abs(K.data - K2.data)) <= 1e-12 * np.max(np.abs(K.data))
    assert time.perf_counter() - start < 5.0


def test_criterion_2_element_oracle():
    """Single-triangle operators match the closed-form P1 integrals."""
    nodes = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    from esdib import SurfaceMesh

    mesh = SurfaceMesh(nodes, np.array([[0, 1, 2]]))
    K = assemble_stiffness(mesh).toarray()
    expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.max(np.abs(K - expected)) <= 1e-14
    mass = assemble_lumped_mass(mesh)
    assert np.max(np.abs(mass - np.array([1 / 6, 1 / 6, 1 / 6]))) <= 1e-14


def test_criterion_3_theta_mass_conservation():
    """Reaction-free transport conserves the discrete integral of theta while
    the surface moves: relative drift at most 1e-8 over 500 steps."""
    start = time.perf_counter()
    mesh = generate_square(20.0, 32)
    params = pure_diffusion_params(kappa=0.2)
    rng = np.random.default_rng(3)
    eta = 0.3 * rng.uniform(-1.0, 1.0, mesh.n_nodes)
    theta = 0.8 + 0.1 * rng.uniform(-1.0, 1.0, mesh.n_nodes)
    state = SimState(t=0.0, mesh=mesh, eta=eta, theta=theta)
    cfg = SolverConfig(tau=1e-2, T=5.0, cg_tol=1e-12)
    total0 = mass_integral(assemble_lumped_mass(mesh), theta)
    totals = []
    run(
        state, params, cfg,
        observers=[lambda s, m: totals.append(mass_integral(m, s.theta))],
        stride=1,
    )
    drift = max(abs(v - total0) for v in totals) / abs(total0)
    assert drift <= 1e-8
    assert time.perf_counter() - start < 60.0


def test_criterion_4_no_dilution_of_eta():
    """A uniform morphology field rides along with the growing surface:
    after 100 steps it is still uniform and still equal to 1 to 1e-9."""
    mesh = generate_icosphere(1.0, 3)
    params = pure_diffusion_params(kappa=0.2)
    state = SimState(
        t=0.0, mesh=mesh,
        eta=np.ones(mesh.n_nodes), theta=np.full(mesh.n_nodes, 0.5),
    )
    final, _ = run(state, params, SolverConfig(tau=1e-2, T=1.0), stride=10)
    assert np.max(final.eta) - np.min(final.eta) <= 1e-9
    assert np.max(np.abs(final.eta - 1.0)) <= 1e-9


def _expanding_sphere_errors(level: int, tau: float) -> tuple[float, float]:
    mesh = generate_icosphere(1.0, level)
    params = pure_diffusion_params(kappa=0.2)
    state = SimState(
        t=0.0, mesh=mesh,
        eta=np.ones(mesh.n_nodes), theta=np.ones(mesh.n_nodes),
    )
    cfg = SolverConfig(tau=tau, T=1.0, cg_tol=1e-12)
    final, _ = run(state, params, cfg, stride=50)
    mean_radius = float(np.linalg.norm(final.mesh.nodes, axis=1).mean())
    mass = assemble_lumped_mass(final.mesh)
    mean_theta = mass_integral(mass, final.theta) / mass.sum()
    # unit sphere growing at speed kappa: R(1) = 1.2, theta diluted by R^2
    err_radius = abs(mean_radius - 1.2) / 1.2
    err_theta = abs(mean_theta - 1.0 / 1.44) / (1.0 / 1.44)
    return err_radius, err_theta


@pytest.mark.slow
def test_criterion_5_expanding_sphere_oracle():
    """Uniform normal growth reproduces the exact radius and dilution law,
    and refining tau and the mesh together reduces both errors."""
    err_radius, err_theta = _expanding_sphere_errors(level=4, tau=1e-2)
    assert err_radius <= 0.01
    assert err_theta <= 0.02
    finer_radius, finer_theta = _expanding_sphere_errors(level=5, tau=5e-3)
    assert finer_radius < err_radius
    assert finer_theta < err_theta


def test_criterion_6_heat_decay_rate():
    """The first non-trivial Laplace-Beltrami mode on the unit sphere decays
    at rate 2d; the fitted rate must match within 5%."""
    mesh = generate_icosphere(1.0, 4)
    params = pure_diffusion_params(d=20.0, kappa=0.0)
    z = mesh.nodes[:, 2].copy()
    state = SimState(t=0.0, mesh=mesh, eta=np.zeros(mesh.n_nodes), theta=z)
    cfg = SolverConfig(tau=1e-3, T=0.1, cg_tol=1e-12)
    final, _ = run(state, params, cfg, stride=100)
    mass = assemble_lumped_mass(mesh)
    amplitude = mass_integral(mass, final.theta * z) / mass_integral(mass, z * z)
    rate = -math.log(amplitude) / 0.1
    assert abs(rate - 40.0) <= 0.05 * 40.0


def test_criterion_7_stationary_equivalence():
    """With a frozen surface, ``run`` (operators built once) and a chain of
    single steps (operators rebuilt every step) agree bit for bit on the
    same seeded run."""
    mesh = generate_square(10.0, 32)
    params = default_params(B=30.0, C=3.0, rho=2.0, kappa=0.0)
    fields = initial_condition(mesh, params, seed=42)
    cfg = SolverConfig(tau=1e-2, T=1.0)

    def fresh_state():
        return SimState(
            t=0.0, mesh=mesh, eta=fields.eta.copy(), theta=fields.theta.copy()
        )

    final_a, series_a = run(fresh_state(), params, cfg, stride=10)
    final_b, series_b = stepwise_frozen_run(fresh_state(), params, cfg, stride=10)
    assert np.array_equal(final_a.eta, final_b.eta)
    assert np.array_equal(final_a.theta, final_b.theta)
    assert csv_rows(series_a) == csv_rows(series_b)


@pytest.mark.slow
@pytest.mark.parametrize("preset_id", [1, 2, 3, 4, 5, 6])
def test_criterion_8_turing_amplification(preset_id):
    """Every preset amplifies the seeded equilibrium perturbation into a
    visible pattern (std of eta from <= 1e-4 to >= 1e-2) and grows the
    surface monotonically by more than 5% within min(T, 10)."""
    start = time.perf_counter()
    preset = load_config(preset=preset_id)
    resolution = 64 if preset.domain.kind == "square" else 4
    mesh = build_domain(
        DomainSpec(preset.domain.kind, preset.domain.size, resolution)
    )
    params = default_params(B=preset.B, C=preset.C, rho=preset.rho)
    state = initial_condition(mesh, params, seed=42)
    cfg = SolverConfig(tau=1e-2, T=min(preset.solver.T, 10.0))
    final, series = run(state, params, cfg, stride=10)

    stds = series.column("eta_std")
    areas = series.areas
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    assert stds[0] <= 1e-4
    assert stds[-1] >= 1e-2, f"pattern amplitude {stds[-1]:.3e} at t={final.t:.2f}"
    assert np.all(np.diff(areas) > 0.0), "surface area is not strictly increasing"
    ratio = areas[-1] / areas[0]
    assert ratio > 1.05, f"area ratio {ratio:.4f} at t={final.t:.2f}"


def test_criterion_9_determinism(tmp_path):
    """Rerunning a preset with the same seed reproduces the CSV and VTK
    artifacts byte for byte."""
    for preset_id, resolution in ((1, 16), (4, 2)):
        outputs = []
        for tag in ("first", "second"):
            out = tmp_path / f"p{preset_id}-{tag}"
            cfg = load_config(
                preset=preset_id,
                overrides={
                    "domain.resolution": resolution,
                    "solver.T": 0.2,
                    "output.sample_stride": 5,
                    "output.directory": str(out),
                },
            )
            code, _ = run_from_config(cfg)
            assert code == 0
            outputs.append(
                (out / "diagnostics.csv").read_bytes()
                + (out / "final.vtk").read_bytes()
            )
        assert outputs[0] == outputs[1]
