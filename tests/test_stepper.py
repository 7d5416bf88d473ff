"""Linear solver, single steps, and full runs of the time integrator."""

import dataclasses
import gc
import math

import numpy as np
import pytest
import scipy.sparse as sp

from esdib import (
    DegeneracyStop,
    MeshQuality,
    NumericsError,
    SimState,
    SolverConfig,
    SolverConvergenceError,
    StiffnessPattern,
    assemble_lumped_mass,
    assemble_stiffness,
    build_domain,
    default_params,
    initial_condition,
    load_config,
    run,
    solve_spd,
    step,
    surface_area,
)
from esdib import stepper
from esdib.mesh import _TriangleGeometry, mesh_quality, triangle_areas
from esdib.meshgen import generate_icosphere, generate_square

from conftest import (
    count_geometry_passes,
    csv_rows,
    pure_diffusion_params,
    stepwise_frozen_run,
)


def count_calls(monkeypatch, name):
    """Wrap ``esdib.stepper.<name>`` so that calls to it are counted."""
    original = getattr(stepper, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(stepper, name, counted)
    return calls


def count_pattern_builds(monkeypatch):
    """Record every :class:`StiffnessPattern` built, by whatever name it is called."""
    original = StiffnessPattern.__init__
    built = []

    def counted(self, mesh):
        built.append(self)
        original(self, mesh)

    monkeypatch.setattr(StiffnessPattern, "__init__", counted)
    return built


def make_state(mesh, eta, theta, t=0.0):
    return SimState(t=t, mesh=mesh, eta=np.asarray(eta, float),
                    theta=np.asarray(theta, float))


def allocating_pcg(A, rhs, tol, x0=None, guess=None):
    """The conjugate-gradient loop written with allocating updates, as a reference.

    Returns the solution and the iteration count.
    """
    bnorm = np.linalg.norm(rhs)
    x = np.zeros_like(rhs) if x0 is None else x0.copy()
    r = rhs - A @ x
    rnorm = np.linalg.norm(r)
    if guess is not None and rnorm > tol * bnorm:
        r_alt = rhs - A @ guess
        if np.linalg.norm(r_alt) < rnorm:
            x, r, rnorm = guess.copy(), r_alt, np.linalg.norm(r_alt)
    if rnorm <= tol * bnorm:
        return x, 0
    diag = A.diagonal()
    z = r / diag
    p = z.copy()
    rz = float(np.dot(r, z))
    for iteration in range(1, 1000):
        Ap = A @ p
        alpha = rz / float(np.dot(p, Ap))
        x = x + alpha * p
        r = r - alpha * Ap
        if float(np.linalg.norm(r)) <= tol * bnorm:
            return x, iteration
        z = r / diag
        rz_next = float(np.dot(r, z))
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise AssertionError("reference loop did not converge")


class TestSolveSpd:
    def test_in_place_loop_matches_allocating_loop_bitwise(self):
        rng = np.random.default_rng(16)
        for trial in range(6):
            n = int(rng.integers(20, 120))
            R = sp.random(n, n, density=0.08, random_state=trial)
            A = (R @ R.T + sp.diags(rng.uniform(0.5, 3.0, n))).tocsr()
            exact = rng.standard_normal(n)
            rhs = A @ exact
            x0 = exact + rng.standard_normal(n)
            guess = exact + 1e-3 * rng.standard_normal(n)
            for tol in (1e-6, 1e-12):
                for start in ({"x0": x0}, {"guess": guess}, {"x0": x0, "guess": guess},
                              {"x0": guess, "guess": x0}):
                    iterations = []
                    x = solve_spd(A, rhs, tol=tol, callback=iterations.append, **start)
                    expected, count = allocating_pcg(A, rhs, tol, **start)
                    assert count > 0
                    assert len(iterations) == count
                    assert np.array_equal(x, expected)

    def test_diagonal_system_exact_in_one_iteration(self):
        diag = np.array([2.0, 3.0, 4.0, 5.0, 0.5])
        A = sp.diags(diag).tocsr()
        rhs = np.array([1.0, -2.0, 3.0, 0.25, 8.0])
        iterations = []
        x = solve_spd(A, rhs, tol=1e-12, callback=lambda xk: iterations.append(1))
        assert len(iterations) == 1
        assert np.array_equal(x, rhs / diag)

    def test_random_spd_matches_dense_solve(self):
        rng = np.random.default_rng(0)
        n = 50
        R = rng.standard_normal((n, n))
        A_dense = R.T @ R + n * np.eye(n)
        rhs = rng.standard_normal(n)
        x = solve_spd(sp.csr_matrix(A_dense), rhs, tol=1e-14)
        expected = np.linalg.solve(A_dense, rhs)
        assert np.max(np.abs(x - expected)) <= 1e-8 * np.max(np.abs(expected))

    def test_zero_rhs_returns_zero(self):
        A = sp.identity(10, format="csr")
        x = solve_spd(A, np.zeros(10))
        assert np.all(x == 0.0)

    def test_satisfied_warm_start_returned_unchanged(self):
        diag = np.array([2.0, 4.0, 8.0])
        A = sp.diags(diag).tocsr()
        rhs = np.array([1.0, 1.0, 1.0])
        x0 = rhs / diag
        x = solve_spd(A, rhs, tol=1e-10, x0=x0)
        assert np.array_equal(x, x0)

    def test_satisfied_warm_start_beats_far_off_guess(self):
        diag = np.array([2.0, 4.0, 8.0])
        A = sp.diags(diag).tocsr()
        rhs = np.array([1.0, 1.0, 1.0])
        x0 = rhs / diag
        iterations = []
        x = solve_spd(A, rhs, tol=1e-10, x0=x0, guess=np.full(3, 1e6),
                      callback=lambda xk: iterations.append(1))
        assert np.array_equal(x, x0)
        assert x is not x0
        assert iterations == []

    def test_start_with_the_smaller_residual(self):
        n = 60
        main = 2.5 * np.ones(n)
        off = -1.0 * np.ones(n - 1)
        A = sp.diags([off, main, off], [-1, 0, 1]).tocsr()
        rng = np.random.default_rng(5)
        exact = rng.standard_normal(n)
        rhs = A @ exact
        near = exact + 1e-6 * rng.standard_normal(n)
        far = exact + 10.0 * rng.standard_normal(n)

        def solve(**kwargs):
            iterations = []
            x = solve_spd(A, rhs, tol=1e-12, callback=lambda xk: iterations.append(1), **kwargs)
            return x, len(iterations)

        from_far, far_iters = solve(x0=far)
        from_near, near_iters = solve(x0=near)
        # a better guess replaces the start, and its residual check is no iteration
        assert np.array_equal(solve(x0=far, guess=near)[0], from_near)
        assert solve(x0=far, guess=near)[1] == near_iters < far_iters
        # a worse guess is ignored, so the start is never worse than x0
        assert np.array_equal(solve(x0=near, guess=far)[0], from_near)
        assert solve(x0=near, guess=far)[1] == near_iters
        assert np.array_equal(solve(guess=near)[0], from_near)
        # the guess is not written to
        kept = near.copy()
        solve(x0=far, guess=near)
        assert np.array_equal(near, kept)

    def test_given_diagonal_changes_no_bits(self):
        rng = np.random.default_rng(2)
        n = 40
        R = sp.random(n, n, density=0.1, random_state=3)
        A = (R @ R.T + sp.identity(n) * n).tocsr()
        rhs = rng.standard_normal(n)
        x0 = rng.standard_normal(n)
        plain = solve_spd(A, rhs, tol=1e-12, x0=x0)
        given = solve_spd(A, rhs, tol=1e-12, x0=x0, diag=A.diagonal().copy())
        assert np.array_equal(plain, given)

    def test_maxiter_exhaustion_reports_residual(self):
        n = 100
        main = 2.0 * np.ones(n)
        off = -1.0 * np.ones(n - 1)
        A = sp.diags([off, main, off], [-1, 0, 1]).tocsr()
        rhs = np.ones(n)
        with pytest.raises(SolverConvergenceError) as exc:
            solve_spd(A, rhs, tol=1e-14, maxiter=3)
        assert exc.value.iterations == 3
        assert exc.value.residual > 0.0

    def test_non_positive_diagonal_rejected(self):
        for diagonal in ([1.0, 0.0], [2.0, np.nan, 3.0]):
            iterates = []
            with pytest.raises(NumericsError):
                solve_spd(
                    sp.diags(diagonal).tocsr(), np.ones(len(diagonal)),
                    maxiter=50, callback=iterates.append,
                )
            assert iterates == []  # rejected before the first iteration

    def test_non_finite_rhs_rejected(self):
        A = sp.identity(3, format="csr")
        with pytest.raises(NumericsError):
            solve_spd(A, np.array([1.0, np.nan, 0.0]))
        with pytest.raises(NumericsError):
            solve_spd(A, np.array([1.0, np.inf, 0.0]))


class TestSolverConfig:
    @pytest.mark.parametrize(
        "tau,T,expected",
        [
            (0.1, 1.0, 10),
            (0.3, 1.0, 4),
            (1e-2, 12.0, 1200),
            (0.1, 0.0, 0),
            (0.2, 0.1, 1),
            (0.1, 0.7, 7),
        ],
    )
    def test_step_count(self, tau, T, expected):
        assert SolverConfig(tau=tau, T=T).n_steps == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tau=0.0)
        with pytest.raises(ValueError):
            SolverConfig(tau=-0.1)
        with pytest.raises(ValueError, match="T must be at least 0"):
            SolverConfig(T=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(cg_tol=0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="cg_tol"):
                SolverConfig(cg_tol=bad)
        with pytest.raises(ValueError):
            SolverConfig(cg_maxiter=0)
        for bad in (1.5, 10.0, "10"):
            with pytest.raises(ValueError, match="cg_maxiter must be an integer"):
                SolverConfig(cg_maxiter=bad)
        assert SolverConfig(cg_maxiter=np.int64(7)).cg_maxiter == 7
        for T, tau in ((1e308, 1e-2), (1.0, 1e-320)):
            with pytest.raises(ValueError, match="finite number of steps"):
                SolverConfig(T=T, tau=tau)


class TestSingleStep:
    def test_uniform_fields_frozen_surface_are_fixed_points(self):
        mesh = generate_square(2.0, 8)
        params = pure_diffusion_params(kappa=0.0)
        state = make_state(mesh, np.full(mesh.n_nodes, 0.7), np.full(mesh.n_nodes, 0.3))
        cfg = SolverConfig(tau=1e-2, T=1.0)
        for _ in range(5):
            state = step(state, params, cfg)
        assert np.all(state.eta == 0.7)
        assert np.all(state.theta == 0.3)

    def test_one_step_sphere_growth_radius(self):
        mesh = generate_icosphere(1.0, 4)
        params = pure_diffusion_params(kappa=0.2)
        state = make_state(mesh, np.ones(mesh.n_nodes), np.full(mesh.n_nodes, 0.5))
        cfg = SolverConfig(tau=1e-2, T=1e-2)
        new = step(state, params, cfg)
        radii = np.linalg.norm(new.mesh.nodes, axis=1)
        expected = 1.0 + cfg.tau * params.kappa
        assert np.max(np.abs(radii - expected)) <= 1e-6
        assert new.t == pytest.approx(1e-2, rel=1e-15)
        assert new.step_index == 1

    def test_time_and_index_advance(self):
        mesh = generate_square(1.0, 4)
        params = default_params(B=30.0, C=3.0, kappa=0.0)
        fields = initial_condition(mesh, params, seed=0)
        state = make_state(mesh, fields.eta, fields.theta)
        new = step(state, params, SolverConfig(tau=0.25, T=0.25))
        assert new.t == 0.25
        assert new.step_index == 1
        assert new.mesh is state.mesh  # frozen surface reuses the mesh object

    @pytest.mark.parametrize("kappa", [0.0, 0.2])
    def test_chain_of_steps_builds_one_pattern(self, monkeypatch, kappa):
        # the mesh carries its pattern and every moved mesh shares it, so a
        # chain of single steps builds it once, not once per step
        mesh = generate_square(2.0, 8)
        params = default_params(B=30.0, C=3.0, rho=2.0, kappa=kappa)
        fields = initial_condition(mesh, params, seed=1)
        state = make_state(mesh, fields.eta, fields.theta)
        built = count_pattern_builds(monkeypatch)
        for _ in range(5):
            state = step(state, params, SolverConfig(tau=1e-2, T=1.0))
        assert state.step_index == 5
        assert (state.mesh is mesh) == (kappa == 0.0)
        assert len(built) == 1
        assert state.mesh.pattern is mesh.pattern is built[0]

    def test_field_shape_mismatch_rejected(self):
        mesh = generate_square(1.0, 4)
        params = default_params(B=30.0, C=3.0)
        state = make_state(mesh, np.zeros(3), np.zeros(mesh.n_nodes))
        with pytest.raises(ValueError):
            step(state, params, SolverConfig())

    def test_history_level_shape_mismatch_rejected(self):
        mesh = generate_square(1.0, 4)
        params = default_params(B=30.0, C=3.0, kappa=0.0)
        n = mesh.n_nodes
        good = (np.zeros(n), np.zeros(n))
        for bad in ((np.zeros(n - 1), np.zeros(n)), (np.zeros(n), np.zeros((n, 1)))):
            state = dataclasses.replace(
                make_state(mesh, np.zeros(n), np.zeros(n)), history=(good, bad)
            )
            with pytest.raises(ValueError, match="history level 1"):
                step(state, params, SolverConfig())
            with pytest.raises(ValueError, match="history level 1"):
                run(state, params, SolverConfig(tau=0.1, T=0.1))

    def test_non_finite_initial_field_rejected(self):
        mesh = generate_square(1.0, 4)
        params = default_params(B=30.0, C=3.0, kappa=0.0)
        eta = np.zeros(mesh.n_nodes)
        eta[3] = np.nan
        state = make_state(mesh, eta, np.full(mesh.n_nodes, 0.5))
        with pytest.raises(NumericsError):
            step(state, params, SolverConfig())


class TestPredictedStart:
    """Each solve starts from a quintic extrapolation of the last six field levels."""

    @staticmethod
    def preset_sheet(resolution=24):
        cfg = load_config(preset=1, overrides={"domain.resolution": resolution})
        mesh = build_domain(cfg.domain)
        params = cfg.kinetics_params()
        fields = initial_condition(mesh, params, amplitude=cfg.amplitude, seed=cfg.seed)
        return make_state(mesh, fields.eta, fields.theta), params, cfg.solver

    def test_step_chain_carries_five_earlier_levels_by_reference(self):
        state, params, cfg = self.preset_sheet(resolution=8)
        assert state.history == ()
        chain = [state]
        for k in range(1, 7):
            chain.append(step(chain[-1], params, cfg))
            levels = chain[-1].history
            assert len(levels) == min(k, stepper.HISTORY_LEVELS) == min(k, 5)
            for (eta, theta), earlier in zip(levels, reversed(chain[:-1])):
                assert eta is earlier.eta
                assert theta is earlier.theta
        final = chain[-1]
        assert final.eta.base is None
        assert final.theta.base is None

    def test_predicted_start_costs_one_product(self, monkeypatch):
        # before five earlier levels exist a solve starts from the current
        # field; after, from the extrapolation checked only against zero
        class CountingMatrix:
            def __init__(self, A):
                self.A, self.products = A, 0

            def __matmul__(self, x):
                self.products += 1
                return self.A @ x

        original = stepper.solve_spd
        solves = []

        def counted(A, rhs, *args, **kwargs):
            counting, iterations = CountingMatrix(A), []
            kwargs["callback"] = iterations.append
            result = original(counting, rhs, *args, **kwargs)
            solves.append((kwargs.get("x0"), kwargs.get("guess"),
                           counting.products, len(iterations)))
            return result

        monkeypatch.setattr(stepper, "solve_spd", counted)
        state, params, cfg = self.preset_sheet(resolution=8)
        for k in range(8):
            solves.clear()
            next_state = step(state, params, cfg)
            assert len(solves) == 2
            for (x0, guess, products, iterations), field in zip(
                solves, (state.eta, state.theta)
            ):
                if k < stepper.HISTORY_LEVELS:
                    assert x0 is field and guess is None
                else:
                    assert x0 is None and guess is not None
                assert iterations > 0
                assert products == iterations + 1
            state = next_state

    def test_history_cuts_theta_iterations(self, monkeypatch):
        state, params, cfg = self.preset_sheet()
        original = stepper.solve_spd
        iterations = []

        def counted(A, rhs, *args, **kwargs):
            count = []
            kwargs["callback"] = lambda x: count.append(1)
            result = original(A, rhs, *args, **kwargs)
            iterations.append(len(count))
            return result

        monkeypatch.setattr(stepper, "solve_spd", counted)

        def theta_iterations(s):
            iterations.clear()
            step(s, params, cfg)
            return iterations[1]  # eta is solved first, then theta

        for _ in range(3):
            state = step(state, params, cfg)
        with_history = without_history = 0
        for _ in range(20):
            with_history += theta_iterations(state)
            without_history += theta_iterations(dataclasses.replace(state, history=()))
            state = step(state, params, cfg)
        assert with_history <= 0.7 * without_history

    def test_run_matches_step_chain_bitwise_on_a_moving_surface(self):
        state, params, cfg = self.preset_sheet(resolution=8)
        cfg = dataclasses.replace(cfg, T=0.08)
        final, _ = run(state, params, cfg, stride=3)
        chained = state
        for _ in range(cfg.n_steps):
            chained = step(chained, params, cfg)
        assert np.array_equal(final.eta, chained.eta)
        assert np.array_equal(final.theta, chained.theta)
        assert np.array_equal(final.mesh.nodes, chained.mesh.nodes)


class TestConservationAndStability:
    def test_coverage_mass_conserved_frozen_surface(self):
        mesh = generate_square(2.0, 10)
        params = pure_diffusion_params(kappa=0.0)
        rng = np.random.default_rng(4)
        theta = 0.5 + 0.2 * rng.uniform(-1.0, 1.0, mesh.n_nodes)
        state = make_state(mesh, np.zeros(mesh.n_nodes), theta)
        mass = assemble_lumped_mass(mesh)
        total0 = float(mass @ theta)
        cfg = SolverConfig(tau=1e-2, T=0.5, cg_tol=1e-12)
        state, _ = run(state, params, cfg)
        total1 = float(mass @ state.theta)
        assert abs(total1 - total0) <= 1e-8 * abs(total0)

    def test_coverage_mass_conserved_growing_surface(self):
        mesh = generate_icosphere(1.0, 2)
        params = pure_diffusion_params(kappa=0.2)
        state = make_state(
            mesh, np.ones(mesh.n_nodes), np.full(mesh.n_nodes, 0.5)
        )
        total0 = float(assemble_lumped_mass(mesh) @ state.theta)
        totals = []
        cfg = SolverConfig(tau=1e-2, T=0.2, cg_tol=1e-12)
        state, _ = run(
            state,
            params,
            cfg,
            observers=[lambda s, m: totals.append(float(m @ s.theta))],
            stride=5,
        )
        assert max(abs(t - total0) for t in totals) <= 1e-8 * abs(total0)

    def test_dilution_of_uniform_coverage_tracks_area(self):
        mesh = generate_icosphere(1.0, 2)
        params = pure_diffusion_params(kappa=0.2)
        area0 = surface_area(mesh)
        state = make_state(mesh, np.ones(mesh.n_nodes), np.full(mesh.n_nodes, 0.5))
        cfg = SolverConfig(tau=1e-2, T=0.2, cg_tol=1e-12)
        state, _ = run(state, params, cfg)
        area1 = surface_area(state.mesh)
        assert area1 > area0
        mass1 = assemble_lumped_mass(state.mesh)
        mean_theta = float(mass1 @ state.theta) / area1
        assert mean_theta == pytest.approx(0.5 * area0 / area1, rel=1e-6)
        assert np.max(np.abs(state.theta - mean_theta)) <= 1e-3

    def test_no_dilution_of_morphology_under_growth(self):
        mesh = generate_icosphere(1.0, 3)
        params = pure_diffusion_params(kappa=0.2)
        state = make_state(mesh, np.ones(mesh.n_nodes), np.full(mesh.n_nodes, 0.5))
        cfg = SolverConfig(tau=1e-2, T=0.2, cg_tol=1e-12)
        state, _ = run(state, params, cfg)
        assert np.max(np.abs(state.eta - 1.0)) <= 1e-9
        assert np.max(state.eta) - np.min(state.eta) <= 1e-9

    @pytest.mark.parametrize("tau", [1e-2, 1.0, 100.0])
    def test_dirichlet_energy_decays_for_any_step_size(self, tau):
        mesh = generate_square(2.0, 10)
        params = pure_diffusion_params(kappa=0.0)
        rng = np.random.default_rng(8)
        eta = rng.uniform(-1.0, 1.0, mesh.n_nodes)
        state = make_state(mesh, eta, np.full(mesh.n_nodes, 0.5))
        K = assemble_stiffness(mesh)
        cfg = SolverConfig(tau=tau, T=tau, cg_tol=1e-12)
        energy = float(state.eta @ (K @ state.eta))
        for _ in range(5):
            state = step(state, params, cfg)
            next_energy = float(state.eta @ (K @ state.eta))
            assert next_energy <= energy * (1.0 + 1e-12)
            energy = next_energy


class TestRun:
    def setup_method(self):
        self.mesh = generate_square(2.0, 8)
        self.params = default_params(B=30.0, C=3.0, rho=2.0, kappa=0.0)
        fields = initial_condition(self.mesh, self.params, seed=1)
        self.state = make_state(self.mesh, fields.eta, fields.theta)

    def test_zero_horizon_returns_initial_state(self):
        final, series = run(self.state, self.params, SolverConfig(tau=0.1, T=0.0))
        assert (final.t, final.step_index) == (self.state.t, 0)
        assert np.array_equal(final.mesh.nodes, self.state.mesh.nodes)
        assert np.array_equal(final.eta, self.state.eta)
        assert np.array_equal(final.theta, self.state.theta)
        assert [s.t for s in series.samples] == [self.state.t]

    def test_T_is_a_span_from_the_initial_time(self):
        start = make_state(self.mesh, self.state.eta, self.state.theta, t=2.0)
        final, series = run(start, self.params, SolverConfig(tau=0.01, T=0.05), stride=1)
        assert final.step_index == 5
        assert final.t == pytest.approx(2.05, rel=1e-12)
        assert [s.t for s in series.samples] == pytest.approx(
            [2.0, 2.01, 2.02, 2.03, 2.04, 2.05], rel=1e-12
        )

    @pytest.mark.parametrize("kappa", [0.0, 0.2])
    def test_chain_yields_a_quality_for_every_state(self, kappa):
        params = default_params(B=30.0, C=3.0, rho=2.0, kappa=kappa)
        start = mesh_quality(self.mesh)
        chain = stepper._steps(self.state, params, SolverConfig(tau=0.05, T=1.0))
        for k, (state, _, quality) in zip(range(6), chain):
            assert state.step_index == k
            assert isinstance(quality, MeshQuality)
            assert quality == mesh_quality(state.mesh)
            if kappa == 0.0:  # the frozen surface carries its start quality
                assert state.mesh is self.mesh
                assert quality == start
        assert (state.mesh is self.mesh) == (kappa == 0.0)

    def test_sampling_stride(self):
        cfg = SolverConfig(tau=0.1, T=1.0)
        _, series = run(self.state, self.params, cfg, stride=3)
        assert [s.t for s in series.samples] == pytest.approx(
            [0.0, 0.3, 0.6, 0.9, 1.0], rel=1e-12
        )
        _, series_all = run(self.state, self.params, cfg, stride=1)
        assert len(series_all.samples) == 11

    def test_observers_called_at_samples(self):
        seen = []
        cfg = SolverConfig(tau=0.1, T=0.5)
        run(
            self.state,
            self.params,
            cfg,
            observers=[lambda s, m: seen.append((s.step_index, m.sum()))],
            stride=2,
        )
        assert [k for k, _ in seen] == [0, 2, 4, 5]
        assert all(total > 0.0 for _, total in seen)

    @pytest.mark.parametrize("kappa", [0.0, 0.2])
    def test_observers_receive_the_mass_diagonal(self, kappa):
        seen = []
        params = default_params(B=30.0, C=3.0, rho=2.0, kappa=kappa)
        cfg = SolverConfig(tau=0.1, T=0.3)
        run(self.state, params, cfg, observers=[lambda s, m: seen.append((s, m))], stride=1)
        assert [s.step_index for s, _ in seen] == [0, 1, 2, 3]
        for state, mass in seen:
            assert type(mass) is np.ndarray and mass.shape == (state.mesh.n_nodes,)
            assert np.array_equal(mass, assemble_lumped_mass(state.mesh))

    def test_bad_stride_rejected(self):
        with pytest.raises(ValueError):
            run(self.state, self.params, SolverConfig(), stride=0)
        for bad in (2.5, 2.0, "2"):
            with pytest.raises(ValueError, match="stride must be an integer"):
                run(self.state, self.params, SolverConfig(), stride=bad)

    def test_frozen_surface_run_matches_stationary_solver(self):
        # the reference rebuilds every operator each step; run builds them once
        cfg = SolverConfig(tau=1e-2, T=0.25)
        final_a, series_a = run(self.state, self.params, cfg, stride=5)
        final_b, series_b = stepwise_frozen_run(self.state, self.params, cfg, stride=5)
        assert np.array_equal(final_a.eta, final_b.eta)
        assert np.array_equal(final_a.theta, final_b.theta)
        assert csv_rows(series_a) == csv_rows(series_b)

    @pytest.mark.parametrize("T, stride", [(0.05, 1), (0.3, 7), (0.3, 100)])
    def test_frozen_surface_run_builds_operators_once(self, monkeypatch, T, stride):
        stiffness = count_calls(monkeypatch, "assemble_stiffness")
        quality = count_calls(monkeypatch, "mesh_quality")
        run(self.state, self.params, SolverConfig(tau=1e-2, T=T), stride=stride)
        assert len(stiffness) == 1
        assert len(quality) == 1

    def test_moving_run_checks_quality_once_per_step(self, monkeypatch):
        moving = default_params(B=30.0, C=3.0, rho=2.0, kappa=0.2)
        cfg = SolverConfig(tau=1e-2, T=0.1)
        quality = count_calls(monkeypatch, "mesh_quality")
        _, series = run(self.state, moving, cfg, stride=1)
        assert len(series.samples) == cfg.n_steps + 1
        assert len(quality) == cfg.n_steps + 1

    def test_moving_run_builds_one_pattern_and_passes_it_everywhere(self, monkeypatch):
        # a mesh of the run without the handle's pattern would build its own,
        # a rebuild per step that no output shows
        built = count_pattern_builds(monkeypatch)
        received = []
        for name in ("compute_node_normals", "assemble_lumped_mass", "assemble_stiffness"):
            def receiving(mesh, name=name, original=getattr(stepper, name)):
                received.append((name, mesh._pattern))
                return original(mesh)

            monkeypatch.setattr(stepper, name, receiving)
        moving = default_params(B=30.0, C=3.0, rho=2.0, kappa=0.2)
        cfg = SolverConfig(tau=1e-2, T=0.1)
        final, _ = run(self.state, moving, cfg, stride=1)
        assert final.step_index == cfg.n_steps
        assert len(built) == 1
        names = [name for name, _ in received]
        assert names.count("compute_node_normals") == cfg.n_steps
        assert names.count("assemble_lumped_mass") == cfg.n_steps + 1
        assert names.count("assemble_stiffness") == cfg.n_steps
        assert all(pattern is built[0] for _, pattern in received)

    @pytest.mark.parametrize("kappa", [0.0, 0.2])
    def test_run_builds_its_pattern_by_the_stepper_name_and_returns_it(self, monkeypatch, kappa):
        # the build goes through ``stepper.StiffnessPattern``, the name the
        # benchmark's tracer times; the caller's mesh is left without a pattern
        built = []

        def building(mesh, build=stepper.StiffnessPattern):
            built.append(build(mesh))
            return built[-1]

        monkeypatch.setattr(stepper, "StiffnessPattern", building)
        params = default_params(B=30.0, C=3.0, rho=2.0, kappa=kappa)
        final, _ = run(self.state, params, SolverConfig(tau=1e-2, T=0.05))
        assert final.step_index == 5
        assert len(built) == 1
        assert final.mesh.pattern is built[0]
        assert self.state.mesh._pattern is None

    @pytest.mark.parametrize("stride", [1, 7])
    def test_moving_run_computes_one_geometry_pass_per_step(self, monkeypatch, stride):
        # the pass of each moved mesh serves its quality check, its mass and
        # stiffness, and the next step's normals
        moving = default_params(B=30.0, C=3.0, rho=2.0, kappa=0.2)
        cfg = SolverConfig(tau=1e-2, T=0.1)
        passes = count_geometry_passes(monkeypatch)
        final, _ = run(self.state, moving, cfg, stride=stride)
        assert final.step_index == cfg.n_steps
        assert len(passes) == cfg.n_steps + 1

    @pytest.mark.parametrize("kappa", [0.0, 0.2])
    def test_run_leaves_no_geometry_cache_on_the_initial_mesh(self, monkeypatch, kappa):
        params = default_params(B=30.0, C=3.0, rho=2.0, kappa=kappa)
        final, _ = run(self.state, params, SolverConfig(tau=1e-2, T=0.05))
        assert final.step_index == 5
        passes = count_geometry_passes(monkeypatch)
        assemble_lumped_mass(self.state.mesh)
        assert len(passes) == 1

    @pytest.mark.parametrize("stride", [1, 10])
    def test_moving_run_keeps_one_geometry_alive(self, stride):
        # a chain that held on to an earlier mesh would keep its geometry pass
        # (three per-triangle arrays) alive beside the current one
        def live_geometries():
            gc.collect()
            return sum(isinstance(obj, _TriangleGeometry) for obj in gc.get_objects())

        state, params, cfg = TestPredictedStart.preset_sheet(resolution=16)
        assert params.kappa != 0.0
        cfg = dataclasses.replace(cfg, T=0.3)
        before = live_geometries()
        seen = []
        final, series = run(
            state, params, cfg, stride=stride,
            observers=[lambda s, m: seen.append((s.step_index, live_geometries() - before))],
        )
        assert not series.stopped and final.step_index == 30
        assert [k for k, _ in seen] == list(range(0, 31, stride))
        assert all(alive <= 1 for _, alive in seen), seen

    def test_frozen_run_is_bitwise_the_same_without_pruning(self, monkeypatch):
        # dropping the split diagonals' exact zeros changes no bit of a frozen run
        pruned = []

        def recording(systems, original=stepper._without_zeros):
            pruned.append(original(systems))
            return pruned[-1]

        monkeypatch.setattr(stepper, "_without_zeros", recording)
        cfg = SolverConfig(tau=1e-2, T=0.25)
        final_a, series_a = run(self.state, self.params, cfg, stride=5)
        assert [A.nnz for A, _ in pruned[0]] == [369, 369]  # 497 stored, 2 * 8**2 zeros
        monkeypatch.setattr(stepper, "_without_zeros", lambda systems: systems)
        final_b, series_b = run(self.state, self.params, cfg, stride=5)
        assert final_a.step_index == final_b.step_index == 25
        assert final_a.eta.tobytes() == final_b.eta.tobytes()
        assert final_a.theta.tobytes() == final_b.theta.tobytes()
        assert csv_rows(series_a) == csv_rows(series_b)

    @staticmethod
    def frozen_systems(mesh):
        mass = assemble_lumped_mass(mesh)
        return stepper._diffusion_systems(mesh, mass, mass, 1e-2, 40.0)

    def test_pruning_returns_systems_without_zeros_as_they_are(self):
        systems = self.frozen_systems(generate_icosphere(1.0, 2))
        assert all((A.data != 0.0).all() for A, _ in systems)
        assert stepper._without_zeros(systems) is systems

    def test_pruned_systems_share_one_structure_in_row_order(self):
        n = 6
        systems = self.frozen_systems(generate_square(2.0, n))
        pruned = stepper._without_zeros(systems)
        (A_eta, _), (A_theta, _) = pruned
        assert np.shares_memory(A_eta.indices, A_theta.indices)
        assert np.shares_memory(A_eta.indptr, A_theta.indptr)
        x = np.random.default_rng(5).standard_normal(A_eta.shape[0])
        for (A, diag), (B, kept_diag) in zip(systems, pruned):
            assert kept_diag is diag
            assert B.nnz == A.nnz - 2 * n * n and (B.data != 0.0).all()
            assert B.indices.dtype == A.indices.dtype and B.indptr.dtype == A.indptr.dtype
            for row in range(A.shape[0]):
                full = slice(A.indptr[row], A.indptr[row + 1])
                kept = slice(B.indptr[row], B.indptr[row + 1])
                nonzero = A.data[full] != 0.0
                assert np.array_equal(B.indices[kept], A.indices[full][nonzero])
                assert np.array_equal(B.data[kept], A.data[full][nonzero])
            assert (B @ x).tobytes() == (A @ x).tobytes()

    def test_frozen_run_computes_one_geometry_pass(self, monkeypatch):
        passes = count_geometry_passes(monkeypatch)
        run(self.state, self.params, SolverConfig(tau=1e-2, T=0.1), stride=1)
        assert len(passes) == 1


class TestTemporalConvergence:
    """IMEX Euler converges at first order in tau on a frozen and a moving sheet.

    The observed order ``log2(|x1 - x2| / |x2 - x3|)`` compares the final
    states of three runs whose steps halve; it needs no reference solution.
    With ``cg_tol`` 1e-12 the solver error is far below the time error.
    """

    @staticmethod
    def final_state(kappa, tau):
        cfg = load_config(preset=1, overrides={
            "domain.size": "5", "domain.resolution": "16", "kinetics.amplitude": "1e-2",
            "kinetics.seed": "3", "kinetics.kappa": kappa, "solver.T": "0.2",
            "solver.cg_tol": "1e-12", "solver.tau": tau,
        })
        mesh = build_domain(cfg.domain)
        params = cfg.kinetics_params()
        fields = initial_condition(mesh, params, amplitude=cfg.amplitude, seed=cfg.seed)
        final, series = run(make_state(mesh, fields.eta, fields.theta), params, cfg.solver)
        assert not series.stopped
        assert final.step_index == cfg.solver.n_steps
        return final

    @pytest.mark.parametrize("kappa", ["0", "0.2"])
    def test_observed_order_is_one(self, kappa):
        finals = [self.final_state(kappa, tau) for tau in ("0.005", "0.0025", "0.00125")]
        observed = {
            "eta": [s.eta for s in finals],
            "theta": [s.theta for s in finals],
        }
        if kappa != "0":
            observed["nodes"] = [s.mesh.nodes for s in finals]
        for name, (x1, x2, x3) in observed.items():
            order = math.log2(np.linalg.norm(x1 - x2) / np.linalg.norm(x2 - x3))
            assert 0.85 <= order <= 1.15, f"{name}: observed order {order:.3f}"


class TestDegeneracyStop:
    def shrinking_sphere(self):
        mesh = generate_icosphere(1.0, 1)
        params = pure_diffusion_params(kappa=1.0)
        state = make_state(mesh, -np.ones(mesh.n_nodes), np.full(mesh.n_nodes, 0.5))
        threshold = 0.5 * float(triangle_areas(mesh).min())
        cfg = SolverConfig(tau=0.05, T=1.0, min_triangle_area=threshold)
        return state, params, cfg

    def test_step_raises_with_location(self):
        state, params, cfg = self.shrinking_sphere()
        for _ in range(5):
            state = step(state, params, cfg)
        with pytest.raises(DegeneracyStop) as exc:
            step(state, params, cfg)
        assert exc.value.step_index == 6
        assert exc.value.time == pytest.approx(0.30, rel=1e-12)
        # the input state survives a refused step
        assert np.all(np.isfinite(state.mesh.nodes))

    @pytest.mark.parametrize("stride", [1, 2, 5, 10])
    def test_run_stops_cleanly_and_keeps_last_valid_state(self, stride):
        state, params, cfg = self.shrinking_sphere()
        seen = []
        final, series = run(state, params, cfg, stride=stride,
                            observers=[lambda s, m: seen.append(s.step_index)])
        assert series.stopped
        assert final.step_index == 5
        # step 6 stops the run: strided samples, then the last valid state once
        sampled = {1: [0, 1, 2, 3, 4, 5], 2: [0, 2, 4, 5], 5: [0, 5], 10: [0, 5]}[stride]
        assert seen == sampled
        assert len(series.samples) == len(sampled)
        assert final.t == pytest.approx(0.25, rel=1e-12)
        radii = np.linalg.norm(final.mesh.nodes, axis=1)
        assert np.max(np.abs(radii - 0.75)) <= 1e-2
        # the last valid state is always sampled, with its own mesh quality
        assert series.samples[-1].t == pytest.approx(final.t, rel=1e-12)
        assert series.samples[-1].min_angle_deg == mesh_quality(final.mesh).min_angle_deg

    @pytest.mark.parametrize("stride", [1, 2, 5, 10])
    def test_run_stopped_at_step_1_samples_the_initial_state_once(self, stride):
        state, params, cfg = self.shrinking_sphere()
        cfg = dataclasses.replace(cfg, min_triangle_area=float(triangle_areas(state.mesh).min()))
        seen = []
        final, series = run(state, params, cfg, stride=stride,
                            observers=[lambda s, m: seen.append(s.step_index)])
        assert series.stopped
        assert final.step_index == 0
        assert np.array_equal(final.eta, state.eta)
        assert seen == [0]
        assert len(series.samples) == 1

    def test_angle_threshold_validation(self):
        for angle in (0.0, 0.5):
            assert SolverConfig(min_angle_deg=angle).min_angle_deg == angle
        for bad in (float("nan"), float("inf"), -0.5):
            with pytest.raises(ValueError, match="min_angle_deg"):
                SolverConfig(min_angle_deg=bad)
        for bad in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(ValueError, match="min_triangle_area"):
                SolverConfig(min_triangle_area=bad)


@pytest.mark.slow
class TestLongLabyrinthRun:
    def test_flat_labyrinth_preset_reaches_final_time_at_default_resolution(self):
        """Regression target: the flat labyrinth experiment should reach its
        nominal final time T=12 at default resolution without tripping the
        degeneracy stop."""
        from esdib import load_config

        cfg = load_config(preset=1)
        mesh = generate_square(cfg.domain.size, cfg.domain.resolution)
        params = cfg.kinetics_params()
        fields = initial_condition(mesh, params, amplitude=cfg.amplitude,
                                   seed=cfg.seed)
        state = SimState(t=0.0, mesh=mesh, eta=fields.eta, theta=fields.theta)
        final, series = run(state, params, cfg.solver, stride=10)
        assert not series.stopped, series.stop_reason
        assert final.t == pytest.approx(12.0, rel=1e-9)
