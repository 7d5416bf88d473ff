"""Diagnostics: increment norms, integrals, series, thickness, growth fits."""

import csv
import math

import numpy as np
import pytest

from esdib import (
    DiagnosticsSeries,
    ModeError,
    SimState,
    SolverConfig,
    area_growth_fit,
    assemble_lumped_mass,
    default_params,
    increment_norm,
    initial_condition,
    mass_integral,
    mass_weighted_increment_norm,
    mesh_quality,
    run,
)
from esdib.diagnostics import CSV_COLUMNS
from esdib.meshgen import generate_icosphere, generate_square


def small_run(T=0.1, stride=2, kappa=0.0, n=6, seed=1, observers=()):
    mesh = generate_square(2.0, n)
    params = default_params(B=30.0, C=3.0, rho=2.0, kappa=kappa)
    state = initial_condition(mesh, params, seed=seed)
    cfg = SolverConfig(tau=1e-2, T=T)
    return run(state, params, cfg, observers=observers, stride=stride)


class TestIncrementNorms:
    def test_three_four_five(self):
        assert increment_norm([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_metric_properties(self):
        rng = np.random.default_rng(0)
        a, b, c = rng.standard_normal((3, 30))
        assert increment_norm(a, a) == 0.0
        assert increment_norm(a, b) == increment_norm(b, a)
        assert increment_norm(a, c) <= (
            increment_norm(a, b) + increment_norm(b, c)
        ) * (1.0 + 1e-12)

    def test_mass_weighted_oracle(self):
        mass = assemble_lumped_mass(generate_square(1.0, 1))
        # diag = [1/3, 1/6, 1/6, 1/3]; diff = [1, 2, 0, 1] gives
        # sqrt(1/3 + 4/6 + 0 + 1/3) = sqrt(4/3)
        prev = np.zeros(4)
        curr = np.array([1.0, 2.0, 0.0, 1.0])
        expected = math.sqrt(4.0 / 3.0)
        assert mass_weighted_increment_norm(mass, prev, curr) == pytest.approx(
            expected, rel=1e-14
        )

    def test_unit_mass_reduces_to_plain_norm(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((2, 10))
        assert mass_weighted_increment_norm(np.ones(10), a, b) == pytest.approx(
            increment_norm(a, b), rel=1e-14
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            increment_norm(np.zeros(3), np.zeros(4))
        mass = assemble_lumped_mass(generate_square(1.0, 1))
        with pytest.raises(ValueError):
            mass_weighted_increment_norm(mass, np.zeros(3), np.zeros(4))

    def test_mass_of_wrong_length_rejected(self):
        # numpy's own message, "shapes (3,) and (4,) not aligned", names no argument
        with pytest.raises(ValueError, match=r"^mass must have shape \(4,\), got \(3,\)"):
            mass_weighted_increment_norm(np.ones(3), np.zeros(4), np.ones(4))


class TestMassIntegral:
    def test_constant_on_sphere(self):
        mesh = generate_icosphere(1.0, 3)
        mass = assemble_lumped_mass(mesh)
        integral = mass_integral(mass, np.full(mesh.n_nodes, 0.5))
        assert integral == pytest.approx(2.0 * math.pi, rel=5e-3)

    def test_mass_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match=r"^mass must have shape \(4,\), got \(3,\)"):
            mass_integral(np.ones(3), np.ones(4))

    def test_linearity(self):
        mesh = generate_square(2.0, 5)
        mass = assemble_lumped_mass(mesh)
        rng = np.random.default_rng(2)
        u, v = rng.standard_normal((2, mesh.n_nodes))
        lhs = mass_integral(mass, 1.5 * u - 2.0 * v)
        rhs = 1.5 * mass_integral(mass, u) - 2.0 * mass_integral(mass, v)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-14)


class TestSeries:
    def test_columns_are_fixed(self):
        assert CSV_COLUMNS == (
            "t",
            "area",
            "inc_eta_l2",
            "inc_eta_Ml2",
            "mass_theta",
            "eta_min",
            "eta_max",
            "theta_min",
            "theta_max",
            "eta_std",
            "min_angle_deg",
            "min_area",
        )

    def test_recorded_samples(self):
        _, series = small_run(T=0.1, stride=2)
        assert len(series) == 6
        times = series.times
        assert np.all(np.diff(times) > 0)
        assert math.isnan(series.samples[0].inc_eta_l2)
        assert math.isnan(series.samples[0].inc_eta_Ml2)
        assert all(math.isfinite(s.inc_eta_l2) for s in series.samples[1:])
        assert np.all(series.areas > 0)
        assert not series.stopped

    def test_field_ranges_and_std(self):
        final, series = small_run(T=0.05, stride=1)
        last = series.samples[-1]
        assert last.eta_min == final.eta.min()
        assert last.eta_max == final.eta.max()
        assert last.theta_min == final.theta.min()
        assert last.theta_max == final.theta.max()
        assert last.eta_std == pytest.approx(float(final.eta.std()), rel=1e-15)
        mass = assemble_lumped_mass(final.mesh)
        assert last.mass_theta == pytest.approx(
            mass_integral(mass, final.theta), rel=1e-15
        )

    def test_unknown_column_rejected(self):
        _, series = small_run(T=0.02, stride=1)
        with pytest.raises(KeyError):
            series.column("volume")

    def test_csv_round_trip(self, tmp_path):
        _, series = small_run(T=0.05, stride=1)
        path = tmp_path / "diag.csv"
        series.to_csv(path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == len(series) + 1
        assert rows[1][2] == "nan" and rows[1][3] == "nan"
        for row, sample in zip(rows[1:], series.samples):
            for text, name in zip(row, CSV_COLUMNS):
                value = getattr(sample, name)
                if math.isnan(value):
                    assert text == "nan"
                else:
                    assert float(text) == value

    def test_csv_deterministic_bytes(self, tmp_path):
        _, series = small_run(T=0.05, stride=1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        series.to_csv(a)
        series.to_csv(b)
        assert a.read_bytes() == b.read_bytes()


def recorded_thickness(times, eta_at):
    """Thickness of a series recording a uniform eta(t) on a 3x3 sheet."""
    mesh = generate_square(1.0, 2)
    mass, quality = assemble_lumped_mass(mesh), mesh_quality(mesh)
    series = DiagnosticsSeries(evolving=False)
    for t in times:
        eta = np.full(mesh.n_nodes, eta_at(t))
        state = SimState(t=t, mesh=mesh, eta=eta, theta=np.ones(mesh.n_nodes))
        series.record(state, mass, quality)
    return series.thickness()


class TestThickness:
    def test_constant_field(self):
        th = recorded_thickness(np.linspace(0.0, 2.0, 11), lambda t: 0.3)
        assert th.shape == (9,)
        assert np.allclose(th, 0.6, rtol=1e-12)

    def test_linear_in_time_field(self):
        th = recorded_thickness(np.linspace(0.0, 1.0, 21), lambda t: t)
        assert np.allclose(th, 0.5, rtol=1e-12)

    def test_non_uniform_times(self):
        th = recorded_thickness([0.0, 0.3, 0.6, 0.9, 1.0], lambda t: 1.0)
        assert np.allclose(th, 1.0, rtol=1e-12)

    def test_moving_surface_rejected(self):
        series = DiagnosticsSeries(evolving=True)
        with pytest.raises(ModeError):
            series.thickness()

    def test_series_thickness_matches_direct_integration(self):
        snapshots = []
        _, series = small_run(
            T=0.1, stride=2, observers=[lambda s, m: snapshots.append(s.eta.copy())]
        )
        assert len(snapshots) == len(series) == 6
        th = series.thickness()
        direct = np.trapezoid(np.asarray(snapshots), x=series.times, axis=0)
        assert np.array_equal(th, direct)

    def test_series_thickness_of_fewer_than_two_samples_is_zero(self):
        # as np.trapezoid over an empty or one-row history
        assert DiagnosticsSeries(evolving=False).thickness().shape == (0,)
        mesh = generate_square(1.0, 2)
        state = SimState(t=0.0, mesh=mesh, eta=np.full(9, 0.5), theta=np.ones(9))
        series = DiagnosticsSeries(evolving=False)
        series.record(state, assemble_lumped_mass(mesh), mesh_quality(mesh))
        assert np.array_equal(series.thickness(), np.zeros(9))


class TestAreaGrowthFit:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 5.0, 40)
        fit = area_growth_fit(t, 7.0 * np.exp(0.3 * t))
        assert not fit.degenerate
        assert fit.rate == pytest.approx(0.3, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noisy_exponential(self):
        rng = np.random.default_rng(3)
        t = np.linspace(0.0, 10.0, 100)
        areas = 4.0 * np.exp(0.25 * t) * (1.0 + 1e-4 * rng.standard_normal(100))
        fit = area_growth_fit(t, areas)
        assert fit.rate == pytest.approx(0.25, abs=1e-3)
        assert fit.r_squared > 0.999

    def test_constant_series_is_degenerate(self):
        t = np.linspace(0.0, 1.0, 12)
        fit = area_growth_fit(t, np.full(12, 3.0))
        assert fit.degenerate
        assert fit.rate == 0.0
        assert math.isnan(fit.r_squared)

    def test_errors(self):
        with pytest.raises(ValueError):
            area_growth_fit(np.arange(5.0), np.ones(5))
        with pytest.raises(ValueError):
            area_growth_fit(np.arange(12.0), np.linspace(-1.0, 1.0, 12))
        with pytest.raises(ValueError):
            area_growth_fit(np.arange(12.0), np.ones(13))
        for times, areas in (
            (np.arange(12.0), np.r_[np.ones(11), np.nan]),
            (np.arange(12.0), np.r_[np.ones(11), np.inf]),
            (np.r_[np.arange(11.0), np.nan], np.exp(np.arange(12.0))),
        ):
            with pytest.raises(ValueError, match="finite"):
                area_growth_fit(times, areas)
        # one time for every sample leaves no slope: polyfit would return one
        for t in (2.0, 1.0):
            with pytest.raises(ValueError, match="times must vary"):
                area_growth_fit(np.full(10, t), np.exp(0.1 * np.arange(10.0)))


@pytest.mark.slow
class TestSteadyStatePattern:
    def test_frozen_square_reaches_a_patterned_steady_state(self):
        mesh = generate_square(5.0, 24)
        params = default_params(B=30.0, C=3.0, rho=2.0, kappa=0.0)
        state = initial_condition(mesh, params, seed=5)
        cfg = SolverConfig(tau=1e-2, T=100.0)
        final, series = run(state, params, cfg, stride=10)
        assert not series.stopped
        # increments settle and the pattern has visible amplitude
        assert series.samples[-1].inc_eta_l2 < 1e-6
        assert series.samples[-1].eta_std > 0.05
        thickness = series.thickness()
        corr = float(np.corrcoef(thickness, final.eta)[0, 1])
        print(f"thickness/eta correlation at steady state: {corr:.4f}")
        assert -1.0 <= corr <= 1.0
