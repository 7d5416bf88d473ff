"""Reaction terms, equilibrium balance, and initial conditions."""

import numpy as np
import pytest

from esdib import (
    KineticsParams,
    SimState,
    default_params,
    equilibrium_D,
    eval_f,
    eval_g,
    initial_condition,
)
from esdib.meshgen import generate_square


class TestEquilibriumD:
    def test_known_values(self):
        assert equilibrium_D(3.0, 0.5, 0.2) == pytest.approx(27.0 / 11.0, rel=1e-15)
        assert equilibrium_D(5.0, 0.5, 0.2) == pytest.approx(45.0 / 11.0, rel=1e-15)

    def test_scales_linearly_in_C(self):
        assert equilibrium_D(66.0, 0.5, 0.2) == pytest.approx(
            22.0 * equilibrium_D(3.0, 0.5, 0.2), rel=1e-15
        )

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            equilibrium_D(3.0, 0.0, 0.2)


class TestSourceTerms:
    def test_f_point_values(self):
        p = default_params(B=30.0, C=3.0)
        assert eval_f(1.0, 0.0, p) == pytest.approx(24.0, rel=1e-15)
        assert eval_f(-1.0, 0.5, p) == pytest.approx(-4.0, rel=1e-15)
        assert eval_f(0.0, 0.5, p) == 0.0

    def test_g_point_values(self):
        p = default_params(B=30.0, C=3.0)
        assert eval_g(0.0, 0.0, p) == pytest.approx(2.4, rel=1e-15)
        assert eval_g(0.0, 1.0, p) == pytest.approx(-(27.0 / 11.0) * 1.2, rel=1e-14)

    @pytest.mark.parametrize("B,C", [(30.0, 3.0), (66.0, 3.0), (62.0, 5.0)])
    def test_equilibrium_is_a_root(self, B, C):
        p = default_params(B=B, C=C)
        assert eval_f(0.0, p.alpha, p) == 0.0
        assert abs(eval_g(0.0, p.alpha, p)) <= 1e-13

    def test_f_odd_in_eta_at_equilibrium_coverage(self):
        p = default_params(B=30.0, C=3.0)
        eta = np.random.default_rng(1).uniform(-2.0, 2.0, 50)
        assert np.allclose(
            eval_f(-eta, p.alpha, p), -eval_f(eta, p.alpha, p), rtol=1e-14, atol=0.0
        )

    def test_f_is_the_product_form_bitwise(self):
        # the cube is (eta * eta) * eta, not pow: eta**3 rounds differently on
        # about a quarter of the entries
        p = default_params(B=30.0, C=3.0)
        rng = np.random.default_rng(4)
        eta = rng.uniform(-2.0, 2.0, 2000)
        theta = rng.uniform(0.0, 1.0, 2000)
        want = p.A1 * (1.0 - theta) * eta - p.A2 * ((eta * eta) * eta) - p.B * (theta - p.alpha)
        assert np.array_equal(eval_f(eta, theta, p), want)

    def test_f_odd_in_eta_bitwise(self):
        p = default_params(B=30.0, C=3.0)
        eta = np.concatenate([[0.0, 1e-300, 1.0], np.random.default_rng(5).uniform(-2.0, 2.0, 500)])
        assert np.array_equal(eval_f(-eta, p.alpha, p), -eval_f(eta, p.alpha, p))

    def test_vectorised_matches_scalar(self):
        p = default_params(B=66.0, C=3.0)
        rng = np.random.default_rng(2)
        eta = rng.uniform(-1.5, 1.5, 40)
        theta = rng.uniform(0.0, 1.0, 40)
        f_vec = eval_f(eta, theta, p)
        g_vec = eval_g(eta, theta, p)
        for i in range(eta.size):
            assert f_vec[i] == eval_f(eta[i], theta[i], p)
            assert g_vec[i] == eval_g(eta[i], theta[i], p)


class TestParams:
    def test_default_constants(self):
        p = default_params(B=30.0, C=3.0)
        assert (p.A1, p.A2, p.alpha, p.gamma) == (10.0, 1.0, 0.5, 0.2)
        assert (p.k2, p.k3, p.d) == (2.5, 1.5, 20.0)
        assert (p.rho, p.kappa) == (1.0, 0.2)
        assert p.D == pytest.approx(27.0 / 11.0, rel=1e-15)

    def test_run_level_factors(self):
        p = default_params(B=62.0, C=5.0, rho=2.0, kappa=0.0)
        assert (p.B, p.C, p.rho, p.kappa) == (62.0, 5.0, 2.0, 0.0)
        assert p.D == pytest.approx(45.0 / 11.0, rel=1e-15)

    def test_validation(self):
        good = default_params(B=30.0, C=3.0)
        base = {f: getattr(good, f) for f in good.__dataclass_fields__}
        with pytest.raises(ValueError):
            KineticsParams(**{**base, "d": 0.0})
        with pytest.raises(ValueError):
            KineticsParams(**{**base, "rho": -1.0})
        with pytest.raises(ValueError):
            KineticsParams(**{**base, "kappa": -0.1})
        with pytest.raises(ValueError):
            KineticsParams(**{**base, "B": float("nan")})
        with pytest.raises(ValueError):
            KineticsParams(**{**base, "C": float("inf")})


class TestInitialCondition:
    def setup_method(self):
        self.mesh = generate_square(2.0, 6)
        self.params = default_params(B=30.0, C=3.0)

    def test_returns_the_start_state(self):
        state = initial_condition(self.mesh, self.params, seed=3)
        assert type(state) is SimState
        assert (state.t, state.step_index, state.history) == (0.0, 0, ())
        assert state.mesh is self.mesh
        # the draws: eta's first, then theta's, each U(-1, 1) per node
        rng = np.random.default_rng(3)
        n = self.mesh.n_nodes
        assert np.array_equal(state.eta, 1e-4 * rng.uniform(-1.0, 1.0, n))
        assert np.array_equal(state.theta, self.params.alpha + 1e-4 * rng.uniform(-1.0, 1.0, n))

    def test_shapes_and_bounds(self):
        fields = initial_condition(self.mesh, self.params, amplitude=1e-4, seed=0)
        n = self.mesh.n_nodes
        assert fields.eta.shape == (n,)
        assert fields.theta.shape == (n,)
        assert np.max(np.abs(fields.eta)) <= 1e-4
        assert np.max(np.abs(fields.theta - self.params.alpha)) <= 1e-4
        assert np.std(fields.eta) > 0.0

    def test_seed_reproducibility(self):
        a = initial_condition(self.mesh, self.params, seed=42)
        b = initial_condition(self.mesh, self.params, seed=42)
        c = initial_condition(self.mesh, self.params, seed=43)
        assert np.array_equal(a.eta, b.eta)
        assert np.array_equal(a.theta, b.theta)
        assert not np.array_equal(a.eta, c.eta)

    def test_fields_use_independent_draws(self):
        fields = initial_condition(self.mesh, self.params, amplitude=1.0, seed=5)
        assert not np.array_equal(fields.eta, fields.theta - self.params.alpha)

    def test_shared_noise(self):
        fields = initial_condition(
            self.mesh, self.params, amplitude=1.0, seed=5, shared_noise=True
        )
        # theta = alpha + r with the identical draw r used for eta
        assert np.array_equal(fields.theta, self.params.alpha + fields.eta)

    def test_zero_amplitude_is_exact_equilibrium(self):
        fields = initial_condition(self.mesh, self.params, amplitude=0.0, seed=9)
        assert np.all(fields.eta == 0.0)
        assert np.all(fields.theta == self.params.alpha)

    def test_negative_amplitude_rejected(self):
        for amplitude in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="amplitude must be at least 0 and a finite number"):
                initial_condition(self.mesh, self.params, amplitude=amplitude)
