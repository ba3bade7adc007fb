import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbound import ACOSH2, ScalarField, TorusGrid, lp_norm, modular, orlicz_norm, phi
from conftest import random_band_limited

# <cosh(sin(2 pi x)) - 1> over one period = I0(1) - 1 (modified Bessel);
# frozen from scipy.integrate.quad of cosh(sin(2 pi x)) - 1 on [0, 1]
MODULAR_SIN_AT_C1 = 0.2660658777520084

COSH1_MINUS_1 = 0.5430806348152437


class TestPhi:
    def test_zero(self):
        assert phi(0.0) == 0.0

    def test_unit_level(self):
        assert phi(ACOSH2) == pytest.approx(1.0, abs=1e-14)

    def test_quadratic_lower_bound(self):
        y = np.linspace(-30, 30, 2001)
        assert np.all(phi(y) >= y**2 / 2 - 1e-12)

    def test_overflow_saturates_with_warning(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert phi(800.0) == math.inf


class TestModular:
    def test_constant_field_at_its_own_scale(self, grid2d):
        f = ScalarField.full(grid2d, 1.7)
        assert modular(f, 1.7) == pytest.approx(COSH1_MINUS_1, rel=1e-13)

    def test_vanishes_for_large_scale(self, grid2d, rng):
        f = random_band_limited(grid2d, rng)
        assert modular(f, 1e3 * lp_norm(f, np.inf)) < 1e-5

    def test_against_quadrature_oracle(self):
        grid = TorusGrid(1, 256)
        f = ScalarField.from_function(grid, lambda x: np.sin(2 * np.pi * x))
        value = modular(f, 1.0)
        assert value == pytest.approx(MODULAR_SIN_AT_C1, abs=1e-10)
        # re-derive the frozen value from the live quadrature oracle
        from scipy.integrate import quad

        oracle, err = quad(lambda x: np.cosh(np.sin(2 * np.pi * x)) - 1.0, 0.0, 1.0)
        assert err < 1e-9
        assert oracle == pytest.approx(MODULAR_SIN_AT_C1, abs=1e-11)

    def test_decreasing_in_scale(self, grid1d, rng):
        f = random_band_limited(grid1d, rng)
        scales = np.geomspace(0.1, 10, 8)
        values = [modular(f, c) for c in scales]
        for hi, lo in zip(values, values[1:]):
            assert hi > lo

    def test_rejects_nonpositive_scale(self, grid1d):
        with pytest.raises(ValueError):
            modular(ScalarField.zeros(grid1d), 0.0)


class TestOrliczNorm:
    def test_constant_closed_form(self, grid3d):
        for a in (0.3, 1.0, 7.5):
            f = ScalarField.full(grid3d, a)
            norm = orlicz_norm(f)
            assert norm == pytest.approx(a / math.log(2 + math.sqrt(3)), rel=1e-9)
            assert modular(f, norm) <= 1.0 + 1e-12

    def test_zero_field(self, grid1d):
        assert orlicz_norm(ScalarField.zeros(grid1d)) == 0.0

    def test_bracket_validity(self, grid2d, rng):
        for _ in range(10):
            f = random_band_limited(grid2d, rng, amplitude=rng.uniform(0.1, 20))
            lo = lp_norm(f, 2) / 2
            hi = lp_norm(f, np.inf) / ACOSH2
            assert modular(f, lo) >= 1.0
            assert modular(f, hi) <= 1.0 + 1e-12

    def test_lp_lower_bound(self, grid2d):
        # <cosh - 1> >= y^(2p)/(2p)! termwise gives ||.||_Phi >= ||.||_2p/(2p)!
        rng = np.random.default_rng(7)
        for i in range(100):
            f = random_band_limited(grid2d, rng, amplitude=rng.uniform(0.2, 5.0))
            norm = orlicz_norm(f)
            for p in (1, 2, 3):
                bound = lp_norm(f, 2 * p) / math.factorial(2 * p)
                assert norm >= bound - 1e-12, f"field {i}, p={p}"

    @settings(max_examples=20, deadline=None)
    @given(
        scale=st.sampled_from([-2.0, 0.5, 10.0]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_homogeneity(self, scale, seed):
        grid = TorusGrid(1, 32)
        f = random_band_limited(grid, np.random.default_rng(seed))
        tol = 1e-10
        base = orlicz_norm(f, tol=tol)
        scaled = orlicz_norm(ScalarField(grid, scale * f.values), tol=tol)
        assert scaled == pytest.approx(abs(scale) * base, rel=5 * tol, abs=1e-14)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_triangle_inequality(self, seed):
        grid = TorusGrid(1, 32)
        rng = np.random.default_rng(seed)
        f = random_band_limited(grid, rng)
        g = random_band_limited(grid, rng)
        tol = 1e-10
        total = orlicz_norm(ScalarField(grid, f.values + g.values), tol=tol)
        assert total <= orlicz_norm(f, tol=tol) + orlicz_norm(g, tol=tol) + 2 * tol

    def test_pointwise_monotonicity(self, grid2d, rng):
        tol = 1e-10
        for _ in range(10):
            f = random_band_limited(grid2d, rng)
            envelope = 1.0 + np.abs(random_band_limited(grid2d, rng).values)
            g = ScalarField(grid2d, f.values * envelope)
            assert orlicz_norm(f, tol=tol) <= orlicz_norm(g, tol=tol) + tol

    def test_value_zero_iff_zero_field(self, grid1d):
        tiny = ScalarField.full(grid1d, 1e-12)
        assert orlicz_norm(tiny) > 0.0

    def test_rejects_bad_tol(self, grid1d):
        with pytest.raises(ValueError):
            orlicz_norm(ScalarField.zeros(grid1d), tol=0.0)
