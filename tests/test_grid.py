import re

import numpy as np
import pytest

from driftbound import (
    ScalarField,
    TorusGrid,
    VectorField,
    build_field,
    gradient,
    heat_semigroup,
    integrate,
    laplacian,
    lp_norm,
    read_field,
    write_field,
)
from driftbound import _convert, _pocketfft
from driftbound import grid as grid_module
from driftbound.grid import irfftn, rfftn
from conftest import random_band_limited


def sin_x1(grid):
    return ScalarField.from_function(
        grid, lambda *xs: np.sin(2 * np.pi * np.broadcast_to(xs[0], grid.shape))
    )


class TestTorusGrid:
    def test_quadrature_weights_sum_to_one(self):
        for dim in (1, 2, 3):
            grid = TorusGrid(dim, 16)
            assert grid.cell_volume * grid.size == pytest.approx(1.0, abs=1e-15)

    def test_coordinates_start_at_minus_half(self):
        grid = TorusGrid(2, 8)
        axis = grid.axis_coordinates()
        assert axis[0] == -0.5
        assert axis[1] == -0.5 + grid.spacing

    @pytest.mark.parametrize("dim,n", [(0, 16), (4, 16), (1, 7), (1, 15), (1, 4)])
    def test_rejects_bad_parameters(self, dim, n):
        with pytest.raises(ValueError):
            TorusGrid(dim, n)

    def test_rejects_nonfinite_field(self, grid1d):
        values = np.zeros(grid1d.shape)
        values[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ScalarField(grid1d, values)


class TestTransforms:
    # up to 64^3 (2^18 points), the largest grid verify is run on
    @pytest.mark.parametrize("shape", [(64,), (24, 24), (32,) * 3, (48,) * 3, (64,) * 3])
    def test_bitwise_scipy_fft(self, shape):
        import scipy.fft

        values = np.random.default_rng(3).standard_normal(shape)
        spectrum = rfftn(values)
        assert spectrum.tobytes() == scipy.fft.rfftn(values).tobytes()
        assert irfftn(spectrum, shape).tobytes() == scipy.fft.irfftn(spectrum, s=shape).tobytes()

    def test_thread_count_is_explicit(self, monkeypatch):
        # Every kernel call passes 1 thread, below and above 2^16 points and on
        # the slab path, however many CPUs the process may use: pocketfft
        # reads 0 threads as the OpenMP default.  grid reads no CPU count;
        # were it to import one, it would read 2 here.
        threads = []

        class RecordingKernel:
            def __getattr__(self, name):
                def transform(*args):
                    threads.append(args[-1])
                    return getattr(kernel, name)(*args)

                return transform

        kernel = _pocketfft.kernel
        for module in (_convert, grid_module):
            monkeypatch.setattr(module, "usable_cpus", lambda: 2, raising=False)
        monkeypatch.setattr(_pocketfft, "kernel", RecordingKernel())
        rng = np.random.default_rng(5)
        for n in (32, 64):
            values = rng.standard_normal((n,) * 3)
            irfftn(rfftn(values), values.shape)
        assert threads == [1] * 4
        grid = TorusGrid(3, 64)
        slab = np.empty(grid.spectral_shape[:-1] + (grid.n // 3 + 1,), dtype=complex)
        scratch = np.empty(grid.spectral_shape, dtype=complex)
        padded = np.zeros(grid.spectral_shape, dtype=complex)
        rfftn(values, out=slab, scratch=scratch)
        irfftn(slab, grid.shape, out=np.empty(grid.shape), padded=padded)
        # r2c and c2c forward, c2c and c2r back
        assert threads == [1] * 8

    @pytest.mark.parametrize("n", [8, 24, 32, 48])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_slab_transforms_are_the_masked_full_ones(self, dim, n):
        grid = TorusGrid(dim, n)
        lines = n // 3 + 1
        slab_shape = grid.spectral_shape[:-1] + (lines,)
        mask = grid.dealias_mask
        scratch = np.empty(grid.spectral_shape, dtype=complex)
        padded = np.zeros(grid.spectral_shape, dtype=complex)
        out = np.empty(slab_shape, dtype=complex)
        component = np.empty(grid.shape)
        rng = np.random.default_rng(n + dim)
        # twice on the same buffers: padded must stay zero beyond the slab
        for _ in range(2):
            values = rng.standard_normal(grid.shape)
            full = rfftn(values)
            assert rfftn(values, out=out, scratch=scratch) is out
            assert out.tobytes() == np.ascontiguousarray(full[..., :lines]).tobytes()
            out *= mask[..., :lines]
            masked = full * mask
            assert out.tobytes() == np.ascontiguousarray(masked[..., :lines]).tobytes()

            slab = out.copy()
            result = irfftn(slab, grid.shape, out=component, padded=padded)
            assert result is component
            assert component.tobytes() == irfftn(masked, grid.shape).tobytes()
            assert not padded[..., lines:].any()

    def test_slab_buffers_are_checked(self):
        grid = TorusGrid(2, 24)
        values = np.zeros(grid.shape)
        scratch = np.empty(grid.spectral_shape, dtype=complex)
        padded = np.zeros(grid.spectral_shape, dtype=complex)
        slab = np.zeros((24, 9), dtype=complex)
        with pytest.raises(ValueError, match="out must be"):
            rfftn(values, out=np.empty((24, 14), dtype=complex), scratch=scratch)
        with pytest.raises(ValueError, match="scratch must be"):
            rfftn(values, out=slab)
        with pytest.raises(ValueError, match="out must be"):
            rfftn(values, scratch=scratch)
        with pytest.raises(ValueError, match="out must be"):
            irfftn(slab, grid.shape, out=np.empty((24, 23)), padded=padded)
        with pytest.raises(ValueError, match="padded must be"):
            irfftn(slab, grid.shape, out=values, padded=padded.astype(np.complex64))
        with pytest.raises(ValueError, match="out must be"):
            irfftn(slab, grid.shape, padded=padded)
        with pytest.raises(ValueError, match="spectrum must be"):
            irfftn(slab.real, grid.shape, out=values, padded=padded)


class TestIntegrate:
    def test_unit_volume(self, grid3d):
        assert integrate(ScalarField.full(grid3d, 1.0)) == pytest.approx(1.0, abs=1e-14)

    def test_zero_mean_mode(self, grid2d):
        assert integrate(sin_x1(grid2d)) == pytest.approx(0.0, abs=1e-14)

    def test_cos_squared(self):
        # analytic integral of cos^2(2 pi x) over one period is 1/2; the
        # trapezoid-on-torus rule hits it exactly for this low mode
        grid = TorusGrid(1, 16)
        f = ScalarField.from_function(grid, lambda x: np.cos(2 * np.pi * x) ** 2)
        assert integrate(f) == pytest.approx(0.5, abs=1e-14)


class TestGradient:
    def test_constant_has_zero_gradient(self, grid2d):
        g = gradient(ScalarField.full(grid2d, 3.7))
        for c in g.components:
            assert np.abs(c.values).max() < 1e-13

    def test_single_mode(self, grid2d):
        g = gradient(sin_x1(grid2d))
        x1 = np.broadcast_to(grid2d.coordinates[0], grid2d.shape)
        expected = 2 * np.pi * np.cos(2 * np.pi * x1)
        assert np.abs(g.components[0].values - expected).max() < 1e-12
        assert np.abs(g.components[1].values).max() < 1e-12

    def test_matches_centered_difference_at_second_order(self):
        # oracle: the centered stencil converges at O(h^2), so the gap
        # between it and the spectral derivative must shrink by ~4x per
        # grid doubling on a smooth non-band-limited function
        gaps = []
        for n in (32, 64, 128):
            grid = TorusGrid(1, n)
            f = ScalarField.from_function(grid, lambda x: np.exp(np.sin(2 * np.pi * x)))
            spectral = gradient(f).components[0].values
            stencil = (np.roll(f.values, -1) - np.roll(f.values, 1)) / (2 * grid.spacing)
            gaps.append(np.abs(spectral - stencil).max())
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 3.0 < coarse / fine < 5.0


class TestLaplacian:
    def test_eigenfunction(self, grid1d):
        f = sin_x1(grid1d)
        out = laplacian(f)
        assert np.abs(out.values + 4 * np.pi**2 * f.values).max() < 1e-10

    def test_constant(self, grid3d):
        out = laplacian(ScalarField.full(grid3d, 1.0))
        assert np.abs(out.values).max() < 1e-12

class TestHeatSemigroup:
    def test_eigenfunction_decay(self, grid1d):
        f = sin_x1(grid1d)
        out = heat_semigroup(f, 0.01)
        assert np.abs(out.values - np.exp(-4 * np.pi**2 * 0.01) * f.values).max() < 1e-14

    def test_zero_time_is_identity(self, grid2d, rng):
        f = random_band_limited(grid2d, rng)
        out = heat_semigroup(f, 0.0)
        assert np.array_equal(out.values, f.values)

    def test_semigroup_law(self, grid2d, rng):
        f = random_band_limited(grid2d, rng)
        once = heat_semigroup(f, 0.003)
        twice = heat_semigroup(heat_semigroup(f, 0.001), 0.002)
        assert np.abs(once.values - twice.values).max() < 1e-13

    def test_negative_time_rejected(self, grid1d):
        with pytest.raises(ValueError):
            heat_semigroup(ScalarField.zeros(grid1d), -1e-3)

    @pytest.mark.parametrize("p", [1, 2, np.inf])
    def test_contraction_in_lp(self, grid2d, rng, p):
        f = random_band_limited(grid2d, rng)
        for eps in (1e-4, 1e-3, 1e-2):
            assert lp_norm(heat_semigroup(f, eps), p) <= lp_norm(f, p) * (1 + 1e-12)

    def test_mean_preservation(self, grid3d, rng):
        f = random_band_limited(grid3d, rng)
        before = integrate(f)
        after = integrate(heat_semigroup(f, 0.005))
        assert after == pytest.approx(before, rel=1e-12, abs=1e-12)


class TestLpNorm:
    def test_constant(self, grid2d):
        assert lp_norm(ScalarField.full(grid2d, 2.0), 4) == pytest.approx(2.0, rel=1e-14)

    def test_alternating_sign(self, grid1d):
        values = np.ones(grid1d.shape)
        values[::2] = -1.0
        assert lp_norm(ScalarField(grid1d, values), 2) == pytest.approx(1.0, rel=1e-14)

    def test_nondecreasing_in_p(self, grid2d, rng):
        f = random_band_limited(grid2d, rng)
        norms = [lp_norm(f, p) for p in (1, 2, 4, 8)]
        for lo, hi in zip(norms, norms[1:]):
            assert hi >= lo - 1e-12

    def test_rejects_p_below_one(self, grid1d):
        with pytest.raises(ValueError):
            lp_norm(ScalarField.zeros(grid1d), 0.5)


def test_parseval(grid2d, rng):
    f = random_band_limited(grid2d, rng, kmax=grid2d.n // 4)
    coeffs = np.fft.fftn(f.values) / f.grid.size
    spectral = float(np.sum(np.abs(coeffs) ** 2))
    physical = integrate(ScalarField(grid2d, f.values**2))
    assert abs(spectral - physical) < 1e-12 * physical


class TestFieldIO:
    @pytest.mark.parametrize("fmt,suffix", [("binary", ".bin"), ("csv", ".csv")])
    def test_scalar_roundtrip(self, tmp_path, grid2d, rng, fmt, suffix):
        f = random_band_limited(grid2d, rng)
        path = tmp_path / f"field{suffix}"
        write_field(path, f)
        back = read_field(path)
        assert isinstance(back, ScalarField)
        assert back.grid == grid2d
        if fmt == "binary":
            assert np.array_equal(back.values, f.values)
        else:
            assert np.abs(back.values - f.values).max() < 1e-15

    def test_vector_roundtrip(self, tmp_path, grid2d, rng):
        v = VectorField(
            grid2d,
            tuple(random_band_limited(grid2d, rng) for _ in range(grid2d.dim)),
        )
        path = tmp_path / "vec.bin"
        write_field(path, v)
        back = read_field(path)
        assert isinstance(back, VectorField)
        for mine, theirs in zip(v.components, back.components):
            assert np.array_equal(mine.values, theirs.values)

    @pytest.mark.parametrize("size", [0, 3])
    def test_file_shorter_than_header_rejected(self, tmp_path, size):
        path = tmp_path / "short.bin"
        path.write_bytes(b"\x00" * size)
        with pytest.raises(ValueError, match=re.escape(f"{path} holds {size} bytes")):
            read_field(path)

    def test_corrupt_count_rejected(self, tmp_path, grid1d):
        path = tmp_path / "bad.bin"
        write_field(path, ScalarField.zeros(grid1d))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="values"):
            read_field(path)


class TestBuildField:
    def test_scalar_file_datum(self, tmp_path, grid2d):
        f = build_field(grid2d, "trig", [[0.5, [1, 0]]], "terms")
        path = tmp_path / "f.bin"
        write_field(path, f)
        assert np.array_equal(build_field(grid2d, "file", str(path), "path").values, f.values)

    def test_errors_name_the_source_key(self, tmp_path, grid2d):
        path = tmp_path / "b.bin"
        write_field(path, VectorField.zeros(grid2d))
        with pytest.raises(ValueError, match="path .* expected a scalar field with d=2, n=32"):
            build_field(grid2d, "file", str(path), "path")
        with pytest.raises(ValueError, match="path .* expected a vector field with d=2, n=16"):
            build_field(TorusGrid(2, 16), "file", str(path), "path", vector=True)
        with pytest.raises(ValueError, match="expected 2 components, got 3"):
            build_field(grid2d, "constant", [1.0, 0.0, 0.0], "vector", vector=True)
        with pytest.raises(ValueError, match="vector must be a number, got True"):
            build_field(grid2d, "constant", [1.0, True], "vector", vector=True)
        with pytest.raises(ValueError, match=re.escape("kind must be constant|trig|file")):
            build_field(grid2d, "hardy", None, "path")
