import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import driftbound
from driftbound import (
    DriftSpec,
    ScalarField,
    TorusGrid,
    VectorField,
    build_drift,
    form_bound_estimate,
    gradient,
    hardy_coefficient,
    heat_semigroup,
    integrate,
    mollify_drift,
    verify_form_bound,
    write_field,
    zeroth_order_constant,
)
from driftbound.grid import irfftn, rfftn
from conftest import random_band_limited, random_trials


def hardy(grid, delta=4.0, **kwargs):
    return build_drift(DriftSpec(kind="hardy", delta=delta, sign=-1, **kwargs), grid)


def mean_sq(b):
    return b.grid.cell_volume * float(b.magnitude_squared().sum())


def test_mean_square_is_the_integral_of_the_squared_magnitude(grid3d):
    b = hardy(grid3d)
    assert b.mean_square() == integrate(ScalarField(grid3d, b.magnitude_squared()))


class TestBuildDrift:
    def test_constant(self, grid3d):
        b = build_drift(DriftSpec(kind="constant", vector=(0.7, 0.0, 0.0)), grid3d)
        assert np.all(b.components[0].values == 0.7)
        assert np.all(b.components[1].values == 0.0)

    def test_hardy_magnitude_on_axis(self):
        grid = TorusGrid(3, 64)
        b = hardy(grid)
        mag = np.sqrt(b.magnitude_squared())
        mid = grid.n // 2  # index of x = 0
        core = 2 * grid.spacing
        for j in range(grid.n):
            x = -0.5 + j * grid.spacing
            if core < x < 0.2 / 2:
                expected = math.sqrt(4.0) * (3 - 2) / (2 * x)
                assert mag[j, mid, mid] == pytest.approx(expected, rel=1e-12)

    def test_core_radius_only_changes_the_core(self):
        grid = TorusGrid(3, 32)
        h = grid.spacing
        wide = hardy(grid, core_radius=2 * h)
        narrow = hardy(grid, core_radius=h)
        coords = grid.coordinates
        r = np.sqrt(sum(np.broadcast_to(x, grid.shape) ** 2 for x in coords))
        outside = r > 2 * h
        for cw, cn in zip(wide.components, narrow.components):
            assert np.array_equal(cw.values[outside], cn.values[outside])
            assert not np.array_equal(cw.values[~outside], cn.values[~outside])

    def test_hardy_rejected_in_1d(self, grid1d):
        with pytest.raises(ValueError, match="dim"):
            hardy(grid1d)

    def test_hardy_coefficient(self):
        assert hardy_coefficient(4.0, 3, -1) == -1.0
        assert hardy_coefficient(2.25, 3, 1) == 0.75
        # (d - 2)/2 is 0 in 2D, where the drift would be b = 0
        for dim in (1, 2):
            with pytest.raises(ValueError, match=f"needs dim >= 3, got dim {dim}"):
                hardy_coefficient(4.0, dim, -1)
            with pytest.raises(ValueError, match=f"needs dim >= 3, got dim {dim}"):
                hardy(TorusGrid(dim, 8))

    def test_file_roundtrip_and_grid_mismatch(self, tmp_path, grid2d):
        b = build_drift(DriftSpec(kind="constant", vector=(1.0, 2.0)), grid2d)
        path = tmp_path / "drift.bin"
        write_field(path, b)
        again = build_drift(DriftSpec(kind="file", path=str(path)), grid2d)
        for mine, theirs in zip(b.components, again.components):
            assert np.array_equal(mine.values, theirs.values)
        other = TorusGrid(2, 64)
        with pytest.raises(ValueError, match="does not match"):
            build_drift(DriftSpec(kind="file", path=str(path)), other)

    def test_trig_component_convention(self, grid2d):
        spec = DriftSpec(kind="trig", components=[[(0.5, (1, 0))], []])
        b = build_drift(spec, grid2d)
        x1 = np.broadcast_to(grid2d.coordinates[0], grid2d.shape)
        assert np.abs(b.components[0].values - 0.5 * np.cos(2 * np.pi * x1)).max() < 1e-14
        assert np.all(b.components[1].values == 0.0)


class TestMollifyDrift:
    def test_constant_unchanged(self, grid2d):
        b = build_drift(DriftSpec(kind="constant", vector=(2.0, -1.0)), grid2d)
        for eps in (0.0, 1e-3, 1e-1):
            out = mollify_drift(b, eps)
            for mine, theirs in zip(b.components, out.components):
                assert np.abs(mine.values - theirs.values).max() < 1e-12

    def test_l2_convergence_to_parent(self):
        grid = TorusGrid(3, 32)
        b = hardy(grid)
        gaps = []
        for eps in (1e-2, 1e-3, 1e-4):
            be = mollify_drift(b, eps)
            diff = sum(
                (m.values - t.values) ** 2 for m, t in zip(b.components, be.components)
            )
            gaps.append(math.sqrt(grid.cell_volume * diff.sum()))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_pointwise_domination_in_quadratic_mean(self, grid3d, rng):
        # |b_eps|^2 <= E_eps |b|^2 integrated against phi^2
        b = hardy(grid3d)
        smoothed_sq = heat_semigroup(ScalarField(grid3d, b.magnitude_squared()), 1e-2)
        b_eps = mollify_drift(b, 1e-2)
        for phi in random_trials(grid3d, rng, 5, kmax=6):
            lhs = integrate(ScalarField(grid3d, b_eps.magnitude_squared() * phi.values**2))
            rhs = integrate(ScalarField(grid3d, smoothed_sq.values * phi.values**2))
            assert lhs <= rhs + 1e-10 * max(abs(rhs), 1.0)

    def test_negative_eps_rejected(self, grid2d):
        with pytest.raises(ValueError):
            mollify_drift(VectorField.zeros(grid2d), -1e-4)


def dense_dirichlet(grid):
    """The discrete Dirichlet form L as a dense symmetric matrix."""
    sym = grid.dirichlet_symbol
    L = np.empty((grid.size, grid.size))
    eye = np.eye(grid.size)
    for j in range(grid.size):
        L[:, j] = irfftn(rfftn(eye[j].reshape(grid.shape)) * sym, grid.shape).ravel()
    return 0.5 * (L + L.T)


def dense_top_eigenvalue(grid, b_sq_flat, c):
    """Dense oracle for the mean-zero generalized eigenproblem (M - c, L)."""
    L = dense_dirichlet(grid)
    M = np.diag(b_sq_flat - c)
    w, V = np.linalg.eigh(L)
    keep = w > 1e-8
    basis = V[:, keep]
    vals = scipy.linalg.eigh(
        basis.T @ M @ basis, np.diag(w[keep]), eigvals_only=True
    )
    return vals[-1]


class TestFormBoundEstimate:
    def test_zero_drift_zero_budget(self, grid2d):
        cert = form_bound_estimate(VectorField.zeros(grid2d), [0.0])[0]
        assert cert.feasible
        assert cert.delta_hat == 0.0
        # a budget at or above max|b|^2 needs no eigen-solve
        assert cert.converged and cert.iterations == 0 and cert.witness is None

    def test_constant_drift_exact_budget(self, grid2d):
        beta = 1.5
        b = build_drift(DriftSpec(kind="constant", vector=(beta, 0.0)), grid2d)
        cert = form_bound_estimate(b, [beta**2])[0]
        assert cert.delta_hat <= 1e-10

    def test_infeasible_budget_reported(self, grid2d):
        b = build_drift(DriftSpec(kind="constant", vector=(1.0, 0.0)), grid2d)
        cert = form_bound_estimate(b, [0.5])[0]
        assert not cert.feasible
        assert math.isinf(cert.delta_hat)
        assert cert.witness is None

    def test_matches_dense_eigensolver_oracle(self):
        grid = TorusGrid(1, 16)
        rng = np.random.default_rng(5)
        comp = random_band_limited(grid, rng, kmax=4, amplitude=2.0)
        b = VectorField(grid, (comp,))
        c = 2.0 * mean_sq(b)
        oracle = dense_top_eigenvalue(grid, b.magnitude_squared().ravel(), c)
        cert = form_bound_estimate(b, [c], rq_tol=1e-13, max_iter=20000)[0]
        assert cert.delta_hat == pytest.approx(oracle, rel=1e-8)

    def test_matches_dense_oracle_3d(self):
        grid = TorusGrid(3, 8)
        b = hardy(grid, cutoff_radius=0.35, core_radius=0.1)
        c = 2.0 * mean_sq(b)
        oracle = dense_top_eigenvalue(grid, b.magnitude_squared().ravel(), c)
        cert = form_bound_estimate(b, [c], rq_tol=1e-13, max_iter=20000)[0]
        assert cert.delta_hat == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("max_iter", [1, 2, 7])
    def test_stops_honestly_at_the_iteration_budget(self, max_iter):
        grid = TorusGrid(3, 8)
        b = hardy(grid, cutoff_radius=0.35, core_radius=0.1)
        # below rounding: the budget, not the tolerance, ends the loop
        cert = form_bound_estimate(b, [2.0 * mean_sq(b)], max_iter=max_iter, rq_tol=1e-30)[0]
        assert cert.feasible and not cert.converged
        assert cert.iterations == max_iter
        assert cert.residual > 1e-30

    def test_witness_nearly_attains_the_bound(self):
        grid = TorusGrid(3, 32)
        b = hardy(grid)
        c = 2.0 * mean_sq(b)
        cert = form_bound_estimate(b, [c])[0]
        violation = verify_form_bound(b, cert.delta_hat, cert.c_delta, [cert.witness])
        scale = integrate(
            ScalarField(grid, b.magnitude_squared() * cert.witness.values**2)
        )
        assert violation <= 1e-8 * scale

    def test_delta_hat_nonincreasing_in_budget(self):
        grid = TorusGrid(3, 32)
        b = hardy(grid)
        m = mean_sq(b)
        certs = form_bound_estimate(b, [1.2 * m, 2 * m, 4 * m, 8 * m])
        values = [c.delta_hat for c in certs]
        for hi, lo in zip(values, values[1:]):
            assert lo <= hi + 1e-10

    def test_default_budgets_are_multiples_of_the_mean_square(self):
        b = hardy(TorusGrid(3, 16))
        defaults = form_bound_estimate(b)
        given = form_bound_estimate(b, [k * b.mean_square() for k in (1.2, 2, 4, 8)])
        assert len(defaults) == len(given) == 4
        for cert, other in zip(defaults, given):
            assert cert.to_json() == other.to_json()
            assert cert.rayleigh_quotient == other.rayleigh_quotient
            assert np.array_equal(cert.witness.values, other.witness.values)

    def test_sign_does_not_matter(self):
        grid = TorusGrid(3, 32)
        attract = build_drift(DriftSpec(kind="hardy", delta=4.0, sign=-1), grid)
        repel = build_drift(DriftSpec(kind="hardy", delta=4.0, sign=1), grid)
        c = 2.0 * mean_sq(attract)
        cert_a = form_bound_estimate(attract, [c])[0]
        cert_r = form_bound_estimate(repel, [c])[0]
        assert cert_a.delta_hat == pytest.approx(cert_r.delta_hat, rel=1e-8)

    def test_random_trials_never_beat_delta_hat(self, rng):
        # delta_hat is the supremum over mean-zero fields, so the Rayleigh
        # quotient of any mean-zero trial must stay below it
        grid = TorusGrid(2, 32)
        comp0 = random_band_limited(grid, rng, kmax=6, amplitude=2.0)
        comp1 = random_band_limited(grid, rng, kmax=6, amplitude=2.0)
        b = VectorField(grid, (comp0, comp1))
        c = 1.5 * mean_sq(b)
        cert = form_bound_estimate(b, [c], rq_tol=1e-12)[0]
        b_sq = b.magnitude_squared()
        for phi in random_trials(grid, rng, 20, kmax=10, zero_mean=True):
            values = phi.values - phi.values.mean()
            num = grid.cell_volume * float(((b_sq - c) * values**2).sum())
            grad = gradient(ScalarField(grid, values))
            den = grid.cell_volume * float(grad.magnitude_squared().sum())
            assert num / den <= cert.delta_hat + max(cert.residual, 1e-9)


class TestZerothOrderConstant:
    @pytest.mark.parametrize("case", ["hardy-3d-n8", "band-limited-2d-n16"])
    def test_matches_dense_top_eigenvalue(self, case):
        if case == "hardy-3d-n8":
            grid, delta = TorusGrid(3, 8), 4.0
            b = hardy(grid, cutoff_radius=0.35, core_radius=0.1)
        else:
            grid, delta = TorusGrid(2, 16), 1.0
            rng = np.random.default_rng(8)
            b = VectorField(
                grid,
                tuple(random_band_limited(grid, rng, kmax=4, amplitude=3.0) for _ in range(2)),
            )
        dense = np.diag(b.magnitude_squared().ravel()) - delta * dense_dirichlet(grid)
        values = np.linalg.eigh(dense)[0]
        # the top eigenvalue is simple, so the test tells it from the others
        assert values[-1] - values[-2] > 1e-6 * abs(values[-1])
        assert zeroth_order_constant(b, delta) == pytest.approx(values[-1], rel=1e-8)

    def test_zero_drift(self, grid2d):
        assert zeroth_order_constant(VectorField.zeros(grid2d), 4.0) == 0.0

    def test_unreachable_tolerance_raises(self):
        b = hardy(TorusGrid(3, 8), cutoff_radius=0.35, core_radius=0.1)
        with pytest.raises(RuntimeError, match="eigen-solve"):
            zeroth_order_constant(b, 4.0, tol=1e-30)


# Prints the template's c(delta) and delta_hat sweep as reprs.  It first checks
# that the CLI's imports pull in neither scipy.sparse nor scipy.linalg, whose
# BLAS-backed code and import cost the eigen-engine does without.
BLAS_PROBE = """
import sys
import driftbound.cli
assert not {"scipy.sparse", "scipy.linalg"} & set(sys.modules), sorted(sys.modules)
from driftbound import DriftSpec, TorusGrid, build_drift, form_bound_estimate, zeroth_order_constant
grid = TorusGrid(3, 32)
b = build_drift(DriftSpec(kind="hardy", delta=4.0, sign=-1), grid)
m = grid.cell_volume * float(b.magnitude_squared().sum())
print(repr(zeroth_order_constant(b, 4.0)))
for cert in form_bound_estimate(b, [k * m for k in (1.2, 2.0, 4.0, 8.0)]):
    print(repr(cert.delta_hat), repr(cert.residual), cert.iterations, cert.converged)
"""


def test_eigen_engine_does_not_depend_on_the_blas_thread_count():
    src = str(Path(driftbound.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", BLAS_PROBE],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert len(outputs[0].splitlines()) == 5
    assert outputs[0] == outputs[1]


# Runs sde and norm, then verify, on a 16^3 config in one fresh process.  sde
# and norm make no FFT and must leave scipy.fft unloaded; verify then makes
# its first FFT on a pool thread (the delta_hat sweep) and on the calling
# thread (c(delta)) at once, so both may reach the import together.
FFT_KERNEL_PROBE = """
import sys
from driftbound import cli
data = {
    "grid": {"dim": 3, "n": 16},
    "drift": {"kind": "hardy", "delta": 4.0, "sign": -1, "core_radius": 0.125},
    "mollification": {"schedule": [1e-2, 2.5e-3]},
    "solver": {"dt": 1e-3, "t_final": 0.02, "snapshot_stride": 5},
    "sde": {"n_paths": 1000, "dt": 1e-4, "deltas": [0.5, 36.0]},
}
for name in ("sde", "norm"):
    assert cli.run(name, data, output_dir=sys.argv[1]) == 0, name
    assert "driftbound._pocketfft" not in sys.modules, name
    scipy = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
    assert not scipy, (name, scipy)
assert cli.run("verify", data, output_dir=sys.argv[1]) == 0
assert sys.modules["driftbound._pocketfft"].kernel.__name__ == "driftbound.pypocketfft"
for name in ("scipy.fft", "scipy.special", "scipy._lib._array_api"):
    assert name not in sys.modules, name
"""


def test_fft_kernel_loads_on_the_first_fft_without_scipy_fft(tmp_path):
    src = str(Path(driftbound.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", FFT_KERNEL_PROBE, str(tmp_path / "run")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr


class TestVerifyFormBound:
    def test_zero_drift_never_violates(self, grid2d, rng):
        b = VectorField.zeros(grid2d)
        trials = random_trials(grid2d, rng, 10)
        assert verify_form_bound(b, 0.5, 0.5, trials) <= 0.0

    def test_empty_trials_rejected(self, grid2d):
        with pytest.raises(ValueError, match="nonempty"):
            verify_form_bound(VectorField.zeros(grid2d), 1.0, 1.0, [])

    def test_mollified_drift_keeps_parent_certificate(self):
        grid = TorusGrid(3, 32)
        b = hardy(grid)
        c = 2.0 * mean_sq(b)
        cert = form_bound_estimate(b, [c])[0]
        rng = np.random.default_rng(99)
        trials = random_trials(grid, rng, 100, kmax=8)
        for eps in (1e-2, 1e-3, 1e-4):
            b_eps = mollify_drift(b, eps)
            violation = verify_form_bound(b_eps, cert.delta_hat, cert.c_delta, trials)
            scales = [
                integrate(ScalarField(grid, b_eps.magnitude_squared() * t.values**2))
                for t in trials
            ]
            assert violation <= 1e-8 * max(max(scales), 1.0)

    def test_mollifier_monotone_per_trial(self, grid3d, rng):
        # whenever the parent satisfies the bound on a trial, so does b_eps
        b = hardy(grid3d)
        c = 2.0 * mean_sq(b)
        cert = form_bound_estimate(b, [c])[0]
        trials = random_trials(grid3d, rng, 20, kmax=6)
        parent = [
            verify_form_bound(b, cert.delta_hat, cert.c_delta, [t]) for t in trials
        ]
        for eps in (1e-2, 1e-3):
            b_eps = mollify_drift(b, eps)
            for t, parent_violation in zip(trials, parent):
                v = verify_form_bound(b_eps, cert.delta_hat, cert.c_delta, [t])
                assert v <= max(parent_violation, 0.0) + 1e-9
