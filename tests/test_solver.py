import math
from collections import Counter
from functools import partial

import numpy as np
import pytest

from driftbound import (
    DriftSpec,
    ScalarField,
    SolverConfig,
    TorusGrid,
    VectorField,
    build_drift,
    mollify_drift,
    solve,
)
from driftbound import solver as solver_module
from driftbound.grid import irfftn, rfftn
from driftbound.orlicz import orlicz_norm
from driftbound.verify import check_orlicz_contraction


def sin_mode(grid):
    return ScalarField.from_function(
        grid, lambda *xs: np.sin(2 * np.pi * np.broadcast_to(xs[0], grid.shape))
    )


def constant_drift(grid, beta=1.0):
    vec = (beta,) + (0.0,) * (grid.dim - 1)
    return build_drift(DriftSpec(kind="constant", vector=vec), grid)


def mollified_hardy16():
    grid = TorusGrid(3, 16)
    b = build_drift(DriftSpec(kind="hardy", delta=4.0, sign=-1, core_radius=0.125), grid)
    return grid, mollify_drift(b, 3e-3)


class TestSolveAnalytic:
    def test_pure_diffusion_eigenfunction(self, grid1d):
        f = sin_mode(grid1d)
        cfg = SolverConfig(dt=1e-4, t_final=0.1, snapshot_stride=200)
        traj = solve(VectorField.zeros(grid1d), f, cfg)
        x = grid1d.axis_coordinates()
        exact = math.exp(-4 * math.pi**2 * 0.1) * np.sin(2 * np.pi * x)
        assert np.abs(traj.snapshots[-1].values - exact).max() <= 1e-8

    def test_constant_drift_translates_and_decays(self, grid1d):
        f = sin_mode(grid1d)
        cfg = SolverConfig(dt=1e-4, t_final=0.1, snapshot_stride=200)
        traj = solve(constant_drift(grid1d), f, cfg)
        x = grid1d.axis_coordinates()
        exact = math.exp(-4 * math.pi**2 * 0.1) * np.sin(2 * np.pi * (x - 0.1))
        assert np.abs(traj.snapshots[-1].values - exact).max() <= 1e-8

    def test_heun_is_second_order(self, grid1d):
        f = sin_mode(grid1d)
        x = grid1d.axis_coordinates()
        exact = math.exp(-4 * math.pi**2 * 0.1) * np.sin(2 * np.pi * (x - 0.1))
        errors = []
        for dt in (2e-3, 1e-3, 5e-4):
            cfg = SolverConfig(dt=dt, t_final=0.1, snapshot_stride=10**6)
            traj = solve(constant_drift(grid1d), f, cfg)
            errors.append(np.abs(traj.snapshots[-1].values - exact).max())
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 < coarse / fine < 4.5

    def test_euler_is_first_order(self, grid1d):
        f = sin_mode(grid1d)
        x = grid1d.axis_coordinates()
        exact = math.exp(-4 * math.pi**2 * 0.1) * np.sin(2 * np.pi * (x - 0.1))
        errors = []
        for dt in (2e-3, 1e-3):
            cfg = SolverConfig(dt=dt, t_final=0.1, scheme="if_euler", snapshot_stride=10**6)
            traj = solve(constant_drift(grid1d), f, cfg)
            errors.append(np.abs(traj.snapshots[-1].values - exact).max())
        assert 1.7 < errors[0] / errors[1] < 2.3


class TestInvariants:
    def test_maximum_principle(self, grid1d):
        f = sin_mode(grid1d)
        for shift in (0.0, 2.0):
            cfg = SolverConfig(dt=2e-4, t_final=0.05, shift=shift, snapshot_stride=50)
            traj = solve(constant_drift(grid1d, 0.8), f, cfg)
            assert traj.diag["sup_u"].max() <= 1.0 + 1e-10

    def test_constant_datum_is_stationary(self, grid2d):
        f = ScalarField.full(grid2d, 0.4)
        cfg = SolverConfig(dt=1e-3, t_final=0.05, snapshot_stride=10)
        traj = solve(constant_drift(grid2d, 0.3), f, cfg)
        assert np.abs(traj.snapshots[-1].values - 0.4).max() < 1e-13
        assert traj.diag["sup_u"].max() <= 0.4 + 1e-12

    def test_energy_identity_pure_diffusion(self, grid1d):
        # d/dt <u^2> = -2 <|grad u|^2> discretely to O(dt^2)
        f = sin_mode(grid1d)
        gaps = []
        for dt in (2e-3, 1e-3):
            cfg = SolverConfig(dt=dt, t_final=0.02, snapshot_stride=10**6)
            traj = solve(VectorField.zeros(grid1d), f, cfg)
            mass = traj.diag["l2_u"] ** 2
            rate = (mass[2:] - mass[:-2]) / (2 * dt)
            gaps.append(np.abs(rate + 2 * traj.dirichlet_u[1:-1]).max())
        assert gaps[0] / gaps[1] > 3.0

    def test_snapshot_zero_is_bit_exact(self, grid1d):
        f = sin_mode(grid1d)
        cfg = SolverConfig(dt=1e-3, t_final=0.01, snapshot_stride=5)
        traj = solve(constant_drift(grid1d), f, cfg)
        assert np.array_equal(traj.snapshots[0].values, f.values)
        assert traj.times[0] == 0.0
        assert np.all(np.diff(traj.times) > 0)

    def test_grid_refinement_stability(self):
        # same continuum problem on n=16 and n=32: terminal diagnostics
        # within 1% for band-limited data and a fixed mollified Hardy drift
        terminal = {}
        for n in (16, 32):
            grid = TorusGrid(3, n)
            f = ScalarField.from_function(
                grid,
                lambda x, y, z: 0.5 * np.cos(2 * np.pi * np.broadcast_to(x, grid.shape)),
            )
            b = build_drift(
                DriftSpec(kind="hardy", delta=4.0, sign=-1, core_radius=0.125), grid
            )
            b_eps = mollify_drift(b, 3e-3)
            cfg = SolverConfig(dt=1e-3, t_final=0.05, snapshot_stride=50)
            traj = solve(b_eps, f, cfg)
            terminal[n] = (
                traj.diag["sup_u"][-1],
                traj.diag["l2_u"][-1],
                traj.diag["modular_u"][-1],
                traj.dirichlet_u[-1],
            )
        for coarse, fine in zip(terminal[16], terminal[32]):
            assert abs(coarse - fine) <= 0.01 * max(abs(fine), 1e-12)


    def test_shifted_solve_carries_the_unshifted_solution(self):
        # the integrating-factor scheme commutes with v = exp(-shift t) u, so
        # the u-columns and u-snapshots of a shifted solve equal a direct
        # shift = 0 solve up to rounding
        grid, b_eps = mollified_hardy16()
        f = ScalarField.from_function(
            grid,
            lambda x, y, z: 0.5 * np.cos(2 * np.pi * np.broadcast_to(x, grid.shape))
            + 0.25 * np.sin(2 * np.pi * np.broadcast_to(y + z, grid.shape)),
        )

        def run(shift):
            cfg = SolverConfig(dt=1e-3, t_final=0.04, shift=shift, snapshot_stride=10)
            return solve(b_eps, f, cfg)

        shifted, direct = run(2.5), run(0.0)

        def close(got, want):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        for name in direct.diag:
            if name.endswith("_u"):
                close(shifted.diag[name], direct.diag[name])
        close(shifted.dirichlet_u, direct.dirichlet_u)
        assert shifted.snapshot_indices == direct.snapshot_indices
        for i in range(len(direct.snapshots)):
            close(shifted.snapshot_u(i).values, direct.snapshot_u(i).values)

    def test_diagnostics_match_generic_power_formulas(self):
        # oracle: every per-step column recomputed at the snapshot steps from
        # the stored field with the plain ``**p`` formulas
        grid, b_eps = mollified_hardy16()
        f = ScalarField.from_function(
            grid, lambda x, y, z: 0.75 * np.cos(2 * np.pi * np.broadcast_to(x, grid.shape))
        )
        h_d = grid.cell_volume
        for shift in (0.0, 2.0):
            cfg = SolverConfig(
                dt=1e-3, t_final=0.02, shift=shift, snapshot_stride=5, p_list=(2, 4, 6)
            )
            traj = solve(b_eps, f, cfg)
            for i, k in enumerate(traj.snapshot_indices):
                v = traj.snapshots[i].values
                spectrum = rfftn(v)
                grad_sq = sum(irfftn(spectrum * g, grid.shape) ** 2 for g in grid.gradient_symbols)
                scale = math.exp(shift * traj.times[k])
                u, u_grad_sq = scale * v, scale**2 * grad_sq
                want = {
                    "sup_u": np.abs(u).max(),
                    "dirichlet_v": h_d * grad_sq.sum(),
                    "modular_u": h_d * (np.cosh(u) - 1.0).sum(),
                }
                for p in cfg.p_list:
                    exp_u = np.exp(u**p)
                    want[f"l{p}_u"] = (h_d * (np.abs(u) ** p).sum()) ** (1.0 / p)
                    want[f"exp_modular_p{p}_u"] = h_d * exp_u.sum()
                    want[f"exp_disp_p{p}_u"] = h_d * (
                        (p * p / 4.0) * u ** (p - 2) * u_grad_sq * exp_u
                    ).sum()
                    want[f"exp_gradexp_p{p}_u"] = h_d * (
                        (p * p / 4.0) * u ** (2 * p - 2) * u_grad_sq * exp_u
                    ).sum()
                assert sorted(want) == sorted(traj.diag)
                for name, value in want.items():
                    assert traj.diag[name][k] == pytest.approx(value, rel=1e-10), (shift, k, name)


def hardy16_light_case():
    grid, b_eps = mollified_hardy16()
    f = ScalarField.from_function(
        grid, lambda x, y, z: 0.75 * np.cos(2 * np.pi * np.broadcast_to(x, grid.shape))
    )
    return b_eps, f, SolverConfig(dt=1e-3, t_final=0.02, shift=2.0, snapshot_stride=5)


def euler1d_light_case():
    grid = TorusGrid(1, 64)
    cfg = SolverConfig(dt=1e-3, t_final=0.02, scheme="if_euler", snapshot_stride=6)
    return constant_drift(grid), sin_mode(grid), cfg


def aborting1d_light_case():
    # the unstable setting of test_nan_aborts_with_partial_trajectory
    grid = TorusGrid(1, 64)
    cfg = SolverConfig(dt=0.01, t_final=20.0, cfl_safety=1e6, snapshot_stride=10)
    return constant_drift(grid, 50.0), sin_mode(grid), cfg


class TestLightSolve:
    @pytest.mark.parametrize(
        "case", [hardy16_light_case, euler1d_light_case, aborting1d_light_case]
    )
    def test_light_solve_is_the_same_solve(self, case):
        b, f, cfg = case()
        full = solve(b, f, cfg)
        light = solve(b, f, cfg, diagnostics=False)
        assert list(light.diag) == ["dirichlet_v"]
        assert np.array_equal(light.diag["dirichlet_v"], full.diag["dirichlet_v"])
        assert np.array_equal(light.times, full.times)
        assert light.snapshot_indices == full.snapshot_indices
        assert len(light.snapshots) == len(full.snapshots)
        for mine, theirs in zip(light.snapshots, full.snapshots):
            assert np.array_equal(mine.values, theirs.values)
        assert light.aborted == full.aborted
        assert light.abort_message == full.abort_message

    def test_csv_of_a_light_trajectory_names_the_missing_columns(self, tmp_path, grid1d):
        cfg = SolverConfig(dt=1e-3, t_final=0.01, snapshot_stride=5)
        light = solve(constant_drift(grid1d), sin_mode(grid1d), cfg, diagnostics=False)
        with pytest.raises(ValueError, match=r"lacks \['sup_u', 'modular_u', 'l2_u'"):
            light.to_csv(tmp_path / "diag.csv")
        assert not (tmp_path / "diag.csv").exists()

    def test_transform_counts_per_step(self, monkeypatch):
        # guards the work a step costs: if_rk2 advects twice (dim inverse and
        # one forward transform each); a full step adds the physical field
        # and one gradient component per axis, a light step forms the field
        # only at the snapshots
        grid = TorusGrid(3, 8)
        counts = Counter()

        def counting(name, transform):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return transform(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(solver_module, "irfftn", counting("inverse", solver_module.irfftn))
        monkeypatch.setattr(solver_module, "rfftn", counting("forward", solver_module.rfftn))
        # 10 steps; snapshots at steps 0, 4, 8 and 10
        cfg = SolverConfig(dt=1e-3, t_final=0.01, snapshot_stride=4)
        f = ScalarField.from_function(
            grid, lambda x, y, z: 0.5 * np.cos(2 * np.pi * np.broadcast_to(x, grid.shape))
        )
        b = constant_drift(grid, 0.5)
        n_steps, later_snapshots = 10, 3
        # set-up: one dealiasing round trip per drift component, and the datum
        setup_inverse, setup_forward = 3, 4

        counts.clear()
        solve(b, f, cfg, diagnostics=False)
        assert counts == {
            "inverse": setup_inverse + 6 * n_steps + later_snapshots,
            "forward": setup_forward + 2 * n_steps,
        }
        counts.clear()
        solve(b, f, cfg)
        # the gradient components are formed at step 0 too
        assert counts == {
            "inverse": setup_inverse + (6 + 4) * n_steps + 3,
            "forward": setup_forward + 2 * n_steps,
        }


def textbook_solve(b_smooth, f, config):
    """solve() written with a new array for every operation: the bitwise oracle.

    solve() runs these floating-point operations in this order, in work
    buffers, so its trajectories must equal these bit for bit.  Returns
    (times, diag, snapshot_indices, snapshots, aborted, abort_message).
    """
    grid = f.grid
    mask = grid.dealias_mask
    b_parts = tuple(irfftn(rfftn(c.values) * mask, grid.shape) for c in b_smooth.components)
    advect = math.sqrt(float(sum(b_a * b_a for b_a in b_parts).max())) > 0
    factor = np.exp(config.dt * (grid.laplace_symbol - config.shift))
    grad_syms = tuple(g * mask for g in grid.gradient_symbols)
    parseval = np.full(grid.spectral_shape[-1], 2.0)
    parseval[0] = parseval[-1] = 1.0
    dirichlet_root = np.sqrt(grid.dirichlet_symbol * parseval) / grid.size
    h_d = grid.cell_volume
    top = max(config.p_list)

    def advection(spectrum):
        out = np.zeros(grid.shape)
        for b_a, g_a in zip(b_parts, grad_syms):
            out += b_a * irfftn(spectrum * g_a, grid.shape)
        return rfftn(out) * mask

    def even_powers(x):
        powers = {2: x * x}
        for p in range(4, top + 1, 2):
            powers[p] = powers[p - 2] * powers[2]
        return powers

    def diagnostics(t, spectrum, v):
        with np.errstate(over="ignore"):
            weighted = dirichlet_root * spectrum
            row = {"dirichlet_v": (weighted.real**2 + weighted.imag**2).sum()}
        with np.errstate(over="ignore", invalid="ignore"):
            scale = math.exp(config.shift * t)
            u = scale * v if config.shift else v
            row["sup_u"] = np.abs(u).max()
            u_pow = even_powers(u)
            for p in config.p_list:
                row[f"l{p}_u"] = (h_d * u_pow[p].sum()) ** (1.0 / p)
            grad_sq = np.zeros(grid.shape)
            for g in grid.gradient_symbols:
                component = irfftn(spectrum * g, grid.shape)
                grad_sq += component * component
            u_grad_sq = scale * scale * grad_sq if config.shift else grad_sq
            row["modular_u"] = h_d * (np.cosh(u) - 1.0).sum()
            for p in config.p_list:
                exp_u = np.exp(u_pow[p])
                row[f"exp_modular_p{p}_u"] = h_d * exp_u.sum()
                coeff = h_d * p * p / 4.0
                disp = u_grad_sq * exp_u
                if p > 2:
                    disp = disp * u_pow[p - 2]
                row[f"exp_disp_p{p}_u"] = coeff * disp.sum()
                row[f"exp_gradexp_p{p}_u"] = coeff * (u_pow[p] * disp).sum()
        return row

    dt, n_steps = config.dt, config.n_steps
    times = dt * np.arange(n_steps + 1)
    rows, snapshot_indices, snapshots = [], [], []
    spectrum = rfftn(f.values)
    for k in range(n_steps + 1):
        v = f.values if k == 0 else irfftn(spectrum, grid.shape)
        rows.append(diagnostics(times[k], spectrum, v))
        if k % config.snapshot_stride == 0 or k == n_steps:
            snapshot_indices.append(k)
            snapshots.append(v)
        if k == n_steps:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            if not advect:
                spectrum = factor * spectrum
            elif config.scheme == "if_euler":
                spectrum = factor * (spectrum - dt * advection(spectrum))
            else:
                n1 = advection(spectrum)
                predictor = factor * (spectrum - dt * n1)
                n2 = advection(predictor)
                spectrum = factor * spectrum - 0.5 * dt * (factor * n1 + n2)
        if not np.all(np.isfinite(spectrum.view(float))):
            message = f"non-finite state after step {k + 1} (t={times[k + 1]:.6g})"
            diag = {name: np.array([row[name] for row in rows]) for name in rows[0]}
            return times[: k + 1], diag, snapshot_indices, snapshots, True, message
    diag = {name: np.array([row[name] for row in rows]) for name in rows[0]}
    return times, diag, snapshot_indices, snapshots, False, ""


def hardy16_oracle_case(scheme, shift):
    b_eps, f, _ = hardy16_light_case()
    cfg = SolverConfig(
        dt=1e-3, t_final=0.02, shift=shift, scheme=scheme, snapshot_stride=5, p_list=(2, 4, 6)
    )
    return b_eps, f, cfg


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(partial(hardy16_oracle_case, scheme, shift), id=f"hardy16-{scheme}-{shift}")
        for scheme in ("if_rk2", "if_euler")
        for shift in (0.0, 2.5)
    ]
    + [pytest.param(aborting1d_light_case, id="aborting1d")],
)
def test_solve_is_bitwise_the_textbook_step(case):
    b, f, cfg = case()
    times, diag, snapshot_indices, snapshots, aborted, abort_message = textbook_solve(b, f, cfg)
    traj = solve(b, f, cfg)
    assert (traj.aborted, traj.abort_message) == (aborted, abort_message)
    assert np.array_equal(traj.times, times)
    assert traj.snapshot_indices == snapshot_indices
    assert len(traj.snapshots) == len(snapshots)
    # bytes, not values: a flipped sign of zero or another NaN would show
    for mine, theirs in zip(traj.snapshots, snapshots):
        assert mine.values.tobytes() == theirs.tobytes()
    assert sorted(traj.diag) == sorted(diag)
    for name, column in diag.items():
        assert traj.diag[name].tobytes() == column.tobytes(), name


class TestErrors:
    def test_cfl_violation_rejected(self, grid1d):
        cfg = SolverConfig(dt=0.01, t_final=0.1)
        with pytest.raises(ValueError, match="CFL"):
            solve(constant_drift(grid1d, 10.0), sin_mode(grid1d), cfg)

    def test_cfl_uses_the_dealiased_drift(self, grid1d):
        # all of this drift's energy lies above the two-thirds cutoff, so the
        # advected field is zero up to rounding and the CFL bound of the
        # undealiased max|b| = 10 does not apply
        b = build_drift(DriftSpec(kind="trig", components=[[(10.0, (30,))]]), grid1d)
        cfg = SolverConfig(dt=1e-3, t_final=0.01, snapshot_stride=10)
        assert cfg.dt > cfg.cfl_safety * grid1d.spacing / b.max_magnitude()
        traj = solve(b, sin_mode(grid1d), cfg)
        diffused = solve(VectorField.zeros(grid1d), sin_mode(grid1d), cfg)
        assert np.abs(traj.snapshots[-1].values - diffused.snapshots[-1].values).max() < 1e-12

    def test_non_multiple_horizon_rejected(self):
        with pytest.raises(ValueError, match="whole number"):
            SolverConfig(dt=3e-4, t_final=0.1)

    def test_nan_aborts_with_partial_trajectory(self, grid1d):
        # cfl_safety large enough to let an unstable advective step overflow
        cfg = SolverConfig(dt=0.01, t_final=20.0, cfl_safety=1e6, snapshot_stride=10)
        traj = solve(constant_drift(grid1d, 50.0), sin_mode(grid1d), cfg)
        assert traj.aborted
        assert "non-finite" in traj.abort_message
        assert len(traj.times) < 2001
        assert np.all(np.isfinite(traj.diag["sup_u"]))

    def test_mismatched_grids_rejected(self, grid1d):
        other = TorusGrid(1, 32)
        cfg = SolverConfig(dt=1e-3, t_final=0.01)
        with pytest.raises(ValueError, match="grids"):
            solve(VectorField.zeros(other), sin_mode(grid1d), cfg)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": -1.0, "t_final": 1.0},
            {"dt": 1e-3, "t_final": 0.0},
            {"dt": 1e-3, "t_final": 1.0, "shift": -1.0},
            {"dt": 1e-3, "t_final": 1.0, "scheme": "rk9"},
            {"dt": 1e-3, "t_final": 1.0, "p_list": (3,)},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


def test_csv_stream(tmp_path, grid1d):
    cfg = SolverConfig(dt=1e-3, t_final=0.01, snapshot_stride=5)
    traj = solve(constant_drift(grid1d), sin_mode(grid1d), cfg)
    path = tmp_path / "diag.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().splitlines()
    header = lines[1].split(",")
    assert header[:7] == ["t", "sup", "l2", "l4", "orlicz", "modular", "dirichlet"]
    assert "exp_modular_p2" in header and "exp_gradexp_p4" in header
    assert len(lines) == 2 + len(traj.times)
    first = [float(tok) for tok in lines[2].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(1.0, rel=1e-12)


def test_orlicz_norm_once_per_snapshot(monkeypatch, tmp_path, grid1d):
    # no norm per step; the CSV and the check share one computation
    calls = []

    def counting(f, **kwargs):
        calls.append(kwargs)
        return orlicz_norm(f, **kwargs)

    monkeypatch.setattr(solver_module, "orlicz_norm", counting)
    cfg = SolverConfig(dt=1e-3, t_final=0.02, shift=1.5, snapshot_stride=5)
    traj = solve(constant_drift(grid1d), sin_mode(grid1d), cfg)
    assert calls == []
    want = [orlicz_norm(traj.snapshot_u(i)) for i in range(len(traj.snapshots))]
    traj.to_csv(tmp_path / "diag.csv")
    for _ in range(2):
        assert list(check_orlicz_contraction(traj, 4.0, 1.0).lhs) == want
    # each at orlicz_norm's default tolerance
    assert calls == [{}] * len(traj.snapshots)


def test_csv_orlicz_column_is_the_checked_norm(tmp_path, grid1d):
    cfg = SolverConfig(dt=1e-3, t_final=0.012, shift=1.5, snapshot_stride=5)
    traj = solve(constant_drift(grid1d), sin_mode(grid1d), cfg)
    path = tmp_path / "diag.csv"
    traj.to_csv(path)
    rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
    column = np.array([float(row[4]) for row in rows])
    # snapshots at steps 0, 5, 10 and the final step 12
    assert traj.snapshot_indices == [0, 5, 10, 12]
    lhs = check_orlicz_contraction(traj, 4.0, 1.0).lhs
    assert np.array_equal(column[traj.snapshot_indices], lhs)
    others = np.setdiff1d(np.arange(len(rows)), traj.snapshot_indices)
    assert np.all(np.isnan(column[others]))


@pytest.mark.parametrize("p_list", [(2,), (2, 4), (2, 4, 6)])
def test_csv_writes_one_lp_column_per_power(tmp_path, grid1d, p_list):
    cfg = SolverConfig(dt=1e-3, t_final=0.01, shift=1.5, snapshot_stride=5, p_list=p_list)
    traj = solve(constant_drift(grid1d), sin_mode(grid1d), cfg)
    path = tmp_path / "diag.csv"
    traj.to_csv(path)
    header, *rows = path.read_text().splitlines()[1:]
    exp_columns = [
        f"{stem}_p{p}" for p in p_list for stem in ("exp_modular", "exp_disp", "exp_gradexp")
    ]
    lp_columns = [f"l{p}" for p in p_list]
    assert header.split(",") == [
        "t", "sup", *lp_columns, "orlicz", "modular", "dirichlet", *exp_columns
    ]
    table = np.array([[float(x) for x in row.split(",")] for row in rows])
    for j, p in enumerate(p_list):
        assert np.array_equal(table[:, 2 + j], traj.diag[f"l{p}_u"])
