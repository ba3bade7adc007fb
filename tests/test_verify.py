import math

import numpy as np
import pytest

from driftbound import (
    ANALYTIC_TOL,
    SINGULAR_TOL,
    DriftSpec,
    ScalarField,
    SolverConfig,
    TorusGrid,
    VectorField,
    VerificationReport,
    build_drift,
    check_cauchy_convergence,
    check_cosh_energy,
    check_exp_energy,
    check_gradient_bound,
    check_lp_contraction,
    check_orlicz_contraction,
    lp_norm,
    lp_threshold,
    mollify_drift,
    render_reports,
    solve,
)
from driftbound.cli import ConfigError, Experiment
from driftbound.drift import zeroth_order_constant


def cos_datum(grid, amp=0.5):
    return ScalarField.from_function(
        grid, lambda *xs: amp * np.cos(2 * np.pi * np.broadcast_to(xs[0], grid.shape))
    )


@pytest.fixture(scope="module")
def hardy_setup():
    """Shared mollified-Hardy run at delta = 4 on a small 3-D grid."""
    grid = TorusGrid(3, 32)
    b = build_drift(DriftSpec(kind="hardy", delta=4.0, sign=-1), grid)
    c4 = zeroth_order_constant(b, 4.0)
    f = cos_datum(grid)
    b_eps = mollify_drift(b, 1e-3)
    rate = c4 / 2.0
    shifted = solve(
        b_eps, f, SolverConfig(dt=5e-4, t_final=0.05, shift=rate, snapshot_stride=20)
    )
    plain = solve(
        b_eps, f, SolverConfig(dt=5e-4, t_final=0.05, shift=0.0, snapshot_stride=20)
    )
    return {"grid": grid, "b": b, "c4": c4, "f": f, "shifted": shifted, "plain": plain}


class TestOrliczContraction:
    def test_pure_diffusion_with_vanishing_budget_surrogate(self, grid1d):
        f = cos_datum(grid1d, amp=1.0)
        traj = solve(
            VectorField.zeros(grid1d),
            f,
            SolverConfig(dt=1e-3, t_final=0.1, snapshot_stride=20),
        )
        report = check_orlicz_contraction(traj, 4.0, 1e-8, tol_rel=1e-6)
        assert report.passed
        assert np.all(report.lhs <= report.notes["initial_norm"] * (1 + 1e-6))

    def test_zero_budget_reduces_to_plain_contraction(self, grid1d):
        f = cos_datum(grid1d, amp=1.0)
        traj = solve(
            VectorField.zeros(grid1d),
            f,
            SolverConfig(dt=1e-3, t_final=0.05, snapshot_stride=10),
        )
        report = check_orlicz_contraction(traj, 4.0, 0.0, tol_rel=1e-6)
        assert np.all(report.rhs == report.notes["initial_norm"])
        assert report.passed

    def test_constant_drift_with_exact_certificate(self, grid1d):
        beta = 0.5
        b = build_drift(DriftSpec(kind="constant", vector=(beta,)), grid1d)
        f = cos_datum(grid1d, amp=1.0)
        traj = solve(b, f, SolverConfig(dt=1e-3, t_final=0.1, snapshot_stride=20))
        report = check_orlicz_contraction(traj, 0.04, beta**2, tol_rel=1e-6)
        assert report.passed

    def test_mollified_hardy_passes_singular_tier(self, hardy_setup):
        report = check_orlicz_contraction(
            hardy_setup["plain"], 4.0, hardy_setup["c4"], tol_rel=SINGULAR_TOL
        )
        assert report.passed
        assert report.notes["sharper_exponent_passed"] is True


class TestLpContraction:
    def test_threshold_values(self):
        assert lp_threshold(1.0) == pytest.approx(2.0)
        assert lp_threshold(2.25) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            lp_threshold(4.0)

    def test_below_threshold_rejected_with_value(self, grid1d):
        f = cos_datum(grid1d)
        traj = solve(
            VectorField.zeros(grid1d), f, SolverConfig(dt=1e-3, t_final=0.01)
        )
        with pytest.raises(ValueError, match="threshold"):
            check_lp_contraction(traj, 2, 2.25, 1.0)

    def test_pure_diffusion_norms_nonincreasing(self, grid1d):
        f = cos_datum(grid1d)
        traj = solve(
            VectorField.zeros(grid1d),
            f,
            SolverConfig(dt=1e-3, t_final=0.1, snapshot_stride=20),
        )
        for p in (2, 4):
            report = check_lp_contraction(traj, p, 1.0, 0.0, tol_rel=1e-9)
            assert report.passed

    def test_hardy_delta_one_at_p_two(self):
        grid = TorusGrid(3, 32)
        b = build_drift(DriftSpec(kind="hardy", delta=1.0, sign=-1), grid)
        c1 = zeroth_order_constant(b, 1.0)
        traj = solve(
            mollify_drift(b, 1e-3),
            cos_datum(grid),
            SolverConfig(dt=5e-4, t_final=0.05, snapshot_stride=20),
        )
        report = check_lp_contraction(traj, 2, 1.0, c1, tol_rel=SINGULAR_TOL)
        assert report.passed

    def test_values_are_the_snapshot_norms_of_u(self, grid1d):
        # one source of values, also for a p whose norm the full solve
        # records every step: the L^p norms of the unshifted snapshots
        b = build_drift(DriftSpec(kind="constant", vector=(0.5,)), grid1d)
        cfg = SolverConfig(dt=1e-3, t_final=0.1, shift=1.5, snapshot_stride=10, p_list=(2, 4))
        traj = solve(b, cos_datum(grid1d), cfg)
        report = check_lp_contraction(traj, 4, 2.0, 1.0)
        want = [lp_norm(traj.snapshot_u(i), 4) for i in range(len(traj.snapshots))]
        assert report.lhs.tolist() == want


class TestCoshEnergy:
    def test_zero_datum(self, grid1d):
        rate = 1.0 / math.sqrt(4.0)
        traj = solve(
            VectorField.zeros(grid1d),
            ScalarField.zeros(grid1d),
            SolverConfig(dt=1e-3, t_final=0.02, shift=rate, snapshot_stride=10),
        )
        report = check_cosh_energy(traj, 4.0, 1.0)
        assert report.passed
        assert np.all(report.lhs == 0.0)
        assert np.allclose(report.rhs, rate * report.times)

    def test_pure_diffusion_modular_decays(self, grid1d):
        delta, c_delta = 4.0, 1e-8
        rate = c_delta / 2.0
        traj = solve(
            VectorField.zeros(grid1d),
            cos_datum(grid1d, amp=1.0),
            SolverConfig(dt=1e-3, t_final=0.1, shift=rate, snapshot_stride=20),
        )
        report = check_cosh_energy(traj, delta, c_delta, tol_rel=1e-9)
        assert report.passed
        assert np.all(np.diff(report.lhs) <= 1e-12)

    def test_shift_mismatch_rejected(self, grid1d):
        traj = solve(
            VectorField.zeros(grid1d),
            cos_datum(grid1d),
            SolverConfig(dt=1e-3, t_final=0.01, shift=0.0),
        )
        with pytest.raises(ValueError, match="shift"):
            check_cosh_energy(traj, 4.0, 1.0)

    def test_mollified_hardy(self, hardy_setup):
        report = check_cosh_energy(
            hardy_setup["shifted"], 4.0, hardy_setup["c4"], tol_rel=SINGULAR_TOL
        )
        assert report.passed


class TestExpEnergy:
    def test_zero_datum_slack_is_budget_times_time(self, grid1d):
        delta, c_delta = 4.0, 1.0
        traj = solve(
            VectorField.zeros(grid1d),
            ScalarField.zeros(grid1d),
            SolverConfig(dt=1e-3, t_final=0.02, snapshot_stride=10),
        )
        report = check_exp_energy(traj, 2, delta, c_delta)
        assert report.passed
        assert np.all(report.lhs == 1.0)
        assert np.allclose(report.slack, (c_delta / 2.0) * report.times)

    def test_pure_diffusion_with_surrogate(self, grid1d):
        traj = solve(
            VectorField.zeros(grid1d),
            cos_datum(grid1d),
            SolverConfig(dt=1e-3, t_final=0.1, snapshot_stride=20),
        )
        report = check_exp_energy(traj, 2, 4.0, 1e-8, tol_rel=ANALYTIC_TOL)
        assert report.passed

    @pytest.mark.parametrize("p", [2, 4])
    def test_mollified_hardy_both_deltas(self, hardy_setup, p):
        traj = hardy_setup["plain"]
        report4 = check_exp_energy(traj, p, 4.0, hardy_setup["c4"], tol_rel=SINGULAR_TOL)
        assert report4.passed
        assert report4.notes["third_coefficient"] == 0.0

        b1 = build_drift(DriftSpec(kind="hardy", delta=1.0, sign=-1), hardy_setup["grid"])
        c1 = zeroth_order_constant(b1, 1.0)
        traj1 = solve(
            mollify_drift(b1, 1e-3),
            hardy_setup["f"],
            SolverConfig(dt=5e-4, t_final=0.05, snapshot_stride=20),
        )
        report1 = check_exp_energy(traj1, p, 1.0, c1, tol_rel=SINGULAR_TOL)
        assert report1.passed
        assert report1.notes["third_coefficient"] == pytest.approx(2.0)

    def test_integrand_columns_are_nonnegative(self, hardy_setup):
        traj = hardy_setup["plain"]
        for p in traj.p_list:
            assert np.all(traj.diag[f"exp_disp_p{p}_u"] >= 0.0)
            assert np.all(traj.diag[f"exp_gradexp_p{p}_u"] >= 0.0)

    def test_third_term_strictly_tightens_below_critical(self, hardy_setup):
        # same trajectory, coefficient arithmetic only: 2(2 - sqrt(delta)) is
        # exactly 0 at delta = 4 and strictly positive below, so the third
        # term contributes nothing at the critical value and strictly
        # enlarges the left side for delta = 1
        from driftbound.verify import _cumulative_trapezoid

        traj = hardy_setup["plain"]
        coeff4 = 2.0 * (2.0 - math.sqrt(4.0))
        coeff1 = 2.0 * (2.0 - math.sqrt(1.0))
        assert coeff4 == 0.0
        assert coeff1 == 2.0
        third = _cumulative_trapezoid(traj.diag["exp_gradexp_p2_u"], traj.times)
        assert np.all(coeff1 * third[1:] > 0.0)
        assert np.all(coeff4 * third == 0.0)

    def test_overflow_rejected_with_guidance(self, grid1d):
        big = ScalarField.full(grid1d, 40.0)
        traj = solve(
            VectorField.zeros(grid1d),
            big,
            SolverConfig(dt=1e-3, t_final=0.01, snapshot_stride=10),
        )
        with pytest.raises(ValueError, match="rescale"):
            check_exp_energy(traj, 2, 4.0, 1.0)

    def test_overflow_of_a_high_power_rejected(self, grid1d):
        # 3^6 = 729 overflows exp while 3^2 does not; the shifted solve
        # reaches u only through its rescaled power chains
        traj = solve(
            VectorField.zeros(grid1d),
            ScalarField.full(grid1d, 3.0),
            SolverConfig(dt=1e-3, t_final=0.01, shift=1.0, snapshot_stride=10, p_list=(2, 6)),
        )
        assert check_exp_energy(traj, 2, 4.0, 1.0).passed
        with pytest.raises(ValueError, match="rescale"):
            check_exp_energy(traj, 6, 4.0, 1.0)

    def test_unknown_p_rejected(self, grid1d):
        traj = solve(
            VectorField.zeros(grid1d),
            cos_datum(grid1d),
            SolverConfig(dt=1e-3, t_final=0.01),
        )
        with pytest.raises(ValueError, match="diagnostics"):
            check_exp_energy(traj, 6, 4.0, 1.0)


class TestGradientBound:
    def test_pure_diffusion_energy_identity(self, grid1d):
        # at t = 0.05 the continuum margin 1/2||f||_2^2 e^(-8 pi^2 t) still
        # dominates the O(dt^2) trapezoid excess of the decaying integrand
        f = cos_datum(grid1d, amp=1.0)
        traj = solve(
            VectorField.zeros(grid1d),
            f,
            SolverConfig(dt=1e-3, t_final=0.05, snapshot_stride=10),
        )
        report = check_gradient_bound([traj], f, 0.0, tol_rel=ANALYTIC_TOL)
        assert report.passed

    def test_hardy_schedule_has_positive_slack(self, hardy_setup):
        grid = hardy_setup["grid"]
        b = hardy_setup["b"]
        f = hardy_setup["f"]
        rate = hardy_setup["c4"] / 2.0
        schedule = [1e-2, 1e-3, 1e-4]
        cfg = SolverConfig(dt=5e-4, t_final=0.05, shift=rate, snapshot_stride=20)
        trajs = [solve(mollify_drift(b, eps), f, cfg, diagnostics=False) for eps in schedule]
        c0 = max(
            cfg.t_final
            * grid.cell_volume
            * float(mollify_drift(b, eps).magnitude_squared().sum())
            for eps in schedule
        )
        report = check_gradient_bound(trajs, f, c0, tol_rel=ANALYTIC_TOL)
        assert report.passed
        assert report.min_slack > 0.0

    def test_inconsistent_initial_data_rejected(self, grid1d):
        cfg = SolverConfig(dt=1e-3, t_final=0.01)
        t1 = solve(VectorField.zeros(grid1d), cos_datum(grid1d), cfg)
        t2 = solve(VectorField.zeros(grid1d), cos_datum(grid1d, amp=0.7), cfg)
        with pytest.raises(ValueError, match="initial datum"):
            check_gradient_bound([t1, t2], cos_datum(grid1d), 0.0)

    def test_budget_scales_linearly_in_time(self, grid1d):
        # C0 doubles when the horizon doubles for autonomous drifts
        b = build_drift(DriftSpec(kind="constant", vector=(0.5,)), grid1d)
        norm_sq = b.grid.cell_volume * float(b.magnitude_squared().sum())
        assert 2 * (0.1 * norm_sq) == pytest.approx(0.2 * norm_sq)


def solve_schedule(b, schedule, f, cfg):
    # the Cauchy check reads only the snapshots
    return [solve(mollify_drift(b, eps), f, cfg, diagnostics=False) for eps in schedule]


class TestCauchyConvergence:
    def test_band_limited_drift_changes_negligibly(self, grid2d):
        spec = DriftSpec(kind="trig", components=[[(0.5, (1, 0))], [(0.25, (0, 1))]])
        b = build_drift(spec, grid2d)
        f = cos_datum(grid2d)
        cfg = SolverConfig(dt=1e-3, t_final=0.02, snapshot_stride=10)
        report = check_cauchy_convergence(
            solve_schedule(b, [1e-9, 1e-10, 1e-11], f, cfg),
            solve_schedule(b, [5e-10, 5e-11], f, cfg),
        )
        assert report.passed
        assert all(g <= 1e-9 for g in report.notes["gaps_a"])

    def test_hardy_schedule_decays_and_interleaves(self):
        grid = TorusGrid(3, 32)
        b = build_drift(DriftSpec(kind="hardy", delta=4.0, sign=-1), grid)
        f = cos_datum(grid)
        cfg = SolverConfig(dt=5e-4, t_final=0.05, snapshot_stride=20)
        schedule_a = [1e-2 * 4.0**-k for k in range(4)]
        schedule_b = [5e-3 * 4.0**-k for k in range(4)]
        report = check_cauchy_convergence(
            solve_schedule(b, schedule_a, f, cfg), solve_schedule(b, schedule_b, f, cfg)
        )
        assert report.notes["decay_ok"], report.notes["decay_ratios"]
        assert report.notes["cross_ok"]
        assert report.passed

    def test_rejects_nondecreasing_schedule(self):
        # schedule order is validated where the schedules are configured
        data = {
            "grid": {"dim": 1, "n": 16},
            "drift": {"kind": "constant", "vector": [0.0]},
            "mollification": {"schedule": [1e-3, 1e-4], "schedule_b": [1e-3, 1e-3]},
        }
        with pytest.raises(ConfigError, match="schedule_b must be strictly decreasing"):
            Experiment(data)

    def test_rejects_short_or_mismatched_families(self, grid1d):
        b = VectorField.zeros(grid1d)
        f = cos_datum(grid1d)
        cfg = SolverConfig(dt=1e-3, t_final=0.01, snapshot_stride=5)
        pair = solve_schedule(b, [1e-3, 1e-4], f, cfg)
        with pytest.raises(ValueError, match="at least two members"):
            check_cauchy_convergence(pair, pair[:1])
        other = solve(b, f, SolverConfig(dt=1e-3, t_final=0.01, snapshot_stride=2))
        with pytest.raises(ValueError, match="checkpoint times"):
            check_cauchy_convergence(pair, [pair[0], other])


def test_refinement_study_attaches_trend(grid1d):
    from driftbound import refinement_study

    f = cos_datum(grid1d)
    b = VectorField.zeros(grid1d)

    def run_at(dt):
        traj = solve(b, f, SolverConfig(dt=dt, t_final=0.04, snapshot_stride=20))
        return check_orlicz_contraction(traj, 4.0, 1e-8, tol_rel=ANALYTIC_TOL)

    final = refinement_study(run_at, [2e-3, 1e-3])
    assert final.passed
    assert len(final.refinement_trend) == 2
    assert final.notes["refinement_flagged"] is False
    assert final.notes["refinement_levels"] == [2e-3, 1e-3]


def test_render_reports(grid1d):
    traj = solve(
        VectorField.zeros(grid1d),
        cos_datum(grid1d),
        SolverConfig(dt=1e-3, t_final=0.02, snapshot_stride=10),
    )
    r1 = check_orlicz_contraction(traj, 4.0, 1e-8)
    r2 = check_exp_energy(traj, 2, 4.0, 1e-8)
    text = render_reports([r1, r2])
    assert "orlicz_contraction" in text and "aggregate" in text
    payload = r1.to_json()
    assert payload["passed"] is True
    assert len(payload["slack"]) == len(r1.times)


def test_text_margin_is_the_least_relative_slack_after_t0():
    # lhs = rhs at t = 0, as in the orlicz, cosh and exp checks
    report = VerificationReport(
        inequality_id="orlicz_contraction",
        times=np.array([0.0, 0.5, 1.0]),
        lhs=np.array([1.0, 1.0, 1.0]),
        rhs=np.array([1.0, 2.0, 1.5]),
        tol_rel=ANALYTIC_TOL,
        passed=True,
    )
    assert "min relative slack +3.333e-01 at t=1 " in str(report)
    assert report.min_slack == 0.0 and report.failure_amount == 0.0
