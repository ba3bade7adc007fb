"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines and timings inline).  Shared expensive objects (drifts,
certificates, trajectory families) live in session fixtures; each criterion
asserts its stated tolerances and runtime budget.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import erfc

from driftbound import (
    DriftSpec,
    ScalarField,
    SINGULAR_TOL,
    SolverConfig,
    TorusGrid,
    VectorField,
    build_drift,
    check_cauchy_convergence,
    check_exp_energy,
    check_gradient_bound,
    check_lp_contraction,
    check_orlicz_contraction,
    form_bound_estimate,
    integrate,
    lp_norm,
    mollify_drift,
    orlicz_norm,
    refinement_study,
    solve,
    verify_form_bound,
)
from driftbound.drift import zeroth_order_constant
from driftbound.sde import SdeConfig, delta_sweep, simulate_hardy_sde
from conftest import random_band_limited, random_trials


def report(criterion, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}  [{elapsed:.1f}s / budget {budget:.0f}s]  {detail}")


def mean_square(b):
    return b.grid.cell_volume * float(b.magnitude_squared().sum())


def two_mode_datum(grid):
    """Band-limited datum with sup norm 0.75."""
    return ScalarField.from_function(
        grid,
        lambda x, y, z: 0.5 * np.cos(2 * np.pi * np.broadcast_to(x, grid.shape))
        + 0.25
        * np.cos(
            2 * np.pi * (np.broadcast_to(y, grid.shape) + np.broadcast_to(z, grid.shape))
        ),
    )


@pytest.fixture(scope="session")
def hardy64():
    """Hardy drift at delta = 4 on the 64^3 grid with its certificates."""
    grid = TorusGrid(3, 64)
    b = build_drift(DriftSpec(kind="hardy", delta=4.0, sign=-1), grid)
    m = mean_square(b)
    sweep_cert = form_bound_estimate(b, [2.0 * m])[0]
    c_critical = zeroth_order_constant(b, 4.0)
    return {"grid": grid, "b": b, "mean_sq": m, "cert": sweep_cert, "c4": c_critical}


@pytest.fixture(scope="session")
def hardy32_family():
    """Schedule of mollified-Hardy runs at n = 32 shared by criteria 8 and 9.

    Those criteria read only the snapshots and dirichlet_v, so the solves
    are light.
    """
    grid = TorusGrid(3, 32)
    b = build_drift(DriftSpec(kind="hardy", delta=4.0, sign=-1), grid)
    c4 = zeroth_order_constant(b, 4.0)
    rate = c4 / 2.0
    f = two_mode_datum(grid)
    schedule = [1e-2 * 4.0**-k for k in range(4)]
    config = SolverConfig(dt=5e-4, t_final=0.05, shift=rate, snapshot_stride=20)
    t0 = time.time()
    drifts = [mollify_drift(b, eps) for eps in schedule]
    trajs = [solve(b_eps, f, config, diagnostics=False) for b_eps in drifts]
    solve_s = time.time() - t0
    return {
        "grid": grid,
        "b": b,
        "c4": c4,
        "f": f,
        "schedule": schedule,
        "config": config,
        "drifts": drifts,
        "trajs": trajs,
        "solve_s": solve_s,
    }


def test_criterion_01_orlicz_norm_engine():
    budget, t0 = 5.0, time.time()
    grid = TorusGrid(2, 32)
    worst_rel = 0.0
    for a in (0.3, 1.0, 7.5):
        value = orlicz_norm(ScalarField.full(grid, a))
        worst_rel = max(worst_rel, abs(value - a / math.log(2 + math.sqrt(3))) / a)
    violations = 0
    rng = np.random.default_rng(7)
    for _ in range(100):
        f = random_band_limited(grid, rng, amplitude=rng.uniform(0.2, 5.0))
        norm = orlicz_norm(f)
        for p in (1, 2, 3):
            if norm < lp_norm(f, 2 * p) / math.factorial(2 * p) - 1e-12:
                violations += 1
    elapsed = time.time() - t0
    ok = worst_rel <= 1e-9 and violations == 0 and elapsed < budget
    report(
        "criterion 1 (orlicz engine)",
        ok,
        f"constant-field rel err {worst_rel:.2e}, series-bound violations {violations}/300",
        elapsed,
        budget,
    )
    assert worst_rel <= 1e-9
    assert violations == 0
    assert elapsed < budget


def test_criterion_02_mollifier_preserves_certificate(hardy64):
    budget, t0 = 30.0, time.time()
    grid, b, cert = hardy64["grid"], hardy64["b"], hardy64["cert"]
    rng = np.random.default_rng(99)
    trials = random_trials(grid, rng, 100, kmax=8)
    worst = -math.inf
    for eps in (1e-2, 1e-3, 1e-4):
        b_eps = mollify_drift(b, eps)
        b_sq = b_eps.magnitude_squared()
        scale = max(
            integrate(ScalarField(grid, b_sq * t.values**2)) for t in trials
        )
        violation = verify_form_bound(b_eps, cert.delta_hat, cert.c_delta, trials)
        worst = max(worst, violation / max(scale, 1e-300))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < budget
    report(
        "criterion 2 (mollifier keeps certificate)",
        ok,
        f"worst relative violation {worst:+.2e} over 100 trials x 3 eps",
        elapsed,
        budget,
    )
    assert worst <= 1e-8
    assert elapsed < budget


def test_criterion_03_form_bound_estimator_range_and_trend():
    budget, t0 = 120.0, time.time()
    estimates = {}
    for n in (32, 64, 128):
        grid = TorusGrid(3, n)
        b = build_drift(DriftSpec(kind="hardy", delta=4.0, sign=-1), grid)
        c = 2.0 * mean_square(b)
        cert = form_bound_estimate(b, [c], max_iter=2000, rq_tol=1e-9)[0]
        estimates[n] = cert.delta_hat
    distances = [abs(estimates[n] - 4.0) for n in (32, 64, 128)]
    trend_ok = distances[0] >= distances[1] >= distances[2]
    in_range = 3.2 <= estimates[64] <= 4.4
    elapsed = time.time() - t0
    ok = in_range and trend_ok and elapsed < budget
    report(
        "criterion 3 (estimator range + trend)",
        ok,
        f"delta_hat(n=32,64,128) = "
        f"{estimates[32]:.3f}, {estimates[64]:.3f}, {estimates[128]:.3f}; "
        f"range [3.2, 4.4] at n=64: {in_range}, trend toward 4: {trend_ok}",
        elapsed,
        budget,
    )
    assert trend_ok, f"distances to 4 not monotone: {distances}"
    assert elapsed < budget
    # The sharp Hardy constant is approached only logarithmically in the
    # resolved scale range, so this range assertion fails at n = 64; see the
    # decisions ledger for the blocking analysis.
    assert in_range, f"delta_hat(n=64) = {estimates[64]:.4f} outside [3.2, 4.4]"


def test_criterion_04_solver_accuracy_and_max_principle():
    budget, t0 = 60.0, time.time()
    grid = TorusGrid(1, 64)
    f = ScalarField.from_function(grid, lambda x: np.sin(2 * np.pi * x))
    config = SolverConfig(dt=1e-4, t_final=0.1, snapshot_stride=500)
    runs = []
    b = build_drift(DriftSpec(kind="constant", vector=(1.0,)), grid)
    traj = solve(b, f, config)
    runs.append(traj)
    x = grid.axis_coordinates()
    exact = math.exp(-4 * math.pi**2 * 0.1) * np.sin(2 * np.pi * (x - 0.1))
    max_err = float(np.abs(traj.snapshots[-1].values - exact).max())
    runs.append(solve(VectorField.zeros(grid), f, config))
    sup_ok = all(run.diag["sup"].max() <= 1.0 + 1e-10 for run in runs)
    elapsed = time.time() - t0
    ok = max_err <= 1e-8 and sup_ok and elapsed < budget
    report(
        "criterion 4 (solver accuracy)",
        ok,
        f"constant-drift max error {max_err:.2e}, max principle holds: {sup_ok}",
        elapsed,
        budget,
    )
    assert max_err <= 1e-8
    assert sup_ok
    assert elapsed < budget


@pytest.mark.slow
def test_criterion_05_orlicz_quasi_contraction(hardy64):
    budget, t0 = 180.0, time.time()
    grid, b = hardy64["grid"], hardy64["b"]
    delta, c_delta = 4.0, hardy64["c4"]
    f = two_mode_datum(grid)
    b_eps = mollify_drift(b, 1e-3)

    def run_at(dt):
        config = SolverConfig(dt=dt, t_final=0.1, shift=0.0, snapshot_stride=40)
        traj = solve(b_eps, f, config)
        return check_orlicz_contraction(traj, delta, c_delta, tol_rel=SINGULAR_TOL)

    refined = refinement_study(run_at, [5e-4, 2.5e-4])
    deficit_improves = not refined.notes["refinement_flagged"]
    elapsed = time.time() - t0
    ok = refined.passed and deficit_improves and elapsed < budget
    report(
        "criterion 5 (Orlicz quasi contraction)",
        ok,
        f"min slack trend {['%.3e' % s for s in refined.refinement_trend]}, "
        f"deficit non-increasing: {deficit_improves}",
        elapsed,
        budget,
    )
    assert refined.passed
    assert deficit_improves
    assert elapsed < budget


def test_criterion_06_exp_energy_both_deltas():
    budget, t0 = 180.0, time.time()
    grid = TorusGrid(3, 32)
    f = two_mode_datum(grid)
    config = SolverConfig(dt=5e-4, t_final=0.05, shift=0.0, snapshot_stride=20)
    results = {}
    for delta in (4.0, 1.0):
        b = build_drift(DriftSpec(kind="hardy", delta=delta, sign=-1), grid)
        c_delta = zeroth_order_constant(b, delta)
        traj = solve(mollify_drift(b, 1e-3), f, config)
        for p in (2, 4):
            rep = check_exp_energy(traj, p, delta, c_delta, tol_rel=SINGULAR_TOL)
            results[(delta, p)] = rep
    all_passed = all(rep.passed for rep in results.values())
    coeff4 = results[(4.0, 2)].notes["third_coefficient"]
    coeff1 = results[(1.0, 2)].notes["third_coefficient"]
    elapsed = time.time() - t0
    ok = all_passed and coeff4 == 0.0 and coeff1 == 2.0 and elapsed < budget
    report(
        "criterion 6 (exp energy p=2,4, delta=4 and 1)",
        ok,
        f"all passed: {all_passed}; third coefficient delta=4: {coeff4}, delta=1: {coeff1}",
        elapsed,
        budget,
    )
    assert all_passed
    assert coeff4 == 0.0 and coeff1 == 2.0
    assert elapsed < budget


def test_criterion_07_lp_threshold():
    budget, t0 = 120.0, time.time()
    grid = TorusGrid(3, 32)
    f = two_mode_datum(grid)
    config = SolverConfig(dt=5e-4, t_final=0.05, shift=0.0, snapshot_stride=20)

    b1 = build_drift(DriftSpec(kind="hardy", delta=1.0, sign=-1), grid)
    c1 = zeroth_order_constant(b1, 1.0)
    traj1 = solve(mollify_drift(b1, 1e-3), f, config)
    rep_p2 = check_lp_contraction(traj1, 2, 1.0, c1, tol_rel=SINGULAR_TOL)

    b225 = build_drift(DriftSpec(kind="hardy", delta=2.25, sign=-1), grid)
    c225 = zeroth_order_constant(b225, 2.25)
    traj225 = solve(mollify_drift(b225, 1e-3), f, config)
    with pytest.raises(ValueError, match="threshold"):
        check_lp_contraction(traj225, 2, 2.25, c225)
    rep_p4 = check_lp_contraction(traj225, 4, 2.25, c225, tol_rel=SINGULAR_TOL)

    elapsed = time.time() - t0
    ok = rep_p2.passed and rep_p4.passed and elapsed < budget
    report(
        "criterion 7 (L^p threshold)",
        ok,
        f"delta=1 p=2 passed: {rep_p2.passed}; delta=2.25 rejects p=2 and p=4 passed: "
        f"{rep_p4.passed} (threshold {rep_p4.notes['threshold']:.2f})",
        elapsed,
        budget,
    )
    assert rep_p2.passed
    assert rep_p4.passed
    assert elapsed < budget


def test_criterion_08_cauchy_convergence(hardy32_family):
    budget, t0 = 300.0, time.time()
    fam = hardy32_family
    schedule_b = [5e-3 * 4.0**-k for k in range(4)]
    trajs_b = [
        solve(mollify_drift(fam["b"], eps), fam["f"], fam["config"], diagnostics=False)
        for eps in schedule_b
    ]
    rep = check_cauchy_convergence(fam["trajs"], trajs_b, tol_rel=SINGULAR_TOL)
    ratios = [r for r in rep.notes["decay_ratios"] if math.isfinite(r)]
    # the budget covers the schedule-A solves shared with criterion 9 too
    elapsed = time.time() - t0 + fam["solve_s"]
    ok = rep.passed and elapsed < budget
    report(
        "criterion 8 (Cauchy convergence + schedule independence)",
        ok,
        f"gaps {['%.2e' % g for g in rep.notes['gaps_a']]}, "
        f"ratios {['%.2f' % r for r in ratios]}, cross gap {rep.notes['cross_gap']:.2e}",
        elapsed,
        budget,
    )
    assert rep.notes["decay_ok"], rep.notes["decay_ratios"]
    assert rep.notes["cross_ok"]
    assert rep.passed
    assert elapsed < budget


def test_criterion_09_uniform_gradient_bound(hardy32_family):
    budget, t0 = 60.0, time.time()
    fam = hardy32_family
    horizon = fam["config"].t_final
    c0 = horizon * max(mean_square(d) for d in fam["drifts"])
    rep = check_gradient_bound(fam["trajs"], fam["f"], c0, tol_rel=SINGULAR_TOL)
    elapsed = time.time() - t0
    ok = rep.passed and rep.min_slack > 0 and elapsed < budget
    report(
        "criterion 9 (uniform gradient bound)",
        ok,
        f"min slack {rep.min_slack:+.3e} over {len(fam['trajs'])} members (C0={c0:.3f})",
        elapsed,
        budget,
    )
    assert rep.passed
    assert rep.min_slack > 0
    assert elapsed < budget


@pytest.mark.slow
def test_criterion_10_sde_probe():
    budget, t0 = 120.0, time.time()
    x0, r_hit, horizon = 0.45, 0.3, 0.02
    baseline_cfg = SdeConfig(
        dim=3, delta=0.0, x0=(x0, 0.0, 0.0), t_final=horizon, dt=1e-5,
        n_paths=100_000, seed=2024, r_hit=r_hit, r_core=0.03,
    )
    baseline = simulate_hardy_sde(baseline_cfg)
    target = (r_hit / x0) * erfc((x0 - r_hit) / (2 * math.sqrt(horizon)))
    inside = abs(baseline.hit_fraction - target) <= baseline.confidence_halfwidth

    sweep_base = SdeConfig(
        dim=3, delta=0.5, x0=(x0, 0.0, 0.0), t_final=horizon, dt=1e-5,
        n_paths=20_000, seed=2024, r_hit=r_hit, r_core=0.03,
    )
    sweep = delta_sweep(sweep_base, [0.5, 4.0, 36.0, 100.0])
    monotone = all(
        hi.hit_fraction >= lo.hit_fraction - (lo.confidence_halfwidth + hi.confidence_halfwidth)
        for lo, hi in zip(sweep, sweep[1:])
    )

    repro_cfg = SdeConfig(
        dim=3, delta=4.0, x0=(x0, 0.0, 0.0), t_final=horizon, dt=1e-4,
        n_paths=10_000, seed=7, r_hit=r_hit, r_core=0.03,
    )
    bitwise = simulate_hardy_sde(repro_cfg) == simulate_hardy_sde(repro_cfg)

    elapsed = time.time() - t0
    ok = inside and monotone and bitwise and elapsed < budget
    report(
        "criterion 10 (SDE probe)",
        ok,
        f"baseline {baseline.hit_fraction:.5f} vs closed form {target:.5f} "
        f"(ci {baseline.confidence_halfwidth:.5f}, inside: {inside}); sweep "
        f"{['%.3f' % s.hit_fraction for s in sweep]} monotone: {monotone}; "
        f"bitwise reproducible: {bitwise}",
        elapsed,
        budget,
    )
    assert inside
    assert monotone
    assert bitwise
    assert elapsed < budget
