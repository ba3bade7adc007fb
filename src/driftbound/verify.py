"""Numerical certification of the a priori inequalities against trajectories.

Each check compares a measured left-hand side with the theoretical right-hand
side at every checkpoint (the snapshot times) and reports per-checkpoint
slack = rhs - lhs.  A report passes when every slack is at least
-tol_rel * |rhs|.  Two tolerance tiers are used: ANALYTIC_TOL for exactly
representable cases and SINGULAR_TOL for runs driven by mollified singular
drifts, where the quadrature of a near-singular field adds slack of its own.
The inequalities that hold pointwise in time read the trajectory's
snapshots; time integrals are trapezoid sums over the dense per-step
diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from .grid import ScalarField, lp_norm
from .orlicz import modular, orlicz_norm

__all__ = [
    "ANALYTIC_TOL",
    "SINGULAR_TOL",
    "VerificationReport",
    "check_orlicz_contraction",
    "check_lp_contraction",
    "lp_threshold",
    "check_cosh_energy",
    "check_exp_energy",
    "check_gradient_bound",
    "check_cauchy_convergence",
    "refinement_study",
    "render_reports",
]

ANALYTIC_TOL = 1e-6
SINGULAR_TOL = 5e-2

# the Cauchy check's least decay ratio per level, and the gap below which a
# level counts as converged
CAUCHY_MIN_RATIO = 1.5
CAUCHY_NEGLIGIBLE = 1e-9


@dataclass
class VerificationReport:
    """Per-inequality verdict with measured slack at every checkpoint."""

    inequality_id: str
    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    tol_rel: float
    passed: bool
    notes: dict = dataclass_field(default_factory=dict)
    refinement_trend: Optional[list] = None

    @property
    def slack(self):
        return self.rhs - self.lhs

    @property
    def min_slack(self):
        return float(self.slack.min())

    @property
    def failure_amount(self):
        """Largest tolerance-normalized deficit; 0 when the check passes."""
        deficit = self.lhs - self.rhs - self.tol_rel * np.abs(self.rhs)
        return float(max(0.0, deficit.max()))

    def to_json(self):
        out = {
            "inequality_id": self.inequality_id,
            "tol_rel": self.tol_rel,
            "passed": bool(self.passed),
            "times": [float(t) for t in self.times],
            "lhs": [float(x) for x in self.lhs],
            "rhs": [float(x) for x in self.rhs],
            "slack": [float(x) for x in self.slack],
            "notes": _jsonable(self.notes),
        }
        if self.refinement_trend is not None:
            out["refinement_trend"] = [float(x) for x in self.refinement_trend]
        return out

    def __str__(self):
        # Several checks hold with equality at t = 0 by construction, so the
        # margin is the least relative slack (rhs - lhs) / |rhs| over t > 0.
        # (rhs is 0 after t = 0 only for a zero datum, where the slack is 0 too)
        later = self.times > 0
        relative = self.slack[later] / np.maximum(np.abs(self.rhs[later]), np.finfo(float).tiny)
        i = int(np.argmin(relative))
        # a one-checkpoint report (cauchy_convergence) has no time axis
        where = f" at t={self.times[later][i]:.4g}" if len(self.times) > 1 else ""
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.inequality_id:<24s} {status}  min relative slack {relative[i]:+.3e}{where} "
            f"(tol_rel {self.tol_rel:g}, {len(self.times)} checkpoints)"
        )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    return obj


def render_reports(reports):
    lines = [str(r) for r in reports]
    agg = all(r.passed for r in reports)
    lines.append(f"{'aggregate':<24s} {'PASS' if agg else 'FAIL'}")
    return "\n".join(lines)


def _passes(lhs, rhs, tol_rel):
    return bool(np.all(rhs - lhs >= -tol_rel * np.abs(rhs)))


def _require_clean(traj):
    if traj.aborted:
        raise ValueError(f"cannot verify an aborted trajectory ({traj.abort_message})")


def _cumulative_trapezoid(y, t):
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out


def _growth_rate(delta, c_delta):
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    return c_delta / math.sqrt(delta)


def check_orlicz_contraction(traj, delta, c_delta, tol_rel=ANALYTIC_TOL):
    """||u(t)||_Phi <= exp(2 (c/sqrt(delta)) t) ||f||_Phi at every checkpoint.

    The stated bound carries the factor 2 in the exponent; the sharper
    single-factor variant that the energy identity actually yields is
    evaluated alongside and reported in notes["sharper_exponent_passed"].
    The checkpoint norms are the trajectory's snapshot_orlicz, the same
    values its diagnostics CSV carries.
    """
    _require_clean(traj)
    rate = _growth_rate(delta, c_delta)
    times = traj.snapshot_times
    lhs = traj.snapshot_orlicz
    norm_f = lhs[0]
    rhs = np.exp(2.0 * rate * times) * norm_f
    rhs_sharp = np.exp(rate * times) * norm_f
    return VerificationReport(
        inequality_id="orlicz_contraction",
        times=times,
        lhs=lhs,
        rhs=rhs,
        tol_rel=tol_rel,
        passed=_passes(lhs, rhs, tol_rel),
        notes={
            "initial_norm": norm_f,
            "sharper_exponent_passed": _passes(lhs, rhs_sharp, tol_rel),
            "rate": rate,
        },
    )


def lp_threshold(delta):
    """Smallest admissible p for the L^p quasi-contraction: 2/(2 - sqrt(delta))."""
    if not 0 < delta < 4:
        raise ValueError(f"the L^p threshold needs 0 < delta < 4, got {delta}")
    return 2.0 / (2.0 - math.sqrt(delta))


def check_lp_contraction(traj, p, delta, c_delta, tol_rel=ANALYTIC_TOL):
    """||u(t)||_p <= exp((c/(p sqrt(delta))) t) ||f||_p for admissible p.

    Rejects p below the threshold 2/(2 - sqrt(delta)) (only there does the
    dispersion coefficient 4(p-1)/p - 2 sqrt(delta) stay nonnegative).
    """
    _require_clean(traj)
    threshold = lp_threshold(delta)
    if p < threshold - 1e-12:
        raise ValueError(
            f"p={p} is below the quasi-contraction threshold "
            f"2/(2-sqrt(delta)) = {threshold:.6g} for delta={delta}"
        )
    times = traj.snapshot_times
    lhs = np.array([lp_norm(traj.snapshot_u(i), p) for i in range(len(traj.snapshots))])
    norm_f = lhs[0]
    rate = c_delta / (p * math.sqrt(delta))
    rhs = np.exp(rate * times) * norm_f
    return VerificationReport(
        inequality_id=f"lp_contraction_p{p:g}",
        times=times,
        lhs=lhs,
        rhs=rhs,
        tol_rel=tol_rel,
        passed=_passes(lhs, rhs, tol_rel),
        notes={"threshold": threshold, "rate": rate},
    )


def check_cosh_energy(traj, delta, c_delta, tol_rel=ANALYTIC_TOL):
    """<cosh(v(t)) - 1> <= <cosh(f) - 1> + (c/sqrt(delta)) t per checkpoint.

    Requires the trajectory to have been solved with shift = c/sqrt(delta),
    which cancels the time-integral term on the left.
    """
    _require_clean(traj)
    rate = _growth_rate(delta, c_delta)
    if not math.isclose(traj.shift, rate, rel_tol=1e-9, abs_tol=1e-12):
        raise ValueError(
            f"trajectory was solved with shift={traj.shift}, but this check "
            f"needs shift = c/sqrt(delta) = {rate}"
        )
    times = traj.snapshot_times
    lhs = np.array([modular(snapshot, 1.0) for snapshot in traj.snapshots])
    rhs = lhs[0] + rate * times
    return VerificationReport(
        inequality_id="cosh_energy",
        times=times,
        lhs=lhs,
        rhs=rhs,
        tol_rel=tol_rel,
        passed=_passes(lhs, rhs, tol_rel),
        notes={"rate": rate},
    )


def check_exp_energy(traj, p, delta, c_delta, tol_rel=ANALYTIC_TOL):
    """Exponential-weight energy inequality for the unshifted solution u.

    At every checkpoint t:

        sup_{s<=t} <e^(u^p)>
          + 4 (p-1)/p * int_0^t <(grad u^(p/2))^2 e^(u^p)> ds
          + 2 (2 - sqrt(delta)) * int_0^t <(grad e^(u^p/2))^2> ds
        <= <e^(f^p)> + (c/sqrt(delta)) * int_0^t <e^(u^p)> ds

    The dispersion coefficient vanishes identically at delta = 4.  The
    short-time corollary (valid while (c/sqrt(delta)) t < 1/2) drops the
    third term and is reported in notes["corollary_passed"].
    """
    _require_clean(traj)
    p = int(p)
    if p not in traj.p_list:
        raise ValueError(f"p={p} not among the trajectory's diagnostics {traj.p_list}")
    rate = _growth_rate(delta, c_delta)
    exp_mod = traj.diag[f"exp_modular_p{p}_u"]
    disp = traj.diag[f"exp_disp_p{p}_u"]
    grad_exp = traj.diag[f"exp_gradexp_p{p}_u"]
    if not (
        np.all(np.isfinite(exp_mod)) and np.all(np.isfinite(disp)) and np.all(np.isfinite(grad_exp))
    ):
        raise ValueError(
            "exp(u^p) overflowed in the diagnostics; rescale the initial datum "
            "(||f||_inf <= 1 keeps the weights tame)"
        )
    coeff_disp = 4.0 * (p - 1) / p
    coeff_third = 2.0 * (2.0 - math.sqrt(delta))
    running_sup = np.maximum.accumulate(exp_mod)
    int_disp = _cumulative_trapezoid(disp, traj.times)
    int_grad_exp = _cumulative_trapezoid(grad_exp, traj.times)
    int_exp = _cumulative_trapezoid(exp_mod, traj.times)

    # The Gronwall integration bounds the running sup of the whole left side;
    # placing the sup on the first term alone fails already for b = 0, where
    # <e^(u^p(t))> + integrals equals <e^(f^p)> exactly while the sup of the
    # first term stays pinned at the initial value.
    energy = exp_mod + coeff_disp * int_disp + coeff_third * int_grad_exp
    running_energy = np.maximum.accumulate(energy)

    idx = traj.snapshot_indices
    times = traj.snapshot_times
    lhs = running_energy[idx]
    rhs = exp_mod[0] + rate * int_exp[idx]

    literal_lhs = running_sup[idx] + coeff_disp * int_disp[idx] + coeff_third * int_grad_exp[idx]

    short = rate * times < 0.5
    corollary_lhs = 0.5 * running_sup[idx][short] + coeff_disp * int_disp[idx][short]
    corollary_rhs = np.full(int(short.sum()), exp_mod[0])
    return VerificationReport(
        inequality_id=f"exp_energy_p{p}",
        times=times,
        lhs=lhs,
        rhs=rhs,
        tol_rel=tol_rel,
        passed=_passes(lhs, rhs, tol_rel),
        notes={
            "dispersion_coefficient": coeff_disp,
            "third_coefficient": coeff_third,
            "literal_sup_form_min_slack": float((rhs - literal_lhs).min()),
            "corollary_passed": _passes(corollary_lhs, corollary_rhs, tol_rel)
            if short.any()
            else None,
            "corollary_checkpoints": int(short.sum()),
        },
    )


def check_gradient_bound(trajs, f, c0, tol_rel=ANALYTIC_TOL):
    """Uniform-in-n gradient bound over a mollification family.

    max_n int_0^t <(grad v_n)^2> ds <= 1/2 ||f||_2^2 + 1/2 C0(t) ||f||_inf^2,
    with c0 the drift-mass budget sup_n int over the full horizon; for the
    autonomous drifts used here it scales linearly to intermediate times.
    """
    if not trajs:
        raise ValueError("need at least one trajectory")
    for traj in trajs:
        _require_clean(traj)
        if not np.array_equal(traj.snapshots[0].values, f.values):
            raise ValueError("trajectories do not share the given initial datum")
        if not np.array_equal(traj.times, trajs[0].times):
            raise ValueError("trajectories do not share a time grid")
    times = trajs[0].snapshot_times
    idx = trajs[0].snapshot_indices
    integrals = [
        _cumulative_trapezoid(traj.diag["dirichlet_v"], traj.times)[idx] for traj in trajs
    ]
    lhs = np.max(integrals, axis=0)
    horizon = trajs[0].times[-1]
    norm2_sq = lp_norm(f, 2) ** 2
    sup_sq = lp_norm(f, np.inf) ** 2
    rhs = 0.5 * norm2_sq + 0.5 * c0 * (times / horizon) * sup_sq
    return VerificationReport(
        inequality_id="gradient_bound",
        times=times,
        lhs=lhs,
        rhs=rhs,
        tol_rel=tol_rel,
        passed=_passes(lhs, rhs, tol_rel),
        notes={"c0": c0, "members": len(trajs)},
    )


def refinement_study(check_factory, levels):
    """Run a check at successive refinement levels and attach the slack trend.

    check_factory(level) returns a VerificationReport; levels run coarse to
    fine (e.g. successive dt halvings or grid doublings).  The finest report
    comes back with refinement_trend holding the per-level minimum slack;
    notes["refinement_flagged"] is set when a tolerance-normalized deficit
    fails to shrink monotonically under refinement.
    """
    if not levels:
        raise ValueError("need at least one refinement level")
    reports = [check_factory(level) for level in levels]
    deficits = [r.failure_amount for r in reports]
    flagged = any(fine > coarse + 1e-12 for coarse, fine in zip(deficits, deficits[1:]))
    final = reports[-1]
    final.refinement_trend = [r.min_slack for r in reports]
    final.notes["refinement_levels"] = list(levels)
    final.notes["refinement_deficits"] = deficits
    final.notes["refinement_flagged"] = flagged
    return final


def _orlicz_distance(field_a, field_b):
    diff = ScalarField(field_a.grid, field_a.values - field_b.values)
    return orlicz_norm(diff)


def check_cauchy_convergence(trajs_a, trajs_b, tol_rel=ANALYTIC_TOL, map=map):
    """Convergence and schedule independence of the mollified solutions.

    trajs_a and trajs_b are the solves of one datum under the members of two
    mollification schedules, each ordered coarse to fine and sharing one set
    of checkpoint times.  For each schedule it forms D(i, i+1) = sup over
    checkpoints of ||u_i(t) - u_(i+1)(t)||_Phi between consecutive members.
    Passes when the D sequence of schedule A decays by at least
    CAUCHY_MIN_RATIO per level (levels below CAUCHY_NEGLIGIBLE count as
    converged) and the finest members of the two schedules agree within the
    last intra-schedule gap.  The (pair, checkpoint) distances are
    independent and are evaluated through ``map``, which may be an executor's;
    it returns them in order, so the report does not depend on it.
    """
    for trajs in (trajs_a, trajs_b):
        if len(trajs) < 2:
            raise ValueError("schedules need at least two members")
    checkpoints = trajs_a[0].snapshot_times
    for traj in list(trajs_a) + list(trajs_b):
        _require_clean(traj)
        if not np.array_equal(traj.snapshot_times, checkpoints):
            raise ValueError("trajectories do not share checkpoint times")

    def distance(task):
        first, second, i = task
        return _orlicz_distance(first.snapshot_u(i), second.snapshot_u(i))

    # consecutive members of A, then of B, then the two finest members
    pairs = [*zip(trajs_a, trajs_a[1:]), *zip(trajs_b, trajs_b[1:]), (trajs_a[-1], trajs_b[-1])]
    m = len(checkpoints)
    distances = list(map(distance, [(a, b, i) for a, b in pairs for i in range(m)]))
    sups = [max(distances[k * m : (k + 1) * m]) for k in range(len(pairs))]
    gaps_a, gaps_b, cross = sups[: len(trajs_a) - 1], sups[len(trajs_a) - 1 : -1], sups[-1]

    decay_ok = True
    ratios = []
    for coarse, fine in zip(gaps_a, gaps_a[1:]):
        if coarse <= CAUCHY_NEGLIGIBLE and fine <= CAUCHY_NEGLIGIBLE:
            ratios.append(math.inf)
            continue
        ratio = coarse / fine if fine > 0 else math.inf
        ratios.append(ratio)
        if ratio < CAUCHY_MIN_RATIO:
            decay_ok = False

    cross_budget = max(gaps_a[-1], gaps_b[-1], CAUCHY_NEGLIGIBLE)
    cross_ok = cross <= cross_budget * (1.0 + tol_rel)

    times = np.array([float(len(gaps_a))])
    return VerificationReport(
        inequality_id="cauchy_convergence",
        times=times,
        lhs=np.array([cross]),
        rhs=np.array([cross_budget]),
        tol_rel=tol_rel,
        passed=bool(decay_ok and cross_ok),
        notes={
            "gaps_a": gaps_a,
            "gaps_b": gaps_b,
            "decay_ratios": ratios,
            "min_ratio": CAUCHY_MIN_RATIO,
            "cross_gap": cross,
            "decay_ok": decay_ok,
            "cross_ok": cross_ok,
        },
    )
