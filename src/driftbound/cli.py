"""Experiment orchestration: config parsing, pipelines, manifests, reports.

One YAML config file describes an experiment; subcommands run slices of it:

    init       write a documented config template
    norm       Orlicz/L^p norms of the initial datum
    formbound  drift construction and the (delta_hat, c) certificate sweep;
               exit 0 iff every certificate is feasible and converged
    mollify    heat-mollified drift family and its L2 convergence table
    solve      time integration with the finest mollified drift
    verify     full pipeline: drift -> certificate -> mollify -> solve ->
               all selected inequality checks; exit 0 iff every certificate
               and every check passes
    sde        hitting-probability sweep of the radial SDE probe
    all        verify + sde

Every config key and its default live in DEFAULTS, which takes the drift,
solver and sde defaults from their dataclasses and the formbound defaults
from form_bound_estimate, and a config error (exit 2) is raised before any
file is written.  Every other run, a runtime failure (exit 3) included,
writes a manifest.json listing each file the run wrote with its sha256
digest, the exit status, the config digest, tool version and timestamps; a
failure to write outputs is a runtime failure too.
Warnings go to the "driftbound" logger, which the command line prints to
stderr.
Report files themselves carry no timestamps, so identical configs and seeds
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import json
import logging
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from ._convert import integral, real, usable_cpus
from .drift import (
    DriftSpec,
    build_drift,
    form_bound_estimate,
    hardy_coefficient,
    mollify_drift,
    zeroth_order_constant,
)
from .grid import TorusGrid, build_field, lp_norm, write_field
from .orlicz import modular, orlicz_norm
from .sde import SdeConfig, delta_sweep, sweep_configs
from .solver import SolverConfig, _check_cfl, solve
from .verify import (
    ANALYTIC_TOL,
    SINGULAR_TOL,
    check_cauchy_convergence,
    check_cosh_energy,
    check_exp_energy,
    check_gradient_bound,
    check_lp_contraction,
    check_orlicz_contraction,
    growth_rate,
    lp_exponent,
    render_reports,
)

log = logging.getLogger("driftbound")

INEQUALITY_IDS = (
    "orlicz_contraction",
    "lp_contraction",
    "cosh_energy",
    "exp_energy",
    "gradient_bound",
    "cauchy_convergence",
)

TEMPLATE = """\
# driftbound experiment configuration.  Values are the defaults except where marked
# required or demo; sde.seed (null -> experiment.seed) and sde.sign (-1) are not shown.

experiment:
  seed: 0                     # the SDE seed when sde.seed is null
  output_dir: runs/demo       # artifacts land here; manifest.json lists them
  tolerance_tier: singular    # singular (5e-2) | analytic (1e-6) slack floor

grid:
  dim: 3                      # required: 1, 2 or 3
  n: 32                       # required: even, >= 8; grid is n^dim over [-1/2, 1/2)^dim

drift:
  kind: hardy                 # required: hardy | constant | trig | file
  delta: 4.0                  # hardy: nominal form-bound of the singularity
  sign: -1                    # hardy: -1 attracts the flow to the origin
  core_radius: null           # hardy: null -> two grid spacings
  cutoff_radius: 0.4          # hardy: smooth cutoff support radius (< 1/2)
  # vector: [0.5, 0.0, 0.0]   # constant drifts
  # components: [[[0.5, [1, 0, 0]]], [], []]   # trig: amp * cos(2 pi k.x)
  # path: drift.bin           # file drifts (binary or csv field format)

mollification:
  schedule: [1.0e-2, 2.5e-3, 6.25e-4, 1.5625e-4]   # strictly decreasing eps
  schedule_b: null            # second schedule for the independence check;
                              # null -> half of each schedule entry

formbound:
  c_values: null              # null -> [1.2, 2, 4, 8] * <|b|^2>
  max_iter: 5000
  rq_tol: 1.0e-10

initial:
  kind: trig                  # trig | constant | file
  terms: [[0.5, [1, 0, 0]], [0.25, [0, 1, 1]]]   # demo amp cos(2 pi k.x); null -> 0.5 cos(2 pi x)
  # value: 0.5                # constant datum
  # path: initial.bin         # file datum

solver:
  dt: 5.0e-4                  # required
  t_final: 0.05               # required: a whole number of steps
  shift: auto                 # auto -> c_delta / sqrt(delta)
  snapshot_stride: 20
  scheme: if_rk2              # if_rk2 | if_euler
  cfl_safety: 0.5
  p_list: [2, 4]              # even powers tracked for the energy checks

verifier:
  inequalities: [orlicz_contraction, lp_contraction, cosh_energy, exp_energy,
                 gradient_bound, cauchy_convergence]
  delta: auto                 # auto -> hardy's nominal delta, else 4.0
  c_delta: auto               # auto -> top eigenvalue of (|b|^2 - delta L)
  lp_p: auto                  # auto -> smallest even integer above threshold

sde:
  dim: 3
  delta: 0.0                  # run only when deltas is null
  deltas: [0.5, 4.0, 36.0, 100.0]   # demo; null -> [delta]
  x0: [0.45, 0.0, 0.0]
  t_final: 0.02
  dt: 2.0e-5
  n_paths: 20000
  r_hit: 0.3
  r_core: 0.03
"""


class ConfigError(ValueError):
    """Configuration problem with a dotted field path for context."""


# marks a DEFAULTS key that every config must set, like a field without a default
REQUIRED = dataclasses.MISSING


def _fields(cls, **overrides):
    """The DEFAULTS section of dataclass cls: its fields and their defaults,
    with ``overrides`` where the config's default differs."""
    return {**{f.name: f.default for f in dataclasses.fields(cls)}, **overrides}


def _keywords(fn):
    """The DEFAULTS section of function fn: its parameters that have defaults."""
    params = inspect.signature(fn).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


# The config schema: every key and its default; any other key is a config
# error.  The drift, solver and sde sections (sde less deltas) go whole to
# DriftSpec, SolverConfig and SdeConfig, so their keys and defaults are those
# classes' fields, except three the config derives: solver.shift's auto is
# c_delta / sqrt(delta), sde.seed's null is experiment.seed and sde.deltas'
# null is [sde.delta].  The formbound section goes whole to
# form_bound_estimate as its keyword arguments, so its keys and defaults are
# those parameters'.  None marks a value that is optional or derived: the
# drift's vector, components and path, and the initial value and path, are
# read only by their kind; core_radius defaults to two grid spacings,
# schedule_b to half of each schedule entry and initial.terms to one cosine
# along the first axis.
DEFAULTS = {
    "experiment": {"seed": 0, "output_dir": "runs/demo", "tolerance_tier": "singular"},
    "grid": {"dim": REQUIRED, "n": REQUIRED},
    "drift": _fields(DriftSpec),
    "mollification": {"schedule": [1.0e-2, 2.5e-3, 6.25e-4, 1.5625e-4], "schedule_b": None},
    "formbound": _keywords(form_bound_estimate),
    "initial": {"kind": "trig", "terms": None, "value": None, "path": None},
    "solver": _fields(SolverConfig, shift="auto"),
    "verifier": {
        "inequalities": list(INEQUALITY_IDS), "delta": "auto", "c_delta": "auto", "lp_p": "auto",
    },
    "sde": _fields(SdeConfig, seed=None, deltas=None),
}

# the initial key that holds each grid.build_field kind's source
INITIAL_SOURCES = {"constant": "value", "trig": "terms", "file": "path"}


def _section(data, name):
    """Config section ``name`` merged over DEFAULTS[name].

    A section left empty in the YAML takes every default.  An unknown key, a
    missing REQUIRED one, or a null for a key with a concrete default is a
    ConfigError.
    """
    section = data.get(name)
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a mapping, got {type(section).__name__}")
    defaults = DEFAULTS[name]
    unknown = [key for key in section if key not in defaults]
    if unknown:
        raise ConfigError(f"{name} has unknown keys {unknown}; known keys are {list(defaults)}")
    for key, default in defaults.items():
        if default is REQUIRED and section.get(key) is None:
            raise ConfigError(f"{name}.{key} is required")
        if default is not None and key in section and section[key] is None:
            raise ConfigError(f"{name}.{key} must not be null; its default is {default!r}")
    return {**defaults, **section}


@contextmanager
def _checking(name):
    """Report a ValueError, TypeError or OSError raised while reading section ``name``
    as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"{name}: cannot read {exc.filename}: {exc.strerror or exc}") from exc


def _seed(name, value):
    try:
        seed = integral(value, name)
    except ValueError as exc:
        raise ConfigError(exc) from None
    if seed < 0:
        raise ConfigError(f"{name} must be >= 0, got {seed}")
    return seed


def _schedule(cfg, key):
    schedule = [real(e, key) for e in cfg[key]]
    if not schedule or schedule[-1] <= 0 or any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigError(
            f"mollification.{key} must be strictly decreasing and positive: {schedule}"
        )
    return schedule


def load_config(path):
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1})" if mark else ""
        raise ConfigError(f"YAML parse error in {path}{where}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} does not hold a mapping")
    return data


class Experiment:
    """Experiment state shared by the pipelines.

    Building it reads every section through DEFAULTS, in template order, and
    checks what needs no computation: the tier, grid, a hardy drift's grid
    dim, schedules, form-bound budgets (at least one), the initial kind and
    its source key, verifier ids (at least one) and constants.  The drift,
    solver and sde sections are passed whole to their dataclasses, which
    convert and validate each field; sde only when the config has it.  It
    fixes the seed and the checks' delta and L^p exponent; check_parameters
    adds c_delta and the shift once the drift is built.  The pipelines raise
    their remaining config errors (a drift or datum that cannot be built, a
    Cauchy check without two schedule members, cosh_energy with an explicit
    shift, selected checks none of which can run) before they write any file.
    """

    def __init__(self, data, output_dir=None, seed=None, tier=None):
        unknown = [name for name in data if name not in DEFAULTS]
        if unknown:
            raise ConfigError(f"unknown sections {unknown}; known sections are {list(DEFAULTS)}")
        with _checking("experiment"):
            exp = _section(data, "experiment")
            self.output_dir = Path(output_dir or exp["output_dir"])
            self.tier = tier or exp["tolerance_tier"]
            if self.tier not in ("analytic", "singular"):
                raise ConfigError(
                    f"experiment.tolerance_tier must be analytic|singular, got {self.tier!r}"
                )
            self.tol_rel = ANALYTIC_TOL if self.tier == "analytic" else SINGULAR_TOL

        with _checking("grid"):
            grid = _section(data, "grid")
            self.grid = TorusGrid(integral(grid["dim"], "dim"), integral(grid["n"], "n"))

        with _checking("drift"):
            self.drift_spec = spec = DriftSpec(**_section(data, "drift"))
            if spec.kind == "hardy":  # raises on a grid of dim < 3
                hardy_coefficient(spec.delta, self.grid.dim, spec.sign)

        with _checking("mollification"):
            mollification = _section(data, "mollification")
            self.schedule = _schedule(mollification, "schedule")
            if mollification["schedule_b"] is None:
                self.schedule_b = [0.5 * e for e in self.schedule]
            else:
                self.schedule_b = _schedule(mollification, "schedule_b")

        with _checking("formbound"):
            self.formbound = fb = _section(data, "formbound")
            if fb["c_values"] is not None:
                fb["c_values"] = [real(c, "c_values") for c in fb["c_values"]]
            fb["max_iter"] = integral(fb["max_iter"], "max_iter")
            fb["rq_tol"] = real(fb["rq_tol"], "rq_tol")
            if fb["max_iter"] < 1 or not fb["rq_tol"] > 0 or fb["c_values"] == []:
                raise ConfigError(
                    f"formbound needs max_iter >= 1, rq_tol > 0 and c_values != [], got "
                    f"max_iter={fb['max_iter']}, rq_tol={fb['rq_tol']}, c_values={fb['c_values']}"
                )
        with _checking("initial"):
            self.initial_cfg = initial = _section(data, "initial")
            kind = initial["kind"]
            name = INITIAL_SOURCES.get(kind)
            if name is None:
                raise ConfigError(f"initial.kind must be constant|trig|file, got {kind!r}")
            if name != "terms" and initial[name] is None:  # terms alone has a default
                raise ConfigError(f"initial.{name} is required for a {kind} datum")

        with _checking("solver"):
            solver = _section(data, "solver")
            # None for auto: check_parameters sets c_delta / sqrt(delta)
            self.shift = None if solver["shift"] == "auto" else real(solver["shift"], "shift")
            self.solver = SolverConfig(**{**solver, "shift": self.shift or 0.0})

        with _checking("verifier"):
            verifier = _section(data, "verifier")
            self.inequalities = verifier["inequalities"]
            if not self.inequalities:
                raise ConfigError("verifier.inequalities must name at least one check")
            unknown = [name for name in self.inequalities if name not in INEQUALITY_IDS]
            if unknown:
                raise ConfigError(f"verifier.inequalities contains unknown ids {unknown}")
            # An explicit delta, c_delta or lp_p wins for every drift.  Auto
            # delta is hardy's nominal value, else the critical budget 4; auto
            # c_delta (None) is left to check_parameters.
            delta = verifier["delta"]
            if delta == "auto":
                delta = self.drift_spec.delta if self.drift_spec.kind == "hardy" else 4.0
            self.delta = real(delta, "delta")
            if not self.delta > 0:
                raise ConfigError(f"verifier.delta must be > 0, got {verifier['delta']}")
            c_delta = verifier["c_delta"]
            self.c_delta = None if c_delta == "auto" else real(c_delta, "c_delta")
            if self.c_delta is not None and not self.c_delta >= 0:
                raise ConfigError(f"verifier.c_delta must be >= 0, got {c_delta}")
            # None skips lp_contraction: its threshold 2/(2 - sqrt(delta)) needs
            # delta < 4
            self.lp_p = None
            if "lp_contraction" in self.inequalities and self.delta < 4.0:
                self.lp_p = lp_exponent(self.delta, verifier["lp_p"])

        with _checking("sde"):
            sde = _section(data, "sde")
            # The run's one seed, which only the SDE reads: --seed, else
            # sde.seed, else experiment.seed.  Every given source is checked,
            # so whether a config is valid does not depend on the flag, and
            # each is named in its own error.
            sources = [("--seed", seed), ("sde.seed", sde["seed"]), ("experiment.seed", exp["seed"])]
            seeds = [_seed(name, value) for name, value in sources if value is not None]
            self.seed = seeds[0]
            # (base config, swept deltas); None when the config has no sde section
            self.sde = self._sde_sweep(sde) if data.get("sde") else None

        self.config_digest = hashlib.sha256(
            json.dumps(data, sort_keys=True, default=str).encode()
        ).hexdigest()
        self._t_started = time.time()
        self.artifacts = set()  # names of the files this run wrote

    def _sde_sweep(self, cfg):
        deltas = cfg.pop("deltas")
        base = SdeConfig(**{**cfg, "seed": self.seed})
        deltas = [base.delta] if deltas is None else [real(d, "deltas") for d in deltas]
        # validates every swept config, so a bad delta is a config error
        sweep_configs(base, deltas)
        return base, deltas

    # -- building blocks -------------------------------------------------

    @_checking("drift")
    def build_drift(self):
        return build_drift(self.drift_spec, self.grid)

    @_checking("initial")
    def build_initial(self):
        kind = self.initial_cfg["kind"]
        name = INITIAL_SOURCES[kind]
        source = self.initial_cfg[name]
        if source is None:
            source = [[0.5, [1] + [0] * (self.grid.dim - 1)]]
        return build_field(self.grid, kind, source, name)

    def check_parameters(self, b):
        """(delta, c_delta, SolverConfig) for the solves and checks on drift b.

        delta comes from __init__.  An explicit verifier.c_delta wins;
        otherwise c_delta is zeroth_order_constant(b, delta), the smallest
        constant valid for every grid field at delta (0 for a zero drift).  An
        explicit solver.shift wins; otherwise the shift is the growth rate
        c_delta / sqrt(delta), which the paper's estimates assume.
        """
        c_delta = zeroth_order_constant(b, self.delta) if self.c_delta is None else self.c_delta
        shift = growth_rate(self.delta, c_delta) if self.shift is None else self.shift
        return self.delta, c_delta, dataclasses.replace(self.solver, shift=shift)

    # -- artifact bookkeeping --------------------------------------------

    def artifact(self, name):
        """Path of output file ``name``, recorded for the manifest.

        Every pipeline names its outputs here, so the manifest lists exactly
        the files this run wrote.  Creates the output directory.
        """
        self.output_dir.mkdir(parents=True, exist_ok=True)
        self.artifacts.add(name)
        return self.output_dir / name

    def emit_json(self, name, payload):
        self.artifact(name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def write_manifest(self, status, error=None):
        files = {
            name: hashlib.sha256((self.output_dir / name).read_bytes()).hexdigest()
            for name in sorted(self.artifacts)
        }
        manifest = {
            "tool": "driftbound",
            "version": __version__,
            "config_digest": self.config_digest,
            "seed": self.seed,
            "started": self._t_started,
            "finished": time.time(),
            "passed": status == 0,
            "status": status,
            "error": error,
            "artifacts": files,
        }
        self.output_dir.mkdir(parents=True, exist_ok=True)
        (self.output_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )


# -- pipelines ------------------------------------------------------------


def pipeline_norm(exp):
    f = exp.build_initial()
    norm = orlicz_norm(f)
    payload = {
        "orlicz": norm,
        "modular_at_norm": modular(f, norm) if norm else 0.0,
        "modular_at_1": modular(f, 1.0),
        "l1": lp_norm(f, 1),
        "l2": lp_norm(f, 2),
        "l4": lp_norm(f, 4),
        "linf": lp_norm(f, np.inf),
    }
    exp.emit_json("norms.json", payload)
    return True


def pipeline_formbound(exp):
    b = exp.build_drift()
    return _write_certificates(exp, b, form_bound_estimate(b, **exp.formbound))


def _write_certificates(exp, b, certs):
    """Write certificates.json from the form-bound certificates of drift b;
    True iff every certificate is feasible and converged."""
    payload = {
        "mean_square_drift": b.mean_square(),
        "certificates": [c.to_json() for c in certs],
    }
    exp.emit_json("certificates.json", payload)
    unconverged = sum(1 for c in certs if c.feasible and not c.converged)
    if unconverged:
        log.warning(
            "formbound: %d of %d certificates did not reach rq_tol=%g within max_iter=%s",
            unconverged,
            len(certs),
            exp.formbound["rq_tol"],
            exp.formbound["max_iter"],
        )
    # a certificate counts only when its budget is feasible and its pair converged
    return all(c.feasible and c.converged for c in certs)


def pipeline_mollify(exp):
    b = exp.build_drift()
    rows = []
    for i, eps in enumerate(exp.schedule):
        b_eps = mollify_drift(b, eps)
        name = f"drift_eps_{i}.bin"
        write_field(exp.artifact(name), b_eps)
        gap_sq = sum(
            float(((m.values - t.values) ** 2).sum())
            for m, t in zip(b.components, b_eps.components)
        )
        rows.append(
            {
                "eps": eps,
                "l2_gap_to_parent": math.sqrt(exp.grid.cell_volume * gap_sq),
                "max_magnitude": b_eps.max_magnitude(),
                "file": name,
            }
        )
    exp.emit_json("mollify.json", {"schedule": rows})
    return True


def pipeline_solve(exp):
    b = exp.build_drift()
    f = exp.build_initial()
    b_eps = mollify_drift(b, exp.schedule[-1])
    _check_cfl(b_eps, exp.solver)  # before c(delta), the costliest step before the solve
    _, _, config = exp.check_parameters(b)
    traj = solve(b_eps, f, config)
    traj.to_csv(exp.artifact("diagnostics.csv"))
    for i, snapshot in enumerate(traj.snapshots):
        write_field(exp.artifact(f"snapshot_{i:04d}.bin"), snapshot)
    exp.emit_json(
        "solve.json",
        {
            "aborted": traj.aborted,
            "abort_message": traj.abort_message,
            "shift": config.shift,
            "eps": exp.schedule[-1],
            "snapshots": len(traj.snapshots),
            "final_time": float(traj.times[-1]),
        },
    )
    if traj.aborted:
        raise RuntimeError(f"solve aborted for eps={exp.schedule[-1]}: {traj.abort_message}")
    return True


def _check_members_cfl(b, schedule, config):
    """Raise, before any work, the CFL violation that the solves of drift b
    mollified at each eps in schedule would raise.

    Only the member with the smallest eps, whose max|b_eps| is the largest
    on the template, is mollified when it keeps the limit; solve() still
    checks every member, since on the grid max|b_eps| need not fall with
    eps.  When it breaks the limit, the members before it in schedule order
    are checked too, so the error names the first member in schedule order
    that breaks it, as the solves' results, read in that order, would.  No
    mollified drift outlives the call.
    """
    finest = min(schedule)
    try:
        _check_cfl(mollify_drift(b, finest), config)
    except ValueError:
        for eps in schedule[: schedule.index(finest)]:
            _check_cfl(mollify_drift(b, eps), config)
        raise


def pipeline_verify(exp):
    selected = exp.inequalities
    if "cosh_energy" in selected and exp.shift is not None:
        raise ConfigError(
            f"cosh_energy needs the shift c_delta / sqrt(delta), but solver.shift is "
            f"{exp.shift:g}; set solver.shift to auto or leave cosh_energy out"
        )
    b = exp.build_drift()
    f = exp.build_initial()
    singular_drift = b.max_magnitude() > 0
    members = exp.schedule if singular_drift else [0.0]
    run_cauchy = "cauchy_convergence" in selected and singular_drift
    if run_cauchy and min(len(exp.schedule), len(exp.schedule_b)) < 2:
        raise ConfigError(
            "cauchy_convergence needs at least two members in mollification.schedule "
            "and mollification.schedule_b"
        )
    skipped = {}
    if "lp_contraction" in selected and exp.lp_p is None:
        skipped["lp_contraction"] = f"no admissible p at delta={exp.delta:g} >= 4"
    if "cauchy_convergence" in selected and not singular_drift:
        skipped["cauchy_convergence"] = "a zero drift has nothing to mollify"
    if set(selected) <= skipped.keys():
        reasons = "; ".join(f"{name}: {why}" for name, why in skipped.items())
        raise ConfigError(f"verifier.inequalities: no selected check can run ({reasons})")

    schedule = members + (exp.schedule_b if run_cauchy else [])
    _check_members_cfl(b, schedule, exp.solver)

    # schedule B is solved only for the Cauchy check; every member of A and B
    # is solved exactly once.  Only the finest member records the per-step
    # columns, for diagnostics.csv and exp_energy; the other checks read the
    # snapshots and dirichlet_v, all that the other members record.
    # One pool of min(members, CPUs) threads runs the delta_hat sweep beside
    # c(delta), which the calling thread computes, then the member solves,
    # then the Cauchy check's distances.  Each member task mollifies its own
    # member and keeps only <|b_eps|^2> of its drift, all that
    # gradient_bound's c0 reads, so only drifts in flight are alive.  Each
    # task is sequential on its own buffers, so no byte depends on the thread
    # count or timing.  The finest, the costliest solve, is submitted first;
    # certificates.json is written before any solve result is read, and the
    # results are read in schedule order, so the files written, the first
    # error raised and every output byte are the serial run's.  The sweep's
    # certificates, with their witness fields, are dropped once written.
    finest_index = len(members) - 1
    pool = ThreadPoolExecutor(min(len(schedule), usable_cpus()))
    try:
        sweep = pool.submit(form_bound_estimate, b, **exp.formbound)
        delta, c_delta, config = exp.check_parameters(b)

        def solve_member(i):
            b_eps = mollify_drift(b, schedule[i])
            mean_square = b_eps.mean_square()
            return solve(b_eps, f, config, diagnostics=i == finest_index), mean_square

        order = sorted(range(len(schedule)), key=lambda i: i != finest_index)
        futures = {i: pool.submit(solve_member, i) for i in order}
        certified = _write_certificates(exp, b, sweep.result())
        del sweep
        solved, mean_squares = zip(*(futures[i].result() for i in range(len(schedule))))
        for traj, eps in zip(solved, schedule):
            if traj.aborted:
                raise RuntimeError(f"solve aborted for eps={eps}: {traj.abort_message}")
        trajs, trajs_b = solved[: len(members)], solved[len(members) :]
        finest = trajs[-1]
        finest.to_csv(exp.artifact("diagnostics.csv"))

        reports = []
        if "orlicz_contraction" in selected:
            reports.append(check_orlicz_contraction(finest, delta, c_delta, tol_rel=exp.tol_rel))
        if exp.lp_p is not None:
            reports.append(
                check_lp_contraction(finest, exp.lp_p, delta, c_delta, tol_rel=exp.tol_rel)
            )
        if "cosh_energy" in selected:
            reports.append(check_cosh_energy(finest, delta, c_delta, tol_rel=exp.tol_rel))
        if "exp_energy" in selected:
            # the exponential-weight columns track the unshifted solution u,
            # which the shifted solve carries exactly, so no separate shift-0 solve
            for p in config.p_list:
                reports.append(check_exp_energy(finest, p, delta, c_delta, tol_rel=exp.tol_rel))
        if "gradient_bound" in selected:
            c0 = config.t_final * max(mean_squares[: len(members)])
            reports.append(check_gradient_bound(trajs, f, c0, tol_rel=exp.tol_rel))
        if run_cauchy:
            reports.append(
                check_cauchy_convergence(trajs, trajs_b, tol_rel=exp.tol_rel, map=pool.map)
            )
    finally:
        pool.shutdown(cancel_futures=True)

    exp.emit_json("reports.json", {"reports": [r.to_json() for r in reports]})
    exp.artifact("reports.txt").write_text(render_reports(reports) + "\n")
    return certified and all(r.passed for r in reports)


def pipeline_sde(exp):
    base, deltas = exp.sde
    results = delta_sweep(base, deltas)
    for s in results:
        if s.dt_warning:
            log.warning(
                "sde: delta=%g set dt_warning: a step exceeded 10 r_hit; halve sde.dt", s.delta
            )
    exp.emit_json("sde.json", {"sweep": [s.to_json() for s in results]})
    lines = [f"{'delta':>8s} {'hit_fraction':>13s} {'ci':>9s} {'mean_hit_time':>14s}"]
    for s in results:
        mean = "nan" if math.isnan(s.mean_hit_time) else f"{s.mean_hit_time:.5f}"
        lines.append(f"{s.delta:8.2f} {s.hit_fraction:13.5f} {s.confidence_halfwidth:9.5f} {mean:>14s}")
    exp.artifact("sde.txt").write_text("\n".join(lines) + "\n")
    # the hit fraction must grow with delta, so the files keep the config's
    # order and the verdict reads the results in delta order
    ranked = sorted(results, key=lambda s: s.delta)
    return all(
        b.hit_fraction >= a.hit_fraction - (a.confidence_halfwidth + b.confidence_halfwidth)
        for a, b in zip(ranked, ranked[1:])
    )


PIPELINES = {
    "norm": pipeline_norm,
    "formbound": pipeline_formbound,
    "mollify": pipeline_mollify,
    "solve": pipeline_solve,
    "verify": pipeline_verify,
    "sde": pipeline_sde,
}


def run(subcommand, config_data, output_dir=None, seed=None, tier=None):
    """Execute a pipeline; returns the process exit status.

    0: every check passed; 1: a check failed; 2: config error, raised before
    any file is written; 3: a pipeline failed at run time (a CFL violation,
    an aborted solve, a check that cannot apply to the computed values, an
    OSError while writing outputs).  Every status but 2 ends with
    manifest.json where it can be written, recording the status; on 3 it
    holds the error.
    """
    exp = None
    try:
        exp = Experiment(config_data, output_dir=output_dir, seed=seed, tier=tier)
        names = ["verify", "sde"] if subcommand == "all" else [subcommand]
        if "sde" in names and exp.sde is None:
            raise ConfigError("sde section missing")
        ok = True
        for name in names:
            ok = PIPELINES[name](exp) and ok
        status = 0 if ok else 1
        exp.write_manifest(status)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        if exp is not None:
            # an output directory that cannot be written takes the manifest too
            with suppress(OSError):
                exp.write_manifest(3, error=f"runtime error: {exc}")
        return 3
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="driftbound",
        description="Spectral verification toolkit for critical-drift advection-diffusion",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    init = sub.add_parser("init", help="write a documented config template")
    init.add_argument("--config", required=True, help="path to write")
    init.add_argument("--force", action="store_true", help="overwrite an existing file")
    for name in ("norm", "formbound", "mollify", "solve", "verify", "sde", "all"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--output", default=None, help="override experiment.output_dir")
        p.add_argument("--seed", type=int, default=None, help="override experiment.seed")
        p.add_argument("--tolerance-tier", choices=("analytic", "singular"), default=None)
    args = parser.parse_args(argv)

    if args.subcommand == "init":
        target = Path(args.config)
        if target.exists() and not args.force:
            print(f"{target} exists; use --force to overwrite", file=sys.stderr)
            return 2
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(TEMPLATE)
        except OSError as exc:
            print(f"runtime error: {exc}", file=sys.stderr)
            return 3
        print(f"wrote {target}")
        return 0

    try:
        data = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # the stderr of this call, which a caller may have redirected
    handler = logging.StreamHandler()
    log.addHandler(handler)
    try:
        return run(
            args.subcommand,
            data,
            output_dir=args.output,
            seed=args.seed,
            tier=args.tolerance_tier,
        )
    finally:
        log.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
