"""driftbound benchmark: fresh-process samples of three pipelines.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify32|solve64|sde-sweep \\
        --seed N --seconds S --trace 0|1

Each sample is a new Python process (perfbench/sample.py) that imports
driftbound from ``src/``, loads the generated config and calls
``driftbound.cli.run``: every user pays the process-level costs (imports,
FFT plan caches, lazily built grid symbols) on each run, so the benchmark
does too.  Samples run one after another (a closed loop with one client).

With ``--trace 0`` the run starts rounds of set-up-only samples followed by
one pipeline sample until ``--seconds`` have passed, and reports the
end-to-end medians.  With ``--trace 1`` it runs one untraced and one traced sample and reports the
per-layer numbers of the traced one plus the tracing overhead.  Every
sample's output is checked against the reference recorded in
``perfbench/reference``; the last line of stdout is the JSON result.  See
perfbench/README.md for the workloads, metrics and tolerances.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

from tracer import LAYERS, layer_metrics

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Relative tolerance on report lhs/rhs values.  Reports are deterministic, so
# this only admits rounding-level differences from a reordered computation;
# the absolute floor scales with the largest magnitude in the same series.
REPORT_RTOL = 1e-8

# set-up-only samples before each pipeline sample; they are cheap, and
# spreading them over the run samples set-up at the same machine speed as
# the pipeline
SETUPS_PER_SAMPLE = 6
# a run must end well inside the 180 s a single invocation is allowed
RUN_LIMIT_S = 170.0
HELD_OUT_SEED = 1000


def requested_path_steps(cfg):
    sde = cfg["sde"]
    return sde["n_paths"] * round(sde["t_final"] / sde["dt"]) * len(sde["deltas"])


def _solve64(cfg):
    cfg["grid"]["n"] = 64
    cfg["solver"]["t_final"] = 0.025  # 50 steps: per-step cost, at half the run time
    cfg["mollification"]["schedule"] = [1.0e-3]
    cfg["verifier"]["inequalities"] = [
        "orlicz_contraction",
        "cosh_energy",
        "exp_energy",
        "gradient_bound",
    ]
    # c(delta) of the 64^3 template drift; fixing it skips a 115 s eigsh
    cfg["verifier"]["c_delta"] = 4.10367124


# name -> (CLI subcommand, config edit on the template).
# solve64 is for runs by hand: BENCHMARK.json leaves it out (see README.md).
WORKLOADS = {
    "verify32": ("verify", None),
    "solve64": ("verify", _solve64),
    "sde-sweep": ("sde", None),
}


def make_config(workload, seed):
    """The template config with the workload's edits and the seed in both places.

    ``sde.seed`` overrides ``experiment.seed`` for the SDE, so both are set.
    """
    cfg = yaml.safe_load((HERE / "template.yaml").read_text())
    edit = WORKLOADS[workload][1]
    if edit is not None:
        edit(cfg)
    cfg["experiment"]["seed"] = seed
    cfg["sde"]["seed"] = seed
    return cfg


# -- correctness ---------------------------------------------------------


def _same_float(a, b, scale):
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if a == b:
        return True
    return abs(a - b) <= REPORT_RTOL * max(abs(a), abs(b), scale)


def _diff(path, got, ref, scale=0.0):
    """Where ``got`` differs from ``ref``: floats within REPORT_RTOL, all else exactly.

    A float inside a list is compared on the scale of the list's largest
    finite value, so that entries near zero in a series are not held to a
    tighter tolerance than its other entries.
    """
    if isinstance(ref, float) and type(got) in (int, float):
        return [] if _same_float(got, ref, scale) else [f"{path} = {got!r}, reference {ref!r}"]
    if isinstance(ref, list) and isinstance(got, list):
        if len(got) != len(ref):
            return [f"{path}: {len(got)} values, reference {len(ref)}"]
        scale = max(
            (abs(x) for x in ref if isinstance(x, float) and math.isfinite(x)), default=0.0
        )
        for i, (g, r) in enumerate(zip(got, ref)):
            problems = _diff(f"{path}[{i}]", g, r, scale)
            if problems:
                return problems
        return []
    if isinstance(ref, dict) and isinstance(got, dict):
        if sorted(got) != sorted(ref):
            return [f"{path}: keys {sorted(got)}, reference {sorted(ref)}"]
        return [p for key in sorted(ref) for p in _diff(f"{path}.{key}", got[key], ref[key])]
    if type(got) is not type(ref) or got != ref:
        return [f"{path} = {got!r}, reference {ref!r}"]
    return []


def compare_reports(got, ref):
    """Problems found comparing a reports.json payload with the reference.

    Every verdict, count and name in a report, its notes included, must be
    identical; every float must agree within REPORT_RTOL.
    """
    got_ids = [r["inequality_id"] for r in got["reports"]]
    ref_ids = [r["inequality_id"] for r in ref["reports"]]
    if got_ids != ref_ids:
        return [f"inequalities {got_ids} != reference {ref_ids}"]
    return [
        p for g, r in zip(got["reports"], ref["reports"]) for p in _diff(r["inequality_id"], g, r)
    ]


def check_verify(output, status, ref):
    if status != ref["status"]:
        return [f"exit status {status}, reference {ref['status']}"], False
    path = output / "reports.json"
    if not path.is_file():
        return ["reports.json missing"], False
    raw = path.read_bytes()
    identical = hashlib.sha256(raw).hexdigest() == ref["sha256"]
    return compare_reports(json.loads(raw), ref["reports"]), identical


def check_sde(output, status, ref, seed, cfg):
    """Bitwise hit statistics for a recorded seed; exit 0 and sane counts otherwise."""
    if status != 0:
        return [f"exit status {status}: the sweep is not monotone"], None
    path = output / "sde.json"
    if not path.is_file():
        return ["sde.json missing"], None
    sweep = json.loads(path.read_text())["sweep"]
    sde = cfg["sde"]
    problems = []
    if [s["delta"] for s in sweep] != [float(d) for d in sde["deltas"]]:
        problems.append("swept deltas differ from the config")
    for s in sweep:
        if s["seed"] != seed or s["n_paths"] != sde["n_paths"]:
            problems.append(f"delta {s['delta']}: seed/n_paths not taken from the config")
        if not 0 <= s["hit_count"] <= s["n_paths"] or s["hit_fraction"] != s["hit_count"] / s["n_paths"]:
            problems.append(f"delta {s['delta']}: inconsistent hit count")
    recorded = ref["seeds"].get(str(seed))
    if recorded is None:
        return problems, None
    stats = [[s["delta"], s["hit_count"], s["mean_hit_time"]] for s in sweep]
    if stats != recorded:
        problems.append(f"hit statistics {stats} != reference {recorded}")
    return problems, not problems


def load_reference(workload):
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


# -- samples -------------------------------------------------------------


class Run:
    """One benchmark invocation: its work directory, config and samples."""

    def __init__(self, root, workload, seed, reference=None):
        self.root = Path(root)
        self.workload = workload
        self.seed = seed
        self.subcommand = WORKLOADS[workload][0]
        self.cfg = make_config(workload, seed)
        self.reference = reference if reference is not None else load_reference(workload)
        self.work = self.root / ".perfbench" / f"{workload}-seed{seed}-pid{os.getpid()}"
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.config_path = self.work / "config.yaml"
        self.config_path.write_text(yaml.safe_dump(self.cfg, sort_keys=False))
        self.count = 0
        self.started = time.perf_counter()

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def remaining(self):
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def execute(self, setup_only=False, trace=False):
        """Run one sample process; returns (result, output dir, problems)."""
        self.count += 1
        tag = self.work / f"sample{self.count}"
        output = tag / "output"
        output.mkdir(parents=True)
        request = {
            "src": str(self.root / "src"),
            "config": str(self.config_path),
            "subcommand": self.subcommand,
            "output": str(output),
            "setup_only": setup_only,
            "trace": trace,
            "result": str(tag / "result.json"),
            "spans": str(tag / "spans.json"),
        }
        (tag / "request.json").write_text(json.dumps(request))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "sample.py"), str(tag / "request.json")],
                cwd=self.root,
                capture_output=True,
                text=True,
                timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired:
            return {"process_s": time.perf_counter() - t0}, output, ["sample timed out"]
        process_s = time.perf_counter() - t0
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return {"process_s": process_s}, output, [f"sample exited {proc.returncode}: {tail[0]}"]
        result = json.loads((tag / "result.json").read_text())
        result["process_s"] = process_s
        if trace:
            with open(tag / "spans.json") as fh:
                result["spans"] = json.load(fh)
        return result, output, []

    def sample(self, setup_only=False, trace=False):
        """One checked sample; ``problems`` lists why it failed, if it did."""
        result, output, problems = self.execute(setup_only, trace)
        result["problems"] = problems
        if not problems and not setup_only:
            result["problems"], result["reports_identical"] = self.check(output, result["status"])
            result["artifact_bytes"] = sum(p.stat().st_size for p in output.rglob("*") if p.is_file())
        return result

    def check(self, output, status):
        if self.subcommand == "sde":
            return check_sde(output, status, self.reference, self.seed, self.cfg)
        return check_verify(output, status, self.reference)


def measure(run, seconds):
    """End-to-end samples: rounds of set-up-only samples and one pipeline sample.

    A round that starts before ``seconds`` have passed runs to the end, so a
    run makes at least one pipeline sample.
    """
    setups, samples = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        setups += [run.sample(setup_only=True) for _ in range(SETUPS_PER_SAMPLE)]
        samples.append(run.sample())
        last = time.perf_counter() - round_start
        if time.perf_counter() - start >= seconds or last > run.remaining() - 5.0:
            break
    return setups, samples


def median_of(samples, key):
    values = [s[key] for s in samples if key in s and not s["problems"]]
    return statistics.median(values) if values else math.nan


def _units(root, kind):
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def end_to_end(run, setups, samples):
    m = {
        "wall_s": median_of(samples, "wall_s"),
        "setup_s": median_of(setups + samples, "setup_s"),
        "peak_rss_mb": median_of(samples, "peak_rss_mb"),
    }
    return {name: (m[name], unit) for name, unit in _units(run.root, "end_to_end").items()}


def per_layer(run, plain, traced):
    m = layer_metrics(traced["spans"], traced["wall_s"], plain["wall_s"])
    m["cli.artifact_bytes"] = traced["artifact_bytes"]
    m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return {name: (m[name], unit) for name, unit in _units(run.root, "per_layer").items()}


# -- environment ---------------------------------------------------------


def _cache_bytes(level):
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in base.glob("index*"):
            if (index / "level").read_text().strip() == str(level) and (
                index / "type"
            ).read_text().strip() in ("Unified", "Data"):
                text = (index / "size").read_text().strip()
                return int(text[:-1]) * 1024 if text.endswith("K") else int(text)
    except (OSError, ValueError):
        pass
    return None


def _git_sha(root):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(run, first):
    """Machine, versions and cache fit, recorded with every result."""
    grid = run.cfg["grid"]
    points = grid["n"] ** grid["dim"]
    threshold = first.get("fft_worker_threshold")
    l2, l3 = _cache_bytes(2), _cache_bytes(3)
    src = run.root / "src" / "driftbound"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    ws = None
    if "peak_rss_mb" in first and "setup_rss_mb" in first:
        ws = 1024 * 1024 * (first["peak_rss_mb"] - first["setup_rss_mb"])
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "versions": first.get("versions"),
        "fft_worker_threshold": threshold,
        "thread_env": {
            k: v
            for k, v in os.environ.items()
            if "THREAD" in k or k in ("OMP_PROC_BIND", "KMP_AFFINITY")
        },
        "git_sha": _git_sha(run.root),
        "src_sha256": digest.hexdigest(),
        "l2_bytes_per_core": l2,
        "l3_bytes_shared": l3,
        "workload": {
            "config_seed": run.seed,
            "held_out_seed": HELD_OUT_SEED,
            "field_bytes": 8 * points if run.subcommand == "verify" else None,
            "fft_workers": None
            if run.subcommand != "verify" or threshold is None
            else ("all" if points >= threshold else 1),
            # growth of peak RSS over set-up: an upper bound on the data the
            # pipeline keeps live, compared with the shared L3
            "working_set_bytes_upper": ws,
            "working_set_fits_l3": None if ws is None or l3 is None else ws < l3,
        },
    }


# -- entry point ---------------------------------------------------------


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "driftbound" / "__init__.py").is_file():
        print(f"no driftbound source tree under {root / 'src'}", file=sys.stderr)
        return 2

    run = Run(root, args.workload, args.seed)
    try:
        if args.trace:
            setups = []
            samples = [run.sample(), run.sample(trace=True)]
        else:
            setups, samples = measure(run, args.seconds)
    finally:
        run.close()

    # error_rate counts pipeline samples; a failed set-up-only sample still
    # makes the run incorrect
    failed = [s for s in samples if s["problems"]]
    for s in setups + samples:
        if s["problems"]:
            print("failed sample: " + "; ".join(s["problems"]), file=sys.stderr)
    correct = not any(s["problems"] for s in setups + samples)
    ok = [s for s in samples if not s["problems"]]
    if args.trace:
        metrics = per_layer(run, *samples) if not failed else {}
    else:
        metrics = end_to_end(run, setups, samples) if ok else {}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(environment(run, ok[0] if ok else {}), sort_keys=True))
    print(f"samples {len(samples)} (+{len(setups)} set-up only), wall_s each: "
          + ", ".join(_fmt(s.get("wall_s", math.nan)) for s in samples))
    print(f"error_rate {_fmt(len(failed) / len(samples))} ratio ({len(failed)}/{len(samples)})")
    print(f"reports_identical {[s.get('reports_identical') for s in samples]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {_fmt(value)} {unit}")
    if run.subcommand == "sde" and "wall_s" in metrics:
        # wall_s inverted for fixed work, so it is printed but carries no bound
        rate = requested_path_steps(run.cfg) / metrics["wall_s"][0]
        print(f"path_steps_per_s {_fmt(rate)} 1/s")
    if args.trace and metrics:
        plain, traced = samples[0]["wall_s"], samples[1]["wall_s"]
        layers = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
        unattributed = metrics["trace.unattributed_frac"][0] * traced
        verdict = "within" if metrics["trace.reconcile_err"][0] <= 0.15 else "NOT within"
        print(f"reconcile: layer self times {_fmt(layers)} s + unattributed {_fmt(unattributed)} s"
              f" vs untraced wall_s {_fmt(plain)} s ({verdict} 15%); traced wall_s {_fmt(traced)} s")

    result = {
        "correct": correct,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
