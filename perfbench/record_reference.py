"""Record the outputs every benchmark sample is checked against.

Usage, from the root of a checkout:

    python3 perfbench/record_reference.py

Writes perfbench/reference/<workload>.json for every workload.  For the
verify workloads that is the exit status and reports.json of a seed-0 run;
the seed only feeds the form-bound start noise in certificates.json, so a
seed-1 run must give the same report bytes, which this script checks.  For
sde-sweep it is the exit status and the per-delta hit counts and mean hit
times of seeds 0-31 and of the held-out seed.

The references belong to the program as it was when the benchmark was
defined.  Re-record them only in a change that deliberately alters these
outputs, and say so in that change.
"""

import hashlib
import json
import sys
from pathlib import Path

from run import HELD_OUT_SEED, REFERENCE_DIR, WORKLOADS, Run

SDE_SEEDS = [*range(32), HELD_OUT_SEED]


def record_verify(root, workload):
    payloads = []
    for seed in (0, 1):
        run = Run(root, workload, seed, reference={})
        try:
            result, output, problems = run.execute()
            if problems:
                raise SystemExit(f"{workload} seed {seed}: {problems}")
            payloads.append((result["status"], (output / "reports.json").read_bytes()))
        finally:
            run.close()
    if payloads[0] != payloads[1]:
        raise SystemExit(f"{workload}: reports depend on the seed")
    status, raw = payloads[0]
    return {
        "status": status,
        "sha256": hashlib.sha256(raw).hexdigest(),
        "reports": json.loads(raw),
    }


def record_sde(root, seeds):
    recorded = {}
    for seed in seeds:
        run = Run(root, "sde-sweep", seed, reference={})
        try:
            result, output, problems = run.execute()
            if problems or result["status"] != 0:
                raise SystemExit(f"sde-sweep seed {seed}: {problems or result['status']}")
            sweep = json.loads((output / "sde.json").read_text())["sweep"]
        finally:
            run.close()
        recorded[str(seed)] = [[s["delta"], s["hit_count"], s["mean_hit_time"]] for s in sweep]
        print(f"sde-sweep seed {seed}: {recorded[str(seed)]}", flush=True)
    return {"seeds": recorded}


def main():
    root = Path.cwd()
    for workload in sorted(WORKLOADS):
        if WORKLOADS[workload][0] == "sde":
            payload = record_sde(root, SDE_SEEDS)
        else:
            payload = record_verify(root, workload)
        path = REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
