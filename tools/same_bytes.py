"""Check that this checkout and another source tree write the same bytes.

Writes the ``driftbound init`` template of this checkout, then for seeds 0
and 1 runs ``driftbound all --seed S`` on it once per tree, each in a fresh
process with that tree's ``src`` alone on PYTHONPATH.  Compares each run's
report files by sha256, prints one row per seed and file, and exits 1 on any
difference, a missing file or a different exit status included.

    python tools/same_bytes.py PARENT_TREE

Byte identity is a claim about one machine: numpy's SIMD dispatch can
differ between CPUs.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]
FILES = (
    "reports.json", "reports.txt", "certificates.json", "diagnostics.csv", "sde.json", "sde.txt"
)
SEEDS = (0, 1)


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def compare(dir_a, dir_b, files=FILES):
    """(name, sha256 in dir_a, sha256 in dir_b, same) for each file; a
    missing file's digest is None, and it is never the same."""
    rows = []
    for name in files:
        a, b = _digest(Path(dir_a) / name), _digest(Path(dir_b) / name)
        rows.append((name, a, b, a is not None and a == b))
    return rows


def _driftbound(tree, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    command = [sys.executable, "-m", "driftbound.cli", *map(str, args)]
    return subprocess.run(command, env=env, capture_output=True, text=True).returncode


def main(argv):
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "driftbound").is_dir():
        print(__doc__, file=sys.stderr)
        return 2
    trees = {"parent": Path(argv[0]), "change": CHECKOUT}
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "template.yaml"
        if _driftbound(CHECKOUT, "init", "--config", config) != 0:
            print("driftbound init failed", file=sys.stderr)
            return 2
        print(f"{'seed':>4}  {'file':<18} {'verdict':<9} {'parent':<12} change")
        for seed in SEEDS:
            out = {name: Path(tmp) / f"{name}{seed}" for name in trees}
            status = [
                _driftbound(tree, "all", "--config", config, "--seed", seed, "--output", out[name])
                for name, tree in trees.items()
            ]
            rows = [("exit status", *map(str, status), status[0] == status[1])]
            for name, a, b, same in rows + compare(out["parent"], out["change"]):
                differ |= not same
                a, b = ((x or "missing")[:12] for x in (a, b))
                print(f"{seed:>4}  {name:<18} {'same' if same else 'DIFFERENT':<9} {a:<12} {b}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
