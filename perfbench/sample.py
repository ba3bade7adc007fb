"""One benchmark sample: a fresh process that sets up and runs one pipeline.

Usage: python3 perfbench/sample.py REQUEST.json

The request names the source tree to import, the config file, the CLI
subcommand, the output directory, whether to trace, and where to write the
result.  The process times its own set-up (importing driftbound and loading
and validating the config into an ``Experiment``) and the pipeline call
``driftbound.cli.run``, then writes both, its peak resident memory and, when
tracing, the recorded spans.  Nothing heavier than the standard library is
imported before the set-up clock starts.
"""

import importlib
import json
import os
import resource
import sys
import time

from tracer import LAYERS, Tracer


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(request_path):
    with open(request_path) as fh:
        req = json.load(fh)

    t0 = time.perf_counter()
    sys.path.insert(0, req["src"])
    # every layer, so that the tracer finds the lazily imported sde module too
    for layer in LAYERS:
        importlib.import_module(f"driftbound.{layer}")
    cli = sys.modules["driftbound.cli"]
    data = cli.load_config(req["config"])
    cli.Experiment(data, output_dir=req["output"])
    setup_s = time.perf_counter() - t0

    package_dir = os.path.dirname(os.path.realpath(sys.modules["driftbound"].__file__))
    expected = os.path.realpath(os.path.join(req["src"], "driftbound"))
    if package_dir != expected:
        print(f"driftbound imported from {package_dir}, not {expected}", file=sys.stderr)
        return 3

    result = {"setup_s": setup_s, "setup_rss_mb": _peak_rss_mb()}
    if not req["setup_only"]:
        tracer = Tracer().install() if req["trace"] else None
        t1 = time.perf_counter()
        try:
            status = cli.run(req["subcommand"], data, output_dir=req["output"])
        finally:
            spans = tracer.uninstall() if tracer else None
        result["wall_s"] = time.perf_counter() - t1
        result["status"] = status
        if spans is not None:
            with open(req["spans"], "w") as fh:
                json.dump(spans, fh)

    grid = sys.modules["driftbound.grid"]
    numpy = sys.modules["numpy"]
    scipy = importlib.import_module("scipy")
    result["peak_rss_mb"] = _peak_rss_mb()
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    # private, so a refactor that drops it must not fail the sample
    result["fft_worker_threshold"] = getattr(grid, "_FFT_WORKER_THRESHOLD", None)
    with open(req["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
