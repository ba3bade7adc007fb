"""Spans around every call into driftbound's public functions, from outside.

The package binds names at import time (``from .grid import rfftn, irfftn``,
``from .solver import solve``, ...), so wrapping a function in its defining
module alone would miss every call made through another module's binding.
``Tracer.install`` therefore replaces each public function in *every*
driftbound module namespace that holds it, and ``uninstall`` puts every
original binding back.  Spans stay in memory until ``uninstall``; the caller
writes them out after the timed region.

A span is ``[name, parent, start, end, info]``: ``name`` is
``layer.function`` with the layer taken from the defining module, ``parent``
is the index of the enclosing span (-1 at the top), times come from
``time.perf_counter`` and ``info`` holds the work counts read from the
call's arguments and result (see ``_SUMMARIES``).  Spans nest by a single
call stack, so traced code must call driftbound from one thread.

This module imports nothing but the standard library, so that the sample
process can time driftbound's own imports.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "driftbound"
LAYERS = ("grid", "orlicz", "drift", "solver", "verify", "sde", "cli")


def _fft_info(args, result):
    # computed bytes: the array read plus the array written
    return {"bytes": int(args[0].nbytes) + int(result.nbytes)}


def _solve_info(args, result):
    return {"steps": len(result.times) - 1, "aborted": int(bool(result.aborted))}


def _form_bound_info(args, result):
    return {
        "iters": sum(c.iterations for c in result),
        "unconverged": sum(1 for c in result if c.feasible and not c.converged),
    }


def _sde_info(args, result):
    config = args[0]
    n_steps = config.n_steps
    drawn = config.n_paths * n_steps
    # a path is advanced until the step that hits, and to the end otherwise
    hit_steps = round(result.mean_hit_time * result.hit_count / config.dt) if result.hit_count else 0
    active = hit_steps + (config.n_paths - result.hit_count) * n_steps
    return {"path_steps": drawn, "active": active, "dt_warning": int(result.dt_warning)}


_SUMMARIES = {
    "grid.rfftn": _fft_info,
    "grid.irfftn": _fft_info,
    "solver.solve": _solve_info,
    "drift.form_bound_estimate": _form_bound_info,
    "sde.simulate_hardy_sde": _sde_info,
}


def public_functions(module):
    """Functions defined in ``module`` whose names do not start with ``_``."""
    return {
        name: value
        for name, value in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    }


class Tracer:
    """Wraps the public functions of the driftbound layers while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._rebound = []

    @staticmethod
    def _modules():
        return [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        summarize = _SUMMARIES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if summarize is not None:
                span[4] = summarize(args, result)
            return result

        return wrapper

    def install(self):
        """Rebind every public layer function in every driftbound module."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for fname, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def uninstall(self):
        """Restore every original binding; returns the recorded spans."""
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound = []
        return self.spans


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per-span self time: the span's duration minus what its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[1] >= 0:
            children[span[1]].append((span[2], span[3]))
    return [
        (span[3] - span[2]) - _covered(kids) for span, kids in zip(spans, children)
    ]


def _under(spans, names):
    """Per span, whether it or one of its ancestors is named in ``names``."""
    flags = []
    for span in spans:
        # a parent is always recorded before its children
        flags.append(span[0] in names or (span[1] >= 0 and flags[span[1]]))
    return flags


def layer_metrics(spans, traced_wall_s, untraced_wall_s):
    """Per-layer numbers from one traced sample (see perfbench/README.md).

    The layer self times plus the unattributed remainder equal
    ``traced_wall_s`` by construction, because the spans nest on one call
    stack.  They are therefore reconciled with ``untraced_wall_s``, the wall
    time of a separate untraced sample: the error grows when tracing distorts
    the layer times.
    """
    own = self_times(spans)
    counts = {}
    total = {}
    own_by_name = {}
    info = {}
    for span, s in zip(spans, own):
        name = span[0]
        counts[name] = counts.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (span[3] - span[2])
        own_by_name[name] = own_by_name.get(name, 0.0) + s
        if span[4]:
            slot = info.setdefault(name, {})
            for key, value in span[4].items():
                slot[key] = slot.get(key, 0) + value

    def get(table, name, key):
        return table.get(name, {}).get(key, 0)

    fft = ("grid.rfftn", "grid.irfftn")
    in_c_delta = _under(spans, {"drift.zeroth_order_constant"})
    roots = sum(span[3] - span[2] for span in spans if span[1] < 0)
    unattributed = traced_wall_s - roots
    layer_self = {
        layer: sum((v for k, v in own_by_name.items() if k.startswith(layer + ".")), 0.0)
        for layer in LAYERS
    }
    steps = get(info, "solver.solve", "steps")
    drawn = get(info, "sde.simulate_hardy_sde", "path_steps")
    m = {
        "solver.solves": counts.get("solver.solve", 0),
        "solver.steps": steps,
        "solver.s": total.get("solver.solve", 0.0),
        "solver.aborted": get(info, "solver.solve", "aborted"),
        "solver.ms_per_step": 1e3 * total.get("solver.solve", 0.0) / steps if steps else 0.0,
        "grid.fft_calls": sum(counts.get(n, 0) for n in fft),
        "grid.fft_s": sum(total.get(n, 0.0) for n in fft),
        "grid.fft_bytes": sum(get(info, n, "bytes") for n in fft),
        "orlicz.norm_calls": counts.get("orlicz.orlicz_norm", 0),
        "orlicz.norm_s": total.get("orlicz.orlicz_norm", 0.0),
        "orlicz.modular_calls": counts.get("orlicz.modular", 0),
        "drift.c_delta_s": total.get("drift.zeroth_order_constant", 0.0),
        "drift.c_delta_fft_calls": sum(
            1 for span, inside in zip(spans, in_c_delta) if inside and span[0] in fft
        ),
        "drift.form_bound_s": total.get("drift.form_bound_estimate", 0.0),
        "drift.form_bound_iters": get(info, "drift.form_bound_estimate", "iters"),
        "drift.form_bound_unconverged": get(info, "drift.form_bound_estimate", "unconverged"),
        "drift.mollify_s": total.get("drift.mollify_drift", 0.0),
        "verify.checks": sum(v for k, v in counts.items() if k.startswith("verify.check_")),
        "sde.s": total.get("sde.simulate_hardy_sde", 0.0),
        "sde.path_steps": drawn,
        "sde.active_fraction": get(info, "sde.simulate_hardy_sde", "active") / drawn if drawn else 0.0,
        "sde.dt_warnings": get(info, "sde.simulate_hardy_sde", "dt_warning"),
        "trace.spans": len(spans),
        "trace.unattributed_frac": unattributed / traced_wall_s,
        "trace.reconcile_err": abs(sum(layer_self.values()) + unattributed - untraced_wall_s)
        / untraced_wall_s,
    }
    for layer, s in layer_self.items():
        m[f"{layer}.self_s"] = s
    return m
