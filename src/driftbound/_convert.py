"""Value conversion shared by the config dataclasses, and the CPU count that
sizes every thread pool; imports nothing but the standard library."""

import math
import os
from numbers import Integral


def integral(value, name):
    """``value`` as an int when it is integral (2, 2.0 and '2e4' pass); else ValueError naming ``name``.

    int() alone truncates, so a config's 5.9 would silently run as 5, and it
    rejects '2e4', which is how YAML reads 2e4 written without a dot.  Integer
    values pass through int() unrounded, so large seeds stay exact.  A bool
    is rejected: YAML reads true as one, which would pass as the integer 1.
    """
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, Integral):
        return int(value)
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = float("nan")
    if not number.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(number)


def real(value, name):
    """``value`` as a finite float (0.5, 5 and '5e-4' pass); else ValueError naming ``name``.

    The float counterpart of integral: YAML reads 5e-4 written without a dot
    as a string, which float() converts, and reads true as a bool, which
    float() would take as 1.0, so a bool is rejected.  So are YAML's .nan and
    .inf: a nan compares false with every bound, so it would pass each
    range check, and an infinite t_final or cfl_safety would overflow a step
    count or switch a guard off.
    """
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


def whole_steps(t_final, dt):
    """The number of steps of dt in t_final; ValueError unless it is whole and >= 1.

    A ratio that overflows to inf counts as 0 steps, so it gets the same error.
    """
    ratio = t_final / dt
    n_steps = int(round(ratio)) if math.isfinite(ratio) else 0
    if n_steps < 1 or abs(n_steps * dt - t_final) > 1e-9 * t_final:
        raise ValueError(f"t_final={t_final} must be a whole number of steps of dt={dt}")
    return n_steps


def usable_cpus():
    """The CPUs this process may run on: its affinity set where the platform
    has one, else os.cpu_count().  os.cpu_count() alone also counts CPUs that
    a cpuset or an affinity mask keeps the process off."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
