"""Value conversion shared by the config dataclasses; imports nothing but the standard library."""

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


def whole_steps(t_final, dt):
    """The number of steps of dt in t_final; ValueError unless it is whole and >= 1."""
    n_steps = int(round(t_final / dt))
    if n_steps < 1 or abs(n_steps * dt - t_final) > 1e-9 * t_final:
        raise ValueError(f"t_final={t_final} must be a whole number of steps of dt={dt}")
    return n_steps
