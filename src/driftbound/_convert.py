"""Value conversion shared by the config dataclasses; imports nothing but the standard library."""


def integral(value, name):
    """``value`` as an int when it is integral (2 and 2.0 pass); else ValueError naming ``name``.

    int() alone truncates, so a config's 5.9 would silently run as 5.
    """
    if not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)
