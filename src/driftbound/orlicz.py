"""The modular of the Orlicz function cosh - 1, and the Luxemburg norm.

The norm of f is the infimum of c > 0 with <cosh(f/c) - 1> <= 1, located by
bisection on a bracket that is valid for every nonzero field:

* lower end ||f||_2 / 2, since cosh(y) - 1 >= y^2 / 2 makes the modular >= 2
  there;
* upper end ||f||_inf / arcosh(2), where the integrand is at most 1 pointwise.

orlicz_norm returns the feasible (upper) endpoint as a float, so the modular
at the returned norm never exceeds 1 and downstream inequality checks stay
conservative.  Modular overflow saturates to +inf, which bisection treats as
"greater than 1".
"""

from __future__ import annotations

import math

import numpy as np

from .grid import lp_norm

__all__ = ["ACOSH2", "modular", "orlicz_norm"]

# arcosh(2) = ln(2 + sqrt(3)); the constant field a has norm a / ACOSH2.
ACOSH2 = math.acosh(2.0)

_MAX_BISECTIONS = 200


def modular(f, c):
    """<cosh(f/c) - 1>; strictly decreasing in c for nonzero f.

    May return +inf when f/c overflows cosh; callers treat that as "> 1".
    """
    if c <= 0:
        raise ValueError(f"scale c must be > 0, got {c}")
    # one temporary, owned by this call, so concurrent calls share no buffer
    t = f.values / c
    with np.errstate(over="ignore"):
        np.cosh(t, out=t)
    t -= 1.0
    return f.grid.cell_volume * float(t.sum())


def orlicz_norm(f, tol=1e-10):
    """Luxemburg norm of f by bisection: the feasible endpoint, as a float.

    0.0 exactly when f vanishes; otherwise the modular there is at most 1.
    Terminates when the bracket satisfies hi - lo < tol * hi.  The default
    tol is the one every norm a trajectory reports at its checkpoints uses.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    sup = lp_norm(f, np.inf)
    if sup == 0.0:
        return 0.0
    lo = lp_norm(f, 2) / 2.0
    hi = sup / ACOSH2
    for _ in range(_MAX_BISECTIONS):
        if hi - lo < tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if modular(f, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi
