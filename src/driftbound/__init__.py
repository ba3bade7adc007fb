"""Spectral toolkit for advection-diffusion with form-bounded drifts on the unit torus.

The package re-exports the public names of its layers, as each module's
__all__ lists them.
"""

from . import drift, grid, orlicz, solver, verify
from .drift import *  # noqa: F403
from .grid import *  # noqa: F403
from .orlicz import *  # noqa: F403
from .solver import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *grid.__all__, *orlicz.__all__, *drift.__all__, *solver.__all__, *verify.__all__,
    "__version__",
]
