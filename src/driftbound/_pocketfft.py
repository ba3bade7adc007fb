"""scipy's compiled pocketfft kernel, loaded without importing scipy.fft, and
the calls that grid.rfftn and grid.irfftn make to it.

grid's transforms call this kernel directly.  ``import scipy.fft`` would load
it too, but along with some 310 other modules (scipy.special through
_fftlog, the array-API layer and scipy's second OpenBLAS), which cost 0.11 s
and about 20 MB and none of which grid uses.  The kernel's file is found
from scipy's import spec, which imports nothing, and loaded on its own in
0.3 ms and about 0.5 MB.  It is the extension scipy.fft calls, so every
transform is bitwise what scipy.fft gives.

grid imports this module inside its transforms, so the first FFT loads the
kernel and compiles these calls, and a command that makes no FFT does
neither.  The import lock lets one thread run this module while a second
thread's first FFT waits for it.  The documentation of the transforms, and
the thread rule, are grid's.
"""

import importlib.machinery
import importlib.util
import os

import numpy as np

# an extension module's name must end in the name of its init symbol,
# PyInit_pypocketfft
NAME = "driftbound.pypocketfft"


def _load():
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("driftbound's FFTs need scipy, which is not installed")
    directory = os.path.join(scipy.submodule_search_locations[0], "fft", "_pocketfft")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "pypocketfft" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"no compiled pocketfft kernel (pypocketfft) in {directory}")
    loader = importlib.machinery.ExtensionFileLoader(NAME, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(NAME, loader))
    loader.exec_module(module)
    return module


kernel = _load()


def _check_buffer(array, shape, dtype, name, slab=False):
    """ValueError unless array is a dtype array of shape, or with slab, of
    shape but for 1 .. shape[-1] lines on the last axis.  The kernel writes
    through an out array without checking its shape."""
    fits = (
        isinstance(array, np.ndarray)
        and array.dtype == dtype
        and array.ndim == len(shape)
        and array.shape[:-1] == shape[:-1]
        and (1 <= array.shape[-1] <= shape[-1] if slab else array.shape[-1] == shape[-1])
    )
    if not fits:
        lines = f"1 to {shape[-1]} lines of " if slab else ""
        raise ValueError(f"{name} must be a {np.dtype(dtype)} array of {lines}shape {shape}")


def rfftn(values, threads, out=None, scratch=None):
    """grid.rfftn on `threads` threads: r2c (inorm 0, unscaled) over every
    axis, or with out and scratch, over the last axis into scratch and c2c
    over the leading ones on scratch's head into out."""
    values = np.asarray(values, dtype=float)
    axes = tuple(range(values.ndim))
    if out is None and scratch is None:
        return kernel.r2c(values, axes, True, 0, None, threads)
    spectral = values.shape[:-1] + (values.shape[-1] // 2 + 1,)
    _check_buffer(scratch, spectral, complex, "scratch")
    _check_buffer(out, spectral, complex, "out", slab=True)
    kernel.r2c(values, axes[-1:], True, 0, scratch, threads)
    head = scratch[..., : out.shape[-1]]
    if values.ndim == 1:  # no leading axes; the kernel rejects an empty axes tuple
        np.copyto(out, head)
    else:
        kernel.c2c(head, axes[:-1], True, 0, out, threads)
    return out


def irfftn(spectrum, shape, threads, out=None, padded=None):
    """grid.irfftn on `threads` threads: c2r with inorm 2 (1/N) over every
    axis, or with out and padded, c2c over the leading axes of the slab into
    padded's head and an unscaled c2r over the last axis into out, then the
    kernel's own factor float64(1/longdouble(N))."""
    axes = tuple(range(len(shape)))
    if out is None and padded is None:
        spectrum = np.asarray(spectrum, dtype=complex)
        return kernel.c2r(spectrum, axes, shape[-1], False, 2, None, threads)
    spectral = shape[:-1] + (shape[-1] // 2 + 1,)
    _check_buffer(out, shape, float, "out")
    _check_buffer(padded, spectral, complex, "padded")
    _check_buffer(spectrum, spectral, complex, "spectrum", slab=True)
    head = padded[..., : spectrum.shape[-1]]
    if len(shape) == 1:
        np.copyto(head, spectrum)
    else:
        kernel.c2c(spectrum, axes[:-1], False, 0, head, threads)
    kernel.c2r(padded, axes[-1:], shape[-1], False, 0, out, threads)
    return np.multiply(out, float(1 / np.longdouble(out.size)), out=out)
