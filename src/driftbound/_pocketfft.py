"""scipy's compiled pocketfft kernel, loaded without importing scipy.fft, and
the calls that grid.rfftn and grid.irfftn make to it.

``import scipy.fft`` would load the kernel too, but along with some 310
other modules (scipy.special through _fftlog, the array-API layer and
scipy's second OpenBLAS), which cost 0.11 s and about 20 MB and none of
which grid uses.  The kernel's file is found from scipy's import spec, which
imports nothing, and loaded on its own in 0.3 ms and about 0.5 MB.  It is
the extension scipy.fft calls, so every transform is bitwise what scipy.fft
gives.

Every kernel call passes 1 thread, so a transform runs on the thread that
calls it; the count is explicit, as pocketfft reads 0 as the OpenMP default.
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


def rfftn(values, out=None, scratch=None):
    """grid.rfftn; inorm 0 is the kernel's unscaled transform."""
    values = np.asarray(values, dtype=float)
    axes = tuple(range(values.ndim))
    if out is None and scratch is None:
        return kernel.r2c(values, axes, True, 0, None, 1)
    spectral = values.shape[:-1] + (values.shape[-1] // 2 + 1,)
    _check_buffer(scratch, spectral, complex, "scratch")
    _check_buffer(out, spectral, complex, "out", slab=True)
    kernel.r2c(values, axes[-1:], True, 0, scratch, 1)
    head = scratch[..., : out.shape[-1]]
    if values.ndim == 1:  # no leading axes; the kernel rejects an empty axes tuple
        np.copyto(out, head)
    else:
        kernel.c2c(head, axes[:-1], True, 0, out, 1)
    return out


def irfftn(spectrum, shape, out=None, padded=None):
    """grid.irfftn; inorm 2 is the kernel's factor 1/N."""
    axes = tuple(range(len(shape)))
    if out is None and padded is None:
        spectrum = np.asarray(spectrum, dtype=complex)
        return kernel.c2r(spectrum, axes, shape[-1], False, 2, None, 1)
    spectral = shape[:-1] + (shape[-1] // 2 + 1,)
    _check_buffer(out, shape, float, "out")
    _check_buffer(padded, spectral, complex, "padded")
    _check_buffer(spectrum, spectral, complex, "spectrum", slab=True)
    head = padded[..., : spectrum.shape[-1]]
    if len(shape) == 1:
        np.copyto(head, spectrum)
    else:
        kernel.c2c(spectrum, axes[:-1], False, 0, head, 1)
    kernel.c2r(padded, axes[-1:], shape[-1], False, 0, out, 1)
    # the 1/N once, float64(1/longdouble(N)) as the kernel forms it for inorm
    # 2; a 1/n per pass would match it only for n a power of two
    return np.multiply(out, float(1 / np.longdouble(out.size)), out=out)
