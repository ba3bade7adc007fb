"""scipy's compiled pocketfft kernel, loaded without importing scipy.fft.

``import scipy.fft`` would load the kernel too, but along with some 310
other modules (scipy.special through _fftlog, the array-API layer and
scipy's second OpenBLAS), which cost 0.11 s and about 20 MB and none of
which grid uses.  The kernel's file is found from scipy's import spec, which
imports nothing, and loaded on its own in 0.3 ms and about 0.5 MB.  It is
the extension scipy.fft calls, so every transform is bitwise what scipy.fft
gives.  The first FFT, in grid.rfftn or grid.irfftn, loads it.
"""

import importlib.machinery
import importlib.util
import os

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
