"""Periodic grid, quadrature and spectral calculus on the unit torus.

All fields live on a uniform n**dim grid over [-1/2, 1/2)**dim with unit
total volume, so the quadrature weights h**dim sum exactly to 1.  Derivatives,
the Laplacian and the heat semigroup are Fourier multipliers; differentiation
zeroes the Nyquist mode so that real input yields real output.  build_field
makes the constant, trig and file fields of the drift and the initial datum.

scipy.fft is imported by the first FFT, not with this module, so a command
that makes no FFT (sde, norm, init) never loads it.  verify makes its first
FFTs on two threads at once: the delta_hat sweep runs on its pool beside
c(delta) on the calling thread, and the member solves and the Cauchy check's
distances run on the same pool.  The import lock lets one thread import
scipy.fft while the other waits, and a grid's cached symbols may be built by
both; they are deterministic, so either copy is bitwise the same.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ._convert import integral, real

__all__ = [
    "TorusGrid",
    "ScalarField",
    "VectorField",
    "integrate",
    "gradient",
    "laplacian",
    "heat_semigroup",
    "lp_norm",
    "trig_series",
    "build_field",
    "write_field",
    "read_field",
]

# Below this many points the scipy.fft thread pool costs more than it saves.
_FFT_WORKER_THRESHOLD = 1 << 16


def _workers(size):
    return -1 if size >= _FFT_WORKER_THRESHOLD else 1


def rfftn(values):
    import scipy.fft  # after the first FFT, a sys.modules lookup

    return scipy.fft.rfftn(values, workers=_workers(values.size))


def irfftn(spectrum, shape):
    import scipy.fft

    return scipy.fft.irfftn(spectrum, s=shape, workers=_workers(math.prod(shape)))


@dataclass(frozen=True)
class TorusGrid:
    """Uniform tensor grid on the unit torus.

    Attributes
    ----------
    dim : int
        Spatial dimension, 1, 2 or 3.
    n : int
        Points per axis; even and at least 8.  Grid point j maps to
        coordinate -1/2 + j/n on each axis.
    """

    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n must be an even integer >= 8, got {self.n}")

    @property
    def spacing(self):
        return 1.0 / self.n

    @property
    def shape(self):
        return (self.n,) * self.dim

    @property
    def size(self):
        return self.n**self.dim

    @property
    def cell_volume(self):
        return self.spacing**self.dim

    def axis_coordinates(self):
        return -0.5 + self.spacing * np.arange(self.n)

    @cached_property
    def coordinates(self):
        """Broadcastable coordinate arrays, one per axis."""
        axes = [self.axis_coordinates()] * self.dim
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))

    @cached_property
    def _wavenumbers(self):
        # Integer wavenumbers in the rfftn layout (last axis halved).
        full = np.fft.fftfreq(self.n, d=1.0 / self.n)
        half = np.arange(self.n // 2 + 1, dtype=float)
        axes = [full] * (self.dim - 1) + [half]
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))

    @cached_property
    def laplace_symbol(self):
        """Multiplier of the Laplacian: -4 pi^2 |k|^2 (rfftn layout)."""
        k2 = sum(k * k for k in self._wavenumbers)
        return -4.0 * np.pi**2 * k2

    @cached_property
    def gradient_symbols(self):
        """Per-axis multiplier 2 pi i k with the Nyquist mode zeroed."""
        nyquist = self.n // 2
        symbols = []
        for k in self._wavenumbers:
            kk = k.copy()
            kk[np.abs(kk) == nyquist] = 0.0
            symbols.append(2j * np.pi * kk)
        return tuple(symbols)

    @cached_property
    def dirichlet_symbol(self):
        """|2 pi k|^2 consistent with gradient_symbols (Nyquist zeroed)."""
        out = np.zeros(self.spectral_shape)
        for g in self.gradient_symbols:
            out = out + np.abs(g) ** 2
        return out

    @property
    def spectral_shape(self):
        return (self.n,) * (self.dim - 1) + (self.n // 2 + 1,)

    @cached_property
    def dealias_mask(self):
        """Two-thirds rule mask: keep modes with |k| <= n//3 on every axis."""
        cut = self.n // 3
        mask = np.ones(self.spectral_shape, dtype=bool)
        for k in self._wavenumbers:
            mask &= np.abs(k) <= cut
        return mask


def _as_values(grid, values):
    arr = np.asarray(values, dtype=float)
    if arr.shape != grid.shape:
        raise ValueError(f"values shape {arr.shape} does not match grid shape {grid.shape}")
    if not np.all(np.isfinite(arr)):
        bad = int(np.size(arr) - np.count_nonzero(np.isfinite(arr)))
        raise ValueError(f"field contains {bad} non-finite values")
    return arr


@dataclass
class ScalarField:
    """Real-valued grid function."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = _as_values(self.grid, self.values)

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def full(cls, grid, value):
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid, fn):
        """Sample ``fn(*coords)`` on the grid; fn must broadcast."""
        values = np.broadcast_to(fn(*grid.coordinates), grid.shape).astype(float)
        return cls(grid, values.copy())

    def copy(self):
        return ScalarField(self.grid, self.values.copy())


@dataclass
class VectorField:
    """dim-component vector field; all components share one grid."""

    grid: TorusGrid
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) != self.grid.dim:
            raise ValueError(f"expected {self.grid.dim} components, got {len(comps)}")
        for c in comps:
            if c.grid != self.grid:
                raise ValueError("all components must share the vector field's grid")
        self.components = comps

    @classmethod
    def zeros(cls, grid):
        return cls(grid, tuple(ScalarField.zeros(grid) for _ in range(grid.dim)))

    @classmethod
    def from_arrays(cls, grid, arrays):
        return cls(grid, tuple(ScalarField(grid, a) for a in arrays))

    def magnitude_squared(self):
        out = np.zeros(self.grid.shape)
        for c in self.components:
            out += c.values**2
        return out

    def max_magnitude(self):
        return float(np.sqrt(self.magnitude_squared().max()))


def integrate(f):
    """Quadrature integral <f> = h^dim * sum f(x_j).

    Exact for trigonometric polynomials of per-axis degree below n.
    """
    values = _as_values(f.grid, f.values)
    return f.grid.cell_volume * float(values.sum())


def gradient(f):
    """Spectral gradient; Nyquist modes are zeroed to keep output real."""
    spectrum = rfftn(f.values)
    comps = tuple(
        ScalarField(f.grid, irfftn(spectrum * g, f.grid.shape))
        for g in f.grid.gradient_symbols
    )
    return VectorField(f.grid, comps)


def laplacian(f):
    """Spectral Laplacian: mode k multiplied by -4 pi^2 |k|^2."""
    spectrum = rfftn(f.values)
    return ScalarField(f.grid, irfftn(spectrum * f.grid.laplace_symbol, f.grid.shape))


def heat_semigroup(f, eps):
    """Heat semigroup at time eps: mode k damped by exp(-4 pi^2 |k|^2 eps)."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    if eps == 0:
        return f.copy()
    spectrum = rfftn(f.values)
    spectrum *= np.exp(eps * f.grid.laplace_symbol)
    return ScalarField(f.grid, irfftn(spectrum, f.grid.shape))


def lp_norm(f, p):
    """L^p norm (<|f|^p>)^(1/p); p = inf gives max |f|.

    Overflow of |f|^p saturates to +inf rather than warning.
    """
    values = _as_values(f.grid, f.values)
    if p == np.inf:
        return float(np.abs(values).max())
    p = float(p)
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    with np.errstate(over="ignore"):
        return float((f.grid.cell_volume * (np.abs(values) ** p).sum()) ** (1.0 / p))


def trig_series(grid, terms):
    """The scalar field sum(amplitude * cos(2 pi k . x)) over (amplitude, k)
    terms; each k is an integer vector, a mode of the torus."""
    values = np.zeros(grid.shape)
    for amplitude, wavevector in terms:
        if len(wavevector) != grid.dim:
            raise ValueError(f"wavevector {wavevector} has wrong length for dim {grid.dim}")
        wavevector = [integral(k, "wavevector") for k in wavevector]
        phase = sum(2.0 * np.pi * k * x for k, x in zip(wavevector, grid.coordinates))
        values += real(amplitude, "amplitude") * np.cos(phase)
    return ScalarField(grid, values)


def build_field(grid, kind, source, name, vector=False):
    """The constant, trig or file field that ``source``, the value of config
    key ``name``, describes on grid: a number, (amplitude, wavevector) terms or
    a path.  A vector field takes one number or term list per component, or a
    path to a vector field."""
    if kind == "file":
        field = read_field(source)
        if not isinstance(field, VectorField if vector else ScalarField) or field.grid != grid:
            raise ValueError(
                f"{name} {source} does not match the run grid: expected a "
                f"{'vector' if vector else 'scalar'} field with d={grid.dim}, n={grid.n}"
            )
        return field
    if vector:
        return VectorField(grid, tuple(build_field(grid, kind, s, name) for s in source))
    if kind == "constant":
        return ScalarField.full(grid, real(source, name))
    if kind == "trig":
        return trig_series(grid, source)
    raise ValueError(f"kind must be constant|trig|file, got {kind!r}")


_MAGIC_HEADER = struct.Struct("<qq")


def write_field(path, field):
    """Write a scalar or vector field; a ``.csv`` suffix selects CSV.

    Format is ``(d, n)`` header then row-major values; binary files use
    little-endian int64 header and float64 values, CSV files a ``d,n`` first
    line then one value per line.  Vector fields store their components as
    consecutive blocks; the element count distinguishes scalar from vector.
    """
    path = Path(path)
    blocks = field.components if isinstance(field, VectorField) else [field]
    grid = field.grid
    flat = np.concatenate([b.values.reshape(-1) for b in blocks])
    if path.suffix.lower() == ".csv":
        with open(path, "w") as fh:
            fh.write(f"{grid.dim},{grid.n}\n")
            for x in flat:
                fh.write(f"{x:.17g}\n")
    else:
        with open(path, "wb") as fh:
            fh.write(_MAGIC_HEADER.pack(grid.dim, grid.n))
            fh.write(flat.astype("<f8").tobytes())


def read_field(path):
    """Read a field written by :func:`write_field`.

    Returns a ScalarField or VectorField depending on the stored count.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with open(path) as fh:
            header = fh.readline().strip()
            dim, n = (int(tok) for tok in header.split(","))
            flat = np.array([float(line) for line in fh if line.strip()])
    else:
        raw = path.read_bytes()
        if len(raw) < _MAGIC_HEADER.size:
            raise ValueError(
                f"{path} holds {len(raw)} bytes, fewer than the {_MAGIC_HEADER.size}-byte header"
            )
        dim, n = _MAGIC_HEADER.unpack_from(raw)
        flat = np.frombuffer(raw, dtype="<f8", offset=_MAGIC_HEADER.size)
    grid = TorusGrid(int(dim), int(n))
    if flat.size == grid.size:
        return ScalarField(grid, flat.reshape(grid.shape))
    if flat.size == grid.dim * grid.size:
        arrays = flat.reshape((grid.dim,) + grid.shape)
        return VectorField.from_arrays(grid, arrays)
    raise ValueError(
        f"file holds {flat.size} values; expected {grid.size} (scalar) "
        f"or {grid.dim * grid.size} (vector) for d={grid.dim}, n={grid.n}"
    )
