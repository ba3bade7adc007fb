"""Periodic grid, quadrature and spectral calculus on the unit torus.

All fields live on a uniform n**dim grid over [-1/2, 1/2)**dim with unit
total volume, so the quadrature weights h**dim sum exactly to 1.  Derivatives,
the Laplacian and the heat semigroup are Fourier multipliers; differentiation
zeroes the Nyquist mode so that real input yields real output.  build_field
makes the constant, trig and file fields of the drift and the initial datum.

rfftn and irfftn are bitwise scipy.fft's: they call scipy's compiled
pocketfft kernel, which _pocketfft loads.  verify transforms on several
threads at once, so two of them may build a grid's cached symbols; the
symbols are deterministic, so either copy is bitwise the same.
"""

from __future__ import annotations

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
    """The unscaled real FFT over every axis: bitwise scipy.fft.rfftn(values).

    With out, a complex slab of the first m lines of the halved last axis,
    and scratch, a complex array of the full spectral shape, only those
    lines are transformed over the leading axes: r2c runs along the last
    axis into scratch, then the c2c passes run on scratch[..., :m] into out,
    which is returned.  out is then rfftn(values)[..., :m] bit for bit.
    """
    # Imported here, so the first FFT loads the kernel and a command that
    # makes none (sde, norm, init) never does; after it, a sys.modules
    # lookup.  The import lock makes a second thread's first FFT wait.
    from ._pocketfft import kernel

    values = np.asarray(values, dtype=float)
    axes = tuple(range(values.ndim))
    # inorm 0 is the kernel's unscaled transform.  Every kernel call passes 1
    # thread, so a transform runs on the thread that calls it; the count is
    # explicit, as pocketfft reads 0 as the OpenMP default.
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
    """The inverse real FFT onto shape, scaled by 1/N for N = prod(shape):
    bitwise scipy.fft.irfftn(spectrum, s=shape).

    With out, a real array of shape, and padded, spectrum may be a slab:
    the first m lines of the halved last axis of a spectrum that is zero on
    the others.  padded, a complex array of the full spectral shape, is zero
    on lines m.. and stays so.  The c2c passes over the leading axes run on
    the slab only and write into padded[..., :m]; one c2r along the last
    axis then writes out, which is returned: irfftn of the zero-extended
    slab bit for bit.
    """
    from ._pocketfft import kernel  # see rfftn

    shape = tuple(shape)
    axes = tuple(range(len(shape)))
    # inorm 2 is the kernel's factor 1/N; 1 thread, as in rfftn
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

    # The solver's two grid-only symbols.  They are read-only, so every
    # concurrent solve on the grid shares one copy.

    @cached_property
    def _slab_gradient_symbols(self):
        """(g * dealias_mask)[..., :lines] per gradient symbol g: the slab is
        the first `lines` lines of the halved last axis, the only ones on
        which the mask keeps a mode."""
        mask = self.dealias_mask
        lines = int(np.count_nonzero(mask.any(axis=tuple(range(self.dim - 1)))))
        symbols = tuple(g[..., :lines] * mask[..., :lines] for g in self.gradient_symbols)
        for s in symbols:
            s.setflags(write=False)
        return symbols

    @cached_property
    def _dirichlet_root(self):
        """sqrt(dirichlet_symbol * w) / size, w the Parseval weight on the
        halved rfft axis: an interior mode stands for itself and its
        conjugate (2), the modes at index 0 and at the Nyquist index for one
        (1).  Multiplying the spectrum by the root, not by the weight, reads
        an overflowing mode as inf rather than 0 * inf = nan on a
        zero-weight mode."""
        parseval = np.full(self.spectral_shape[-1], 2.0)
        parseval[0] = parseval[-1] = 1.0
        root = np.sqrt(self.dirichlet_symbol * parseval) / self.size
        root.setflags(write=False)
        return root


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

    def mean_square(self):
        """<|b|^2>, the quadrature mean of the squared magnitude."""
        return self.grid.cell_volume * float(self.magnitude_squared().sum())

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
    path to a vector field; at d = 1 a scalar file is the one component."""
    if kind == "file":
        field = read_field(source)
        if vector and isinstance(field, ScalarField) and field.grid.dim == 1:
            field = VectorField(field.grid, (field,))
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
    consecutive blocks.  The element count tells scalar from vector except
    at d = 1, where both hold n values.
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

    Returns a ScalarField or VectorField depending on the stored count; a
    1D field reads back as a ScalarField, whichever was written.
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
