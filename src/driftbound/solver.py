"""Time integration of (shift + d/dt - Laplacian + b . grad) v = 0.

Diffusion and the zeroth-order shift are applied exactly in Fourier space via
the integrating factor exp(-(4 pi^2 |k|^2 + shift) dt); the advection term is
evaluated pseudospectrally with two-thirds dealiasing and advanced by an
explicit rule (Heun by default).  Replacing v by u = exp(shift t) v recovers
the unshifted solution; the discrete scheme commutes exactly with that
substitution, so one shifted solve carries both solution streams.

Every step records the Dirichlet integral of v, from the spectrum by
Parseval.  A full solve (the default) also forms u = exp(shift t) v at
every shift and records every step the sup norm, one L^p norm per entry of
p_list and the cosh modular of u for diagnostics.csv, and for each even
power p the exponential-weight integrands <exp(u^p)>,
<(grad u^(p/2))^2 exp(u^p)> and <(grad exp(u^p/2))^2>, whose trapezoid time
integrals need the dense per-step sampling.  A light solve
(diagnostics=False) skips them and forms the physical field only at the
snapshots.  Full fields are stored only every snapshot_stride steps (plus
the final time); the checks that hold pointwise in time (Orlicz, L^p, cosh)
read those snapshots.

The advection transforms only the slab of the spectrum that the two-thirds
mask keeps (grid.rfftn and irfftn with their slab arguments).  n1, n2 and
the predictor are slabs.  The update multiplies the whole spectrum by the
integrating factor and then, on the slab only, writes the predictor (Euler)
or subtracts RK2's correction, since n1 and n2 are zero beyond it, so every
nonzero mode sees the operations of the full-spectrum step, in its order.

A step allocates no elementwise temporaries: the advection sum, the
RK2/Euler update, the Parseval sum and the diagnostics write with in-place
ufuncs into per-solve work buffers or into the state, and the advection's
transforms write into buffers of their own.  They run the same
floating-point operations in the same order as the plain expressions given
in the comments, so every trajectory is bitwise what those expressions give
(tests/test_solver.py keeps them as its oracle).  Only the transforms of the
physical field and of the gradient components return new arrays.  No buffer
is ever a snapshot's values or a result.  Snapshot 0 is the datum itself:
solve only reads it, so every solve from one datum shares it.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._convert import integral, real, whole_steps
from .grid import ScalarField, TorusGrid, irfftn, rfftn
from .orlicz import orlicz_norm

__all__ = ["SolverConfig", "Trajectory", "solve"]

SCHEMES = ("if_rk2", "if_euler")


@dataclass
class SolverConfig:
    """Stepping parameters.

    The advective step is explicit, so dt must satisfy
    dt <= cfl_safety * h / max|b|; solve() rejects violations up front.
    A step count whose per-step columns exceed the machine's physical
    memory is rejected here.
    """

    dt: float
    t_final: float
    shift: float = 0.0
    snapshot_stride: int = 20
    scheme: str = "if_rk2"
    cfl_safety: float = 0.5
    p_list: tuple = (2, 4)

    def __post_init__(self):
        """Convert the numeric fields (YAML reads 5e-4 as a string), then validate."""
        self.dt, self.t_final = real(self.dt, "dt"), real(self.t_final, "t_final")
        self.shift, self.cfl_safety = real(self.shift, "shift"), real(self.cfl_safety, "cfl_safety")
        self.snapshot_stride = integral(self.snapshot_stride, "snapshot_stride")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not self.cfl_safety > 0:
            raise ValueError(f"cfl_safety must be > 0, got {self.cfl_safety}")
        if self.t_final <= 0:
            raise ValueError(f"t_final must be > 0, got {self.t_final}")
        self.n_steps = whole_steps(self.t_final, self.dt)
        if self.shift < 0:
            raise ValueError(f"shift must be >= 0, got {self.shift}")
        # exp(shift t)^2, in dirichlet_u, is the largest factor a solve forms
        if 2.0 * self.shift * self.t_final > math.log(sys.float_info.max):
            raise ValueError(
                f"shift={self.shift:g} over t_final={self.t_final:g} overflows exp(2 shift t)"
            )
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not self.p_list:
            raise ValueError("p_list must name at least one even power")
        for p in self.p_list:
            if p != int(p) or int(p) < 2 or int(p) % 2:
                raise ValueError(f"p_list entries must be even integers >= 2, got {p}")
        self.p_list = tuple(int(p) for p in self.p_list)
        if len(set(self.p_list)) < len(self.p_list):
            raise ValueError(f"p_list entries must not repeat, got {list(self.p_list)}")
        # a solve allocates the times and a full solve's per-step columns
        # before its first step, so a count they cannot fit is refused here
        column_bytes = 8.0 * (1 + len(_step_columns(self.p_list))) * (self.n_steps + 1)
        memory = _physical_memory()
        if column_bytes > memory:
            raise ValueError(
                f"{self.n_steps:.4g} steps of dt={self.dt:g} need {column_bytes:.3g} bytes of "
                f"per-step columns, more than the machine's {memory:.3g} bytes of memory"
            )


def _physical_memory():
    """The machine's physical memory in bytes; where the platform does not
    say, sys.maxsize, the most bytes a numpy array may hold."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return sys.maxsize


@dataclass
class Trajectory:
    """Solution snapshots plus per-step diagnostics.

    snapshots hold the solved variable v; the unshifted solution at snapshot
    i is exp(shift * t_i) * v_i.  snapshots[0] is the datum solve() was
    given, the caller's field, not a copy.  diag maps names to per-step
    arrays: the Dirichlet integral of v, dirichlet_v, and for a full solve
    every diagnostics.csv column of u but t, orlicz and dirichlet, by its
    CSV name.
    A light solve's diag holds dirichlet_v only.  abort_message is empty
    unless the solve aborted; times and diag then end at the last valid step.
    """

    grid: TorusGrid
    shift: float
    p_list: tuple
    times: np.ndarray
    diag: dict
    snapshot_indices: list
    snapshots: list
    abort_message: str = ""

    @property
    def aborted(self):
        return bool(self.abort_message)

    @property
    def dirichlet_u(self):
        return self.diag["dirichlet_v"] * np.exp(self.shift * self.times) ** 2

    @property
    def snapshot_times(self):
        return self.times[self.snapshot_indices]

    def snapshot_u(self, i):
        t = self.times[self.snapshot_indices[i]]
        return ScalarField(self.grid, math.exp(self.shift * t) * self.snapshots[i].values)

    @cached_property
    def snapshot_orlicz(self):
        """Orlicz norm of u at each snapshot, computed on first use only."""
        return np.array([orlicz_norm(self.snapshot_u(i)) for i in range(len(self.snapshots))])

    def to_csv(self, path):
        """Stream per-step diagnostics of the unshifted solution u.

        Columns: _diagnostic_columns(p_list).  The orlicz column holds the
        snapshot norms and nan on other rows.  Raises ValueError for a light
        trajectory, which lacks the columns.
        """
        columns = _diagnostic_columns(self.p_list)
        missing = [name for name in columns if name not in _DERIVED and name not in self.diag]
        if missing:
            raise ValueError(
                f"to_csv needs the full per-step diagnostics; this trajectory lacks "
                f"{missing} (solve it with diagnostics=True)"
            )
        orlicz = np.full_like(self.times, np.nan)
        orlicz[self.snapshot_indices] = self.snapshot_orlicz
        derived = {"t": self.times, "orlicz": orlicz, "dirichlet": self.dirichlet_u}
        series = [derived[name] if name in _DERIVED else self.diag[name] for name in columns]
        with open(path, "w") as fh:
            fh.write(f"# shift={self.shift!r} aborted={self.aborted}\n")
            fh.write(",".join(columns) + "\n")
            for row in zip(*series):
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def _diagnostic_columns(p_list):
    """The columns of diagnostics.csv, in order: t, sup, one l{p} per entry of
    p_list, orlicz, modular, dirichlet, then exp_modular, exp_disp and
    exp_gradexp per p."""
    return [
        "t", "sup", *(f"l{p}" for p in p_list), "orlicz", "modular", "dirichlet",
        *(f"{stem}_p{p}" for p in p_list for stem in ("exp_modular", "exp_disp", "exp_gradexp")),
    ]


# the CSV columns no solve records per step: the times, the snapshot norms and
# the Dirichlet integral of u, which Trajectory forms from dirichlet_v
_DERIVED = ("t", "orlicz", "dirichlet")


def _step_columns(p_list, diagnostics=True):
    """The diag columns a solve records every step: dirichlet_v, and for a
    full solve every other CSV column but the derived ones."""
    columns = ["dirichlet_v"]
    if diagnostics:
        columns += [name for name in _diagnostic_columns(p_list) if name not in _DERIVED]
    return columns


def _check_cfl(b_smooth, config):
    """The CFL limit of the explicit advective step, taken from the
    dealiased drift, the field the scheme actually advects with.

    Returns (components, max|b|) of that drift; raises ValueError when
    config.dt exceeds cfl_safety * h / max|b|.  The pipelines call it on a
    mollified drift before any other work; solve() calls it on its own.
    """
    grid = b_smooth.grid
    mask = grid.dealias_mask
    b_parts = tuple(irfftn(rfftn(c.values) * mask, grid.shape) for c in b_smooth.components)
    b_max = math.sqrt(float(sum(b_a * b_a for b_a in b_parts).max()))
    limit = config.cfl_safety * grid.spacing / b_max if b_max > 0 else math.inf
    if config.dt > limit:
        raise ValueError(
            f"CFL violation: dt={config.dt} exceeds cfl_safety*h/max|b| = {limit:.3e}"
        )
    return b_parts, b_max


def solve(b_smooth, f, config, diagnostics=True):
    """Integrate the shifted equation from datum f under drift b_smooth.

    The drift should be mollified/band-limited; its spectrum is dealiased
    with the two-thirds mask before use.  Raises on CFL violation
    (_check_cfl); a NaN mid-run aborts with the last valid state and sets
    abort_message.

    solve never writes f, and snapshot 0 is f itself, the caller's datum,
    not a copy; a caller that changes f's values afterwards changes that
    snapshot too.

    With diagnostics=False the solve is light: it records only dirichlet_v
    and the snapshots, which is all the gradient-bound and Cauchy checks
    read, and forms the physical field only at snapshot steps.  The
    trajectory, snapshots and dirichlet_v are the same as a full solve's.
    """
    grid = f.grid
    if b_smooth.grid != grid:
        raise ValueError("drift and initial datum live on different grids")
    b_parts, b_max = _check_cfl(b_smooth, config)
    advect = b_max > 0
    n_steps = config.n_steps

    factor = np.exp(config.dt * (grid.laplace_symbol - config.shift))
    grad_syms = grid._slab_gradient_symbols
    lines = grad_syms[0].shape[-1]
    slab_mask = grid.dealias_mask[..., :lines]
    slab_factor = factor[..., :lines]
    dirichlet_root = grid._dirichlet_root

    # The work buffers, allocated once per solve and overwritten every step.
    # `work` holds the advection sum and |grad v|^2, and `squares`, its
    # leading entries in the spectral shape, the Dirichlet sum's terms.
    # `spectral_work` holds each full symbol product and the advection's
    # forward r2c, and `product`, its leading entries in the slab shape, each
    # slab symbol product.  `padded` is the inverse's spectrum, zero beyond
    # the slab; `component` is each inverse's output.  `n1` and `predictor`
    # are slabs; the predictor's advection, n2, is written over it.
    work = np.empty(grid.shape)
    spectral_work = np.empty(grid.spectral_shape, dtype=complex)
    squares = work.reshape(-1)[: spectral_work.size].reshape(grid.spectral_shape)
    slab_shape = grid.spectral_shape[:-1] + (lines,)
    product = spectral_work.reshape(-1)[: math.prod(slab_shape)].reshape(slab_shape)
    padded = np.zeros_like(spectral_work)
    component = np.empty(grid.shape)
    n1 = np.empty(slab_shape, dtype=complex)
    predictor = np.empty_like(n1)
    # a full solve's diagnostics: a scratch array, the exp weight, and x^2 .. x^top
    diag_buffers = (
        [np.empty(grid.shape) for _ in range(2 + max(config.p_list) // 2)] if diagnostics else None
    )

    def advection(source, out):
        """Dealiased slab spectrum of b . grad v for the slab `source`, into out.

        Plain form: (rfftn(zeros + sum over a of b_a * irfftn(source * g_a)) * mask),
        with source, g_a and mask cut to the slab and source zero beyond it.
        """
        work.fill(0.0)
        for b_a, g_a in zip(b_parts, grad_syms):
            np.multiply(source, g_a, out=product)
            irfftn(product, grid.shape, out=component, padded=padded)
            np.add(work, np.multiply(b_a, component, out=component), out=work)
        rfftn(work, out=out, scratch=spectral_work)
        out *= slab_mask
        return out

    times = config.dt * np.arange(n_steps + 1)
    diag = {name: np.zeros(n_steps + 1) for name in _step_columns(config.p_list, diagnostics)}
    snapshot_indices = []
    snapshots = []

    spectrum = rfftn(f.values)
    slab = spectrum[..., :lines]
    v_phys = f.values
    abort_message = ""

    for k in range(n_steps + 1):
        snapshot = k % config.snapshot_stride == 0 or k == n_steps
        if k > 0 and (diagnostics or snapshot):
            v_phys = irfftn(spectrum, grid.shape)
        # dirichlet_v = sum(weighted.real**2 + weighted.imag**2),
        # weighted = dirichlet_root * spectrum
        with np.errstate(over="ignore"):
            weighted = np.multiply(dirichlet_root, spectrum, out=spectral_work)
            np.square(weighted.real, out=squares)
            squares += np.square(weighted.imag, out=weighted.imag)
            diag["dirichlet_v"][k] = squares.sum()
        if diagnostics:
            _record_diagnostics(
                grid, config, diag, k, times[k], spectrum, v_phys, spectral_work, work, diag_buffers
            )
        if snapshot:
            snapshot_indices.append(k)
            snapshots.append(f if k == 0 else ScalarField(grid, v_phys))
        if k == n_steps:
            break
        # spectrum is a solve-owned array (the datum's transform, then updated
        # only here), so the step overwrites it in place
        with np.errstate(over="ignore", invalid="ignore"):
            if advect:
                # predictor = factor * (spectrum - dt * n1): Euler's step and
                # RK2's first stage, with n1 zero beyond the slab
                advection(slab, n1)
                np.multiply(config.dt, n1, out=predictor)
                np.subtract(slab, predictor, out=predictor)
                np.multiply(slab_factor, predictor, out=predictor)
            np.multiply(factor, spectrum, out=spectrum)
            if advect and config.scheme == "if_euler":
                slab[...] = predictor
            elif advect:
                # spectrum = factor * spectrum - 0.5 * dt * (factor * n1 + n2),
                # with n2 the predictor's advection
                n2 = advection(predictor, predictor)
                np.multiply(slab_factor, n1, out=n1)
                n1 += n2
                np.multiply(0.5 * config.dt, n1, out=n1)
                slab -= n1
        if not np.all(np.isfinite(spectrum.view(float))):
            abort_message = f"non-finite state after step {k + 1} (t={times[k + 1]:.6g})"
            times = times[: k + 1]
            diag = {name: col[: k + 1] for name, col in diag.items()}
            break

    return Trajectory(
        grid=grid,
        shift=config.shift,
        p_list=config.p_list,
        times=times,
        diag=diag,
        snapshot_indices=snapshot_indices,
        snapshots=snapshots,
        abort_message=abort_message,
    )


def _even_powers(x, top, buffers):
    """{p: x**p} for the even p in 2..top, one multiplication per power, in buffers.

    numpy fast-paths only the exponent 2 of ``**``; higher exponents go
    through a generic per-element pow that costs several multiplications.
    """
    square = np.multiply(x, x, out=buffers[0])
    powers = {2: square}
    for p, out in zip(range(4, top + 1, 2), buffers[1:]):
        powers[p] = np.multiply(powers[p - 2], square, out=out)
    return powers


def _record_diagnostics(
    grid, config, diag, k, t, spectrum, v_phys, spectral_work, grad_sq, buffers
):
    """Every column but dirichlet_v, which solve() takes from the spectrum.

    Writes only into spectral_work, grad_sq and buffers (see solve()).
    """
    h_d = grid.cell_volume
    top = max(config.p_list)
    scratch, weight, *power_buffers = buffers
    with np.errstate(over="ignore", invalid="ignore"):
        # u = scale * v; weight holds u until the exp loop needs it.  At shift
        # 0 the scale is exactly 1.0, so u is bitwise v.
        scale = math.exp(config.shift * t)
        u = np.multiply(scale, v_phys, out=weight)
        diag["sup"][k] = np.abs(u, out=scratch).max()
        powers = _even_powers(u, top, power_buffers)
        for p in config.p_list:
            diag[f"l{p}"][k] = (h_d * powers[p].sum()) ** (1.0 / p)

        # one inverse FFT per axis: faster than one batched call at 32^3 and 64^3
        grad_sq.fill(0.0)
        for g in grid.gradient_symbols:
            component = irfftn(np.multiply(spectrum, g, out=spectral_work), grid.shape)
            grad_sq += np.multiply(component, component, out=component)
        # |grad u|^2 from |grad v|^2
        np.multiply(scale * scale, grad_sq, out=grad_sq)

        np.cosh(u, out=scratch)
        scratch -= 1.0
        diag["modular"][k] = h_d * scratch.sum()
        for p in config.p_list:
            exp_u = np.exp(powers[p], out=weight)
            diag[f"exp_modular_p{p}"][k] = h_d * exp_u.sum()
            coeff = h_d * p * p / 4.0
            # (grad u^(p/2))^2 exp(u^p) = (p/2)^2 u^(p-2) |grad u|^2 exp(u^p)
            disp = np.multiply(grad_sq, exp_u, out=weight)
            if p > 2:
                disp *= powers[p - 2]
            diag[f"exp_disp_p{p}"][k] = coeff * disp.sum()
            # (grad exp(u^p/2))^2 = (p/2)^2 u^(2p-2) |grad u|^2 exp(u^p)
            diag[f"exp_gradexp_p{p}"][k] = coeff * np.multiply(powers[p], disp, out=scratch).sum()
