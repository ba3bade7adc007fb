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

A step allocates no elementwise temporaries: the advection sum, the
RK2/Euler update, the Parseval sum and the diagnostics write with in-place
ufuncs into per-solve work buffers or into the state.  They run the same
floating-point operations in the same order as the plain expressions given
in the comments, so every trajectory is bitwise what those expressions give
(tests/test_solver.py keeps them as its oracle).  Only the FFTs return new
arrays.  No buffer is ever a snapshot's values or a result.
"""

from __future__ import annotations

import math
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


@dataclass
class Trajectory:
    """Solution snapshots plus per-step diagnostics.

    snapshots hold the solved variable v; the unshifted solution at snapshot
    i is exp(shift * t_i) * v_i.  diag maps column names to per-step arrays,
    all of u (suffix ``_u``) except the Dirichlet integral of v, dirichlet_v.
    A light solve's diag holds dirichlet_v only.
    """

    grid: TorusGrid
    shift: float
    p_list: tuple
    times: np.ndarray
    diag: dict
    snapshot_indices: list
    snapshots: list
    aborted: bool = False
    abort_message: str = ""

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

        Columns: t, sup, one l{p} per entry of p_list, orlicz, modular,
        dirichlet, then exp_modular, exp_disp and exp_gradexp per p.  The
        orlicz column holds the snapshot norms and nan on other rows.  Raises
        ValueError for a light trajectory, which lacks the columns.
        """
        missing = [name for name in _diagnostic_columns(self.p_list) if name not in self.diag]
        if missing:
            raise ValueError(
                f"to_csv needs the full per-step diagnostics; this trajectory lacks "
                f"{missing} (solve it with diagnostics=True)"
            )
        orlicz = np.full_like(self.times, np.nan)
        orlicz[self.snapshot_indices] = self.snapshot_orlicz
        columns = ["t", "sup", *(f"l{p}" for p in self.p_list), "orlicz", "modular", "dirichlet"]
        series = [
            self.times,
            self.diag["sup_u"],
            *(self.diag[f"l{p}_u"] for p in self.p_list),
            orlicz,
            self.diag["modular_u"],
            self.dirichlet_u,
        ]
        for p in self.p_list:
            for stem in ("exp_modular", "exp_disp", "exp_gradexp"):
                columns.append(f"{stem}_p{p}")
                series.append(self.diag[f"{stem}_p{p}_u"])
        with open(path, "w") as fh:
            fh.write(f"# shift={self.shift!r} aborted={self.aborted}\n")
            fh.write(",".join(columns) + "\n")
            for row in zip(*series):
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def _diagnostic_columns(p_list):
    cols = ["sup_u", "modular_u", "dirichlet_v"]
    cols += [f"l{p}_u" for p in p_list]
    for p in p_list:
        cols += [f"exp_modular_p{p}_u", f"exp_disp_p{p}_u", f"exp_gradexp_p{p}_u"]
    return cols


def solve(b_smooth, f, config, diagnostics=True):
    """Integrate the shifted equation from datum f under drift b_smooth.

    The drift should be mollified/band-limited; its spectrum is dealiased
    with the two-thirds mask before use.  Raises on CFL violation; a NaN
    mid-run aborts with the last valid state and sets Trajectory.aborted.

    With diagnostics=False the solve is light: it records only dirichlet_v
    and the snapshots, which is all the gradient-bound and Cauchy checks
    read, and forms the physical field only at snapshot steps.  The
    trajectory, snapshots and dirichlet_v are the same as a full solve's.

    Work buffers: one real array of the grid's shape, one complex array of
    the spectral shape, a second complex array for the RK2 predictor, and
    2 + max(p_list)/2 real arrays for a full solve's diagnostics.  They are
    allocated once per solve and overwritten every step; the state spectrum
    is updated in place.  A change to the step must keep its operations and
    their order, or the bitwise oracle test fails.
    """
    grid = f.grid
    if b_smooth.grid != grid:
        raise ValueError("drift and initial datum live on different grids")
    mask = grid.dealias_mask
    # The CFL bound and the advect flag are taken from the dealiased drift,
    # the field the scheme actually advects with.
    b_parts = tuple(
        irfftn(rfftn(c.values) * mask, grid.shape) for c in b_smooth.components
    )
    b_max = math.sqrt(float(sum(b_a * b_a for b_a in b_parts).max()))
    h = grid.spacing
    if b_max > 0 and config.dt > config.cfl_safety * h / b_max:
        raise ValueError(
            f"CFL violation: dt={config.dt} exceeds cfl_safety*h/max|b| = "
            f"{config.cfl_safety * h / b_max:.3e}"
        )
    n_steps = config.n_steps

    factor = np.exp(config.dt * (grid.laplace_symbol - config.shift))
    grad_syms = tuple(g * mask for g in grid.gradient_symbols)
    # Parseval on the halved rfft axis: an interior mode stands for itself and
    # its conjugate, the modes at index 0 and at the Nyquist index for one.
    # The root of the weight multiplies the spectrum, so that an overflowing
    # mode reads inf rather than 0 * inf = nan on a zero-weight mode.
    parseval = np.full(grid.spectral_shape[-1], 2.0)
    parseval[0] = parseval[-1] = 1.0
    dirichlet_root = np.sqrt(grid.dirichlet_symbol * parseval) / grid.size
    advect = b_max > 0

    # `work` holds the advection sum and |grad v|^2, and `squares`, its
    # leading entries in the spectral shape, the Dirichlet sum's terms;
    # `spectral_work` holds each symbol product
    work = np.empty(grid.shape)
    spectral_work = np.empty(grid.spectral_shape, dtype=complex)
    squares = work.reshape(-1)[: spectral_work.size].reshape(grid.spectral_shape)
    predictor = np.empty_like(spectral_work)
    # a full solve's diagnostics: a scratch array, the exp weight, and x^2 .. x^top
    diag_buffers = (
        [np.empty(grid.shape) for _ in range(2 + max(config.p_list) // 2)] if diagnostics else None
    )

    def advection(source):
        """Dealiased spectrum of b . grad v for the spectrum `source`: a new array.

        Plain form: rfftn(zeros + sum over a of b_a * irfftn(source * g_a)) * mask.
        """
        work.fill(0.0)
        for b_a, g_a in zip(b_parts, grad_syms):
            component = irfftn(np.multiply(source, g_a, out=spectral_work), grid.shape)
            np.add(work, np.multiply(b_a, component, out=component), out=work)
        out = rfftn(work)
        out *= mask
        return out

    times = config.dt * np.arange(n_steps + 1)
    columns = _diagnostic_columns(config.p_list) if diagnostics else ["dirichlet_v"]
    diag = {name: np.zeros(n_steps + 1) for name in columns}
    snapshot_indices = []
    snapshots = []

    spectrum = rfftn(f.values)
    v_phys = f.values
    aborted = False
    abort_message = ""
    last_step = n_steps

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
            snapshots.append(f.copy() if k == 0 else ScalarField(grid, v_phys))
        if k == n_steps:
            break
        # spectrum is a solve-owned array (the datum's transform, then updated
        # only here), so the step overwrites it in place
        with np.errstate(over="ignore", invalid="ignore"):
            if not advect:
                np.multiply(factor, spectrum, out=spectrum)
            elif config.scheme == "if_euler":
                # spectrum = factor * (spectrum - dt * n1)
                n1 = advection(spectrum)
                np.multiply(config.dt, n1, out=n1)
                spectrum -= n1
                np.multiply(factor, spectrum, out=spectrum)
            else:
                # predictor = factor * (spectrum - dt * n1)
                # spectrum = factor * spectrum - 0.5 * dt * (factor * n1 + n2)
                n1 = advection(spectrum)
                np.multiply(config.dt, n1, out=predictor)
                np.subtract(spectrum, predictor, out=predictor)
                np.multiply(factor, predictor, out=predictor)
                n2 = advection(predictor)
                np.multiply(factor, n1, out=n1)
                n1 += n2
                np.multiply(0.5 * config.dt, n1, out=n1)
                np.multiply(factor, spectrum, out=spectrum)
                spectrum -= n1
        if not np.all(np.isfinite(spectrum.view(float))):
            aborted = True
            abort_message = f"non-finite state after step {k + 1} (t={times[k + 1]:.6g})"
            last_step = k
            break

    if aborted:
        keep = last_step + 1
        times = times[:keep]
        diag = {name: col[:keep] for name, col in diag.items()}

    return Trajectory(
        grid=grid,
        shift=config.shift,
        p_list=config.p_list,
        times=times,
        diag=diag,
        snapshot_indices=snapshot_indices,
        snapshots=snapshots,
        aborted=aborted,
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
        diag["sup_u"][k] = np.abs(u, out=scratch).max()
        powers = _even_powers(u, top, power_buffers)
        for p in config.p_list:
            diag[f"l{p}_u"][k] = (h_d * powers[p].sum()) ** (1.0 / p)

        # one inverse FFT per axis: faster than one batched call at 32^3 and 64^3
        grad_sq.fill(0.0)
        for g in grid.gradient_symbols:
            component = irfftn(np.multiply(spectrum, g, out=spectral_work), grid.shape)
            grad_sq += np.multiply(component, component, out=component)
        # |grad u|^2 from |grad v|^2
        np.multiply(scale * scale, grad_sq, out=grad_sq)

        np.cosh(u, out=scratch)
        scratch -= 1.0
        diag["modular_u"][k] = h_d * scratch.sum()
        for p in config.p_list:
            exp_u = np.exp(powers[p], out=weight)
            diag[f"exp_modular_p{p}_u"][k] = h_d * exp_u.sum()
            coeff = h_d * p * p / 4.0
            # (grad u^(p/2))^2 exp(u^p) = (p/2)^2 u^(p-2) |grad u|^2 exp(u^p)
            disp = np.multiply(grad_sq, exp_u, out=weight)
            if p > 2:
                disp *= powers[p - 2]
            diag[f"exp_disp_p{p}_u"][k] = coeff * disp.sum()
            # (grad exp(u^p/2))^2 = (p/2)^2 u^(2p-2) |grad u|^2 exp(u^p)
            diag[f"exp_gradexp_p{p}_u"][k] = coeff * np.multiply(powers[p], disp, out=scratch).sum()
