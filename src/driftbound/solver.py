"""Time integration of (shift + d/dt - Laplacian + b . grad) v = 0.

Diffusion and the zeroth-order shift are applied exactly in Fourier space via
the integrating factor exp(-(4 pi^2 |k|^2 + shift) dt); the advection term is
evaluated pseudospectrally with two-thirds dealiasing and advanced by an
explicit rule (Heun by default).  Replacing v by u = exp(shift t) v recovers
the unshifted solution; the discrete scheme commutes exactly with that
substitution, so one shifted solve carries both solution streams.

Every step records the Dirichlet integral of v, from the spectrum by
Parseval.  A full solve (the default) also records, every step, the
diagnostics the other inequality checks consume: norms and the cosh modular
of both u and v, and for each even power p the exponential-weight integrands
<exp(u^p)>, <(grad u^(p/2))^2 exp(u^p)> and <(grad exp(u^p/2))^2>.  Dense
per-step sampling keeps the trapezoid time integrals of those terms
accurate.  A light solve (diagnostics=False) skips them and forms the
physical field only at the snapshots.  Full fields are stored only every
snapshot_stride steps (plus the final time).  The Orlicz norm of u is needed
only at the snapshots and is computed there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import ScalarField, TorusGrid, irfftn, rfftn
from .orlicz import CHECKPOINT_NORM_TOL, orlicz_norm

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
    snapshot_stride: int = 10
    scheme: str = "if_rk2"
    cfl_safety: float = 0.5
    p_list: tuple = (2, 4)

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.t_final <= 0:
            raise ValueError(f"t_final must be > 0, got {self.t_final}")
        if self.n_steps < 1 or abs(self.n_steps * self.dt - self.t_final) > 1e-9 * self.t_final:
            raise ValueError(
                f"t_final={self.t_final} must be a whole number of steps of dt={self.dt}"
            )
        if self.shift < 0:
            raise ValueError(f"shift must be >= 0, got {self.shift}")
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        for p in self.p_list:
            if p != int(p) or int(p) < 2 or int(p) % 2:
                raise ValueError(f"p_list entries must be even integers >= 2, got {p}")
        self.p_list = tuple(int(p) for p in self.p_list)

    @property
    def n_steps(self):
        return int(round(self.t_final / self.dt))


@dataclass
class Trajectory:
    """Solution snapshots plus per-step diagnostics.

    snapshots hold the solved variable v; the unshifted solution at snapshot
    i is exp(shift * t_i) * v_i.  diag maps column names to per-step arrays;
    u-based columns carry the ``_u`` suffix, v-based the ``_v`` suffix.  A
    light solve's diag holds dirichlet_v only.
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
    def u_scale(self):
        return np.exp(self.shift * self.times)

    @property
    def sup_u(self):
        return self.diag["sup_v"] * self.u_scale

    def lp_u(self, p):
        return self.diag[f"l{p}_v"] * self.u_scale

    @property
    def dirichlet_u(self):
        return self.diag["dirichlet_v"] * self.u_scale**2

    @property
    def snapshot_times(self):
        return self.times[self.snapshot_indices]

    def snapshot_v(self, i):
        return self.snapshots[i]

    def snapshot_u(self, i):
        t = self.times[self.snapshot_indices[i]]
        return ScalarField(self.grid, math.exp(self.shift * t) * self.snapshots[i].values)

    @cached_property
    def snapshot_orlicz(self):
        """Orlicz norm of u at each snapshot, computed on first use only."""
        return np.array(
            [
                orlicz_norm(self.snapshot_u(i), tol=CHECKPOINT_NORM_TOL).value
                for i in range(len(self.snapshots))
            ]
        )

    def to_csv(self, path):
        """Stream per-step diagnostics of the unshifted solution u.

        The orlicz column holds the snapshot norms and nan on other rows.
        Raises ValueError for a light trajectory, which lacks the columns.
        """
        missing = [name for name in _diagnostic_columns(self.p_list) if name not in self.diag]
        if missing:
            raise ValueError(
                f"to_csv needs the full per-step diagnostics; this trajectory lacks "
                f"{missing} (solve it with diagnostics=True)"
            )
        orlicz = np.full_like(self.times, np.nan)
        orlicz[self.snapshot_indices] = self.snapshot_orlicz
        columns = ["t", "sup", "l2", "l4", "orlicz", "modular", "dirichlet"]
        series = [
            self.times,
            self.sup_u,
            self.lp_u(2) if 2 in self.p_list else np.full_like(self.times, np.nan),
            self.lp_u(4) if 4 in self.p_list else np.full_like(self.times, np.nan),
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
    cols = ["sup_v", "modular_v", "modular_u", "dirichlet_v"]
    cols += [f"l{p}_v" for p in p_list]
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

    def advection(spectrum):
        out = np.zeros(grid.shape)
        for b_a, g_a in zip(b_parts, grad_syms):
            out += b_a * irfftn(spectrum * g_a, grid.shape)
        return rfftn(out) * mask

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
        with np.errstate(over="ignore"):
            weighted = dirichlet_root * spectrum
            diag["dirichlet_v"][k] = (weighted.real**2 + weighted.imag**2).sum()
        if diagnostics:
            _record_diagnostics(grid, config, diag, k, times[k], spectrum, v_phys)
        if snapshot:
            snapshot_indices.append(k)
            snapshots.append(f.copy() if k == 0 else ScalarField(grid, v_phys))
        if k == n_steps:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            if advect:
                if config.scheme == "if_euler":
                    spectrum = factor * (spectrum - config.dt * advection(spectrum))
                else:
                    n1 = advection(spectrum)
                    predictor = factor * (spectrum - config.dt * n1)
                    n2 = advection(predictor)
                    spectrum = factor * spectrum - 0.5 * config.dt * (factor * n1 + n2)
            else:
                spectrum = factor * spectrum
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


def _even_powers(x, top):
    """{p: x**p} for the even p in 2..top, one multiplication per power.

    numpy fast-paths only the exponent 2 of ``**``; higher exponents go
    through a generic per-element pow that costs several multiplications.
    """
    square = x * x
    powers = {2: square}
    for p in range(4, top + 1, 2):
        powers[p] = powers[p - 2] * square
    return powers


def _record_diagnostics(grid, config, diag, k, t, spectrum, v_phys):
    """Every column but dirichlet_v, which solve() takes from the spectrum."""
    h_d = grid.cell_volume
    top = max(config.p_list)
    diag["sup_v"][k] = np.abs(v_phys).max()
    with np.errstate(over="ignore", invalid="ignore"):
        v_pow = _even_powers(v_phys, top)
        for p in config.p_list:
            diag[f"l{p}_v"][k] = (h_d * v_pow[p].sum()) ** (1.0 / p)

        # one inverse FFT per axis: faster than one batched call at 32^3 and 64^3
        grad_sq = np.zeros(grid.shape)
        for g in grid.gradient_symbols:
            component = irfftn(spectrum * g, grid.shape)
            grad_sq += component * component

        diag["modular_v"][k] = h_d * (np.cosh(v_phys) - 1.0).sum()
        if config.shift:
            scale = math.exp(config.shift * t)
            u = scale * v_phys
            u_pow = _even_powers(u, top)
            u_grad_sq = scale * scale * grad_sq
            diag["modular_u"][k] = h_d * (np.cosh(u) - 1.0).sum()
        else:
            u_pow, u_grad_sq = v_pow, grad_sq
            diag["modular_u"][k] = diag["modular_v"][k]
        for p in config.p_list:
            exp_u = np.exp(u_pow[p])
            diag[f"exp_modular_p{p}_u"][k] = h_d * exp_u.sum()
            coeff = h_d * p * p / 4.0
            # (grad u^(p/2))^2 exp(u^p) = (p/2)^2 u^(p-2) |grad u|^2 exp(u^p)
            disp = u_grad_sq * exp_u
            if p > 2:
                disp *= u_pow[p - 2]
            diag[f"exp_disp_p{p}_u"][k] = coeff * disp.sum()
            # (grad exp(u^p/2))^2 = (p/2)^2 u^(2p-2) |grad u|^2 exp(u^p)
            diag[f"exp_gradexp_p{p}_u"][k] = coeff * (u_pow[p] * disp).sum()
