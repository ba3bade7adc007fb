"""Singular drift construction, mollification and form bounds.

The central object is the form-bound certificate (delta_hat, c): for a drift
b and a zeroth-order budget c >= <|b|^2>,

    delta_hat(c) = sup_phi  ( ||b phi||_2^2 - c ||phi||_2^2 ) / ||grad phi||_2^2

over mean-zero, Nyquist-free grid fields.  The supremum is the top
generalized eigenvalue of (M - c, L) with M pointwise multiplication by
|b|^2 and L the discrete Dirichlet form: the top eigenvalue of the
symmetrized operator L^(-1/2) (M - c) L^(-1/2), applied with FFTs.  Budgets c
below <|b|^2> are infeasible: the constant trial function already forces an
infinite gradient budget there.  The zeroth-order constant c(delta) is the
top eigenvalue of |b|^2 - delta L.  Both come from one eigen-engine, LOBPCG
(Knyazev, SIAM J. Sci. Comput. 23, 2001), stopped on the relative
eigen-residual ||A psi - rho psi|| / |rho|; some eigenvalue of A lies within
||A psi - rho psi|| of rho.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse.linalg

from .grid import (
    ScalarField,
    VectorField,
    gradient,
    heat_semigroup,
    irfftn,
    read_field,
    rfftn,
    trig_series,
)

__all__ = [
    "DriftSpec",
    "FormBoundCertificate",
    "build_drift",
    "mollify_drift",
    "form_bound_estimate",
    "zeroth_order_constant",
    "verify_form_bound",
]

DRIFT_KINDS = ("hardy", "constant", "trig", "file")


@dataclass
class DriftSpec:
    """Tagged drift description.

    kind selects the variant:
      hardy     -- sign * sqrt(delta) * (d-2)/2 * x / max(|x|, core_radius)^2,
                   smoothly cut off at cutoff_radius and periodized
      constant  -- uniform field given by ``vector``
      trig      -- per-component sums of amplitude * cos(2 pi k . x) terms
      file      -- vector field loaded from ``path``
    core_radius defaults to two grid spacings at build time.
    """

    kind: str
    delta: float = 4.0
    sign: int = -1
    core_radius: Optional[float] = None
    cutoff_radius: float = 0.4
    vector: Optional[tuple] = None
    components: Optional[list] = None
    path: Optional[str] = None

    def __post_init__(self):
        if self.kind not in DRIFT_KINDS:
            raise ValueError(f"unknown drift kind {self.kind!r}; expected one of {DRIFT_KINDS}")
        if not 0.0 < self.cutoff_radius < 0.5:
            raise ValueError(f"cutoff_radius must lie in (0, 1/2), got {self.cutoff_radius}")
        if self.kind == "hardy":
            if self.delta <= 0:
                raise ValueError(f"hardy drift needs delta > 0, got {self.delta}")
            if self.sign not in (-1, 1):
                raise ValueError(f"sign must be +1 or -1, got {self.sign}")
            if self.core_radius is not None and self.core_radius < 0:
                raise ValueError(f"core_radius must be >= 0, got {self.core_radius}")
        if self.kind == "constant" and self.vector is None:
            raise ValueError("constant drift needs a vector")
        if self.kind == "trig" and self.components is None:
            raise ValueError("trig drift needs per-component (amplitude, wavevector) lists")
        if self.kind == "file" and self.path is None:
            raise ValueError("file drift needs a path")


def _smooth_cutoff(r, inner, outer):
    """C-infinity radial ramp: 1 for r <= inner, 0 for r >= outer."""
    out = np.zeros_like(r)
    out[r <= inner] = 1.0
    band = (r > inner) & (r < outer)
    if np.any(band):
        s = (r[band] - inner) / (outer - inner)
        g_up = np.exp(-1.0 / s)
        g_down = np.exp(-1.0 / (1.0 - s))
        out[band] = g_down / (g_up + g_down)
    return out


def build_drift(spec, grid):
    """Realize a DriftSpec on a grid."""
    if spec.kind == "constant":
        vec = tuple(float(v) for v in spec.vector)
        if len(vec) != grid.dim:
            raise ValueError(f"constant vector has {len(vec)} entries for dim {grid.dim}")
        return VectorField(grid, tuple(ScalarField.full(grid, v) for v in vec))

    if spec.kind == "trig":
        if len(spec.components) != grid.dim:
            raise ValueError(
                f"trig drift lists {len(spec.components)} components for dim {grid.dim}"
            )
        return VectorField(grid, tuple(trig_series(grid, terms) for terms in spec.components))

    if spec.kind == "file":
        loaded = read_field(spec.path)
        if not isinstance(loaded, VectorField):
            raise ValueError(f"{spec.path} holds a scalar field, expected a vector field")
        if loaded.grid != grid:
            raise ValueError(
                f"drift file grid (d={loaded.grid.dim}, n={loaded.grid.n}) does not match "
                f"requested grid (d={grid.dim}, n={grid.n})"
            )
        return loaded

    # hardy
    if grid.dim < 2:
        raise ValueError("hardy drift requires dim >= 2: the radial factor (d-2)/2 degenerates in 1D")
    core = 2.0 * grid.spacing if spec.core_radius is None else spec.core_radius
    coords = grid.coordinates
    r2 = sum(np.broadcast_to(x, grid.shape) ** 2 for x in coords)
    r = np.sqrt(r2)
    capped = np.maximum(r, core)
    chi = _smooth_cutoff(r, spec.cutoff_radius / 2.0, spec.cutoff_radius)
    scale = spec.sign * math.sqrt(spec.delta) * (grid.dim - 2) / 2.0
    radial = scale * chi / capped**2
    comps = tuple(
        ScalarField(grid, radial * np.broadcast_to(x, grid.shape)) for x in coords
    )
    return VectorField(grid, comps)


def mollify_drift(b, eps):
    """Heat-semigroup mollification applied componentwise; eps = 0 is identity."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    return VectorField(b.grid, tuple(heat_semigroup(c, eps) for c in b.components))


@dataclass
class FormBoundCertificate:
    """A (delta_hat, c) pair with the trial-space evidence that produced it.

    witness is the maximizing mean-zero trial function (L2-normalized).
    residual is the relative eigen-residual ||A psi - rho psi|| / |rho| of the
    final Ritz pair (rho = rayleigh_quotient), so some eigenvalue of A lies
    within residual * |rho| of rho; converged means residual <= rq_tol.
    iterations counts the operator applications.  Infeasible budgets (c below
    <|b|^2>) carry delta_hat = inf and no witness.
    """

    c_delta: float
    delta_hat: float
    witness: Optional[ScalarField]
    residual: float
    iterations: int
    converged: bool
    feasible: bool = True
    rayleigh_quotient: float = 0.0

    def to_json(self):
        return {
            "c": self.c_delta,
            "delta_hat": None if math.isinf(self.delta_hat) else self.delta_hat,
            "residual": self.residual if math.isfinite(self.residual) else None,
            "iterations": self.iterations,
            "converged": self.converged,
            "feasible": self.feasible,
        }


def _top_eigenpair(apply, precondition, x0, tol, max_iter):
    """Top eigenpair of the symmetric operator ``apply`` by LOBPCG.

    apply and precondition (None for none) map a grid array to one.  Returns
    (rho, psi, residual, converged, applications): psi is the unit Ritz
    vector, rho its Rayleigh quotient and residual ||A psi - rho psi|| / |rho|,
    recomputed here (0 for the zero operator).  LOBPCG is restarted from its
    best iterate until residual <= tol, or until another pass could take
    the operator applications past max_iter.
    """
    applications = 0

    def matmat(block):  # one column: the block size is 1
        nonlocal applications
        applications += 1
        return apply(block.reshape(x0.shape)).reshape(block.shape)

    def premat(block):
        return precondition(block.reshape(x0.shape)).reshape(block.shape)

    def rayleigh(psi):
        a_psi = matmat(psi)
        rho = float(np.vdot(psi, a_psi))
        r = float(np.linalg.norm(a_psi - rho * psi))
        return rho, r / abs(rho) if rho else (math.inf if r else 0.0)

    psi = x0.reshape(-1, 1) / np.linalg.norm(x0)
    rho, residual = rayleigh(psi)
    # a lobpcg pass with maxiter m applies A at most m + 3 times, and the
    # check after it once more
    while residual > tol and applications + 4 <= max_iter:
        # lobpcg tests the absolute residual, and warns when it misses it
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            psi = scipy.sparse.linalg.lobpcg(
                matmat,
                psi,
                M=premat if precondition else None,
                tol=max(tol * abs(rho), np.finfo(float).tiny),
                maxiter=max_iter - applications - 4,
                largest=True,
            )[1]
        psi /= np.linalg.norm(psi)
        rho, residual = rayleigh(psi)
    return rho, psi.reshape(x0.shape), residual, residual <= tol, applications


def form_bound_estimate(b, c_values, max_iter=5000, rq_tol=1e-10, seed=0):
    """Estimate delta_hat(c) for each budget c with the eigen-engine.

    Returns one FormBoundCertificate per entry of c_values, in order.  Budgets
    below <|b|^2> are reported infeasible.  A pair still above rq_tol after
    max_iter operator applications is returned with converged False.
    """
    grid = b.grid
    b_sq = b.magnitude_squared()
    mean_b_sq = grid.cell_volume * float(b_sq.sum())
    sym = grid.dirichlet_symbol
    # L^(-1/2) on mean-zero, Nyquist-free fields; zero on the other modes
    inv_sqrt = np.zeros_like(sym)
    inv_sqrt[sym > 0] = 1.0 / np.sqrt(sym[sym > 0])

    def inverse_sqrt(phi):
        return irfftn(inv_sqrt * rfftn(phi), grid.shape)

    rng = np.random.default_rng(seed)
    x0 = np.broadcast_to(grid.coordinates[0], grid.shape)
    start = np.cos(2.0 * np.pi * x0) + 1e-3 * rng.standard_normal(grid.shape)
    start = irfftn(np.where(sym > 0, rfftn(start), 0.0), grid.shape)

    certificates = []
    for c in c_values:
        c = float(c)
        if c < mean_b_sq * (1.0 - 1e-12):
            certificates.append(
                FormBoundCertificate(
                    c_delta=c,
                    delta_hat=math.inf,
                    witness=None,
                    residual=math.nan,
                    iterations=0,
                    converged=False,
                    feasible=False,
                )
            )
            continue
        multiplier = b_sq - c
        rho, psi, residual, converged, iterations = _top_eigenpair(
            lambda phi: inverse_sqrt(multiplier * inverse_sqrt(phi)), None, start, rq_tol, max_iter
        )
        witness = inverse_sqrt(psi)
        witness /= math.sqrt(grid.cell_volume * float((witness**2).sum()))
        certificates.append(
            FormBoundCertificate(
                c_delta=c,
                delta_hat=max(rho, 0.0),
                witness=ScalarField(grid, witness),
                residual=residual,
                iterations=iterations,
                converged=converged,
                rayleigh_quotient=rho,
            )
        )
    return certificates


def zeroth_order_constant(b, delta, tol=1e-9):
    """Smallest c with ||b phi||_2^2 <= delta ||grad phi||_2^2 + c ||phi||_2^2
    for every grid field phi: the top eigenvalue of the Schroedinger-type
    operator (|b|^2 - delta L).

    Unlike the mean-zero sweep of form_bound_estimate, this constant covers
    constant-rich trial functions too, which the energy-inequality checks
    feed through exp(u^p / 2).  Always at least <|b|^2> (the constant trial).
    The eigen-engine, preconditioned by (delta L + max|b|^2)^(-1), must reach
    the relative eigen-residual tol within 1000 operator applications, else
    RuntimeError.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    grid = b.grid
    b_sq = b.magnitude_squared()
    top = float(b_sq.max())
    if top == 0.0:
        return 0.0  # -delta L is negative semidefinite and vanishes on constants
    sym = grid.dirichlet_symbol
    inverse = 1.0 / (delta * sym + top)
    rng = np.random.default_rng(0)
    x0 = np.ones(grid.shape) + 1e-3 * rng.standard_normal(grid.shape)
    rho, _, residual, converged, applications = _top_eigenpair(
        lambda phi: b_sq * phi - delta * irfftn(rfftn(phi) * sym, grid.shape),
        lambda r: irfftn(inverse * rfftn(r), grid.shape),
        x0,
        tol,
        max_iter=1000,
    )
    if not converged:
        raise RuntimeError(
            f"c(delta) eigen-solve for delta={delta} stopped at relative residual "
            f"{residual:.3g} > {tol:g} after {applications} operator applications"
        )
    return max(rho, grid.cell_volume * float(b_sq.sum()))


def verify_form_bound(b, delta, c_delta, trials):
    """Max over trials of ||b phi||_2^2 - delta ||grad phi||_2^2 - c ||phi||_2^2.

    Nonpositive (or numerically negligible) output means the certificate
    holds on the trial set.
    """
    if not trials:
        raise ValueError("trials list must be nonempty")
    b_sq = b.magnitude_squared()
    worst = -math.inf
    for phi in trials:
        if phi.grid != b.grid:
            raise ValueError("trial grid does not match drift grid")
        grad = gradient(phi)
        weighted = float((b_sq * phi.values**2).sum()) * b.grid.cell_volume
        dirichlet = float(grad.magnitude_squared().sum()) * b.grid.cell_volume
        mass = float((phi.values**2).sum()) * b.grid.cell_volume
        worst = max(worst, weighted - delta * dirichlet - c_delta * mass)
    return worst
