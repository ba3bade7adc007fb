"""Singular drift construction, mollification and form bounds.

The central object is the form-bound certificate (delta_hat, c): for a drift
b and a zeroth-order budget c >= <|b|^2>,

    delta_hat(c) = sup_phi  ( ||b phi||_2^2 - c ||phi||_2^2 ) / ||grad phi||_2^2

over mean-zero, Nyquist-free grid fields: the top eigenvalue of L^(-1/2)
(M - c) L^(-1/2), with M multiplication by |b|^2 and L the discrete Dirichlet
form, applied with FFTs.  Budgets c below <|b|^2> are infeasible (the constant
trial function forces an infinite gradient budget).  The zeroth-order constant
c(delta) is the top eigenvalue of |b|^2 - delta L.  Both come from one
eigen-engine, LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) in numpy, stopped
on the relative eigen-residual ||A psi - rho psi|| / |rho|.  It sums grid
arrays without BLAS, so no result depends on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._convert import integral, real
from .grid import (
    ScalarField,
    VectorField,
    build_field,
    gradient,
    heat_semigroup,
    irfftn,
    rfftn,
)

__all__ = [
    "DriftSpec",
    "FormBoundCertificate",
    "hardy_coefficient",
    "build_drift",
    "mollify_drift",
    "form_bound_estimate",
    "zeroth_order_constant",
    "verify_form_bound",
]

# the DriftSpec field that holds each grid.build_field kind's source
DRIFT_SOURCES = {"constant": "vector", "trig": "components", "file": "path"}
DRIFT_KINDS = ("hardy", *DRIFT_SOURCES)


@dataclass
class DriftSpec:
    """Tagged drift description.

    kind selects the variant:
      hardy     -- hardy_coefficient(delta, d, sign) * x / max(|x|, core_radius)^2,
                   smoothly cut off at cutoff_radius and periodized; d = 3 only
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
        """Convert the numeric fields (YAML reads 1e-1 as a string), then validate."""
        self.delta, self.sign = real(self.delta, "delta"), integral(self.sign, "sign")
        self.cutoff_radius = real(self.cutoff_radius, "cutoff_radius")
        if self.core_radius is not None:
            self.core_radius = real(self.core_radius, "core_radius")
        if self.kind not in DRIFT_KINDS:
            raise ValueError(f"unknown drift kind {self.kind!r}; expected one of {DRIFT_KINDS}")
        if not 0.0 < self.cutoff_radius < 0.5:
            raise ValueError(f"cutoff_radius must lie in (0, 1/2), got {self.cutoff_radius}")
        if self.kind == "hardy":
            if self.delta <= 0:
                raise ValueError(f"hardy drift needs delta > 0, got {self.delta}")
            if self.sign not in (-1, 1):
                raise ValueError(f"sign must be +1 or -1, got {self.sign}")
            # at 0 the drift divides by zero at the origin, always a grid point
            if self.core_radius is not None and not self.core_radius > 0:
                raise ValueError(f"core_radius must be > 0, got {self.core_radius}")
        if self.kind != "hardy" and getattr(self, DRIFT_SOURCES[self.kind]) is None:
            raise ValueError(f"{self.kind} drift needs {DRIFT_SOURCES[self.kind]}")


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


def hardy_coefficient(delta, dim, sign):
    """The factor of x / |x|^2 in the Hardy drift; its form bound is delta only
    where Hardy's inequality holds, so dim < 3 raises ValueError."""
    if dim < 3:
        raise ValueError(f"the hardy drift needs dim >= 3, got dim {dim}")
    return sign * math.sqrt(delta) * (dim - 2) / 2.0


def build_drift(spec, grid):
    """Realize a DriftSpec on a grid."""
    if spec.kind != "hardy":
        name = DRIFT_SOURCES[spec.kind]
        return build_field(grid, spec.kind, getattr(spec, name), name, vector=True)

    scale = hardy_coefficient(spec.delta, grid.dim, spec.sign)
    core = 2.0 * grid.spacing if spec.core_radius is None else spec.core_radius
    coords = grid.coordinates
    r2 = sum(np.broadcast_to(x, grid.shape) ** 2 for x in coords)
    r = np.sqrt(r2)
    capped = np.maximum(r, core)
    chi = _smooth_cutoff(r, spec.cutoff_radius / 2.0, spec.cutoff_radius)
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
    within residual * |rho| of rho; converged means residual <= rq_tol on a
    fresh application of A.  iterations counts the operator applications.
    Infeasible budgets (c below <|b|^2>) carry delta_hat = inf and no witness;
    budgets at or above max|b|^2 carry delta_hat = 0, residual 0 and no witness.
    """

    c_delta: float
    delta_hat: float
    witness: Optional[ScalarField] = None
    residual: float = 0.0
    iterations: int = 0
    converged: bool = True
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


def _inner(u, v):
    # einsum without optimize never calls BLAS, so no sum depends on its threads
    return float(np.einsum("i,i->", u.ravel(), v.ravel()))


def _top_eigenpair(apply, precondition, x0, tol, max_iter):
    """Top eigenpair of the symmetric operator ``apply`` by LOBPCG, block size 1.

    apply and the preconditioner T (None for none) map a grid array to one.
    Each iteration is a Rayleigh-Ritz step on span{x, T r, p}, r = A x - rho x,
    with x, p orthonormal (Hetmaniuk and Lehoucq, J. Comput. Phys. 218, 2006),
    two Gram-Schmidt passes on T r, and A x, A p carried by recurrence: one
    application of A per iteration.  Returns (rho, psi, residual, converged,
    applications), residual = ||A psi - rho psi|| / |rho| (0 for A = 0).  Stops
    when that is <= tol on a fresh application of A (converged), after max_iter
    applications, or when T r lies in span{x, p}.
    """
    x = x0 / math.sqrt(_inner(x0, x0))
    basis, images, applications, fresh = [x], [apply(x)], 1, True  # basis: x, then p
    while True:
        x, ax = basis[0], images[0]
        rho = _inner(x, ax)
        r = ax - rho * x
        r_norm = math.sqrt(_inner(r, r))
        residual = r_norm / abs(rho) if rho else (math.inf if r_norm else 0.0)
        if residual <= tol and not fresh and applications < max_iter:
            images[0], applications, fresh = apply(x), applications + 1, True
            continue
        if residual <= tol or applications >= max_iter:
            break
        w = precondition(r) if precondition else r
        for v in basis + basis:
            w = w - _inner(v, w) * v
        w_norm = math.sqrt(_inner(w, w))
        if w_norm == 0.0:
            break
        basis.append(w / w_norm)
        images.append(apply(basis[-1]))
        applications, fresh = applications + 1, False
        k = len(basis)
        h = [[_inner(basis[i], images[j]) if j <= i else 0.0 for j in range(k)] for i in range(k)]
        c = np.linalg.eigh(np.array(h))[1][:, -1]  # eigh reads the lower triangle
        # the new x, and p: the unit vector of span{x, new x} orthogonal to new x
        step = math.sqrt(float(np.sum(c[1:] ** 2)))
        coeffs = [c] if step == 0.0 else [c, np.concatenate(([-step], c[0] / step * c[1:]))]
        basis, images = (
            [sum(a * v for a, v in zip(q, vs)) for q in coeffs] for vs in (basis, images)
        )
    return rho, x, residual, residual <= tol and fresh, applications


def form_bound_estimate(b, c_values=None, max_iter=5000, rq_tol=1e-10):
    """Estimate delta_hat(c) for each budget c with the eigen-engine.

    Returns one FormBoundCertificate per entry of c_values, in order; None
    gives the budgets [1.2, 2, 4, 8] * <|b|^2>.  The config's formbound
    section is these keyword arguments, with these defaults.  Every
    eigen-solve starts from cos(2 pi x) plus noise from default_rng(0), as
    zeroth_order_constant's does, so no certificate depends on a seed.  Budgets
    below <|b|^2> are reported infeasible.  Budgets at or above max|b|^2 give
    delta_hat = 0 exactly, with no eigen-solve and no witness.  A pair not
    confirmed within rq_tol, the relative eigen-residual, after max_iter
    operator applications is returned with converged False.
    """
    grid = b.grid
    b_sq = b.magnitude_squared()
    mean_b_sq = b.mean_square()
    if c_values is None:
        c_values = [k * mean_b_sq for k in (1.2, 2.0, 4.0, 8.0)]
    top = float(b_sq.max())
    sym = grid.dirichlet_symbol
    # L^(-1/2) on mean-zero, Nyquist-free fields; zero on the other modes
    inv_sqrt = np.zeros_like(sym)
    inv_sqrt[sym > 0] = 1.0 / np.sqrt(sym[sym > 0])

    def inverse_sqrt(phi):
        return irfftn(inv_sqrt * rfftn(phi), grid.shape)

    rng = np.random.default_rng(0)
    x0 = np.broadcast_to(grid.coordinates[0], grid.shape)
    start = np.cos(2.0 * np.pi * x0) + 1e-3 * rng.standard_normal(grid.shape)
    start = irfftn(np.where(sym > 0, rfftn(start), 0.0), grid.shape)

    def certify(c):
        if c < mean_b_sq * (1.0 - 1e-12):
            return FormBoundCertificate(c, math.inf, residual=math.nan, converged=False, feasible=False)
        if c >= top:
            # M - c <= 0 pointwise, so delta_hat(c) = 0 exactly.  The eigen-solve
            # could not confirm it: its iterate sinks into the null space of
            # L^(-1/2), where rho -> 0 and the relative residual cannot fall.
            return FormBoundCertificate(c, 0.0)
        multiplier = b_sq - c
        rho, psi, residual, converged, iterations = _top_eigenpair(
            lambda phi: inverse_sqrt(multiplier * inverse_sqrt(phi)), None, start, rq_tol, max_iter
        )
        witness = inverse_sqrt(psi)
        witness /= math.sqrt(grid.cell_volume * float((witness**2).sum()))
        return FormBoundCertificate(
            c_delta=c,
            delta_hat=max(rho, 0.0),
            witness=ScalarField(grid, witness),
            residual=residual,
            iterations=iterations,
            converged=converged,
            rayleigh_quotient=rho,
        )

    return [certify(float(c)) for c in c_values]


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
    return max(rho, b.mean_square())


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
        dirichlet = grad.mean_square()
        mass = float((phi.values**2).sum()) * b.grid.cell_volume
        worst = max(worst, weighted - delta * dirichlet - c_delta * mass)
    return worst
