"""Monte Carlo probe of the attracting radial-drift SDE in R^d.

Paths follow Euler-Maruyama for

    X_{k+1} = X_k + sign * sqrt(delta) (d-2)/2 * dt * X_k / max(|X_k|, r_core)^2
              + sqrt(2 dt) * xi_k

(sign = -1 is the attracting case of the model equation; delta = 0 recovers
plain Brownian motion, which Euler-Maruyama samples exactly).  A path is
absorbed when |X_k| <= r_hit; between samples, a Brownian-bridge crossing
test against the tangent plane of the hitting sphere removes the O(sqrt(dt))
discrete-monitoring bias that would otherwise swamp the Wilson interval of
the hitting fraction at usable step sizes.

Randomness is counter-based: paths are processed in fixed-size blocks, each
with its own Philox stream keyed by (seed, block index), and noise is drawn
for every path of a block at every step whether or not the path is still
active.  Results are therefore bitwise reproducible, independent of
scheduling, and pathwise coupled across parameter sweeps that share a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SdeConfig", "HittingStats", "simulate_hardy_sde", "delta_sweep"]

_BLOCK = 1 << 14
_WILSON_Z = 1.959963984540054


@dataclass
class SdeConfig:
    """Euler-Maruyama run description.

    r_core caps the drift magnitude below the hitting radius, so the
    unresolvable 1/|x| blowup never contaminates the statistic; the dt
    invariant keeps the capped drift step an order of magnitude below r_hit.
    sign = -1 attracts paths to the origin, +1 repels them.
    """

    dim: int
    delta: float
    x0: tuple
    t_final: float
    dt: float
    n_paths: int
    seed: int
    r_hit: float
    r_core: float
    sign: int = -1
    bridge: bool = True

    def __post_init__(self):
        if self.dim < 3:
            raise ValueError(f"dim must be >= 3, got {self.dim}")
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        self.x0 = tuple(float(v) for v in self.x0)
        if len(self.x0) != self.dim:
            raise ValueError(f"x0 has {len(self.x0)} coordinates for dim {self.dim}")
        if self.t_final <= 0 or self.dt <= 0:
            raise ValueError("t_final and dt must be > 0")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.r_hit <= 0 or self.r_core <= 0:
            raise ValueError("r_hit and r_core must be > 0")
        if self.r_hit <= self.r_core:
            raise ValueError(f"r_hit={self.r_hit} must exceed r_core={self.r_core}")
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be -1 or +1, got {self.sign}")
        if math.hypot(*self.x0) <= self.r_hit:
            raise ValueError("x0 must start outside the hitting radius")
        cap = math.sqrt(self.delta) * (self.dim - 2) / 2.0 / self.r_core
        if self.dt * cap >= self.r_hit / 10.0:
            raise ValueError(
                f"dt * (drift cap {cap:.3g}) = {self.dt * cap:.3g} must stay below "
                f"r_hit/10 = {self.r_hit / 10:.3g}"
            )

    @property
    def n_steps(self):
        steps = int(round(self.t_final / self.dt))
        if steps < 1 or abs(steps * self.dt - self.t_final) > 1e-9 * self.t_final:
            raise ValueError(
                f"t_final={self.t_final} must be a whole number of steps of dt={self.dt}"
            )
        return steps


@dataclass
class HittingStats:
    """Hitting frequency with a Wilson 95% interval.

    hit_fraction * n_paths is the integer hit_count; mean_hit_time is
    conditional on hitting (nan when no path hits).
    """

    delta: float
    hit_count: int
    n_paths: int
    hit_fraction: float
    mean_hit_time: float
    confidence_halfwidth: float
    seed: int
    dt_warning: bool = False

    def to_json(self):
        return {
            "delta": self.delta,
            "hit_fraction": self.hit_fraction,
            "ci": self.confidence_halfwidth,
            "mean_hit_time": None if math.isnan(self.mean_hit_time) else self.mean_hit_time,
            "n_paths": self.n_paths,
            "hit_count": self.hit_count,
            "seed": self.seed,
            "dt_warning": self.dt_warning,
        }


def wilson_halfwidth(count, n, z=_WILSON_Z):
    """Half-width of the Wilson score interval for count successes in n."""
    if n == 0:
        return math.nan
    p = count / n
    denom = 1.0 + z * z / n
    return z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom


def _block_stream(seed, block_index):
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def simulate_hardy_sde(config):
    """Run the Monte Carlo and return hitting statistics.

    Deterministic for a fixed (seed, config); any single-step displacement
    beyond 10 r_hit flags dt_warning (halve dt) rather than aborting.
    """
    n_steps = config.n_steps
    coeff = config.sign * math.sqrt(config.delta) * (config.dim - 2) / 2.0
    noise_scale = math.sqrt(2.0 * config.dt)
    jump_limit = 10.0 * config.r_hit

    hit_count = 0
    hit_time_total = 0.0
    dt_warning = False

    n_blocks = (config.n_paths + _BLOCK - 1) // _BLOCK
    for block in range(n_blocks):
        size = min(_BLOCK, config.n_paths - block * _BLOCK)
        rng = _block_stream(config.seed, block)
        x = np.tile(np.asarray(config.x0), (size, 1))
        active = np.ones(size, dtype=bool)
        hit_step = np.zeros(size, dtype=np.int64)

        for k in range(n_steps):
            noise = rng.standard_normal((size, config.dim))
            crossing = rng.random(size) if config.bridge else None
            if not active.any():
                continue
            xa = x[active]
            r = np.sqrt(np.einsum("ij,ij->i", xa, xa))
            denom = np.maximum(r, config.r_core) ** 2
            step = (coeff * config.dt / denom)[:, None] * xa + noise_scale * noise[active]
            if np.any(np.einsum("ij,ij->i", step, step) > jump_limit * jump_limit):
                dt_warning = True
            xa = xa + step
            r_new = np.sqrt(np.einsum("ij,ij->i", xa, xa))
            hits = r_new <= config.r_hit
            if config.bridge:
                # tangent-plane Brownian bridge: the normal component has
                # variance 2 dt, so the crossing probability from signed
                # distances (a, b) is exp(-a b / dt)
                a = np.maximum(r - config.r_hit, 0.0)
                b = np.maximum(r_new - config.r_hit, 0.0)
                with np.errstate(under="ignore"):
                    p_cross = np.exp(-a * b / config.dt)
                hits |= crossing[active] < p_cross
            x[active] = xa
            if hits.any():
                idx = np.flatnonzero(active)[hits]
                hit_step[idx] = k + 1
                active[idx] = False

        hit_mask = hit_step > 0
        hit_count += int(hit_mask.sum())
        hit_time_total += float(hit_step[hit_mask].sum()) * config.dt

    fraction = hit_count / config.n_paths
    mean_time = hit_time_total / hit_count if hit_count else math.nan
    return HittingStats(
        delta=config.delta,
        hit_count=hit_count,
        n_paths=config.n_paths,
        hit_fraction=fraction,
        mean_hit_time=mean_time,
        confidence_halfwidth=wilson_halfwidth(hit_count, config.n_paths),
        seed=config.seed,
        dt_warning=dt_warning,
    )


def delta_sweep(base, deltas):
    """simulate_hardy_sde per delta, with common random numbers.

    Every run reuses the base seed, so the Brownian increments are shared
    and the hit fractions are pathwise coupled across the sweep.
    """
    results = []
    for delta in deltas:
        config = SdeConfig(
            dim=base.dim,
            delta=float(delta),
            x0=base.x0,
            t_final=base.t_final,
            dt=base.dt,
            n_paths=base.n_paths,
            seed=base.seed,
            r_hit=base.r_hit,
            r_core=base.r_core,
            sign=base.sign,
            bridge=base.bridge,
        )
        results.append(simulate_hardy_sde(config))
    return results
