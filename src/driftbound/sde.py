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
A sweep draws each block-step's noise once and every delta reads the same
arrays.  Each delta keeps its active paths compacted (positions, radii and
their row in the block) and drops a path's row when it hits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = ["SdeConfig", "HittingStats", "simulate_hardy_sde", "sweep_configs", "delta_sweep"]

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
        if self.n_steps < 1 or abs(self.n_steps * self.dt - self.t_final) > 1e-9 * self.t_final:
            raise ValueError(
                f"t_final={self.t_final} must be a whole number of steps of dt={self.dt}"
            )
        cap = math.sqrt(self.delta) * (self.dim - 2) / 2.0 / self.r_core
        if self.dt * cap >= self.r_hit / 10.0:
            raise ValueError(
                f"dt * (drift cap {cap:.3g}) = {self.dt * cap:.3g} must stay below "
                f"r_hit/10 = {self.r_hit / 10:.3g}"
            )

    @property
    def n_steps(self):
        return int(round(self.t_final / self.dt))


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


def _simulate(base, configs):
    """Hitting statistics for each of configs, which differ from base only in delta.

    Every block-step draws one noise array and one crossing array, shared by
    all configs; the per-path arithmetic is the same for one config as for
    many, so each result is bitwise that of a run on its own.
    """
    n_steps = base.n_steps
    noise_scale = math.sqrt(2.0 * base.dt)
    jump_limit = 10.0 * base.r_hit
    coeffs = [c.sign * math.sqrt(c.delta) * (c.dim - 2) / 2.0 for c in configs]

    hit_counts = [0] * len(configs)
    hit_times = [0.0] * len(configs)
    dt_warnings = [False] * len(configs)

    n_blocks = (base.n_paths + _BLOCK - 1) // _BLOCK
    for block in range(n_blocks):
        size = min(_BLOCK, base.n_paths - block * _BLOCK)
        rng = _block_stream(base.seed, block)
        # per config: positions, radii and block rows of the active paths
        live = []
        for _ in configs:
            x = np.tile(np.asarray(base.x0), (size, 1))
            r = np.sqrt(np.einsum("ij,ij->i", x, x))
            live.append((x, r, np.arange(size, dtype=np.int32)))
        # per config: sum over this block's hits of the step that hit
        hit_steps = [0] * len(configs)

        for k in range(n_steps):
            noise = rng.standard_normal((size, base.dim))
            crossing = rng.random(size) if base.bridge else None
            noise *= noise_scale  # the same products as scaling each gathered row
            for j, coeff in enumerate(coeffs):
                x, r, rows = live[j]
                if not len(rows):
                    continue
                denom = np.maximum(r, base.r_core) ** 2
                # noise + drift, in place: the same sums as drift + noise
                step = noise.take(rows, axis=0)
                step += (coeff * base.dt / denom)[:, None] * x
                # a step with every component inside jump_limit / dim is
                # shorter than jump_limit, so the row norms are rarely needed
                if (
                    not dt_warnings[j]
                    and max(step.max(), -step.min()) >= jump_limit / base.dim
                    and np.any(np.einsum("ij,ij->i", step, step) > jump_limit * jump_limit)
                ):
                    dt_warnings[j] = True
                x += step
                r_new = np.sqrt(np.einsum("ij,ij->i", x, x))
                hits = r_new <= base.r_hit
                if base.bridge:
                    # tangent-plane Brownian bridge: the normal component has
                    # variance 2 dt, so the crossing probability from signed
                    # distances (a, b) is exp(-a b / dt).  exp gives 0.0 below
                    # -746, which no uniform draw undercuts, and is slow where
                    # it underflows, so only the paths above take it
                    a = np.maximum(r - base.r_hit, 0.0)
                    b = np.maximum(r_new - base.r_hit, 0.0)
                    exponent = -a * b / base.dt
                    near = np.flatnonzero(exponent > -746.0)
                    with np.errstate(under="ignore"):
                        p_cross = np.exp(exponent[near])
                    hits[near] |= crossing[rows[near]] < p_cross
                n_hit = int(np.count_nonzero(hits))
                if n_hit:
                    keep = np.flatnonzero(~hits)
                    x, r_new, rows = x.take(keep, axis=0), r_new[keep], rows[keep]
                    hit_counts[j] += n_hit
                    hit_steps[j] += n_hit * (k + 1)
                live[j] = (x, r_new, rows)

        for j in range(len(configs)):
            hit_times[j] += float(hit_steps[j]) * base.dt

    return [
        HittingStats(
            delta=config.delta,
            hit_count=count,
            n_paths=config.n_paths,
            hit_fraction=count / config.n_paths,
            mean_hit_time=total / count if count else math.nan,
            confidence_halfwidth=wilson_halfwidth(count, config.n_paths),
            seed=config.seed,
            dt_warning=warned,
        )
        for config, count, total, warned in zip(configs, hit_counts, hit_times, dt_warnings)
    ]


def simulate_hardy_sde(config):
    """Run the Monte Carlo and return hitting statistics.

    Deterministic for a fixed (seed, config); any single-step displacement
    beyond 10 r_hit flags dt_warning (halve dt) rather than aborting.
    """
    return _simulate(config, [config])[0]


def sweep_configs(base, deltas):
    """One validated SdeConfig per delta, equal to base in every other field."""
    return [replace(base, delta=float(delta)) for delta in deltas]


def delta_sweep(base, deltas):
    """simulate_hardy_sde per delta, with common random numbers.

    Every run reuses the base seed, so the Brownian increments are shared
    and the hit fractions are pathwise coupled across the sweep.  All
    configs are validated before any path is simulated.
    """
    return _simulate(base, sweep_configs(base, deltas))
