"""Monte Carlo probe of the attracting radial-drift SDE in R^d.

Paths follow Euler-Maruyama for

    X_{k+1} = X_k + sign * sqrt(delta) (d-2)/2 * dt * X_k / max(|X_k|, r_core)^2
              + sqrt(2 dt) * xi_k

(sign = -1 is the attracting case of the model equation; delta = 0 recovers
plain Brownian motion, which Euler-Maruyama samples exactly).  A path is
absorbed when |X_k| <= r_hit; between samples, every run applies a
Brownian-bridge crossing test against the tangent plane of the hitting
sphere, which removes the O(sqrt(dt)) discrete-monitoring bias that would
otherwise swamp the Wilson interval of the hitting fraction at usable step
sizes.  The test runs only on the paths within sqrt(window dt) of the
sphere before or after the step, and is exact: beyond that a path's
crossing probability is below exp(-40), under every nonzero uniform (a
multiple of 2**-53), and a step with a zero uniform widens the window to
746, where exp underflows to 0.  A stepped path lies outside r_hit > r_core,
so the drift's cap max(|X_k|, r_core) never binds and the engine divides by
|X_k|^2 alone.  SdeConfig's defaults are the config's sde defaults.

Randomness is counter-based: paths are processed in fixed-size blocks, each
with its own Philox stream keyed by (seed, block index), and noise is drawn
for every path of a block at every step whether or not the path is still
active.  Results are therefore bitwise reproducible, independent of
scheduling, and pathwise coupled across parameter sweeps that share a seed.
A sweep draws each block-step's noise once, and one active set holds a
block's live paths for every delta: positions as component rows, radii, the
path's drift coefficient times dt, the row in the block and the delta index.
A step advances the set in chunks of at most _BLOCK rows through reused work
buffers.  A path that hits is parked at radius 1e3 with coefficient 0, where
it can neither hit nor flag dt_warning, and parked rows are compacted out
once they make up more than 1/8 of the set.

While a step advances the set, a drawer thread, which lives for one run,
fills the next step's noise rows and crossing uniforms into the other of two
buffer pairs, and bounds that step's noise.  The draws stay bitwise those of
a serial run: Philox is counter-based, only the drawer calls the block's
generator, and it makes the same calls in the same order.  numpy's generator
fills and ufuncs release the GIL, so the draws overlap the arithmetic.  A
step whose noise bound plus the drift cap stays well inside the dt_warning
limit cannot flag, so its chunks skip the search for a long step.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from ._convert import integral, real, whole_steps
from .drift import hardy_coefficient

__all__ = ["SdeConfig", "HittingStats", "simulate_hardy_sde", "sweep_configs", "delta_sweep"]

_BLOCK = 1 << 14
_WILSON_Z = 1.959963984540054
# Generator.random returns multiples of 2**-53, so a nonzero uniform is never
# below exp(-_WINDOW) = 4.2e-18; exp returns 0.0 for arguments below -746
_WINDOW = 40.0
_EXP_UNDERFLOW = 746.0


@dataclass(kw_only=True)
class SdeConfig:
    """Euler-Maruyama run description; every field but seed has a default.

    r_core caps the drift magnitude below the hitting radius, so the
    unresolvable 1/|x| blowup never contaminates the statistic; the dt
    invariant keeps the capped drift step an order of magnitude below r_hit.
    sign = -1 attracts paths to the origin, +1 repels them, since the step
    adds +b dt.  The PDE layer's diffusion moves by -b, so there sign -1
    repels (DriftSpec).
    """

    dim: int = 3
    delta: float = 0.0
    x0: tuple = (0.45, 0.0, 0.0)
    t_final: float = 0.02
    dt: float = 2.0e-5
    n_paths: int = 20000
    seed: int
    r_hit: float = 0.3
    r_core: float = 0.03
    sign: int = -1

    def __post_init__(self):
        """Convert the numeric fields (YAML reads 2e-5 as a string), then validate."""
        self.dim, self.n_paths = integral(self.dim, "dim"), integral(self.n_paths, "n_paths")
        self.seed, self.sign = integral(self.seed, "seed"), integral(self.sign, "sign")
        self.delta, self.dt = real(self.delta, "delta"), real(self.dt, "dt")
        self.t_final, self.r_hit = real(self.t_final, "t_final"), real(self.r_hit, "r_hit")
        self.r_core = real(self.r_core, "r_core")
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        # the drift's magnitude times |x|; raises for dim < 3
        speed = hardy_coefficient(self.delta, self.dim, 1)
        self.x0 = tuple(real(v, "x0") for v in self.x0)
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
        self.n_steps = whole_steps(self.t_final, self.dt)
        cap = speed / self.r_core
        if self.dt * cap >= self.r_hit / 10.0:
            raise ValueError(
                f"dt * (drift cap {cap:.3g}) = {self.dt * cap:.3g} must stay below "
                f"r_hit/10 = {self.r_hit / 10:.3g}"
            )


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


def wilson_halfwidth(count, n):
    """Half-width of the 95% Wilson score interval for count successes in n."""
    if n == 0:
        return math.nan
    z = _WILSON_Z
    p = count / n
    denom = 1.0 + z * z / n
    return z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom


def _block_stream(seed, block_index):
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw(rng, noise, noise_t, crossing, scale):
    """Fill one block-step's draws, in the order a serial run makes them:
    the scaled noise rows and the crossing uniforms of the block's paths.
    Also return the largest |component| of the scaled noise."""
    size = len(noise)
    rng.standard_normal(out=noise)
    # the same products as scaling each gathered row
    np.multiply(noise.T, scale, out=noise_t[:, :size])
    rng.random(out=crossing[:size])
    # scaling by a positive number keeps the order, so this is the scaled maximum
    return noise_t, crossing, max(noise.max(), -noise.min()) * scale


def _crossing_window(crossing):
    """The a b / dt beyond which no uniform of crossing falls under exp(-a b / dt)."""
    return _WINDOW if crossing.all() else _EXP_UNDERFLOW


def _sq_norms(x, out, sq, tmp):
    """Squared norms of the paths whose components are the rows of x.

    Bitwise np.einsum("ij,ij->i") on row-major paths: up to 7 components its
    kernel adds the even- and the odd-index squares in two lanes, then the
    lanes.  sq may alias x.
    """
    if len(x) > 7:
        rows = x.T.copy()
        return np.einsum("ij,ij->i", rows, rows, out=out)
    np.multiply(x, x, out=sq)
    np.add.reduce(sq[0::2], axis=0, out=out)
    if len(x) < 4:
        return np.add(out, sq[1], out=out)
    np.add.reduce(sq[1::2], axis=0, out=tmp)
    return np.add(out, tmp, out=out)


def _simulate(base, configs):
    """Hitting statistics for each of configs, which differ from base only in delta.

    Every block-step draws one noise array and one crossing array, shared by
    all configs; the per-path arithmetic is the same in one active set for
    many configs as alone, so each result is bitwise that of a run on its own.
    """
    n_cfg, dim, dt, r_hit = len(configs), base.dim, base.dt, base.r_hit
    noise_scale = math.sqrt(2.0 * dt)
    jump_limit = 10.0 * r_hit
    coeff_dt = np.array([hardy_coefficient(cfg.delta, cfg.dim, cfg.sign) * dt for cfg in configs])
    # no drift component exceeds |coeff dt| |x| / r^2 <= |coeff dt| / r_core, as r > r_core
    drift_cap = np.abs(coeff_dt).max() / base.r_core
    x0 = np.asarray(base.x0)
    r0 = np.sqrt(np.einsum("ij,ij->i", x0[None], x0[None]))

    hit_counts = np.zeros(n_cfg + 1, dtype=np.int64)
    hit_times = np.zeros(n_cfg + 1)
    dt_warnings = np.zeros(n_cfg + 1, dtype=bool)
    # the active set, built anew in the same buffers by every block and
    # compacted in place: positions as component rows, radii, coeff * dt
    # (0 for a parked path), row in the block and config index (n_cfg for a
    # parked path) of each path
    m_max = n_cfg * min(_BLOCK, base.n_paths)
    x_set, r_set, c_set = np.empty((dim, m_max)), np.empty(m_max), np.empty(m_max)
    rows_set = np.empty(m_max, dtype=np.intp)
    which_set = np.empty(m_max, dtype=np.min_scalar_type(n_cfg))
    # work buffers, reused by every block, step and chunk; the drawer fills
    # one (noise_t, crossing) pair while the step reads the other
    noise = np.empty((_BLOCK, dim))
    draws = [(np.empty((dim, _BLOCK)), np.empty(_BLOCK)) for _ in range(2)]
    step = np.empty((dim, _BLOCK))
    w, a, e, hits = np.empty(_BLOCK), np.empty(_BLOCK), np.empty(_BLOCK), np.empty(_BLOCK, bool)

    with ThreadPoolExecutor(1) as drawer:
        for block in range((base.n_paths + _BLOCK - 1) // _BLOCK):
            size = min(_BLOCK, base.n_paths - block * _BLOCK)
            rng = _block_stream(base.seed, block)
            m = n_cfg * size
            x, r, c = x_set[:, :m], r_set[:m], c_set[:m]
            rows, which = rows_set[:m], which_set[:m]
            x[...], r[...] = x0[:, None], r0
            c.reshape(n_cfg, size)[...] = coeff_dt[:, None]
            rows.reshape(n_cfg, size)[...] = np.arange(size)
            which.reshape(n_cfg, size)[...] = np.arange(n_cfg)[:, None]
            n_parked = 0
            # per config: sum over this block's hits of the step that hit
            hit_steps = np.zeros(n_cfg + 1, dtype=np.int64)

            raw = noise[:size]
            pending = drawer.submit(_draw, rng, raw, *draws[0], noise_scale)
            for k in range(base.n_steps):
                noise_t, crossing, noise_max = pending.result()
                if k + 1 < base.n_steps:
                    pending = drawer.submit(_draw, rng, raw, *draws[(k + 1) % 2], noise_scale)
                window = _crossing_window(crossing[:size])
                reach = r_hit + math.sqrt(window * dt)
                # a step with every component inside jump_limit / dim is
                # shorter than jump_limit, so the norms are rarely needed; the
                # margin of one half covers the rounding of the bound
                may_jump = not dt_warnings[:n_cfg].all() and (
                    noise_max + drift_cap >= 0.5 * jump_limit / dim
                )
                for s in range(0, len(rows), _BLOCK):
                    chunk = slice(s, s + _BLOCK)
                    xc, rc, rowc = x[:, chunk], r[chunk], rows[chunk]
                    n = len(rowc)
                    st, wc, ac, ec, hc = step[:, :n], w[:n], a[:n], e[:n], hits[:n]
                    # step = noise + (coeff dt / r^2) x; every row has r > r_core
                    # (a path that hits is parked at 1e3), so no cap is needed
                    np.square(rc, out=ac)
                    np.divide(c[chunk], ac, out=wc)
                    for i in range(dim):
                        np.take(noise_t[i], rowc, out=st[i], mode="clip")
                        st[i] += np.multiply(wc, xc[i], out=ec)
                    xc += st
                    if may_jump and max(st.max(), -st.min()) >= jump_limit / dim:
                        far = _sq_norms(st, ec, st, wc) > jump_limit * jump_limit
                        dt_warnings[which[chunk][far]] = True
                    np.copyto(ac, rc)
                    np.sqrt(_sq_norms(xc, rc, st, ec), out=rc)
                    np.less_equal(rc, r_hit, out=hc)
                    # tangent-plane Brownian bridge: the normal component has
                    # variance 2 dt, so the crossing probability from signed
                    # distances (a, b) is exp(-a b / dt).  A path with both
                    # radii at or beyond reach has a b / dt >= window up to
                    # rounding, so no uniform of the step falls under it:
                    # nonzero ones exceed exp(-40), and a step with a zero one
                    # has window 746, past which exp gives 0.0.  Only the
                    # paths inside reach, and below the window, take exp
                    cand = np.flatnonzero(np.minimum(ac, rc, out=ec) < reach)
                    bc = np.maximum(rc[cand] - r_hit, 0.0)
                    bc *= np.maximum(ac[cand] - r_hit, 0.0)
                    bc /= dt
                    inside = bc < window
                    with np.errstate(under="ignore"):
                        p_cross = np.exp(-bc[inside])
                    near = cand[inside]
                    hc[near[crossing[rowc[near]] < p_cross]] = True
                    hit = np.flatnonzero(hc)
                    if len(hit):
                        hit += s
                        counts = np.bincount(which[hit], minlength=n_cfg + 1)
                        hit_counts += counts
                        hit_steps += counts * (k + 1)
                        # parked at radius 1e3: never near the sphere, so it never hits again
                        x[0, hit], x[1:, hit], r[hit], c[hit] = 1e3, 0.0, 1e3, 0.0
                        which[hit] = n_cfg
                        n_parked += len(hit)
                if 8 * n_parked > len(rows):
                    live, m = which != n_cfg, len(rows) - n_parked
                    for v in (*x, r, c, rows, which):
                        v[:m] = v[live]
                    x, r, c, rows, which = x[:, :m], r[:m], c[:m], rows[:m], which[:m]
                    n_parked = 0
                    if not m:
                        break
            # the next block's first draw must not overwrite a pair still being filled
            pending.result()
            hit_times += hit_steps * dt

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
        for config, count, total, warned in zip(
            configs, hit_counts.tolist(), hit_times.tolist(), dt_warnings.tolist()
        )
    ]


def simulate_hardy_sde(config):
    """Run the Monte Carlo and return hitting statistics.

    Deterministic for a fixed (seed, config); any single-step displacement
    beyond 10 r_hit flags dt_warning (halve dt) rather than aborting.
    """
    return _simulate(config, [config])[0]


def sweep_configs(base, deltas):
    """One validated SdeConfig per delta (at least one), equal to base in every other field."""
    if not deltas:
        raise ValueError("deltas must name at least one delta")
    return [replace(base, delta=delta) for delta in deltas]


def delta_sweep(base, deltas):
    """simulate_hardy_sde per delta, with common random numbers.

    Every run reuses the base seed, so the Brownian increments are shared
    and the hit fractions are pathwise coupled across the sweep.  All
    configs are validated before any path is simulated.
    """
    return _simulate(base, sweep_configs(base, deltas))
