import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erfc

from driftbound import sde
from driftbound.sde import (
    SdeConfig,
    delta_sweep,
    simulate_hardy_sde,
    wilson_halfwidth,
)


def brownian_ball_hitting_probability(x0_norm, r, t):
    """Closed form for X = sqrt(2) B in R^3 hitting the ball of radius r.

    The generator is the full Laplacian, so the first-passage law of the
    radial distance gives P = (r/|x0|) erfc((|x0| - r) / (2 sqrt(t))).
    """
    return (r / x0_norm) * erfc((x0_norm - r) / (2.0 * math.sqrt(t)))


def base_config(**overrides):
    params = dict(
        dim=3,
        delta=0.0,
        x0=(0.45, 0.0, 0.0),
        t_final=0.02,
        dt=2e-5,
        n_paths=20000,
        seed=2024,
        r_hit=0.3,
        r_core=0.03,
    )
    params.update(overrides)
    return SdeConfig(**params)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"dim": 2},
            {"delta": -1.0},
            {"x0": (0.45, 0.0)},
            {"n_paths": 0},
            {"r_hit": 0.01},  # below r_core
            {"x0": (0.1, 0.0, 0.0)},  # starts inside the ball
            {"sign": 2},
            {"delta": 1e6, "dt": 1e-3},  # dt * drift cap beyond r_hit/10
            {"t_final": 0.02, "dt": 3e-5},  # not a whole number of steps
        ],
    )
    def test_rejected(self, overrides):
        with pytest.raises(ValueError):
            base_config(**overrides)


class TestSimulate:
    def test_brownian_baseline_matches_closed_form(self):
        cfg = base_config()
        stats = simulate_hardy_sde(cfg)
        target = brownian_ball_hitting_probability(0.45, cfg.r_hit, cfg.t_final)
        assert abs(stats.hit_fraction - target) <= stats.confidence_halfwidth

    def test_strong_attraction_hits_reliably(self):
        cfg = base_config(
            delta=100.0,
            x0=(0.4, 0.0, 0.0),
            t_final=0.05,
            dt=1e-5,
            n_paths=5000,
            seed=11,
            r_hit=0.25,
            r_core=0.02,
        )
        stats = simulate_hardy_sde(cfg)
        assert stats.hit_fraction > 0.9

    def test_same_seed_bitwise_identical(self):
        cfg = base_config(n_paths=5000, dt=1e-4, seed=7)
        assert simulate_hardy_sde(cfg) == simulate_hardy_sde(cfg)

    def test_different_seed_differs(self):
        a = simulate_hardy_sde(base_config(n_paths=5000, dt=1e-4, seed=1))
        b = simulate_hardy_sde(base_config(n_paths=5000, dt=1e-4, seed=2))
        assert a.hit_count != b.hit_count

    def test_hit_count_is_integer_fraction(self):
        stats = simulate_hardy_sde(base_config(n_paths=5000, dt=1e-4))
        assert stats.hit_fraction * stats.n_paths == pytest.approx(stats.hit_count)
        assert isinstance(stats.hit_count, int)

    def test_monotone_in_hitting_radius(self):
        fractions = []
        for r_hit in (0.25, 0.3, 0.35):
            cfg = base_config(delta=1.0, n_paths=10000, seed=5, r_hit=r_hit)
            fractions.append(simulate_hardy_sde(cfg).hit_fraction)
        assert fractions[0] <= fractions[1] <= fractions[2]

    def test_repulsive_sign_hits_less_than_brownian(self):
        repulsive = simulate_hardy_sde(base_config(delta=4.0, sign=1, n_paths=10000, seed=5))
        brownian = simulate_hardy_sde(base_config(delta=0.0, n_paths=10000, seed=5))
        assert repulsive.hit_fraction <= brownian.hit_fraction

    def test_mean_hit_time_conditional(self):
        stats = simulate_hardy_sde(base_config(n_paths=5000, dt=1e-4))
        assert 0.0 < stats.mean_hit_time <= 0.02
        none = simulate_hardy_sde(
            base_config(n_paths=100, dt=1e-4, x0=(3.0, 0.0, 0.0), seed=3)
        )
        assert none.hit_count == 0
        assert math.isnan(none.mean_hit_time)

    def test_frozen_hitting_statistics(self):
        # values of the former one-delta-at-a-time engine; 20000 paths span two blocks
        stats = simulate_hardy_sde(base_config(delta=4.0, dt=1e-4, n_paths=20000, seed=7))
        assert stats.hit_count == 7466
        assert stats.mean_hit_time == 0.008792003750334853

    def test_json_payload(self):
        stats = simulate_hardy_sde(base_config(n_paths=2000, dt=1e-4))
        payload = stats.to_json()
        assert set(payload) >= {"delta", "hit_fraction", "ci", "mean_hit_time", "n_paths", "seed"}


class TestDeltaSweep:
    def test_monotone_with_common_random_numbers(self):
        base = base_config(delta=0.5, n_paths=10000, dt=2e-5, seed=2024)
        sweep = delta_sweep(base, [0.5, 4.0, 36.0, 100.0])
        for lo, hi in zip(sweep, sweep[1:]):
            budget = lo.confidence_halfwidth + hi.confidence_halfwidth
            assert hi.hit_fraction >= lo.hit_fraction - budget

    def test_singleton_matches_direct_call(self):
        base = base_config(n_paths=3000, dt=1e-4)
        assert delta_sweep(base, [0.0])[0] == simulate_hardy_sde(base)

    def test_members_match_single_runs(self):
        # 17000 paths: a full block and a partial one
        params = dict(dt=1e-4, n_paths=17000, seed=3)
        deltas = [0.0, 0.5, 4.0, 36.0]
        sweep = delta_sweep(base_config(**params), deltas)
        for delta, member in zip(deltas, sweep):
            assert member == simulate_hardy_sde(base_config(delta=delta, **params))

    @pytest.mark.parametrize("bad", [-1.0, 1.0e6])
    def test_invalid_delta_raises_before_any_path_work(self, monkeypatch, bad):
        calls = []
        monkeypatch.setattr(sde, "_block_stream", lambda *args: calls.append(args))
        with pytest.raises(ValueError):
            delta_sweep(base_config(dt=1e-3, t_final=0.02), [0.5, bad])
        assert calls == []

    def test_reversed_order_same_values(self):
        base = base_config(n_paths=3000, dt=1e-4)
        fwd = delta_sweep(base, [0.5, 4.0])
        rev = delta_sweep(base, [4.0, 0.5])
        assert fwd[0] == rev[1] and fwd[1] == rev[0]


def battery_config(**overrides):
    params = dict(delta=4.0, dt=1e-4, n_paths=3000, seed=13)
    params.update(overrides)
    return base_config(**params)


def frozen(delta, hit_count, n_paths, mean_hit_time, seed, dt_warning=False):
    """repr of the HittingStats the one-active-set-per-delta engine returned."""
    stats = sde.HittingStats(
        delta=delta,
        hit_count=hit_count,
        n_paths=n_paths,
        hit_fraction=hit_count / n_paths,
        mean_hit_time=mean_hit_time,
        confidence_halfwidth=wilson_halfwidth(hit_count, n_paths),
        seed=seed,
        dt_warning=dt_warning,
    )
    return repr(stats)


class TestFrozenEngine:
    """Statistics of the engine that kept one active set per delta, bit for bit."""

    @pytest.mark.parametrize(
        "overrides, expected",
        [
            (
                {"dim": 4, "x0": (0.45, 0.0, 0.0, 0.0)},
                frozen(4.0, 1161, 3000, 0.008928940568475452, 13),
            ),
            (
                {"dim": 5, "x0": (0.3, 0.3, 0.0, 0.0, 0.1)},
                frozen(4.0, 1267, 3000, 0.008080899763220205, 13),
            ),
            (
                # beyond 7 components the radii come from einsum itself
                {"dim": 8, "x0": (0.45,) + (0.0,) * 7},
                frozen(4.0, 1158, 3000, 0.008815544041450778, 13),
            ),
            ({"sign": 1}, frozen(4.0, 716, 3000, 0.008629748603351957, 13)),
            ({"n_paths": 1, "delta": 100.0, "seed": 5}, frozen(100.0, 1, 1, 0.0037, 5)),
        ],
        ids=["dim4", "dim5", "dim8", "repulsive", "one_path"],
    )
    def test_single_runs(self, overrides, expected):
        assert repr(simulate_hardy_sde(battery_config(**overrides))) == expected

    def test_sweep_through_zero(self):
        sweep = delta_sweep(battery_config(), [0.0, 0.5, 4.0, 36.0])
        assert [repr(s) for s in sweep] == [
            frozen(0.0, 910, 3000, 0.008787802197802197, 13),
            frozen(0.5, 995, 3000, 0.008819497487437187, 13),
            frozen(4.0, 1149, 3000, 0.008858485639686685, 13),
            frozen(36.0, 1630, 3000, 0.008796441717791412, 13),
        ]

    @pytest.mark.parametrize("dim", range(3, 11))
    def test_component_norms_sum_in_einsum_order(self, dim):
        # the engine's radii equal einsum's bit for bit only while numpy's
        # contiguous einsum kernel keeps its lane order; a numpy upgrade that
        # changes it fails here before it moves any hitting statistic
        rng = np.random.default_rng(dim)
        paths = rng.standard_normal((1001, dim)) * rng.uniform(1e-3, 1e3, (1001, 1))
        components = np.ascontiguousarray(paths.T)
        norms = sde._sq_norms(components, np.empty(1001), np.empty_like(components), np.empty(1001))
        assert np.array_equal(norms, np.einsum("ij,ij->i", paths, paths))


class TestDtWarning:
    def test_long_steps_flag_every_member(self):
        # noise sqrt(2 dt) = 0.045 against a jump limit of 10 r_hit = 0.11
        cfg = base_config(
            r_hit=0.011, r_core=0.01, dt=1e-3, x0=(0.05, 0.0, 0.0), n_paths=2000, seed=13
        )
        expected = [
            frozen(0.0, 460, 2000, 0.0030260869565217393, 13, True),
            frozen(1e-4, 461, 2000, 0.0030303687635574836, 13, True),
            frozen(4e-4, 462, 2000, 0.0030606060606060605, 13, True),
        ]
        assert repr(simulate_hardy_sde(cfg)) == expected[0]
        assert [repr(s) for s in delta_sweep(cfg, [0.0, 1e-4, 4e-4])] == expected

    def test_paths_that_hit_never_flag(self):
        # every path hits in its first step; had the hit paths kept stepping,
        # 500 paths x 49 steps at a 4.5-sigma jump limit would flag the run
        cfg = base_config(
            r_hit=0.011,
            r_core=0.01,
            dt=3e-4,
            t_final=0.015,
            x0=(0.0110001, 0.0, 0.0),
            n_paths=500,
            seed=0,
        )
        assert repr(simulate_hardy_sde(cfg)) == frozen(0.0, 500, 500, 0.0003, 0)
        assert [repr(s) for s in delta_sweep(cfg, [0.0, 1e-3])] == [
            frozen(0.0, 500, 500, 0.0003, 0),
            frozen(1e-3, 500, 500, 0.0003, 0),
        ]


def test_template_sweep_memory_peak():
    # the template's sweep cut to 100 steps; work buffers of full sweep size
    # would push the peak past this bound
    base = base_config(t_final=0.002, seed=0)
    tracemalloc.start()
    try:
        delta_sweep(base, [0.5, 4.0, 36.0, 100.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6


def test_wilson_halfwidth_frozen_value():
    # hand-computed for 50 successes out of 100 at z = 1.95996...
    assert wilson_halfwidth(50, 100) == pytest.approx(0.0961685, abs=1e-6)
    assert wilson_halfwidth(0, 100) > 0.0
    assert math.isnan(wilson_halfwidth(0, 0))
