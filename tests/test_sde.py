import math

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

    def test_discrete_monitoring_alone_is_biased_low(self):
        # the Brownian-bridge correction exists because plain sampling
        # misses sub-step excursions; without it the fraction drops
        with_bridge = simulate_hardy_sde(base_config())
        without = simulate_hardy_sde(base_config(bridge=False))
        assert without.hit_fraction < with_bridge.hit_fraction

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

    @pytest.mark.parametrize(
        "bridge, hit_count, mean_hit_time",
        [(True, 7466, 0.008792003750334853), (False, 6973, 0.009128251828481286)],
    )
    def test_frozen_hitting_statistics(self, bridge, hit_count, mean_hit_time):
        # values of the former one-delta-at-a-time engine; 20000 paths span two blocks
        stats = simulate_hardy_sde(
            base_config(delta=4.0, dt=1e-4, n_paths=20000, seed=7, bridge=bridge)
        )
        assert stats.hit_count == hit_count
        assert stats.mean_hit_time == mean_hit_time

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

    @pytest.mark.parametrize("bridge", [True, False])
    def test_members_match_single_runs(self, bridge):
        # 17000 paths: a full block and a partial one
        params = dict(dt=1e-4, n_paths=17000, seed=3, bridge=bridge)
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


def test_wilson_halfwidth_frozen_value():
    # hand-computed for 50 successes out of 100 at z = 1.95996...
    assert wilson_halfwidth(50, 100) == pytest.approx(0.0961685, abs=1e-6)
    assert wilson_halfwidth(0, 100) > 0.0
    assert math.isnan(wilson_halfwidth(0, 0))
