import itertools
import json
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
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
            {"dt": 1e-320},  # t_final / dt overflows to inf
        ],
    )
    def test_rejected(self, overrides):
        with pytest.raises(ValueError):
            base_config(**overrides)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("r_hit", math.nan),  # would compare false with every bound and never hit
            ("r_core", math.nan),
            ("x0", (math.nan, 0.0, 0.0)),
            ("t_final", math.inf),  # would overflow the step count
            ("dt", math.nan),
            ("delta", math.inf),
        ],
    )
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            base_config(**{key: value})


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

    def test_repeated_delta_matches_single_run(self):
        # each path carries its own coefficient through parking and
        # compaction; a mix-up with the config index would split the repeats
        params = dict(delta=4.0, dt=1e-4, n_paths=17000, seed=3)
        first, zero, third = delta_sweep(base_config(**params), [4.0, 0.0, 4.0])
        assert first == third
        assert first == simulate_hardy_sde(base_config(**params))
        assert zero == simulate_hardy_sde(base_config(**{**params, "delta": 0.0}))

    @pytest.mark.parametrize("bad", [-1.0, 1.0e6])
    def test_invalid_delta_raises_before_any_path_work(self, monkeypatch, bad):
        calls = []
        monkeypatch.setattr(sde, "_block_stream", lambda *args: calls.append(args))
        with pytest.raises(ValueError):
            delta_sweep(base_config(dt=1e-3, t_final=0.02), [0.5, bad])
        assert calls == []

    def test_empty_sweep_raises(self):
        with pytest.raises(ValueError, match="at least one delta"):
            delta_sweep(base_config(), [])

    def test_reversed_order_same_values(self):
        base = base_config(n_paths=3000, dt=1e-4)
        fwd = delta_sweep(base, [0.5, 4.0])
        rev = delta_sweep(base, [4.0, 0.5])
        assert fwd[0] == rev[1] and fwd[1] == rev[0]


class TestDrawer:
    """The noise of step k + 1 is drawn on a second thread during step k."""

    def test_every_path_hits_before_the_last_step(self):
        # every path of both blocks hits in its first step, so each block
        # leaves its step loop with the second step's draw pending
        cfg = base_config(
            r_hit=0.011,
            r_core=0.01,
            dt=3e-4,
            t_final=0.015,
            x0=(0.0110001, 0.0, 0.0),
            n_paths=17000,
            seed=0,
        )
        assert [repr(s) for s in delta_sweep(cfg, [0.0, 1e-3])] == [
            frozen(0.0, 17000, 17000, 0.0003, 0, True),
            frozen(1e-3, 17000, 17000, 0.0003, 0, True),
        ]

    def test_multi_block_sweep(self):
        # values of the engine that drew every step on the calling thread;
        # 40000 paths span two full blocks and a partial one
        sweep = delta_sweep(base_config(dt=1e-4, n_paths=40000, seed=9), [0.0, 4.0, 36.0])
        assert [repr(s) for s in sweep] == [
            frozen(0.0, 12252, 40000, 0.00877505713352922, 9),
            frozen(4.0, 15136, 40000, 0.008760934196617337, 9),
            frozen(36.0, 21259, 40000, 0.008600188155604687, 9),
        ]

    def test_noise_bound_is_the_largest_scaled_component(self):
        raw, crossing = np.empty((1000, 3)), np.empty(sde._BLOCK)
        noise_t, _, bound = sde._draw(
            sde._block_stream(4, 0), raw, np.empty((3, sde._BLOCK)), crossing, 0.02
        )
        assert bound == np.abs(noise_t[:, :1000]).max()

    def test_concurrent_sweeps_match_serial_ones(self):
        runs = [
            (base_config(dt=1e-4, n_paths=17000, seed=3), [0.0, 4.0]),
            (base_config(dt=1e-4, n_paths=5000, seed=8, sign=1), [0.5, 36.0]),
        ]
        serial = [delta_sweep(*run) for run in runs]
        with ThreadPoolExecutor(2) as pool:
            assert list(pool.map(lambda run: delta_sweep(*run), runs)) == serial


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

    @pytest.mark.parametrize(
        "seed, expected",
        [
            (
                441,
                [
                    frozen(0.0, 108, 200, 0.0006999999999999999, 441),
                    frozen(0.002, 107, 200, 0.0006813084112149532, 441, True),
                    frozen(0.005, 107, 200, 0.0006841121495327102, 441, True),
                ],
            ),
            (
                609,
                [
                    frozen(0.0, 113, 200, 0.0010274336283185841, 609),
                    frozen(0.002, 116, 200, 0.0010603448275862068, 609),
                    frozen(0.005, 115, 200, 0.0010669565217391304, 609, True),
                ],
            ),
        ],
    )
    def test_flags_differ_between_members(self, seed, expected):
        # values of the engine that took every chunk's max and min; the
        # members share the noise, so a flag differs only where a path has
        # hit in one member and still steps in another
        cfg = base_config(
            r_hit=0.011,
            r_core=0.0105,
            dt=3e-4,
            t_final=0.015,
            x0=(0.02, 0.0, 0.0),
            n_paths=200,
            seed=seed,
        )
        assert [repr(s) for s in delta_sweep(cfg, [0.0, 0.002, 0.005])] == expected
        assert repr(simulate_hardy_sde(replace(cfg, delta=0.005))) == expected[2]

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


class TestCrossingWindow:
    """The bridge test runs only on paths within sqrt(window dt) of the sphere."""

    def test_no_nonzero_uniform_falls_under_the_window(self):
        # Generator.random returns multiples of 2**-53
        assert np.exp(-sde._WINDOW) < 2.0**-53

    def test_a_zero_uniform_widens_the_window_to_the_exp_underflow(self):
        crossing = np.full(1000, 2.0**-53)
        assert sde._crossing_window(crossing) == sde._WINDOW
        crossing[437] = 0.0
        assert sde._crossing_window(crossing) == 746.0
        with np.errstate(under="ignore"):
            assert np.exp(-746.0) == 0.0

    # values of the engine that took exp(-a b / dt) on every row below 746;
    # 17000 paths from just outside r_hit put 95% of the row-steps in that
    # band and 54% below the window
    NEAR_SPHERE = dict(x0=(0.31, 0.0, 0.0), dt=1e-4, t_final=0.005, n_paths=17000, seed=21)

    def test_paths_that_start_near_the_sphere(self):
        sweep = delta_sweep(base_config(**self.NEAR_SPHERE), [0.0, 4.0])
        assert [repr(s) for s in sweep] == [
            frozen(0.0, 15194, 17000, 0.00044964459655127026, 21),
            frozen(4.0, 15460, 17000, 0.00044906209573091854, 21),
        ]

    def test_zero_uniforms_cross_up_to_the_exp_underflow(self, monkeypatch):
        # every seventh uniform of every tenth step set to 0.0: on those steps
        # such a path crosses wherever exp(-a b / dt) does not underflow,
        # which from the template's start at dt = 1e-4 is far beyond the window
        draw, calls = sde._draw, itertools.count(1)

        def draw_with_zeros(rng, noise, noise_t, crossing, scale):
            drawn = draw(rng, noise, noise_t, crossing, scale)
            if next(calls) % 10 == 0:
                crossing[: len(noise) : 7] = 0.0
            return drawn

        monkeypatch.setattr(sde, "_draw", draw_with_zeros)
        cfg = base_config(dt=1e-4, t_final=0.005, n_paths=17000, seed=21)
        assert [repr(s) for s in delta_sweep(cfg, [0.0, 4.0])] == [
            frozen(0.0, 3746, 17000, 0.0018138280832888415, 21),
            frozen(4.0, 4035, 17000, 0.001908822800495663, 21),
        ]

    def test_core_radius_just_inside_the_hitting_radius(self):
        # every stepped path lies outside r_hit > r_core, so the drift's
        # core cap never binds; values of the engine that applied it
        cfg = base_config(
            x0=(0.33, 0.0, 0.0),
            r_core=math.nextafter(0.3, 0.0),
            dt=1e-4,
            t_final=0.01,
            n_paths=3000,
            seed=22,
        )
        assert [repr(s) for s in delta_sweep(cfg, [0.0, 4.0, 100.0])] == [
            frozen(0.0, 2243, 3000, 0.0015574230940704414, 22),
            frozen(4.0, 2364, 3000, 0.001582191201353638, 22),
            frozen(100.0, 2750, 3000, 0.0015256363636363636, 22),
        ]


@pytest.mark.parametrize("seed", [0, 1000])
def test_template_sweep_matches_the_benchmark_reference(seed):
    # the perfbench sde-sweep workload's recorded hit statistics, bit for bit
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    cfg = yaml.safe_load((perfbench / "template.yaml").read_text())["sde"]
    deltas = cfg.pop("deltas")
    reference = json.loads((perfbench / "reference" / "sde-sweep.json").read_text())
    sweep = delta_sweep(SdeConfig(**cfg, seed=seed), deltas)
    stats = [[s.delta, s.hit_count, s.mean_hit_time] for s in sweep]
    assert stats == reference["seeds"][str(seed)]


def test_template_sweep_memory_peak():
    # the template's sweep cut to 100 steps; work buffers of full sweep size
    # would push the peak past this bound.  With numpy 2.4 the peak reads
    # about 5.60e6 bytes, and 5.68e6 when the crossing test ran on every row;
    # it was 5.05e6 before the active set carried each path's coeff * dt and
    # intp rows
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
