"""Self-tests of the benchmark's own code: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402


def _span(name, parent, start, end, info=None):
    return [name, parent, start, end, info]


def test_self_times_subtract_children_on_a_synthetic_tree():
    spans = [
        _span("cli.run", -1, 0.0, 10.0),
        _span("solver.solve", 0, 1.0, 4.0, {"steps": 3, "aborted": 0}),
        _span("grid.rfftn", 1, 2.0, 3.0, {"bytes": 100}),
        _span("verify.check_cosh_energy", 0, 5.0, 9.0),
        # overlapping children are covered once
        _span("orlicz.modular", 3, 5.5, 7.0),
        _span("orlicz.modular", 3, 6.0, 8.0),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.5, 2.0])

    m = tracer.layer_metrics(spans, traced_wall_s=12.0, untraced_wall_s=10.0)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["solver.self_s"] == pytest.approx(2.0)
    assert m["solver.s"] == pytest.approx(3.0)
    assert m["solver.ms_per_step"] == pytest.approx(1000.0)
    assert m["grid.fft_calls"] == 1 and m["grid.fft_bytes"] == 100
    assert m["verify.checks"] == 1 and m["verify.self_s"] == pytest.approx(1.5)
    assert m["orlicz.modular_calls"] == 2 and m["orlicz.self_s"] == pytest.approx(3.5)
    assert m["trace.unattributed_frac"] == pytest.approx(2.0 / 12.0)


def test_reconciliation_is_against_the_untraced_wall_time():
    spans = [
        _span("cli.run", -1, 0.0, 10.0),
        _span("solver.solve", 0, 1.0, 4.0, {"steps": 3, "aborted": 0}),
        _span("grid.rfftn", 1, 2.0, 3.0, {"bytes": 100}),
    ]
    # properly nested spans: layer self times plus the unattributed 2 s give
    # the traced 12 s exactly, so only the untraced time can disagree
    layers = tracer.LAYERS
    m = tracer.layer_metrics(spans, traced_wall_s=12.0, untraced_wall_s=12.0)
    assert sum(m[f"{layer}.self_s"] for layer in layers) == pytest.approx(10.0)
    assert m["trace.reconcile_err"] == pytest.approx(0.0, abs=1e-12)
    m = tracer.layer_metrics(spans, traced_wall_s=12.0, untraced_wall_s=10.0)
    assert m["trace.reconcile_err"] == pytest.approx(0.2)


def test_fft_calls_under_c_delta_are_counted_through_ancestors():
    spans = [
        _span("drift.zeroth_order_constant", -1, 0.0, 5.0),
        _span("grid.irfftn", 0, 1.0, 2.0, {"bytes": 8}),
        _span("grid.rfftn", -1, 6.0, 7.0, {"bytes": 8}),
    ]
    m = tracer.layer_metrics(spans, traced_wall_s=7.0, untraced_wall_s=7.0)
    assert m["drift.c_delta_fft_calls"] == 1
    assert m["grid.fft_calls"] == 2


def test_wrappers_rebind_every_importer_and_restore_the_originals():
    import driftbound
    import driftbound.cli
    import driftbound.sde  # noqa: F401  (imported lazily by the CLI)
    from driftbound import cli, drift, grid, orlicz, solver, verify

    bindings = [
        (grid, "rfftn"), (drift, "rfftn"), (solver, "rfftn"), (solver, "irfftn"),
        (solver, "orlicz_norm"), (verify, "orlicz_norm"), (cli, "orlicz_norm"),
        (orlicz, "modular"), (cli, "modular"), (verify, "solve"), (cli, "solve"),
        (driftbound, "solve"), (cli, "zeroth_order_constant"), (driftbound.sde, "delta_sweep"),
    ]
    originals = [getattr(module, name) for module, name in bindings]
    t = tracer.Tracer().install()
    try:
        for (module, name), original in zip(bindings, originals):
            wrapped = getattr(module, name)
            assert wrapped is not original and wrapped.__wrapped__ is original
        f = grid.ScalarField(grid.TorusGrid(1, 8), [float(i) for i in range(8)])
        grid.laplacian(f)
        orlicz.orlicz_norm(f)
    finally:
        t.uninstall()
    for (module, name), original in zip(bindings, originals):
        assert getattr(module, name) is original
    names = [s[0] for s in t.spans]
    assert names[:3] == ["grid.laplacian", "grid.rfftn", "grid.irfftn"]
    assert [s[1] for s in t.spans[:3]] == [-1, 0, 0]
    assert "orlicz.modular" in names and t.spans[names.index("orlicz.modular")][1] >= 3


def test_report_tolerance_admits_rounding_and_nothing_more():
    ref = {"reports": [{"inequality_id": "a", "passed": True, "times": [0.0, 0.1],
                        "lhs": [0.0, 2.0], "rhs": [1.0, 3.0]}]}
    close = json.loads(json.dumps(ref))
    close["reports"][0]["lhs"] = [1e-17, 2.0 * (1 + 1e-12)]
    assert run.compare_reports(close, ref) == []
    off = json.loads(json.dumps(ref))
    off["reports"][0]["rhs"][1] = 3.0 * (1 + 1e-6)
    assert run.compare_reports(off, ref)
    flipped = json.loads(json.dumps(ref))
    flipped["reports"][0]["passed"] = False
    assert run.compare_reports(flipped, ref)


def test_report_notes_are_compared_too():
    ref = {"reports": [{"inequality_id": "a", "passed": True, "times": [0.0], "lhs": [1.0],
                        "rhs": [2.0], "notes": {"corollary_passed": True, "checkpoints": 6,
                                                "rate": 1.5, "gaps": [0.5, 1e-3]}}]}

    def edited(**notes):
        got = json.loads(json.dumps(ref))
        got["reports"][0]["notes"].update(notes)
        return run.compare_reports(got, ref)

    assert edited() == []
    assert edited(rate=1.5 * (1 + 1e-12), gaps=[0.5, 1e-3 + 1e-14]) == []
    assert edited(corollary_passed=False) == ["a.notes.corollary_passed = False, reference True"]
    assert edited(checkpoints=5)
    assert edited(checkpoints=6.0)
    assert edited(rate=1.5 * (1 + 1e-6))
    assert edited(gaps=[0.5, 2e-3])
    assert edited(extra=1)


def _tiny_sde(cfg):
    cfg["sde"].update(n_paths=64, t_final=2.0e-4)


@pytest.mark.parametrize(
    "reference, error_rate",
    [({"seeds": {}}, 0.0), ({"seeds": {"3": [[0.5, 1, 0.1]] * 4}}, 1.0)],
    ids=["unrecorded-seed", "wrong-reference"],
)
def test_error_rate_reads_the_correctness_gate(monkeypatch, capsys, reference, error_rate):
    monkeypatch.chdir(ROOT)
    monkeypatch.setitem(run.WORKLOADS, "tiny-sde", ("sde", _tiny_sde))
    monkeypatch.setattr(run, "load_reference", lambda workload: reference)
    monkeypatch.setattr(run, "SETUPS_PER_SAMPLE", 1)
    status = run.main(["--workload", "tiny-sde", "--seed", "3", "--seconds", "1"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["failed"] / result["attempted"] == error_rate
    assert result["correct"] is (error_rate == 0.0)
    assert status == (0 if error_rate == 0.0 else 1)
    assert f"error_rate {error_rate:g} ratio" in "\n".join(lines)
