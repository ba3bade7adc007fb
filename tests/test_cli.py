import hashlib
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import yaml

import driftbound
from driftbound import cli
from driftbound._convert import integral
from driftbound.cli import DEFAULTS, REQUIRED, Experiment, load_config, main
from driftbound.drift import form_bound_estimate, mollify_drift
from driftbound.solver import solve


def write_config(path, output_dir, **overrides):
    data = {
        "experiment": {"seed": 0, "output_dir": str(output_dir), "tolerance_tier": "singular"},
        "grid": {"dim": 3, "n": 16},
        "drift": {"kind": "hardy", "delta": 4.0, "sign": -1, "core_radius": 0.125},
        "mollification": {"schedule": [1e-2, 2.5e-3]},
        "solver": {"dt": 1e-3, "t_final": 0.02, "snapshot_stride": 5},
        "initial": {"kind": "trig", "terms": [[0.5, [1, 0, 0]]]},
        "sde": {"n_paths": 1000, "dt": 1e-4, "deltas": [0.5, 36.0]},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            data.setdefault(key, {}).update(value)
        else:
            data[key] = value
    path.write_text(yaml.safe_dump(data))
    return data


ZERO_DRIFT = {"kind": "constant", "vector": [0.0, 0.0, 0.0]}


def fast_drift_config(path, output_dir, **solver):
    """A 1D constant drift of 50 far past its CFL bound, over t_final = 20.

    The auto shift c_delta / sqrt(delta) is 2500 / 2 = 1250, so
    exp(2 shift t_final) overflows; at shift 0 the solve goes non-finite at
    step 575.
    """
    return write_config(
        path,
        output_dir,
        grid={"dim": 1, "n": 64},
        drift={"kind": "constant", "vector": [50.0]},
        solver={"dt": 0.01, "t_final": 20.0, "snapshot_stride": 100, "cfl_safety": 1.0e6, **solver},
        initial={"kind": "trig", "terms": [[0.5, [1]]]},
    )


def run_cli(*args):
    """driftbound in a fresh process, so that a traceback shows on its stderr."""
    src = str(Path(driftbound.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "driftbound.cli", *args],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=300,
    )


def zero_drift_config(path, output_dir):
    return write_config(
        path,
        output_dir,
        grid={"dim": 1, "n": 32},
        drift={"kind": "constant", "vector": [0.0], "delta": 4.0},
        experiment={
            "seed": 0,
            "output_dir": str(output_dir),
            "tolerance_tier": "analytic",
        },
        verifier={"delta": 1.0, "c_delta": 1e-8},
        solver={"dt": 1e-3, "t_final": 0.02, "snapshot_stride": 5},
        initial={"kind": "trig", "terms": [[0.5, [1]]]},
    )


class TestInit:
    def test_writes_template(self, tmp_path):
        target = tmp_path / "exp.yaml"
        assert main(["init", "--config", str(target)]) == 0
        data = yaml.safe_load(target.read_text())
        assert data["grid"]["n"] == 32
        assert data["drift"]["kind"] == "hardy"

    def test_template_shows_the_defaults(self, tmp_path):
        target = tmp_path / "exp.yaml"
        assert main(["init", "--config", str(target)]) == 0
        template = load_config(target)
        assert set(template) == set(DEFAULTS)
        for section, values in template.items():
            for key, shown in values.items():
                assert key in DEFAULTS[section], f"{section}.{key}"
                default = DEFAULTS[section][key]
                if default is not REQUIRED and default is not None:
                    # YAML lists show the tuple defaults p_list and x0
                    assert shown == (list(default) if isinstance(default, tuple) else default), (
                        f"{section}.{key}"
                    )

    def test_benchmark_and_init_configs_build_an_experiment(self, tmp_path):
        # the frozen benchmark config must keep loading under any config change
        target = tmp_path / "exp.yaml"
        assert main(["init", "--config", str(target)]) == 0
        benchmark = Path(__file__).resolve().parents[1] / "perfbench" / "template.yaml"
        for path in (benchmark, target):
            exp = Experiment(load_config(path), output_dir=tmp_path / "run")
            assert exp.delta == 4.0 and exp.lp_p is None and exp.shift is None
        assert not (tmp_path / "run").exists()

    def test_refuses_overwrite_without_force(self, tmp_path):
        target = tmp_path / "exp.yaml"
        target.write_text("keep: me\n")
        assert main(["init", "--config", str(target)]) == 2
        assert target.read_text() == "keep: me\n"
        assert main(["init", "--config", str(target), "--force"]) == 0


class TestConfigSchema:
    def test_exponent_spelled_floats_build_the_same_experiment(self, tmp_path):
        # YAML reads a float spelled without a dot, such as 1e-1, as a string
        undotted = (
            "grid: {dim: 3, n: 16}\n"
            "drift: {kind: hardy, delta: 4e0, core_radius: 1e-1, cutoff_radius: 4e-1}\n"
            "solver: {dt: 5e-4, t_final: 5e-2, shift: 1e0, cfl_safety: 5e-1}\n"
            "sde: {delta: 0e0, deltas: [5e-1, 36e0], x0: [45e-2, 0e0, 0e0], t_final: 2e-2,\n"
            "      dt: 2e-5, r_hit: 3e-1, r_core: 3e-2}\n"
        )
        dotted = re.sub(r"\b\d+e-?\d+\b", lambda m: f"{float(m[0]):.2e}", undotted)
        experiments = []
        for name, text in (("undotted", undotted), ("dotted", dotted)):
            path = tmp_path / f"{name}.yaml"
            path.write_text(text)
            data = load_config(path)
            assert isinstance(data["drift"]["core_radius"], str if name == "undotted" else float)
            experiments.append(Experiment(data, output_dir=tmp_path / "run"))
        undotted_exp, dotted_exp = (
            {k: v for k, v in vars(exp).items() if k not in ("config_digest", "_t_started")}
            for exp in experiments
        )
        assert repr(undotted_exp) == repr(dotted_exp)
        assert undotted_exp["drift_spec"].core_radius == 0.1


class TestVerify:
    def test_zero_drift_all_analytic_checks_pass(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        zero_drift_config(cfg, out)
        assert main(["verify", "--config", str(cfg)]) == 0
        reports = json.loads((out / "reports.json").read_text())["reports"]
        assert reports and all(r["passed"] for r in reports)
        assert all(r["tol_rel"] == 1e-6 for r in reports)

    def test_zero_drift_takes_the_explicit_delta(self, tmp_path):
        # explicit verifier values win for a zero drift too: delta = 1 runs
        # the L^p check, and the rate is c_delta / sqrt(delta) = 1e-8
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        data = zero_drift_config(cfg, out)
        data["verifier"]["lp_p"] = 4
        cfg.write_text(yaml.safe_dump(data))
        assert main(["verify", "--config", str(cfg)]) == 0
        reports = {
            r["inequality_id"]: r for r in json.loads((out / "reports.json").read_text())["reports"]
        }
        assert "lp_contraction_p4" in reports
        assert reports["orlicz_contraction"]["notes"]["rate"] == 1e-8
        assert reports["cosh_energy"]["notes"]["rate"] == 1e-8

    def test_zero_drift_auto_constant_is_zero(self, tmp_path):
        # c(delta) of a zero drift is exactly 0, so the auto shift is 0 and
        # cosh_energy runs at rate 0
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        data = zero_drift_config(cfg, out)
        data["verifier"]["c_delta"] = "auto"
        cfg.write_text(yaml.safe_dump(data))
        assert main(["verify", "--config", str(cfg)]) == 0
        reports = {
            r["inequality_id"]: r for r in json.loads((out / "reports.json").read_text())["reports"]
        }
        assert reports["cosh_energy"]["notes"]["rate"] == 0.0
        assert reports["orlicz_contraction"]["notes"]["rate"] == 0.0

    def test_hardy_verify_exits_zero(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        write_config(cfg, out)
        assert main(["verify", "--config", str(cfg)]) == 0
        text = (out / "reports.txt").read_text()
        assert "aggregate                PASS" in text
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == 0 and manifest["passed"] is True

    def test_only_the_finest_member_is_solved_in_full(self, tmp_path, monkeypatch):
        # the finest schedule-A member feeds diagnostics.csv and the per-step
        # checks; every other member is read only for dirichlet_v and snapshots.
        # The members are solved concurrently, so each call is keyed by its
        # member's max|b_eps| rather than by its position in the call order.
        calls = []

        def recording(b, f, config, diagnostics=True):
            calls.append((b.max_magnitude(), diagnostics))
            return solve(b, f, config, diagnostics=diagnostics)

        monkeypatch.setattr(cli, "solve", recording)
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        write_config(cfg, out)
        assert main(["verify", "--config", str(cfg)]) == 0
        exp = Experiment(load_config(cfg))
        b = exp.build_drift()
        # schedule A, then schedule B (half of each A member)
        magnitudes = [mollify_drift(b, eps).max_magnitude() for eps in exp.schedule + exp.schedule_b]
        assert len(set(magnitudes)) == 4
        assert sorted(calls) == sorted(zip(magnitudes, [False, True, False, False]))

    def test_outputs_do_not_depend_on_completion_order(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.yaml"
        write_config(cfg, tmp_path / "plain")
        assert main(["verify", "--config", str(cfg)]) == 0

        # the finest member, submitted first, waits until the three light
        # members have returned, so that it finishes last
        finished = []
        lights_done = threading.Event()

        def finest_last(b, f, config, diagnostics=True):
            if diagnostics:
                assert lights_done.wait(timeout=120)
            traj = solve(b, f, config, diagnostics=diagnostics)
            finished.append(diagnostics)
            if len(finished) == 3:
                lights_done.set()
            return traj

        monkeypatch.setattr(cli, "solve", finest_last)
        # two pool threads even on a one-core host, or the finest would block
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert main(["verify", "--config", str(cfg), "--output", str(tmp_path / "late")]) == 0
        assert finished == [False, False, False, True]

        # the delta_hat sweep, submitted before every member, waits until all
        # four members have been solved, so that it finishes last
        solved = []
        all_solved = threading.Event()

        def counting(b, f, config, diagnostics=True):
            traj = solve(b, f, config, diagnostics=diagnostics)
            solved.append(diagnostics)
            if len(solved) == 4:
                all_solved.set()
            return traj

        def sweep_last(*args, **kwargs):
            assert all_solved.wait(timeout=120)
            return form_bound_estimate(*args, **kwargs)

        monkeypatch.setattr(cli, "solve", counting)
        monkeypatch.setattr(cli, "form_bound_estimate", sweep_last)
        assert main(["verify", "--config", str(cfg), "--output", str(tmp_path / "sweep")]) == 0
        assert len(solved) == 4
        for run in ("late", "sweep"):
            for name in ("reports.json", "certificates.json", "diagnostics.csv"):
                assert (tmp_path / run / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_first_violation_in_schedule_order_ends_the_run(self, tmp_path, capsys):
        # dt = 0.015 breaks CFL for every member finer than eps = 1e-2.  The
        # first violating member in schedule order is the middle schedule-A
        # one; the finest, which is submitted first, quotes a smaller bound.
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        write_config(
            cfg,
            out,
            mollification={"schedule": [1e-2, 5e-3, 2.5e-3]},
            solver={"dt": 1.5e-2, "t_final": 3e-2, "snapshot_stride": 1},
        )
        exp = Experiment(load_config(cfg))
        b, f = exp.build_drift(), exp.build_initial()
        solve(mollify_drift(b, 1e-2), f, exp.solver, diagnostics=False)  # within its bound
        messages = []
        for eps in (5e-3, 2.5e-3):
            with pytest.raises(ValueError, match="CFL violation") as info:
                solve(mollify_drift(b, eps), f, exp.solver, diagnostics=False)
            messages.append(f"runtime error: {info.value}")
        assert messages[0] != messages[1]
        assert main(["verify", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert messages[0] in err and messages[1] not in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == messages[0]
        # the certificates come before any member's result, as in a serial run
        assert (out / "certificates.json").exists()

    def test_failed_c_delta_writes_no_certificates(self, tmp_path, capsys, monkeypatch):
        # c(delta) fails on the calling thread while the delta_hat sweep runs
        # on the pool; the run ends with no certificates.json, as a serial one
        def failing(b, delta):
            raise RuntimeError("eigen-solve did not converge")

        monkeypatch.setattr(cli, "zeroth_order_constant", failing)
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        write_config(cfg, out)
        assert main(["verify", "--config", str(cfg)]) == 3
        assert "runtime error: eigen-solve did not converge" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == 3 and manifest["artifacts"] == {}
        assert not (out / "certificates.json").exists()

    @pytest.mark.parametrize("subcommand", ["formbound", "verify"])
    def test_unconverged_certificates_fail(self, tmp_path, capsys, subcommand):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        write_config(cfg, out, formbound={"max_iter": 2})
        assert main([subcommand, "--config", str(cfg)]) == 1
        certs = json.loads((out / "certificates.json").read_text())["certificates"]
        assert certs and all(row["feasible"] and not row["converged"] for row in certs)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["passed"] is False and manifest["status"] == 1
        assert "did not reach rq_tol" in capsys.readouterr().err
        if subcommand == "verify":
            # the checks themselves pass; the certificates alone fail the run
            reports = json.loads((out / "reports.json").read_text())["reports"]
            assert reports and all(r["passed"] for r in reports)

    def test_malformed_schedule_exits_nonzero_without_artifacts(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        write_config(cfg, out, mollification={"schedule": [1e-3, 1e-2]})
        assert main(["verify", "--config", str(cfg)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "mollification",
        [{"schedule": [1e-2]}, {"schedule": [1e-2, 2.5e-3], "schedule_b": [5e-3]}],
    )
    def test_one_member_schedule_with_cauchy_is_config_error(self, tmp_path, mollification):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        write_config(cfg, out, mollification=mollification)
        assert main(["verify", "--config", str(cfg)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, edit",
        [
            ("verifier", {"delta": 0.0}),
            ("verifier", {"delta": -1.0}),
            ("verifier", {"c_delta": -1.0}),
            ("formbound", {"max_iter": "many"}),
            ("initial", {"terms": [[0.5]]}),  # a term without its wavevector
            ("solver", {"dt": 1.0e-3, "t_final": 0.0205}),  # not a whole number of steps
            ("verifier", {"delta": 2.0, "lp_p": 3}),  # below 2/(2 - sqrt(2)) = 3.41
            ("solver", {"p_list": []}),
            ("formbound", {"max_iter": 0}),
            ("formbound", {"rq_tol": -1.0}),
            ("formbound", {"rq_tol": 0.0}),
            ("experiment", {"seed": -1}),
            ("sde", {"seed": -1}),
            ("formbound", {"c_values": []}),  # would certify nothing
            ("verifier", {"inequalities": []}),  # would check nothing
            ("verifier", {"inequalities": ["lp_contraction"]}),  # delta = 4 admits no p
            # a zero drift has nothing to mollify
            ("verifier", {"inequalities": ["cauchy_convergence"], "drift": ZERO_DRIFT}),
            ("grid", {"n": 32.7}),  # integral fields are not truncated
            ("grid", {"dim": 3.5}),
            ("drift", {"sign": -1.5}),
            ("solver", {"snapshot_stride": 5.9}),
            ("formbound", {"max_iter": 10.5}),
            ("experiment", {"seed": 0.5}),
            ("sde", {"seed": 2.5}),
            ("sde", {"n_paths": 999.9}),
            ("sde", {"n_paths": True}),  # YAML's true is not the integer 1
            ("solver", {"snapshot_stride": True}),
            ("solver", {"cfl_safety": 0}),
            ("solver", {"cfl_safety": -0.5}),
            # YAML's true is not the number 1.0 either
            ("solver", {"t_final": True}),
            ("solver", {"dt": True}),
            ("solver", {"shift": True}),
            ("solver", {"cfl_safety": True}),
            ("drift", {"delta": True}),
            ("drift", {"cutoff_radius": True}),
            ("drift", {"core_radius": True}),
            ("drift", {"kind": "constant", "vector": [0.5, 0.0, True]}),
            ("formbound", {"rq_tol": True}),
            ("formbound", {"c_values": [2.0, True]}),
            ("verifier", {"delta": True}),
            ("verifier", {"c_delta": True}),
            ("verifier", {"delta": 2.0, "lp_p": True}),
            ("mollification", {"schedule": [True, 1e-3]}),
            ("initial", {"kind": "constant", "value": True}),
            ("initial", {"terms": [[True, [1, 0, 0]]]}),
            ("sde", {"delta": True}),
            ("sde", {"deltas": [0.5, True]}),
            ("sde", {"t_final": True}),
            ("sde", {"r_hit": True}),
            ("sde", {"x0": [0.45, 0.0, True]}),
            # a trig wavevector is an integer vector, a mode of the torus
            ("initial", {"terms": [[0.5, [1.5, 0, 0]]]}),
            ("initial", {"terms": [[0.5, [True, 0, 0]]]}),
            ("drift", {"kind": "trig", "components": [[[0.5, [1.5, 0, 0]]], [], []]}),
            ("drift", {"kind": "trig", "components": [[[0.5, [True, 0, 0]]], [], []]}),
        ],
    )
    def test_bad_value_is_config_error(self, tmp_path, capsys, section, edit):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        edit = dict(edit)
        # an edit may carry the drift its case needs
        write_config(cfg, out, **{"drift": edit.pop("drift", {}), section: edit})
        assert main(["verify", "--config", str(cfg)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"config error: {section}" in err
        # a YAML boolean is named by the key that holds it
        for key, value in edit.items():
            if any(v is True for v in (value if isinstance(value, list) else [value])):
                assert f"{key} must be" in err, err

    def test_integer_key_in_exponent_form(self, tmp_path):
        # YAML reads 2e4 and 2.5e0, written without a dot or an exponent
        # sign, as the strings '2e4' and '2.5e0'
        cfg = tmp_path / "cfg.yaml"
        write_config(cfg, tmp_path / "run", sde={"n_paths": "2e4"})
        cfg.write_text(cfg.read_text().replace("'2e4'", "2e4"))
        data = load_config(cfg)
        assert data["sde"]["n_paths"] == "2e4"
        base, _ = Experiment(data).sde
        assert type(base.n_paths) is int and base.n_paths == 20000
        data["solver"]["snapshot_stride"] = "2.5e0"
        with pytest.raises(
            cli.ConfigError, match="solver: snapshot_stride must be an integer, got '2.5e0'"
        ):
            Experiment(data)
        # integers pass through unrounded
        assert integral(2**70 + 1, "seed") == 2**70 + 1

    @pytest.mark.parametrize("subcommand", ["verify", "sde"])
    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys, subcommand):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        write_config(cfg, out)
        assert main([subcommand, "--config", str(cfg), "--seed", "-1"]) == 2
        assert not out.exists()
        assert "config error: --seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["drift", "initial"])
    def test_missing_field_file_is_config_error(self, tmp_path, capsys, section):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        missing = tmp_path / "absent.bin"
        data = zero_drift_config(cfg, out)
        data[section].update(kind="file", path=str(missing))
        cfg.write_text(yaml.safe_dump(data))
        for subcommand in ("solve", "verify"):
            assert main([subcommand, "--config", str(cfg)]) == 2
            err = capsys.readouterr().err
            assert f"config error: {section}: cannot read {missing}: No such file" in err
        assert not out.exists()

    @pytest.mark.parametrize("section", ["drift", "initial"])
    def test_truncated_field_file_is_config_error(self, tmp_path, capsys, section):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        data = zero_drift_config(cfg, out)
        data[section].update(kind="file", path=str(empty))
        cfg.write_text(yaml.safe_dump(data))
        for subcommand in ("solve", "verify"):
            assert main([subcommand, "--config", str(cfg)]) == 2
            err = capsys.readouterr().err
            assert f"config error: {section}: {empty} holds 0 bytes" in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["formbound", "mollify", "sde"])
    @pytest.mark.parametrize(
        "initial", [{"kind": "bogus"}, {"kind": "constant"}], ids=["bogus", "no_value"]
    )
    def test_bad_initial_is_config_error(self, tmp_path, capsys, subcommand, initial):
        # checked when the experiment is built, as the drift's kind and source
        # are, so subcommands that never build the datum reject it too
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        data = write_config(cfg, out)
        data["initial"] = initial
        cfg.write_text(yaml.safe_dump(data))
        assert main([subcommand, "--config", str(cfg)]) == 2
        assert not out.exists()
        assert "config error: initial" in capsys.readouterr().err

    def test_overflowing_explicit_shift_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        fast_drift_config(cfg, out, shift=1250.0)
        run = run_cli("solve", "--config", str(cfg))
        assert run.returncode == 2, run.stderr
        assert run.stderr.startswith("config error: solver: shift=1250 over t_final=20")
        assert "Traceback" not in run.stderr
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["solve", "verify"])
    def test_overflowing_auto_shift_is_runtime_error(self, tmp_path, subcommand):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        fast_drift_config(cfg, out)
        run = run_cli(subcommand, "--config", str(cfg))
        assert run.returncode == 3, run.stderr
        assert run.stderr.startswith("runtime error: shift=1250 over t_final=20")
        assert "Traceback" not in run.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == 3 and manifest["artifacts"] == {}
        assert manifest["error"] == run.stderr.strip()
        assert not (out / "certificates.json").exists()

    def test_explicit_shift_with_cosh_energy_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        for shift in (0.5, 0):
            write_config(cfg, out, solver={"shift": shift})
            assert main(["verify", "--config", str(cfg)]) == 2
            assert not out.exists()
            assert "config error: cosh_energy needs the shift" in capsys.readouterr().err
        # without cosh_energy the explicit shift is used as given
        data = zero_drift_config(cfg, out)
        data["solver"]["shift"] = 0.5
        data["verifier"]["inequalities"] = ["orlicz_contraction"]
        cfg.write_text(yaml.safe_dump(data))
        assert main(["verify", "--config", str(cfg)]) == 0
        assert main(["solve", "--config", str(cfg)]) == 0
        assert json.loads((out / "solve.json").read_text())["shift"] == 0.5

    def test_null_for_a_concrete_default_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        write_config(cfg, out, experiment={"seed": None})
        assert main(["verify", "--config", str(cfg)]) == 2
        assert not out.exists()
        assert "config error: experiment.seed must not be null" in capsys.readouterr().err

    def test_cfl_violation_is_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        write_config(cfg, out, solver={"dt": 2e-2})
        assert main(["verify", "--config", str(cfg)]) == 3
        assert "runtime error: CFL violation" in capsys.readouterr().err
        # the manifest records the failure and the files written before it
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["passed"] is False and manifest["status"] == 3
        assert manifest["error"].startswith("runtime error: CFL violation")
        assert set(manifest["artifacts"]) == {"certificates.json"}

    @pytest.mark.parametrize(
        "section, value, status",
        [
            ("experiment", None, 0),  # every key has a default
            ("grid", None, 2),  # grid.dim is required
            ("solver", None, 2),  # solver.dt is required
            ("verifier", None, 0),
            ("verifier", ["orlicz_contraction"], 2),  # a list, not a mapping
        ],
    )
    def test_empty_or_non_mapping_section(self, tmp_path, capsys, section, value, status):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        data = zero_drift_config(cfg, out)
        data[section] = value
        cfg.write_text(yaml.safe_dump(data))
        assert main(["verify", "--config", str(cfg), "--output", str(out)]) == status
        if status == 2:
            assert f"config error: {section}" in capsys.readouterr().err

    def test_unknown_inequality_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        write_config(cfg, out, verifier={"inequalities": ["orlicz_contraction", "bogus"]})
        assert main(["verify", "--config", str(cfg)]) == 2

    def test_manifest_lists_every_artifact_with_digest(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        zero_drift_config(cfg, out)
        assert main(["verify", "--config", str(cfg)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        on_disk = {
            str(p.relative_to(out))
            for p in out.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        }
        assert set(manifest["artifacts"]) == on_disk
        for rel, digest in manifest["artifacts"].items():
            assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest

    def test_manifest_lists_only_this_runs_files(self, tmp_path):
        # solve leaves solve.json and snapshots behind; verify into the same
        # directory lists only what verify wrote
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        zero_drift_config(cfg, out)
        assert main(["solve", "--config", str(cfg)]) == 0
        assert (out / "solve.json").exists()
        assert main(["verify", "--config", str(cfg)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == {
            "certificates.json", "diagnostics.csv", "reports.json", "reports.txt"
        }

    def test_reports_reproducible_for_same_seed(self, tmp_path):
        cfg1 = tmp_path / "a.yaml"
        cfg2 = tmp_path / "b.yaml"
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        zero_drift_config(cfg1, out1)
        zero_drift_config(cfg2, out2)
        assert main(["verify", "--config", str(cfg1)]) == 0
        assert main(["verify", "--config", str(cfg2)]) == 0
        for name in ("reports.json", "certificates.json", "diagnostics.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_output_and_seed_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "elsewhere"
        zero_drift_config(cfg, tmp_path / "ignored")
        assert main(["verify", "--config", str(cfg), "--output", str(out), "--seed", "7"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_tolerance_tier_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        zero_drift_config(cfg, out)  # config says analytic
        code = main(
            ["verify", "--config", str(cfg), "--tolerance-tier", "singular"]
        )
        assert code == 0
        reports = json.loads((out / "reports.json").read_text())["reports"]
        assert all(r["tol_rel"] == 5e-2 for r in reports)


class TestOtherPipelines:
    def test_norm(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        zero_drift_config(cfg, out)
        assert main(["norm", "--config", str(cfg)]) == 0
        payload = json.loads((out / "norms.json").read_text())
        assert payload["linf"] == pytest.approx(0.5, rel=1e-12)
        assert payload["orlicz"] > 0

    def test_formbound(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        write_config(cfg, out)
        assert main(["formbound", "--config", str(cfg)]) == 0
        payload = json.loads((out / "certificates.json").read_text())
        assert len(payload["certificates"]) == 4
        assert all(row["feasible"] for row in payload["certificates"])

    def test_formbound_constant_drift_needs_no_eigen_solve(self, tmp_path):
        # every default budget is at least max|b|^2 = 0.25, where delta_hat is 0
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        write_config(cfg, out, drift={"kind": "constant", "vector": [0.5, 0.0, 0.0]})
        assert main(["formbound", "--config", str(cfg)]) == 0
        certs = json.loads((out / "certificates.json").read_text())["certificates"]
        assert len(certs) == 4
        for row in certs:
            assert row["delta_hat"] == 0.0 and row["residual"] == 0.0
            assert row["converged"] and row["iterations"] == 0

    def test_mollify(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        write_config(cfg, out)
        assert main(["mollify", "--config", str(cfg)]) == 0
        payload = json.loads((out / "mollify.json").read_text())
        gaps = [row["l2_gap_to_parent"] for row in payload["schedule"]]
        assert gaps[0] > gaps[1]
        assert (out / "drift_eps_0.bin").exists()

    def test_aborted_solve_is_runtime_error(self, tmp_path, capsys):
        # the outputs are written before the abort is raised, and the
        # manifest lists them with the error
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        fast_drift_config(cfg, out, shift=0.0)
        assert main(["solve", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: solve aborted for eps=0.0025: non-finite state")
        payload = json.loads((out / "solve.json").read_text())
        assert payload["aborted"] is True and "after step 575" in payload["abort_message"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == 3 and manifest["error"] == err.strip()
        snapshots = {f"snapshot_{i:04d}.bin" for i in range(payload["snapshots"])}
        assert set(manifest["artifacts"]) == {"solve.json", "diagnostics.csv"} | snapshots

    def test_solve(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        write_config(cfg, out)
        assert main(["solve", "--config", str(cfg)]) == 0
        assert (out / "diagnostics.csv").exists()
        payload = json.loads((out / "solve.json").read_text())
        assert payload["aborted"] is False
        snaps = sorted(out.glob("snapshot_*.bin"))
        assert len(snaps) == payload["snapshots"]

    def test_sde_table(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        write_config(cfg, out)
        assert main(["sde", "--config", str(cfg)]) == 0
        payload = json.loads((out / "sde.json").read_text())
        assert [row["delta"] for row in payload["sweep"]] == [0.5, 36.0]

    def test_sde_dt_warning_is_logged(self, tmp_path, capsys, caplog):
        # noise sqrt(2 dt) = 0.045 against a jump limit of 10 r_hit = 0.11
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        sde = {"r_hit": 0.011, "r_core": 0.01, "x0": [0.05, 0.0, 0.0], "dt": 1e-3}
        write_config(cfg, out, sde=dict(sde, deltas=[0.0, 1e-4]))
        assert main(["sde", "--config", str(cfg)]) == 0
        assert all(row["dt_warning"] for row in json.loads((out / "sde.json").read_text())["sweep"])
        expected = [
            f"sde: delta={d} set dt_warning: a step exceeded 10 r_hit; halve sde.dt"
            for d in ("0", "0.0001")
        ]
        warnings = [r for r in caplog.records if r.name == "driftbound"]
        assert {r.levelname for r in warnings} == {"WARNING"}
        assert [r.getMessage() for r in warnings] == expected
        assert capsys.readouterr().err.splitlines() == expected

    def test_unconverged_certificates_are_logged(self, tmp_path, caplog):
        cfg = tmp_path / "cfg.yaml"
        write_config(cfg, tmp_path / "run", formbound={"max_iter": 2})
        assert main(["formbound", "--config", str(cfg)]) == 1
        [record] = [r for r in caplog.records if r.name == "driftbound"]
        assert record.levelname == "WARNING"
        assert record.getMessage() == (
            "formbound: 4 of 4 certificates did not reach rq_tol=1e-10 within max_iter=2"
        )

    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys):
        # the output directory lies under a regular file: neither the outputs
        # nor the manifest can be written
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = tmp_path / "cfg.yaml"
        write_config(cfg, blocker / "run", sde={"n_paths": 100})
        assert main(["sde", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith("runtime error: ")
        assert blocker.read_text() == ""

    @pytest.mark.parametrize(
        "sde_edit",
        [
            {"deltas": [0.5, -1.0]},
            {"deltas": [0.5, 1.0e6]},  # breaks the dt cap
            {"t_final": 0.02, "dt": 3e-5},  # not a whole number of steps
        ],
    )
    def test_sde_bad_sweep_is_config_error(self, tmp_path, sde_edit):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        write_config(cfg, out, sde=sde_edit)
        assert main(["sde", "--config", str(cfg)]) == 2
        assert not (out / "sde.json").exists()

    def test_sde_seed_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        write_config(cfg, tmp_path / "ignored", experiment={"seed": 2}, sde={"seed": 3})

        def seeds(name, *extra):
            out = tmp_path / name
            assert main(["sde", "--config", str(cfg), "--output", str(out), *extra]) == 0
            return {row["seed"] for row in json.loads((out / "sde.json").read_text())["sweep"]}

        assert seeds("cli", "--seed", "5") == {5}
        assert seeds("sde") == {3}
        write_config(cfg, tmp_path / "ignored", experiment={"seed": 2})
        assert seeds("experiment") == {2}

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("sde", "bridge", False),
            ("sde", "n_path", 100),
            ("verifier", "inequalitys", ["orlicz_contraction"]),
            ("solver", "snapshot_strid", 5),
            ("grid", "N", 16),
            ("drift", "cutof_radius", 0.3),
            (None, "solvr", {"dt": 1e-3}),  # a top-level section
        ],
        ids=[
            "sde.bridge",
            "sde.n_path",
            "verifier.inequalitys",
            "solver.snapshot_strid",
            "grid.N",
            "drift.cutof_radius",
            "solvr",
        ],
    )
    def test_sde_unknown_key_is_config_error(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        overrides = {key: value} if section is None else {section: {key: value}}
        write_config(cfg, out, **overrides)
        assert main(["verify", "--config", str(cfg)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"'{key}'" in err

    def test_all_checks_sde_before_any_work(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "run"
        data = zero_drift_config(cfg, out)
        data["sde"]["bridge"] = False
        cfg.write_text(yaml.safe_dump(data))
        assert main(["all", "--config", str(cfg)]) == 2
        assert not out.exists()
