import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from flashvmm import cli
from flashvmm.cli import main
from flashvmm.config import DEFAULT_CONFIG, load_config
from flashvmm.experiments import ExperimentSpec


def test_calibrate_writes_loadable_config(tmp_path):
    out = tmp_path / "cal.yaml"
    assert main(["calibrate", "--out", str(out)]) == 0
    cfg = load_config(out)
    assert cfg == DEFAULT_CONFIG
    # idempotent: calibrating the calibrated file reproduces it
    out2 = tmp_path / "cal2.yaml"
    assert main(["calibrate", "--config", str(out), "--out", str(out2)]) == 0
    assert out.read_text() == out2.read_text()


def test_calibrate_reads_exponent_only_numbers(tmp_path):
    # current_window: [1e-10, 1e-6] used to end in a bare TypeError
    config = tmp_path / "cfg.yaml"
    config.write_text("current_window: [1e-10, 1e-6]\ni0: 1e-3\n")
    assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "out.yaml")]) == 0
    assert load_config(tmp_path / "out.yaml") == DEFAULT_CONFIG


def test_tune_campaign_end_to_end(tmp_path):
    campaign = {
        "rows": 2,
        "cols": 3,
        "precision": 0.05,
        "budget": 50,
        "targets": {"kind": "explicit", "cells": [[0, 1, 1e-8], [1, 1, 1e-9]]},
    }
    cpath = tmp_path / "campaign.yaml"
    cpath.write_text(yaml.safe_dump(campaign))
    results = tmp_path / "results.csv"
    state = tmp_path / "state.txt"
    disturb = tmp_path / "disturb.csv"
    code = main(
        [
            "tune",
            "--campaign", str(cpath),
            "--results", str(results),
            "--state-out", str(state),
            "--disturb-out", str(disturb),
        ]
    )
    assert code == 0
    lines = results.read_text().splitlines()
    assert lines[0] == "row,col,target,final,rel_error,pulses,converged"
    assert len(lines) == 3
    assert state.read_text().startswith("# flashvmm-array v2")
    assert disturb.exists()


def test_multiply_single_mode_matches_oracle(tmp_path):
    (tmp_path / "w.csv").write_text("0.5,0.25\n0.8,0.4\n")
    (tmp_path / "in.csv").write_text("5e-8,1e-8\n")
    out = tmp_path / "out.csv"
    code = main(
        [
            "multiply",
            "--weights", str(tmp_path / "w.csv"),
            "--inputs", str(tmp_path / "in.csv"),
            "--out", str(out),
            "--precision", "0.01",
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "input_index,out_0,out_1"
    got = np.array([float(x) for x in lines[2].split(",")[1:]])
    ideal = np.array([[0.5, 0.25], [0.8, 0.4]]).T @ np.array([5e-8, 1e-8])
    np.testing.assert_allclose(got, ideal, rtol=0.03)


def test_multiply_differential_mode(tmp_path):
    (tmp_path / "w.csv").write_text("0.5\n")
    (tmp_path / "in.csv").write_text("1e-7\n")
    out = tmp_path / "out.csv"
    plan = tmp_path / "plan.csv"
    code = main(
        [
            "multiply",
            "--weights", str(tmp_path / "w.csv"),
            "--inputs", str(tmp_path / "in.csv"),
            "--out", str(out),
            "--mode", "differential",
            "--plan-out", str(plan),
            "--precision", "0.01",
        ]
    )
    assert code == 0
    got = float(out.read_text().splitlines()[2].split(",")[1])
    assert got == pytest.approx(0.5e-7, rel=0.05)
    header = plan.read_text().splitlines()[0]
    assert header.startswith("row,logical_col,w,w_b,w_plus,w_minus")


def test_state_init_and_info(tmp_path, capsys):
    state = tmp_path / "arr.txt"
    assert main(["state", "init", "--rows", "3", "--cols", "4", "--out", str(state)]) == 0
    assert main(["state", "info", str(state)]) == 0
    out = capsys.readouterr().out
    assert "3x4 array," in out


def test_seed_override_resolves_the_slope_factor_range(tmp_path):
    # --seed replaces the file's seed before n_slope is resolved from it
    base = tmp_path / "base.yaml"
    base.write_text("seed: 12345\nn_slope: [5.0, 5.1]\n")
    state = tmp_path / "arr.txt"
    argv = ["state", "init", "--config", str(base), "--seed", "5", "--rows", "2", "--cols", "3"]
    assert main(argv + ["--out", str(state)]) == 0
    assert "config_hash=73fbe4e2e6f1" in state.read_text().splitlines()[2]


def test_state_info_on_truncated_file_fails(tmp_path, capsys):
    state = tmp_path / "arr.txt"
    assert main(["state", "init", "--rows", "2", "--cols", "2", "--out", str(state)]) == 0
    state.write_text("\n".join(state.read_text().splitlines()[:-1]) + "\n")
    assert main(["state", "info", str(state)]) == 1
    parsed = json.loads(capsys.readouterr().err.strip())
    assert parsed["error"] == "ValueError"
    assert "line 7: 3 cell records, expected 4" in parsed["message"]


@pytest.mark.parametrize(
    "inputs, message",
    [
        pytest.param("# no vectors\n\n", "in.csv: no data rows", id="comments_only"),
        pytest.param("5e-8,1e-8\n5e-8\n", "in.csv, line 2: 1 entries", id="ragged"),
        pytest.param("5e-8,1e-8\n5e-8,1nA\n", "in.csv, line 2: malformed row", id="non_numeric"),
    ],
)
def test_multiply_rejects_bad_inputs_file(tmp_path, capsys, inputs, message):
    (tmp_path / "w.csv").write_text("0.5,0.25\n0.8,0.4\n")
    (tmp_path / "in.csv").write_text(inputs)
    code = main(
        [
            "multiply",
            "--weights", str(tmp_path / "w.csv"),
            "--inputs", str(tmp_path / "in.csv"),
            "--out", str(tmp_path / "out.csv"),
        ]
    )
    assert code == 1
    parsed = json.loads(capsys.readouterr().err.strip())
    assert parsed["error"] == "ValueError"
    assert message in parsed["message"]


def test_campaign_runs_only_through_tune(tmp_path):
    # the custom experiment and its --param were a second copy of `tune`
    with pytest.raises(ValueError, match="unknown experiment 'custom'"):
        ExperimentSpec("custom")
    for argv in (["experiment", "custom"], ["experiment", "fig3a", "--param", "k=v"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--out", str(tmp_path)])
        assert exit_info.value.code == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["state", "init", "--rows", "2", "--cols", "3"], id="state_init"),
        pytest.param(["experiment", "fig3a"], id="experiment"),
    ],
)
def test_negative_seed_is_a_json_error_naming_seed(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out), "--seed", "-1"]) == 1
    parsed = json.loads(capsys.readouterr().err.strip())
    assert parsed == {"error": "ValueError", "message": "seed must be an integer >= 0, got -1"}
    assert not out.exists()


def test_multiply_zero_budget_is_a_json_error(tmp_path, capsys):
    (tmp_path / "w.csv").write_text("0.5\n")
    (tmp_path / "in.csv").write_text("5e-8\n")
    code = main(
        [
            "multiply",
            "--weights", str(tmp_path / "w.csv"),
            "--inputs", str(tmp_path / "in.csv"),
            "--out", str(tmp_path / "out.csv"),
            "--budget", "0",
        ]
    )
    assert code == 1
    parsed = json.loads(capsys.readouterr().err.strip())
    assert parsed["error"] == "ValueError" and "budget" in parsed["message"]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "option, field",
    [
        pytest.param(["--temperature", "nan"], "temperature", id="temperature_nan"),
        pytest.param(["--noisy", "--samples", "0"], "samples", id="zero_samples"),
    ],
)
def test_multiply_checks_read_options_before_tuning(tmp_path, capsys, monkeypatch, option, field):
    def no_tuning(*args, **kwargs):
        raise AssertionError("tune_array called")

    monkeypatch.setattr(cli, "tune_array", no_tuning)
    (tmp_path / "w.csv").write_text("0.5,0.25\n0.8,0.4\n")
    (tmp_path / "in.csv").write_text("5e-8,1e-8\n")
    argv = ["multiply", "--weights", str(tmp_path / "w.csv"), "--inputs", str(tmp_path / "in.csv"),
            "--out", str(tmp_path / "out.csv")]
    assert main(argv + option) == 1
    parsed = json.loads(capsys.readouterr().err.strip())
    assert parsed["error"] == "ValueError" and field in parsed["message"]
    assert not (tmp_path / "out.csv").exists()


def test_experiment_subcommand(tmp_path, capsys):
    code = main(["experiment", "fig6", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "fig6:" in out and (tmp_path / "fig6.csv").exists()


def test_experiment_seeds_its_config_like_state_init(tmp_path):
    # --seed replaces the file's seed before the n_slope range is resolved
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("seed: 12345\nn_slope: [5.0, 5.1]\n")
    flags = ["--config", str(cfg), "--seed", "7"]
    assert main(["experiment", "fig4", "--out", str(tmp_path), *flags]) == 0
    assert main(["state", "init", "--rows", "1", "--cols", "3", "--out", str(tmp_path / "s.txt"), *flags]) == 0
    state_hash = re.search(r"config_hash=(\w+)", (tmp_path / "s.txt").read_text()).group(1)
    assert state_hash == "3aecb0bcb55d"
    header = (tmp_path / "fig4.csv").read_text().splitlines()[0]
    assert header == f"# flashvmm-csv v1 config_hash={state_hash} seed=7"


def test_error_is_machine_readable(tmp_path, capsys):
    code = main(["state", "info", str(tmp_path / "missing.txt")])
    assert code == 1
    err = capsys.readouterr().err.strip()
    parsed = json.loads(err)
    assert parsed["error"] == "FileNotFoundError"


def test_bad_campaign_is_a_json_error(tmp_path, capsys):
    campaign = tmp_path / "campaign.yaml"
    campaign.write_text("rows: .nan\ncols: 3\n")
    code = main(["tune", "--campaign", str(campaign), "--results", str(tmp_path / "r.csv")])
    assert code == 1
    parsed = json.loads(capsys.readouterr().err.strip())
    assert parsed["error"] == "ValueError" and "campaign rows" in parsed["message"]
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "targets, message",
    [
        ("{cells: 5}", r"^campaign targets\.cells must be a list"),
        ("{cells: [[0, 1]]}", r"^campaign targets\.cells\[0\] must be \[row, col, current\]"),
        ("{cells: [[0, 1, 1.0e-9], [2, 1, 1.0e-9]]}", r"^campaign targets\.cells\[1\] .* inside the 2x3"),
        ("{cells: [[0, 1.5, 1.0e-9]]}", r"^campaign targets\.cells\[0\]"),
        ("{cells: [[0, 1, abc]]}", r"^campaign targets\.cells\[0\] current"),
        ("{kind: uniform, current: abc}", r"^campaign targets\.current must lie in the window"),
        ("{kind: uniform, current: .nan}", r"^campaign targets\.current"),
        ("{kind: ramp, lo: 1.0e-10, hi: 1.0e-3}", r"^campaign targets\.hi .* got 0\.001"),
    ],
)
def test_bad_campaign_target_is_a_json_error_naming_it(tmp_path, capsys, targets, message):
    campaign = tmp_path / "campaign.yaml"
    campaign.write_text(f"rows: 2\ncols: 3\ntargets: {targets}\n")
    code = main(["tune", "--campaign", str(campaign), "--results", str(tmp_path / "r.csv")])
    assert code == 1
    parsed = json.loads(capsys.readouterr().err.strip())
    assert parsed["error"] == "ValueError"
    assert re.search(message, parsed["message"]), parsed["message"]
    assert not (tmp_path / "r.csv").exists()


def test_process_exit_codes(tmp_path):
    # exercised through a real process: success is 0, failure nonzero with
    # a JSON error line on stderr
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    ok = subprocess.run(
        [sys.executable, "-m", "flashvmm", "calibrate", "--out", str(tmp_path / "c.yaml")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert ok.returncode == 0
    bad = subprocess.run(
        [sys.executable, "-m", "flashvmm", "state", "info", str(tmp_path / "nope.txt")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert bad.returncode == 1
    assert json.loads(bad.stderr.strip())["error"] == "FileNotFoundError"
