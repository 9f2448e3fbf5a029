"""Smoke tests for the scripts under scripts/."""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from logdet_equiv import MatrixSpec, realize, sample, substream_seed

from helpers import load_script

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_calibration_samples_are_the_jordan_trials():
    n, delta, trials, seed = 8, 1e-8, 20, 1
    x = load_script("calibrate_jordan_band").x_samples([n], delta, trials, seed)[0]
    a = realize(MatrixSpec(kind="jordan", n=n))
    expected = []
    for k in range(trials):
        g = sample("complex_ginibre", n, substream_seed(seed, n, k))
        _, logdet = np.linalg.slogdet(a + delta * g)
        expected.append(n * (float(logdet) / n) - math.log(delta))
    np.testing.assert_array_equal(x, expected)


def test_delta_budget_sweep_prints_one_row_per_point(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "argv", ["delta_budget_sweep.py", "--points", "2", "--trials", "2"])
    load_script("delta_budget_sweep").main()
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("N = 200, alpha = ")
    assert lines[1].split() == ["delta", "median_err", "q95_err", "budget", "within"]
    rows = lines[2:]
    assert len(rows) == 2
    assert all(len(row.split()) == 5 for row in rows)


def test_run_benchmarks_runs_each_config_with_its_command(monkeypatch, capsys, tmp_path):
    single = {
        "matrix": {"kind": "diagonal", "n": 12, "diag": [[[2.0, 0.0], 9], [[0.0, 0.0], 3]]},
        "model": "complex_ginibre",
        "params": {"alpha": 1.0, "gamma": 4.0, "delta": 1e-4},
        "trials": 3,
        "mode": "single",
    }
    configs = {
        "mc_small": single,
        "grushin_small": single,
        "field_small": {
            **single,
            "matrix": {"kind": "zero", "n": 4},
            "mode": "field",
            "z_grid": {"re_min": 1.5, "re_max": 2.5, "im_min": 0.0, "im_max": 0.0, "steps": 2},
        },
    }
    for name, config in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({**config, "output": str(tmp_path / "out" / name)}))
    argv = ["run_benchmarks.py", "--configs", str(tmp_path / "*.json"), "--trials", "1"]
    monkeypatch.setattr(sys, "argv", argv)
    assert load_script("run_benchmarks").main() == 0
    headers = [line for line in capsys.readouterr().out.split("\n") if line.startswith("== ")]
    assert headers == [
        f"== {tmp_path / 'field_small.json'} (field) ==",
        f"== {tmp_path / 'grushin_small.json'} (grushin-verify) ==",
        f"== {tmp_path / 'mc_small.json'} (mc) ==",
    ]
    artifacts = {"field_small_field.csv", "grushin_small_checks.json", "mc_small_records.csv"}
    assert artifacts <= {p.name for p in (tmp_path / "out").iterdir()}


def test_run_benchmarks_picks_the_command_from_the_file_name_alone(monkeypatch, capsys, tmp_path):
    lab = tmp_path / "grushin_lab"
    lab.mkdir()
    config = {"matrix": {"kind": "jordan", "n": 8}, "model": "complex_ginibre", "params": {"alpha": 0.5}, "trials": 1}
    (lab / "mc_only.json").write_text(json.dumps(config))
    monkeypatch.setattr(sys, "argv", ["run_benchmarks.py", "--configs", str(lab / "*.json")])
    assert load_script("run_benchmarks").main() == 0
    headers = [line for line in capsys.readouterr().out.split("\n") if line.startswith("== ")]
    assert headers == [f"== {lab / 'mc_only.json'} (mc) =="]


EMPTY_WINDOW = {
    "matrix": {"kind": "diagonal", "n": 12, "diag": [[[2.0, 0.0], 10], [[0.0, 0.0], 2]]},
    "model": "complex_ginibre",
    "params": {"alpha": 0.01, "gamma": 0.6, "delta": 1e-3, "tau": 100.0},
    "trials": 2,
}


@pytest.mark.parametrize(
    "name, argv, named",
    [
        ("delta_budget_sweep", ["--config", "{tmp}/missing.json"], "config file not found: {tmp}/missing.json"),
        ("delta_budget_sweep", ["--config", "{tmp}/empty.json", "--points", "2", "--trials", "2"],
         "admissible delta window is empty: [0.2252, 2.887e-06]; raise gamma or loosen alpha/tau"),
        ("run_benchmarks", ["--configs", "{tmp}/bad*.json"], "{tmp}/bad.json: line 1, column 2"),
    ],
)
def test_scripts_report_a_bad_config_like_the_command_line(tmp_path, name, argv, named):
    (tmp_path / "empty.json").write_text(json.dumps(EMPTY_WINDOW))
    (tmp_path / "bad.json").write_text("{not json\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py"), *(arg.format(tmp=tmp_path) for arg in argv)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 3
    assert run.stderr.startswith(f"configuration error: {named.format(tmp=tmp_path)}")
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize(
    "name, argv, named",
    [
        ("delta_budget_sweep", ["--config", "{tmp}/configs"], "i/o error: "),
        ("delta_budget_sweep", ["--config", "{tmp}/nan.json", "--points", "2", "--trials", "2"],
         "configuration error: matrix entries must be finite"),
        ("calibrate_jordan_band", ["--sizes", "0", "--trials", "5"],
         "configuration error: matrix size must be >= 1, got 0"),
        ("run_benchmarks", ["--configs", "{tmp}/only_dir/*.json"], "i/o error: "),
        ("calibrate_jordan_band", ["--sizes", "5", "--trials", "0"], "configuration error: trials must be >= 1, got 0"),
        ("delta_budget_sweep", ["--points", "0", "--trials", "2"],
         "configuration error: points must be >= 1, got 0"),
    ],
    ids=["sweep-config-is-a-directory", "sweep-nan-matrix-cell", "calibrate-size-zero", "benchmarks-glob-hits-a-directory",
         "calibrate-trials-zero", "sweep-points-zero"],
)
def test_scripts_exit_through_the_command_line_error_path(tmp_path, name, argv, named):
    (tmp_path / "configs").mkdir()
    (tmp_path / "only_dir" / "run.json").mkdir(parents=True)
    (tmp_path / "nan.csv").write_text("2\nnan:0,0:0\n0:0,1:0\n")
    custom = {"matrix": {"kind": "custom", "n": 2, "path": str(tmp_path / "nan.csv")}, "model": "complex_ginibre"}
    (tmp_path / "nan.json").write_text(json.dumps(custom))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py"), *(arg.format(tmp=tmp_path) for arg in argv)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 3
    assert run.stderr.startswith(named)
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("name", ["delta_budget_sweep", "run_benchmarks"])
def test_scripts_take_no_worker_count(monkeypatch, capsys, name):
    monkeypatch.setattr(sys, "argv", [f"{name}.py", "--workers", "1"])
    with pytest.raises(SystemExit) as exc:
        load_script(name).main()
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 1" in capsys.readouterr().err
