"""Smoke tests for the scripts under scripts/."""

import importlib.util
import math
import pathlib
import sys

import numpy as np

from logdet_equiv import MatrixSpec, realize, sample, substream_seed

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibration_samples_are_the_jordan_trials():
    n, delta, trials, seed = 8, 1e-8, 20, 1
    x = load_script("calibrate_jordan_band").x_samples(n, delta, trials, seed)
    a = realize(MatrixSpec(kind="jordan", n=n))
    expected = []
    for k in range(trials):
        g = sample("complex_ginibre", n, substream_seed(seed, n, k))
        _, logdet = np.linalg.slogdet(a + delta * g)
        expected.append(n * (float(logdet) / n) - math.log(delta))
    np.testing.assert_array_equal(x, expected)


def test_delta_budget_sweep_prints_one_row_per_point(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "argv", ["delta_budget_sweep.py", "--points", "2", "--trials", "2", "--workers", "1"])
    load_script("delta_budget_sweep").main()
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("N = 200, alpha = ")
    assert lines[1].split() == ["delta", "median_err", "q95_err", "budget", "within"]
    rows = lines[2:]
    assert len(rows) == 2
    assert all(len(row.split()) == 5 for row in rows)
