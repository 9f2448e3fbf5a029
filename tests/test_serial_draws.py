"""The one-BLAS-thread pin of mc, sweep and field runs, and the noise helper process of a serial run."""

import json
import os
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from logdet_equiv import (
    ExperimentConfig,
    MatrixSpec,
    NumericalError,
    ParamConfig,
    ZGrid,
    cli,
    experiments,
    log_potential_field,
    run_theorem1,
    run_theorem2,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(experiments.__file__).resolve().parents[1])

needs_pin = pytest.mark.skipif(
    experiments._openblas_threads() is None or not hasattr(os, "fork"),
    reason="no loaded OpenBLAS exports scipy_openblas_set_num_threads64_ (or no os.fork): nothing is pinned "
    "and no helper runs",
)

SINGLE = ExperimentConfig(
    matrix=MatrixSpec(kind="jordan", n=12, shift=0.3 + 0.2j),
    model="complex_ginibre",
    params=ParamConfig(alpha=0.5, gamma=4.0, delta=1e-4),
    trials=5,
    seed=17,
)
SWEEP = ExperimentConfig(
    matrix=MatrixSpec(kind="jordan", n=8), model="complex_ginibre", trials=3, seed=5, mode="sweep", n_list=(8, 12, 16)
)
FIELD = ExperimentConfig(
    matrix=MatrixSpec(kind="jordan", n=10),
    model="complex_ginibre",
    params=ParamConfig(alpha="auto", delta=1e-6),
    trials=3,
    seed=23,
    mode="field",
    z_grid=ZGrid(re_min=-1.0, re_max=1.0, im_min=-1.0, im_max=1.0, steps=2),
)


def run_cli(argv, threads):
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
        "OPENBLAS_NUM_THREADS": threads,
    }
    run = subprocess.run([sys.executable, "-m", "logdet_equiv.cli", *argv], cwd=ROOT, env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def counted_forks(monkeypatch) -> list:
    """The pids of the helpers forked from now on, as the main process sees them."""
    pids, fork = [], experiments._fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(experiments, "_fork", counted)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_pin
@pytest.mark.parametrize(
    "argv, artifact",
    [
        (["mc", "--matrix", "jordan", "--n", "200", "--alpha", "0.5", "--gamma", "4", "--delta", "1e-9",
          "--trials", "6", "--seed", "3", "--diagnostics"], "records.csv"),
        (["field", "--config", "configs/field_jordan.json", "--n", "200", "--steps", "2", "--trials", "3"],
         "field.csv"),
    ],
)
def test_outputs_depend_on_neither_the_workers_nor_the_blas_threads(tmp_path, argv, artifact):
    # At N = 200 an LU or an SVD at two BLAS threads differs from one thread in its last bits.
    outputs = set()
    for threads in ("1", "2"):
        for workers in ("1", "2"):
            prefix = tmp_path / f"threads{threads}-workers{workers}"
            run_cli([*argv, "--workers", workers, "--out", str(prefix)], threads)
            summary = json.loads(Path(f"{prefix}_summary.json").read_text(encoding="utf-8"))
            del summary["config"]["output"]
            outputs.add((Path(f"{prefix}_{artifact}").read_bytes(), json.dumps(summary)))
    assert len(outputs) == 1


@needs_pin
def test_every_run_mode_pins_one_blas_thread_and_restores_the_count(monkeypatch):
    (get, set_), log_abs_det, counts = experiments._openblas_threads(), experiments.log_abs_det, []

    def counted(m):
        counts.append(get())
        return log_abs_det(m)

    monkeypatch.setattr(experiments, "log_abs_det", counted)
    old = get()
    set_(2)
    try:
        before = get()
        for workers in (1, 2):
            run_theorem2(SINGLE, workers=workers)
            run_theorem1(SWEEP, workers=workers)
            log_potential_field(FIELD, workers=workers)
        with pytest.raises(NumericalError, match="overflows"):
            log_potential_field(replace(FIELD, params=ParamConfig(alpha="auto", delta=1e308)), workers=1)
        assert get() == before
    finally:
        set_(old)
    assert counts and set(counts) == {1}


@needs_pin
def test_a_serial_run_draws_in_one_helper_per_run_step_or_field(monkeypatch):
    pids = counted_forks(monkeypatch)
    drawn_here = []
    sample = experiments.sample

    def recorded(*args, **kwargs):
        drawn_here.append(os.getpid())  # the helper appends to its own copy of the list
        return sample(*args, **kwargs)

    monkeypatch.setattr(experiments, "sample", recorded)
    serial = [run_theorem2(SINGLE), run_theorem1(SWEEP), log_potential_field(FIELD)]
    assert len(pids) == 1 + len(SWEEP.n_list) + 1
    assert drawn_here == []
    run_theorem2(replace(SINGLE, trials=1))  # one draw: no helper
    assert len(pids) == 5 and drawn_here == [os.getpid()]
    assert_no_child_left()
    pooled = [run_theorem2(SINGLE, workers=2), run_theorem1(SWEEP, workers=2), log_potential_field(FIELD, workers=2)]
    assert serial == pooled
    assert len(pids) == 5


@needs_pin
def test_a_field_run_that_raises_leaves_no_child(monkeypatch, tmp_path, capsys):
    pids = counted_forks(monkeypatch)
    argv = ["field", "--matrix", "jordan", "--n", "8", "--delta", "1e308", "--trials", "2", "--re-min", "-1",
            "--re-max", "1", "--im-min", "-1", "--im-max", "1", "--steps", "2", "--workers", "1",
            "--out", str(tmp_path / "f")]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == "configuration error: A + delta G overflows a float at delta = 1e+308\n"
    assert len(pids) == 1
    assert_no_child_left()


@needs_pin
def test_a_helper_that_dies_before_its_first_draw_fails_the_run(monkeypatch, capsys):
    def no_noise(*args, **kwargs):
        raise RuntimeError("no noise")

    # The main process of a serial run never calls sample, so only the helper meets this.
    monkeypatch.setattr(experiments, "sample", no_noise)
    with pytest.raises(NumericalError, match=r"^the noise helper process exited before trial 0 of work unit 0$"):
        run_theorem2(SINGLE)
    assert_no_child_left()
    argv = ["mc", "--matrix", "jordan", "--n", "8", "--delta", "0", "--trials", "3", "--workers", "1"]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err == "configuration error: the noise helper process exited before trial 0 of work unit 0\n"
    assert_no_child_left()


def test_fork_drops_only_the_multithreaded_fork_warning():
    # Python >= 3.12 emits this from os.fork while /proc/self/stat counts a second thread; the text is CPython's.
    text = "This process (pid=4321) is multi-threaded, use of fork() may lead to deadlocks in the child."
    assert re.fullmatch(experiments._FORK_WARNING, text)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pid = experiments._fork()
            if pid == 0:
                os._exit(0)
            os.waitpid(pid, 0)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_importing_the_package_loads_no_process_machinery():
    # What a run imports only when it forks a helper stays out of the package's import time.
    code = (
        "import sys\nimport logdet_equiv\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures.process', 'mmap') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
