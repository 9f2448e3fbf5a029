"""The one-BLAS-thread pin of every sampling run, and the noise helper process of a serial run."""

import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from logdet_equiv import (
    ExperimentConfig,
    MatrixSpec,
    NumericalError,
    ParamConfig,
    ZGrid,
    cli,
    ensembles,
    experiments,
    grushin,
    linalg,
    log_potential_field,
    noise,
    run_grushin_suite,
    run_theorem1,
    run_theorem2,
    sample,
    substream_seed,
    write_matrix_csv,
)

from helpers import assert_no_child_left, load_script

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(experiments.__file__).resolve().parents[1])

needs_pin = pytest.mark.skipif(
    linalg._openblas_threads() is None or not hasattr(os, "fork"),
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
GRUSHIN = ExperimentConfig(
    matrix=MatrixSpec(kind="diagonal", n=12, diag=((2.0, 10), (0.0, 2))),
    model="complex_ginibre",
    params=ParamConfig(alpha=1.0, gamma=4.0, delta=1e-8),
    trials=4,
    seed=909,
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
    return run.stdout


@pytest.fixture
def sets_at_two_threads(monkeypatch):
    """The thread counts set on OpenBLAS while the test runs at two BLAS threads; the old count is restored after."""
    get, set_ = linalg._openblas_threads()
    sets, old = [], get()

    def counted(threads):
        sets.append(threads)
        set_(threads)

    monkeypatch.setattr(linalg, "_openblas_threads", lambda: (get, counted))
    set_(2)
    yield sets
    set_(old)


def counted_forks(monkeypatch) -> list:
    """The pids of the helpers forked from now on, as the main process sees them."""
    pids, fork = [], noise._fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(noise, "_fork", counted)
    return pids


@needs_pin
@pytest.mark.parametrize(
    "argv, artifact",
    [
        (["mc", "--matrix", "jordan", "--n", "200", "--alpha", "0.5", "--gamma", "4", "--delta", "1e-9",
          "--trials", "6", "--seed", "3", "--diagnostics"], "records.csv"),
        (["field", "--config", "configs/field_jordan.json", "--n", "200", "--steps", "2", "--trials", "3"],
         "field.csv"),
        (["grushin-verify", "--config", "configs/grushin_diag.json"], "checks.json"),
        (["equiv", "--matrix", "file:{tmp}/dense400.csv", "--n", "400"], None),
        (["mc", "--matrix", "jordan", "--n", "200", "--alpha", "0.5", "--gamma", "4", "--delta", "1e-9",
          "--trials", "6", "--seed", "3", "--probe-eps"], "records.csv"),
        (["probe-noise", "--n", "200", "--trials", "100", "--n-list", "100,200"], "probes.csv"),
        # One draw loop holds both steps, so its ring slots hold G of two sizes.
        (["sweep", "--matrix", "jordan", "--n", "100", "--n-list", "100,200", "--trials", "3", "--gamma", "1",
          "--diagnostics"], "records.csv"),
    ],
)
def test_outputs_depend_on_neither_the_workers_nor_the_blas_threads(tmp_path, argv, artifact):
    # At N = 200 an LU or an SVD at two BLAS threads differs from one thread in its last bits; at N = 400 so
    # does the cutoff that equiv reads off a dense spectrum.
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if artifact is None:
        write_matrix_csv(sample("complex_ginibre", 400, 3) / 20, tmp_path / "dense400.csv")
    outputs = set()
    for threads in ("1", "2"):
        if artifact is None:  # equiv samples nothing and takes no --workers
            outputs.add(run_cli(argv, threads))
            continue
        probes = argv[0] == "probe-noise"  # which takes no --workers, and whose summary holds no config
        for workers in [[]] if probes else [["--workers", "1"], ["--workers", "2"]]:
            prefix = tmp_path / f"threads{threads}-workers{''.join(workers)}"
            stdout = run_cli([*argv, *workers, "--out", str(prefix)], threads)
            summary = json.loads(Path(f"{prefix}_summary.json").read_text(encoding="utf-8"))
            if not probes:
                del summary["config"]["output"]
            outputs.add((stdout.replace(str(prefix), "PREFIX"), Path(f"{prefix}_{artifact}").read_bytes(),
                         json.dumps(summary)))
    assert len(outputs) == 1


@needs_pin
def test_every_run_mode_pins_one_blas_thread_and_restores_the_count(monkeypatch, tmp_path):
    (get, set_), counts = linalg._openblas_threads(), []

    def counted(module, name):
        original = getattr(module, name)

        def call(m):
            counts.append(get())
            return original(m)

        monkeypatch.setattr(module, name, call)

    # Each mode's LUs, the SVDs of the probe-noise probes, and the spectra.
    for module, name in ((experiments, "log_abs_det"), (grushin, "log_abs_det"), (noise, "operator_norm"),
                         (noise, "smallest_singular_value"), (ensembles, "singular_values")):
        counted(module, name)
    old = get()
    set_(2)
    try:
        before = get()
        # With the helper, and with the draws taken in this process as where os.fork is missing.
        for draws_here in (False, True):
            if draws_here:
                monkeypatch.delattr(os, "fork")
            run_theorem2(SINGLE)
            run_theorem2(SINGLE, diagnostics=True)
            run_theorem1(SWEEP)
            log_potential_field(FIELD)
            run_grushin_suite(GRUSHIN)
            # The probes called from Python, outside any run.
            noise.norm_growth_probe("complex_ginibre", [4, 8], 3, 0)
            noise.markov_tail_check("complex_ginibre", 4, 100, [2.0])
            noise.anti_concentration_probe(np.zeros((6, 6)), "complex_ginibre", 5, [1.0], 0, delta=1.0, gamma=1.0)
        assert cli.main(["probe-noise", "--n", "12", "--trials", "100", "--n-list", "4,8",
                         "--out", str(tmp_path / "p")]) == 0
        spectra = len(counts)
        assert cli.main(["equiv", "--matrix", "bidiag:0.3711,0.9137", "--n", "12"]) == 0  # a spectrum not cached
        assert len(counts) == spectra + 1
        # A dense spectrum taken outside any run, as scripts/delta_budget_sweep.py takes it.
        write_matrix_csv(sample("complex_ginibre", 6, 1), tmp_path / "dense6.csv")
        ensembles.spectrum_of(MatrixSpec(kind="custom", n=6, path=str(tmp_path / "dense6.csv")))
        assert len(counts) == spectra + 2
        with pytest.raises(NumericalError, match="overflows"):
            log_potential_field(replace(FIELD, params=ParamConfig(alpha="auto", delta=1e308)))
        with pytest.raises(NumericalError, match="overflows"):
            run_grushin_suite(replace(GRUSHIN, params=replace(GRUSHIN.params, delta=1e308)))
        assert get() == before
    finally:
        set_(old)
    assert counts and set(counts) == {1}


@needs_pin
def test_a_probe_called_from_python_is_pinned_and_forks_at_any_blas_thread_count(monkeypatch):
    # At N = 200 an SVD at two BLAS threads differs from one thread in its last bits.
    pids, (get, set_), results = counted_forks(monkeypatch), linalg._openblas_threads(), []
    old = get()
    try:
        for threads in (2, 1):
            set_(threads)
            before = len(pids)
            results.append(noise.norm_growth_probe("complex_ginibre", [100, 200], 3, 0))
            assert len(pids) - before == 1
            assert get() == threads
    finally:
        set_(old)
    assert results[0] == results[1]
    assert_no_child_left()


@needs_pin
def test_a_sweep_and_the_growth_probe_set_the_blas_threads_once_to_pin_and_once_to_restore(sets_at_two_threads):
    # Each opens one draw loop for all its sizes, so one pin holds them all.
    sets = sets_at_two_threads
    run_theorem1(SWEEP)
    assert sets == [1, 2]
    sets.clear()
    noise.norm_growth_probe("complex_ginibre", [4, 8, 12], 3, 0)
    assert sets == [1, 2]


@needs_pin
def test_the_calibration_script_draws_all_its_sizes_in_one_loop(monkeypatch, capsys, sets_at_two_threads):
    pids = counted_forks(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["calibrate_jordan_band.py", "--trials", "50"])  # at its three default sizes
    load_script("calibrate_jordan_band").main()
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()[2:5]] == ["20", "50", "100"]
    assert len(pids) == 1 and sets_at_two_threads == [1, 2]
    assert_no_child_left()


@needs_pin
@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: noise.norm_growth_probe("complex_ginibre", [4, 8], 2, -1), "seed must be >= 0, got -1"),
        (lambda: noise.norm_growth_probe("complex_ginibre", [0, 4], 2, 0), "matrix size must be >= 1, got 0"),
        (lambda: noise.anti_concentration_probe(np.zeros((4, 4)), "complex_ginibre", -1, [1.0], 0),
         "trials must be >= 0, got -1"),
    ],
    ids=["seed", "size", "anti-concentration-trials"],
)
def test_a_plan_that_cannot_be_drawn_fails_before_the_pin_and_the_fork(monkeypatch, sets_at_two_threads, call, error):
    pids = counted_forks(monkeypatch)
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        call()
    assert pids == [] and sets_at_two_threads == []


@needs_pin
def test_the_main_process_never_imports_numpy_random():
    # Only the helper draws; a plan rejected before the fork draws nothing either.  numpy.random costs about 5 MB of RSS.
    code = """
import sys
from logdet_equiv import ExperimentConfig, MatrixSpec, noise, run_theorem2
run_theorem2(ExperimentConfig(matrix=MatrixSpec(kind="jordan", n=12), model="complex_ginibre", trials=3))
noise.norm_growth_probe("complex_ginibre", [4, 8], 2, 0)
for seed, sizes in ((-1, [4, 8]), (0, [0, 4])):
    try:
        noise.norm_growth_probe("complex_ginibre", sizes, 2, seed)
    except ValueError:
        pass
print("numpy.random" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def test_no_run_imports_numpy_ma():
    # np.median, np.quantile and np.unique import numpy.ma (about 13 ms) on their first call; the summaries of mc and
    # sweep, the auto cutoff of field and the probes' quantiles take the same values without them.
    code = """
import sys
from logdet_equiv import ExperimentConfig, MatrixSpec, ParamConfig, ZGrid, log_potential_field, noise
from logdet_equiv import run_theorem1, run_theorem2
run_theorem2(ExperimentConfig(matrix=MatrixSpec(kind="jordan", n=12), model="complex_ginibre", trials=3))
run_theorem1(ExperimentConfig(matrix=MatrixSpec(kind="jordan", n=8), model="complex_ginibre", trials=3, mode="sweep",
                              n_list=(8, 12)))
log_potential_field(ExperimentConfig(
    matrix=MatrixSpec(kind="jordan", n=10), model="complex_ginibre", params=ParamConfig(alpha="auto", delta=1e-6),
    trials=2, mode="field", z_grid=ZGrid(re_min=-1.0, re_max=1.0, im_min=-1.0, im_max=1.0, steps=2)))
noise.norm_growth_probe("complex_ginibre", [4, 8], 2, 0)
print("numpy.ma" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


@needs_pin
def test_the_rescaled_anti_concentration_probe_draws_each_g_once(monkeypatch):
    d, args = np.zeros((20, 20)), ("complex_ginibre", 10, [1.0], 0)
    # The reference: the plain probe, and the rescaled frequencies on draws of their own.
    rescaled = noise._rescaled_frequencies(d, "complex_ginibre", 10, [1.0], 0, 1.0, 1.0)
    expected = {**noise.anti_concentration_probe(d, *args).summary, "rescaled_frequencies": rescaled}
    pids = counted_forks(monkeypatch)
    with linalg._one_blas_thread():
        assert noise.anti_concentration_probe(d, *args, delta=1.0, gamma=1.0).summary == expected
    assert len(pids) == 1
    assert_no_child_left()
    drawn, sample = [], noise.sample

    def counted(*a, **kwargs):
        drawn.append(a)
        return sample(*a, **kwargs)

    monkeypatch.setattr(noise, "sample", counted)
    monkeypatch.delattr(os, "fork")
    assert noise.anti_concentration_probe(d, *args, delta=1.0, gamma=1.0).summary == expected
    assert len(drawn) == 10


@needs_pin
def test_a_serial_run_draws_in_one_helper_per_run_or_probe(monkeypatch, tmp_path):
    pids = counted_forks(monkeypatch)
    drawn_here, normed_here = [], []  # the helper appends to its own copies of the lists
    sample, operator_norm, invert_perturbed = noise.sample, experiments.operator_norm, experiments.invert_perturbed

    def recorded(*args, **kwargs):
        drawn_here.append(os.getpid())
        return sample(*args, **kwargs)

    def recorded_norm(g):
        normed_here.append(os.getpid())
        return operator_norm(g)

    def inverted(*args, norm_g=None, **kwargs):
        if norm_g is None:  # invert_perturbed takes ||G|| itself
            normed_here.append(os.getpid())
        return invert_perturbed(*args, norm_g=norm_g, **kwargs)

    monkeypatch.setattr(noise, "sample", recorded)
    monkeypatch.setattr(experiments, "operator_norm", recorded_norm)
    monkeypatch.setattr(experiments, "invert_perturbed", inverted)
    runs = [
        lambda: run_theorem2(SINGLE),
        lambda: run_theorem1(SWEEP),
        lambda: log_potential_field(FIELD),
        lambda: run_theorem2(SINGLE, diagnostics=True),
        lambda: run_grushin_suite(GRUSHIN),
    ]
    runs.append(lambda: run_theorem2(replace(SINGLE, trials=1)))  # one draw opens a helper like any run

    def probe_noise():
        prefix = tmp_path / "probe"
        assert cli.main(["probe-noise", "--n", "12", "--trials", "100", "--n-list", "4,8", "--out", str(prefix)]) == 0
        return [Path(f"{prefix}_{suffix}").read_bytes() for suffix in ("probes.csv", "summary.json")]

    # The anti-concentration probe of --probe-eps opens one more helper; probe-noise one for the growth probe at
    # all its sizes, one for the tail probe and one for the anti-concentration probe.
    runs.extend([lambda: run_theorem2(replace(SINGLE, probe_eps=True)), probe_noise])
    helped = [run() for run in runs]
    assert len(pids) == 1 + 1 + 1 + 1 + 1 + 1 + 2 + 3
    assert drawn_here == [] and normed_here == []
    assert_no_child_left()
    # The reference: every draw taken in this process, as where os.fork is missing.
    monkeypatch.delattr(os, "fork")
    assert [run() for run in runs] == helped
    assert len(pids) == 11 and drawn_here


@needs_pin
def test_where_the_helper_measures_each_slot_leaves_the_main_process_once_its_trial_is_done(monkeypatch):
    import mmap

    here, events, write = os.getpid(), [], os.write

    class Recorded(mmap.mmap):
        def madvise(self, *args):
            events.append(("release", *args))
            return super().madvise(*args)

    def recorded_write(fd, data):
        if data == b"\0" and os.getpid() == here:  # a slot's token returned to the helper
            events.append("token")
        return write(fd, data)

    monkeypatch.setattr(mmap, "mmap", Recorded)
    monkeypatch.setattr(os, "write", recorded_write)
    slot = mmap.PAGESIZE  # one page holds an 8 x 8 complex128 G
    for measure in ((1, lambda g: [linalg.operator_norm(g)]), None):
        events.clear()
        with noise._serial_draws("complex_ginibre", 31, 3, [(0, 8)], measure) as draws:
            for k, (sub, g, _) in enumerate(draws):
                assert sub == substream_seed(31, 0, k)
                assert g.tobytes() == sample("complex_ginibre", 8, sub).tobytes()
                events.append(("trial", k))
        if measure is None:  # a trial of a plain loop pays no fault on its slot
            assert events == [("trial", 0), "token", ("trial", 1), "token", ("trial", 2), "token"]
        else:  # the pages go, their contents stay for the helper and the next read
            release = mmap.MADV_DONTNEED
            assert events == [("trial", 0), ("release", release, 0, slot), "token",
                              ("trial", 1), ("release", release, slot, slot), "token",
                              ("trial", 2), ("release", release, 0, slot), "token"]
    assert_no_child_left()


@needs_pin
def test_a_measurement_the_helper_cannot_take_is_taken_here(monkeypatch):
    expected = [run_grushin_suite(GRUSHIN), run_theorem2(SINGLE, diagnostics=True)]
    here, operator_norm = os.getpid(), experiments.operator_norm

    def fails(a):
        raise RuntimeError("no values")

    # The suite's own SVDs go through grushin's names, so only the helper meets this one.
    monkeypatch.setattr(experiments, "singular_values", fails)
    assert run_grushin_suite(GRUSHIN) == expected[0]
    # A NaN is no value either.
    monkeypatch.setattr(experiments, "operator_norm", lambda g: operator_norm(g) if os.getpid() == here else math.nan)
    assert [run_grushin_suite(GRUSHIN), run_theorem2(SINGLE, diagnostics=True)] == expected
    assert_no_child_left()


@needs_pin
@pytest.mark.parametrize(
    "argv, error",
    [
        (["field", "--matrix", "jordan", "--n", "8", "--delta", "1e308", "--trials", "2", "--re-min", "-1",
          "--re-max", "1", "--im-min", "-1", "--im-max", "1", "--steps", "2", "--workers", "1"],
         "A + delta G overflows a float at delta = 1e+308"),
        # The second step raises while the helper is already drawing that step's trials.
        (["sweep", "--matrix", "diag:2x6,0x2", "--n", "8", "--n-list", "8,12", "--trials", "3", "--gamma", "1",
          "--workers", "1"], "cannot resize a diagonal spec with fixed entries"),
    ],
    ids=["field", "sweep"],
)
def test_a_field_run_that_raises_leaves_no_child(monkeypatch, tmp_path, capsys, argv, error):
    pids = counted_forks(monkeypatch)
    assert cli.main([*argv, "--out", str(tmp_path / "f")]) == 3
    assert capsys.readouterr().err == f"configuration error: {error}\n"
    assert len(pids) == 1
    assert_no_child_left()


@needs_pin
def test_a_helper_that_dies_before_its_first_draw_fails_the_run(monkeypatch, capsys):
    def no_noise(*args, **kwargs):
        raise RuntimeError("no noise")

    # The main process of a serial run never calls sample, so only the helper meets this.
    monkeypatch.setattr(noise, "sample", no_noise)
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
    assert re.fullmatch(noise._FORK_WARNING, text)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pid = noise._fork()
            if pid == 0:
                os._exit(0)
            os.waitpid(pid, 0)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_importing_the_package_loads_no_process_machinery():
    # What a run imports only when it forks a helper, and the executors no run uses, stay out of the package's
    # import time.
    code = (
        "import sys\nimport logdet_equiv\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures', 'concurrent.futures.process', 'mmap')"
        " if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
