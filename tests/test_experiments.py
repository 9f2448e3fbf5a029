"""Tests for the experiment harness: runs, serialization, reproducibility."""

import json
import math
import pathlib
import re
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdet_equiv import (
    ConfigError,
    ExperimentConfig,
    FieldPoint,
    MatrixSpec,
    ParamConfig,
    ParameterError,
    ZGrid,
    config_from_dict,
    config_to_dict,
    error_budget,
    log_potential_field,
    read_config,
    run_grushin_suite,
    run_theorem1,
    run_theorem2,
    read_matrix_csv,
    realize,
    substream_seed,
    write_config,
    write_matrix_csv,
    write_results,
)
import logdet_equiv
from logdet_equiv import ensembles, equivalents, experiments, grushin, linalg, noise
from logdet_equiv.experiments import FIELD_COLUMNS, PROBE_COLUMNS, RECORD_COLUMNS
from logdet_equiv.grushin import NEUMANN_TERMS, build_grushin
from logdet_equiv.linalg import log_abs_det, operator_norm, smallest_singular_value
from logdet_equiv.noise import anti_concentration_probe, markov_tail_check, norm_growth_probe, sample

from helpers import full_depth_neumann_blocks

JORDAN_64 = MatrixSpec(kind="jordan", n=64)
SHIFTED_ZERO = MatrixSpec(kind="zero", n=32, shift=2.0)
RANK_DEFICIENT = MatrixSpec(kind="diagonal", n=12, diag=((2.0, 9), (0.0, 3)))


def single_config(**overrides):
    base = dict(
        matrix=RANK_DEFICIENT,
        model="complex_ginibre",
        params=ParamConfig(alpha=1.0, gamma=4.0, delta=1e-4, tau=10.0),
        trials=4,
        seed=11,
        mode="single",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config objects


def test_zgrid_points_row_major():
    grid = ZGrid(re_min=0.0, re_max=1.0, im_min=2.0, im_max=3.0, steps=2)
    assert grid.points() == [0 + 2j, 1 + 2j, 0 + 3j, 1 + 3j]


def test_zgrid_validation():
    with pytest.raises(ConfigError):
        ZGrid(0.0, 1.0, 0.0, 1.0, steps=0)
    with pytest.raises(ConfigError):
        ZGrid(1.0, 0.0, 0.0, 1.0, steps=2)


def test_param_config_resolve_explicit_alpha():
    singvals = np.array([1.0] * 63 + [0.0])
    params = ParamConfig(alpha=0.5, delta=0.0).resolve(singvals, 64)
    assert params.alpha == 0.5
    assert params.m == 1
    assert params.nu_n == pytest.approx(math.log(64) / 64)


def test_param_config_resolve_auto_alpha():
    singvals = np.array([1.0] * 63 + [0.0])
    params = ParamConfig(alpha="auto").resolve(singvals, 64)
    assert params.alpha == 0.5  # midpoint of the only spectral gap


def test_param_config_auto_failure_is_config_error():
    with pytest.raises(ConfigError):
        run_theorem2(single_config(matrix=MatrixSpec(kind="zero", n=16), params=ParamConfig(alpha="auto")))


def test_param_config_rejects_unknown_alpha_string():
    with pytest.raises(ConfigError):
        ParamConfig(alpha="automatic")


@pytest.mark.parametrize(
    "overrides",
    [
        dict(model="white_noise"),
        dict(trials=0),
        dict(seed=-1),
        dict(seed=2**64),
        dict(mode="scan"),
        dict(convention="both"),
        dict(mode="sweep"),  # no N_list
        dict(mode="sweep", n_list=(100, 100)),
        dict(n_list=(10, 20)),  # N_list outside sweep mode
        dict(mode="field"),  # no z_grid
        dict(z_grid=ZGrid(0, 1, 0, 1, 2)),  # grid outside field mode
    ],
)
def test_experiment_config_validation(overrides):
    with pytest.raises(ConfigError):
        single_config(**overrides)


def test_field_mode_requires_unshifted_matrix():
    with pytest.raises(ConfigError):
        single_config(matrix=SHIFTED_ZERO, mode="field", z_grid=ZGrid(0, 1, 0, 1, 2))


# ---------------------------------------------------------------------------
# run_theorem2


def test_theorem2_mode_gate():
    config = single_config(mode="sweep", n_list=(4, 8))
    with pytest.raises(ConfigError):
        run_theorem2(config)


def test_theorem2_noiseless_run_is_exact():
    # delta = 0 on a diagonal of 2s and 0s with alpha = 1: lhs = rhs = the
    # retained mean log, every error is exactly zero, flagged outside the
    # theorem's noise window.
    config = single_config(params=ParamConfig(alpha=1.0, delta=0.0))
    records, summary = run_theorem2(config)
    assert summary["outside_theorem"] is True
    assert summary["rhs"] == pytest.approx(9 * math.log(2.0) / 12, abs=1e-15)
    assert all(r.lhs == -math.inf for r in records)  # zero rows stay singular
    # With noise the determinant is finite again.
    noisy = single_config(params=ParamConfig(alpha=1.0, delta=1e-4, gamma=4.0))
    records, summary = run_theorem2(noisy)
    assert summary["outside_theorem"] is False
    assert all(math.isfinite(r.lhs) for r in records)


def test_theorem2_exact_on_nonsingular_spectrum():
    config = single_config(
        matrix=MatrixSpec(kind="diagonal", n=8, diag=((2.0, 8),)),
        params=ParamConfig(alpha=1.0, delta=0.0),
        trials=3,
    )
    records, summary = run_theorem2(config)
    assert summary["rhs"] == math.log(2.0)  # power-of-two size: exact mean
    assert all(r.error == 0.0 for r in records)
    assert summary["success_frequency"] == 1.0


def test_theorem2_rejects_delta_outside_window():
    with pytest.raises(ConfigError, match="outside the admissible window"):
        run_theorem2(single_config(params=ParamConfig(alpha=1.0, delta=1e-12, gamma=4.0)))


def test_theorem2_rejects_empty_window():
    # gamma barely above 1/2 forces N^-gamma above the headroom ceiling.
    with pytest.raises(ConfigError, match="window is empty"):
        run_theorem2(single_config(params=ParamConfig(alpha=0.01, delta=1e-3, gamma=0.6, tau=100.0)))


def test_theorem2_records_are_reproducible():
    config = single_config()
    records_a, _ = run_theorem2(config)
    records_b, _ = run_theorem2(config)
    assert records_a == records_b
    assert [r.seed_used for r in records_a] == [substream_seed(11, 0, k) for k in range(4)]


def test_theorem2_worker_count_does_not_change_results():
    config = single_config(trials=8)
    records_1, summary_1 = run_theorem2(config, workers=1)
    records_4, summary_4 = run_theorem2(config, workers=4)
    assert records_1 == records_4
    assert summary_1["error"] == summary_4["error"]


def _fresh_trial(config, a, delta, block, k):
    """``_trial``'s values recomputed from a fresh draw and ``a + delta * g``."""
    n = a.shape[0]
    g = sample(config.model, n, substream_seed(config.seed, block, k))
    a_delta = a + delta * g
    return log_abs_det(a_delta) / n, operator_norm(g), smallest_singular_value(a_delta)


def test_trial_reuses_one_buffer_per_thread_bitwise():
    config = single_config(seed=5)
    delta = 1e-3
    buffers = threading.local()
    for n in (8, 12, 8):
        a = realize(MatrixSpec(kind="jordan", n=n, shift=0.3 + 0.2j))
        ids = set()
        for k in range(3):
            lhs, norm_g, s_min = _fresh_trial(config, a, delta, 2, k)
            expected = (substream_seed(5, 2, k), lhs, math.nan, math.nan)
            assert experiments._trial(config, a, delta, 2, k) == expected
            assert experiments._trial(config, a, delta, 2, k, buffers=buffers) == expected
            assert experiments._trial(config, a, delta, 2, k, True, buffers)[1:] == (lhs, norm_g, s_min)
            ids.add(id(buffers.g))
        assert len(ids) == 1 and buffers.g.shape == (n, n)
    a = realize(MatrixSpec(kind="jordan", n=12))
    pool_buffers = threading.local()

    def trial(k):
        return experiments._trial(config, a, delta, 1, k, False, pool_buffers)[1]

    pooled = experiments._map_indexed(trial, 10, 2)
    assert pooled == [_fresh_trial(config, a, delta, 1, k)[0] for k in range(10)]
    assert run_theorem2(config, workers=1, diagnostics=True) == run_theorem2(config, workers=2, diagnostics=True)


def test_theorem2_probe_eps_fills_full_floor():
    config = single_config(trials=6, probe_eps=True)
    _, summary = run_theorem2(config)
    assert summary["eps_hat"] is not None
    assert summary["floor_full"] == pytest.approx(1.0 - 0.1 - summary["eps_hat"])
    # Without the probe the full floor is explicitly unavailable.
    _, summary = run_theorem2(single_config(trials=6))
    assert summary["eps_hat"] is None and summary["floor_full"] is None


def test_theorem2_probe_takes_one_svd_per_trial(monkeypatch):
    config = single_config(trials=6, probe_eps=True, params=ParamConfig(alpha=1.0, gamma=4.0, delta=1e-4, beta=0.25))
    calls = []

    def counted(a):
        calls.append(a.shape)
        return smallest_singular_value(a)

    monkeypatch.setattr(noise, "smallest_singular_value", counted)
    _, summary = run_theorem2(config)
    # s_min(A + delta G) only: the probe no longer measures s_min(A + G), which no summary reads.
    assert calls == [(12, 12)] * 6
    monkeypatch.undo()
    seed = substream_seed(config.seed, experiments.EPS_PROBE_BLOCK)
    probe = anti_concentration_probe(realize(config.matrix), config.model, 6, [0.25], seed, delta=1e-4, gamma=4.0)
    assert 0.0 < summary["eps_hat"] == probe.summary["rescaled_frequencies"][0]["frequency"] < 1.0


def test_error_bound_monotone_in_delta():
    config = single_config()
    singvals = np.array([2.0] * 9 + [0.0] * 3)
    bounds = []
    for delta in (1e-4, 5e-4, 2e-3):
        params = replace(config.params, delta=delta).resolve(singvals, 12)
        bounds.append(error_budget(params, 12).error_bound)
    assert bounds == sorted(bounds)


# ---------------------------------------------------------------------------
# run_theorem1


def sweep_config(**overrides):
    base = dict(
        matrix=MatrixSpec(kind="jordan", n=16),
        model="complex_ginibre",
        params=ParamConfig(gamma=1.0, eta=0.01),
        trials=3,
        seed=5,
        mode="sweep",
        n_list=(16, 32),
        convention="drop_all_small",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_theorem1_mode_gate():
    with pytest.raises(ConfigError):
        run_theorem1(single_config())


def test_theorem1_parameter_gates():
    with pytest.raises(ConfigError):
        run_theorem1(sweep_config(), gamma=0.5)
    with pytest.raises(ConfigError):
        run_theorem1(sweep_config(), eta=0.0)
    with pytest.raises(ConfigError):
        run_theorem1(sweep_config(), convention="other")


def test_config_and_parameter_errors_are_one_class():
    assert ConfigError is ParameterError


def test_theorem1_gates_are_those_of_the_cutoff_functions():
    # A negative gamma gets its named error before N^-gamma can overflow.
    with pytest.raises(ConfigError, match=r"gamma must exceed 1/2, got -1000.0"):
        run_theorem1(sweep_config(), gamma=-1000.0)
    with pytest.raises(ConfigError, match="eta must be positive"):
        run_theorem1(sweep_config(), eta=-1.0)
    with pytest.raises(ConfigError, match="unknown convention 'other'"):
        run_theorem1(sweep_config(), convention="other")


def test_theorem1_drop_convention_keeps_finite_rhs():
    records, summary = run_theorem1(sweep_config())
    assert summary["flagged_steps"] == 0
    for step in summary["per_N"]:
        assert step["rhs"] == 0.0  # all retained Jordan values are 1
        assert step["rhs_inclusive"] == -math.inf
        assert step["error_median"] is not None
    assert len(records) == 6


def test_theorem1_inclusive_convention_flags_infinite_rhs():
    records, summary = run_theorem1(sweep_config(convention="inclusive"))
    assert summary["flagged_steps"] == 2
    assert summary["error_medians"] == []
    assert summary["medians_strictly_decreasing"] is None
    assert all(r.rhs == -math.inf for r in records)


def test_theorem1_record_column_semantics():
    records, _ = run_theorem1(sweep_config())
    head = records[0]
    assert math.isnan(head.alpha) and math.isnan(head.error_bound) and math.isnan(head.contraction)
    assert head.within_budget is None
    assert head.m == 1  # carries N* in sweep mode
    assert head.delta == 16.0**-1.0


def test_theorem1_explicit_overrides_win():
    _, summary = run_theorem1(sweep_config(), gamma=0.8, eta=0.05, convention="inclusive")
    assert summary["gamma"] == 0.8
    assert summary["eta"] == 0.05
    assert summary["convention"] == "inclusive"


def test_theorem1_rejects_unresizable_matrix():
    with pytest.raises(ConfigError):
        run_theorem1(sweep_config(matrix=RANK_DEFICIENT))


# ---------------------------------------------------------------------------
# run_grushin_suite


def test_grushin_suite_all_checks_pass():
    checks, summary = run_grushin_suite(single_config(trials=3))
    assert summary["ok"] is True
    assert summary["checks_failed"] == 0
    assert summary["checks_total"] == len(checks)
    names = {c["check"] for c in checks}
    assert {"det_identity", "two_sided_inverse_right", "schur_identity", "neumann_agreement"} <= names
    static = [c for c in checks if c["trial"] is None]
    assert len(static) >= 3


def test_grushin_suite_worker_count_does_not_change_checks():
    # Each trial fills its own perturbed system's cached determinant and
    # block norms; a short switch interval interleaves the threads often.
    config = single_config(trials=12)
    serial, _ = run_grushin_suite(config, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded, _ = run_grushin_suite(config, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def grushin_diag_config(**overrides):
    # configs/grushin_diag.json at N = 40: the Neumann series reaches its
    # fixed point after a few of its 25 steps.
    matrix = MatrixSpec(kind="diagonal", n=40, diag=((2.0, 36), (0.0, 4)))
    params = ParamConfig(alpha=1.0, gamma=4.0, delta=1e-8, tau=10.0)
    return single_config(**{"matrix": matrix, "params": params, "trials": 4, "seed": 909, **overrides})


@pytest.mark.parametrize("workers", [1, 2])
def test_grushin_suite_matches_full_depth_neumann(monkeypatch, workers):
    config = grushin_diag_config()
    checks, summary = run_grushin_suite(config, workers=workers)
    calls = []

    def full_depth(*args):
        calls.append(args[3])
        return full_depth_neumann_blocks(*args)

    monkeypatch.setattr(experiments, "_neumann_blocks", full_depth)
    assert run_grushin_suite(config, workers=workers) == (checks, summary)
    assert calls == [NEUMANN_TERMS] * config.trials


def test_grushin_suite_takes_the_injection_norms_once(monkeypatch):
    built, norms = [], []

    def build(a, m):
        sys, blocks = build_grushin(a, m)
        built.append(sys)
        return sys, blocks

    def counted_norm(x):
        norms.extend(name for system in built for name in ("r_plus", "r_minus") if x is getattr(system, name))
        return operator_norm(x)

    config = grushin_diag_config(trials=3)
    expected = run_grushin_suite(config)
    monkeypatch.setattr(experiments, "build_grushin", build)
    monkeypatch.setattr(grushin, "operator_norm", counted_norm)
    assert run_grushin_suite(config) == expected
    assert len(built) == 1 and built[0].m == 4
    assert sorted(norms) == ["r_minus", "r_plus"]


def test_grushin_suite_footprint():
    # Peak traced bytes of a run, in N x N complex arrays of 16 N^2 bytes.  A trial holds about 12: A, the
    # SVD's two factors, E, G, A + delta G, the direct E^d, the Horner loop's four, and E S_K formed before
    # they go.  The static checks' arrays are gone before the first trial, and a Horner step allocates one.
    n = 80
    config = grushin_diag_config(matrix=MatrixSpec(kind="diagonal", n=n, diag=((2.0, 72), (0.0, 8))))
    run_grushin_suite(config)  # warm-up: lazy imports and first-call set-up stay out of the reading
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        run_grushin_suite(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak - start <= 14 * 16 * n * n


def test_grushin_suite_mode_gate():
    with pytest.raises(ConfigError):
        run_grushin_suite(sweep_config())


def test_grushin_suite_noiseless_uses_exact_blocks():
    checks, summary = run_grushin_suite(single_config(params=ParamConfig(alpha=1.0, delta=0.0), trials=2))
    assert summary["ok"] is True
    neumann = [c for c in checks if c["check"] == "neumann_agreement"]
    assert neumann and all(c["lhs"] == 0.0 for c in neumann)


# ---------------------------------------------------------------------------
# log_potential_field


def field_config(**overrides):
    base = dict(
        matrix=MatrixSpec(kind="zero", n=32),
        model="complex_ginibre",
        params=ParamConfig(alpha=1.0, gamma=4.0, delta=1e-5),
        trials=3,
        seed=21,
        mode="field",
        z_grid=ZGrid(re_min=2.0, re_max=2.0, im_min=0.0, im_max=0.0, steps=1),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_field_mode_gate():
    with pytest.raises(ConfigError):
        log_potential_field(single_config())


def test_field_zero_matrix_rhs_is_exact():
    points, summary = log_potential_field(field_config())
    assert len(points) == 1
    assert points[0].rhs == math.log(2.0)
    assert summary["points"] == 1


def test_field_single_point_matches_single_mode_run():
    # One grid point at z must reproduce a single-mode run on z*I - A,
    # stream for stream, bit for bit.
    points, _ = log_potential_field(field_config())
    single = ExperimentConfig(
        matrix=SHIFTED_ZERO,
        model="complex_ginibre",
        params=ParamConfig(alpha=1.0, gamma=4.0, delta=1e-5),
        trials=3,
        seed=21,
        mode="single",
    )
    records, summary = run_theorem2(single)
    assert points[0].rhs == summary["rhs"]
    assert points[0].lhs_mean == float(np.mean([r.lhs for r in records]))


def test_field_grid_size_and_gap_summary():
    config = field_config(z_grid=ZGrid(re_min=1.5, re_max=2.5, im_min=-0.5, im_max=0.5, steps=3))
    points, summary = log_potential_field(config)
    assert len(points) == 9
    assert summary["max_abs_gap"] >= summary["mean_abs_gap"] >= 0.0


def test_field_reports_bad_grid_point():
    # z = 0 makes the zero matrix's spectrum all zeros: no valid auto cutoff.
    config = field_config(
        params=ParamConfig(alpha="auto", delta=0.0),
        z_grid=ZGrid(re_min=0.0, re_max=0.0, im_min=0.0, im_max=0.0, steps=1),
    )
    with pytest.raises(ConfigError, match="grid point"):
        log_potential_field(config)


def test_field_points_do_not_depend_on_worker_count():
    config = field_config(
        matrix=MatrixSpec(kind="jordan", n=16),
        params=ParamConfig(alpha="auto", delta=1e-6),
        z_grid=ZGrid(re_min=-1.0, re_max=1.0, im_min=-1.0, im_max=1.0, steps=3),
    )
    points_1, summary_1 = log_potential_field(config, workers=1)
    points_2, summary_2 = log_potential_field(config, workers=2)
    assert points_1 == points_2 and summary_1 == summary_2
    # each point's trials are those of a single-mode run on z I - A, keys (p, k)
    a = realize(config.matrix)
    for p, (point, z) in enumerate(zip(points_1, config.z_grid.points())):
        a_z = z * np.eye(16, dtype=np.complex128) - a
        values = [_fresh_trial(config, a_z, 1e-6, p, k)[0] for k in range(config.trials)]
        assert point.lhs_mean == float(np.mean(values))


def test_field_run_opens_one_pool_and_one_buffer_per_worker(monkeypatch):
    pools, outs = [], {}

    class CountedPool(experiments.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    def counted_sample(model, n, seed, out=None):
        outs[id(out)] = out  # kept alive, so no id is reused
        return sample(model, n, seed, out)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", CountedPool)
    monkeypatch.setattr(experiments, "sample", counted_sample)
    config = field_config(z_grid=ZGrid(re_min=1.5, re_max=2.5, im_min=-0.5, im_max=0.5, steps=3))
    points, _ = log_potential_field(config, workers=2)
    assert len(points) == 9
    assert len(pools) == 1
    assert None not in outs and 1 <= len(outs) <= 2


def test_field_points_agree_under_thread_stress():
    # More workers than cores and a short switch interval: grid points resolve
    # and draw on the pool's threads, sharing the memoized spectra.
    config = field_config(
        matrix=MatrixSpec(kind="jordan", n=16),
        params=ParamConfig(alpha="auto", delta=1e-6),
        z_grid=ZGrid(re_min=-1.25, re_max=1.0, im_min=-1.0, im_max=1.25, steps=4),
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stressed = log_potential_field(config, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert stressed == log_potential_field(config, workers=1)


def test_field_error_on_a_pool_thread_names_the_first_bad_point():
    # The zero matrix shifted by z has every singular value |z|, so no auto
    # cutoff exists where |z| <= C N^-L = 32^-2: the inner 3 x 3 block of
    # this 5 x 5 grid, whose first point comes seventh in grid order.
    config = field_config(
        params=ParamConfig(alpha="auto", delta=0.0),
        z_grid=ZGrid(re_min=-1e-3, re_max=1e-3, im_min=-1e-3, im_max=1e-3, steps=5),
    )
    points = config.z_grid.points()
    bad = [z for z in points if abs(z) <= 32.0**-2]
    assert len(bad) == 9 and points.index(bad[0]) == 6
    for workers in (1, 2):
        with pytest.raises(ConfigError, match=re.escape(f"grid point {bad[0]}: auto cutoff search failed")):
            log_potential_field(config, workers=workers)


# ---------------------------------------------------------------------------
# persistence


def test_write_results_trial_records(tmp_path):
    records, summary = run_theorem2(single_config())
    paths = write_results(records, tmp_path / "run", summary)
    assert [p.split("_")[-1] for p in paths] == ["records.csv", "summary.json"]
    text = (tmp_path / "run_records.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(RECORD_COLUMNS)
    assert len(lines) == 1 + 4
    assert "np." not in text  # float cells must be plain reprs
    assert "true" in lines[1] or "false" in lines[1]
    payload = json.loads((tmp_path / "run_summary.json").read_text())
    assert payload["mode"] == "single"


def test_write_results_empty_batch_writes_header(tmp_path):
    paths = write_results([], tmp_path / "empty")
    assert (tmp_path / "empty_records.csv").read_text() == ",".join(RECORD_COLUMNS) + "\n"
    assert paths == [str(tmp_path / "empty_records.csv")]


def test_write_results_field_points(tmp_path):
    points, _ = log_potential_field(field_config(z_grid=ZGrid(0.5, 1.5, 0.0, 1.0, 2)))
    write_results(points, tmp_path / "map")
    lines = (tmp_path / "map_field.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(FIELD_COLUMNS)
    assert len(lines) == 1 + 4


def test_write_results_checks_and_probes(tmp_path):
    checks, summary = run_grushin_suite(single_config(trials=2))
    paths = write_results(checks, tmp_path / "suite", summary)
    payload = json.loads((tmp_path / "suite_checks.json").read_text())
    assert payload[0]["check"] == "det_identity"

    probe = markov_tail_check("complex_ginibre", 16, 100, [2.0], seed=0)
    write_results([probe], tmp_path / "probe")
    lines = (tmp_path / "probe_probes.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(PROBE_COLUMNS)
    assert len(lines) == 1 + 100


def test_write_results_growth_fits_go_to_the_probes_csv(tmp_path):
    fit = norm_growth_probe("complex_ginibre", [4, 8], 3, seed=0)
    paths = write_results([fit], tmp_path / "growth")
    assert paths == [str(tmp_path / "growth_probes.csv")]
    lines = (tmp_path / "growth_probes.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(PROBE_COLUMNS)
    assert len(lines) == 1 + 6


def test_artifact_layouts_are_pinned(tmp_path):
    write_results([], tmp_path / "empty")
    assert (tmp_path / "empty_records.csv").read_text() == (
        "trial,seed_used,N,delta,alpha,M,lhs,rhs,error,error_bound,within_budget,norm_G,s_min_perturbed,contraction\n"
    )
    points, _ = log_potential_field(field_config(z_grid=ZGrid(0.5, 0.5, 0.0, 0.0, 1)))
    write_results(points, tmp_path / "map")
    assert (tmp_path / "map_field.csv").read_text().split("\n")[0] == "re_z,im_z,rhs,lhs_mean,lhs_sd,trials"
    checks, _ = run_grushin_suite(single_config(trials=1))
    write_results(checks, tmp_path / "suite")
    payload = json.loads((tmp_path / "suite_checks.json").read_text())
    assert {tuple(check) for check in payload} == {("check", "n", "lhs", "rhs", "bound", "pass", "trial")}


def test_every_module_export_is_a_package_export():
    for module in (linalg, grushin, equivalents, noise, ensembles, experiments):
        for name in module.__all__:
            assert getattr(logdet_equiv, name, None) is getattr(module, name), f"{module.__name__}.{name}"


def test_sweep_record_none_cells_serialize_empty(tmp_path):
    records, _ = run_theorem1(sweep_config())
    write_results(records, tmp_path / "sweep")
    lines = (tmp_path / "sweep_records.csv").read_text().strip().split("\n")
    row = lines[1].split(",")
    assert row[RECORD_COLUMNS.index("within_budget")] == ""
    assert row[RECORD_COLUMNS.index("alpha")] == "nan"


def test_summary_json_encodes_infinities_as_strings(tmp_path):
    _, summary = run_theorem1(sweep_config(convention="inclusive"))
    write_results([], tmp_path / "inf", summary)
    payload = json.loads((tmp_path / "inf_summary.json").read_text())
    assert payload["per_N"][0]["rhs"] == "-inf"


# ---------------------------------------------------------------------------
# config serialization


@pytest.mark.parametrize(
    "config",
    [
        single_config(),
        single_config(matrix=MatrixSpec(kind="bidiagonal_toeplitz", n=6, a=1 + 2j, b=-1.0), output="out/x"),
        single_config(matrix=MatrixSpec(kind="jordan", n=9, shift=1 - 1j), probe_eps=True),
        sweep_config(),
        field_config(),
    ],
)
def test_config_round_trip(config):
    assert config_from_dict(config_to_dict(config)) == config


def test_config_file_round_trip(tmp_path):
    config = sweep_config(output=str(tmp_path / "results"))
    path = tmp_path / "config.json"
    write_config(config, path)
    assert read_config(path) == config


def test_read_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        read_config("/nonexistent/config.json")


def test_read_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"matrix": }')
    with pytest.raises(ConfigError, match="line 1"):
        read_config(path)


def test_config_rejects_unknown_keys():
    base = config_to_dict(single_config())
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict({**base, "surprise": 1})
    with pytest.raises(ConfigError, match="matrix"):
        config_from_dict({**base, "matrix": {**base["matrix"], "rank": 2}})
    with pytest.raises(ConfigError, match="params"):
        config_from_dict({**base, "params": {**base["params"], "sigma": 2}})


def test_config_requires_matrix_and_model():
    with pytest.raises(ConfigError, match="matrix"):
        config_from_dict({"model": "complex_ginibre"})
    with pytest.raises(ConfigError, match="model"):
        config_from_dict({"matrix": {"kind": "jordan", "n": 4}})


def test_config_complex_fields_accept_multiple_forms():
    base = config_to_dict(single_config(matrix=MatrixSpec(kind="jordan", n=4)))
    for form in (2, 2.0, "2+0j", [2.0, 0.0]):
        loaded = config_from_dict({**base, "matrix": {"kind": "jordan", "n": 4, "shift": form}})
        assert loaded.matrix.shift == 2 + 0j
    with pytest.raises(ConfigError):
        config_from_dict({**base, "matrix": {"kind": "jordan", "n": 4, "shift": "two"}})


# Exact ``json.dumps(config_to_dict(c), indent=2)`` texts: key order and the
# conditional keys are what every summary JSON echoes under "config".
GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_CONFIGS = {
    "diagonal_single": single_config(),
    "bidiagonal_single": single_config(
        matrix=MatrixSpec(kind="bidiagonal_toeplitz", n=6, a=1 + 2j, b=-1.0), output="out/x"
    ),
    "custom_single": single_config(matrix=MatrixSpec(kind="custom", n=3, path="m.csv", shift=1 - 1j), probe_eps=True),
    "jordan_sweep": sweep_config(),
    "zero_field": field_config(),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_config_to_dict_golden_text(name):
    config = GOLDEN_CONFIGS[name]
    text = (GOLDEN / f"config_{name}.json").read_text()
    assert json.dumps(config_to_dict(config), indent=2) + "\n" == text
    assert config_from_dict(json.loads(text)) == config


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_config_from_dict_one_replaced_value(data):
    base = config_to_dict(GOLDEN_CONFIGS[data.draw(st.sampled_from(sorted(GOLDEN_CONFIGS)))])
    nested = [(key, sub) for key, value in base.items() if isinstance(value, dict) for sub in value]
    path = data.draw(st.sampled_from([(key,) for key in base] + nested))
    target = base if len(path) == 1 else base[path[0]]
    target[path[-1]] = data.draw(JSON_VALUES)
    try:
        config = config_from_dict(base)
    except ConfigError:
        return
    assert config_from_dict(config_to_dict(config)) == config


# ---------------------------------------------------------------------------
# structured spectra, dense spectra and the SVD floor in the drivers

Z = 0.3 + 0.2j
# alpha far under the floor N*eps*s_max of a dense SVD at N = 40; L keeps it admissible.
BELOW_FLOOR = ParamConfig(alpha=1e-15, L=20.0, delta=0.0)


def custom_jordan(tmp_path, n, shift=None):
    """A (shifted) Jordan block saved as a custom CSV matrix, so its spectrum is a dense SVD."""
    path = tmp_path / f"jordan{n}.csv"
    write_matrix_csv(realize(MatrixSpec(kind="jordan", n=n, shift=shift)), path)
    return MatrixSpec(kind="custom", n=n, path=str(path))


@pytest.fixture
def csv_reads(monkeypatch):
    """Paths of every custom matrix file read from now on."""
    reads = []

    def counting(path):
        reads.append(path)
        return read_matrix_csv(path)

    monkeypatch.setattr(ensembles, "read_matrix_csv", counting)
    return reads


def test_single_run_flags_alpha_under_the_svd_floor(tmp_path, csv_reads):
    dense = single_config(matrix=custom_jordan(tmp_path, 40, Z), params=BELOW_FLOOR, trials=2)
    assert run_theorem2(dense)[1]["below_svd_floor"] is True
    assert len(csv_reads) == 1  # the spectrum comes from the realized matrix
    above = replace(dense, params=replace(BELOW_FLOOR, alpha=0.5))
    assert run_theorem2(above)[1]["below_svd_floor"] is False
    structured = replace(dense, matrix=MatrixSpec(kind="jordan", n=40, shift=Z))
    assert run_theorem2(structured)[1]["below_svd_floor"] is False


def test_sweep_flags_an_inclusive_sum_under_the_svd_floor(tmp_path):
    # N* = 1 here, so the inclusive sum reads s_min ~ |z|^N.
    dense = sweep_config(matrix=custom_jordan(tmp_path, 40, Z), n_list=(40,), convention="inclusive", trials=2)
    assert run_theorem1(dense)[1]["per_N"][0]["below_svd_floor"] is True
    _, summary = run_theorem1(replace(dense, matrix=MatrixSpec(kind="jordan", n=40, shift=Z)))
    step = summary["per_N"][0]
    assert step["below_svd_floor"] is False
    assert abs(step["rhs"] - math.log(abs(Z))) <= 1e-12  # log|det(zI - J)|/N = log|z|


def test_field_flags_the_svd_floor_and_reads_a_custom_file_once(tmp_path, csv_reads):
    grid = ZGrid(re_min=0.3, re_max=0.6, im_min=0.2, im_max=0.5, steps=2)
    dense = field_config(matrix=custom_jordan(tmp_path, 40), params=BELOW_FLOOR, z_grid=grid, trials=2)
    points, summary = log_potential_field(dense)
    assert len(points) == 4 and len(csv_reads) == 1
    assert summary["below_svd_floor"] is True
    above = replace(dense, params=replace(BELOW_FLOOR, alpha=0.5))
    assert log_potential_field(above)[1]["below_svd_floor"] is False
    _, summary = log_potential_field(replace(dense, matrix=MatrixSpec(kind="jordan", n=40)))
    assert summary["below_svd_floor"] is False
