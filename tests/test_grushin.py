"""Tests for the block augmentation, its inverse, and the perturbed algebra."""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from logdet_equiv import (
    ContractionError,
    DeflationError,
    DimensionError,
    ExperimentConfig,
    MatrixSpec,
    ParamConfig,
    assemble,
    assemble_perturbed,
    build_grushin,
    default_alpha,
    grushin_det_identity,
    interlacing_check,
    invert_perturbed,
    inverse_blocks,
    log_abs_det,
    neumann_tail_bound,
    norm_estimates,
    operator_norm,
    perturbation_drift_bound,
    perturbed_norm_estimates,
    schur_logdet,
    svd_paired,
)

from logdet_equiv import experiments
from logdet_equiv import grushin as grushin_module

from helpers import full_depth_neumann_blocks, gaussian_matrix, grushin_instance, midpoint_alpha, perturbed_instance


# ---------------------------------------------------------------------------
# construction and closed-form blocks


def test_rank_one_deflation_closed_form():
    # diag(2, 0) with m = 1: every block is computable by hand.  The singular
    # pair for t = 0 is only defined up to a unit phase, so the mixed blocks
    # are compared in absolute value; E and E_minus_plus are phase-free.
    sys, blocks = build_grushin(np.diag([2.0, 0.0]), 1)
    np.testing.assert_allclose(sys.t, [0.0, 2.0], atol=0)
    np.testing.assert_allclose(blocks.e, [[0.5, 0.0], [0.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(np.abs(blocks.e_plus), [[0.0], [1.0]], atol=1e-15)
    np.testing.assert_allclose(np.abs(blocks.e_minus), [[0.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(blocks.e_minus_plus, [[0.0]], atol=0)


def test_zero_deflation_blocks_are_plain_inverse():
    a = gaussian_matrix(6, seed=1) + 2.0 * np.eye(6)
    sys, blocks = build_grushin(a, 0)
    np.testing.assert_allclose(blocks.e, np.linalg.inv(a), atol=1e-10)
    assert blocks.e_plus.shape == (6, 0)
    assert blocks.e_minus.shape == (0, 6)
    assert blocks.e_minus_plus.shape == (0, 0)
    np.testing.assert_array_equal(blocks.assembled(), blocks.e)


def test_full_deflation_allowed():
    sys, blocks = build_grushin(gaussian_matrix(4, seed=2), 4)
    assert sys.retained.size == 0
    assert default_alpha(sys) == math.inf
    # The assembled 8x8 system must still invert to the blocks.
    defect = np.abs(assemble(sys) @ blocks.assembled() - np.eye(8)).max()
    assert defect <= 1e-10 * 8


def test_build_rejects_bad_deflation_counts():
    a = np.diag([2.0, 1.0])
    with pytest.raises(DimensionError):
        build_grushin(a, -1)
    with pytest.raises(DimensionError):
        build_grushin(a, 3)
    with pytest.raises(DimensionError):
        build_grushin(a, 1.5)
    with pytest.raises(DimensionError):
        build_grushin(np.ones((2, 3)), 1)


def test_build_rejects_singular_retained_space():
    # diag(2, 0) with m = 0 keeps the zero singular value: not invertible.
    with pytest.raises(DeflationError):
        build_grushin(np.diag([2.0, 0.0]), 0)


@pytest.mark.parametrize("seed", range(8))
def test_two_sided_inverse(seed):
    sys, blocks = grushin_instance(seed)
    p = assemble(sys)
    inv = blocks.assembled()
    eye = np.eye(sys.n + sys.m)
    tol = 1e-10 * (sys.n + sys.m)
    assert np.abs(p @ inv - eye).max() <= tol
    assert np.abs(inv @ p - eye).max() <= tol


def test_injection_blocks_are_isometries():
    sys, _ = grushin_instance(seed=5, min_m=1)
    assert abs(operator_norm(sys.r_plus) - 1.0) <= 1e-12
    assert abs(operator_norm(sys.r_minus) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# determinant identity


def test_det_identity_random():
    sys, _ = build_grushin(gaussian_matrix(10, seed=7), 3)
    lhs, rhs = grushin_det_identity(sys)
    assert abs(lhs - rhs) <= 1e-8


def test_det_identity_jordan_is_exact_zero():
    # Retained singular values of a deflated Jordan block are all 1, so both
    # sides are sums of log 1.
    sys, _ = build_grushin(np.eye(5, k=1), 1)
    lhs, rhs = grushin_det_identity(sys)
    assert rhs == 0.0
    assert abs(lhs) <= 1e-8 * 5


def test_det_identity_full_deflation():
    sys, _ = build_grushin(gaussian_matrix(3, seed=8), 3)
    lhs, rhs = grushin_det_identity(sys)
    assert rhs == 0.0  # empty product
    assert abs(lhs) <= 1e-8 * 3


# ---------------------------------------------------------------------------
# perturbed inversion


def test_invert_direct_matches_assembled_inverse():
    sys, _ = grushin_instance(seed=10, min_m=1)
    g = gaussian_matrix(sys.n, seed=11)
    pert = invert_perturbed(sys, g, 1e-3, "direct")
    defect = np.abs(assemble_perturbed(pert) @ pert.blocks.assembled() - np.eye(sys.n + sys.m)).max()
    assert defect <= 1e-9


def test_invert_zero_delta_reproduces_closed_form():
    sys, blocks = grushin_instance(seed=12)
    g = gaussian_matrix(sys.n, seed=13)
    for method in ("direct", "neumann"):
        pert = invert_perturbed(sys, g, 0.0, method)
        assert pert.contraction == 0.0
        tol = 0.0 if method == "neumann" else 1e-10
        assert np.abs(pert.blocks.e - blocks.e).max() <= tol
        assert np.abs(pert.blocks.e_minus_plus - blocks.e_minus_plus).max() <= tol


def test_neumann_agrees_with_direct_within_tail_bound():
    n_terms = 20
    for seed in range(5):
        sys, _, direct = perturbed_instance(seed, contraction=0.3, min_m=1)
        series = invert_perturbed(sys, direct.g, direct.delta, "neumann", alpha=direct.alpha, n_terms=n_terms)
        tail = neumann_tail_bound(0.3, direct.alpha, n_terms)
        diff = max(
            np.abs(series.blocks.e - direct.blocks.e).max(),
            np.abs(series.blocks.e_plus - direct.blocks.e_plus).max(),
            np.abs(series.blocks.e_minus - direct.blocks.e_minus).max(),
            np.abs(series.blocks.e_minus_plus - direct.blocks.e_minus_plus).max(),
        )
        assert diff <= max(tail, 1e-9)


@pytest.mark.parametrize("n_terms", [1, 2, 5])
def test_neumann_series_depth_is_exact(n_terms):
    # Partial sums of the four series in the invert_perturbed docstring,
    # built term by term; a depth off by one misses a term of size ~0.45^K.
    power = np.linalg.matrix_power
    for seed in range(3):
        sys, blocks, direct = perturbed_instance(seed, contraction=0.45, min_m=1)
        g, d = direct.g, direct.delta
        e, e_plus, e_minus = blocks.e, blocks.e_plus, blocks.e_minus
        ge, eg = g @ e, e @ g
        ks = range(n_terms + 1)
        expected = {
            "e": sum((-d) ** k * e @ power(ge, k) for k in ks),
            "e_plus": sum((-d) ** k * power(eg, k) @ e_plus for k in ks),
            "e_minus": sum((-d) ** k * e_minus @ power(ge, k) for k in ks),
            "e_minus_plus": blocks.e_minus_plus
            + sum((-d) ** k * e_minus @ power(ge, k - 1) @ g @ e_plus for k in ks[1:]),
        }
        series = invert_perturbed(sys, g, d, "neumann", alpha=direct.alpha, n_terms=n_terms)
        for name, value in expected.items():
            np.testing.assert_allclose(getattr(series.blocks, name), value, rtol=0, atol=1e-12, err_msg=name)


def _counting_perturbation(g):
    """``g`` as an array whose ``n x n`` by ``n x n`` products are counted.

    Everything derived from it, ``X = -delta G E`` and each ``S_k``, keeps the
    type, so the count is one for forming ``X`` plus one per Horner step
    ``S_k = I + X S_{k-1}`` with ``k >= 2``: ``n_terms`` at full depth.
    """

    class Counting(np.ndarray):
        calls = 0

        def __matmul__(self, other):
            if np.shape(other) == self.shape:
                Counting.calls += 1
            return super().__matmul__(other)

    return np.asarray(g).view(Counting), Counting


def _assert_blocks_identical(got, expected):
    for name in ("e", "e_plus", "e_minus", "e_minus_plus"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name


def _dense_instance(seed):
    """A 30 x 30 Ginibre matrix deflated by 3, with a Ginibre perturbation."""
    sys, _ = build_grushin(gaussian_matrix(30, seed=seed), 3)
    return sys, gaussian_matrix(30, seed=seed, key=1)


@pytest.mark.parametrize("seed", range(4))
def test_neumann_stops_at_its_fixed_point(seed):
    # At delta = 1e-8 the contraction is ~1e-7: S_k stops changing after a
    # few steps, and the blocks are bit for bit those of all 25 steps.
    sys, g = _dense_instance(70 + seed)
    counted, counter = _counting_perturbation(g)
    n_terms = grushin_module.NEUMANN_TERMS
    blocks = grushin_module._neumann_blocks(sys, counted, 1e-8, n_terms)
    assert 1 <= counter.calls < n_terms
    _assert_blocks_identical(blocks, full_depth_neumann_blocks(sys, g, 1e-8, n_terms))


@pytest.mark.parametrize("seed", range(3))
def test_neumann_runs_every_step_without_a_fixed_point(seed):
    # 0.45^25 ~ 2e-9 is far above roundoff, so no step repeats its input.
    sys, g = _dense_instance(90 + seed)
    delta = 0.45 * midpoint_alpha(sys) / operator_norm(g)
    counted, counter = _counting_perturbation(g)
    n_terms = grushin_module.NEUMANN_TERMS
    blocks = grushin_module._neumann_blocks(sys, counted, delta, n_terms)
    assert counter.calls == n_terms
    _assert_blocks_identical(blocks, full_depth_neumann_blocks(sys, g, delta, n_terms))


@pytest.mark.parametrize("case", ["one-term", "full-deflation"])
def test_neumann_first_exits_match_full_depth_bit_for_bit(case):
    # One term runs no Horner step; a full deflation has E = 0, so S_1 = I and the first check stops.
    if case == "one-term":
        sys, g = _dense_instance(110)
        n_terms = 1
    else:
        sys, _ = build_grushin(gaussian_matrix(20, seed=111), 20)
        g = gaussian_matrix(20, seed=111, key=1)
        n_terms = grushin_module.NEUMANN_TERMS
    blocks = grushin_module._neumann_blocks(sys, g, 1e-3, n_terms)
    expected = full_depth_neumann_blocks(sys, g, 1e-3, n_terms)
    for name in ("e", "e_plus", "e_minus", "e_minus_plus"):
        got, want = getattr(blocks, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def _shared_arrays(sys):
    """``A`` and the cached unperturbed blocks, which every trial on ``sys`` reads."""
    blocks = sys.blocks
    return [sys.a, blocks.e, blocks.e_plus, blocks.e_minus, blocks.e_minus_plus]


@pytest.mark.parametrize("contraction", [1e-7, 0.45])
def test_perturbed_inversion_writes_no_caller_array(contraction):
    # The in-place steps of invert_perturbed and the Horner loop may write only arrays they allocated.
    sys, g = _dense_instance(80)
    alpha = midpoint_alpha(sys)
    delta = contraction * alpha / operator_norm(g)
    inputs = [g, *_shared_arrays(sys)]
    before = [x.tobytes() for x in inputs]

    def inversions():
        return [
            invert_perturbed(sys, g, delta, "direct", alpha=alpha).blocks,
            invert_perturbed(sys, g, delta, "neumann", alpha=alpha).blocks,
            grushin_module._neumann_blocks(sys, g, delta, grushin_module.NEUMANN_TERMS),
        ]

    first, second = inversions(), inversions()
    assert [x.tobytes() for x in inputs] == before
    for got, expected in zip(second, first):
        _assert_blocks_identical(got, expected)


def test_grushin_suite_writes_no_shared_array(monkeypatch):
    handed_over = []  # (array, its bytes when the suite got it)
    serial_draws = experiments._serial_draws

    def build(a, m):
        sys, blocks = build_grushin(a, m)
        handed_over.extend((x, x.tobytes()) for x in _shared_arrays(sys))
        return sys, blocks

    def kept(g):
        handed_over.append((g, g.tobytes()))
        return g

    @contextmanager
    def kept_draws(*args):
        # Every G comes from here.  Its array is drawn into again a trial or two on, whether a helper's ring slot
        # or the one array of draws taken in process, so the suite gets a copy of each G to keep.
        with serial_draws(*args) as draws:
            yield ((sub, kept(g.copy()), values) for sub, g, values in draws)

    monkeypatch.setattr(experiments, "build_grushin", build)
    monkeypatch.setattr(experiments, "_serial_draws", kept_draws)
    config = ExperimentConfig(
        matrix=MatrixSpec(kind="diagonal", n=40, diag=((2.0, 36), (0.0, 4))),
        model="complex_ginibre",
        params=ParamConfig(alpha=1.0, gamma=4.0, delta=1e-8, tau=10.0),
        trials=3,
        seed=909,
    )
    _, summary = experiments.run_grushin_suite(config)
    assert summary["ok"] and len(handed_over) == 5 + config.trials
    for x, data in handed_over:
        assert x.tobytes() == data


def test_neumann_zero_delta_returns_the_unperturbed_blocks():
    sys, blocks = grushin_instance(seed=75, min_m=1)
    counted, counter = _counting_perturbation(gaussian_matrix(sys.n, seed=76))
    assert grushin_module._neumann_blocks(sys, counted, 0.0, grushin_module.NEUMANN_TERMS) is blocks
    assert counter.calls == 0


def test_neumann_rejects_noncontractive_delta():
    sys, _ = grushin_instance(seed=20, min_m=1)
    g = gaussian_matrix(sys.n, seed=21)
    alpha = midpoint_alpha(sys)
    delta = 0.6 * alpha / operator_norm(g)
    with pytest.raises(ContractionError):
        invert_perturbed(sys, g, delta, "neumann", alpha=alpha)
    # The direct route has no such restriction.
    invert_perturbed(sys, g, delta, "direct", alpha=alpha)


def test_invert_argument_validation():
    sys, _ = grushin_instance(seed=22)
    g = gaussian_matrix(sys.n, seed=23)
    with pytest.raises(DimensionError):
        invert_perturbed(sys, np.eye(sys.n + 1), 1e-3)
    with pytest.raises(ValueError):
        invert_perturbed(sys, g, -1e-3)
    with pytest.raises(ValueError):
        invert_perturbed(sys, g, 1e-3, alpha=0.0)
    with pytest.raises(ValueError):
        invert_perturbed(sys, g, 1e-3, "cramer")
    with pytest.raises(ValueError, match="n_terms"):
        invert_perturbed(sys, g, 1e-3, "neumann", n_terms=-1)
    for n_terms in (2.5, math.nan):  # not an integer: named, not met in the Horner loop's range
        with pytest.raises(ValueError, match="n_terms"):
            invert_perturbed(sys, g, 1e-3, "neumann", n_terms=n_terms)
    # Order 0 is legal: the unperturbed blocks.
    assert invert_perturbed(sys, g, 1e-3, "neumann", n_terms=0).blocks is sys.blocks


def test_tail_bound_shape():
    assert neumann_tail_bound(1.0, 0.5, 10) == math.inf
    b5 = neumann_tail_bound(0.4, 0.5, 5)
    b10 = neumann_tail_bound(0.4, 0.5, 10)
    assert 0 < b10 < b5


# ---------------------------------------------------------------------------
# Schur identity, drift, interlacing, norm bounds


def test_schur_identity_jordan_corner_perturbation():
    # J_3 plus delta in the lower-left corner has |det| = delta exactly.
    delta = 1e-6
    g = np.zeros((3, 3), dtype=complex)
    g[2, 0] = 1.0
    sys, _ = build_grushin(np.eye(3, k=1), 1)
    pert = invert_perturbed(sys, g, delta, "direct")
    lhs, rhs = schur_logdet(sys, pert)
    assert abs(lhs - math.log(delta)) <= 1e-9
    assert abs(lhs - rhs) <= 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_schur_identity_random(seed):
    sys, _, pert = perturbed_instance(seed, contraction=0.25)
    lhs, rhs = schur_logdet(sys, pert)
    assert abs(lhs - rhs) <= 1e-7 * sys.n


def test_schur_rejects_mismatched_system():
    sys_a, _, pert_a = perturbed_instance(seed=30, min_m=1)
    other = gaussian_matrix(sys_a.n + 1, seed=31)
    sys_b, _ = build_grushin(other, sys_a.m + 1)
    with pytest.raises(ValueError):
        schur_logdet(sys_b, pert_a)


@pytest.mark.parametrize("seed", range(25))
def test_drift_never_exceeds_bound(seed):
    sys, _, pert = perturbed_instance(seed, contraction=0.2 + 0.001 * seed)
    drift, bound = perturbation_drift_bound(sys, pert)
    assert drift <= bound + 1e-10


def test_interlacing_empty_without_deflation():
    sys, _, pert = perturbed_instance(seed=40, min_m=0, m_max=0)
    assert sys.m == 0
    assert interlacing_check(sys, pert) == []


@pytest.mark.parametrize("seed", range(12))
def test_interlacing_two_sided(seed):
    sys, _, pert = perturbed_instance(seed, contraction=0.35, min_m=1)
    records = interlacing_check(sys, pert)
    assert len(records) == 3 * sys.m
    for record in records:
        assert record.passed, f"{record.check} n={record.n}: {record.lhs} vs {record.rhs}"


def test_interlacing_squeezes_toward_corner_values():
    # With delta = 0 the corner is exactly -diag(t_1..t_m): the isometric
    # upper bound t_i(A) <= t_i(corner) is then an equality.
    sys, _ = grushin_instance(seed=41, min_m=2)
    pert = invert_perturbed(sys, np.zeros_like(sys.a), 0.0)
    for record in interlacing_check(sys, pert):
        assert record.passed
        if record.check == "interlacing_isometric":
            assert abs(record.lhs - record.rhs) <= 1e-9


def test_norm_estimates_within_window():
    sys, blocks = grushin_instance(seed=50, min_m=1)
    alpha = midpoint_alpha(sys)
    records = norm_estimates(sys, blocks, alpha)
    names = {r.check for r in records}
    assert names == {"norm_e", "norm_e_minus_plus", "norm_e_plus", "norm_e_minus"}
    assert all(r.passed for r in records)


def test_norm_estimates_rejects_alpha_outside_window():
    sys, blocks = grushin_instance(seed=51, min_m=1)
    hi = float(sys.t[sys.m])
    with pytest.raises(ValueError):
        norm_estimates(sys, blocks, hi * 1.5)
    with pytest.raises(ValueError):
        norm_estimates(sys, blocks, float(sys.t[sys.m - 1]) * 0.5)


def test_norm_estimates_at_window_edges():
    sys, blocks = grushin_instance(seed=52, min_m=1)
    for alpha in (float(sys.t[sys.m - 1]), float(sys.t[sys.m])):
        if alpha > 0:
            assert all(r.passed for r in norm_estimates(sys, blocks, alpha))


@pytest.mark.parametrize("seed", range(8))
def test_perturbed_norm_estimates_hold(seed):
    sys, _, pert = perturbed_instance(seed, contraction=0.45, min_m=1)
    records = perturbed_norm_estimates(pert)
    assert all(r.passed for r in records)
    names = [r.check for r in records]
    assert "corner_drift" in names and "perturbed_norm_e" in names


def test_perturbed_norm_estimates_need_contraction_regime():
    sys, _ = grushin_instance(seed=60, min_m=1)
    g = gaussian_matrix(sys.n, seed=61)
    alpha = midpoint_alpha(sys)
    delta = 0.8 * alpha / operator_norm(g)
    pert = invert_perturbed(sys, g, delta, "direct", alpha=alpha)
    with pytest.raises(ContractionError):
        perturbed_norm_estimates(pert)


def test_default_alpha_is_first_retained():
    sys, _ = grushin_instance(seed=62, min_m=1)
    assert default_alpha(sys) == float(sys.t[sys.m])


def test_inverse_blocks_standalone_matches_build():
    sys, blocks = grushin_instance(seed=63)
    again = inverse_blocks(svd_paired(sys.a), sys.m)
    np.testing.assert_array_equal(again.e, blocks.e)
    np.testing.assert_array_equal(again.e_minus_plus, blocks.e_minus_plus)


def test_each_assembled_determinant_is_taken_once(monkeypatch):
    sys, _, pert = perturbed_instance(seed=64, contraction=0.3, min_m=1)
    expected = {"base": log_abs_det(assemble(sys)), "perturbed": log_abs_det(assemble_perturbed(pert))}
    calls = []
    monkeypatch.setattr(grushin_module, "log_abs_det", lambda x: calls.append(x.shape[0]) or log_abs_det(x))
    for _ in range(2):
        det_lhs, _ = grushin_det_identity(sys)
        _, schur_rhs = schur_logdet(sys, pert)
        drift, _ = perturbation_drift_bound(sys, pert)
    # One LU per assembled system; A + delta G and the corner are taken per call.
    assert sorted(calls) == sorted([sys.n + sys.m] * 2 + [sys.n, sys.m] * 2)
    assert det_lhs == 2.0 * expected["base"]
    assert schur_rhs == expected["perturbed"] + log_abs_det(pert.blocks.e_minus_plus)
    assert drift == abs(expected["perturbed"] - expected["base"]) / sys.n


def test_one_bordered_system_per_trial(monkeypatch):
    # P^d = [[A + delta G, R_minus], [R_plus, 0]] is formed once per perturbation and held, A + delta G in view.
    sys, _, direct = perturbed_instance(seed=65, contraction=0.3, min_m=1)
    zero = np.zeros((sys.m, sys.m), dtype=np.complex128)
    expected = np.block([[sys.a + direct.delta * direct.g, sys.r_minus], [sys.r_plus, zero]])
    for method in ("direct", "neumann"):
        pert = invert_perturbed(sys, direct.g, direct.delta, method, alpha=direct.alpha)
        held = assemble_perturbed(pert)
        assert held.dtype == expected.dtype and held.tobytes() == expected.tobytes(), method
        assert np.shares_memory(pert.a_delta, held), method

    # In the suite, a trial's LU of P^d reads the very array that its direct inverse read.
    inverted, factored = [], []
    inv, det = np.linalg.inv, grushin_module.log_abs_det
    monkeypatch.setattr(np.linalg, "inv", lambda x: inverted.append(x) or inv(x))
    monkeypatch.setattr(grushin_module, "log_abs_det", lambda x: factored.append(x) or det(x))
    config = ExperimentConfig(
        matrix=MatrixSpec(kind="diagonal", n=40, diag=((2.0, 36), (0.0, 4))),
        model="complex_ginibre",
        params=ParamConfig(alpha=1.0, gamma=4.0, delta=1e-8, tau=10.0),
        trials=3,
        seed=909,
    )
    _, summary = experiments.run_grushin_suite(config)
    assert summary["ok"]
    bordered = [x for x in factored if np.shape(x) == (44, 44)][1:]  # the first is the unperturbed P
    assert len(inverted) == len(bordered) == config.trials
    for x, y in zip(inverted, bordered):
        assert np.shares_memory(x, y)


def test_a_perturbation_of_another_system_is_refused():
    a = gaussian_matrix(6, seed=31)
    sys, _ = build_grushin(a, 1)
    # Another deflation count of the same matrix, and the same count and shape of another matrix.
    for other_a, other_m in ((a, 2), (gaussian_matrix(6, seed=33), 1)):
        other, _ = build_grushin(other_a, other_m)
        pert = invert_perturbed(other, gaussian_matrix(6, seed=32), 1e-3, "direct")
        for check in (schur_logdet, perturbation_drift_bound, interlacing_check):
            with pytest.raises(ValueError, match="^perturbed system does not belong to the given Grushin system$"):
                check(sys, pert)
    # The same matrix and count, built again, is accepted.
    twin, _ = build_grushin(a.copy(), 1)
    perturbation_drift_bound(sys, invert_perturbed(twin, gaussian_matrix(6, seed=32), 1e-3, "direct"))
