"""Tests for the dense linear-algebra layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdet_equiv import (
    DimensionError,
    NumericalError,
    anti_concentration_probe,
    as_matrix,
    linalg,
    log_abs_det,
    operator_norm,
    singular_values,
    smallest_singular_value,
    svd_paired,
    svd_tolerance,
    write_matrix_csv,
)

from helpers import gaussian_matrix


def det_cofactor(a):
    """Cofactor-expansion determinant: exponential cost, oracle for n <= 5."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    total = 0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * det_cofactor(minor)
    return total


# ---------------------------------------------------------------------------
# as_matrix


def test_as_matrix_coerces_to_complex128():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.flags.c_contiguous
    np.testing.assert_array_equal(m, np.array([[1, 2], [3, 4]], dtype=complex))


def test_as_matrix_rejects_wrong_ndim():
    with pytest.raises(DimensionError):
        as_matrix([1, 2, 3])
    with pytest.raises(DimensionError):
        as_matrix(np.zeros((2, 2, 2)))


def test_as_matrix_rejects_empty():
    with pytest.raises(DimensionError):
        as_matrix(np.zeros((0, 3)))


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# svd_paired


def test_svd_jordan_block_values():
    a = np.eye(3, k=1)
    t = svd_paired(a).t
    np.testing.assert_allclose(t, [0.0, 1.0, 1.0], atol=1e-14)


def test_svd_diagonal_ascending():
    fact = svd_paired(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(fact.t, [1.0, 3.0], atol=0)
    np.testing.assert_allclose(fact.descending, [3.0, 1.0], atol=0)


def test_svd_pairing_exact_not_just_up_to_sign():
    # The left vectors must absorb the phase so A e_i = t_i f_i holds as an
    # equation between complex vectors, not only in absolute value.
    a = gaussian_matrix(8, seed=3)
    fact = svd_paired(a)
    res = fact.pairing_residuals(a)
    tol = svd_tolerance(a)
    assert res["right"] <= tol
    assert res["left"] <= tol
    assert res["reconstruction"] <= tol
    assert res["gram_e"] <= tol
    assert res["gram_f"] <= tol
    fact.verify(a)  # should not raise


def test_svd_verify_raises_on_absurd_tolerance():
    a = gaussian_matrix(5, seed=4)
    with pytest.raises(NumericalError):
        svd_paired(a).verify(a, tol=1e-30)


def test_svd_rejects_rectangular():
    with pytest.raises(DimensionError):
        svd_paired(np.ones((3, 2)))


@given(n=st.integers(1, 16), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_svd_invariants_random(n, seed):
    a = gaussian_matrix(n, seed)
    fact = svd_paired(a)
    assert np.all(np.diff(fact.t) >= 0)
    assert fact.t[0] >= 0
    assert max(fact.pairing_residuals(a).values()) <= svd_tolerance(a)


# ---------------------------------------------------------------------------
# log_abs_det


def test_logdet_identity_is_zero():
    assert log_abs_det(np.eye(5)) == 0.0


def test_logdet_diagonal():
    assert abs(log_abs_det(np.diag([2.0, 3.0])) - math.log(6.0)) < 1e-12


def test_logdet_singular_is_neg_inf():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert log_abs_det(a) == -math.inf


def test_logdet_empty_matrix_is_log_one():
    assert log_abs_det(np.zeros((0, 0))) == 0.0


def test_logdet_rejects_nonsquare():
    with pytest.raises(DimensionError):
        log_abs_det(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        log_abs_det(np.ones(4))


@pytest.mark.parametrize("seed", range(6))
def test_logdet_matches_cofactor_oracle(seed):
    a = gaussian_matrix(4, seed)
    expected = math.log(abs(det_cofactor(a)))
    assert abs(log_abs_det(a) - expected) < 1e-9


def test_logdet_huge_magnitudes_do_not_overflow():
    # det would be exp(+-1e6); the log-domain path must stay finite.
    n = 2000
    up = np.diag(np.full(n, math.exp(500.0)))
    assert abs(log_abs_det(up) - 1e6) < 1e-3
    down = np.diag(np.full(500, math.exp(-500.0)))
    assert abs(log_abs_det(down) + 250000.0) < 1e-3


def test_logdet_agrees_with_singular_value_sum():
    for seed in range(5):
        n = 6 + seed
        a = gaussian_matrix(n, seed)
        t = svd_paired(a).t
        assert abs(log_abs_det(a) - math.fsum(math.log(x) for x in t)) <= 1e-8 * n


def test_logdet_unitary_is_zero():
    rng_src = gaussian_matrix(9, seed=11)
    q, _ = np.linalg.qr(rng_src)
    assert abs(log_abs_det(q)) <= 1e-10


# ---------------------------------------------------------------------------
# operator_norm / smallest_singular_value


def test_norm_examples():
    assert operator_norm(np.eye(3)) == 1.0
    assert operator_norm(np.diag([0.0, 5.0])) == 5.0
    assert operator_norm(np.zeros((3, 0))) == 0.0


def test_smallest_singular_examples():
    assert smallest_singular_value(np.eye(4)) == 1.0
    assert smallest_singular_value(np.eye(4, k=1)) == 0.0
    assert smallest_singular_value(np.zeros((0, 0))) == 0.0


def test_norms_bracket_svd_spectrum():
    a = gaussian_matrix(10, seed=21)
    t = svd_paired(a).t
    assert abs(operator_norm(a) - t[-1]) < 1e-12
    assert abs(smallest_singular_value(a) - t[0]) < 1e-12


def test_smallest_singular_inverse_norm_oracle():
    a = gaussian_matrix(8, seed=22) + 3.0 * np.eye(8)  # keep it well conditioned
    s = smallest_singular_value(a)
    expected = 1.0 / operator_norm(np.linalg.inv(a))
    assert abs(s - expected) <= 1e-8 * expected


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_operator_norm_submultiplicative(seed):
    a = gaussian_matrix(6, seed, key=0)
    b = gaussian_matrix(6, seed, key=1)
    assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# singular_values: the one values-only SVD


def test_singular_values_is_numpys_values_only_svd():
    for a in (gaussian_matrix(9, seed=23), gaussian_matrix(9, seed=24)[:5], np.diag([3.0, 1.0]) + np.eye(2, k=1)):
        np.testing.assert_array_equal(singular_values(a), np.linalg.svd(a, compute_uv=False))
    assert singular_values(np.diag([3.0, 1.0])).dtype == np.float64
    assert singular_values(np.zeros((0, 0))).size == 0


def test_singular_values_failure_is_a_numerical_error():
    with pytest.raises(NumericalError):
        singular_values(np.full((3, 3), np.nan))


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 40))
@settings(max_examples=25, deadline=None)
def test_norms_are_the_extreme_singular_values_bitwise(seed, n):
    a = gaussian_matrix(n, seed)
    s = singular_values(a)
    assert operator_norm(a) == s[0] == float(np.linalg.norm(a, 2))
    assert smallest_singular_value(a) == s[-1]


def test_every_square_check_raises_one_dimension_error(tmp_path):
    wide = np.ones((2, 3))
    calls = (
        lambda: log_abs_det(wide),
        lambda: anti_concentration_probe(wide, "complex_ginibre", 1, [1.0], seed=0),
        lambda: write_matrix_csv(wide, tmp_path / "wide.csv"),
    )
    for call in calls:
        with pytest.raises(DimensionError) as info:
            call()
        assert str(info.value) == "expected a square matrix, got shape (2, 3)"
    assert not (tmp_path / "wide.csv").exists()


def test_the_blas_pin_sets_no_count_at_one_thread(monkeypatch):
    # A set, even to 1, restarts the OpenBLAS workers stopped at a fork, so a pin inside a pin sets nothing.
    count, sets = [2], []

    def set_(k):
        sets.append(k)
        count[0] = k

    monkeypatch.setattr(linalg, "_openblas_threads", lambda: (lambda: count[0], set_))
    with linalg._one_blas_thread() as outer, linalg._one_blas_thread() as inner:
        assert count == [1]
    assert (outer, inner, sets, count) == (True, True, [1, 2], [2])
    monkeypatch.setattr(linalg, "_openblas_threads", lambda: None)
    with linalg._one_blas_thread() as pinned:
        assert pinned is False
