"""Tests for cutoff sums, cutoff/deflation search, and parameter budgets."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logdet_equiv import (
    CONVENTIONS,
    EquivalenceParams,
    ParameterError,
    admissible_delta_range,
    auto_alpha,
    bpz_equivalent,
    count_below,
    deterministic_equivalent,
    error_budget,
    n_star,
)

JORDAN_100 = np.array([1.0] * 99 + [0.0])


def descending(seed, n):
    rng = np.random.default_rng(seed)
    return np.sort(np.abs(rng.standard_normal(n)))[::-1]


# ---------------------------------------------------------------------------
# count_below / deterministic_equivalent


def test_count_below_examples():
    s = [3.0, 2.0, 1.0, 0.5]
    assert count_below(s, 1.0) == 2  # ties count as "at or below"
    assert count_below(s, 0.1) == 0
    assert count_below(s, 10.0) == 4


def test_deterministic_equivalent_examples():
    s = [2.0, 1.0, 0.5]
    expected = (math.log(2.0) + math.log(1.0)) / 3
    assert abs(deterministic_equivalent(s, 0.75) - expected) < 1e-15
    # Everything at or below the cutoff: empty sum.
    assert deterministic_equivalent(s, 2.0) == 0.0
    # Strict inequality at the cutoff.
    assert deterministic_equivalent([1.0, 1.0], 1.0) == 0.0


def test_deterministic_equivalent_is_exact_on_constant_spectra():
    # 64 copies of log 2 divided by 64: exactly log 2 (power-of-two size).
    s = np.full(64, 2.0)
    assert deterministic_equivalent(s, 1.0) == math.log(2.0)


def test_deterministic_equivalent_input_validation():
    with pytest.raises(ValueError):
        deterministic_equivalent([1.0, 2.0], 0.5)  # ascending input
    with pytest.raises(ValueError):
        deterministic_equivalent([], 0.5)
    with pytest.raises(ValueError):
        deterministic_equivalent([2.0, 1.0], 0.0)
    with pytest.raises(ValueError):
        deterministic_equivalent([2.0, -1.0], 0.5)
    with pytest.raises(ValueError):
        deterministic_equivalent([[1.0, 2.0]], 0.5)


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 60), alpha=st.floats(0.01, 3.0))
@settings(max_examples=80, deadline=None)
def test_cutoff_sum_matches_loop_oracle(seed, n, alpha):
    s = descending(seed, n)
    expected = sum(math.log(x) for x in s if x > alpha) / n
    assert abs(deterministic_equivalent(s, alpha) - expected) <= 1e-12
    assert count_below(s, alpha) == int(sum(1 for x in s if x <= alpha))


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_count_below_monotone_in_alpha(seed):
    s = descending(seed, 40)
    counts = [count_below(s, a) for a in (0.1, 0.5, 1.0, 2.0)]
    assert counts == sorted(counts)


# ---------------------------------------------------------------------------
# auto_alpha


def test_auto_alpha_on_jordan_spectrum():
    # Distinct values {0, 1}: the only midpoint is 0.5, which deflates one
    # value and beats the smaller floor candidate.
    assert auto_alpha(JORDAN_100, nu_n_target=0.5) == (0.5, 1)


def test_auto_alpha_prefers_largest_feasible():
    s = np.array([2.0, 2.0, 0.3, 0.01])
    alpha, m = auto_alpha(s, nu_n_target=3.0)
    assert alpha == 1.0 and m == 2


def test_auto_alpha_none_when_budget_is_impossible():
    assert auto_alpha(np.zeros(16), nu_n_target=0.5) is None


def test_auto_alpha_respects_floor():
    # All candidates below C*N^-L are excluded.
    s = np.array([1e-9] * 8)
    found = auto_alpha(s, nu_n_target=10.0, L=2.0, C=1.0)
    assert found is not None
    alpha, m = found
    assert alpha >= 8.0**-2.0
    assert m == 8


def auto_alpha_loop(s, nu_n_target, L, C):
    """auto_alpha as its docstring reads, one candidate at a time and counted one value at a time."""
    n = len(s)
    lo = C * float(n) ** -L
    if lo > 1.0:
        return None
    budget = nu_n_target * n / math.log(n) if n >= 2 else float(n)
    distinct = sorted(set(s))
    mids = [(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])]
    for alpha in sorted({lo, 1.0, *(x for x in mids if lo <= x <= 1.0)}, reverse=True):
        m = sum(1 for x in s if x <= alpha)
        if m <= budget:
            return alpha, m
    return None


@given(
    values=st.lists(st.sampled_from([0.0, 1e-7, 0.05, 0.5, 1.0, 3.0]) | st.floats(0.0, 4.0), min_size=1, max_size=40),
    nu_n_target=st.floats(0.0, 2.0),
    L=st.floats(0.0, 4.0),
    C=st.floats(0.01, 10.0),
)
@example(values=[1.0, 0.0, 0.0], nu_n_target=0.0, L=2.0, C=1.0)  # zeros over budget: None
@example(values=[0.5, 0.5], nu_n_target=1.0, L=0.0, C=2.0)  # floor above 1: None
@example(values=[2.0, 0.5, 0.5, 0.5, 0.0], nu_n_target=1.0, L=2.0, C=1.0)
@settings(max_examples=200, deadline=None)
def test_auto_alpha_matches_loop_oracle(values, nu_n_target, L, C):
    s = np.array(sorted(values, reverse=True))
    assert auto_alpha(s, nu_n_target, L, C) == auto_alpha_loop([float(x) for x in s], nu_n_target, L, C)


# ---------------------------------------------------------------------------
# n_star / bpz_equivalent


def test_n_star_jordan():
    assert n_star(JORDAN_100, gamma=1.0, eta=0.01) == 1


def test_n_star_all_small_values_qualify():
    s = np.full(50, 1e-12)
    assert n_star(s, gamma=1.0, eta=0.01) == 50


def test_n_star_threshold_is_size_aware():
    # s_{N-i+1} <= N^(eta-gamma) * sqrt(N-i+1): larger windows get larger
    # thresholds, so a flat tail slightly above the i=1 threshold can still
    # qualify at larger i.
    n = 100
    tail = float(n) ** (0.01 - 1.0) * math.sqrt(n - 3)  # passes at i = 4
    s = np.array([1.0] * (n - 4) + [tail] * 4)
    assert n_star(s, gamma=1.0, eta=0.01) == 4


def test_n_star_defaults_to_one():
    assert n_star(np.full(30, 5.0), gamma=1.0, eta=0.01) == 1


def test_n_star_parameter_gates():
    with pytest.raises(ParameterError):
        n_star(JORDAN_100, gamma=0.5, eta=0.01)
    with pytest.raises(ParameterError):
        n_star(JORDAN_100, gamma=1.0, eta=0.0)


def test_bpz_conventions_differ_on_exact_zeros():
    # Inclusive keeps the zero singular value (sum through N - N* + 1) and
    # diverges; drop_all_small stops one index earlier and stays finite.
    assert bpz_equivalent(JORDAN_100, 1, "inclusive") == -math.inf
    assert bpz_equivalent(JORDAN_100, 1, "drop_all_small") == 0.0


def test_bpz_agrees_across_conventions_on_positive_spectra():
    s = descending(seed=9, n=21) + 0.5
    inc = bpz_equivalent(s, 3, "inclusive")
    drop = bpz_equivalent(s, 3, "drop_all_small")
    # They differ by exactly the (N - N* + 1)-th log.
    assert abs(inc - drop - math.log(s[21 - 3]) / 21) <= 1e-12


def test_bpz_validation():
    with pytest.raises(ValueError):
        bpz_equivalent(JORDAN_100, 0)
    with pytest.raises(ValueError):
        bpz_equivalent(JORDAN_100, 101)
    with pytest.raises(ValueError):
        bpz_equivalent(JORDAN_100, 1, "all")
    assert set(CONVENTIONS) == {"inclusive", "drop_all_small"}


@given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 20))
@settings(max_examples=40, deadline=None)
def test_bpz_matches_loop_oracle(seed, k):
    s = descending(seed, 20) + 0.01
    expected = sum(math.log(x) for x in s[: 20 - k + 1]) / 20
    assert abs(bpz_equivalent(s, k, "inclusive") - expected) <= 1e-12


# ---------------------------------------------------------------------------
# parameter records and budgets


def valid_params(**overrides):
    base = dict(
        alpha=0.5, m=1, nu_n=math.log(100) / 100, gamma=4.0, eta=0.01,
        delta=1e-7, tau=10.0, kappa1=0.5,
    )
    base.update(overrides)
    return EquivalenceParams(**base)


def test_violations_empty_for_valid_params():
    assert valid_params().violations(100) == []


def test_violations_name_each_constraint():
    assert any("outside (0, 1]" in v for v in valid_params(alpha=1.5).violations(100))
    assert any("below its floor" in v for v in valid_params(alpha=1e-5).violations(100))
    assert any("exceeds nu_n" in v for v in valid_params(m=50).violations(100))
    assert any("below N^-gamma" in v for v in valid_params(delta=1e-12).violations(100))
    assert any("exceeds headroom" in v for v in valid_params(delta=1e-2).violations(100))
    assert any("tau" in v for v in valid_params(tau=0.0).violations(100))


def test_violations_name_the_sign_constraints():
    assert valid_params(m=-1, eta=0.0, delta=-1.0).violations(100) == [
        "deflation count m = -1 outside [0, 100]",
        "eta must be positive, got 0.0",
        "delta must be nonnegative, got -1.0",
    ]


def test_zero_delta_is_outside_theorem_not_invalid():
    p = valid_params(delta=0.0)
    assert p.violations(100) == []
    assert p.outside_theorem()
    assert not valid_params().outside_theorem()


def test_validate_raises_with_joined_messages():
    with pytest.raises(ParameterError):
        valid_params(alpha=2.0, tau=-1.0).validate(100)


def test_error_budget_arithmetic():
    p = valid_params(alpha=0.5, nu_n=0.2, delta=1e-6, tau=10.0, kappa1=0.5, m=1)
    budget = error_budget(p, 100)
    expected = 0.2 + 1e-6 * 10.0 * 10.0 / 0.5
    assert abs(budget.error_bound - expected) < 1e-15
    assert abs(budget.failure_prob - 0.1) < 1e-15


def test_error_budget_scales_with_constant():
    p = valid_params(C=8.0)
    assert abs(error_budget(p, 100).error_bound - 8.0 * error_budget(valid_params(), 100).error_bound) < 1e-12


def test_error_budget_adds_probe_failure_rate():
    budget = error_budget(valid_params(), 100, eps_n=0.02)
    assert abs(budget.failure_prob - 0.12) < 1e-15
    with pytest.raises(ParameterError):
        error_budget(valid_params(), 100, eps_n=-0.1)


def test_admissible_delta_range_example():
    lo, hi = admissible_delta_range(alpha=0.5, gamma=4.0, kappa1=0.5, tau=10.0, n=100)
    assert lo == 1e-8
    assert abs(hi - 0.1 * 0.1 * 0.5 / 10.0) < 1e-18


def test_admissible_delta_range_can_be_empty():
    lo, hi = admissible_delta_range(alpha=0.01, gamma=0.6, kappa1=0.5, tau=100.0, n=50)
    assert lo > hi  # reported, not raised


def test_admissible_delta_range_validation():
    with pytest.raises(ParameterError):
        admissible_delta_range(alpha=0.0, gamma=1.0, kappa1=0.5, tau=10.0, n=100)
    with pytest.raises(ParameterError):
        admissible_delta_range(alpha=0.5, gamma=1.0, kappa1=0.5, tau=10.0, n=0)
