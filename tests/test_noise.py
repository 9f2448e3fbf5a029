"""Tests for the noise ensembles, substreams, and regularity probes."""

import math

import numpy as np
import pytest

from logdet_equiv import noise
from logdet_equiv import (
    NOISE_KINDS,
    anti_concentration_probe,
    fit_growth,
    markov_tail_check,
    norm_growth_probe,
    sample,
    substream_seed,
)


# ---------------------------------------------------------------------------
# sampling and substreams


@pytest.mark.parametrize("model", NOISE_KINDS)
def test_sample_is_pure_in_its_arguments(model):
    a = sample(model, 12, 42)
    b = sample(model, 12, 42)
    np.testing.assert_array_equal(a, b)
    c = sample(model, 12, 43)
    assert np.abs(a - c).max() > 0


def test_sample_validation():
    with pytest.raises(ValueError):
        sample("ginobili", 4, 0)
    with pytest.raises(ValueError):
        sample("complex_ginibre", 0, 0)


def test_unit_variance_normalization():
    # E|g|^2 = 1 for every model; 60000 entries give ~0.6% standard error.
    for model in NOISE_KINDS:
        g = sample(model, 245, seed=7)
        second_moment = float(np.mean(np.abs(g) ** 2))
        assert abs(second_moment - 1.0) < 0.05, model
        assert abs(complex(g.mean())) < 0.05, model


def test_model_specific_shapes():
    rad = sample("rademacher_complex", 30, 1)
    np.testing.assert_allclose(np.abs(rad), 1.0, atol=1e-15)
    real = sample("real_gaussian", 30, 1)
    assert np.abs(real.imag).max() == 0.0
    disk = sample("uniform_complex", 30, 1)
    assert np.abs(disk).max() <= math.sqrt(2.0) + 1e-12


def test_substream_seed_is_deterministic_and_key_sensitive():
    assert substream_seed(5, 1, 2) == substream_seed(5, 1, 2)
    seen = {
        substream_seed(5),
        substream_seed(5, 0),
        substream_seed(5, 1),
        substream_seed(5, 0, 1),
        substream_seed(5, 1, 0),  # key order matters
        substream_seed(6, 0, 1),
    }
    assert len(seen) == 6
    for value in seen:
        assert 0 <= value < 2**64


# ---------------------------------------------------------------------------
# norm growth


def test_fit_growth_recovers_exact_power_law():
    sizes = [50, 100, 200, 400]
    means = [3.0 * n**0.7 for n in sizes]
    slope, intercept, residuals = fit_growth(sizes, means)
    assert abs(slope - 0.7) < 1e-9
    assert abs(intercept - math.log(3.0)) < 1e-9
    assert max(abs(r) for r in residuals) < 1e-9


def test_norm_growth_probe_structure_and_band():
    fit = norm_growth_probe("complex_ginibre", [25, 50, 100], trials=10, seed=0)
    assert [r.n for r in fit.per_n] == [25, 50, 100]
    assert all(len(r.values) == 10 for r in fit.per_n)
    # Ginibre operator norms grow like 2 sqrt(N); a loose unit-test band.
    assert 0.3 < fit.kappa1_hat < 0.7
    assert len(list(fit.csv_rows())) == 30
    assert fit.summary["sizes"] == [25, 50, 100]


def test_norm_growth_probe_validation():
    with pytest.raises(ValueError):
        norm_growth_probe("complex_ginibre", [100], trials=5, seed=0)
    with pytest.raises(ValueError):
        norm_growth_probe("complex_ginibre", [100, 50], trials=5, seed=0)
    with pytest.raises(ValueError):
        norm_growth_probe("complex_ginibre", [50, 100], trials=0, seed=0)


def test_norm_growth_reproducible():
    a = norm_growth_probe("real_gaussian", [20, 40], trials=6, seed=3)
    b = norm_growth_probe("real_gaussian", [20, 40], trials=6, seed=3)
    assert a.kappa1_hat == b.kappa1_hat
    assert a.per_n[0].values == b.per_n[0].values


# ---------------------------------------------------------------------------
# Markov tails


def test_markov_tail_check_passes_for_concentrated_norms():
    result = markov_tail_check("complex_ginibre", 50, trials=120, tau_list=[2.0, 5.0], seed=1)
    tails = result.summary["tails"]
    assert [t["tau"] for t in tails] == [2.0, 5.0]
    assert all(t["pass"] for t in tails)
    # Norm concentration: nobody exceeds twice the mean at this size.
    assert tails[0]["empirical"] == 0.0
    assert result.summary["c_hat"] == pytest.approx(2.0, rel=0.2)


def test_markov_tail_tau_one_is_vacuous():
    result = markov_tail_check("complex_ginibre", 30, trials=100, tau_list=[1.0], seed=2)
    tail = result.summary["tails"][0]
    assert tail["bound"] == 1.0
    assert tail["se"] == 0.0
    assert tail["pass"]


def test_markov_tail_check_validation():
    with pytest.raises(ValueError):
        markov_tail_check("complex_ginibre", 30, trials=50, tau_list=[2.0])
    with pytest.raises(ValueError):
        markov_tail_check("complex_ginibre", 30, trials=100, tau_list=[0.0])


# ---------------------------------------------------------------------------
# anti-concentration


def test_anti_concentration_frequencies_bracket():
    d = np.zeros((40, 40))
    result = anti_concentration_probe(d, "complex_ginibre", trials=60, beta_list=[0.0, 3.0], seed=4)
    freqs = {f["beta"]: f["frequency"] for f in result.summary["frequencies"]}
    # s_min(G) is ~ N^-1: almost always below N^0 = 1, almost never below N^-3.
    assert freqs[0.0] >= 0.9
    assert freqs[3.0] <= 0.05
    assert result.summary["rescaled_frequencies"] is None


def test_anti_concentration_rescaled_variant():
    d = np.diag([2.0] * 9 + [0.0])
    result = anti_concentration_probe(
        d, "complex_ginibre", trials=40, beta_list=[2.0], seed=5, delta=0.2, gamma=1.0
    )
    rescaled = result.summary["rescaled_frequencies"]
    assert rescaled is not None and rescaled[0]["beta"] == 2.0
    assert rescaled[0]["threshold"] == pytest.approx(10.0**-3)


def test_anti_concentration_needs_both_rescaling_parameters():
    d = np.zeros((8, 8))
    with pytest.raises(ValueError):
        anti_concentration_probe(d, "complex_ginibre", 10, [1.0], seed=0, delta=0.1)
    with pytest.raises(ValueError):
        anti_concentration_probe(d, "complex_ginibre", 10, [1.0], seed=0, gamma=1.0)
    with pytest.raises(ValueError):
        # delta below N^-gamma is outside the regime the probe reports on.
        anti_concentration_probe(d, "complex_ginibre", 10, [1.0], seed=0, delta=1e-6, gamma=1.0)


@pytest.mark.parametrize(
    "betas, rescaling, named",
    [
        ([1.0, -1000.0], {}, "beta = -1000.0: N^(-beta) overflows"),
        ([-200.0], {"delta": 1e300, "gamma": -200.0}, "gamma + beta = -400.0: N^(-(gamma + beta)) overflows"),
    ],
)
def test_anti_concentration_overflow_is_named_before_sampling(monkeypatch, betas, rescaling, named):
    def no_sampling(*args):
        raise AssertionError("sampled before the thresholds were checked")

    monkeypatch.setattr(noise, "sample", no_sampling)
    with pytest.raises(ValueError) as exc:
        anti_concentration_probe(np.zeros((12, 12)), "complex_ginibre", 5, betas, seed=0, **rescaling)
    assert named in str(exc.value)


def test_anti_concentration_zero_trials_is_legal():
    result = anti_concentration_probe(np.zeros((6, 6)), "complex_ginibre", 0, [1.0], seed=0)
    assert result.values == ()
    assert result.summary["frequencies"] is None
    assert result.summary["mean"] is None


def test_probe_csv_rows_shape():
    d = np.zeros((6, 6))
    result = anti_concentration_probe(d, "complex_ginibre", trials=5, beta_list=[1.0], seed=6)
    rows = list(result.csv_rows())
    assert len(rows) == 5
    model, n, trial, stat, value = rows[0]
    assert (model, n, trial, stat) == ("complex_ginibre", 6, 0, "smallest_singular_value")
    assert isinstance(value, float)
