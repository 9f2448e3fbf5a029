"""Tests for the noise ensembles, substreams, and regularity probes."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdet_equiv import noise
from logdet_equiv import (
    NOISE_KINDS,
    ExperimentConfig,
    MatrixSpec,
    ParameterError,
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


# sha256 of sample(model, n, seed).tobytes(), taken before sample gained its out argument.
STREAM_SHA256 = {
    ("complex_ginibre", 1, 0): "f5b87fdb7b2bbcf2927e9a17654642467d1a2616378f03850239c0f6ea7e4357",
    ("complex_ginibre", 7, 3): "42c7303bbdca58a5ac11dcaefd6b09cad09f7180d16b7778614a1306571445b2",
    ("complex_ginibre", 64, 11): "77170c9ae7e6684c116428bafcdfae8ada1bd8ab27790a94fab3b773236e8401",
    ("complex_ginibre", 245, 7): "df8e9ce4d2a933ec16193ff1d1015c24c1b50820bc25dc8eb698120dd1ffee3b",
    ("complex_ginibre", 500, 20260814): "299af3e90a296662373776da256ee11d2c5e5bf62cf4e9a0ef657d005e5d380c",
    ("real_gaussian", 1, 0): "2ba92a3403a0022e57fc5bf9852039f7fa30424a62a20d84457e8270fbe134b2",
    ("real_gaussian", 7, 3): "b05bcf0500476781574ce6e010fff8217a9a21ed7f7ed16cb09943d7fa2ad5ef",
    ("real_gaussian", 64, 11): "633c445eda17e818189a5836740b9b7391c04fd5e6e55c04776fe41a9792c11a",
    ("real_gaussian", 245, 7): "7b713a7ad7030e91c170aa349c373417ba1c9144131ac9fc2d92373fa2f3bde6",
    ("real_gaussian", 500, 20260814): "96b8a2405328a27b6746470eb3a1362a4b1ffd8fb3246fc51294718b76e00593",
    ("rademacher_complex", 1, 0): "d6974b80c320e46e362b0172f08283aea0ee3fb046880b968530260620110901",
    ("rademacher_complex", 7, 3): "e7d4a93aaa6daf6283f41dc68efb88cbfc40596a45097fca78b32e29203bca27",
    ("rademacher_complex", 64, 11): "af410a83493988e23a212245625c8416184f63e6e5e46b23988fd4c5bc85d2c7",
    ("rademacher_complex", 245, 7): "245de9d8c3d98551f8e83c8d127520ee8ca00bf86d70ffa9c3baf61021a783c3",
    ("rademacher_complex", 500, 20260814): "82030c8231073f09b885253ead91cb729abec551c8d7fb4bff17c049abd94554",
    ("uniform_complex", 1, 0): "52d537251a751c98a2152bbe497063e29a6bc3d88b2ef432382540afd1a3ea28",
    ("uniform_complex", 7, 3): "e01cb52b6b5a182583ada44603dcd6e0c196eedaddf475b43804b5e38cfd853a",
    ("uniform_complex", 64, 11): "af16456423073cc9d575b97673aae547b156dceeed0dde017ee4a7b2fa5ca855",
    ("uniform_complex", 245, 7): "ef81ff5730ac0269c063d816faa1c60984001b419b1d7f49a7cec4f833f193fd",
    ("uniform_complex", 500, 20260814): "6d35567b204b99fc85cee9c4cddf67df47fc51149e4707d15a0a50b897a79259",
}


@pytest.mark.parametrize("key", sorted(STREAM_SHA256))
def test_sample_streams_are_pinned(key):
    model, n, seed = key
    assert hashlib.sha256(sample(model, n, seed).tobytes()).hexdigest() == STREAM_SHA256[key]


@pytest.mark.parametrize("model", NOISE_KINDS)
@pytest.mark.parametrize("n", [1, 7, 64])
def test_sample_into_out_returns_out_bitwise(model, n):
    buf = np.full((n, n), complex(np.nan, np.nan))
    assert sample(model, n, 5, out=buf) is buf
    assert buf.tobytes() == sample(model, n, 5).tobytes()
    # a used buffer is overwritten entirely
    assert sample(model, n, 6, out=buf).tobytes() == sample(model, n, 6).tobytes()


@pytest.mark.parametrize(
    "out",
    [
        np.zeros((4, 5), dtype=np.complex128),
        np.zeros((5, 5), dtype=np.complex128),
        np.zeros((4, 4), dtype=np.complex64),
        np.zeros((4, 4), dtype=np.float64),
        np.zeros(16, dtype=np.complex128),
        [[0j] * 4] * 4,
    ],
    ids=["4x5", "5x5", "complex64", "float64", "flat", "list"],
)
def test_sample_rejects_a_wrong_out_before_drawing(out, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew noise before checking out")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    before = np.array(out).tobytes()
    with pytest.raises(ValueError, match="out must be complex128 of shape"):
        sample("complex_ginibre", 4, 0, out=out)
    assert np.array(out).tobytes() == before


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


def test_a_probe_names_a_size_that_cannot_be_drawn():
    # The draw loop has sample name such a size before it pins OpenBLAS or forks its helper.
    with pytest.raises(ValueError, match=r"^matrix size must be >= 1, got 0$"):
        norm_growth_probe("complex_ginibre", [0, 4], trials=2, seed=0)
    with pytest.raises(ValueError, match=r"^matrix size must be >= 1, got -3$"):
        markov_tail_check("complex_ginibre", -3, trials=100, tau_list=[2.0])


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


def test_an_unknown_noise_model_is_one_parameter_error():
    with pytest.raises(ParameterError) as drawn:
        sample("white_noise", 4, 0)
    with pytest.raises(ParameterError) as configured:
        ExperimentConfig(matrix=MatrixSpec(kind="zero", n=4), model="white_noise")
    assert str(drawn.value) == str(configured.value)
    assert str(drawn.value) == f"unknown noise model 'white_noise'; choose from {NOISE_KINDS}"


def test_the_rescaled_frequencies_take_only_their_own_thresholds():
    # gamma + beta = 1 gives the one threshold 8^-1, while the plain N^-beta = 8^400 would overflow a float.
    rates = noise._rescaled_frequencies(np.eye(8), "complex_ginibre", 3, [-400.0], 1, 1e-3, 401.0)
    assert rates == [{"beta": -400.0, "threshold": 0.125, "frequency": 0.0}]
    # The probe's plain variant reads N^-beta, so it still names that overflow before any draw.
    with pytest.raises(ValueError, match=r"beta = -400.0: N\^\(-beta\) overflows a float at N = 8"):
        anti_concentration_probe(np.eye(8), "complex_ginibre", 3, [-400.0], 1, delta=1e-3, gamma=401.0)


# ---------------------------------------------------------------------------
# summaries

# Ties, signed zeros and infinities, as well as arbitrary floats.
SUMMARY_VALUES = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, math.inf, -math.inf]), st.floats()),
                          min_size=1, max_size=40)


@given(values=SUMMARY_VALUES, q=st.one_of(st.sampled_from([0.05, 0.25, 0.5, 0.75, 0.95]), st.floats(0.0, 1.0)))
@settings(max_examples=300, deadline=None)
def test_median_and_quantile_are_numpys_bits(values, q):
    v = np.array(values)
    finite = v[np.isfinite(v)]
    with np.errstate(all="ignore"):  # inf - inf, and a difference of two huge values, as numpy meets them
        assert np.float64(noise._median(v)).tobytes() == np.float64(np.median(v)).tobytes()
        if finite.size:
            assert np.float64(noise._quantile(finite, q)).tobytes() == np.float64(np.quantile(finite, q)).tobytes()
