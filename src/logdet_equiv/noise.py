"""Seedable noise ensembles and empirical probes of their regularity.

Every built-in model is normalized to zero mean and unit variance per entry
(``E|g_ij|^2 = 1``) so noise amplitudes are comparable across models.  The
probes measure the three properties the perturbation theory consumes: the
operator-norm growth exponent ``kappa1``, Markov-type norm tails in ``tau``,
and anti-concentration of the smallest singular value of ``D + G``.

Reproducibility contract: every trial draws from its own substream derived
by hashing the root seed with a counter key, so results do not depend on
execution order or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equivalents import ParameterError, _size_power
from .linalg import _require_square, as_matrix, operator_norm, smallest_singular_value

__all__ = [
    "NOISE_KINDS",
    "ProbeResult",
    "NormGrowthFit",
    "substream_seed",
    "sample",
    "fit_growth",
    "norm_growth_probe",
    "markov_tail_check",
    "anti_concentration_probe",
]

NOISE_KINDS = ("complex_ginibre", "real_gaussian", "rademacher_complex", "uniform_complex")
MARKOV_KAPPA1 = 0.5  # norm-growth exponent of markov_tail_check's scale


def _check_kind(model: str) -> None:
    if model not in NOISE_KINDS:
        raise ParameterError(f"unknown noise model {model!r}; choose from {NOISE_KINDS}")


def substream_seed(seed: int, *key: int) -> int:
    """Derive an independent 64-bit subseed from a root seed and a key path."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def sample(model: str, n: int, seed: int, out: np.ndarray | None = None) -> np.ndarray:
    """Draw one ``n x n`` noise matrix; a pure function of ``(model, n, seed)``.

    complex_ginibre: ``(x + iy)/sqrt(2)`` with independent standard normals.
    real_gaussian: standard normals (stored complex for uniformity).
    rademacher_complex: ``(s1 + i s2)/sqrt(2)`` with independent signs.
    uniform_complex: uniform on the disk of radius ``sqrt(2)``.

    With ``out`` (an ``n x n`` complex128 array, checked before any draw) the
    draw overwrites it and ``out`` itself is returned, bit for bit what
    ``out=None`` returns in a fresh array.
    """
    _check_kind(model)
    n = int(n)
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")
    if out is None:
        out = np.empty((n, n), dtype=np.complex128)
    elif not isinstance(out, np.ndarray) or out.shape != (n, n) or out.dtype != np.complex128:
        dtype = getattr(out, "dtype", None)
        raise ValueError(f"out must be complex128 of shape {(n, n)}, got {dtype} of shape {np.shape(out)}")
    rng = np.random.default_rng(int(seed))
    # Dividing a complex array by sqrt(2) multiplies each part by 1/sqrt(2).
    scale = 1.0 / math.sqrt(2.0)
    if model == "complex_ginibre":
        buf = rng.standard_normal((n, n))
        np.multiply(buf, scale, out=out.real)
        np.multiply(rng.standard_normal(out=buf), scale, out=out.imag)
    elif model == "real_gaussian":
        out.real = rng.standard_normal((n, n))
        out.imag = 0.0
    elif model == "rademacher_complex":
        np.multiply(2.0 * rng.integers(0, 2, size=(n, n)) - 1.0, scale, out=out.real)
        np.multiply(2.0 * rng.integers(0, 2, size=(n, n)) - 1.0, scale, out=out.imag)
    else:
        # uniform_complex: radius sqrt(2)*sqrt(U) makes E|g|^2 = 2*E[U] = 1
        radius = math.sqrt(2.0) * np.sqrt(rng.random((n, n)))
        angle = 2.0 * math.pi * rng.random((n, n))
        np.multiply(radius, np.exp(1j * angle), out=out)
    return out


@dataclass(frozen=True)
class ProbeResult:
    """Per-trial statistics plus a summary for one probe at one size."""

    model: str
    n: int
    trials: int
    stat_name: str
    values: tuple
    summary: dict

    def csv_rows(self):
        """Rows (model, N, trial, stat_name, value), one per trial."""
        for k, v in enumerate(self.values):
            yield (self.model, self.n, k, self.stat_name, v)


@dataclass(frozen=True)
class NormGrowthFit:
    """Least-squares fit of ``log mean ||G||`` against ``log N``.

    Wraps one :class:`ProbeResult` per matrix size (each satisfying the
    one-size/one-stat shape) together with the fitted growth exponent.
    """

    per_n: tuple
    kappa1_hat: float
    intercept: float
    residuals: tuple

    @property
    def summary(self) -> dict:
        return {
            "kappa1_hat": self.kappa1_hat,
            "intercept": self.intercept,
            "residuals": list(self.residuals),
            "sizes": [r.n for r in self.per_n],
            "mean_norms": [r.summary["mean"] for r in self.per_n],
        }

    def csv_rows(self):
        for result in self.per_n:
            yield from result.csv_rows()


def fit_growth(n_list, mean_norms) -> tuple[float, float, tuple]:
    """Slope, intercept, residuals of ``log mean`` vs ``log N``."""
    logs_n = np.log(np.asarray(n_list, dtype=float))
    logs_m = np.log(np.asarray(mean_norms, dtype=float))
    slope, intercept = np.polyfit(logs_n, logs_m, 1)
    residuals = logs_m - (intercept + slope * logs_n)
    return float(slope), float(intercept), tuple(float(r) for r in residuals)


def _probe_values(model: str, n: int, trials: int, seed: int, block: int, measure) -> np.ndarray:
    """``measure(G)`` for each draw ``G = sample(model, n, substream_seed(seed, block, k))``, ``k < trials``."""
    return np.array([measure(sample(model, n, substream_seed(seed, block, k))) for k in range(trials)], dtype=float)


def _result(model: str, n: int, stat_name: str, values: np.ndarray, **extra) -> ProbeResult:
    """``values`` (one per trial) with a summary of their mean and quantiles, then ``extra``."""
    qs = np.quantile(values, [0.05, 0.25, 0.5, 0.75, 0.95])
    quantiles = {key: float(q) for key, q in zip(("q05", "q25", "q50", "q75", "q95"), qs)}
    summary = {"mean": float(values.mean()), "quantiles": quantiles, **extra}
    return ProbeResult(model, int(n), values.size, stat_name, tuple(values.tolist()), summary)


def norm_growth_probe(model: str, n_list, trials: int, seed: int) -> NormGrowthFit:
    """Estimate the norm-growth exponent ``kappa1`` across sizes."""
    _check_kind(model)
    sizes = [int(n) for n in n_list]
    if len(sizes) < 2:
        raise ValueError("need at least two matrix sizes to fit a growth exponent")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("matrix sizes must be strictly ascending")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    per_n = [
        _result(model, n, "operator_norm", _probe_values(model, n, trials, seed, block, operator_norm))
        for block, n in enumerate(sizes)
    ]
    slope, intercept, residuals = fit_growth(sizes, [r.summary["mean"] for r in per_n])
    return NormGrowthFit(per_n=tuple(per_n), kappa1_hat=slope, intercept=intercept, residuals=residuals)


def markov_tail_check(model: str, n: int, trials: int, tau_list, seed: int = 0) -> ProbeResult:
    """Empirical norm tails against the Markov bound ``P(||G|| > c N^k1 tau) <= 1/tau``.

    The scale ``c`` is calibrated from the same sample as the empirical
    mean ``||G|| / N^kappa1`` (``kappa1 =`` :data:`MARKOV_KAPPA1`), making
    the bound exactly Markov's inequality in disguise; it must hold for any
    distribution, so each tau gets a pass flag at three binomial standard
    errors.
    """
    _check_kind(model)
    if trials < 100:
        raise ValueError("tail estimates need at least 100 trials")
    taus = [float(t) for t in tau_list]
    if any(t <= 0 for t in taus):
        raise ValueError("tau values must be positive")
    norms = _probe_values(model, n, trials, seed, 0, operator_norm)
    mean_norm = float(norms.mean())
    c_hat = mean_norm / float(n) ** MARKOV_KAPPA1
    checks = []
    for tau in taus:
        bound = 1.0 / tau
        empirical = float(np.mean(norms > mean_norm * tau))
        se = math.sqrt(bound * (1.0 - bound) / trials) if bound < 1.0 else 0.0
        passed = bool(empirical <= bound + 3.0 * se)
        checks.append({"tau": tau, "empirical": empirical, "bound": bound, "se": se, "pass": passed})
    return _result(model, n, "operator_norm", norms, c_hat=c_hat, kappa1=MARKOV_KAPPA1, tails=checks)


def _frequencies(n: int, betas, gamma: float | None = None):
    """Values -> each beta, its threshold ``N^-beta`` (``N^-(gamma + beta)`` given ``gamma``) and the share
    of values at or below it.  Every threshold is taken here first, so an overflow is named before any draw."""
    if gamma is None:
        thresholds = [_size_power(n, "beta", b, -1.0) for b in betas]
    else:
        thresholds = [_size_power(n, "gamma + beta", gamma + b, -1.0) for b in betas]
    return lambda v: [dict(beta=b, threshold=t, frequency=float(np.mean(v <= t))) for b, t in zip(betas, thresholds)]


def _rescaled_frequencies(d, model: str, trials: int, betas, seed: int, delta: float, gamma: float) -> list:
    """:func:`anti_concentration_probe`'s ``rescaled_frequencies``, at one SVD per trial: only
    ``s_min(D + delta G)`` is measured, for a ``delta`` the caller has checked."""
    scaled = _frequencies(d.shape[0], betas, gamma)
    smin = _probe_values(model, d.shape[0], trials, seed, 0, lambda g: smallest_singular_value(d + delta * g))
    return scaled(smin)


def anti_concentration_probe(
    d,
    model: str,
    trials: int,
    beta_list,
    seed: int,
    delta: float | None = None,
    gamma: float | None = None,
) -> ProbeResult:
    """Frequency of abnormally small ``s_min(D + G)`` over noise draws.

    For each ``beta`` reports the empirical frequency of
    ``s_min(D + G) <= N**-beta``.  When both ``delta`` and ``gamma`` are
    given (with ``delta >= N**-gamma``), also reports the rescaled variant:
    the frequency of ``s_min(D + delta G) <= N**-(gamma + beta)``, with each ``G``
    redrawn from the same seeds as the plain variant's.

    ``trials = 0`` is legal and yields undefined (None) frequencies.
    """
    d = _require_square(as_matrix(d))
    _check_kind(model)
    n = d.shape[0]
    betas = [float(b) for b in beta_list]
    plain = _frequencies(n, betas)
    rescaled = delta is not None or gamma is not None
    if rescaled:
        if delta is None or gamma is None:
            raise ValueError("the rescaled variant needs both delta and gamma")
        floor = _size_power(n, "gamma", gamma, -1.0)
        if delta < floor:
            raise ValueError(f"rescaled variant assumes delta >= N^-gamma = {floor:.3g}")
        _frequencies(n, betas, gamma)  # names an overflowing N^-(gamma + beta) before any draw
    if trials == 0:
        summary = {"mean": None, "quantiles": None, "frequencies": None, "rescaled_frequencies": None}
        return ProbeResult(model, n, 0, "smallest_singular_value", (), summary)
    smin = _probe_values(model, n, trials, seed, 0, lambda g: smallest_singular_value(d + g))
    scaled = _rescaled_frequencies(d, model, trials, betas, seed, delta, gamma) if rescaled else None
    return _result(model, n, "smallest_singular_value", smin, frequencies=plain(smin), rescaled_frequencies=scaled)
