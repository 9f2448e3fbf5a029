"""Cutoff sums of log singular values and the parameter arithmetic around them.

The central quantity is the deterministic equivalent

    (1/N) * sum_{j : s_j > alpha} log s_j

of ``(1/N) log |det (A + delta G)|``: small singular values are simply cut
away and the noise amplitude ``delta`` is confined to a window where it can
neither resurrect them nor distort the retained ones.  This module owns the
cutoff ``alpha``, the deflation count ``M``, the size-dependent cutoff index
``N*``, the admissible ``delta`` window, and the error/probability budgets.

All sums are accumulated with ``math.fsum`` so that exactly representable
answers (e.g. every singular value equal) come out exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParameterError",
    "EquivalenceParams",
    "ErrorBudget",
    "CONVENTIONS",
    "deterministic_equivalent",
    "count_below",
    "auto_alpha",
    "n_star",
    "bpz_equivalent",
    "error_budget",
    "admissible_delta_range",
]

CONVENTIONS = ("inclusive", "drop_all_small")


class ParameterError(ValueError):
    """A parameter set or an experiment configuration violates one of its
    declared constraints; ``experiments.ConfigError`` is this class."""


def _size_power(n: int, name: str, value: float, sign: float = 1.0) -> float:
    """``N ** (sign * value)`` for the parameter ``name = value``.

    Raises ParameterError naming the parameter when the power overflows a float.
    """
    try:
        return float(n) ** (sign * float(value))
    except OverflowError:
        exponent = name if sign > 0 else f"-({name})" if " " in name else f"-{name}"
        power = f"N^({exponent})"
        raise ParameterError(f"{name} = {value}: {power} overflows a float at N = {n}") from None


def _as_descending(singvals) -> np.ndarray:
    s = np.asarray(singvals, dtype=float)
    if s.ndim != 1:
        raise ValueError(f"singular values must be a 1-d sequence, got ndim={s.ndim}")
    if s.size == 0:
        raise ValueError("singular value sequence must be nonempty")
    if not np.isfinite(s).all():
        raise ValueError("singular values must be finite")
    if s[-1] < 0:
        raise ValueError("singular values must be nonnegative")
    if np.any(np.diff(s) > 0):
        raise ValueError("singular values must be sorted descending")
    return s


def _count_above(s: np.ndarray, alpha):
    # descending array: first index where s[j] <= alpha, via binary search (one per entry of an array alpha)
    return np.searchsorted(-s, -alpha, side="left")


def count_below(singvals, alpha: float) -> int:
    """Number of singular values ``<= alpha`` (the deflation count ``M``)."""
    s = _as_descending(singvals)
    return int(s.size) - int(_count_above(s, float(alpha)))


def deterministic_equivalent(singvals, alpha: float) -> float:
    """``(1/N) * sum_{j : s_j > alpha} log s_j``; an empty sum is 0."""
    s = _as_descending(singvals)
    alpha = float(alpha)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    k = _count_above(s, alpha)
    if k == 0:
        return 0.0
    return math.fsum(math.log(float(x)) for x in s[:k]) / s.size


def auto_alpha(singvals, nu_n_target: float, L: float = 2.0, C: float = 1.0):
    """Pick the largest valid cutoff, or ``None`` when no candidate works.

    Candidates are ``{C * N**-L, 1}`` plus midpoints between consecutive
    distinct singular values, restricted to ``[C * N**-L, 1]``.  The largest
    candidate whose deflation count stays within ``nu_n_target * N / log N``
    wins; placing cutoffs mid-gap keeps the alpha-dependent norm bounds away
    from degenerate equality.

    Returns ``(alpha, M)`` or ``None``.
    """
    s = _as_descending(singvals)
    n = int(s.size)
    lo = float(C) * _size_power(n, "L", L, -1.0)
    if lo > 1.0:
        return None
    budget = nu_n_target * n / math.log(n) if n >= 2 else float(n)
    candidates = {lo, 1.0}
    ascending = s[::-1]  # deduplicated without np.unique, which imports numpy.ma
    distinct = ascending[np.concatenate(([True], ascending[1:] != ascending[:-1]))]
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    candidates.update(float(x) for x in mids if lo <= x <= 1.0)
    alphas = np.array(sorted(candidates, reverse=True))
    counts = n - _count_above(s, alphas)
    fits = np.flatnonzero(counts <= budget)
    if fits.size == 0:
        return None
    return float(alphas[fits[0]]), int(counts[fits[0]])


def n_star(singvals, gamma: float, eta: float) -> int:
    """Largest ``i`` with ``s_{N-i+1} <= N**(eta-gamma) * (N-i+1)**0.5``, else 1.

    The threshold grows with the number of retained values, so trailing
    near-zero singular values qualify first.  ``gamma > 1/2`` and ``eta > 0``
    keep the threshold meaningful.
    """
    s = _as_descending(singvals)
    gamma = float(gamma)
    eta = float(eta)
    if gamma <= 0.5:
        raise ParameterError(f"gamma must exceed 1/2, got {gamma}")
    if eta <= 0:
        raise ParameterError(f"eta must be positive, got {eta}")
    n = int(s.size)
    i = np.arange(1, n + 1)
    thresholds = _size_power(n, "eta - gamma", eta - gamma) * np.sqrt(n - i + 1)
    qualifies = s[n - i] <= thresholds
    if not qualifies.any():
        return 1
    return int(i[qualifies].max())


def bpz_equivalent(singvals, n_star_value: int, convention: str = "inclusive") -> float:
    """Cutoff sum ``(1/N) sum_{i <= N - N* (+1)} log s_i``.

    The ``inclusive`` convention sums through index ``N - N* + 1`` and may be
    ``-inf`` when that last retained value is zero; ``drop_all_small`` stops
    at ``N - N*``, dropping every qualifying small value.  Both are exposed
    because the inclusive upper limit can contradict finiteness on spectra
    with exact zeros (e.g. a Jordan block), and the intended convention is
    ambiguous; callers choose.
    """
    if convention not in CONVENTIONS:
        raise ParameterError(f"unknown convention {convention!r}; choose from {CONVENTIONS}")
    s = _as_descending(singvals)
    n = int(s.size)
    n_star_value = int(n_star_value)
    if not 1 <= n_star_value <= n:
        raise ValueError(f"n_star must lie in [1, {n}], got {n_star_value}")
    upper = n - n_star_value + 1 if convention == "inclusive" else n - n_star_value
    head = s[:upper]
    if np.any(head == 0.0):
        return float("-inf")
    return math.fsum(math.log(float(x)) for x in head) / n


@dataclass(frozen=True)
class EquivalenceParams:
    """Cutoff, deflation, and noise-window parameters for one matrix size.

    ``alpha`` is the singular-value cutoff, ``m`` the number of values at or
    below it, ``nu_n = m * log N / N`` the deflation rate.  ``delta`` is the
    noise amplitude, admissible when ``N**-gamma <= delta`` and
    ``delta * N**kappa1 * tau / alpha <= headroom``; ``delta = 0`` is allowed
    as a noiseless diagnostic mode and is flagged as outside the theorem's
    window rather than rejected.
    """

    alpha: float
    m: int
    nu_n: float
    gamma: float
    eta: float
    delta: float
    tau: float
    kappa1: float
    beta: float = 2.0
    L: float = 2.0
    C: float = 1.0
    headroom: float = 0.1

    def violations(self, n: int) -> list[str]:
        """All violated constraints at size ``n`` (empty list = valid).

        Raises ParameterError when a power of ``N`` overflows a float.
        """
        out = []
        if not 0.0 < self.alpha <= 1.0:
            out.append(f"alpha = {self.alpha} outside (0, 1]")
        else:
            floor = self.C * _size_power(n, "L", self.L, -1.0)
            if self.alpha < floor * (1.0 - 1e-12):
                out.append(f"alpha = {self.alpha} below its floor C*N^-L = {floor:.3g}")
        if self.m < 0 or self.m > n:
            out.append(f"deflation count m = {self.m} outside [0, {n}]")
        budget = self.nu_n * n / math.log(n) if n >= 2 else float(n)
        if self.m > budget + 1e-9:
            out.append(f"deflation count m = {self.m} exceeds nu_n*N/log N = {budget:.3g}")
        if self.tau <= 0:
            out.append(f"tau must be positive, got {self.tau}")
        if not 0.0 < self.headroom < 1.0:
            out.append(f"headroom must lie in (0, 1), got {self.headroom}")
        if self.eta <= 0:
            out.append(f"eta must be positive, got {self.eta}")
        if self.C <= 0:
            out.append(f"C must be positive, got {self.C}")
        if self.delta < 0:
            out.append(f"delta must be nonnegative, got {self.delta}")
        elif self.delta > 0 and self.tau > 0 and 0 < self.alpha:
            lower = _size_power(n, "gamma", self.gamma, -1.0)
            if self.delta < lower * (1.0 - 1e-12):
                out.append(f"delta = {self.delta:.3g} below N^-gamma = {lower:.3g}")
            ratio = self.delta * _size_power(n, "kappa1", self.kappa1) * self.tau / self.alpha
            if ratio > self.headroom * (1.0 + 1e-12):
                out.append(
                    f"delta*N^kappa1*tau/alpha = {ratio:.3g} exceeds headroom = {self.headroom}"
                )
        return out

    def validate(self, n: int) -> "EquivalenceParams":
        bad = self.violations(n)
        if bad:
            raise ParameterError("; ".join(bad))
        return self

    def outside_theorem(self) -> bool:
        """True in the noiseless diagnostic mode (delta = 0)."""
        return self.delta == 0.0


@dataclass(frozen=True)
class ErrorBudget:
    """Theorem-level error bound and failure probability.

    ``error_bound = C * (nu_n + delta * tau * N**kappa1 / alpha)``;
    ``failure_prob = eps_n + 1/tau`` where ``eps_n`` is an empirical
    anti-concentration failure rate (0 when not probed, making the floor
    ``1 - failure_prob`` partial).
    """

    error_bound: float
    failure_prob: float


def error_budget(p: EquivalenceParams, n: int, eps_n: float = 0.0) -> ErrorBudget:
    """Evaluate the error/probability budget for validated parameters."""
    p.validate(n)
    if eps_n < 0:
        raise ParameterError(f"eps_n must be nonnegative, got {eps_n}")
    bound = p.C * (p.nu_n + p.delta * p.tau * _size_power(n, "kappa1", p.kappa1) / p.alpha)
    return ErrorBudget(error_bound=float(bound), failure_prob=float(eps_n + 1.0 / p.tau))


def admissible_delta_range(
    alpha: float,
    gamma: float,
    kappa1: float,
    tau: float,
    n: int,
    headroom: float = 0.1,
) -> tuple[float, float]:
    """The window ``[N**-gamma, headroom * N**-kappa1 * alpha / tau]``.

    An empty window (lower > upper) signals infeasible parameters; it is
    returned, not raised, so callers can report both endpoints.
    """
    if alpha <= 0 or tau <= 0 or n < 1 or headroom <= 0:
        raise ParameterError("alpha, tau, n, headroom must all be positive")
    lower = _size_power(n, "gamma", gamma, -1.0)
    upper = headroom * _size_power(n, "kappa1", kappa1, -1.0) * alpha / tau
    return (lower, upper)
