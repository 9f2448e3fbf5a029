"""Seedable noise ensembles, the draw loop of every run, and empirical probes of their regularity.

Every built-in model is normalized to zero mean and unit variance per entry
(``E|g_ij|^2 = 1``) so noise amplitudes are comparable across models.  The
probes measure the three properties the perturbation theory consumes: the
operator-norm growth exponent ``kappa1``, Markov-type norm tails in ``tau``,
and anti-concentration of the smallest singular value of ``D + G``.

Draw loop: every trial of a run and every draw of a probe takes its noise from
:func:`_serial_draws`, in turn, one loop (and one helper) per run or probe at
all its sizes.  Where it can, a forked helper process draws it one trial ahead
into a two-slot shared ring sized for the loop's largest ``N``, and also takes
what a trial needs of ``G`` alone where the caller names it: ``||G||`` for ``mc
--diagnostics``, and the suite's ``||G||`` and log-determinant and singular
values of ``A + delta G``.  Where it measures, a trial of SVDs outlasts a page
fault many times over, so each slot's pages leave the main process once its
trial is done, and that process holds one slot.  A size or seed it cannot draw
fails before the BLAS pin of :mod:`.linalg`, which the loop holds from before
the fork until the helper is reaped: every LU and SVD of a trial, probe or suite
check runs at one thread, as does the helper.  Only where ``os.fork`` is
missing, nothing is pinned or nothing is drawn do the draws run in process, each
unit's into its first's array.

Reproducibility contract: every trial draws from its own substream derived
by hashing the root seed with a counter key, so results do not depend on
execution order or on whether a helper draws them, nor on
``OPENBLAS_NUM_THREADS`` where the pin holds.
"""

from __future__ import annotations

import math
import os
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from . import linalg
from .equivalents import ParameterError, _size_power
from .linalg import NumericalError, _require_square, as_matrix, operator_norm
from .linalg import smallest_singular_value

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


# What os.fork warns on Python >= 3.12 when /proc/self/stat counts more than one thread.
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks in the child\."


def _fork() -> int:
    """``os.fork()`` without :data:`_FORK_WARNING`, which counts any thread: an OpenBLAS worker or
    one of the caller's (the package starts none).  It is safe to drop for :func:`_helper`, which
    runs numpy's RNG and ufuncs on a generator it makes itself, ``os.read``/``os.write``, and
    LAPACK.  The loop forks only inside its own pin, so the child inherits OpenBLAS at one thread
    and runs each LAPACK call on its own thread, starting no worker; OpenBLAS's own fork handler
    has stopped the parent's idle workers before the fork, and the forking thread is in no BLAS
    call.  So the child waits on no lock that a thread lost in the fork could hold."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
        return os.fork()


def _measured(measure, g: np.ndarray) -> bytes:
    """The values ``fn(g)`` of ``measure = (width, fn)`` as ``width`` float64s, all NaN where ``fn``
    raised or met a floating-point error numpy would warn of, so that the main process takes them
    itself and meets the error there; no bytes without ``measure``."""
    if measure is None:
        return b""
    width, fn = measure
    try:
        with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
            warnings.simplefilter("error")
            values = np.asarray(fn(g), dtype=np.float64).reshape(width)
    except Exception:
        values = np.full(width, np.nan)
    return values.tobytes()


def _helper(draw, keys, ring, drawn: int, free: int, measure):
    """The helper process of :func:`_serial_draws`: ``draw`` ``keys`` in turn into the heads of alternate
    slots of ``ring``, each after taking a token (a free slot) from ``free``, and send each ``seed_used`` with
    the values ``measure`` takes of that ``G`` on ``drawn``.  It stops at an end of file on ``free`` (the main
    process is gone) and leaves through ``os._exit``, so no handler or buffer of the main process runs twice."""
    status = 1
    try:
        for i, (block, n, k) in enumerate(keys):
            if not os.read(free, 1):
                break
            sub, g = draw(block, n, k, ring[i % 2][: n * n].reshape(n, n))
            message = memoryview(sub.to_bytes(8, "little") + _measured(measure, g))
            while message:
                message = message[os.write(drawn, message):]
        status = 0
    finally:
        os._exit(status)


def _read_exactly(fd: int, size: int) -> bytes:
    """``size`` bytes from ``fd``, fewer only at an end of file."""
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            break
        data += chunk
    return data


@contextmanager
def _serial_draws(model: str, seed: int, trials: int, units, measure=None):
    """The draw loop (see the module docstring): the noise of ``model`` under root ``seed`` for trials
    ``0..trials-1`` of each work unit ``(block, N)`` of ``units`` in turn, as an iterator of
    ``(seed_used, G, values)`` whose ``N x N`` ``G`` lasts until the next is taken.

    ``measure``, when given, is ``(width, fn)``: the helper also takes ``fn(G)``, ``width`` floats
    that leave ``G`` as drawn, and ``values`` is them as a float64 array.  ``values`` is None
    without ``measure`` or a helper, and where one of them is NaN (``fn`` failed, see
    :func:`_measured`): then the trial takes them itself.

    A size :func:`sample` rejects or a negative ``seed`` raises ValueError before the pin and the fork.
    The helper (:func:`_helper`) draws into a two-slot shared ``mmap`` ring sized for the largest ``N``,
    each slot a whole number of pages; a trial's ``G`` is the ``N x N`` head of its slot.  One pipe carries
    each ``seed_used`` and its values; the other starts with a token per slot, which the helper takes before
    each draw and each trial returns.  With ``measure``, a trial first drops its slot from this process with
    ``MADV_DONTNEED``: a shared mapping keeps the pages' contents, so only this process's RSS changes, by one
    slot.  Without it, a trial is about one LU, which would pay a fault on every page of its slot.
    Leaving the block closes both pipes and reaps the helper; a dead helper fails the next draw (NumericalError)."""

    def draw(block: int, n: int, k: int, out: np.ndarray | None):
        """The noise of trial ``k`` of work unit ``block``: ``(seed_used, G)``, drawn into ``out`` if given."""
        sub = substream_seed(seed, block, k)
        return sub, sample(model, n, sub, out)

    keys = [(block, n, k) for block, n in units for k in range(trials)]
    for n in (n for _, n, _ in keys if n < 1):  # sample names a size it rejects before it touches numpy.random
        sample(model, n, seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    top = max((n for _, n, _ in keys), default=0)
    with linalg._one_blas_thread() as pinned:
        if not keys or not hasattr(os, "fork") or not pinned:

            def drawn_here():
                for block, n, k in keys:
                    sub, g = draw(block, n, k, g if k else None)  # a unit's first draw makes the array of the rest
                    yield sub, g, None

            yield drawn_here()
            return
        import mmap

        slot = -(-16 * top * top // mmap.PAGESIZE) * mmap.PAGESIZE  # bytes; each slot starts on a page
        try:
            region = mmap.mmap(-1, 2 * slot)
        except OSError as exc:  # too large an N for this machine: named as numpy names an array it cannot allocate
            raise MemoryError(f"Unable to map two {top} x {top} complex128 ring slots ({exc.strerror})") from exc
        ring = np.frombuffer(region, dtype=np.complex128).reshape(2, slot // 16)
        size = 8 * (1 + (measure[0] if measure else 0))
        drawn_r, drawn_w = os.pipe()
        free_r, free_w = os.pipe()
        os.write(free_w, b"\0\0")  # one token per free slot
        # The main process never draws, so only the helper loads numpy.random (about 5 MB of RSS and 15 ms of import).
        pid = _fork()
        if pid == 0:
            os.close(drawn_r)
            os.close(free_w)
            _helper(draw, keys, ring, drawn_w, free_r, measure)
        os.close(drawn_w)
        os.close(free_r)

        def draws():
            for i, (block, n, k) in enumerate(keys):
                message = _read_exactly(drawn_r, size)
                if len(message) < size:
                    raise NumericalError(f"the noise helper process exited before trial {k} of work unit {block}")
                values = np.frombuffer(message, dtype=np.float64, offset=8) if measure else None
                if values is not None and np.isnan(values).any():
                    values = None
                yield int.from_bytes(message[:8], "little"), ring[i % 2][: n * n].reshape(n, n), values
                if measure:  # the trial is done with its slot: its pages leave this process, their contents stay
                    region.madvise(mmap.MADV_DONTNEED, (i % 2) * slot, slot)
                with suppress(BrokenPipeError):  # a dead helper is reported by the next read
                    os.write(free_w, b"\0")

        try:
            yield draws()
        finally:
            os.close(drawn_r)
            os.close(free_w)
            os.waitpid(pid, 0)


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


def _probe_values(model: str, units, trials: int, seed: int, measure) -> np.ndarray:
    """``measure(G)``, taken in this process, for the draw ``G`` of each trial ``k < trials`` of each of ``units``."""
    with _serial_draws(model, seed, trials, units) as draws:
        return np.array([measure(g) for _, g, _ in draws], dtype=float)


# np.median and np.quantile import numpy.ma (through np.unique) on their first call, which no run needs otherwise;
# these two partition the same indices and take the same arithmetic, so they return numpy's bits.
def _median(v: np.ndarray) -> float:
    """``np.median(v)`` of a nonempty 1-d ``v``: the mean of its middle one or two values, NaN if any value is."""
    half = v.size // 2
    middle = [half] if v.size % 2 else [half - 1, half]
    part = np.partition(v, [*middle, -1])
    return float(part[-1] if np.isnan(part[-1]) else np.mean(part[middle[0]:half + 1]))


def _quantile(v: np.ndarray, q: float) -> float:
    """``np.quantile(v, q)`` of a nonempty 1-d ``v`` of no NaN, by numpy's default linear method."""
    virtual = (v.size - 1) * q
    lo = -1 if virtual >= v.size - 1 else math.floor(virtual)  # -1: the largest value, as numpy takes it
    hi = lo if lo == -1 else lo + 1
    part = np.partition(v, sorted({0, -1, lo, hi}))
    a, b, t = part[lo], part[hi], virtual - lo
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def _result(model: str, n: int, stat_name: str, values: np.ndarray, **extra) -> ProbeResult:
    """``values`` (one per trial) with a summary of their mean and quantiles, then ``extra``."""
    quantiles = {f"q{round(100 * q):02d}": _quantile(values, q) for q in (0.05, 0.25, 0.5, 0.75, 0.95)}
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
    norms = _probe_values(model, enumerate(sizes), trials, seed, operator_norm).reshape(len(sizes), trials)
    per_n = [_result(model, n, "operator_norm", values) for n, values in zip(sizes, norms)]
    slope, intercept, residuals = fit_growth(sizes, [r.summary["mean"] for r in per_n])
    return NormGrowthFit(per_n=tuple(per_n), kappa1_hat=slope, intercept=intercept, residuals=residuals)


def _tail_taus(model: str, trials: int, tau_list) -> list:
    """The taus of :func:`markov_tail_check`, once its arguments are checked."""
    _check_kind(model)
    if trials < 100:
        raise ValueError("tail estimates need at least 100 trials")
    taus = [float(t) for t in tau_list]
    if any(t <= 0 for t in taus):
        raise ValueError("tau values must be positive")
    return taus


def markov_tail_check(model: str, n: int, trials: int, tau_list, seed: int = 0) -> ProbeResult:
    """Empirical norm tails against the Markov bound ``P(||G|| > c N^k1 tau) <= 1/tau``.

    The scale ``c`` is calibrated from the same sample as the empirical
    mean ``||G|| / N^kappa1`` (``kappa1 =`` :data:`MARKOV_KAPPA1`), making
    the bound exactly Markov's inequality in disguise; it must hold for any
    distribution, so each tau gets a pass flag at three binomial standard
    errors.
    """
    taus = _tail_taus(model, trials, tau_list)
    norms = _probe_values(model, [(0, n)], trials, seed, operator_norm)
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
    smin = _probe_values(model, [(0, d.shape[0])], trials, seed, lambda g: smallest_singular_value(d + delta * g))
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
    the frequency of ``s_min(D + delta G) <= N**-(gamma + beta)``, on the same
    draws ``G`` as the plain variant's.

    ``trials = 0`` is legal and yields undefined (None) frequencies.
    """
    d = _require_square(as_matrix(d))
    _check_kind(model)
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    n = d.shape[0]
    betas = [float(b) for b in beta_list]
    plain, rescale = _frequencies(n, betas), None
    if delta is not None or gamma is not None:
        if delta is None or gamma is None:
            raise ValueError("the rescaled variant needs both delta and gamma")
        floor = _size_power(n, "gamma", gamma, -1.0)
        if delta < floor:
            raise ValueError(f"rescaled variant assumes delta >= N^-gamma = {floor:.3g}")
        rescale = _frequencies(n, betas, gamma)  # names an overflowing N^-(gamma + beta) before any draw
    if trials == 0:
        summary = {"mean": None, "quantiles": None, "frequencies": None, "rescaled_frequencies": None}
        return ProbeResult(model, n, 0, "smallest_singular_value", (), summary)
    if rescale is None:
        smin, scaled = _probe_values(model, [(0, n)], trials, seed, lambda g: smallest_singular_value(d + g)), None
    else:  # each G gives both values; the copy makes each column a contiguous array
        smin, smin_scaled = _probe_values(model, [(0, n)], trials, seed, lambda g: (
            smallest_singular_value(d + g), smallest_singular_value(d + delta * g))).T.copy()
        scaled = rescale(smin_scaled)
    return _result(model, n, "smallest_singular_value", smin, frequencies=plain(smin), rescaled_frequencies=scaled)
