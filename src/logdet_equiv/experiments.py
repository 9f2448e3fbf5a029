"""Monte Carlo harness: run the equivalence experiments and persist results.

Modes
-----
single
    One matrix, one noise amplitude: per-trial comparison of
    ``(1/N) log |det (A + delta G)|`` against the cutoff sum, with error
    budgets (:func:`run_theorem2`), plus the identity-verification suite
    (:func:`run_grushin_suite`).
sweep
    The size-asymptotic comparison across ``N_list`` with ``delta = N**-gamma``
    and the ``N*`` cutoff (:func:`run_theorem1`).
field
    The log-potential map ``z -> (1/N) log |det (z I - A + delta G)|`` over a
    rectangular grid (:func:`log_potential_field`).

Reproducibility: every run takes its spectra from ``ensembles.spectrum_of``
and runs all its trials in turn in one ``noise._serial_draws`` loop; both
hold the BLAS pin of :mod:`.linalg`, setting OpenBLAS to one thread.  Trial
``k`` of work unit ``b`` (sweep step or grid point; 0 in single mode) draws
from ``substream_seed(seed, b, k)``.  So output is byte-identical whether or
not a helper draws it, and for any ``OPENBLAS_NUM_THREADS`` where the pin
holds (at a fixed BLAS thread count where it does not), and a one-point
field run coincides with a single-mode run on the shifted matrix, stream for
stream.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import os
from dataclasses import MISSING, astuple, dataclass, field, fields, replace
from sys import float_info

import numpy as np

from .ensembles import MatrixSpec, _parse_complex, _shifted, realize, spectrum_of, svd_floor
from .equivalents import (
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
from .grushin import (
    NEUMANN_TERMS,
    CheckRecord,
    _eq,
    _leq,
    _neumann_blocks,
    build_grushin,
    grushin_det_identity,
    interlacing_check,
    invert_perturbed,
    neumann_tail_bound,
    norm_estimates,
    perturbation_drift_bound,
    perturbed_norm_estimates,
    schur_logdet,
    assemble,
)
from .linalg import NumericalError, log_abs_det, operator_norm, singular_values
from .linalg import smallest_singular_value
from .noise import NormGrowthFit, ProbeResult, _check_kind, _median, _quantile, _rescaled_frequencies, _serial_draws
from .noise import substream_seed

__all__ = [
    "ConfigError",
    "ZGrid",
    "ParamConfig",
    "ExperimentConfig",
    "TrialRecord",
    "FieldPoint",
    "RECORD_COLUMNS",
    "FIELD_COLUMNS",
    "PROBE_COLUMNS",
    "run_theorem2",
    "run_theorem1",
    "run_grushin_suite",
    "log_potential_field",
    "write_results",
    "read_config",
    "write_config",
    "config_to_dict",
    "config_from_dict",
]

# Key of the root seed of mc --probe-eps's anti-concentration probe: the probe draws work unit 0 under
# substream_seed(seed, EPS_PROBE_BLOCK), not a block of the run's own root seed.
EPS_PROBE_BLOCK = 0xFFFFFFFF


# A malformed or infeasible configuration and a violated parameter constraint
# are one error: whichever layer finds it, the command line exits 3.
ConfigError = ParameterError


@dataclass(frozen=True)
class ZGrid:
    """Rectangular grid in the complex plane with ``steps`` points per axis."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"z_grid steps must be >= 1, got {self.steps}")
        if self.re_max < self.re_min or self.im_max < self.im_min:
            raise ConfigError("z_grid bounds must satisfy re_min <= re_max and im_min <= im_max")

    def points(self) -> list[complex]:
        """Grid points in row-major order: imaginary axis outer, real inner."""
        res = np.linspace(self.re_min, self.re_max, self.steps)
        ims = np.linspace(self.im_min, self.im_max, self.steps)
        return [complex(r, i) for i in ims for r in res]


@dataclass(frozen=True)
class ParamConfig:
    """Declarative parameter block; ``alpha`` may be the string ``"auto"``.

    ``resolve`` turns it into concrete :class:`EquivalenceParams` for one
    spectrum: an explicit cutoff gets its deflation count measured, an auto
    cutoff is searched subject to ``nu_target``.
    """

    alpha: float | str = "auto"
    nu_target: float = 0.5
    gamma: float = 1.0
    eta: float = 0.01
    delta: float = 0.0
    tau: float = 10.0
    kappa1: float = 0.5
    beta: float = 2.0
    L: float = 2.0
    C: float = 1.0
    headroom: float = 0.1

    def __post_init__(self):
        if isinstance(self.alpha, str) and self.alpha != "auto":
            raise ConfigError(f"alpha must be a number or 'auto', got {self.alpha!r}")

    def resolve(self, singvals, n: int) -> EquivalenceParams:
        if self.alpha == "auto":
            found = auto_alpha(singvals, self.nu_target, self.L, self.C)
            if found is None:
                raise ConfigError(
                    "auto cutoff search failed: no alpha in [C*N^-L, 1] keeps the "
                    f"deflation count within nu_target = {self.nu_target}"
                )
            alpha, m = found
        else:
            alpha = float(self.alpha)
            m = count_below(singvals, alpha)
        nu_n = m * math.log(n) / n if n >= 2 else 0.0
        # nu_target only steers the auto search; every other field carries over by name.
        carried = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "nu_target"}
        return EquivalenceParams(**{**carried, "alpha": alpha, "m": m, "nu_n": nu_n})


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: matrix, noise model, parameters, and a mode."""

    matrix: MatrixSpec
    model: str
    params: ParamConfig = field(default_factory=ParamConfig)
    trials: int = 100
    seed: int = 0
    mode: str = "single"
    convention: str = "inclusive"
    probe_eps: bool = False
    n_list: tuple = ()
    z_grid: ZGrid | None = None
    output: str | None = None

    def __post_init__(self):
        _check_kind(self.model)
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.mode not in ("single", "sweep", "field"):
            raise ConfigError(f"mode must be one of single/sweep/field, got {self.mode!r}")
        if self.convention not in CONVENTIONS:
            raise ConfigError(f"unknown convention {self.convention!r}; choose from {CONVENTIONS}")
        if self.mode == "sweep":
            if not self.n_list:
                raise ConfigError("sweep mode needs a nonempty N_list")
            sizes = [int(n) for n in self.n_list]
            if any(b <= a for a, b in zip(sizes, sizes[1:])):
                raise ConfigError("N_list must be strictly ascending")
        elif self.n_list:
            raise ConfigError(f"N_list is only meaningful in sweep mode, not {self.mode!r}")
        if self.mode == "field":
            if self.z_grid is None:
                raise ConfigError("field mode needs a z_grid")
            if self.matrix.shift is not None:
                raise ConfigError("field mode applies its own shift; the matrix spec must be unshifted")
        elif self.z_grid is not None:
            raise ConfigError(f"z_grid is only meaningful in field mode, not {self.mode!r}")


@dataclass(frozen=True)
class TrialRecord:
    """One noise draw compared against the deterministic equivalent.

    ``within_budget`` is None in sweep mode, where no finite-N budget is
    claimed; there the ``m`` field carries ``N*`` and ``alpha``,
    ``error_bound``, ``contraction`` are NaN.
    """

    trial: int
    seed_used: int
    n: int
    delta: float
    alpha: float
    m: int
    lhs: float
    rhs: float
    error: float
    error_bound: float
    within_budget: bool | None
    norm_g: float
    s_min_perturbed: float
    contraction: float


@dataclass(frozen=True)
class FieldPoint:
    """Log-potential statistics at one grid point."""

    re_z: float
    im_z: float
    rhs: float
    lhs_mean: float
    lhs_sd: float
    trials: int


# A record type's CSV header is its field names; three keep the paper's capitals.
_CAPITALS = {"n": "N", "m": "M", "norm_g": "norm_G"}
RECORD_COLUMNS = tuple(_CAPITALS.get(f.name, f.name) for f in fields(TrialRecord))
FIELD_COLUMNS = tuple(f.name for f in fields(FieldPoint))
PROBE_COLUMNS = ("model", "N", "trial", "stat_name", "value")


def _quantile_block(values) -> dict:
    v = np.asarray(values, dtype=float)
    finite = v[np.isfinite(v)]
    return {
        "median": _median(v),
        "q05": _quantile(finite, 0.05) if finite.size else None,
        "q95": _quantile(finite, 0.95) if finite.size else None,
        "max": float(v.max()),
        "nonfinite": int(np.count_nonzero(~np.isfinite(v))),
    }


def _trial(a: np.ndarray, delta: float, draws, diagnostics: bool = False):
    """The trial whose noise is the next of ``draws``, a :func:`_serial_draws` iterator (with
    ``||G||`` as its values when ``diagnostics`` is set): ``(seed_used, lhs, ||G||,
    s_min(A + delta G))`` with ``lhs = (1/N) log |det (A + delta G)|``.  The last two cost one SVD
    each and are taken only when ``diagnostics`` is set; otherwise they are ``math.nan``.

    ``G`` is turned into ``A + delta G`` in place (bitwise ``a + delta * g``).  Raises
    NumericalError naming ``delta`` when ``A + delta G`` overflows a float."""
    n = a.shape[0]
    sub, g, measured = next(draws)
    if not diagnostics:
        norm_g = math.nan
    else:
        norm_g = operator_norm(g) if measured is None else float(measured[0])
    with np.errstate(over="ignore", invalid="ignore"):
        g *= delta
        g += a
        lhs = log_abs_det(g) / n
    # slogdet gives NaN for a non-finite input and +inf when the LU overflowed; -inf (singular) is a value.
    if math.isnan(lhs) or lhs == math.inf:
        raise NumericalError(f"A + delta G overflows a float at delta = {delta:g}")
    if not diagnostics:
        return sub, lhs, math.nan, math.nan
    return sub, lhs, norm_g, smallest_singular_value(g)


# A run's draw-loop measure with diagnostics: the helper takes ||G||, leaving each trial the LU and s_min(A + delta G).
_NORM_G = (1, lambda g: [operator_norm(g)])


def _trial_records(config, draws, a, delta, rhs, alpha, m, error_bound, diagnostics) -> list[TrialRecord]:
    """One record for each of the next ``config.trials`` draws of ``draws``, a draw loop that measures
    :data:`_NORM_G` when ``diagnostics`` is set.  A NaN ``error_bound`` claims no budget
    (``within_budget`` None); a NaN ``alpha`` makes the contraction NaN.  ``norm_g``,
    ``s_min_perturbed`` and ``contraction`` are measured only when ``diagnostics`` is set and are
    the ``math.nan`` constant otherwise, so records of one config still compare equal."""
    n, records = a.shape[0], []
    for k in range(config.trials):
        sub, lhs, norm_g, s_min = _trial(a, delta, draws, diagnostics)
        error = abs(lhs - rhs)
        within = None if math.isnan(error_bound) else bool(error <= error_bound)
        contraction = delta * norm_g / alpha if diagnostics else math.nan
        records.append(TrialRecord(k, sub, n, delta, alpha, m, lhs, rhs, error, error_bound, within, norm_g, s_min,
                                   contraction))
    return records


def _cutoff(spec: MatrixSpec, singvals, params: ParamConfig):
    """The cutoff step of ``spec`` on its spectrum ``singvals``: ``(params, rhs, below_floor)``, the
    resolved parameters, the cutoff sum and whether ``alpha`` lies under the spectrum's SVD floor."""
    resolved = params.resolve(singvals, int(spec.n))
    return resolved, deterministic_equivalent(singvals, resolved.alpha), resolved.alpha < svd_floor(spec, singvals)


def _n_star_step(spec: MatrixSpec, singvals, gamma: float, eta: float):
    """The ``N*`` step of ``spec`` on its spectrum ``singvals``: ``(N*, {convention: cutoff sum}, below_floor)``,
    the last whether ``s[N - N*]``, the last value the inclusive sum reads, lies under the SVD floor."""
    # n_star checks gamma > 1/2 and eta > 0 before a caller's N^-gamma can overflow.
    cutoff_index = n_star(singvals, gamma, eta)
    sums = {c: bpz_equivalent(singvals, cutoff_index, c) for c in CONVENTIONS}
    return cutoff_index, sums, bool(singvals[int(spec.n) - cutoff_index] < svd_floor(spec, singvals))


def _admissible_window(params: EquivalenceParams, n: int) -> tuple[float, float]:
    """The admissible ``delta`` window ``[lo, hi]`` of ``params`` at size ``n``; ConfigError when empty."""
    lo, hi = admissible_delta_range(params.alpha, params.gamma, params.kappa1, params.tau, n, params.headroom)
    if lo > hi:
        raise ConfigError(f"admissible delta window is empty: [{lo:.4g}, {hi:.4g}]; raise gamma or loosen alpha/tau")
    return lo, hi


def run_theorem2(config: ExperimentConfig, diagnostics: bool = False):
    """Single-matrix Monte Carlo comparison against the cutoff sum.

    Returns ``(records, summary)``.  The summary reports the empirical
    success frequency P(error <= budget) next to the partial probability
    floor ``1 - 1/tau``; the anti-concentration failure rate ``eps_hat``
    is measured only when ``config.probe_eps`` is set and ``delta > 0``
    (None = unavailable, making the full floor unavailable too); it enters
    the summary's ``eps_hat`` and ``floor_full`` and no record.
    ``diagnostics`` fills the records' ``norm_g``, ``s_min_perturbed`` and
    ``contraction`` (NaN otherwise); the summary does not depend on it.
    ``below_svd_floor`` is true when ``alpha`` lies under
    :func:`~logdet_equiv.ensembles.svd_floor`, so that ``M`` and ``rhs``
    read roundoff of a dense SVD.
    """
    if config.mode != "single":
        raise ConfigError(f"run_theorem2 needs mode 'single', got {config.mode!r}")
    a, n = realize(config.matrix), int(config.matrix.n)
    params, rhs, below_floor = _cutoff(config.matrix, spectrum_of(config.matrix, a), config.params)
    if params.delta > 0:
        lo, hi = _admissible_window(params, n)
        if not lo * (1 - 1e-12) <= params.delta <= hi * (1 + 1e-12):
            raise ConfigError(f"delta = {params.delta:.4g} outside the admissible window [{lo:.4g}, {hi:.4g}]")

    eps_hat = None
    if config.probe_eps and params.delta > 0:
        # The window gate above has checked delta, so the probe takes only s_min(A + delta G).
        seed = substream_seed(config.seed, EPS_PROBE_BLOCK)
        rates = _rescaled_frequencies(a, config.model, config.trials, [params.beta], seed, params.delta, params.gamma)
        eps_hat = rates[0]["frequency"]
    budget = error_budget(params, n, eps_n=eps_hat or 0.0)

    delta = params.delta
    measure = _NORM_G if diagnostics else None
    with _serial_draws(config.model, config.seed, config.trials, [(0, n)], measure) as draws:
        records = _trial_records(config, draws, a, delta, rhs, params.alpha, params.m, budget.error_bound, diagnostics)
    errors = [r.error for r in records]
    summary = {
        "mode": "single",
        "N": n,
        "model": config.model,
        "trials": config.trials,
        "alpha": params.alpha,
        "M": params.m,
        "nu_N": params.nu_n,
        "delta": delta,
        "tau": params.tau,
        "C": params.C,
        "outside_theorem": params.outside_theorem(),
        "rhs": rhs,
        "below_svd_floor": below_floor,
        "error_bound": budget.error_bound,
        "success_frequency": float(np.mean([r.within_budget for r in records])),
        "floor_partial": 1.0 - 1.0 / params.tau,
        "eps_hat": eps_hat,
        "floor_full": (1.0 - budget.failure_prob) if eps_hat is not None else None,
        "error": _quantile_block(errors),
        "lhs": _quantile_block([r.lhs for r in records]),
        "config": config_to_dict(config),
    }
    return records, summary


def run_theorem1(config: ExperimentConfig, diagnostics: bool = False):
    """Size sweep with ``delta = N**-gamma`` and the ``N*`` cutoff, at the
    config's ``gamma``, ``eta`` and ``convention``.

    ``diagnostics`` is as in :func:`run_theorem2`.
    Sweep steps whose right side is ``-inf`` (possible under the inclusive
    convention on exactly singular spectra) are recorded and flagged, and
    excluded from the cross-N error trend with an explicit count.  A step's
    ``below_svd_floor`` is true when the inclusive sum reads a singular value
    under :func:`~logdet_equiv.ensembles.svd_floor`.
    """
    if config.mode != "sweep":
        raise ConfigError(f"run_theorem1 needs mode 'sweep', got {config.mode!r}")
    gamma, eta, convention = config.params.gamma, config.params.eta, config.convention

    sizes = [int(x) for x in config.n_list]
    records, per_n = [], []
    measure = _NORM_G if diagnostics else None
    with _serial_draws(config.model, config.seed, config.trials, enumerate(sizes), measure) as draws:  # step b: unit b
        for n in sizes:
            spec_n = config.matrix.with_size(n)
            a = realize(spec_n)
            cutoff_index, sums, below_floor = _n_star_step(spec_n, spectrum_of(spec_n, a), gamma, eta)
            delta = float(n) ** (-gamma)
            rhs = sums[convention]
            step_records = _trial_records(config, draws, a, delta, rhs, math.nan, cutoff_index, math.nan, diagnostics)
            records.extend(step_records)
            flagged = not math.isfinite(rhs)
            step_errors = [r.error for r in step_records]
            per_n.append({
                "N": n, "N_star": cutoff_index, "delta": delta, "rhs": rhs, **{f"rhs_{c}": v for c, v in sums.items()},
                "flagged_infinite_rhs": flagged, "below_svd_floor": below_floor,
                "error_median": None if flagged else _median(np.asarray(step_errors)),
                "error": _quantile_block(step_errors),
            })
    medians = [p["error_median"] for p in per_n if not p["flagged_infinite_rhs"]]
    summary = {
        "mode": "sweep",
        "model": config.model,
        "convention": convention,
        "gamma": gamma,
        "eta": eta,
        "trials": config.trials,
        "per_N": per_n,
        "flagged_steps": int(sum(p["flagged_infinite_rhs"] for p in per_n)),
        "error_medians": medians,
        "medians_strictly_decreasing": (
            bool(all(b < a for a, b in zip(medians, medians[1:]))) if len(medians) >= 2 else None
        ),
        "config": config_to_dict(config),
    }
    return records, summary


def _two_sided_residuals(sys, blocks) -> tuple[float, float]:
    """``max |P P^-1 - I|`` and ``max |P^-1 P - I|`` of the assembled ``P`` and its closed-form inverse; ``I`` is taken
    from each product in place, the bits of ``product - np.eye``; no ``(n + m) x (n + m)`` array outlives the call."""
    def residual(product: np.ndarray) -> float:
        product.flat[:: product.shape[0] + 1] -= 1.0
        return np.abs(product).max()
    assembled, inverse = assemble(sys), blocks.assembled()
    return residual(assembled @ inverse), residual(inverse @ assembled)


def run_grushin_suite(config: ExperimentConfig):
    """Run every block-algebra identity and bound on the configured matrix.

    Static checks (determinant identity, two-sided inverse, unperturbed norm
    estimates) run once; per-trial checks (Schur identity, interlacing,
    drift and perturbed norm bounds, Neumann-direct agreement) run on each
    sampled perturbation.  Bounds that assume the contraction regime are
    skipped, not failed, for trials where ``delta * ||G|| / alpha > 1/2``.

    The helper process of :func:`_serial_draws` also takes what
    needs only ``G``: ``||G||``, ``log |det (A + delta G)|`` and, when
    ``m >= 1``, the singular values of ``A + delta G``.  It starts before
    the static checks, so its first trials overlap them.

    Returns ``(checks, summary)``: each check is a JSON-ready dict
    ``{check, n, lhs, rhs, bound, pass, trial}``.
    """
    if config.mode != "single":
        raise ConfigError(f"run_grushin_suite needs mode 'single', got {config.mode!r}")
    a, n = realize(config.matrix), int(config.matrix.n)
    params, _, _ = _cutoff(config.matrix, spectrum_of(config.matrix, a), config.params)
    delta = params.delta

    def measure(g):
        # What invert_perturbed, schur_logdet and interlacing_check take of G; a is build_grushin's sys.a.
        a_delta = a + delta * g
        return [operator_norm(g), log_abs_det(a_delta), *(singular_values(a_delta) if params.m else ())]

    measured = (2 + (n if params.m else 0), measure)
    with _serial_draws(config.model, config.seed, config.trials, [(0, n)], measured) as draws:
        sys, blocks = build_grushin(a, params.m)
        # count_below puts alpha in [t_m, t_{m+1}) by construction, the window
        # the unperturbed norm estimates require.
        alpha = params.alpha

        checks: list[dict] = []

        def add(record: CheckRecord, trial: int | None = None) -> None:
            checks.append({**record.as_dict(), "trial": trial})

        lhs, rhs = grushin_det_identity(sys)
        add(_eq("det_identity", None, lhs, rhs, 1e-8 * n))

        right, left = _two_sided_residuals(sys, blocks)
        tol = 1e-10 * (n + params.m)
        add(_leq("two_sided_inverse_right", None, right, 0.0, tol))
        add(_leq("two_sided_inverse_left", None, left, 0.0, tol))
        for record in norm_estimates(sys, blocks, alpha):
            add(record)

        # One call per trial, so that a trial's arrays are freed before the next trial forms its own.
        def one() -> list:
            _, g, measured = next(draws)
            norm_g, logdet, singvals = (None,) * 3 if measured is None else (measured[0], measured[1], measured[2:])
            pert = invert_perturbed(sys, g, delta, "direct", alpha=alpha, norm_g=norm_g)
            out = [_eq("schur_identity", None, *schur_logdet(sys, pert, logdet), 1e-7 * n)]
            out.extend(interlacing_check(sys, pert, singvals=singvals))
            if pert.within_contraction:
                out.append(_leq("drift_bound", None, *perturbation_drift_bound(sys, pert), 1e-10))
                out.extend(perturbed_norm_estimates(pert))
                approx = _neumann_blocks(sys, pert.g, pert.delta, NEUMANN_TERMS)
                # initial=0.0 covers the empty border blocks of an m = 0 deflation.
                pairs = [(getattr(approx, f.name), getattr(pert.blocks, f.name)) for f in fields(approx)]
                diff = max(float(np.abs(x - y).max(initial=0.0)) for x, y in pairs)
                tail = max(neumann_tail_bound(pert.contraction, alpha, NEUMANN_TERMS), 1e-9)
                out.append(_leq("neumann_agreement", None, diff, tail, 0.0))
            return out

        for k in range(config.trials):
            for record in one():
                add(record, trial=k)

    failed = [c for c in checks if not c["pass"]]
    worst: dict = {}
    for c in checks:
        name = c["check"]
        excess = c["lhs"] - c["rhs"]
        if name not in worst or excess > worst[name]:
            worst[name] = excess
    summary = {
        "mode": "grushin_suite",
        "N": n,
        "model": config.model,
        "trials": config.trials,
        "alpha": alpha,
        "M": params.m,
        "delta": delta,
        "checks_total": len(checks),
        "checks_failed": len(failed),
        "ok": not failed,
        "worst_excess": worst,
        "failing": failed[:20],
        "config": config_to_dict(config),
    }
    return checks, summary


def log_potential_field(config: ExperimentConfig):
    """Evaluate the log-potential field over the configured z-grid.

    For each grid point ``z`` the matrix ``z I - A`` gets the cutoff step of
    :func:`run_theorem2` (fresh ``alpha`` when auto) and its own noise
    substreams, so one grid point reproduces a single-mode run on the shifted
    matrix.  The grid points run in turn, each running its trials in turn.
    ``below_svd_floor`` is true when any grid point's ``alpha`` lies
    under the floor of its spectrum, as in :func:`run_theorem2`.
    """
    if config.mode != "field":
        raise ConfigError(f"log_potential_field needs mode 'field', got {config.mode!r}")
    base = realize(config.matrix)
    n = int(config.matrix.n)
    delta = config.params.delta
    points = config.z_grid.points()

    def point(p: int) -> tuple[FieldPoint, bool]:
        z = points[p]
        a_z, spec_z = _shifted(z, base), replace(config.matrix, shift=z)
        try:
            _, rhs, below_floor = _cutoff(spec_z, spectrum_of(spec_z, a_z), config.params)
        except ConfigError as exc:
            raise ConfigError(f"grid point {z}: {exc}") from exc
        values = np.array([_trial(a_z, delta, draws)[1] for _ in range(config.trials)])
        sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
        return FieldPoint(float(z.real), float(z.imag), rhs, float(values.mean()), sd, config.trials), below_floor

    with _serial_draws(config.model, config.seed, config.trials, [(p, n) for p in range(len(points))]) as draws:
        field_points, below = zip(*[point(p) for p in range(len(points))])
    gaps = [abs(fp.lhs_mean - fp.rhs) for fp in field_points if math.isfinite(fp.lhs_mean)]
    summary = {
        "mode": "field",
        "N": n,
        "model": config.model,
        "trials": config.trials,
        "delta": delta,
        "points": len(points),
        "steps": config.z_grid.steps,
        "mean_abs_gap": float(np.mean(gaps)) if gaps else None,
        "max_abs_gap": float(np.max(gaps)) if gaps else None,
        "below_svd_floor": any(below),
        "config": config_to_dict(config),
    }
    return list(field_points), summary


# ---------------------------------------------------------------------------
# serialization


def _fmt_cell(value) -> str:
    """A CSV cell: the JSON literal of the value, strings bare, None empty."""
    value = _jsonable(value)
    if value is None:
        return ""
    return value if isinstance(value, str) else json.dumps(value)


def _jsonable(obj):
    """Make summaries JSON-clean: plain types, non-finite floats as strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    return obj


def _open_for_write(path: str, newline: str | None = None):
    """``path`` opened for writing UTF-8 text, its directory made first."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline=newline)


def _write_csv(path: str, header, rows) -> None:
    with _open_for_write(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])


def _write_json(path: str, payload) -> None:
    with _open_for_write(path) as fh:
        json.dump(_jsonable(payload), fh, indent=2)
        fh.write("\n")


def _write_probes(path: str, results) -> None:
    _write_csv(path, PROBE_COLUMNS, (row for r in results for row in r.csv_rows()))


# The artifact of each record type: file suffix and writer.
_ARTIFACTS = {
    TrialRecord: ("records.csv", lambda path, rs: _write_csv(path, RECORD_COLUMNS, map(astuple, rs))),
    FieldPoint: ("field.csv", lambda path, rs: _write_csv(path, FIELD_COLUMNS, map(astuple, rs))),
    dict: ("checks.json", _write_json),
    ProbeResult: ("probes.csv", _write_probes),
    NormGrowthFit: ("probes.csv", _write_probes),
}


def write_results(records, path_prefix: str, summary=None) -> list[str]:
    """Persist a record batch (and optional summary) under a path prefix.

    Trial records go to ``{prefix}_records.csv``, field points to
    ``{prefix}_field.csv``, check dicts to ``{prefix}_checks.json``, probe
    results to ``{prefix}_probes.csv``; the summary, when given, to
    ``{prefix}_summary.json``.  An empty record list writes a header-only
    records CSV.  Returns the written paths.
    """
    records = list(records)
    suffix, write = _ARTIFACTS[type(records[0]) if records else TrialRecord]
    written = [f"{path_prefix}_{suffix}"]
    write(written[0], records)
    if summary is not None:
        written.append(f"{path_prefix}_summary.json")
        _write_json(written[-1], summary)
    return written


# Config (de)serialization walks the dataclass fields: each field's
# annotation names its JSON type.  The tables cover what an annotation
# alone does not say.
_JSON_KEYS = {"n_list": "N_list"}
_JSON_TYPES = {"alpha": "float or 'auto'", "diag": "list of [complex, int] pairs", "n_list": "list of int"}
# Matrix fields that belong to one kind and are written only for it.
_KIND_FIELDS = {"a": "bidiagonal_toeplitz", "b": "bidiagonal_toeplitz", "diag": "diagonal", "path": "custom"}
_NESTED = {"MatrixSpec": MatrixSpec, "ParamConfig": ParamConfig, "ZGrid": ZGrid}


def _from_json(value, kind: str, where: str):
    """Coerce one JSON value to a field of type ``kind``; ConfigError if it does not fit.

    ``null`` fits only ``X | None`` fields, booleans are never numbers,
    numbers must be finite, and integer fields take integers only.
    """
    if kind.endswith(" | None"):
        if value is None:
            return None
        kind = kind[: -len(" | None")]
    if kind in _NESTED:
        return _from_dict(_NESTED[kind], value, where)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    seq = isinstance(value, (list, tuple))
    if kind == "int" and number and isinstance(value, int):
        return value
    if kind == "float or 'auto'" and value == "auto":
        return value
    # The comparison also turns away nan, inf and integers too large for a float.
    if kind in ("float", "float or 'auto'") and number and abs(value) <= float_info.max:
        return float(value)
    if (kind == "str" and isinstance(value, str)) or (kind == "bool" and isinstance(value, bool)):
        return value
    if kind == "complex" and seq and len(value) == 2:
        return complex(_from_json(value[0], "float", where), _from_json(value[1], "float", where))
    if kind == "complex" and (number or isinstance(value, str)):
        try:
            z = _parse_complex(value) if isinstance(value, str) else complex(value)
        except (ValueError, OverflowError):
            z = complex("nan")
        if cmath.isfinite(z):
            return z
    if kind == "list of int" and seq:
        return tuple(_from_json(v, "int", where) for v in value)
    if kind == "list of [complex, int] pairs" and seq:
        return tuple(_from_json(pair, "[complex, int] pair", where) for pair in value)
    if kind == "[complex, int] pair" and seq and len(value) == 2:
        return _from_json(value[0], "complex", where), _from_json(value[1], "int", where)
    raise ConfigError(f"{where}: expected {kind}, got {value!r}")


def _from_dict(cls, d, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {type(d).__name__}")
    by_key = {_JSON_KEYS.get(f.name, f.name): f for f in fields(cls)}
    unknown = set(d) - set(by_key)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [k for k, f in by_key.items() if k not in d and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    kwargs = {
        f.name: _from_json(d[k], _JSON_TYPES.get(f.name, f.type), f"{where}.{k}") for k, f in by_key.items() if k in d
    }
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _to_json(value, kind: str):
    kind = kind.removesuffix(" | None")
    if kind in _NESTED:
        return config_to_dict(value)
    if kind == "complex":
        z = complex(value)
        return [z.real, z.imag]
    if kind == "list of int":
        return [int(n) for n in value]
    if kind == "list of [complex, int] pairs":
        return [[_to_json(v, "complex"), int(c)] for v, c in value]
    return value


def config_to_dict(config) -> dict:
    """JSON form of a config (or of one of its parts): every field in
    declaration order, except unset optional ones (None or ``()``) and
    matrix fields of another kind."""
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        owner = _KIND_FIELDS.get(f.name)
        if (owner is not None and owner != config.kind) or (owner is None and (value is None or value == ())):
            continue
        out[_JSON_KEYS.get(f.name, f.name)] = _to_json(value, _JSON_TYPES.get(f.name, f.type))
    return out


def config_from_dict(d: dict) -> ExperimentConfig:
    return _from_dict(ExperimentConfig, d, "config")


def read_config(path) -> ExperimentConfig:
    """Load and validate a JSON experiment config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return config_from_dict(payload)


def write_config(config: ExperimentConfig, path) -> None:
    _write_json(path, config_to_dict(config))
