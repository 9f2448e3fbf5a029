"""Grushin augmentation of a square matrix around its smallest singular values.

Deflating the ``m`` smallest singular directions of ``A`` produces the
``(n + m) x (n + m)`` block system::

    P = [[ A,   R_minus ],          R_plus  = sum_i  delta_i e_i^*   (m x n)
         [ R_plus,   0  ]]          R_minus = sum_i  f_i delta_i^*   (n x m)

which is invertible whenever the retained singular values ``t_{m+1} <= ...``
are positive, with closed-form inverse blocks::

    E          = sum_{i>m} (1/t_i) e_i f_i^*      "inverse off the deflated space"
    E_plus     = sum_{i<=m} e_i delta_i^*
    E_minus    = sum_{i<=m} delta_i f_i^*
    E_minus_plus = -diag(t_1, ..., t_m)

Everything here treats that construction as executable algebra: building the
blocks, inverting the noisy variant ``A + delta G`` both directly and by a
Neumann series, and checking the determinant/Schur identities and norm
bounds the blocks satisfy.  :func:`build_grushin` builds the blocks once from the
paired SVD; a system keeps ``A``, the ``t_i`` and the blocks, not the singular vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .linalg import (
    DimensionError,
    NumericalError,
    SvdFactorization,
    _require_square,
    as_matrix,
    log_abs_det,
    operator_norm,
    singular_values,
    svd_paired,
)

__all__ = [
    "DeflationError",
    "ContractionError",
    "CheckRecord",
    "GrushinSystem",
    "InverseBlocks",
    "PerturbedSystem",
    "build_grushin",
    "inverse_blocks",
    "assemble",
    "assemble_perturbed",
    "grushin_det_identity",
    "invert_perturbed",
    "default_alpha",
    "schur_logdet",
    "perturbation_drift_bound",
    "interlacing_check",
    "norm_estimates",
    "perturbed_norm_estimates",
    "neumann_tail_bound",
]

# Highest power of delta kept by the Neumann-series inversion.
NEUMANN_TERMS = 25
# Roundoff allowed on top of each norm bound of the inverse blocks.
NORM_SLACK = 1e-12


class DeflationError(ValueError):
    """The first retained singular value is zero, so the system is singular."""


class ContractionError(ValueError):
    """The Neumann series does not contract for these parameters."""


@dataclass(frozen=True)
class CheckRecord:
    """One verified inequality or identity.

    ``check`` names the relation, ``n`` is an optional index (singular value
    rank, trial, ...), ``lhs``/``rhs`` are the two sides as evaluated, and
    ``bound`` is the slack that was allowed on top of ``rhs``.
    """

    check: str
    n: int | None
    lhs: float
    rhs: float
    bound: float
    passed: bool

    def as_dict(self) -> dict:
        """The ``checks.json`` form: every field in order, ``passed`` written as ``pass``."""
        return {"pass" if f.name == "passed" else f.name: getattr(self, f.name) for f in fields(self)}


def _leq(check: str, n: int | None, lhs: float, rhs: float, slack: float) -> CheckRecord:
    return CheckRecord(check, n, float(lhs), float(rhs), slack, bool(lhs <= rhs + slack))


def _eq(check: str, n: int | None, lhs: float, rhs: float, slack: float) -> CheckRecord:
    # ``lhs == rhs`` lets two same-signed infinities pass.
    return CheckRecord(check, n, float(lhs), float(rhs), slack, bool(lhs == rhs or abs(lhs - rhs) <= slack))


@dataclass(frozen=True)
class GrushinSystem:
    """A matrix with its deflation data: the injections, the ascending singular values ``t`` and the
    closed-form inverse blocks, built once; the SVD's vectors are not kept."""

    a: np.ndarray
    m: int
    r_plus: np.ndarray
    r_minus: np.ndarray
    t: np.ndarray
    blocks: InverseBlocks

    @property
    def n(self) -> int:
        return int(self.a.shape[0])

    @property
    def retained(self) -> np.ndarray:
        """Singular values kept out of the deflated space (ascending)."""
        return self.t[self.m:]

    @cached_property
    def assembled_logdet(self) -> float:
        """``log |det P|`` of :func:`assemble`, taken once."""
        return log_abs_det(assemble(self))

    @cached_property
    def injection_norm(self) -> float:
        """``||R_plus|| ||R_minus||``, taken once."""
        return operator_norm(self.r_plus) * operator_norm(self.r_minus)


@dataclass(frozen=True)
class InverseBlocks:
    """Blocks of the inverse of an assembled system."""

    e: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray
    e_minus_plus: np.ndarray

    def assembled(self) -> np.ndarray:
        return np.block([[self.e, self.e_plus], [self.e_minus, self.e_minus_plus]])

    @cached_property
    def norms(self) -> tuple[float, float, float]:
        """``(||E||, ||E_plus||, ||E_minus||)``, taken once."""
        return operator_norm(self.e), operator_norm(self.e_plus), operator_norm(self.e_minus)


@dataclass(frozen=True)
class PerturbedSystem:
    """The assembled ``P^d`` of ``A + delta G`` (``bordered``), its inverse blocks, ``a_delta`` its top-left view."""

    base: GrushinSystem
    g: np.ndarray
    delta: float
    alpha: float
    blocks: InverseBlocks
    norm_g: float
    contraction: float
    a_delta: np.ndarray
    bordered: np.ndarray

    @property
    def within_contraction(self) -> bool:
        """Whether ``delta * ||G|| / alpha <= 1/2`` (Neumann regime)."""
        return self.contraction <= 0.5

    @cached_property
    def assembled_logdet(self) -> float:
        """``log |det P^d|`` of :func:`assemble_perturbed`, taken on first use."""
        return log_abs_det(self.bordered)


def build_grushin(a, m: int) -> tuple[GrushinSystem, InverseBlocks]:
    """Deflate the ``m`` smallest singular directions of ``a``.

    Builds the injections and the closed-form inverse blocks once from the paired
    SVD of ``a``; the system keeps the singular values, not the SVD's vectors.
    Returns the augmented system and its blocks.

    Raises
    ------
    DeflationError
        If ``t_{m+1} = 0`` (the deflation does not cover the kernel).
    DimensionError
        If ``m`` is outside ``[0, n]`` or ``a`` is not square.
    """
    a = _require_square(as_matrix(a))
    n = a.shape[0]
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise DimensionError(f"deflation count must be an integer, got {m!r}")
    if not 0 <= m <= n:
        raise DimensionError(f"deflation count must lie in [0, {n}], got {m}")
    svd = svd_paired(a)
    if m < n and svd.t[m] == 0.0:
        raise DeflationError(
            f"retained singular value t_{m + 1} is exactly zero; "
            f"a deflation count of {m} leaves the system singular"
        )
    # Copies, not views: a view would keep a vector matrix alive through the run.
    sys = GrushinSystem(
        a=a,
        m=int(m),
        r_plus=np.ascontiguousarray(svd.e[:, :m].conj().T),
        r_minus=svd.f[:, :m].copy(),
        t=svd.t,
        blocks=inverse_blocks(svd, m),
    )
    return sys, sys.blocks


def inverse_blocks(svd: SvdFactorization, m: int) -> InverseBlocks:
    """Closed-form inverse blocks of :func:`assemble` for the deflation of the ``m``
    smallest singular directions, straight from the paired SVD of ``A``."""
    t_hi = svd.t[m:]
    e_blk = (svd.e[:, m:] / t_hi) @ svd.f[:, m:].conj().T
    return InverseBlocks(
        e=e_blk,
        e_plus=svd.e[:, :m].copy(),
        e_minus=np.ascontiguousarray(svd.f[:, :m].conj().T),
        e_minus_plus=-np.diag(svd.t[:m]).astype(np.complex128),
    )


def _bordered(sys: GrushinSystem, x: np.ndarray) -> np.ndarray:
    """The ``(n + m) x (n + m)`` block matrix ``[[X, R_minus], [R_plus, 0]]``."""
    zero = np.zeros((sys.m, sys.m), dtype=np.complex128)
    return np.block([[x, sys.r_minus], [sys.r_plus, zero]])


def assemble(sys: GrushinSystem) -> np.ndarray:
    """The ``(n + m) x (n + m)`` block matrix ``[[A, R_minus], [R_plus, 0]]``."""
    return _bordered(sys, sys.a)


def assemble_perturbed(pert: PerturbedSystem) -> np.ndarray:
    """Same block layout with ``A`` replaced by ``A + delta G``: the ``P^d`` the system holds, not a copy."""
    return pert.bordered


def grushin_det_identity(sys: GrushinSystem) -> tuple[float, float]:
    """Both sides of ``2 log |det P| = sum_{i>m} 2 log t_i``.

    The identity says the assembled system forgets the deflated singular
    values entirely: ``|det P|^2`` equals the product of the retained
    ``t_i^2``.  Returns ``(lhs, rhs)``.  Every retained ``t_i`` is positive: :func:`build_grushin`,
    the only constructor of a system, raises :class:`DeflationError` when ``t_{m+1} = 0``.
    """
    return 2.0 * sys.assembled_logdet, 2.0 * math.fsum(math.log(float(t)) for t in sys.retained)


def default_alpha(sys: GrushinSystem) -> float:
    """Natural cutoff attached to the deflation: ``t_{m+1}`` (``inf`` if m = n)."""
    return float(sys.t[sys.m]) if sys.m < sys.n else math.inf


def invert_perturbed(
    sys: GrushinSystem,
    g,
    delta: float,
    method: str = "direct",
    *,
    alpha: float | None = None,
    n_terms: int = NEUMANN_TERMS,
    norm_g: float | None = None,
) -> PerturbedSystem:
    """Invert the assembled system of ``A + delta G``.

    Parameters
    ----------
    method : {"direct", "neumann"}
        ``direct`` inverts ``P^d``, the ``(n+m) x (n+m)`` assembled matrix that both methods form once, densely.
        ``neumann`` expands around the unperturbed blocks::

            E^d          = sum_k (-delta)^k E (G E)^k
            E^d_plus     = sum_k (-delta)^k (E G)^k E_plus
            E^d_minus    = sum_k (-delta)^k E_minus (G E)^k
            E^d_minus_plus = E_minus_plus
                           + sum_{k>=1} (-delta)^k E_minus (G E)^{k-1} G E_plus

        and requires the contraction ``delta ||G|| / alpha <= 1/2``.
    alpha : float, optional
        Cutoff used for the contraction ratio.  Defaults to ``t_{m+1}``
        (the natural scale of ``1/||E||``); ``inf`` when ``m = n``.
    n_terms : int
        Highest power of ``delta`` retained by the Neumann expansion, >= 0.
        The Horner recursion behind it stops as soon as a step returns its input
        bit for bit; the later steps would repeat that same product, so the
        blocks equal those of all ``n_terms`` steps exactly.
    norm_g : float, optional
        ``||G||`` when already taken of this ``g``; taken here otherwise.

    Raises
    ------
    ContractionError
        If ``method="neumann"`` and the contraction exceeds 1/2.
    NumericalError
        If ``A + delta G`` overflows a float, or ``direct`` finds the assembled matrix singular.
    """
    g = as_matrix(g)
    if g.shape != sys.a.shape:
        raise DimensionError(f"perturbation shape {g.shape} does not match matrix shape {sys.a.shape}")
    delta = float(delta)
    if delta < 0 or not math.isfinite(delta):
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    if alpha is None:
        alpha = default_alpha(sys)
    alpha = float(alpha)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not isinstance(n_terms, (int, np.integer)) or n_terms < 0:  # a float would fail in the loop's range
        raise ValueError(f"n_terms must be an integer >= 0, got {n_terms}")
    norm_g = operator_norm(g) if norm_g is None else float(norm_g)
    contraction = 0.0 if delta == 0.0 else delta * norm_g / alpha

    n = sys.n
    bordered = np.empty((n + sys.m, n + sys.m), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        a_delta = np.multiply(g, delta, out=bordered[:n, :n])  # then + A: as * and + commute, A + delta G bit for bit
        a_delta += sys.a
    if not np.isfinite(a_delta).all():
        raise NumericalError(f"A + delta G overflows a float at delta = {delta:g}")
    bordered[:n, n:], bordered[n:, :n], bordered[n:, n:] = sys.r_minus, sys.r_plus, 0.0
    if method == "direct":
        try:
            inv = np.linalg.inv(bordered)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("assembled perturbed system is singular") from exc
        if not np.isfinite(inv).all():
            raise NumericalError(f"A + delta G overflows a float at delta = {delta:g}")
        blocks = InverseBlocks(inv[:n, :n], inv[:n, n:], inv[n:, :n], inv[n:, n:])
    elif method == "neumann":
        if contraction > 0.5:
            raise ContractionError(
                f"delta * ||G|| / alpha = {contraction:.4g} exceeds 1/2; the Neumann series need not converge"
            )
        blocks = _neumann_blocks(sys, g, delta, n_terms)
    else:
        raise ValueError(f"unknown inversion method {method!r}; use 'direct' or 'neumann'")

    return PerturbedSystem(
        base=sys,
        g=g,
        delta=delta,
        alpha=alpha,
        blocks=blocks,
        norm_g=norm_g,
        contraction=float(contraction),
        a_delta=a_delta,
        bordered=bordered,
    )


def _identity_plus(t: np.ndarray) -> np.ndarray:
    """``I + t`` bit for bit as ``np.eye(n) + t``, written into ``t`` without a dense identity: adding
    ``+0.0`` turns each ``-0.0`` into ``+0.0`` as the identity's zeros do, and ``(t_ii + 0) + 1 = 1 + t_ii``."""
    np.add(t, 0.0, out=t)
    t.flat[:: t.shape[0] + 1] += 1.0
    return t


def _neumann_blocks(sys: GrushinSystem, g: np.ndarray, delta: float, n_terms: int) -> InverseBlocks:
    """The series of :func:`invert_perturbed` in Horner form: ``S_0 = I``, ``S_k = I + X S_{k-1}`` with
    ``X = -delta G E``; then ``E^d = E S_K``, ``E^d_minus = E_minus S_K``, and ``E^d_plus`` and the
    corner add ``E M`` and ``E_minus M`` to their unperturbed blocks, with ``M = -delta S_{K-1} G E_plus``.

    The recursion stops early once ``S_k`` equals ``S_{k-1}`` bit for bit: every later step multiplies
    the same operands again, so ``S_K = S_{K-1} = S_k`` and the blocks are exactly those of all
    ``K = n_terms`` steps.  At a small contraction ``q`` that happens after about ``log eps / log q`` steps.

    Each step adds ``I`` into its fresh product in place and compares it with ``S_{k-1}``, kept past its step
    only for ``mid`` at the last one, so a converging loop holds three ``n x n`` arrays: ``X``, ``S_{k-1}``, ``S_k``.
    On an early stop ``S_{K-1} = S_K``; at ``n_terms = 1`` ``S_0 = I``.  ``g`` and ``sys.blocks`` are only read."""
    base = sys.blocks
    if delta == 0.0 or n_terms <= 0:
        # Empty series: the perturbed blocks are exactly the unperturbed ones.
        return base
    e, e_minus = base.e, base.e_minus
    x = g @ e
    x *= -delta
    s = s_prev = _identity_plus(x.copy())
    for k in range(2, n_terms + 1):
        step = _identity_plus(x @ s)
        # ``I + Z`` holds no ``-0.0`` (``+0 + -0 = +0``), so equal here is equal bit for bit.
        if np.array_equal(step, s):
            del step  # the repeated product, dropped before the blocks are formed; S_{K-1} = S_K = s_prev = s
            break
        s_prev, s = (s if k == n_terms else step), step
    mid = -delta * ((np.eye(sys.n, dtype=np.complex128) if n_terms == 1 else s_prev) @ (g @ base.e_plus))
    return InverseBlocks(e @ s, base.e_plus + e @ mid, e_minus @ s, base.e_minus_plus + e_minus @ mid)


def neumann_tail_bound(contraction: float, alpha: float, n_terms: int) -> float:
    """Geometric bound on the truncation error of the Neumann blocks.

    With ratio ``q = delta ||G|| / alpha <= 1/2``, every discarded term of
    order ``k > n_terms`` is bounded by ``q^k`` times the relevant block
    scale (at most ``2/alpha`` for ``E``, 2 for the mixed blocks, and
    ``alpha`` for the corner); summing the geometric tail gives a factor
    ``q^{n_terms+1} / (1 - q)``.
    """
    q = float(contraction)
    if q >= 1.0:
        return math.inf
    scale = max(2.0 / alpha, 2.0, alpha)
    return q ** (n_terms + 1) / (1.0 - q) * scale


def _check_pairing(sys: GrushinSystem, pert: PerturbedSystem) -> None:
    if pert.base is not sys and (pert.base.m != sys.m or not np.array_equal(pert.base.a, sys.a)):
        raise ValueError("perturbed system does not belong to the given Grushin system")


def schur_logdet(sys: GrushinSystem, pert: PerturbedSystem, lhs: float | None = None) -> tuple[float, float]:
    """Both sides of ``log |det (A + delta G)| = log |det P^d| + log |det E^d_minus_plus|``.

    The right side is the Schur-complement factorization through the
    assembled system; ``-inf`` values propagate (a singular corner forces a
    singular ``A + delta G`` and vice versa).  ``lhs``, when given, is the
    left side already taken of ``pert.a_delta``.
    """
    _check_pairing(sys, pert)
    lhs = log_abs_det(pert.a_delta) if lhs is None else float(lhs)
    rhs = pert.assembled_logdet + log_abs_det(pert.blocks.e_minus_plus)
    return lhs, rhs


def perturbation_drift_bound(sys: GrushinSystem, pert: PerturbedSystem) -> tuple[float, float]:
    """Observed and guaranteed drift of ``(1/n) log |det P|`` under the noise.

    Returns ``(drift, bound)`` where ``drift = |(1/n)(log|det P^d| - log|det P|)``
    and ``bound = 2 delta ||G|| / alpha``, valid in the contraction regime.
    """
    _check_pairing(sys, pert)
    drift = abs(pert.assembled_logdet - sys.assembled_logdet) / sys.n
    bound = 2.0 * pert.contraction
    return float(drift), float(bound)


def interlacing_check(
    sys: GrushinSystem, pert: PerturbedSystem, slack: float = 1e-9, singvals: np.ndarray | None = None
) -> list[CheckRecord]:
    """Two-sided control of the small singular values of ``A + delta G``.

    For each ``i <= m``, the ``i``-th smallest singular value of the full
    matrix is squeezed by the corner block::

        t_i(Ed_mp) / (||Ed|| t_i(Ed_mp) + ||Ed_minus|| ||Ed_plus||)
            <= t_i(A + delta G) <= ||R_plus|| ||R_minus|| t_i(Ed_mp)

    and, because the injections here are isometries, the upper bound also
    holds with constant 1.  Returns one record per inequality per index.
    ``singvals``, when given, are the descending singular values of
    ``A + delta G`` already taken of ``pert.a_delta``.
    """
    _check_pairing(sys, pert)
    m = sys.m
    if m == 0:
        return []
    t_full = (singular_values(pert.a_delta) if singvals is None else singvals)[::-1]  # ascending
    t_corner = singular_values(pert.blocks.e_minus_plus)[::-1]
    norm_e, norm_eplus, norm_eminus = pert.blocks.norms
    norm_r = sys.injection_norm
    records: list[CheckRecord] = []
    for i in range(m):
        tc = float(t_corner[i])
        ta = float(t_full[i])
        denom = norm_e * tc + norm_eminus * norm_eplus
        lower = tc / denom if denom > 0 else 0.0
        records.append(_leq("interlacing_lower", i + 1, lower, ta, slack))
        records.append(_leq("interlacing_upper", i + 1, ta, norm_r * tc, slack))
        records.append(_leq("interlacing_isometric", i + 1, ta, tc, slack))
    return records


def norm_estimates(sys: GrushinSystem, blocks: InverseBlocks, alpha: float) -> list[CheckRecord]:
    """Norm bounds on the unperturbed inverse blocks at a cutoff ``alpha``.

    Requires ``t_m <= alpha <= t_{m+1}``; then ``||E|| <= 1/alpha``,
    ``||E_plus|| = ||E_minus|| = 1`` (when ``m >= 1``) and
    ``||E_minus_plus|| <= alpha``.
    """
    t, m, n = sys.t, sys.m, sys.n
    lo = float(t[m - 1]) if m >= 1 else 0.0
    hi = float(t[m]) if m < n else math.inf
    if not lo <= alpha <= hi:
        raise ValueError(f"alpha = {alpha} outside the deflation window [{lo}, {hi}]")
    norm_e, norm_eplus, norm_eminus = blocks.norms
    records = [
        _leq("norm_e", None, norm_e, 1.0 / alpha if alpha > 0 else math.inf, NORM_SLACK),
        _leq("norm_e_minus_plus", None, operator_norm(blocks.e_minus_plus), alpha, NORM_SLACK),
    ]
    if m >= 1:
        records.append(_eq("norm_e_plus", None, norm_eplus, 1.0, NORM_SLACK))
        records.append(_eq("norm_e_minus", None, norm_eminus, 1.0, NORM_SLACK))
    return records


def perturbed_norm_estimates(pert: PerturbedSystem) -> list[CheckRecord]:
    """Norm bounds on the perturbed blocks, valid in the contraction regime.

    ``||E^d|| <= 2/alpha``, ``||E^d_plus|| <= 2``, ``||E^d_minus|| <= 2``,
    and the corner moves by at most ``2 delta ||G||`` (itself at most
    ``alpha`` when the contraction holds).
    """
    if not pert.within_contraction:
        raise ContractionError(
            f"perturbed norm bounds assume delta * ||G|| / alpha <= 1/2, got {pert.contraction:.4g}"
        )
    alpha = pert.alpha
    corner_move = operator_norm(pert.blocks.e_minus_plus - pert.base.blocks.e_minus_plus)
    norm_e, norm_eplus, norm_eminus = pert.blocks.norms
    records = [
        _leq("perturbed_norm_e", None, norm_e, 2.0 / alpha, NORM_SLACK),
        _leq("perturbed_norm_e_plus", None, norm_eplus, 2.0, NORM_SLACK),
        _leq("perturbed_norm_e_minus", None, norm_eminus, 2.0, NORM_SLACK),
        _leq("corner_drift", None, corner_move, 2.0 * pert.delta * pert.norm_g, NORM_SLACK),
    ]
    if math.isfinite(alpha):
        records.append(_leq("corner_drift_alpha", None, corner_move, alpha, NORM_SLACK))
    return records
