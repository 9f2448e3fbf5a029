"""Deterministic test matrices with strongly non-normal spectra.

These are the classic examples where eigenvalues say nothing about
log-determinant behavior: the Jordan block (one zero singular value, the
rest 1), bidiagonal Toeplitz matrices, and rank-deficient diagonals.  A
spec optionally carries a shift ``z``, realized as ``z*I - A`` so the shifted
matrix is the argument of the log-potential ``log |det (z - A)|``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import linalg
from .equivalents import ParameterError
from .linalg import _require_square, as_matrix, singular_values

__all__ = [
    "MATRIX_KINDS",
    "MatrixSpec",
    "realize",
    "known_singvals",
    "spectrum_of",
    "svd_floor",
    "norm_cap",
    "parse_matrix_arg",
    "write_matrix_csv",
    "read_matrix_csv",
]

MATRIX_KINDS = ("jordan", "bidiagonal_toeplitz", "diagonal", "zero", "custom")


@dataclass(frozen=True)
class MatrixSpec:
    """Recipe for one deterministic matrix.

    kind:
        ``jordan`` (ones on the first superdiagonal), ``bidiagonal_toeplitz``
        (``a`` on the diagonal, ``b`` on the superdiagonal), ``diagonal``
        (values with multiplicities), ``zero``, or ``custom`` (dense matrix
        loaded from a CSV file).
    diag:
        For ``diagonal``: tuple of ``(value, count)`` pairs; counts must sum
        to ``n``.
    shift:
        Optional complex ``z``; the realized matrix is ``z*I - A``.
    """

    kind: str
    n: int
    a: complex = 0j
    b: complex = 1 + 0j
    diag: tuple = ()
    path: str | None = None
    shift: complex | None = None

    def __post_init__(self):
        if self.kind not in MATRIX_KINDS:
            raise ParameterError(f"unknown matrix kind {self.kind!r}; choose from {MATRIX_KINDS}")
        if int(self.n) < 1:
            raise ParameterError(f"matrix size must be >= 1, got {self.n}")
        if self.kind == "diagonal":
            if not self.diag:
                raise ParameterError("diagonal spec needs a (value, count) list")
            total = sum(int(c) for _, c in self.diag)
            if total != self.n:
                raise ParameterError(f"diagonal multiplicities sum to {total}, expected n = {self.n}")
            if any(int(c) < 1 for _, c in self.diag):
                raise ParameterError("diagonal multiplicities must be >= 1")
        if self.kind == "custom" and not self.path:
            raise ParameterError("custom spec needs a file path")

    def with_size(self, n: int) -> "MatrixSpec":
        """Same recipe at a different size (diagonal multiplicities rescale only if uniform)."""
        if int(n) == int(self.n):
            return self
        if self.kind == "diagonal" and len(self.diag) == 1:
            value, _ = self.diag[0]
            return replace(self, n=int(n), diag=((value, int(n)),))
        if self.kind == "diagonal" or self.kind == "custom":
            raise ParameterError(f"cannot resize a {self.kind} spec with fixed entries")
        return replace(self, n=int(n))


def _diag_values(spec: MatrixSpec) -> np.ndarray:
    return np.concatenate([np.full(int(c), complex(v), dtype=np.complex128) for v, c in spec.diag])


def realize(spec: MatrixSpec) -> np.ndarray:
    """Materialize the matrix, applying the shift ``z*I - A`` last."""
    n = int(spec.n)
    if spec.kind == "jordan":
        base = np.eye(n, k=1, dtype=np.complex128)
    elif spec.kind == "bidiagonal_toeplitz":
        base = complex(spec.a) * np.eye(n, dtype=np.complex128) + complex(spec.b) * np.eye(n, k=1, dtype=np.complex128)
    elif spec.kind == "diagonal":
        base = np.diag(_diag_values(spec))
    elif spec.kind == "zero":
        base = np.zeros((n, n), dtype=np.complex128)
    else:  # custom
        base = read_matrix_csv(spec.path)
        if base.shape != (n, n):
            raise ValueError(f"matrix file {spec.path!r} has shape {base.shape}, spec says ({n}, {n})")
    if spec.shift is not None:
        base = _shifted(spec.shift, base)
    return base


def _shifted(z, a: np.ndarray) -> np.ndarray:
    """``z I - a`` as a new array; its identity is freed on return."""
    return complex(z) * np.eye(a.shape[0], dtype=np.complex128) - a


def known_singvals(spec: MatrixSpec):
    """Closed-form singular values (descending) where available, else None.

    Covered: unshifted (or zero-shifted) Jordan blocks, diagonal matrices
    under any shift, and the zero matrix under any shift.  Everything else
    is computed numerically by callers.
    """
    n = int(spec.n)
    if spec.kind == "jordan" and (spec.shift is None or complex(spec.shift) == 0j):
        return np.array([1.0] * (n - 1) + [0.0])
    if spec.kind == "diagonal":
        values = _diag_values(spec)
        if spec.shift is not None:
            values = complex(spec.shift) - values
        return np.sort(np.abs(values))[::-1]
    if spec.kind == "zero":
        magnitude = abs(complex(spec.shift)) if spec.shift is not None else 0.0
        return np.full(n, magnitude)
    return None


def _constant_bidiagonal(spec: MatrixSpec):
    """``(|d|, |e|)`` when ``realize(spec)`` is upper bidiagonal with constant
    diagonal ``d`` and constant superdiagonal ``e``, else None."""
    if spec.kind == "jordan":
        d, e = 0j, 1 + 0j
    elif spec.kind == "bidiagonal_toeplitz":
        d, e = complex(spec.a), complex(spec.b)
    else:
        return None
    if spec.shift is not None:
        d, e = complex(spec.shift) - d, -e
    return abs(d), abs(e)


@lru_cache(maxsize=256)
def _bidiagonal_singvals(n: int, d: float, e: float) -> np.ndarray:
    # LAPACK's Householder steps leave a real upper bidiagonal matrix as it
    # is, and its bidiagonal SVD has high relative accuracy (Demmel & Kahan,
    # SIAM J. Sci. Stat. Comput. 1990).
    return singular_values(np.diag(np.full(n, d)) + np.diag(np.full(n - 1, e), k=1))


def spectrum_of(spec: MatrixSpec, a: np.ndarray | None = None) -> np.ndarray:
    """Descending singular values of ``realize(spec)``, by one of three paths.

    * Closed form (:func:`known_singvals`): exact, so an exact zero stays a
      zero instead of coming out of a numerical SVD as ~1e-16.
    * Structured: a shifted Jordan block or a (shifted) bidiagonal Toeplitz
      matrix is upper bidiagonal with constant diagonal ``d`` and
      superdiagonal ``e``.  A diagonal unitary scaling makes it the real
      bidiagonal ``(|d|, |e|)`` with the same singular values, whose
      values-only SVD is accurate to roundoff *relative to each value*, so
      ``sum log s_j = N log |d|`` holds even where ``s_min`` is ~``|d|^N``.
      It is memoized on ``(N, |d|, |e|)``: a field grid takes one SVD per
      distinct ``|z - a|``.
    * Dense (``custom``): a values-only SVD of ``a``, which must be
      ``realize(spec)`` when given (it saves reading the file again).  Its
      values are accurate only to about ``svd_floor(spec, s)`` in absolute
      terms.

    The result is a fresh array, the caller's to modify.  Both SVDs run
    under the BLAS pin of :mod:`.linalg`.
    """
    known = known_singvals(spec)
    if known is not None:
        return np.asarray(known, dtype=float)
    structured = _constant_bidiagonal(spec)
    with linalg._one_blas_thread():
        if structured is not None:
            return _bidiagonal_singvals(int(spec.n), *structured).copy()
        return singular_values(as_matrix(realize(spec) if a is None else a))


def svd_floor(spec: MatrixSpec, singvals) -> float:
    """Absolute accuracy of ``spectrum_of(spec)``: ``N * eps * s_max`` for a
    dense SVD (``custom``), 0.0 for closed-form and structured spectra.

    A result that reads a singular value below this floor reads roundoff.
    """
    if spec.kind != "custom":  # the one kind with neither a closed form nor a structure
        return 0.0
    return int(spec.n) * float(np.finfo(float).eps) * float(singvals[0])


def norm_cap(spec: MatrixSpec) -> float:
    """A size-independent upper bound on the operator norm of realize(spec).

    Jordan and zero are bounded by 1 and 0; bidiagonal by |a| + |b|;
    diagonal by max |value|; the shift adds |z|.  Custom matrices have no
    a-priori cap and get +inf.
    """
    if spec.kind == "jordan":
        cap = 1.0
    elif spec.kind == "bidiagonal_toeplitz":
        cap = abs(complex(spec.a)) + abs(complex(spec.b))
    elif spec.kind == "diagonal":
        cap = max(abs(complex(v)) for v, _ in spec.diag)
    elif spec.kind == "zero":
        cap = 0.0
    else:
        return float("inf")
    if spec.shift is not None:
        cap += abs(complex(spec.shift))
    return cap


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ValueError(f"cannot parse {text!r} as a complex number") from exc


def parse_matrix_arg(text: str, n: int, shift: complex | None = None) -> MatrixSpec:
    """Parse a command-line matrix description.

    Formats: ``jordan``; ``zero``; ``diag:2x190,0x10`` (``VALUExCOUNT``
    entries, or plain ``VALUE`` for multiplicity 1); ``bidiag:a,b``;
    ``file:PATH``.
    """
    text = text.strip()
    if text == "jordan":
        return MatrixSpec(kind="jordan", n=n, shift=shift)
    if text == "zero":
        return MatrixSpec(kind="zero", n=n, shift=shift)
    if text.startswith("diag:"):
        entries = []
        for part in text[len("diag:"):].split(","):
            part = part.strip()
            if not part:
                continue
            if "x" in part:
                value_text, count_text = part.rsplit("x", 1)
                entries.append((_parse_complex(value_text), int(count_text)))
            else:
                entries.append((_parse_complex(part), 1))
        return MatrixSpec(kind="diagonal", n=n, diag=tuple(entries), shift=shift)
    if text.startswith("bidiag:"):
        parts = text[len("bidiag:"):].split(",")
        if len(parts) != 2:
            raise ValueError("bidiag spec needs exactly two values: bidiag:a,b")
        return MatrixSpec(
            kind="bidiagonal_toeplitz", n=n, a=_parse_complex(parts[0]), b=_parse_complex(parts[1]), shift=shift
        )
    if text.startswith("file:"):
        return MatrixSpec(kind="custom", n=n, path=text[len("file:"):], shift=shift)
    raise ValueError(
        f"cannot parse matrix spec {text!r}; use jordan, zero, diag:VxC,..., bidiag:a,b, or file:PATH"
    )


def write_matrix_csv(a, path) -> None:
    """Write a dense complex matrix as CSV: a header line ``N``, then N rows
    of N ``re:im`` cells."""
    a = _require_square(as_matrix(a))
    lines = [str(a.shape[0])]
    for row in a:
        lines.append(",".join(f"{float(z.real)!r}:{float(z.imag)!r}" for z in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    """Read the format written by :func:`write_matrix_csv`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"matrix file {path!r} is empty")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError(f"{path!r} line 1: expected the matrix size, got {lines[0]!r}") from exc
    if len(lines) != n + 1:
        raise ValueError(f"{path!r}: expected {n} rows after the header, found {len(lines) - 1}")
    # Every row is checked before the array exists, so its size is bounded by the file's.
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != n:
            raise ValueError(f"{path!r} line {i}: expected {n} cells, found {len(cells)}")
        row = []
        for j, cell in enumerate(cells, start=1):
            try:
                re_text, im_text = cell.split(":")
                row.append(complex(float(re_text), float(im_text)))
            except ValueError as exc:
                raise ValueError(f"{path!r} line {i}, cell {j}: cannot parse {cell!r}") from exc
        rows.append(row)
    return np.array(rows, dtype=np.complex128).reshape(n, n)
