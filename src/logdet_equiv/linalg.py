"""Dense complex linear algebra primitives.

Two factorization shapes: singular values sorted *ascending* together with
paired orthonormal systems ``(e_i, f_i)`` satisfying ``A e_i = t_i f_i`` and
``A^* f_i = t_i e_i``, and, where no vector is needed, the values alone,
descending (:func:`singular_values`, the package's one values-only SVD).
Determinants are only ever handled in the log domain so that magnitudes like
``exp(+-1e6)`` never overflow.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionError",
    "NumericalError",
    "SvdFactorization",
    "as_matrix",
    "svd_paired",
    "svd_tolerance",
    "log_abs_det",
    "singular_values",
    "operator_norm",
    "smallest_singular_value",
]


class DimensionError(ValueError):
    """Input has the wrong shape for the requested operation."""


class NumericalError(RuntimeError):
    """A dense factorization failed to converge."""


def as_matrix(a) -> np.ndarray:
    """Coerce array-like input to a dense, finite, complex128 matrix.

    Raises
    ------
    DimensionError
        If the input is not 2-d or has a zero-length axis.
    ValueError
        If any entry is NaN or infinite.
    """
    m = np.ascontiguousarray(np.asarray(a, dtype=np.complex128))
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionError(f"matrix must be at least 1x1, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _require_square(a: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class SvdFactorization:
    """Singular value decomposition with ascending values and paired vectors.

    Attributes
    ----------
    t : (n,) float array
        Singular values sorted ascending: ``t[0] <= t[1] <= ...``.
    e : (n, n) complex array
        Right singular vectors as columns; ``e[:, i]`` pairs with ``t[i]``.
    f : (n, n) complex array
        Left singular vectors as columns (numpy's ``U``), so that
        ``A @ e[:, i] == t[i] * f[:, i]`` (and hence
        ``A.conj().T @ f[:, i] == t[i] * e[:, i]``) up to roundoff.
    """

    t: np.ndarray
    e: np.ndarray
    f: np.ndarray

    @property
    def n(self) -> int:
        return int(self.t.shape[0])

    @property
    def descending(self) -> np.ndarray:
        """Singular values in the conventional descending order."""
        return self.t[::-1]

    def pairing_residuals(self, a) -> dict:
        """Worst-case residuals of the defining relations against ``a``.

        Returns a dict with keys ``right`` (``max_i ||A e_i - t_i f_i||``),
        ``left`` (adjoint pairing), ``reconstruction`` (operator-norm defect
        of ``sum_i t_i f_i e_i^*``), ``gram_e`` and ``gram_f`` (orthonormality
        defects).
        """
        a = np.asarray(a, dtype=np.complex128)
        eye = np.eye(self.n)
        right = float(np.linalg.norm(a @ self.e - self.f * self.t, axis=0).max())
        left = float(np.linalg.norm(a.conj().T @ self.f - self.e * self.t, axis=0).max())
        recon = operator_norm((self.f * self.t) @ self.e.conj().T - a)
        gram_e = float(np.abs(self.e.conj().T @ self.e - eye).max())
        gram_f = float(np.abs(self.f.conj().T @ self.f - eye).max())
        return {
            "right": right,
            "left": left,
            "reconstruction": recon,
            "gram_e": gram_e,
            "gram_f": gram_f,
        }

    def verify(self, a, tol: float | None = None) -> None:
        """Raise :class:`NumericalError` if any pairing residual exceeds ``tol``."""
        if tol is None:
            tol = svd_tolerance(a)
        res = self.pairing_residuals(a)
        bad = {k: v for k, v in res.items() if v > tol}
        if bad:
            raise NumericalError(f"SVD pairing residuals exceed {tol:.3g}: {bad}")


def svd_tolerance(a) -> float:
    """Default residual tolerance for a paired SVD of ``a``."""
    return 1e-10 * max(1.0, operator_norm(a))


def svd_paired(a) -> SvdFactorization:
    """Factor a square matrix into ascending singular values and paired vectors.

    ``e`` is numpy's ``Vh^*`` and ``f`` numpy's ``U``, both reordered to
    ascending ``t``; ``A = U diag(s) Vh`` already gives ``A e_i = t_i f_i``
    with ``t_i >= 0``.
    """
    a = _require_square(as_matrix(a))
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge on a {a.shape[0]}x{a.shape[1]} matrix") from exc
    t = np.ascontiguousarray(s[::-1])
    e = np.ascontiguousarray(vh.conj().T[:, ::-1])
    f = np.ascontiguousarray(u[:, ::-1])
    return SvdFactorization(t=t, e=e, f=f)


def log_abs_det(a) -> float:
    """``log |det A|`` computed in the log domain.

    Returns ``-inf`` for a singular matrix and ``0.0`` for the empty
    (0 x 0) matrix, whose determinant is 1.  Never overflows: a diagonal
    matrix with entries ``exp(+-500)`` at n = 2000 yields ``+-1e6`` exactly.
    """
    a = _require_square(np.asarray(a, dtype=np.complex128))
    if a.shape[0] == 0:
        return 0.0
    sign, logdet = np.linalg.slogdet(a)
    if sign == 0:
        return float("-inf")
    return float(logdet)


def singular_values(a) -> np.ndarray:
    """Descending singular values of a 2-d array, without vectors; empty for an
    empty block.  The array keeps its dtype, so a real matrix gets a real SVD."""
    a = np.asarray(a)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge on a {a.shape[0]}x{a.shape[1]} matrix") from exc


def operator_norm(a) -> float:
    """Largest singular value; 0.0 for an empty block."""
    s = singular_values(np.asarray(a, dtype=np.complex128))
    return float(s[0]) if s.size else 0.0


def smallest_singular_value(a) -> float:
    """Smallest singular value; 0.0 for an empty block."""
    s = singular_values(np.asarray(a, dtype=np.complex128))
    return float(s[-1]) if s.size else 0.0


@functools.cache
def _openblas_threads():
    """``(get, set)``, the thread-count functions ``scipy_openblas_{get,set}_num_threads64_`` of the
    OpenBLAS that numpy loaded (numpy's own wheels export them), or None where no loaded library
    has them or nothing says which libraries are loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line})
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return None
    for lib in libs:
        try:
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@functools.cache
def _malloc_trim():
    """libc's ``malloc_trim``, which hands the free pages of the process's heap back to the system, or None
    where no loaded library exports it (it is glibc's)."""
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _release_free_heap() -> None:
    """Hand the process's free heap back once, through :func:`_malloc_trim`; a no-op where it finds none."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


@contextmanager
def _one_blas_thread():
    """The loaded OpenBLAS at one thread inside the block, its old count restored after; a no-op where
    :func:`_openblas_threads` finds none.  Yields whether the block runs at one thread.  The bits of an
    LU or an SVD at N >= 200 depend on the count, so the draw loop and the spectra hold this pin."""
    threads = _openblas_threads()
    old = threads[0]() if threads else None
    # Set nothing at one thread: a set, even to 1, restarts the workers OpenBLAS stopped at a fork, and they spin.
    if old in (None, 1):
        yield old == 1
        return
    threads[1](1)
    try:
        yield True
    finally:
        threads[1](old)
