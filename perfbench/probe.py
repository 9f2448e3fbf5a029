"""Fixed-size kernel probe: the per-trial linear algebra at N = 200, 500, 1000.

Times ``noise.sample``, ``linalg.operator_norm``, ``linalg.log_abs_det``,
``linalg.smallest_singular_value`` and ``linalg.svd_paired`` on the operands
the workloads give them (a Ginibre draw, a Jordan block plus ``1e-10`` times
that draw, a shifted Jordan block) and reports the median over repeats in ms.

``bytes`` is computed from array sizes: the complex operands a call reads
plus the arrays it returns (16 N^2 bytes per complex matrix).  Even at
N = 1000 one matrix is 16 MB, which fits in the 105 MB L3 of the Xeon these
numbers were first taken on (the run records its own L3 size), so none of
these times is a bandwidth measurement.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from logdet_equiv import linalg, noise

SIZES = (200, 500, 1000)
KERNELS = ("sample", "operator_norm", "log_abs_det", "smallest_singular_value", "svd_paired")
REPEATS = {200: 7, 500: 5, 1000: 3}
SHIFT = 0.375 + 0.375j  # a point of the field workload's grid


def _kernels(n: int) -> dict:
    """Kernel name -> (call, computed bytes per call)."""
    matrix = 16 * n * n
    g = noise.sample("complex_ginibre", n, n)
    jordan = np.eye(n, k=1, dtype=np.complex128)
    perturbed = jordan + 1e-10 * g
    shifted = SHIFT * np.eye(n, dtype=np.complex128) - jordan
    return {
        "sample": (lambda: noise.sample("complex_ginibre", n, n + 1), matrix),
        "operator_norm": (lambda: linalg.operator_norm(g), matrix),
        "log_abs_det": (lambda: linalg.log_abs_det(perturbed), matrix),
        "smallest_singular_value": (lambda: linalg.smallest_singular_value(perturbed), matrix),
        # reads A, returns e and f (two matrices) and t (N doubles)
        "svd_paired": (lambda: linalg.svd_paired(shifted), 3 * matrix + 8 * n),
    }


def kernel_probe(repeats: dict = REPEATS) -> dict:
    """``{"probe.<kernel>.n<N>.ms": ..., "probe.<kernel>.n<N>.bytes": ...}``."""
    out = {}
    for n in SIZES:
        for name, (call, nbytes) in _kernels(n).items():
            times = []
            for _ in range(repeats[n]):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            out[f"probe.{name}.n{n}.ms"] = statistics.median(times) * 1e3
            out[f"probe.{name}.n{n}.bytes"] = nbytes
    return out
