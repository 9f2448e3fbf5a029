"""Shared generators, checks and the script loader for the test suite.

Random instances are derived from the package's own seeded sampler so every
test is reproducible; "random" below always means "pseudorandom from a fixed
root seed".
"""

import importlib.util
import os
import pathlib

import numpy as np
import pytest

from logdet_equiv import InverseBlocks, build_grushin, invert_perturbed, operator_norm, sample, substream_seed


def gaussian_matrix(n, seed, key=0):
    """One complex-Ginibre test matrix, deterministic in (n, seed, key)."""
    return sample("complex_ginibre", int(n), substream_seed(int(seed), 777, int(key)))


def grushin_instance(seed, n_max=20, m_max=6, min_retained=0.05, min_m=0):
    """A random deflated system with a safe gap: t_{m+1} >= min_retained.

    Sizes and deflation counts are drawn uniformly (n in [2, n_max],
    m in [min_m, min(m_max, n-1)]); draws whose first retained singular
    value falls below ``min_retained`` are rejected and redrawn.
    """
    for attempt in range(500):
        key = substream_seed(int(seed), 99, attempt)
        rng = np.random.default_rng(key)
        n = int(rng.integers(max(2, min_m + 1), n_max + 1))
        m = int(rng.integers(min_m, min(m_max, n - 1) + 1))
        a = sample("complex_ginibre", n, substream_seed(key, 1))
        sys, blocks = build_grushin(a, m)
        if float(sys.t[m]) >= min_retained:
            return sys, blocks
    raise RuntimeError("no admissible instance in 500 attempts")


def midpoint_alpha(sys):
    """The centre of the admissible cutoff window [t_m, t_{m+1}]."""
    t = sys.t
    if sys.m == 0:
        return 0.5 * float(t[0])
    return 0.5 * (float(t[sys.m - 1]) + float(t[sys.m]))


def perturbed_instance(seed, contraction=0.3, method="direct", **kwargs):
    """(sys, blocks, pert) with delta tuned to hit ``contraction`` exactly."""
    sys, blocks = grushin_instance(seed, **kwargs)
    g = gaussian_matrix(sys.n, seed, key=12345)
    alpha = midpoint_alpha(sys)
    delta = contraction * alpha / operator_norm(g)
    pert = invert_perturbed(sys, g, delta, method, alpha=alpha)
    return sys, blocks, pert


def full_depth_neumann_blocks(sys, g, delta, n_terms):
    """The Neumann blocks of ``invert_perturbed`` with every one of the ``n_terms`` Horner steps run."""
    base = sys.blocks
    if delta == 0.0 or n_terms <= 0:
        return base
    x = -delta * (g @ base.e)
    eye = np.eye(sys.n, dtype=np.complex128)
    s_prev, s = eye, eye + x
    for _ in range(n_terms - 1):
        s_prev, s = s, eye + x @ s
    mid = -delta * (s_prev @ (g @ base.e_plus))
    return InverseBlocks(
        base.e @ s, base.e_plus + base.e @ mid, base.e_minus @ s, base.e_minus_plus + base.e_minus @ mid
    )


def assert_no_child_left():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def load_script(name):
    """The module of ``scripts/<name>.py``, loaded afresh."""
    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
