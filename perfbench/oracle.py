"""Output checks for the benchmark workloads, independent of ``experiments``.

Each check reads the files one invocation wrote and returns a list of
problems (empty when the output is correct).  The Monte Carlo checks redraw
a few trials with ``noise.substream_seed`` + ``noise.sample`` and take
``numpy.linalg.slogdet`` themselves; the cutoff sums come from the closed-form
Jordan spectrum or a plain numpy SVD.  Only the ``lhs``/``rhs``/``error``
columns are compared: ``norm_G`` and ``s_min_perturbed`` are diagnostics whose
content may legitimately change.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from logdet_equiv.noise import sample, substream_seed

# ParamConfig defaults for keys the shipped configs leave out.
PARAM_DEFAULTS = {"nu_target": 0.5, "L": 2.0, "C": 1.0}


def _close(got: float, want: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= abs_ + rel * abs(want)


def _read_csv(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _lhs(a: np.ndarray, model: str, delta: float, seed: int) -> float:
    sign, logdet = np.linalg.slogdet(a + delta * sample(model, a.shape[0], seed))
    return float("-inf") if sign == 0 else float(logdet) / a.shape[0]


def _cutoff_sum(singvals: np.ndarray, alpha: float) -> float:
    return math.fsum(math.log(float(s)) for s in singvals if s > alpha) / singvals.size


def _auto_alpha(singvals: np.ndarray, nu_target: float, L: float, C: float) -> float:
    """Largest cutoff in ``{C N^-L, 1}`` or a mid-gap between distinct singular
    values (within ``[C N^-L, 1]``) leaving at most ``nu_target N / log N``
    values at or below it."""
    n = singvals.size
    lo = C * float(n) ** (-L)
    budget = nu_target * n / math.log(n)
    distinct = np.unique(singvals)
    candidates = {lo, 1.0} | {float(x) for x in (distinct[:-1] + distinct[1:]) / 2.0 if lo <= x <= 1.0}
    for alpha in sorted(candidates, reverse=True):
        if np.count_nonzero(singvals <= alpha) <= budget:
            return alpha
    raise ValueError("no admissible cutoff")


def check_mc(prefix: str, config: dict, n: int, trials: int, seed: int) -> list[str]:
    """``mc`` on a Jordan block: redraw the first, middle and last trials."""
    rows = _read_csv(f"{prefix}_records.csv")
    if len(rows) != trials:
        return [f"records.csv has {len(rows)} rows, expected {trials}"]
    params = config["params"]
    alpha, delta, model = float(params["alpha"]), float(params["delta"]), config["model"]
    rhs = _cutoff_sum(np.array([1.0] * (n - 1) + [0.0]), alpha)
    problems = []
    for row in rows:
        lhs = float(row["lhs"])
        if not _close(float(row["rhs"]), rhs):
            problems.append(f"trial {row['trial']}: rhs {row['rhs']} != closed form {rhs!r}")
        if not _close(float(row["error"]), abs(lhs - rhs)):
            problems.append(f"trial {row['trial']}: error {row['error']} != |lhs - rhs|")
    jordan = np.eye(n, k=1, dtype=np.complex128)
    for k in sorted({0, trials // 2, trials - 1}):
        row, sub = rows[k], substream_seed(seed, 0, k)
        if int(row["trial"]) != k or int(row["seed_used"]) != sub:
            problems.append(f"trial {k}: row is {row['trial']} with seed {row['seed_used']}, expected seed {sub}")
            continue
        want = _lhs(jordan, model, delta, sub)
        if not _close(float(row["lhs"]), want):
            problems.append(f"trial {k}: lhs {row['lhs']} != recomputed {want!r}")
    return problems


def check_grushin(prefix: str) -> list[str]:
    """``grushin-verify``: the suite reports ok and every check passed."""
    with open(f"{prefix}_summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(f"{prefix}_checks.json", encoding="utf-8") as fh:
        checks = json.load(fh)
    problems = []
    if summary.get("ok") is not True or summary.get("checks_failed") != 0:
        problems.append(f"suite reports ok={summary.get('ok')} with {summary.get('checks_failed')} failed checks")
    if summary.get("checks_total") != len(checks) or not checks:
        problems.append(f"checks.json has {len(checks)} checks, summary says {summary.get('checks_total')}")
    failing = [c["check"] for c in checks if c.get("pass") is not True]
    if failing:
        problems.append(f"{len(failing)} checks failed, first {failing[0]}")
    return problems


def check_field(prefix: str, config: dict, n: int, steps: int, trials: int, seed: int) -> list[str]:
    """``field`` on a Jordan block: grid coordinates, and three points redrawn."""
    rows = _read_csv(f"{prefix}_field.csv")
    grid, params, model = config["z_grid"], config["params"], config["model"]
    re_axis = np.linspace(grid["re_min"], grid["re_max"], steps)
    im_axis = np.linspace(grid["im_min"], grid["im_max"], steps)
    points = [complex(r, i) for i in im_axis for r in re_axis]
    if len(rows) != len(points):
        return [f"field.csv has {len(rows)} rows, expected {len(points)}"]
    problems = [
        f"point {p}: ({row['re_z']}, {row['im_z']}, trials {row['trials']}) != ({z.real!r}, {z.imag!r}, {trials})"
        for p, (row, z) in enumerate(zip(rows, points))
        if (float(row["re_z"]), float(row["im_z"]), int(row["trials"])) != (z.real, z.imag, trials)
    ]
    delta = float(params["delta"])
    cutoff = {k: float(params.get(k, v)) for k, v in PARAM_DEFAULTS.items()}
    jordan = np.eye(n, k=1, dtype=np.complex128)
    for p in sorted({0, len(points) // 3, len(points) - 1}):
        a_z = points[p] * np.eye(n, dtype=np.complex128) - jordan
        values = np.array([_lhs(a_z, model, delta, substream_seed(seed, p, k)) for k in range(trials)])
        singvals = np.linalg.svd(a_z, compute_uv=False)
        rhs = _cutoff_sum(singvals, _auto_alpha(singvals, cutoff["nu_target"], cutoff["L"], cutoff["C"]))
        want = {
            "lhs_mean": float(values.mean()),
            "lhs_sd": float(values.std(ddof=1)) if trials > 1 else 0.0,
            "rhs": rhs,
        }
        for column, value in want.items():
            if not _close(float(rows[p][column]), value):
                problems.append(f"point {p}: {column} {rows[p][column]} != recomputed {value!r}")
    return problems
