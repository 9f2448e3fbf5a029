#!/usr/bin/env python3
"""Sweep the noise amplitude across its admissible window.

For a fixed matrix this reruns the single-matrix Monte Carlo at
logarithmically spaced delta values between the window's floor and ceiling
and tabulates the median comparison error against the budget
``C * (nu_N + alpha^-1 N^kappa1 delta tau)``.  At small delta the budget is
dominated by the flat nu_N term; the linear-in-delta term should take over
near the ceiling.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from logdet_equiv import ConfigError, cli, read_config, run_theorem2, spectrum_of
from logdet_equiv.experiments import _admissible_window, _cutoff


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="configs/diag200.json")
    parser.add_argument("--points", type=int, default=8)
    parser.add_argument("--trials", type=int, default=20)
    args = parser.parse_args()
    if args.points < 1:
        raise ConfigError(f"points must be >= 1, got {args.points}")

    config = replace(read_config(args.config), trials=args.trials)
    # Resolve once just to locate the window; each sweep point re-resolves.
    params, _, _ = _cutoff(config.matrix, spectrum_of(config.matrix), config.params)
    lo, hi = _admissible_window(params, config.matrix.n)
    print(f"N = {config.matrix.n}, alpha = {params.alpha}, window = [{lo:.3g}, {hi:.3g}]")
    print(f"{'delta':>12}  {'median_err':>12}  {'q95_err':>12}  {'budget':>12}  {'within':>7}")
    for delta in np.geomspace(lo, hi, args.points):
        run = replace(config, params=replace(config.params, delta=float(delta)))
        records, summary = run_theorem2(run)
        errors = np.array([r.error for r in records])
        print(
            f"{delta:12.4g}  {np.median(errors):12.4g}  {np.quantile(errors, 0.95):12.4g}  "
            f"{summary['error_bound']:12.4g}  {summary['success_frequency']:7.2f}"
        )


if __name__ == "__main__":
    sys.exit(cli.guarded(main))
