#!/usr/bin/env python3
"""Calibrate the Jordan-block acceptance band.

For the nilpotent Jordan block the cutoff sum is exactly 0, so the whole
per-trial quantity ``lhs = (1/N) log |det (J + delta G)|`` is fluctuation.
Empirically ``X = N * lhs - log(delta)`` is stable across N (it is the log
of a corner-determinant ratio), so quantiles of X measured cheaply at small
N transfer to expensive sizes.  This script prints the quantile table and
the |lhs| band it implies at the target size.
"""

import argparse
import math
import sys

import numpy as np

from logdet_equiv import MatrixSpec, cli, realize
from logdet_equiv.experiments import _trial
from logdet_equiv.noise import _serial_draws


def x_samples(sizes, delta: float, trials: int, seed: int) -> list:
    """X for ``trials`` complex Ginibre draws on the N x N Jordan block, one array per N of ``sizes``,
    all drawn in one loop; trial k at N is the harness's trial k of work unit N (substream ``(seed, N, k)``)."""
    blocks = [realize(MatrixSpec(kind="jordan", n=n)) for n in sizes]
    with _serial_draws("complex_ginibre", seed, trials, [(n, n) for n in sizes]) as draws:
        return [np.array([n * _trial(a, delta, draws)[1] - math.log(delta) for _ in range(trials)])
                for n, a in zip(sizes, blocks)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="20,50,100", help="comma-separated calibration sizes")
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--delta", type=float, default=1e-8, help="noise amplitude during calibration")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--target-n", type=int, default=500)
    parser.add_argument("--target-delta", type=float, default=1e-10)
    parser.add_argument("--band", type=float, default=0.1, help="|lhs| band to check at the target size")
    args = parser.parse_args()
    if args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")

    sizes = [int(s) for s in args.sizes.split(",")]
    qs = (0.01, 0.05, 0.5, 0.95, 0.99)
    print(f"X = N*lhs - log(delta), {args.trials} trials per size, delta = {args.delta:g}")
    print("N     " + "".join(f"q{int(100 * q):02d}      " for q in qs))
    for n, x in zip(sizes, x_samples(sizes, args.delta, args.trials, args.seed)):
        row = np.quantile(x, qs)
        print(f"{n:<6d}" + "".join(f"{v: .3f}   " for v in row))

    lo = args.target_n * (-args.band) - math.log(args.target_delta)
    hi = args.target_n * args.band - math.log(args.target_delta)
    print()
    print(
        f"|lhs| <= {args.band} at N={args.target_n}, delta={args.target_delta:g} "
        f"corresponds to X in [{lo:.2f}, {hi:.2f}]"
    )
    print("the run passes whenever the X quantiles above sit inside that interval")


if __name__ == "__main__":
    sys.exit(cli.guarded(main))
