#!/usr/bin/env python3
"""Run every shipped config under configs/ and collect the artifacts in out/."""

import argparse
import glob
import os
import sys
import time

from logdet_equiv import cli, read_config


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--configs", default="configs/*.json", help="glob of config files to run")
    parser.add_argument("--trials", type=int, help="override trial count (quick smoke runs)")
    args = parser.parse_args()

    paths = sorted(glob.glob(args.configs))
    if not paths:
        print(f"no configs match {args.configs!r}", file=sys.stderr)
        return cli.EXIT_CONFIG

    worst = 0
    for path in paths:
        config = read_config(path)
        command = {"single": "mc", "sweep": "sweep", "field": "field"}[config.mode]
        if "grushin" in os.path.basename(path):
            command = "grushin-verify"
        argv = [command, "--config", path]
        if args.trials is not None:
            argv += ["--trials", str(args.trials)]
        print(f"== {path} ({command}) ==")
        start = time.time()
        code = cli.main(argv)
        print(f"-- exit {code} in {time.time() - start:.1f}s\n")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(cli.guarded(main))
