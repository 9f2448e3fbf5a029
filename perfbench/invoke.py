"""Run one ``logdet-equiv`` command in this process and report on it.

    python3 perfbench/invoke.py RECORD [--trace ID] -- CLI-ARGS...

Calls ``logdet_equiv.cli.main(CLI-ARGS)`` and exits with its status.  With
``--trace`` the package's public functions are wrapped first (see
``tracer.py``).  Before exiting it writes RECORD, a JSON object with the
exit status, the process's peak resident memory and, when traced, the
spans it kept in memory.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("record", help="path of the JSON record written at exit")
    parser.add_argument("--trace", metavar="ID", help="trace the run; ID names the invocation in the spans")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]

    tracer = None
    if args.trace is not None:
        from tracer import Tracer, install

        tracer = Tracer(args.trace)
        install(tracer)
    from logdet_equiv import cli

    code = cli.main(cli_args)
    record = {"exit": code, "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        record["trace"] = tracer.as_dict()
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
