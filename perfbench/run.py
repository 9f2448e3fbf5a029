#!/usr/bin/env python3
"""Benchmark of the ``logdet-equiv`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs ``src/`` and ``configs/`` there
and nothing installed.  Each invocation of a workload is one process
(``perfbench/invoke.py``, which calls ``logdet_equiv.cli.main``) with
``--workers 1``, ``--seed N`` and ``--out`` in a scratch directory under
``.perfbench/``, so the writers run and nothing lands in the source tree.
BLAS threads are set to the number of usable cores and recorded.

``--trace 0`` repeats the workload for about S seconds, checks every output
against ``oracle.py`` and reports the end-to-end metrics.  ``--trace 1``
alternates untraced and traced invocations for about S seconds and reports
per-layer metrics from the spans (``tracer.py``), the tracing overhead and
the fixed-size kernel probe (``probe.py``).  End-to-end metrics only ever
come from untraced invocations.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``failed / attempted`` is the failed ratio (an
invocation fails when it exits non-zero or its output fails the oracle).
The full record (metadata, quartiles, every invocation) is written to
``.perfbench/results/`` and the spans of traced invocations to
``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INVOCATION_TIMEOUT_S = 150
SETUP_REPEATS = 9
SETUP_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import logdet_equiv\n"
    "logdet_equiv.read_config(sys.argv[1])\n"
    "print(time.perf_counter() - start)\n"
)


@dataclass(frozen=True)
class Workload:
    """One ``logdet-equiv`` command; ``draws`` counts its noise matrices."""

    name: str
    command: str
    config: str
    n: int
    trials: int
    steps: int = 0  # field grid points per axis; 0 outside field mode

    @property
    def draws(self) -> int:
        return self.trials * max(self.steps, 1) ** 2

    def argv(self, seed: int, out: str) -> list[str]:
        args = [self.command, "--config", self.config, "--trials", str(self.trials)]
        if self.steps:
            args += ["--n", str(self.n), "--steps", str(self.steps)]
        return args + ["--seed", str(seed), "--out", out, "--workers", "1"]

    def check(self, prefix: str, seed: int) -> list[str]:
        import oracle

        with open(ROOT / self.config, encoding="utf-8") as fh:
            config = json.load(fh)
        if self.command == "mc":
            return oracle.check_mc(prefix, config, self.n, self.trials, seed)
        if self.command == "grushin-verify":
            return oracle.check_grushin(prefix)
        return oracle.check_field(prefix, config, self.n, self.steps, self.trials, seed)


# Each workload loads a different layer hardest:
# mc-jordan500     the per-trial kernel at the largest shipped size; the two
#                  diagnostic SVDs dominate and the spectrum is closed-form.
# grushin-diag200  the only real work in grushin: Neumann series, direct
#                  inverses and many operator norms.
# field-jordan200  no diagnostic SVDs; svd_paired on 80 of 81 shifted points,
#                  sample, log_abs_det and the auto cutoff search.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-jordan500", "mc", "configs/jordan500.json", n=500, trials=100),
        Workload("grushin-diag200", "grushin-verify", "configs/grushin_diag.json", n=200, trials=10),
        Workload("field-jordan200", "field", "configs/field_jordan.json", n=200, trials=8, steps=9),
    )
}
SMOKE = {"mc-jordan500": {"trials": 2}, "grushin-diag200": {"trials": 1}, "field-jordan200": {"trials": 2, "steps": 2}}

END_TO_END_UNITS = {"wall_s": "s", "trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Layers reported with call count and self time.
COUNTED = (
    "linalg.operator_norm",
    "linalg.smallest_singular_value",
    "linalg.svd_paired",
    "linalg.log_abs_det",
    "noise.sample",
    "noise.substream_seed",
    "ensembles.spectrum_of",
    "equivalents.auto_alpha",
    "grushin.invert_perturbed.direct",
    "grushin.invert_perturbed.neumann",
)
# Layers reported with self time only.
TIMED = (
    "ensembles.realize",
    "grushin.build_grushin",
    "grushin.interlacing_check",
    "grushin.perturbed_norm_estimates",
    "experiments.write_results",
    "experiments.read_config",
    "cli.main",
)
DRIVERS = ("experiments.run_theorem2", "experiments.run_grushin_suite", "experiments.log_potential_field")


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith(".calls") or metric == "trace.spans":
        return "count"
    if metric.endswith(".ms"):
        return "ms"
    if metric.endswith(("bytes", "bytes_computed")):
        return "B"
    if metric.endswith("_ratio"):
        return "ratio"
    return "s"


def layer_metrics(totals: dict) -> dict:
    """Per-layer metrics of one traced invocation from its span totals."""

    def get(name: str, field: str):
        return totals.get(name, {}).get(field, 0)

    out = {}
    for name in COUNTED:
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    for name in TIMED:
        out[f"{name}.self_s"] = get(name, "self_s")
    spectra = get("ensembles.spectrum_of", "calls")
    out["ensembles.spectrum_of.closed_form_ratio"] = get("ensembles.known_singvals", "value") / spectra if spectra else 0.0
    out["noise.sample.bytes_computed"] = get("noise.sample", "value")
    out["equivalents.count_below.calls"] = get("equivalents.count_below", "calls")
    out["experiments.write_results.bytes"] = get("experiments.write_results", "value")
    out["experiments.driver.self_s"] = sum(get(name, "self_s") for name in DRIVERS)
    return out


def _read_text(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def machine_metadata(threads: int, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = {}
    cpuinfo = _read_text("/proc/cpuinfo") or ""
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")]
    l3 = _read_text("/sys/devices/system/cpu/cpu0/cache/index3/size")
    try:
        # The ceiling keeps git from answering for an enclosing repository.
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        revision = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        revision = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else platform.processor() or "unknown",
        "l3_cache": l3.strip() if l3 else "unknown",
        "git_revision": revision,
        "workload_seed": seed,
    }


class Run:
    """Invocations of one workload in one benchmark run."""

    def __init__(self, workload: Workload, seed: int, tag: str, env: dict):
        self.workload, self.seed, self.tag, self.env = workload, seed, tag, env
        self.work = WORK / "work" / f"{tag}-{os.getpid()}"
        self.spans = WORK / "spans"
        self.invocations: list[dict] = []

    def invoke(self, traced: bool) -> None:
        index = len(self.invocations)
        out_dir = self.work / f"inv{index}"
        out_dir.mkdir(parents=True, exist_ok=True)
        record_path = (self.spans / f"{self.tag}-inv{index}.json") if traced else out_dir / "record.json"
        cmd = [sys.executable, str(HERE / "invoke.py"), str(record_path)]
        if traced:
            cmd += ["--trace", f"{self.tag}-inv{index}"]
        cmd += ["--", *self.workload.argv(self.seed, str(out_dir / "out"))]
        with open(out_dir / "log.txt", "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=INVOCATION_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait()
            wall = time.perf_counter() - start
        inv = {"index": index, "traced": traced, "wall_s": wall, "exit": code, "problems": []}
        if code != 0:
            inv["problems"].append(f"exit status {code}")
        else:
            try:
                inv["problems"] = self.workload.check(str(out_dir / "out"), self.seed)
                with open(record_path, encoding="utf-8") as fh:
                    record = json.load(fh)
            except (OSError, ValueError, KeyError) as exc:
                inv["problems"].append(f"unreadable output: {exc!r}")
            else:
                inv["rss_mb"] = record["rss_kb"] / 1024.0
                if traced:
                    from tracer import span_totals

                    spans = record["trace"]["spans"]
                    inv["spans"] = len(spans)
                    inv["layers"] = layer_metrics(span_totals(spans))
        shutil.rmtree(out_dir, ignore_errors=True)
        self.invocations.append(inv)

    def repeat_for(self, seconds: float, *traced_steps: bool) -> None:
        """Run the given invocations in turn, at least once, while another
        round is expected to end within ``seconds``."""
        start, rounds = time.perf_counter(), []
        while True:
            began = time.perf_counter()
            for traced in traced_steps:
                self.invoke(traced)
            rounds.append(time.perf_counter() - began)
            if time.perf_counter() - start + statistics.median(rounds) > seconds:
                return

    @property
    def failed(self) -> int:
        return sum(1 for inv in self.invocations if inv["problems"])

    def walls(self, traced: bool) -> list[float]:
        """Wall times of the passing invocations (all of them if none passed)."""
        chosen = [inv for inv in self.invocations if inv["traced"] == traced]
        passing = [inv for inv in chosen if not inv["problems"]]
        return [inv["wall_s"] for inv in passing or chosen]


def spread(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def measure_setup(config: str, env: dict) -> list[float]:
    """Import of the package plus ``read_config`` in fresh interpreters (s)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, config], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        samples.append(float(proc.stdout))
    return samples


def end_to_end(run: Run, env: dict, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup(run.workload.config, env)
    run.repeat_for(seconds, False)
    walls = run.walls(traced=False)
    rss = [inv["rss_mb"] for inv in run.invocations if "rss_mb" in inv]
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "trials_per_s": run.workload.draws / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
    }
    detail = {"wall_s": spread(walls), "setup_s": spread(setup), "peak_rss_mb": spread(rss) if rss else None}
    return metrics, detail


def per_layer(run: Run, seconds: float, smoke: bool) -> tuple[dict, dict]:
    import probe

    kernels = probe.kernel_probe(dict.fromkeys(probe.SIZES, 1) if smoke else probe.REPEATS)
    run.repeat_for(seconds, False, True)
    traced = [inv for inv in run.invocations if "layers" in inv]
    metrics = {}
    if traced:
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(inv["layers"][name] for inv in traced)
        metrics["trace.spans"] = statistics.median(inv["spans"] for inv in traced)
        metrics["trace.overhead_s"] = statistics.median(run.walls(traced=True)) - statistics.median(run.walls(traced=False))
    metrics.update(kernels)
    detail = {"untraced_wall_s": spread(run.walls(traced=False)), "traced_wall_s": spread(run.walls(traced=True))}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed, passed to the command as --seed")
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep repeating the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true", help="tiny trial counts and one probe repeat (smoke.py)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = replace(workload, **SMOKE[workload.name])
    missing = [p for p in (SRC / "logdet_equiv" / "cli.py", ROOT / workload.config) if not p.is_file()]
    if missing:
        print(f"cannot run the benchmark: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    # BLAS reads its thread count when numpy loads, so set it before any import of numpy.
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run = Run(workload, args.seed, tag, env)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    run.spans.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, detail = per_layer(run, args.seconds, args.smoke)
            units = {name: unit_of(name) for name in metrics}
        else:
            metrics, detail = end_to_end(run, env, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    attempted, failed = len(run.invocations), run.failed
    record = {
        "workload": workload.name,
        "argv": workload.argv(args.seed, "<scratch>"),
        "trace": args.trace,
        "seconds": args.seconds,
        "metadata": machine_metadata(threads, args.seed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "detail": detail,
        "failed_ratio": failed / attempted,
        "invocations": [{k: v for k, v in inv.items() if k != "layers"} for inv in run.invocations],
    }
    with open(WORK / "results" / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    for inv in run.invocations:
        for problem in inv["problems"]:
            print(f"invocation {inv['index']}: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, stats in detail.items():
        if stats:
            print(f"{name}: median {stats['median']:.6g}, quartiles {stats['q1']:.6g} .. {stats['q3']:.6g}, n = {stats['n']}")
    print(f"failed_ratio = {failed}/{attempted}")
    print("metadata: " + json.dumps(record["metadata"]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
