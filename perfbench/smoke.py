#!/usr/bin/env python3
"""Smoke test of the benchmark itself (about a minute).

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json with tiny trial counts (``run.py
--smoke``), untraced and traced, and checks that each result line is well
formed, correct, and holds exactly the metrics BENCHMARK.json declares with
their units.  Checks the zero-call expectations of the traced run (no
diagnostic SVDs on the field workload, no ``svd_paired`` on the Monte Carlo
one), and that the benchmark refuses to run without the program: in a copy
holding only BENCHMARK.json and the benchmark's files it must exit non-zero
without printing a result.  Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ZERO_CALLS = {
    "field-jordan200": ("linalg.operator_norm.calls", "linalg.smallest_singular_value.calls"),
    "mc-jordan500": ("linalg.svd_paired.calls",),
}


def fail(message: str) -> None:
    print(f"FAIL {message}", file=sys.stderr)
    sys.exit(1)


def run_bench(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int) -> dict:
    proc = run_bench(ROOT, workload, trace, "--smoke")
    if proc.returncode != 0:
        fail(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace={trace}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: {result['attempted']} attempted, {result['failed']} failed\n{proc.stderr}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        fail(f"{workload} trace={trace}: missing {sorted(set(declared) - set(metrics))}, "
             f"undeclared {sorted(set(metrics) - set(declared))}")
    for name, entry in metrics.items():
        if entry.get("unit") != declared[name] or not math.isfinite(entry.get("value")):
            fail(f"{workload} trace={trace}: {name} = {entry}, declared unit {declared[name]}")
        if not trace and entry["value"] <= 0:
            fail(f"{workload}: end-to-end metric {name} = {entry['value']} is not positive")
    return metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        check_result(spec, workload, 0)
        layers = check_result(spec, workload, 1)
        for name in ZERO_CALLS.get(workload, ()):
            if layers[name]["value"] != 0:
                fail(f"{workload}: {name} = {layers[name]['value']}, expected 0")
        print(f"ok {workload}")

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(Path(bare), spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            fail(f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
