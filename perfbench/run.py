"""fedca benchmark: one command per workload, metrics as one JSON line.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Three steps, each its own process:
gen.py writes the workload's inputs from the seed into a scratch directory
under ``.perfbench_work/``, workload.py sets the program up and measures it,
and this script checks its report against BENCHMARK.json and prints, as the
last line of stdout, ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are BENCHMARK.json's end-to-end metrics, with
``--trace 1`` its per-layer ones. Earlier stdout lines record the
environment and the sha256 of every checked output.

BLAS runs at most ``BLAS_THREADS`` threads and never more than the cores
available, and fedca runs single-threaded, so the process never runs more
compute threads than there are cores.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

from common import BENCH_DIR, ROOT, SRC

BLAS_THREADS = 2
GEN_TIMEOUT_S = 300
WORKLOAD_TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_step(argv: list[str], timeout: float) -> bool:
    """Run one step to completion; the child is killed and reaped on timeout."""
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                              stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {Path(argv[0]).name} timed out after {timeout}s", file=sys.stderr)
        return False
    return proc.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny: seconds-long inputs for the smoke test")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"{spec_path} not found")
    if not (SRC / "fedca" / "__init__.py").is_file():
        return fail(f"fedca sources not found under {SRC}; run from a checkout")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    result_path = work / "result.json"
    try:
        if not run_step([str(BENCH_DIR / "gen.py"), "--workload", args.workload,
                         "--seed", str(args.seed), "--scale", args.scale, "--out", str(work)],
                        GEN_TIMEOUT_S):
            return fail("input generation failed")
        if not run_step([str(BENCH_DIR / "workload.py"), "--workload", args.workload,
                         "--inputs", str(work), "--seconds", str(args.seconds),
                         "--trace", str(args.trace), "--result", str(result_path)],
                        WORKLOAD_TIMEOUT_S):
            return fail("workload process failed")
        report = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        value = report["metrics"].get(m["name"])
        if value is None:
            if not args.trace:
                return fail(f"end-to-end metric {m['name']} was not measured")
            value = 0.0  # the layer does no work on this workload
        if not math.isfinite(value):
            return fail(f"metric {m['name']} is not finite: {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print("env " + json.dumps(report["env"], sort_keys=True))
    print("digests " + json.dumps(report["digests"], sort_keys=True))
    print("samples " + json.dumps(report["samples"]))
    print(f"iterations {report['iterations']} process_s {report['process_s']:.3f}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
