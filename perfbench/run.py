"""lcft benchmark: four CLI workloads, end-to-end metrics, correctness checks
and a traced run for per-layer metrics.

    python3 perfbench/run.py --workload graph-genus2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every measurement happens in fresh worker
processes (perfbench/worker.py) started one after another, never
concurrently; each pins BLAS and OpenMP to one thread before importing numpy.  The last line of
standard output is one JSON object: correct, attempted, failed and metrics
(the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
See perfbench/README.md for the metrics and the predictions behind them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from harness import WORKLOADS, end_to_end_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Fresh workers timed for set-up besides the measuring one; setup_s is the
#: median over all of them.
EXTRA_SETUP_WORKERS = 4
SETUP_TIMEOUT_S = 30
MEASURE_TIMEOUT_S = 120


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {' '.join(args)} exceeded {timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker {' '.join(args)} failed ({proc.returncode}):\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    load_start = os.getloadavg()
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(EXTRA_SETUP_WORKERS):
            rep = run_worker(common + ["--setup-only"], SETUP_TIMEOUT_S)
            setups.append((rep["setup_s"], rep["setup_cal_s"]))
    report = run_worker(
        common + ["--seconds", str(seconds), "--trace", str(int(trace))], MEASURE_TIMEOUT_S
    )
    setups.append((report["setup_s"], report["setup_cal_s"]))
    calls = report["calls"]
    failures = [f for c in calls for f in c["fails"]]
    failed = sum(1 for c in calls if c["fails"])
    if trace:
        metrics = report["layer_metrics"]
    else:
        metrics = end_to_end_metrics(calls, setups, report["peak_rss_mb"])
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "env": {
            "nproc": os.cpu_count(),
            "python": report["python"],
            "numpy": report["numpy"],
            "loadavg_start": load_start,
            "platform": platform.platform(),
        },
        "call_wall_s": [c["wall_s"] for c in calls],
        "call_cal_s": [c["cal_s"] for c in calls],
        "setup_s_and_cal_s": setups,
        "error_rate": failed / len(calls),
        "failures": failures,
    }
    mc_ratio = [c["mc_over_bootstrap"] for c in calls if "mc_over_bootstrap" in c]
    if mc_ratio:
        # reported only: the known criterion-9 normalization gap (ratio ~ e)
        info["mc_over_bootstrap"] = mc_ratio
    if trace:
        info["absent"] = report["absent"]
        info["trace_file"] = report["trace_file"]
    return {
        "info": info,
        "correct": not failures,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "lcft" / "cli.py").is_file():
        print(f"no lcft sources under {ROOT / 'src'}: run from a full checkout", file=sys.stderr)
        return 2

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            res = bench_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(res.pop("info")))
            for metric, m in res["metrics"].items():
                print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
            print(f"{name}  error_rate = {res['failed'] / res['attempted']:.6g}", flush=True)
            results[name] = res
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": m
                for name, r in results.items()
                for metric, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
