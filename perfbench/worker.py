"""One benchmark worker: a fresh Python process that imports lcft from the
checkout's ``src``, sets itself up with a minimal call and then makes the
measured ``lcft.cli.main(argv)`` calls one at a time.

Started by run.py, which reads the single JSON line this prints.
"""

from time import perf_counter


def calibration_s() -> float:
    """Duration of a fixed interpreter loop that does not touch lcft.

    The shared VM's speed drifts by tens of percent within minutes.
    Timed right before and after each measurement, this loop's duration
    tracks that drift well enough that scaling by it cuts the spread of call
    times on every workload (see README.md)."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i * i % 7
    return perf_counter() - t0


CAL_START = calibration_s()
T_START = perf_counter()

import os  # noqa: E402

# BLAS and OpenMP pools are sized when numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import lcft.cli  # noqa: E402
import numpy as np  # noqa: E402

import harness  # noqa: E402

if Path(lcft.cli.__file__).resolve().parent != ROOT / "src" / "lcft":
    sys.exit(f"lcft was imported from {lcft.cli.__file__}, not from {ROOT / 'src'}")

OUT = harness.BENCH_DIR / "out"


def cli_call(argv: list[str]) -> tuple[int, float]:
    """Exit code and wall time of one in-process CLI call."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        rc = lcft.cli.main(argv)
        wall = perf_counter() - t0
    return rc, wall


def measured_call(workload: harness.Workload, reference: dict, seed: int, index: int) -> dict:
    out_dir = OUT / f"call-{os.getpid()}-{index}"
    shutil.rmtree(out_dir, ignore_errors=True)
    rc, wall = cli_call(workload.argv(str(out_dir), harness.call_seed(seed, index)))
    call = {"wall_s": wall, "work": workload.n_work, "fails": []}
    try:
        if rc != 0:
            call["fails"].append(f"exit code {rc}")
            return call
        record = json.loads((out_dir / f"{workload.command}.json").read_text())
        rows = None
        if workload.command == "torus1pt":
            rows = np.loadtxt(out_dir / "torus1pt_density.csv", delimiter=",", skiprows=1)
        call["fails"] = harness.check_record(workload, record, reference, rows)
        result = record["result"]
        if workload.command == "mc-torus1pt":
            call["rel_stderr"] = result["stderr"] / result["mean"]
            call["mc_over_bootstrap"] = result["mc_over_bootstrap"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return call


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    workload = harness.WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    setup_dir = OUT / f"setup-{os.getpid()}"
    try:
        rc, _ = cli_call(workload.argv(str(setup_dir), minimal=True))
    finally:
        shutil.rmtree(setup_dir, ignore_errors=True)
    setup_s = perf_counter() - T_START
    if rc != 0:
        sys.exit(f"set-up call exited with code {rc}")
    calibration = [calibration_s()]
    report = {"setup_s": setup_s, "setup_cal_s": (CAL_START + calibration[0]) / 2.0}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    reference = harness.load_references()[workload.name]

    def call(index: int) -> dict:
        c = measured_call(workload, reference, args.seed, index)
        calibration.append(calibration_s())
        c["cal_s"] = (calibration[-2] + calibration[-1]) / 2.0
        return c

    calls = []
    if args.trace:
        from tracing import Tracer

        # untraced, traced, untraced: the bracket cancels a linear speed drift
        calls.append(call(0))
        tracer = Tracer()
        tracer.install()
        try:
            traced = call(1)
        finally:
            tracer.uninstall()
        spans = tracer.spans()
        traced["fails"] += harness.check_span_tree(spans, traced["wall_s"])
        calls += [traced, call(2)]
        untraced = statistics.fmean((calls[0]["wall_s"], calls[2]["wall_s"]))
        metrics = harness.layer_metrics(spans, tracer.distinct, traced["wall_s"], traced["cal_s"])
        metrics["trace.overhead_frac"] = (traced["wall_s"] / untraced - 1.0, "ratio")
        report["layer_metrics"] = metrics
        report["absent"] = tracer.absent
        trace_file = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": workload.name,
            "seed": args.seed,
            "absent": tracer.absent,
            "fields": ["sid", "parent", "name", "layer", "start", "end", "items"],
            "spans": tracer.records,
        }))
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        start = perf_counter()
        while True:
            calls.append(call(len(calls)))
            elapsed = perf_counter() - start
            if elapsed * (len(calls) + 1) / len(calls) > args.seconds:
                break

    report.update(
        calls=calls,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        python=platform.python_version(),
        numpy=np.__version__,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
