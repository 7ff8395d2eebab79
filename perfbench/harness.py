"""Pure logic of the lcft benchmark: the workload table, the correctness
checks, the span arithmetic of the traced run and the metric derivations.

Nothing here imports lcft or starts a process, so the tests of this file run
without the program.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_DIR = BENCH_DIR / "workloads"
REFERENCES = BENCH_DIR / "references.json"

#: Checked bootstrap values must match the frozen references this closely.
VALUE_RTOL = 1e-10
#: An MC mean may lie this many combined standard errors from its reference.
MC_SIGMAS = 5.0
#: The self times of a traced call must add up to its wall time this closely.
SELF_SUM_RTOL = 0.01

#: Reference speed: the calibration loop's (worker.calibration_s) median
#: time on the 2-core x86-64 VM the benchmark was written on.  Reported
#: times are measured seconds scaled to this speed.
CAL_REF_S = 0.17

#: Quadrature flags that shrink a workload's call to one spectral node: the
#: set-up call of a fresh worker (imports, lru caches, DozzEvaluator).
MINIMAL_QUADRATURE = ["--p-max", "0.5", "--panel-width", "0.5", "--nodes-per-panel", "1"]


@dataclass(frozen=True)
class Workload:
    """One lcft CLI call and what a correct answer to it looks like."""

    name: str
    command: str  # lcft subcommand
    work_key: str  # result field that counts the call's units of work
    n_work: int  # requested units of work: integrand evaluations or GFF samples
    N: int  # requested truncation level
    seeded: bool  # whether the benchmark seed reaches the program
    minimal_flags: tuple = ()

    @property
    def config_path(self) -> Path:
        return WORKLOAD_DIR / f"{self.name}.json"

    def argv(self, out_dir: str, seed: int | None = None, minimal: bool = False) -> list[str]:
        argv = [self.command, "--config", str(self.config_path), "--out", out_dir]
        if minimal:
            argv += MINIMAL_QUADRATURE + list(self.minimal_flags)
        if self.seeded and seed is not None:
            argv += ["--seed", str(seed)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload("torus1pt-deep", "torus1pt", "n_evaluations", 96, 6, False),
        Workload("graph-genus2", "graph", "n_evaluations", 729, 3, False),
        Workload("spherekpt-wide", "spherekpt", "n_evaluations", 1296, 2, False),
        Workload(
            "mc-torus1pt", "mc-torus1pt", "n_samples", 8192, 4, True,
            minimal_flags=("--samples", "20", "--batches", "20"),
        ),
    )
}


def call_seed(seed: int, index: int) -> int:
    """Seed of the index-th measured call of a run: distinct per call and run,
    non-negative as the CLI schema requires."""
    return (seed % 2**31) * 1000 + index


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


def composite_gauss_legendre(p_max: float, panel_width: float, nodes_per_panel: int):
    """Nodes and weights of the composite Gauss-Legendre rule on (0, p_max],
    built here independently of lcft.bootstrap.Quadrature."""
    x, w = np.polynomial.legendre.leggauss(nodes_per_panel)
    n_panels = max(1, int(round(p_max / panel_width)))
    edges = np.linspace(0.0, p_max, n_panels + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    nodes = (0.5 * (hi - lo) * x[None, :] + 0.5 * (hi + lo)).ravel()
    weights = (0.5 * (hi - lo) * w[None, :]).ravel()
    return nodes, weights


def check_density(value: float, rows, config: dict) -> list[str]:
    """The torus1pt density CSV (p, rho, |F|^2, integrand), weighted by the
    quadrature and multiplied by 1/(2e), must reproduce the reported value."""
    rows = np.asarray(rows, dtype=float)
    nodes, weights = composite_gauss_legendre(
        config["p_max"], config["panel_width"], config["nodes_per_panel"]
    )
    if rows.shape != (len(nodes), 4):
        return [f"density CSV has shape {rows.shape}, expected ({len(nodes)}, 4)"]
    if np.max(np.abs(rows[:, 0] - nodes)) > 1e-12:
        return ["density CSV nodes differ from the quadrature nodes"]
    total = float(np.dot(weights, rows[:, 3])) / (2.0 * math.e)
    rel = rel_diff(total, value)
    if not rel <= VALUE_RTOL:
        return [f"density CSV integrates to {total!r}, value is {value!r} (rel {rel:.2e})"]
    return []


def check_record(workload: Workload, record: dict, reference: dict, density_rows=None) -> list[str]:
    """Failures of one CLI JSON record against the request and the frozen
    reference; an empty list means the call is correct."""
    fails = []
    result = record["result"]
    config = record["config"]
    if config.get("N") != workload.N:
        fails.append(f"N = {config.get('N')}, requested {workload.N}")
    work = result.get(workload.work_key)
    if work != workload.n_work:
        fails.append(f"{workload.work_key} = {work}, requested {workload.n_work}")
    if workload.command == "mc-torus1pt":
        if result["error_blown"]:
            fails.append("MC error bar blown")
        mean, se = result["mean"], result["stderr"]
        tol = MC_SIGMAS * math.hypot(se, reference["stderr"])
        if not abs(mean - reference["mean"]) <= tol:
            fails.append(
                f"MC mean {mean!r} is {abs(mean - reference['mean']) / tol * MC_SIGMAS:.1f} "
                f"combined stderr from the reference {reference['mean']!r}"
            )
    else:
        rel = rel_diff(result["value"], reference["value"])
        if not rel <= VALUE_RTOL:
            fails.append(
                f"value {result['value']!r} vs reference {reference['value']!r} (rel {rel:.2e})"
            )
    if density_rows is not None:
        fails += check_density(result["value"], density_rows, config)
    return fails


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------


def ref_seconds(seconds: float, cal_s: float) -> float:
    """Measured seconds scaled to the reference speed, given the calibration
    loop's time around the measurement."""
    return seconds * CAL_REF_S / cal_s


def end_to_end_metrics(calls: list[dict], setups: list[tuple], peak_rss_mb: float) -> dict:
    """Metrics of one untraced run, times in reference seconds.

    Each call carries ``wall_s``, ``cal_s`` (the calibration loop's time
    around it), ``work`` and, for the MC, ``rel_stderr``; each set-up is a
    pair (seconds, calibration seconds).  ``time_to_1pct_s`` scales the call
    time to a relative standard error of 1% with the squared relative stderr
    pooled over the run's calls; the bootstrap has no statistical error, so
    there it is the call time.
    """
    walls = [ref_seconds(c["wall_s"], c["cal_s"]) for c in calls]
    wall = statistics.median(walls)
    rel_var = [c["rel_stderr"] ** 2 for c in calls if c.get("rel_stderr") is not None]
    to_1pct = wall * statistics.fmean(rel_var) / 0.01**2 if rel_var else wall
    return {
        "wall_s": (wall, "s"),
        "throughput_per_s": (statistics.median(c["work"] / w for c, w in zip(calls, walls)), "1/s"),
        "time_to_1pct_s": (to_1pct, "s"),
        "setup_s": (statistics.median(ref_seconds(*s) for s in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# ---------------------------------------------------------------------------
# traced run: spans, self time, distinct ratios
# ---------------------------------------------------------------------------


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float
    items: int = 0  # units the call handled (evaluations, samples), if any

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.duration - _covered(s.start, s.end, children.get(s.sid, ())) for s in spans}


class DistinctCounter:
    """Counts calls and the distinct argument keys among them."""

    def __init__(self) -> None:
        self.calls = 0
        self.keys: set = set()

    def add(self, key) -> None:
        self.calls += 1
        self.keys.add(key)

    @property
    def ratio(self) -> float:
        return len(self.keys) / self.calls if self.calls else 0.0


def layer_metrics(
    spans: list[Span], distinct: dict[str, DistinctCounter], wall_s: float, cal_s: float
) -> dict:
    """Per-layer metrics of one traced call (see perfbench/README.md), times
    in reference seconds.

    Names of wrapped functions absent from the program contribute zero.
    """
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)

    def self_of(*names) -> float:
        return sum((selfs[s.sid] for s in spans if s.name in names), 0.0)

    def self_of_layer(layer) -> float:
        return sum((selfs[s.sid] for s in spans if s.layer == layer), 0.0)

    def parent_layer(s: Span):
        return by_id[s.parent].layer if s.parent is not None else None

    recompute = sum(
        (s.duration for s in spans if s.layer in ("blocks", "dozz") and parent_layer(s) == "cli"),
        0.0,
    )
    samples = sum(s.items for s in spans if s.name == "sample_gff")
    gff_self = self_of("sample_gff")
    gram, ups = distinct["shapovalov"], distinct["log_upsilon"]
    metrics = {
        "cli.self_s": (self_of_layer("cli"), "s"),
        "cli.recompute_s": (recompute, "s"),
        "bootstrap.evals": (sum(s.items for s in spans if s.layer == "bootstrap"), "count"),
        "bootstrap.self_s": (self_of_layer("bootstrap"), "s"),
        "blocks.calls": (sum(1 for s in spans if s.layer == "blocks"), "count"),
        "blocks.self_s": (self_of_layer("blocks"), "s"),
        "virasoro.gram_builds": (gram.calls, "count"),
        "virasoro.self_s": (self_of_layer("virasoro"), "s"),
        "virasoro.gram_distinct_ratio": (gram.ratio, "ratio"),
        "dozz.calls": (sum(1 for s in spans if s.layer == "dozz"), "count"),
        "dozz.self_s": (self_of_layer("dozz"), "s"),
        "special.log_upsilon_calls": (ups.calls, "count"),
        "special.log_upsilon_distinct_ratio": (ups.ratio, "ratio"),
        "special.self_s": (self_of_layer("special"), "s"),
        "gmc.setup_s": (self_of("fit_w_constant", "torus_det_prefactor"), "s"),
        "gmc.sample_gff_calls": (sum(1 for s in spans if s.name == "sample_gff"), "count"),
        "gmc.sample_gff.self_s": (gff_self, "s"),
        "gmc.sample_gff_s_per_sample": (gff_self / samples if samples else 0.0, "s"),
        "gmc.estimator.self_s": (self_of("mc_torus_one_point"), "s"),
        "trace.spans": (len(spans), "count"),
        "trace.self_sum_frac": (sum(selfs.values()) / wall_s, "ratio"),
    }
    return {
        k: (ref_seconds(v, cal_s), u) if u == "s" else (v, u) for k, (v, u) in metrics.items()
    }


def check_span_tree(spans: list[Span], wall_s: float) -> list[str]:
    """Every span must descend from one root span, and the self times must
    add up to the traced call's wall time."""
    fails = []
    roots = [s for s in spans if s.parent is None]
    if len(roots) != 1:
        fails.append(f"traced call has {len(roots)} root spans, expected 1")
    total = sum(self_times(spans).values())
    if not abs(total - wall_s) <= SELF_SUM_RTOL * wall_s:
        fails.append(f"self times add up to {total:.6f} s, traced wall time is {wall_s:.6f} s")
    return fails
