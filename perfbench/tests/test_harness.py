"""Tests of the benchmark harness's own logic.  Only the last one imports
lcft, to validate the workload configs against the CLI schema.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import harness  # noqa: E402
from harness import DistinctCounter, Span  # noqa: E402
from tracing import Tracer  # noqa: E402

GRAPH = harness.WORKLOADS["graph-genus2"]
MC = harness.WORKLOADS["mc-torus1pt"]


def test_self_times_of_a_span_nest():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9] > b1 [5, 6], b2 [7, 9]
    spans = [
        Span(0, None, "main", "cli", 0.0, 10.0),
        Span(1, 0, "torus_one_point", "bootstrap", 1.0, 4.0),
        Span(2, 1, "rho_density", "dozz", 2.0, 3.0),
        Span(3, 0, "graph_block", "blocks", 5.0, 9.0),
        Span(4, 3, "shapovalov", "virasoro", 5.0, 6.0),
        Span(5, 3, "shapovalov_inverse", "virasoro", 7.0, 9.0),
    ]
    assert harness.self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 2.0}
    assert harness.check_span_tree(spans, 10.0) == []
    assert harness.check_span_tree(spans, 11.0)  # self times miss a tenth of the wall time
    orphan = spans + [Span(6, None, "sample_gff", "gmc", 10.5, 11.0)]
    assert harness.check_span_tree(orphan, 11.0)

    counters = {"shapovalov": DistinctCounter(), "log_upsilon": DistinctCounter()}
    m = harness.layer_metrics(spans, counters, 10.0, harness.CAL_REF_S)
    assert m["cli.self_s"] == (3.0, "s")
    assert m["virasoro.self_s"] == (3.0, "s")
    assert m["cli.recompute_s"] == (4.0, "s")  # graph_block is a child of the CLI span
    assert m["dozz.self_s"] == (1.0, "s")
    assert m["trace.self_sum_frac"] == (1.0, "ratio")
    assert m["gmc.sample_gff_s_per_sample"] == (0.0, "s")
    slow = harness.layer_metrics(spans, counters, 10.0, 2.0 * harness.CAL_REF_S)
    assert slow["blocks.self_s"] == (0.5, "s")  # measured at half the reference speed
    assert slow["trace.self_sum_frac"] == (1.0, "ratio")


def test_overlapping_children_are_counted_once():
    spans = [
        Span(0, None, "main", "cli", 0.0, 10.0),
        Span(1, 0, "x", "blocks", 2.0, 6.0),
        Span(2, 0, "y", "blocks", 4.0, 8.0),
    ]
    assert harness.self_times(spans)[0] == pytest.approx(4.0)


def test_distinct_ratio_counter():
    c = DistinctCounter()
    assert c.ratio == 0.0
    for key in [(1j, 26.0, 1), (1j, 26.0, 2), (1j, 26.0, 1), (2j, 26.0, 1)] * 3:
        c.add(key)
    assert c.calls == 12
    assert c.ratio == pytest.approx(3 / 12)


def _record(workload, **result):
    return {"config": {"N": workload.N}, "result": {workload.work_key: workload.n_work, **result}}


def test_checker_rejects_a_perturbed_value():
    ref = {"value": 1.6288823281406708e-06}
    assert harness.check_record(GRAPH, _record(GRAPH, value=ref["value"]), ref) == []
    perturbed = ref["value"] * (1.0 + 1e-9)
    assert harness.check_record(GRAPH, _record(GRAPH, value=perturbed), ref)


def test_checker_rejects_a_wrong_request():
    ref = {"value": 2.0}
    wrong_count = _record(GRAPH, value=2.0)
    wrong_count["result"]["n_evaluations"] = 728
    assert harness.check_record(GRAPH, wrong_count, ref)
    wrong_level = _record(GRAPH, value=2.0)
    wrong_level["config"]["N"] = 2
    assert harness.check_record(GRAPH, wrong_level, ref)


def test_checker_rejects_an_mc_mean_six_sigma_off():
    ref = {"mean": 0.0593, "stderr": 3e-5}
    se = 4e-5
    sigma = math.hypot(se, ref["stderr"])
    ok = _record(MC, mean=ref["mean"] + 4.0 * sigma, stderr=se, error_blown=False)
    assert harness.check_record(MC, ok, ref) == []
    off = _record(MC, mean=ref["mean"] - 6.0 * sigma, stderr=se, error_blown=False)
    assert harness.check_record(MC, off, ref)
    blown = _record(MC, mean=ref["mean"], stderr=se, error_blown=True)
    assert harness.check_record(MC, blown, ref)


def test_density_check_integrates_the_csv():
    config = {"p_max": 6.0, "panel_width": 0.5, "nodes_per_panel": 8}
    p, w = harness.composite_gauss_legendre(**config)
    integrand = np.exp(-p)
    rows = np.column_stack([p, integrand, np.ones_like(p), integrand])
    value = float(np.dot(w, integrand)) / (2.0 * math.e)
    assert harness.check_density(value, rows, config) == []
    assert harness.check_density(value * (1.0 + 1e-9), rows, config)
    assert harness.check_density(value, rows[:-1], config)


def test_end_to_end_metrics_scale_to_reference_speed_and_pool_the_mc_variance():
    ref = harness.CAL_REF_S
    calls = [
        {"wall_s": 10.0, "cal_s": ref, "work": 8192, "rel_stderr": 0.006},
        {"wall_s": 24.0, "cal_s": 2.0 * ref, "work": 8192, "rel_stderr": 0.004},
    ]
    m = harness.end_to_end_metrics(calls, [(0.5, ref), (1.4, 2.0 * ref), (0.6, ref)], 75.0)
    assert m["wall_s"][0] == pytest.approx(11.0)  # the second call ran at half speed
    assert m["time_to_1pct_s"][0] == pytest.approx(11.0 * (0.36 + 0.16) / 2.0)
    assert m["setup_s"][0] == pytest.approx(0.6)
    boot_call = {"wall_s": 5.0, "cal_s": ref, "work": 96}
    boot = harness.end_to_end_metrics([boot_call], [(0.4, ref)], 70.0)
    assert boot["time_to_1pct_s"] == (5.0, "s")
    assert boot["throughput_per_s"] == (96 / 5.0, "1/s")


def test_tracer_reports_missing_names_as_absent(monkeypatch):
    fake = types.ModuleType("fake_layer")

    def shapovalov(delta, c, n):
        return delta

    fake.shapovalov = shapovalov
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    wraps = (
        ("virasoro", "shapovalov", ("fake_layer",)),
        ("blocks", "chain_block", ("fake_layer",)),
    )
    tracer = Tracer(wraps)
    tracer.install()
    for d in (1.0, 2.0, 1.0):
        fake.shapovalov(d, 26.0, 1)
    tracer.uninstall()
    assert fake.shapovalov is shapovalov
    assert tracer.absent == ["chain_block"]
    assert [s.name for s in tracer.spans()] == ["shapovalov"] * 3
    assert tracer.distinct["shapovalov"].ratio == pytest.approx(2 / 3)


def test_workload_configs_pass_the_cli_schema():
    jsonschema = pytest.importorskip("jsonschema")
    sys.path.insert(0, str(harness.ROOT / "src"))
    cli = pytest.importorskip("lcft.cli")
    for w in harness.WORKLOADS.values():
        jsonschema.validate(json.loads(w.config_path.read_text()), cli.CONFIG_SCHEMA)
