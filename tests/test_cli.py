import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

GENUS2 = {
    "vertices": [{"id": 1, "slots": 3}, {"id": 2, "slots": 3}],
    "edges": [
        {"from": [1, 1], "to": [2, 1], "q": [0.1, 0.0]},
        {"from": [1, 2], "to": [1, 3], "q": [0.1, 0.0]},
        {"from": [2, 2], "to": [2, 3], "q": [0.1, 0.0]},
    ],
    "marked": [],
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "lcft.cli", *args], capture_output=True, text=True, timeout=300
    )


class TestCli:
    def test_dozz_json(self):
        out = run_cli("dozz", "--gamma", "1.0", "--alpha", "0.3", "0.5", "0.9")
        assert out.returncode == 0
        rec = json.loads(out.stdout)
        assert rec["command"] == "dozz"
        assert "re" in rec["result"]["value"] and "im" in rec["result"]["value"]
        assert rec["config_hash"]
        assert rec["config"]["gamma"] == 1.0

    def test_mc_determinism(self):
        args = ("mc-torus1pt", "--alpha", "1.2", "--samples", "400", "--grid", "32",
                "--seed", "11", "--p-max", "3")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == 0
        ra, rb = json.loads(a.stdout), json.loads(b.stdout)
        assert ra["result"]["mean"] == rb["result"]["mean"]
        assert ra["result"]["stderr"] == rb["result"]["stderr"]
        threads = ra["result"]["mc_config"]["threads"]
        assert threads == min(len(os.sched_getaffinity(0)), ra["config"]["batches"])

    def test_output_artifacts(self, tmp_path):
        out = run_cli("torus1pt", "--alpha", "1.2", "--N", "3", "--p-max", "3",
                      "--out", str(tmp_path))
        assert out.returncode == 0
        rec = json.loads((tmp_path / "torus1pt.json").read_text())
        assert rec["result"]["value"] > 0
        csv = (tmp_path / "torus1pt_density.csv").read_text().splitlines()
        assert csv[0] == "p,rho,block_abs2,integrand"
        assert len(csv) > 10

    def test_config_file_and_schema(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 1.1, "alpha": [0.4, 0.6, 1.1]}))
        out = run_cli("dozz", "--config", str(cfg))
        assert out.returncode == 0
        cfg.write_text(json.dumps({"gamma": 3.5}))
        out = run_cli("dozz", "--config", str(cfg))
        assert out.returncode == 2
        assert "gamma" in out.stderr

    def test_common_flags_before_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 1.1}))
        out = run_cli("--out", str(tmp_path / "out"), "--config", str(cfg), "--seed", "7", "dozz")
        assert out.returncode == 0, out.stderr
        rec = json.loads((tmp_path / "out" / "dozz.json").read_text())
        assert rec["config"]["gamma"] == 1.1
        assert rec["config"]["seed"] == 7

    def test_empty_alpha_is_unset(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": [0.4, 0.6, 1.1]}))
        out = run_cli("dozz", "--config", str(cfg), "--alpha")
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["result"]["alpha"] == [0.4, 0.6, 1.1]

    @pytest.mark.parametrize("command", ["block", "torus1pt", "mc-torus1pt"])
    def test_single_weight_commands_reject_extra_weights(self, command):
        out = run_cli(command, "--alpha", "1.2", "0.8", "--N", "1")
        assert out.returncode == 2
        assert "needs one weight in 'alpha', got 2" in out.stderr

    def test_validation_exit_code(self):
        out = run_cli("torus1pt", "--alpha", "-3.0")
        assert out.returncode == 2

    @pytest.mark.parametrize(
        "args, field",
        [
            (("torus1pt", "--N", "-1"), "N"),
            (("block", "--N", "-2"), "N"),
            (("mc-torus1pt", "--seed", "-1", "--samples", "20", "--grid", "8"), "seed"),
            (("--seed", "-1", "mc-torus1pt", "--samples", "20", "--grid", "8"), "seed"),
        ],
    )
    def test_flags_are_schema_checked(self, args, field):
        out = run_cli(*args)
        assert out.returncode == 2
        assert f"config field {field}: " in out.stderr and "less than the minimum of 0" in out.stderr

    def test_config_schema_is_valid(self):
        import jsonschema

        from lcft.cli import CONFIG_SCHEMA

        jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)

    def test_numerical_guard_exit_code(self):
        # alpha3 = alpha1 + alpha2 puts a denominator Upsilon argument on a zero
        out = run_cli("dozz", "--gamma", "1.0", "--alpha", "0.4", "0.7", "1.1")
        assert out.returncode == 3
        assert "guard" in out.stderr

    def test_selftest_single_criterion(self):
        out = run_cli("selftest", "--only", "5")
        assert out.returncode == 0
        assert "criterion 5" in out.stdout and "PASS" in out.stdout

    @pytest.mark.parametrize("before", [True, False])
    def test_selftest_rejects_common_flags(self, before, tmp_path):
        flags = ("--out", str(tmp_path / "out"), "--seed", "3")
        args = (*flags, "selftest", "--only", "5") if before else ("selftest", "--only", "5", *flags)
        out = run_cli(*args)
        assert out.returncode == 2
        assert not (tmp_path / "out").exists()

    def test_graph_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": GENUS2, "p_max": 1.0, "nodes_per_panel": 2, "N": 1}))
        out = run_cli("graph", "--config", str(cfg))
        assert out.returncode == 0
        rec = json.loads(out.stdout)
        assert rec["result"]["genus"] == 2
        assert math.isfinite(rec["result"]["value"])

    def test_graph_with_unlisted_vertex_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        graph = {**GENUS2, "vertices": [{"id": 1, "slots": 3}]}
        cfg.write_text(json.dumps({"graph": graph, "p_max": 1.0, "nodes_per_panel": 2, "N": 1}))
        out = run_cli("graph", "--config", str(cfg))
        assert out.returncode == 2
        assert "vertices [2]" in out.stderr

    def test_graph_with_marked_slot_out_of_range_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        graph = {
            "vertices": [{"id": 1, "slots": 3}],
            "edges": [{"from": [1, 1], "to": [1, 2], "q": [0.1, 0.0]}],
            "marked": [{"vertex": 1, "slot": 7, "alpha": 1.2}],
        }
        cfg.write_text(json.dumps({"graph": graph, "p_max": 1.0, "nodes_per_panel": 2, "N": 1}))
        out = run_cli("graph", "--config", str(cfg))
        assert out.returncode == 2
        assert "slot index must be 1..3, got (1, 7)" in out.stderr

    def test_shapovalov_command(self, tmp_path):
        out = run_cli("shapovalov", "--level", "3")
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout)["result"]
        assert result["level"] == 3 and len(result["basis"]) == 3
        assert result["method"] == "cholesky"
        assert result["inverse_residual"] < 1e-12
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": [0.5, 0.3]}))
        out = run_cli("shapovalov", "--config", str(cfg), "--level", "2")
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout)["result"]
        assert result["method"] == "lu"
        assert result["inverse_residual"] < 1e-12

    @pytest.mark.parametrize("command", ["torus1pt", "toruskpt", "spherekpt", "graph"])
    def test_engine_counters_in_record(self, command, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": GENUS2} if command == "graph" else {}))
        out = run_cli(command, "--config", str(cfg), "--N", "1", "--p-max", "1.0",
                      "--nodes-per-panel", "2")
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout)["result"]
        for key in ("gram_sets", "dozz_factors", "vertex_tensors", "upsilon_evals"):
            assert isinstance(result[key], int) and result[key] > 0, key
        assert result["gram_sets"] == 4  # one Gram-inverse set per quadrature node
        assert math.isfinite(result["value"])

    @pytest.mark.parametrize(
        "args",
        [
            ("torus1pt", "--p-max", "inf"),
            ("torus1pt", "--p-max", "nan"),
            ("torus1pt", "--panel-width", "nan"),
            ("torus1pt", "--alpha", "nan"),
            ("dozz", "--alpha", "nan", "0.5", "0.9"),
        ],
    )
    def test_non_finite_flag_exits_2(self, args):
        out = run_cli(*args)
        assert out.returncode == 2, out.stderr
        assert "holds a number that is not finite" in out.stderr

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"gamma": 1.1,', "is not valid JSON"),
            ('{"alpha": [NaN, 0.5, 0.9]}', "config field alpha: holds a number"),
        ],
    )
    def test_unreadable_config_file_exits_2(self, text, message, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = run_cli("dozz", "--config", str(cfg))
        assert out.returncode == 2, out.stderr
        assert message in out.stderr

    def test_quadrature_over_budget_exits_3_before_building(self, monkeypatch, capsys):
        import lcft.bootstrap
        from lcft.cli import main

        def unreachable(*args):
            raise AssertionError("quadrature rule built before its nodes were counted")

        monkeypatch.setattr(lcft.bootstrap, "_panel_rule", unreachable)
        assert main(["torus1pt", "--p-max", "1e9"]) == 3
        assert "exceed budget 1000000" in capsys.readouterr().err

    def test_graph_self_loop_equals_torus1pt(self, tmp_path):
        q = complex(np.exp(2j * math.pi * 1j))  # tau = i, as torus1pt defaults
        graph = {
            "vertices": [{"id": 1, "slots": 3}],
            "edges": [{"from": [1, 2], "to": [1, 1], "q": [q.real, q.imag]}],
            "marked": [{"vertex": 1, "slot": 3, "alpha": 1.2}],
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": graph}))
        flags = ("--N", "2", "--p-max", "2.0", "--nodes-per-panel", "3")
        loop = run_cli("graph", "--config", str(cfg), *flags)
        torus = run_cli("torus1pt", "--alpha", "1.2", *flags)
        assert loop.returncode == 0 and torus.returncode == 0, loop.stderr + torus.stderr
        assert json.loads(loop.stdout)["result"]["value"] == json.loads(torus.stdout)["result"]["value"]

    def test_metric_constants_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": GENUS2, "metric_constants": [1.0, 1.0]}))
        out = run_cli("graph", "--config", str(cfg))
        assert out.returncode == 2
        assert "metric_constants" in out.stderr

    def test_upsilon_command(self):
        out = run_cli("upsilon", "--gamma", "1.0", "--p", "1.25")
        assert out.returncode == 0
        rec = json.loads(out.stdout)
        assert rec["result"]["value"]["re"] == 1.0  # Q/2 = 1.25 at gamma = 1
