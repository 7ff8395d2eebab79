import json
import math
import os
import subprocess
import sys
from pathlib import Path

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


def _config_battery(schema, validator):
    """Configs for the schema oracle: each property alone at every edge value
    (each bound at and one step beside it, bools, integral floats, -0.0, None,
    strings, short, long and nested lists), extra keys, roots that are not
    objects, and 5 000 seeded mixtures of up to four entries that the
    validator accepts alone, half of them with one more entry of any kind."""
    generic = [None, True, False, 0, -0.0, 1, 3.0, 2.5, -1, "1", {}, [], [1.0], [1.0, 2.0],
               [1.0, 2.0, 3.0], [True, 1.0], [None, 1], [[1, 2], 3], ["a", 1.0], [[0, 0], None]]
    entries = []
    for key, sub in schema["properties"].items():
        values = list(generic)
        for bound in (sub.get(k) for k in ("minimum", "exclusiveMinimum", "exclusiveMaximum")):
            if bound is not None:
                values += [bound, float(bound), bound - 1, bound + 1,
                           math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
        for n in {sub.get("minItems", 0), sub.get("maxItems", 3)}:
            values += [[0.5] * n, [0.5] * (n + 1), [0.5] * max(n - 1, 0), [0.5] * (n - 1) + [True]]
        entries += [(key, v) for v in values]
    entries += [(key, 1.0) for key in ("metric_constants", "Gamma", "")]
    yield from ({key: v} for key, v in entries)
    yield from ([], None, 1.0, "gamma")
    valid = [entry for entry in entries if validator.is_valid(dict([entry]))]
    rng = np.random.default_rng(7)
    for i in range(5000):
        picks = [valid[j] for j in rng.choice(len(valid), size=rng.integers(1, 5))]
        if i % 2:
            picks.append(entries[rng.integers(len(entries))])
        yield dict(picks)


#: Quadrature and truncation settings that make a spectral command quick.
CHEAP_SPECTRAL = {"N": 1, "p_max": 1.0, "nodes_per_panel": 2}

#: The config keys each subcommand takes and records.
COMMAND_KEYS = {
    "upsilon": {"gamma", "p", "zarg"},
    "dozz": {"gamma", "mu", "alpha"},
    "shapovalov": {"delta", "c", "level"},
    "block": {"gamma", "alpha", "p", "q", "N"},
    "torus1pt": {"gamma", "mu", "alpha", "tau", "p_max", "panel_width", "nodes_per_panel", "N"},
    "toruskpt": {"gamma", "mu", "alpha", "tau", "x", "p_max", "panel_width", "nodes_per_panel", "N"},
    "spherekpt": {"gamma", "mu", "alpha", "z", "p_max", "panel_width", "nodes_per_panel", "N"},
    "graph": {"gamma", "mu", "graph", "p_max", "panel_width", "nodes_per_panel", "N"},
    "mc-torus1pt": {"gamma", "mu", "alpha", "tau", "grid", "samples", "batches", "seed",
                    "p_max", "panel_width", "nodes_per_panel", "N"},
}


def main_code(argv) -> int:
    """lcft.cli.main's exit code, an argparse error's included."""
    from lcft.cli import main

    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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
        assert ra["result"]["mc_config"]["bit_generator"] == "SFC64"
        assert ra["result"]["mc_config"]["translates"] == 4

    def test_mc_batches_reproduce_mean_and_stderr(self, tmp_path):
        # the batch-means CSV holds the control-adjusted batch means
        out = run_cli("mc-torus1pt", "--alpha", "1.2", "--samples", "400", "--grid", "32",
                      "--seed", "11", "--p-max", "3", "--out", str(tmp_path))
        assert out.returncode == 0, out.stderr
        res = json.loads((tmp_path / "mc-torus1pt.json").read_text())["result"]
        batches = np.loadtxt(tmp_path / "mc_batches.csv", delimiter=",", skiprows=1)[:, 1]
        assert batches.mean() == pytest.approx(res["mean"], rel=1e-12)
        stderr = batches.std(ddof=1) / math.sqrt(len(batches))
        assert stderr == pytest.approx(res["stderr"], rel=1e-12)
        assert res["mc_config"]["controls"] == 12

    @pytest.mark.parametrize("grid", ["4", "6"])
    def test_mc_runs_on_the_smallest_grids(self, grid):
        # every grid the schema accepts runs, 4^2 and 6^2 included
        out = run_cli("mc-torus1pt", "--alpha", "1.2", "--samples", "40", "--batches", "20",
                      "--grid", grid, "--p-max", "3")
        assert out.returncode == 0, out.stderr
        assert math.isfinite(json.loads(out.stdout)["result"]["mean"])

    def test_output_artifacts(self, tmp_path):
        out = run_cli("torus1pt", "--alpha", "1.2", "--N", "3", "--p-max", "3",
                      "--out", str(tmp_path))
        assert out.returncode == 0
        rec = json.loads((tmp_path / "torus1pt.json").read_text())
        assert rec["result"]["value"] > 0
        csv = (tmp_path / "torus1pt_density.csv").read_text().splitlines()
        assert csv[0] == "p,rho,block_abs2,integrand"
        assert len(csv) > 10

    def test_density_and_prefactor_reproduce_value(self, tmp_path):
        from lcft.bootstrap import Quadrature

        assert main_code(["torus1pt", "--N", "3", "--p-max", "3", "--out", str(tmp_path)]) == 0
        rec = json.loads((tmp_path / "torus1pt.json").read_text())
        cfg, result = rec["config"], rec["result"]
        weights = Quadrature(cfg["p_max"], cfg["panel_width"], cfg["nodes_per_panel"]).weights
        integrand = np.loadtxt(tmp_path / "torus1pt_density.csv", delimiter=",", skiprows=1)[:, 3]
        assert result["prefactor"] * np.dot(weights, integrand) == pytest.approx(result["value"], rel=1e-12)

    def test_config_file_and_schema(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 1.1, "alpha": [0.4, 0.6, 1.1]}))
        out = run_cli("dozz", "--config", str(cfg))
        assert out.returncode == 0
        cfg.write_text(json.dumps({"gamma": 3.5}))
        out = run_cli("dozz", "--config", str(cfg))
        assert out.returncode == 2
        assert "gamma" in out.stderr

    def test_in_process_calls_match_separate_calls(self, tmp_path):
        # one parser serves every call in a process: the flags given to the
        # first call (a weight torus1pt reads, gamma and mu) must not reach
        # the second, which reads all three
        calls = [
            ["torus1pt", "--gamma", "1.1", "--mu", "0.5", "--alpha", "1.0", "--N", "1",
             "--p-max", "1.0", "--nodes-per-panel", "2"],
            ["dozz"],
        ]
        for i, argv in enumerate(calls):
            assert main_code([*argv, "--out", str(tmp_path / "in" / str(i))]) == 0
            out = run_cli(*argv, "--out", str(tmp_path / "apart" / str(i)))
            assert out.returncode == 0, out.stderr
        written = sorted(p.relative_to(tmp_path / "in") for p in (tmp_path / "in").rglob("*.*"))
        assert [p.name for p in written] == ["torus1pt.json", "torus1pt_density.csv", "dozz.json"]
        for path in written:
            assert (tmp_path / "in" / path).read_text() == (tmp_path / "apart" / path).read_text()
        assert json.loads((tmp_path / "in" / "1" / "dozz.json").read_text())["config"] == {
            "gamma": math.sqrt(2.0), "mu": 1.0, "alpha": [0.3, 0.5, 0.9], "command": "dozz"
        }

    def test_common_flags_before_subcommand(self, tmp_path):
        # mc-torus1pt is the one command that reads a seed
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 1.1, "samples": 40, "grid": 8, **CHEAP_SPECTRAL}))
        out = run_cli("--out", str(tmp_path / "out"), "--config", str(cfg), "--seed", "7", "mc-torus1pt")
        assert out.returncode == 0, out.stderr
        rec = json.loads((tmp_path / "out" / "mc-torus1pt.json").read_text())
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

    def test_config_check_agrees_with_jsonschema(self):
        """The CLI's schema walker accepts and rejects what a Draft 2020-12
        validator does, and names the same field when every error is in one."""
        import jsonschema

        from lcft.cli import CONFIG_SCHEMA, _check_schema
        from lcft.errors import ValidationError

        validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
        battery = list(_config_battery(CONFIG_SCHEMA, validator))
        assert len(battery) > 5000
        for cfg in battery:
            errors = list(validator.iter_errors(cfg))
            try:
                _check_schema(CONFIG_SCHEMA, cfg)
            except ValidationError as exc:
                assert errors, cfg
                fields = {"/".join(map(str, e.absolute_path)) or "<root>" for e in errors}
                if len(fields) == 1:
                    assert str(exc).startswith(f"config field {fields.pop()}: "), (cfg, str(exc))
            else:
                assert not errors, (cfg, [e.message for e in errors])

    @pytest.mark.parametrize(
        "sub",
        [
            {"type": "string"},
            {"type": "number", "pattern": "^1"},
            {"type": "array", "items": {"type": "number", "multipleOf": 2}},
            {"type": "object", "additionalProperties": {"type": "number"}},
        ],
    )
    def test_config_check_refuses_an_unimplemented_keyword(self, sub):
        from lcft.cli import _check_schema

        schema = {"type": "object", "properties": {"k": sub}, "additionalProperties": False}
        with pytest.raises(ValueError, match="does not implement"):
            _check_schema(schema, {"k": [1] if sub["type"] == "array" else 1})

    def test_numerical_guard_exit_code(self):
        # alpha3 = alpha1 + alpha2 puts a denominator Upsilon argument on a zero
        out = run_cli("dozz", "--gamma", "1.0", "--alpha", "0.4", "0.7", "1.1")
        assert out.returncode == 3
        assert "guard" in out.stderr

    def test_gram_guard_exit_code(self, capsys):
        # level 11 at the first node (p ~ 0.106) trips the Gram condition guard
        from lcft.cli import main

        argv = ["torus1pt", "--N", "11", "--p-max", "0.5", "--panel-width", "0.5", "--nodes-per-panel", "2"]
        assert main(argv) == 3
        assert "numerical guard: Gram matrix at level 11" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "args, words",
        [
            (("--mc-samples", "0"), "--mc-samples must be at least 40"),
            (("--only", "5", "--mc-samples", "39"), "--mc-samples must be at least 40"),
            (("--only", "99"), "unknown criterion id 99"),
            (("--only", "5", "99"), "unknown criterion id 99"),
        ],
    )
    def test_selftest_rejects_bad_values(self, args, words):
        out = run_cli("selftest", *args)
        assert out.returncode == 2
        assert words in out.stderr and "Traceback" not in out.stderr
        assert "criterion" not in out.stdout

    def test_readme_graph_example(self, tmp_path):
        # the README's graph block, as a config file's graph, runs at the defaults
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = tmp_path / "graph.json"
        cfg.write_text(json.dumps({"graph": json.loads(block)}))
        out = run_cli("graph", "--config", str(cfg))
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["result"]["genus"] == 1

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

    def test_graph_with_mixed_type_vertex_ids_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        graph = {"edges": [{"from": [1, 1], "to": ["a", 1]}]}
        cfg.write_text(json.dumps({"graph": graph, "p_max": 1.0, "nodes_per_panel": 2, "N": 1}))
        out = run_cli("graph", "--config", str(cfg))
        assert out.returncode == 2
        assert "validation error: vertex ids 'a', 1 mix types that do not order" in out.stderr

    @pytest.mark.parametrize(
        "graph, message",
        [
            ({"edges": [{"to": [1, 2]}]}, "edges/0/from: missing"),
            ({"edges": [{"from": [1], "to": [1, 2]}]}, "edges/0/from: [1] is not a [vertex, slot] pair"),
            ({"edges": [{"from": [1, 1], "to": [1, 2], "q": [0.1]}]}, "edges/0/q: [0.1] is not a [re, im] pair"),
            ({"edges": [{"from": [1, 1], "to": [1, 2], "q": ["a", 0]}]}, "edges/0/q: ['a', 0] is not"),
            ({"edges": [{"from": [[1], 1], "to": [1, 2]}]}, "edges/0/from: [[1], 1] is not"),
            ({"marked": [{"vertex": 1, "slot": 3, "alpha": "x"}]}, "marked/0/alpha: 'x' is not a number"),
            ({"marked": [{"vertex": 1, "slot": 3}]}, "marked/0/alpha: missing"),
            ({"vertices": [{"slots": 3}]}, "vertices/0/id: missing"),
            ({"edges": 5}, "edges: 5 is not a list"),
            ({"marked": [3]}, "marked/0: 3 is not an object"),
        ],
        ids=["no-from", "short-from", "short-q", "text-q", "list-vertex", "text-alpha", "no-alpha",
             "no-id", "edges-not-list", "mark-not-object"],
    )
    def test_malformed_graph_json_exits_2(self, graph, message, tmp_path, capsys):
        from lcft.cli import main

        good = {
            "vertices": [{"id": 1, "slots": 3}],
            "edges": [{"from": [1, 1], "to": [1, 2], "q": [0.1, 0.0]}],
            "marked": [{"vertex": 1, "slot": 3, "alpha": 1.2}],
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": {**good, **graph}, "p_max": 1.0, "nodes_per_panel": 2, "N": 1}))
        assert main(["graph", "--config", str(cfg)]) == 2
        assert f"validation error: graph field {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, entries, bad",
        [
            ("spherekpt", "z", [[0, 0], [0.5], [2.0, 0.0], None], 1),
            ("spherekpt", "z", [[0, 0], "a", [2.0, 0.0], None], 1),
            ("spherekpt", "z", [None, [0.5, 0.0], [2.0, 0.0], None], 0),
            ("spherekpt", "z", [[0, 0], [0.5, 0.0], [2.0, True], None], 2),
            ("toruskpt", "x", [[0, 0], [0.5]], 1),
            ("toruskpt", "x", ["ab", [0.5, 2.0]], 0),
            ("toruskpt", "x", [0, 1], 0),
            ("toruskpt", "x", [[0, 0], None], 1),
        ],
        ids=["z-short", "z-text", "z-null-first", "z-bool", "x-short", "x-text", "x-numbers", "x-null"],
    )
    def test_malformed_point_exits_2(self, command, key, entries, bad, tmp_path, capsys):
        from lcft.cli import main

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: entries, "p_max": 1.0, "nodes_per_panel": 2, "N": 1}))
        assert main([command, "--config", str(cfg)]) == 2
        assert f"validation error: config field {key}/{bad}" in capsys.readouterr().err

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
        assert 0 < result["prefactor"] < math.inf
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
            pytest.param("<missing>", "cannot be read", id="missing-file"),
            pytest.param("<directory>", "cannot be read", id="directory"),
            pytest.param('\xff\xfe{"gamma": 1.1}', "is not valid JSON", id="not-utf-8"),
        ],
    )
    def test_unreadable_config_file_exits_2(self, text, message, tmp_path):
        cfg = tmp_path / "cfg.json"
        if text == "<directory>":
            cfg.mkdir()
        elif text != "<missing>":
            cfg.write_bytes(text.encode("latin-1"))
        out = run_cli("dozz", "--config", str(cfg))
        assert out.returncode == 2, out.stderr
        assert message in out.stderr

    def test_loads_no_scipy_jsonschema_or_numpy_ma(self, tmp_path):
        """lcft imports and runs every bootstrap and MC command with scipy and
        jsonschema unimportable, and loads no scipy, jsonschema or numpy.ma
        module."""
        cfg = tmp_path / "graph.json"
        cfg.write_text(json.dumps({"graph": GENUS2}))
        tiny = ("--N", "1", "--p-max", "1.0", "--nodes-per-panel", "2")
        calls = [
            ("torus1pt", "--alpha", "1.2", *tiny),
            ("spherekpt", *tiny),
            ("graph", "--config", str(cfg), *tiny),
            ("mc-torus1pt", "--alpha", "1.2", "--samples", "20", "--grid", "8", *tiny),
        ]
        script = (
            "import sys\n"
            "sys.modules['scipy'] = sys.modules['jsonschema'] = None\n"
            "import lcft, lcft.acceptance, lcft.cli\n"
            f"codes = [lcft.cli.main(list(argv)) for argv in {calls!r}]\n"
            "assert codes == [0, 0, 0, 0], codes\n"
            "loaded = [m for m, mod in sys.modules.items() if mod is not None and (\n"
            "    m == 'numpy.ma' or m.startswith(('scipy', 'jsonschema', 'numpy.ma.')))]\n"
            "assert not loaded, loaded\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr

    def test_quadrature_over_budget_exits_3_before_building(self, monkeypatch, capsys):
        import lcft.bootstrap
        from lcft.cli import main

        def unreachable(*args):
            raise AssertionError("quadrature rule built before its nodes were counted")

        monkeypatch.setattr(lcft.bootstrap, "_panel_rule", unreachable)
        assert main(["torus1pt", "--p-max", "1e9"]) == 3
        assert "exceed budget 1000000" in capsys.readouterr().err
        # one panel of 40 000 nodes is within the budget, but leggauss would
        # build a dense 40 000^2 companion matrix for it
        assert main(["torus1pt", "--p-max", "0.5", "--nodes-per-panel", "40000"]) == 3
        assert "exceed budget 1000000" in capsys.readouterr().err

    def test_dozz_over_shift_budget_exits_3_before_pole_search(self, monkeypatch, capsys):
        import lcft.dozz
        from lcft.cli import main

        search = lcft.dozz._lattice_distance

        def near_only(z, gamma):
            assert np.all(np.abs(np.real(z)) < 1e3), f"pole distance sought at {z}"
            return search(z, gamma)

        monkeypatch.setattr(lcft.dozz, "_lattice_distance", near_only)
        assert main(["dozz", "--alpha", "1e7", "1.0", "1.2"]) == 3
        assert "more than 200 Upsilon shifts required" in capsys.readouterr().err
        # abar/2 - alpha1 = 0.6 is searched, abar/2 - alpha3 is out of reach
        assert main(["dozz", "--alpha", "1e7", "1e7", "1.2"]) == 3
        assert "more than 200 Upsilon shifts required" in capsys.readouterr().err

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

    def test_upsilon_records_p_only_without_zarg(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"zarg": [0.3, 0.2]}))
        records = []
        for argv in (["upsilon", "--config", str(cfg)], ["upsilon"]):
            assert main_code(argv) == 0
            records.append(json.loads(capsys.readouterr().out))
        assert "p" not in records[0]["config"] and records[0]["result"]["z"] == [0.3, 0.2]
        assert records[1]["config"]["p"] == 0.7 and records[1]["result"]["z"] == [0.7, 0.0]

    @pytest.mark.parametrize(
        "flags, given", [([], {"p": 0.5, "zarg": [0.3, 0.2]}), (["--p", "0.5"], {"zarg": [0.3, 0.2]})],
        ids=["file", "flag"],
    )
    def test_upsilon_p_beside_zarg_exits_2(self, flags, given, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(given))
        assert main_code(["upsilon", "--config", str(cfg), *flags]) == 2
        err = capsys.readouterr().err
        assert "'p'" in err and "'zarg'" in err

    def test_command_table_lists_each_command_keys(self):
        from lcft.cli import COMMANDS

        assert {name: set(defaults) for name, (_, defaults) in COMMANDS.items()} == COMMAND_KEYS
        assert sum(map(len, COMMAND_KEYS.values())) == 58

    @pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
    def test_record_holds_exactly_the_command_keys(self, command, tmp_path, capsys):
        from lcft.cli import COMMANDS

        keys = COMMAND_KEYS[command]
        given = {key: val for key, val in {**CHEAP_SPECTRAL, "samples": 40, "grid": 8}.items() if key in keys}
        given |= {"graph": GENUS2} if command == "graph" else {"zarg": [0.3, 0.1]} if command == "upsilon" else {}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(given))
        assert main_code([command, "--config", str(cfg)]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        defaults = {key: val for key, val in COMMANDS[command][1].items() if val is not None}
        assert config == {**defaults, **given, "command": command}

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["shapovalov", "--gamma", "1.0"], "--gamma"),
            (["dozz", "--samples", "5"], "--samples"),
            (["torus1pt", "--p", "0.5"], "--p"),  # not taken for --p-max
            (["graph", "--seed", "3"], "--seed"),
            (["--seed", "3", "dozz"], "'seed'"),
            (["dozz", "--config", "{grid}"], "'grid'"),
        ],
        ids=["shapovalov-gamma", "dozz-samples", "torus1pt-p", "graph-seed", "seed-before-dozz", "dozz-grid-file"],
    )
    def test_key_the_command_does_not_read_exits_2(self, argv, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 64}))
        assert main_code([arg.format(grid=cfg) for arg in argv]) == 2
        assert key in capsys.readouterr().err

    def test_defaults_and_their_values_give_one_hash(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": []}))
        records = []
        for argv in (["dozz"], ["dozz", "--alpha", "0.3", "0.5", "0.9"], ["dozz", "--config", str(cfg)]):
            assert main_code(argv) == 0
            records.append(json.loads(capsys.readouterr().out))
        assert len({rec["config_hash"] for rec in records}) == 1
        assert records[2]["result"]["alpha"] == [0.3, 0.5, 0.9]  # a file's empty alpha is unset

    @pytest.mark.parametrize("q, modulus", [([0, 0], "0.0"), ([1.5, 0.0], "1.5")], ids=["zero", "outside"])
    def test_block_needs_q_in_the_punctured_unit_disk(self, q, modulus, tmp_path, capsys):
        # the series does not depend on q; lcft block evaluates it at q, so it
        # refuses q outside 0 < |q| < 1, as graph refuses such a modulus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 1.1, "alpha": [1.2], "p": 0.1, "q": q, "N": 2}))
        assert main_code(["block", "--config", str(cfg)]) == 2
        assert f"validation error: block needs 0 < |q| < 1, got |q| = {modulus}" in capsys.readouterr().err

    @pytest.mark.parametrize("minimal", [True, False], ids=["setup-call", "measured-call"])
    def test_benchmark_workloads_pass_their_command_keys(self, minimal, tmp_path, monkeypatch):
        # each workload config, with the flags the benchmark harness adds,
        # loads under its command's keys; the handler is stubbed out
        import lcft.cli

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import harness

        for w in harness.WORKLOADS.values():
            loaded = []
            defaults = lcft.cli.COMMANDS[w.command][1]
            monkeypatch.setitem(lcft.cli.COMMANDS, w.command, (lambda cfg: loaded.append(cfg) or {}, defaults))
            assert main_code(w.argv(str(tmp_path / w.name), seed=1, minimal=minimal)) == 0, w.name
            assert loaded[0].keys() == COMMAND_KEYS[w.command] | {"command"}, w.name
