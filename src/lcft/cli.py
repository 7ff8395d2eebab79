"""Command-line front end.

Subcommands: selftest and the keys of COMMANDS, which gives each its handler
and the keys it reads.  Configuration comes from those keys' flags or a JSON
file (--config), is checked against CONFIG_SCHEMA cut down to them, and every
JSON result embeds the resolved configuration plus its SHA-256 hash so
outputs are self-describing.

Exit codes: 0 success, 2 validation/config error, 3 numerical guard tripped.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import operator
import os
import sys

from . import errors
from .blocks import torus_one_point_block
from .bootstrap import Quadrature, graph_correlator, sphere_k_point, torus_k_point, torus_one_point
from .dozz import dozz_constant
from .gmc import McConfig, TorusGeometry, mc_torus_one_point
from .graphs import AdmissibleGraph
from .params import CftParams
from .special import UpsilonEvaluator, upsilon
from .virasoro import shapovalov, shapovalov_inverse

#: A complex number as its [re, im] pair.
_PAIR = {"type": "array", "minItems": 2, "maxItems": 2, "items": {"type": "number"}}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "gamma": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 2},
        "mu": {"type": "number", "exclusiveMinimum": 0},
        "alpha": {"type": "array", "items": {"type": "number"}},
        "tau": _PAIR,
        "z": {"type": "array"},
        "x": {"type": "array", "items": _PAIR},
        "graph": {"type": "object"},
        "p_max": {"type": "number", "exclusiveMinimum": 0},
        "panel_width": {"type": "number", "exclusiveMinimum": 0},
        "nodes_per_panel": {"type": "integer", "minimum": 1},
        "N": {"type": "integer", "minimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "samples": {"type": "integer", "minimum": 1},
        "batches": {"type": "integer", "minimum": 20},
        "grid": {"type": "integer", "minimum": 4},
        "level": {"type": "integer", "minimum": 0},
        "delta": _PAIR,
        "c": {"type": "number"},
        "p": {"type": "number"},
        "q": _PAIR,
        "zarg": _PAIR,
    },
    "additionalProperties": False,
}

#: The JSON types of CONFIG_SCHEMA as Draft 2020-12 defines them: a bool is
#: not a number, and a float with an integral value is an integer.
_SCHEMA_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}
#: keyword, the test that a number fails it, and the message's words
_SCHEMA_BOUNDS = (
    ("minimum", operator.lt, "less than the minimum of"),
    ("exclusiveMinimum", operator.le, "less than or equal to the minimum of"),
    ("exclusiveMaximum", operator.ge, "greater than or equal to the maximum of"),
)
_SCHEMA_KEYWORDS = {
    "type", "minItems", "maxItems", "items", "properties", "additionalProperties",
    *(key for key, _, _ in _SCHEMA_BOUNDS),
}


def _check_schema(schema: dict, value, path: tuple = ()) -> None:
    """Raise ValidationError naming the first field of value that breaks schema.

    This checks exactly the JSON Schema keywords CONFIG_SCHEMA uses, and words
    each failure as the reference validators do; a keyword, type or
    additionalProperties value it does not implement raises ValueError, so no
    part of a schema goes unchecked."""
    if (
        schema.keys() - _SCHEMA_KEYWORDS
        or schema.get("type") not in (None, *_SCHEMA_TYPES)
        or schema.get("additionalProperties", False) is not False
    ):
        raise ValueError(f"config schema {schema} uses a keyword the checker does not implement")

    def fail(message: str):
        field = "/".join(str(p) for p in path) or "<root>"
        raise errors.ValidationError(f"config field {field}: {message}")

    if "type" in schema and not _SCHEMA_TYPES[schema["type"]](value):
        fail(f"{value!r} is not of type {schema['type']!r}")
    if _SCHEMA_TYPES["number"](value):
        for key, fails, words in _SCHEMA_BOUNDS:
            if key in schema and fails(value, schema[key]):
                fail(f"{value!r} is {words} {schema[key]!r}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            fail(f"{value!r} is too short")
        if len(value) > schema.get("maxItems", math.inf):
            fail(f"{value!r} is too long")
        if "items" in schema:
            for i, item in enumerate(value):
                _check_schema(schema["items"], item, (*path, i))
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        extra = [key for key in value if key not in properties]
        if extra and "additionalProperties" in schema:
            names = ", ".join(map(repr, extra)) + (" was" if len(extra) == 1 else " were")
            fail(f"Additional properties are not allowed ({names} unexpected)")
        for key, sub in properties.items():
            if key in value:
                _check_schema(sub, value[key], (*path, key))


def _load_config(args, defaults: dict) -> dict:
    """The command's defaults (a key whose default is None has none), then the
    --config file, then the given flags; an empty list, in the file or as an
    --alpha with no values, changes nothing.  The merged config is then
    checked for NaN and infinite numbers (flags and json read both, and NaN
    passes the schema's bounds) and once against CONFIG_SCHEMA cut down to
    the command's keys."""
    cfg = {key: val for key, val in defaults.items() if val is not None}
    user = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise errors.ValidationError(f"config file {config_path} cannot be read: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on bytes that are not text
            raise errors.ValidationError(f"config file {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise errors.ValidationError("config file must hold a JSON object")
    flags = {key: val for key, val in vars(args).items() if key not in ("command", "config", "out")}
    for given in (user, flags):
        cfg.update((key, val) for key, val in given.items() if val != [])
    for key, val in cfg.items():
        try:
            json.dumps(val, allow_nan=False)
        except ValueError:
            raise errors.ValidationError(f"config field {key}: holds a number that is not finite") from None
    properties = {key: CONFIG_SCHEMA["properties"][key] for key in defaults}
    _check_schema({**CONFIG_SCHEMA, "properties": properties}, cfg)
    return cfg


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True, default=str).encode()).hexdigest()[:16]


def _emit(args, cfg: dict, payload: dict, csv_rows=None, csv_name="curve.csv", csv_header=""):
    record = {
        "command": cfg.get("command"),
        "config": cfg,
        "config_hash": _config_hash(cfg),
        "result": payload,
    }
    text = json.dumps(record, indent=2, default=str)
    out_dir = getattr(args, "out", None)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{cfg.get('command')}.json")
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {path}")
        if csv_rows is not None:
            cpath = os.path.join(out_dir, csv_name)
            with open(cpath, "w") as fh:
                fh.write(csv_header + "\n")
                for row in csv_rows:
                    fh.write(",".join(f"{v:.16g}" for v in row) + "\n")
            print(f"wrote {cpath}")
    else:
        print(text)


def _cparams(cfg) -> CftParams:
    return CftParams(gamma=float(cfg["gamma"]), mu=float(cfg["mu"]))


def _quad(cfg) -> Quadrature:
    return Quadrature(
        p_max=float(cfg["p_max"]),
        panel_width=float(cfg["panel_width"]),
        nodes_per_panel=int(cfg["nodes_per_panel"]),
    )


def _one_alpha(cfg) -> float:
    """The weight of a one-insertion command."""
    a = cfg["alpha"]
    if len(a) != 1:
        raise errors.ValidationError(f"{cfg['command']} needs one weight in 'alpha', got {len(a)}")
    return a[0]


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


#: The spectral engine's work counters, copied from ``details`` into each record.
_ENGINE_COUNTERS = ("gram_sets", "dozz_factors", "vertex_tensors", "upsilon_evals")


def _correlator_payload(res) -> dict:
    """The scalars of a CorrelatorResult that every bootstrap command reports."""
    return {
        "value": res.value,
        "imag_residual": res.imag_residual,
        "tail_fraction": res.tail_fraction,
        "last_level_fraction": res.last_level_fraction,
        "mu_exponent": res.mu_exponent,
        "n_evaluations": res.n_evaluations,
        "prefactor": res.details["prefactor"],
        **{key: res.details[key] for key in _ENGINE_COUNTERS},
    }


def cmd_upsilon(cfg) -> dict:
    """Upsilon at zarg, or else at p (0.7 unless given), which the record holds."""
    if "zarg" in cfg and "p" in cfg:
        raise errors.ValidationError("upsilon takes 'p' or 'zarg', not both")
    ev = UpsilonEvaluator(float(cfg["gamma"]))
    z = _complex(cfg["zarg"]) if "zarg" in cfg else complex(cfg.setdefault("p", 0.7))
    val = upsilon(z, ev)
    return {"z": [z.real, z.imag], "value": {"re": val.real, "im": val.imag}}


def cmd_dozz(cfg) -> dict:
    a = cfg["alpha"]
    if len(a) != 3:
        raise errors.ValidationError("dozz needs exactly three weights in 'alpha'")
    val = dozz_constant(a[0], a[1], a[2], _cparams(cfg))
    return {"alpha": list(a), "value": {"re": val.real, "im": val.imag}}


def cmd_shapovalov(cfg) -> dict:
    F = shapovalov(_complex(cfg["delta"]), float(cfg["c"]), int(cfg["level"]))
    inv = shapovalov_inverse(F)
    return {
        "level": F.level,
        "basis": [list(reversed(w)) for w in F.basis],
        "entries_re": F.entries.real.tolist(),
        "entries_im": F.entries.imag.tolist(),
        "inverse_residual": inv.residual,
        "method": inv.method,
    }


def cmd_block(cfg) -> tuple[dict, list, str, str]:
    a = _one_alpha(cfg)
    q = _complex(cfg["q"])
    if not 0 < abs(q) < 1:
        raise errors.ValidationError(f"block needs 0 < |q| < 1, got |q| = {abs(q)}")
    # the block does not depend on mu
    series = torus_one_point_block(a, float(cfg["p"]), CftParams(float(cfg["gamma"])), int(cfg["N"]))
    rows = [(n[0], series.coeffs[n].real, series.coeffs[n].imag) for n in sorted(series.coeffs)]
    payload = {
        "alpha1": a,
        "p": cfg["p"],
        "q": [q.real, q.imag],
        "prefactor_exponent": series.exponents[0],
        "coefficients": {str(k[0]): [v.real, v.imag] for k, v in sorted(series.coeffs.items())},
        "value": {"re": series.value([q]).real, "im": series.value([q]).imag},
    }
    return payload, rows, "block_coeffs.csv", "degree,re,im"


def cmd_torus1pt(cfg) -> tuple[dict, list, str, str]:
    params = _cparams(cfg)
    a = _one_alpha(cfg)
    quad = _quad(cfg)
    tau = _complex(cfg["tau"])
    res = torus_one_point(a, tau, params, quad, int(cfg["N"]))
    rows = [
        (p, rho, f2, rho * f2)
        for p, rho, f2 in zip(
            quad.nodes.tolist(), res.details["rho"].tolist(), res.details["block_abs2"].tolist()
        )
    ]
    payload = {"alpha1": a, "tau": [tau.real, tau.imag], **_correlator_payload(res)}
    return payload, rows, "torus1pt_density.csv", "p,rho,block_abs2,integrand"


def cmd_toruskpt(cfg) -> dict:
    params = _cparams(cfg)
    a = cfg["alpha"]
    xs = [_complex(x) for x in cfg["x"]]
    res = torus_k_point(a, xs, _complex(cfg["tau"]), params, _quad(cfg), int(cfg["N"]))
    return {"alpha": list(a), **_correlator_payload(res)}


def cmd_spherekpt(cfg) -> dict:
    params = _cparams(cfg)
    a = cfg["alpha"]
    zs = cfg["z"]
    # the schema cannot say "a pair, or null last" (the point at infinity)
    for i, z in enumerate(zs[:-1] if zs[-1] is None else zs):
        _check_schema(_PAIR, z, ("z", i))
    zs = [None if z is None else _complex(z) for z in zs]
    res = sphere_k_point(a, zs, params, _quad(cfg), int(cfg["N"]))
    return {"alpha": list(a), **_correlator_payload(res)}


def cmd_graph(cfg) -> dict:
    params = _cparams(cfg)
    if not cfg.get("graph"):
        raise errors.ValidationError("graph command needs a 'graph' object in the config")
    graph = AdmissibleGraph.from_json(cfg["graph"])
    res = graph_correlator(graph, params, quad=_quad(cfg), N=int(cfg["N"]))
    return {**_correlator_payload(res), "genus": res.details["genus"]}


def cmd_mc_torus1pt(cfg) -> tuple[dict, list, str, str]:
    params = _cparams(cfg)
    a = _one_alpha(cfg)
    tau = _complex(cfg["tau"])
    geom = TorusGeometry(tau=tau, n_grid=int(cfg["grid"]))
    mc = McConfig(
        n_samples=int(cfg["samples"]), n_batches=int(cfg["batches"]), seed=int(cfg["seed"])
    )
    est = mc_torus_one_point(a, geom, params, mc)
    boot = torus_one_point(a, tau, params, _quad(cfg), int(cfg["N"]))
    rows = [(i, m) for i, m in enumerate(est.batch_means)]
    payload = {
        "alpha1": a,
        "mean": est.mean,
        "stderr": est.stderr,
        "n_samples": est.n_samples,
        "error_blown": est.error_blown,
        "bootstrap_value": boot.value,
        "mc_over_bootstrap": est.mean / boot.value if boot.value else None,
        "mc_config": est.config,
    }
    return payload, rows, "mc_batches.csv", "batch,mean"


_LIOUVILLE = {"gamma": math.sqrt(2.0), "mu": 1.0}
_SPECTRAL = {"p_max": 6.0, "panel_width": 0.5, "nodes_per_panel": 8, "N": 4}
_TAU = {"tau": [0.0, 1.0]}

#: Each subcommand's handler, and the defaults of the config keys that can
#: change its result (None: the key has no default).  These keys are all the
#: command takes, flags and config file alike, and all its record holds.
COMMANDS = {
    "upsilon": (cmd_upsilon, {"gamma": _LIOUVILLE["gamma"], "p": None, "zarg": None}),
    "dozz": (cmd_dozz, {**_LIOUVILLE, "alpha": [0.3, 0.5, 0.9]}),
    "shapovalov": (cmd_shapovalov, {"delta": [0.5, 0.0], "c": 26.0, "level": 2}),
    "block": (cmd_block, {"gamma": _LIOUVILLE["gamma"], "alpha": [1.2], "p": 0.7, "q": [0.3, 0.0],
                          "N": _SPECTRAL["N"]}),
    "torus1pt": (cmd_torus1pt, {**_LIOUVILLE, "alpha": [1.2], **_TAU, **_SPECTRAL}),
    "toruskpt": (cmd_toruskpt, {**_LIOUVILLE, "alpha": [0.8, 1.2], **_TAU, "x": [[0, 0], [0.5, 2.0]],
                                **_SPECTRAL}),
    "spherekpt": (cmd_spherekpt, {**_LIOUVILLE, "alpha": [1.5, 1.4, 1.3, 1.2],
                                  "z": [[0, 0], [0.5, 0.0], [2.0, 0.0], None], **_SPECTRAL}),
    "graph": (cmd_graph, {**_LIOUVILLE, "graph": None, **_SPECTRAL}),
    "mc-torus1pt": (cmd_mc_torus1pt, {**_LIOUVILLE, "alpha": [1.2], **_TAU, "grid": 64, "samples": 20000,
                                      "batches": 20, "seed": 1, **_SPECTRAL}),
}

#: The keys that have a flag, and its argparse settings.
_FLAGS = {
    **dict.fromkeys(("gamma", "mu", "p_max", "panel_width", "p"), {"type": float}),
    **dict.fromkeys(("nodes_per_panel", "N", "samples", "batches", "grid", "level", "seed"), {"type": int}),
    "alpha": {"type": float, "nargs": "*"},
    "tau": {"type": float, "nargs": 2},
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: a parse reads it and
    returns a new namespace, which holds only the flags given to it."""
    # SUPPRESS: a subcommand's parser must not reset a flag given before it,
    # nor put an unset one in the config
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", help="output directory for JSON/CSV artifacts")

    parser = argparse.ArgumentParser(
        prog="lcft",
        description="Liouville CFT correlators: conformal bootstrap plus GMC Monte Carlo.",
        parents=[common],
    )
    # read by mc-torus1pt, and refused by every other command
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="RNG seed (mc-torus1pt)")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, defaults) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], argument_default=argparse.SUPPRESS)
        for key in defaults:
            if key in _FLAGS:
                help_text = None if defaults[key] is None else f"default {defaults[key]}"
                p.add_argument(f"--{key.replace('_', '-')}", dest=key, help=help_text, **_FLAGS[key])

    st = sub.add_parser("selftest", help="run the acceptance battery")
    st.add_argument("--only", nargs="*", help="criterion ids to run (default: all)")
    st.add_argument("--mc-samples", type=int, default=200_000, dest="mc_samples")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "selftest":
        from .acceptance import CRITERIA, MC_BATCHES, run_battery

        given = [f"--{key}" for key in ("config", "out", "seed") if hasattr(args, key)]
        unknown = [cid for cid in args.only or () if cid not in CRITERIA]
        problem = None
        if given:
            problem = f"selftest takes no {', '.join(given)}"
        elif unknown:
            problem = (f"selftest --only: unknown criterion id {', '.join(unknown)} "
                       f"(ids: {', '.join(CRITERIA)})")
        elif args.mc_samples < MC_BATCHES:
            problem = (f"selftest --mc-samples must be at least {MC_BATCHES}, criterion 9's "
                       f"batch count, got {args.mc_samples}")
        if problem:
            print(f"validation error: {problem}", file=sys.stderr)
            return 2
        results = run_battery(only=set(args.only) if args.only else None,
                              mc_samples=args.mc_samples)
        return 0 if all(r.passed for r in results) else 1

    try:
        handler, defaults = COMMANDS[args.command]
        cfg = _load_config(args, defaults)
        cfg["command"] = args.command
        out = handler(cfg)
        if isinstance(out, tuple):
            payload, rows, csv_name, csv_header = out
            _emit(args, cfg, payload, rows, csv_name, csv_header)
        else:
            _emit(args, cfg, out)
        return 0
    except (errors.ValidationError, errors.DimensionMismatch, errors.GraphInvalid) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (
        errors.NearPole,
        errors.DegenerateWeight,
        errors.BudgetExceeded,
        errors.CostGuard,
        errors.DomainError,
        errors.PoleError,
        errors.SingularPoint,
    ) as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
