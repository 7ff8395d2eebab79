"""Command-line front end.

Subcommands: upsilon, dozz, shapovalov, block, torus1pt, toruskpt, spherekpt,
graph, mc-torus1pt, selftest.  Configuration comes from flags or a JSON file
(--config), is schema-validated, and every JSON result embeds the resolved
configuration plus its SHA-256 hash so outputs are self-describing.

Exit codes: 0 success, 2 validation/config error, 3 numerical guard tripped.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
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

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "gamma": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 2},
        "mu": {"type": "number", "exclusiveMinimum": 0},
        "alpha": {"type": "array", "items": {"type": "number"}},
        "tau": {"type": "array", "minItems": 2, "maxItems": 2, "items": {"type": "number"}},
        "z": {"type": "array"},
        "x": {"type": "array"},
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
        "delta": {"type": "array", "minItems": 2, "maxItems": 2, "items": {"type": "number"}},
        "c": {"type": "number"},
        "p": {"type": "number"},
        "q": {"type": "array", "minItems": 2, "maxItems": 2, "items": {"type": "number"}},
        "zarg": {"type": "array", "minItems": 2, "maxItems": 2, "items": {"type": "number"}},
    },
    "additionalProperties": False,
}

DEFAULTS = {
    "gamma": math.sqrt(2.0),
    "mu": 1.0,
    "p_max": 6.0,
    "panel_width": 0.5,
    "nodes_per_panel": 8,
    "N": 4,
    "seed": 1,
    "samples": 20000,
    "batches": 20,
    "grid": 64,
    "level": 2,
    "c": 26.0,
    "p": 0.7,
}


def _load_config(args) -> dict:
    """DEFAULTS, then the --config file, then every parsed flag named in
    CONFIG_SCHEMA (an unset flag, None or an empty --alpha, changes nothing);
    the merged config is then checked for NaN and infinite numbers (flags and
    json read both, and NaN passes the schema's bounds) and against
    CONFIG_SCHEMA once."""
    import jsonschema

    cfg = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path) as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as exc:
                raise errors.ValidationError(f"config file {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise errors.ValidationError("config file must hold a JSON object")
        cfg.update(user)
    for key, val in vars(args).items():
        if key in CONFIG_SCHEMA["properties"] and val not in (None, []):
            cfg[key] = val
    for key, val in cfg.items():
        try:
            json.dumps(val, allow_nan=False)
        except ValueError:
            raise errors.ValidationError(f"config field {key}: holds a number that is not finite") from None
    # the schema is a constant, so the validator skips the metaschema check
    # that jsonschema.validate repeats on every call
    try:
        jsonschema.Draft202012Validator(CONFIG_SCHEMA).validate(cfg)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise errors.ValidationError(f"config field {path}: {exc.message}") from exc
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
    """The weight of a one-insertion command; unset or empty means 1.2."""
    a = cfg.get("alpha") or [1.2]
    if len(a) != 1:
        raise errors.ValidationError(f"{cfg['command']} needs one weight in 'alpha', got {len(a)}")
    return a[0]


def _tau(cfg) -> complex:
    t = cfg.get("tau") or [0.0, 1.0]
    return complex(t[0], t[1])


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
        **{key: res.details[key] for key in _ENGINE_COUNTERS},
    }


def cmd_upsilon(args, cfg) -> dict:
    ev = UpsilonEvaluator(float(cfg["gamma"]))
    z = complex(cfg["zarg"][0], cfg["zarg"][1]) if cfg.get("zarg") else complex(cfg["p"])
    val = upsilon(z, ev)
    return {"z": [z.real, z.imag], "value": {"re": val.real, "im": val.imag}}


def cmd_dozz(args, cfg) -> dict:
    a = cfg.get("alpha") or [0.3, 0.5, 0.9]
    if len(a) != 3:
        raise errors.ValidationError("dozz needs exactly three weights in 'alpha'")
    val = dozz_constant(a[0], a[1], a[2], _cparams(cfg))
    return {"alpha": list(a), "value": {"re": val.real, "im": val.imag}}


def cmd_shapovalov(args, cfg) -> dict:
    d = complex(cfg["delta"][0], cfg["delta"][1]) if cfg.get("delta") else 0.5 + 0.0j
    F = shapovalov(d, float(cfg["c"]), int(cfg["level"]))
    inv = shapovalov_inverse(F)
    return {
        "level": F.level,
        "basis": [list(nu.parts) for nu in F.basis],
        "entries_re": F.entries.real.tolist(),
        "entries_im": F.entries.imag.tolist(),
        "inverse_residual": inv.residual,
        "method": inv.method,
    }


def cmd_block(args, cfg) -> tuple[dict, list, str, str]:
    params = _cparams(cfg)
    a = _one_alpha(cfg)
    q = complex(cfg["q"][0], cfg["q"][1]) if cfg.get("q") else 0.3 + 0.0j
    series = torus_one_point_block(a, float(cfg["p"]), q, params, int(cfg["N"]))
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


def cmd_torus1pt(args, cfg) -> tuple[dict, list, str, str]:
    params = _cparams(cfg)
    a = _one_alpha(cfg)
    quad = _quad(cfg)
    res = torus_one_point(a, _tau(cfg), params, quad, int(cfg["N"]))
    rows = [
        (p, rho, f2, rho * f2)
        for p, rho, f2 in zip(
            quad.nodes.tolist(), res.details["rho"].tolist(), res.details["block_abs2"].tolist()
        )
    ]
    payload = {"alpha1": a, "tau": [_tau(cfg).real, _tau(cfg).imag], **_correlator_payload(res)}
    return payload, rows, "torus1pt_density.csv", "p,rho,block_abs2,integrand"


def cmd_toruskpt(args, cfg) -> dict:
    params = _cparams(cfg)
    a = cfg.get("alpha") or [0.8, 1.2]
    xs = [complex(x[0], x[1]) for x in (cfg.get("x") or [[0, 0], [0.5, 2.0]])]
    res = torus_k_point(a, xs, _tau(cfg), params, _quad(cfg), int(cfg["N"]))
    return {"alpha": list(a), **_correlator_payload(res)}


def cmd_spherekpt(args, cfg) -> dict:
    params = _cparams(cfg)
    a = cfg.get("alpha") or [1.5, 1.4, 1.3, 1.2]
    zs = []
    for z in cfg.get("z") or [[0, 0], [0.5, 0.0], [2.0, 0.0], None]:
        zs.append(None if z is None else complex(z[0], z[1]))
    res = sphere_k_point(a, zs, params, _quad(cfg), int(cfg["N"]))
    return {"alpha": list(a), **_correlator_payload(res)}


def cmd_graph(args, cfg) -> dict:
    params = _cparams(cfg)
    if not cfg.get("graph"):
        raise errors.ValidationError("graph command needs a 'graph' object in the config")
    graph = AdmissibleGraph.from_json(cfg["graph"])
    res = graph_correlator(graph, params, quad=_quad(cfg), N=int(cfg["N"]))
    return {**_correlator_payload(res), "genus": res.details["genus"]}


def cmd_mc_torus1pt(args, cfg) -> tuple[dict, list, str, str]:
    params = _cparams(cfg)
    a = _one_alpha(cfg)
    geom = TorusGeometry(tau=_tau(cfg), n_grid=int(cfg["grid"]))
    mc = McConfig(
        n_samples=int(cfg["samples"]), n_batches=int(cfg["batches"]), seed=int(cfg["seed"])
    )
    est = mc_torus_one_point(a, geom, params, mc)
    boot = torus_one_point(a, _tau(cfg), params, _quad(cfg), int(cfg["N"]))
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


def main(argv=None) -> int:
    # SUPPRESS: a subcommand's parser must not reset a flag given before it
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", help="output directory for JSON/CSV artifacts")
    common.add_argument("--seed", type=int, help="RNG seed override")

    parser = argparse.ArgumentParser(
        prog="lcft",
        description="Liouville CFT correlators: conformal bootstrap plus GMC Monte Carlo.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in (
        "upsilon", "dozz", "shapovalov", "block", "torus1pt",
        "toruskpt", "spherekpt", "graph", "mc-torus1pt",
    ):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--gamma", type=float)
        p.add_argument("--mu", type=float)
        p.add_argument("--alpha", type=float, nargs="*")
        p.add_argument("--N", type=int, dest="N")
        p.add_argument("--p-max", type=float, dest="p_max")
        p.add_argument("--nodes-per-panel", type=int, dest="nodes_per_panel")
        p.add_argument("--panel-width", type=float, dest="panel_width")
        p.add_argument("--samples", type=int)
        p.add_argument("--batches", type=int)
        p.add_argument("--grid", type=int)
        p.add_argument("--level", type=int)
        p.add_argument("--p", type=float)
        p.add_argument("--tau", type=float, nargs=2)

    st = sub.add_parser("selftest", help="run the acceptance battery")
    st.add_argument("--only", nargs="*", help="criterion ids to run (default: all)")
    st.add_argument("--mc-samples", type=int, default=200_000, dest="mc_samples")

    args = parser.parse_args(argv)

    if args.command == "selftest":
        given = [f"--{key}" for key in ("config", "out", "seed") if hasattr(args, key)]
        if given:
            print(f"validation error: selftest takes no {', '.join(given)}", file=sys.stderr)
            return 2
        from .acceptance import run_battery

        results = run_battery(only=set(args.only) if args.only else None,
                              mc_samples=args.mc_samples)
        return 0 if all(r.passed for r in results) else 1

    try:
        cfg = _load_config(args)
        cfg["command"] = args.command
        handlers = {
            "upsilon": cmd_upsilon,
            "dozz": cmd_dozz,
            "shapovalov": cmd_shapovalov,
            "block": cmd_block,
            "torus1pt": cmd_torus1pt,
            "toruskpt": cmd_toruskpt,
            "spherekpt": cmd_spherekpt,
            "graph": cmd_graph,
            "mc-torus1pt": cmd_mc_torus1pt,
        }
        out = handlers[args.command](args, cfg)
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
        errors.ConsistencyError,
        errors.DomainError,
        errors.PoleError,
        errors.SingularPoint,
    ) as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
