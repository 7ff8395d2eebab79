"""Regenerate perfbench/references.json, the frozen values the benchmark
checks its outputs against.

    python3 perfbench/make_references.py

The bootstrap references are the workload calls' own values; they pin the
normalization of the commit they were made at, so regenerate them only in a
change that means to alter those numbers.  The MC reference is one long run
(MC_SAMPLES samples, same grid and weights as the workload) under a seed no
benchmark call uses: calls use run seed x 1000 + call index, and a run makes
far fewer than 983 calls.  Takes about five minutes on one core.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import lcft.cli  # noqa: E402

from harness import REFERENCES, WORKLOADS  # noqa: E402

MC_SAMPLES = 262_144
MC_BATCHES = 512
MC_SEED = 999_983


def result_of(argv: list[str]) -> dict:
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as out:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = lcft.cli.main(argv + ["--out", out])
        if rc != 0:
            raise SystemExit(f"lcft {' '.join(argv)} exited with {rc}")
        return json.loads((Path(out) / f"{argv[0]}.json").read_text())["result"]


def main() -> None:
    refs = {}
    for w in WORKLOADS.values():
        base = [w.command, "--config", str(w.config_path)]
        if w.command == "mc-torus1pt":
            res = result_of(base + ["--samples", str(MC_SAMPLES), "--batches", str(MC_BATCHES),
                                    "--seed", str(MC_SEED)])
            refs[w.name] = {"mean": res["mean"], "stderr": res["stderr"],
                            "n_samples": res["n_samples"], "seed": MC_SEED}
        else:
            refs[w.name] = {"value": result_of(base)["value"]}
        print(w.name, refs[w.name], flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=2) + "\n")


if __name__ == "__main__":
    main()
