"""Spans around the calls lcft's modules make into one another.

The tracer replaces public functions in the namespaces that call them with
wrappers that record a span (name, layer, parent, start, end) and, for two
functions, the distinct argument keys.  Spans stay in memory until the
benchmark writes them out.  A name that the program no longer has is listed
as absent and contributes zero, so the benchmark survives refactors that
delete or bypass a wrapped function.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

from harness import DistinctCounter, Span

# (layer, name as the namespaces reference it, namespaces whose reference is wrapped)
WRAPS = (
    ("cli", "main", ("lcft.cli",)),
    ("bootstrap", "torus_one_point", ("lcft.cli", "lcft.bootstrap")),
    ("bootstrap", "sphere_k_point", ("lcft.cli", "lcft.bootstrap")),
    ("bootstrap", "graph_correlator", ("lcft.cli", "lcft.bootstrap")),
    ("gmc", "mc_torus_one_point", ("lcft.cli", "lcft.gmc")),
    ("blocks", "torus_one_point_block", ("lcft.cli", "lcft.bootstrap", "lcft.blocks")),
    ("blocks", "chain_block", ("lcft.bootstrap", "lcft.blocks")),
    ("blocks", "graph_block", ("lcft.bootstrap", "lcft.blocks")),
    ("dozz", "rho_density", ("lcft.cli", "lcft.bootstrap", "lcft.dozz")),
    ("virasoro", "shapovalov", ("lcft.blocks",)),
    ("virasoro", "shapovalov_inverse", ("lcft.blocks",)),
    ("special", "UpsilonEvaluator.log_upsilon", ("lcft.special",)),
    ("gmc", "sample_gff", ("lcft.gmc",)),
    ("gmc", "fit_w_constant", ("lcft.gmc",)),
    ("gmc", "torus_det_prefactor", ("lcft.gmc",)),
)

#: Functions whose distinct argument keys are counted (Gram (h, c, level) and
#: Upsilon argument z); a method's key leaves out ``self``.
DISTINCT = {"shapovalov": False, "log_upsilon": True}


def _items(result) -> int:
    """Units of work in a wrapped call's result: a correlator's integrand
    evaluations or the number of GFF samples drawn."""
    n = getattr(result, "n_evaluations", None)
    if n is not None:
        return int(n)
    shape = getattr(result, "shape", None)
    return int(shape[0]) if shape else 0


def _resolve(module_name: str, dotted: str):
    """(owner, attribute) holding ``dotted`` in the module, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    def __init__(self, wraps=WRAPS) -> None:
        self.wraps = wraps
        self.records: list[list] = []
        self.stack: list[int] = []
        self.distinct = {name: DistinctCounter() for name in DISTINCT}
        self.absent: list[str] = []
        self._patched: list[tuple] = []

    def _wrapper(self, fn, name: str, layer: str):
        records, stack = self.records, self.stack
        counter = self.distinct.get(name)
        skip_self = DISTINCT.get(name, False)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counter.add((args[1:] if skip_self else args, tuple(sorted(kwargs.items()))))
            rec = [len(records), stack[-1] if stack else None, name, layer, 0.0, 0.0, 0]
            records.append(rec)
            stack.append(rec[0])
            rec[4] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                stack.pop()
            rec[6] = _items(out)
            return out

        return wrapper

    def install(self) -> None:
        for layer, dotted, modules in self.wraps:
            sites = [s for s in (_resolve(m, dotted) for m in modules) if s is not None]
            if not sites:
                self.absent.append(dotted)
                continue
            original = getattr(*sites[0])
            wrapper = self._wrapper(original, dotted.rsplit(".", 1)[-1], layer)
            for owner, attr in sites:
                if getattr(owner, attr) is original:
                    setattr(owner, attr, wrapper)
                    self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def spans(self) -> list[Span]:
        return [Span(*rec) for rec in self.records]
