"""Admissible multigraphs encoding pants decompositions.

A vertex has three slots; each slot is used exactly once, either by a linking
edge (an identified boundary circle, possibly a self-loop) or by a phantom
edge attaching a marked point.  With N vertices and L linking edges the genus
is g = L - N + 1, so N = 2g - 2 + m and L = 3g - 3 + m with m marked points.

JSON format (one object):

    {"vertices": [{"id": 1, "slots": 3}, ...],
     "edges":    [{"from": [j, k], "to": [j2, k2], "q": [re, im]}, ...],
     "marked":   [{"vertex": j, "slot": k, "alpha": a}, ...]}

Slots are numbered 1..3.  Edge orientation runs from "from" (outgoing, sign
-1) to "to" (incoming, sign +1); the sign fixes which of Q -/+ ip feeds each
DOZZ factor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import GraphInvalid
from .params import CftParams

__all__ = ["EdgeSpec", "MarkedPoint", "AdmissibleGraph", "validate_graph", "Violation"]


@dataclass(frozen=True)
class EdgeSpec:
    v_from: tuple[int, int]  # (vertex id, slot)
    v_to: tuple[int, int]
    q: complex = 0.1 + 0.0j


@dataclass(frozen=True)
class MarkedPoint:
    vertex: int
    slot: int
    alpha: float


@dataclass
class AdmissibleGraph:
    edges: list[EdgeSpec]
    marked: list[MarkedPoint] = field(default_factory=list)
    vertex_ids: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.vertex_ids:
            ids = set()
            for e in self.edges:
                ids.add(e.v_from[0])
                ids.add(e.v_to[0])
            for m in self.marked:
                ids.add(m.vertex)
            self.vertex_ids = sorted(ids)

    # -- structure -----------------------------------------------------------

    def check_structure(self) -> None:
        used: set[tuple[int, int]] = set()
        ends = [end for e in self.edges for end in (e.v_from, e.v_to)]
        for end in ends + [(m.vertex, m.slot) for m in self.marked]:
            if end in used:
                raise GraphInvalid(f"slot {end} used more than once")
            if end[1] not in (1, 2, 3):
                raise GraphInvalid(f"slot index must be 1..3, got {end}")
            used.add(end)
        unlisted = sorted({v for v, _k in used} - set(self.vertex_ids))
        if unlisted:
            raise GraphInvalid(f"vertices {unlisted} hold an edge end or marked point but are not listed")
        for vid in self.vertex_ids:
            n_used = sum(1 for (v, _k) in used if v == vid)
            if n_used != 3:
                raise GraphInvalid(f"vertex {vid} uses {n_used} slots, need exactly 3")
        if self.genus() < 0:
            raise GraphInvalid(f"negative genus L - N + 1 = {self.genus()}")
        if not self._connected():
            raise GraphInvalid("graph is not connected")

    def _connected(self) -> bool:
        if not self.vertex_ids:
            return False
        adj: dict[int, set[int]] = {v: set() for v in self.vertex_ids}
        for e in self.edges:
            adj[e.v_from[0]].add(e.v_to[0])
            adj[e.v_to[0]].add(e.v_from[0])
        seen = {self.vertex_ids[0]}
        stack = [self.vertex_ids[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertex_ids)

    def genus(self) -> int:
        return len(self.edges) - len(self.vertex_ids) + 1

    def slot_map(self) -> dict[int, list[tuple[int, str, int]]]:
        """vertex id -> ordered [(slot, 'edge'|'mark', index into edges or marked)]."""
        out: dict[int, list[tuple[int, str, int]]] = {v: [] for v in self.vertex_ids}
        for i, e in enumerate(self.edges):
            out[e.v_from[0]].append((e.v_from[1], "edge", i))
            out[e.v_to[0]].append((e.v_to[1], "edge", i))
        for i, m in enumerate(self.marked):
            out[m.vertex].append((m.slot, "mark", i))
        for v in out:
            out[v].sort()
        return out

    def q_vector(self) -> list[complex]:
        return [e.q for e in self.edges]

    # -- JSON ------------------------------------------------------------------

    @classmethod
    def from_json(cls, obj) -> "AdmissibleGraph":
        if isinstance(obj, str):
            obj = json.loads(obj)
        edges = [
            EdgeSpec(
                v_from=tuple(e["from"]),
                v_to=tuple(e["to"]),
                q=complex(e["q"][0], e["q"][1]) if "q" in e else 0.1 + 0j,
            )
            for e in obj.get("edges", [])
        ]
        marked = [
            MarkedPoint(vertex=m["vertex"], slot=m["slot"], alpha=float(m["alpha"]))
            for m in obj.get("marked", [])
        ]
        ids = [v["id"] for v in obj.get("vertices", [])]
        return cls(edges=edges, marked=marked, vertex_ids=ids)

    def to_json(self) -> dict:
        return {
            "vertices": [{"id": v, "slots": 3} for v in self.vertex_ids],
            "edges": [
                {"from": list(e.v_from), "to": list(e.v_to), "q": [e.q.real, e.q.imag]}
                for e in self.edges
            ],
            "marked": [
                {"vertex": m.vertex, "slot": m.slot, "alpha": m.alpha} for m in self.marked
            ],
        }


@dataclass
class Violation:
    vertex: int
    kind: str
    margin: float

    def __str__(self) -> str:
        return f"vertex {self.vertex}: {self.kind} margin {self.margin:+.6g}"


def validate_graph(graph: AdmissibleGraph, params: CftParams) -> list[Violation]:
    """Seiberg/spectral admissibility of the marked weights: per-vertex
    sum(alpha) - (2 - b) Q > 0 and every alpha < Q; for closed-surface global
    data also sum(alpha) + 2Q(g-1) > 0.  Returns a (possibly empty) list of
    violations; structural problems raise."""
    graph.check_structure()
    out: list[Violation] = []
    Q = params.Q
    for vid, slots in graph.slot_map().items():
        b = sum(1 for (_k, kind, _i) in slots if kind == "edge")
        a_sum = sum(graph.marked[i].alpha for (_k, kind, i) in slots if kind == "mark")
        margin = a_sum - (2 - b) * Q
        if margin <= 0:
            out.append(Violation(vertex=vid, kind="spectral (sum alpha - (2-b)Q > 0)", margin=margin))
    for m in graph.marked:
        if m.alpha >= Q:
            out.append(Violation(vertex=m.vertex, kind="Seiberg (alpha < Q)", margin=Q - m.alpha))
    total = sum(m.alpha for m in graph.marked) + 2.0 * Q * (graph.genus() - 1)
    if total <= 0:
        out.append(Violation(vertex=-1, kind="global Seiberg (sum alpha + 2Q(g-1) > 0)", margin=total))
    return out
