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

``_plan`` is the one reader of the slots: the weight bounds, the DOZZ factors,
the block and the spectral integral read its vertex records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GraphInvalid
from .params import CftParams

__all__ = ["EdgeSpec", "MarkedPoint", "AdmissibleGraph"]


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
            self.vertex_ids = _sorted_ids(ids)

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
        unlisted = _sorted_ids({v for v, _k in used} - set(self.vertex_ids))
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

    def q_vector(self) -> list[complex]:
        return [e.q for e in self.edges]

    # -- JSON ------------------------------------------------------------------

    @classmethod
    def from_json(cls, obj: dict) -> "AdmissibleGraph":
        """The graph of one JSON object in the module's format; a record or
        field that is missing or malformed raises GraphInvalid naming it."""
        pair = (_pair, "a [vertex, slot] pair")
        edges = zip(
            _column(obj, "edges", "from", *pair),
            _column(obj, "edges", "to", *pair),
            _column(obj, "edges", "q", lambda v: complex(*_pair(v)), "a [re, im] pair", 0.1 + 0j),
        )
        marked = zip(
            _column(obj, "marked", "vertex", _key, "a vertex id"),
            _column(obj, "marked", "slot", _key, "a slot"),
            _column(obj, "marked", "alpha", float, "a number"),
        )
        ids = _column(obj, "vertices", "id", _key, "a vertex id")
        return cls([EdgeSpec(*e) for e in edges], [MarkedPoint(*m) for m in marked], ids)


def _column(obj: dict, section: str, key: str, read, what: str, default=None) -> list:
    """read(record[key]) for each record in the list obj[section] (default if
    given and the key is absent); GraphInvalid names a field missing or not ``what``."""
    records = obj.get(section, [])
    if not isinstance(records, list):
        raise GraphInvalid(f"graph field {section}: {records!r} is not a list")
    out = []
    for i, record in enumerate(records):
        where = f"graph field {section}/{i}"
        if not isinstance(record, dict):
            raise GraphInvalid(f"{where}: {record!r} is not an object")
        if key not in record and default is None:
            raise GraphInvalid(f"{where}/{key}: missing")
        try:
            out.append(read(record[key]) if key in record else default)
        except (TypeError, ValueError):
            raise GraphInvalid(f"{where}/{key}: {record[key]!r} is not {what}") from None
    return out


def _sorted_ids(ids) -> list:
    """The vertex ids in order; GraphInvalid if their types do not compare."""
    try:
        return sorted(ids)
    except TypeError:
        names = ", ".join(sorted(map(repr, ids)))
        raise GraphInvalid(f"vertex ids {names} mix types that do not order") from None


def _key(value):
    """value, if it can name a vertex or slot (TypeError otherwise)."""
    hash(value)
    return value


def _pair(value) -> tuple:
    """The two entries, each a vertex or slot key, of a two-entry list."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(value)
    return _key(value[0]), _key(value[1])


@dataclass(frozen=True)
class _Vertex:
    """One vertex of a pants-graph plan: its slots in order, (edge index,
    orientation sign: -1 outgoing, +1 incoming) for an edge slot and (None,
    alpha) for a marked slot."""

    slots: tuple

    @property
    def edges(self) -> tuple:
        """The edge index of each edge slot."""
        return tuple(e for e, _sign in self.slots if e is not None)

    @property
    def alphas(self) -> tuple:
        """The weight of each marked slot."""
        return tuple(x for e, x in self.slots if e is None)

    @property
    def own(self) -> tuple:
        """The edge indices of the edge slots, each once, in slot order."""
        return tuple(dict.fromkeys(self.edges))


def _plan(graph: AdmissibleGraph) -> tuple:
    """The graph's vertices, in ``graph.vertex_ids`` order: its structure is
    checked, then each edge end and marked point is placed in its slot."""
    graph.check_structure()
    slots: dict[int, list] = {v: [] for v in graph.vertex_ids}
    for i, e in enumerate(graph.edges):
        slots[e.v_from[0]].append((e.v_from[1], i, -1))
        slots[e.v_to[0]].append((e.v_to[1], i, 1))
    for m in graph.marked:
        slots[m.vertex].append((m.slot, None, m.alpha))
    return tuple(_Vertex(tuple(s[1:] for s in sorted(v, key=lambda s: s[0]))) for v in slots.values())


@dataclass
class Violation:
    vertex: int
    kind: str
    margin: float

    def __str__(self) -> str:
        return f"vertex {self.vertex}: {self.kind} margin {self.margin:+.6g}"


def _violations(graph: AdmissibleGraph, plan: tuple, params: CftParams) -> list[Violation]:
    """Seiberg/spectral admissibility of the marked weights on the graph's
    plan: per-vertex sum(alpha) - (2 - b) Q > 0 and every alpha < Q; for
    closed-surface global data also sum(alpha) + 2Q(g-1) > 0.  Returns a
    (possibly empty) list of violations; each bound is written so that a NaN
    fails it."""
    out: list[Violation] = []
    Q = params.Q
    for vid, vertex in zip(graph.vertex_ids, plan):
        margin = sum(vertex.alphas) - (2 - len(vertex.edges)) * Q
        if not margin > 0:
            out.append(Violation(vertex=vid, kind="spectral (sum alpha - (2-b)Q > 0)", margin=margin))
    for m in graph.marked:
        if not m.alpha < Q:
            out.append(Violation(vertex=m.vertex, kind="Seiberg (alpha < Q)", margin=Q - m.alpha))
    total = sum(m.alpha for m in graph.marked) + 2.0 * Q * (graph.genus() - 1)
    if not total > 0:
        out.append(Violation(vertex=-1, kind="global Seiberg (sum alpha + 2Q(g-1) > 0)", margin=total))
    return out
