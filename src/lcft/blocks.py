"""Conformal-block machinery.

Three ingredients:

* a recursion engine for the normalized three-point correlator of holomorphic
  descendants at three finite insertion points (the "pant frame", fixed
  points zhat = (-1/2, 1/2, i sqrt(3)/2) with all pairwise distances 1);

* radial-frame vertex matrix elements
  ``<h_out, nu_out | V_Delta(1) | h_in, nu_in>`` (normalized so the primary
  element is 1), which furnish the annulus matrices w^A and disk vectors w^D
  of the annulus and disk vertices;

* block-series assembly: the torus one-point block and general pants-graph
  contractions with inverse Gram matrices across each glued edge (cyclic
  torus chains and sphere chains are pants graphs).

Both descendant engines are exact symbolic computations: coefficients are
polynomials (``virasoro.Poly``) in the three conformal weights and the
central charge, built once per word tuple and cached.  Each family an engine
feeds the contraction (the radial elements of a level pair, the pant brackets
of a level triple) is then lowered once to a power matrix and a coefficient
vector, keyed by its levels alone, and ``virasoro._evaluate`` turns it into
numbers at whatever weights, central charge and pant-frame points a call
passes; the Gram matrices take the same path.  Repeated evaluation is
therefore deterministic and bit-identical.

``graph_block`` is a per-graph plan, its level terms and one per-node
contraction.  The plan holds each vertex's slots in order, (edge index,
orientation sign) or (None, alpha), and the einsum subscripts;
``dozz.rho_density`` reads its DOZZ arguments from the same vertex records.
``_level_terms`` lists each multidegree with the levels it puts on every
vertex, ``_vertex_tensors`` builds all of one vertex's tensors at those levels,
and ``_contract`` sums the terms from the vertices' {levels: tensor} dicts.
The spectral integral in ``bootstrap`` calls the same three pieces, listing
the terms once per call, building each Gram-inverse set once per quadrature
node and each vertex's tensors once per distinct tuple of incident-edge nodes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, DomainError, ValidationError
from .params import CftParams
from .virasoro import (
    P_C,
    P_D1,
    P_D2,
    P_D3,
    P_ONE,
    Poly,
    _evaluate,
    _lower,
    _Lowered,
    apply_generator_to_word,
    conformal_weight,
    partitions,
    shapovalov,
    shapovalov_inverse,
)

__all__ = [
    "ZHAT",
    "BlockSeries",
    "torus_one_point_block",
    "graph_block",
]

#: Canonical pant-frame insertion points: unit pairwise distances, P(zhat)=1.
ZHAT = (-0.5 + 0.0j, 0.5 + 0.0j, 0.0 + 1j * math.sqrt(3.0) / 2.0)

_SLOT_WEIGHT = (P_D1, P_D2, P_D3)

# exponents of the holomorphic half H = z12^E12 z13^E13 z23^E23
_E12 = P_D3 - P_D1 - P_D2
_E13 = P_D2 - P_D1 - P_D3
_E23 = P_D1 - P_D2 - P_D3


# ---------------------------------------------------------------------------
# rational multiples of H: dict[(a, b, d)] -> Poly  (z12^a z13^b z23^d * H)
# ---------------------------------------------------------------------------


def _zf_add(x: dict, y: dict) -> dict:
    out = dict(x)
    for k, p in y.items():
        q = out.get(k)
        np_ = p if q is None else q + p
        if np_:
            out[k] = np_
        elif k in out:
            del out[k]
    return out


def _zf_scale(x: dict, s) -> dict:
    if isinstance(s, (int, float, complex)) and not s:
        return {}
    return {k: p * s for k, p in x.items()}


def _zf_shift(x: dict, da: int, db: int, dd: int, s=1) -> dict:
    return {(k[0] + da, k[1] + db, k[2] + dd): (p * s if s != 1 else p) for k, p in x.items()}


# dz_i of the monomial exponents: coefficient of 1/z12, 1/z13, 1/z23
_DLOGH = {
    1: ((_E12, 1, 0, 0), (_E13, 0, 1, 0)),
    2: ((_E12 * -1, 1, 0, 0), (_E23, 0, 0, 1)),
    3: ((_E13 * -1, 0, 1, 0), (_E23 * -1, 0, 0, 1)),
}
_DMON = {
    1: ((1, (1, 0, 0)), (1, (0, 1, 0))),
    2: ((-1, (1, 0, 0)), (1, (0, 0, 1))),
    3: ((-1, (0, 1, 0)), (-1, (0, 0, 1))),
}


def _zf_dz(x: dict, i: int) -> dict:
    """d/dz_i of (sum z-monomials * Poly) * H, returned in the same form."""
    out: dict = {}
    for (a, b, d), p in x.items():
        exps = (a, b, d)
        for sign, unit in _DMON[i]:
            e = exps[unit.index(1)]
            if e:
                k = (a - unit[0], b - unit[1], d - unit[2])
                out = _zf_add(out, {k: p * (sign * e)})
        for epoly, ua, ub, ud in _DLOGH[i]:
            out = _zf_add(out, {(a - ua, b - ub, d - ud): p * epoly})
    return out


def _binom(n: int, k: int) -> int:
    if k == 0:
        return 1
    if n < k:
        return 0
    return math.comb(n, k)


@lru_cache(maxsize=None)
def _bracket(w1: tuple, w2: tuple, w3: tuple) -> tuple:
    """Normalized pant-frame bracket of three descendant slots.

    ``w_i`` are ascending operator words.  Returns the rational multiple of H
    as a tuple of ((a, b, d), Poly) items; the result divided by H is the
    polynomial-coefficient rational function evaluated at the insertion
    points.  Reduction order: slot 3 via operator transport onto slots 1 and
    2, then slot 2 via the differential term on the primary slot 3 plus
    transport onto slot 1, then slot 1 as a pure differential word acting on
    H.  Memoized; weight- and position-independent.
    """
    if w3:
        m, rest3 = w3[0], w3[1:]
        out: dict = {}
        words = (w1, w2)
        for r in (0, 1):  # slots 1 and 2
            lvl_r = sum(words[r])
            zunit = (0, 1, 0) if r == 0 else (0, 0, 1)  # powers of z13 or z23
            for k in range(0, lvl_r + 2):
                cb = _binom(m + k - 2, k)
                if cb == 0:
                    continue
                sgn = -1 if k % 2 == 0 else 1  # (-1)^(k-1)
                gen = apply_generator_to_word(k - 1, words[r], _SLOT_WEIGHT[r], P_C)
                for wr_new, coeff in gen.items():
                    sub = _bracket(wr_new, w2, rest3) if r == 0 else _bracket(w1, wr_new, rest3)
                    term = _zf_scale(dict(sub), coeff * (sgn * cb))
                    e = 1 - m - k
                    out = _zf_add(out, _zf_shift(term, e * zunit[0], e * zunit[1], e * zunit[2]))
        return tuple(out.items())

    if w2:
        m, rest2 = w2[0], w2[1:]
        lower = dict(_bracket(w1, rest2, ()))
        sgn_m = (-1) ** m
        # differential piece on the primary slot 3: (z3-z2) = -z23
        out = _zf_shift(_zf_dz(lower, 3), 0, 0, 1 - m, sgn_m)
        if m > 1:
            out = _zf_add(out, _zf_shift(_zf_scale(lower, P_D3 * ((m - 1) * sgn_m)), 0, 0, -m))
        # operator transport onto slot 1: powers of (z1 - z2) = z12
        lvl1 = sum(w1)
        for k in range(0, lvl1 + 2):
            cb = _binom(m + k - 2, k)
            if cb == 0:
                continue
            sgn = -1 if k % 2 == 0 else 1
            gen = apply_generator_to_word(k - 1, w1, P_D1, P_C)
            for w1_new, coeff in gen.items():
                sub = dict(_bracket(w1_new, rest2, ()))
                term = _zf_scale(sub, coeff * (sgn * cb))
                out = _zf_add(out, _zf_shift(term, 1 - m - k, 0, 0))
        return tuple(out.items())

    if w1:
        m, rest1 = w1[0], w1[1:]
        lower = dict(_bracket(rest1, (), ()))
        sgn_m = (-1) ** m
        # D_m on slots {2,3}: (z2-z1) = -z12, (z3-z1) = -z13
        out = _zf_shift(_zf_dz(lower, 2), 1 - m, 0, 0, sgn_m)
        out = _zf_add(out, _zf_shift(_zf_dz(lower, 3), 0, 1 - m, 0, sgn_m))
        if m > 1:
            out = _zf_add(out, _zf_shift(_zf_scale(lower, P_D2 * ((m - 1) * sgn_m)), -m, 0, 0))
            out = _zf_add(out, _zf_shift(_zf_scale(lower, P_D3 * ((m - 1) * sgn_m)), 0, -m, 0))
        return tuple(out.items())

    return (((0, 0, 0), P_ONE),)


# ---------------------------------------------------------------------------
# radial-frame matrix elements  <h_out, a| V_Delta(1) |h_in, b>
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _radial_element(a: tuple, b: tuple) -> Poly:
    """Normalized vertex matrix element as a Poly in (h_out, Delta, h_in, c).

    Raising operators peel off the out-state through the commutator
    [L_m, V(z)] = z^m (z d/dz + (m+1) Delta) V(z) at z = 1, using that the
    matrix element between L0-eigenstates of weights (h_out + |a|, h_in + |b|)
    scales as z^(h_out + |a| - h_in - |b| - Delta).
    """
    if a:
        m, rest = a[0], a[1:]
        grading = P_D1 + (sum(rest)) - P_D3 - sum(b) - P_D2
        out = _radial_element(rest, b) * (grading + (m + 1) * P_D2)
        for w2, coeff in apply_generator_to_word(m, b, P_D3, P_C).items():
            out = out + _radial_element(rest, w2) * coeff
        return out
    if b:
        m, rest = b[0], b[1:]
        grading = P_D1 - P_D3 - (sum(b) - m) - P_D2
        return _radial_element((), rest) * (grading + (1 - m) * P_D2) * -1
    return P_ONE


# ---------------------------------------------------------------------------
# coefficient tensors
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _radial_family(n_out: int, n_in: int) -> _Lowered:
    """Radial elements between the level-n_out and level-n_in partitions,
    lowered as polynomials in (h_out, Delta_mid, h_in, c)."""
    rows = [nu.word() for nu in partitions(n_out)]
    cols = [nu.word() for nu in partitions(n_in)]
    entries = [_radial_element(wa, wb).terms.items() for wa in rows for wb in cols]
    return _lower(entries, (len(rows), len(cols)), 4)


def _bracket_terms(w1: tuple, w2: tuple, w3: tuple) -> list:
    """The bracket's items as terms in (z12, z13, z23, D1, D2, D3, c)."""
    return [(zexp + k, v) for zexp, poly in _bracket(w1, w2, w3) for k, v in poly.terms.items()]


@lru_cache(maxsize=None)
def _pant_family(levels: tuple) -> _Lowered:
    """Pant brackets of every partition triple at the given slot levels,
    lowered as polynomials in (z12, z13, z23, D1, D2, D3, c)."""
    bases = [[nu.word() for nu in partitions(n)] for n in levels]
    entries = [_bracket_terms(w1, w2, w3) for w1 in bases[0] for w2 in bases[1] for w3 in bases[2]]
    return _lower(entries, tuple(len(b) for b in bases), 7)


def _annulus_matrix(n_out: int, n_in: int, h_out, d_mid, h_in, c) -> np.ndarray:
    return _evaluate(_radial_family(n_out, n_in), (h_out, d_mid, h_in, c))


def _disk_vector(n: int, h_bdy, d_mid, d_in, c) -> np.ndarray:
    return _evaluate(_radial_family(n, 0), (h_bdy, d_mid, d_in, c))[:, 0]


def _pant_array(levels, weights, c) -> np.ndarray:
    z1, z2, z3 = ZHAT
    return _evaluate(_pant_family(levels), (z1 - z2, z1 - z3, z2 - z3, *weights, c))


# ---------------------------------------------------------------------------
# block series
# ---------------------------------------------------------------------------


@dataclass
class BlockSeries:
    """Truncated block expansion: prod |q_i|^{exponents_i} * series.

    ``coeffs`` maps multidegrees to holomorphic series coefficients; the
    modulus-dependent prefactor exponents stay symbolic in |q| so callers can
    form |F|^2 without cancellation.
    """

    exponents: tuple
    coeffs: dict
    N: int

    def _series_and_top(self, qs) -> tuple[complex, complex]:
        """The series at the given moduli and its level-N part, summed in
        one left-to-right pass over the coefficients."""
        qs = tuple(complex(q) for q in qs)
        if len(qs) != len(self.exponents):
            raise DimensionMismatch(f"expected {len(self.exponents)} moduli, got {len(qs)}")
        total = top = 0.0 + 0.0j
        for degs, co in self.coeffs.items():
            term = co
            for q, n in zip(qs, degs):
                if n:
                    term *= q**n
            total += term
            if sum(degs) == self.N:
                top += term
        return total, top

    def series_value(self, qs) -> complex:
        return self._series_and_top(qs)[0]

    def prefactor(self, qs) -> float:
        out = 1.0
        for q, e in zip(qs, self.exponents):
            out *= abs(complex(q)) ** e
        return out

    def value(self, qs) -> complex:
        return self.prefactor(qs) * self.series_value(qs)

    def abs2_and_last_level(self, qs) -> tuple[float, float]:
        """|F|^2 at the given moduli and the level-N share |top| / |series|
        of the truncated series (inf where the series vanishes)."""
        full, top = self._series_and_top(qs)
        last_level = abs(top) / abs(full) if full else math.inf
        return self.prefactor(qs) ** 2 * abs(full) ** 2, last_level

    def abs2(self, qs) -> float:
        """|F|^2 at the given moduli."""
        return self.abs2_and_last_level(qs)[0]


def _gram_inverses(h: complex, c: float, N: int) -> list[np.ndarray]:
    out = []
    for n in range(N + 1):
        if n == 0:
            out.append(np.eye(1, dtype=complex))
        else:
            out.append(shapovalov_inverse(shapovalov(h, c, n)).entries)
    return out


def torus_one_point_block(
    alpha1: complex, p: float, q: complex, params: CftParams, N: int = 6
) -> BlockSeries:
    """One-point block on the torus: |q|^{-c_L/24 + Delta_{Q+ip}} sum_n q^n
    Tr(F^{-1}_{Q+ip,n} w^A_n(alpha1, p, p))."""
    if abs(q) >= 1.0:
        raise DomainError(f"|q| must be < 1, got {abs(q)}")
    h = complex(conformal_weight(params.Q + 1j * p, params))
    d_mark = complex(conformal_weight(alpha1, params))
    c = params.c_L
    finv = _gram_inverses(h, c, N)
    coeffs = {}
    for n in range(N + 1):
        W = _annulus_matrix(n, n, h, d_mark, h, c)
        coeffs[(n,)] = complex(np.trace(finv[n] @ W))
    return BlockSeries(exponents=(-c / 24.0 + h.real,), coeffs=coeffs, N=N)


@dataclass(frozen=True)
class _Vertex:
    """One vertex of a pants-graph plan.  ``slots`` holds its slots in order:
    (edge index, orientation sign) for an edge slot and (None, alpha) for a
    marked slot.  ``edges`` (the edge index of each edge slot) and ``marks``
    (the conformal weight of each marked slot) follow from them."""

    slots: tuple
    edges: tuple
    marks: tuple


@dataclass(frozen=True)
class _BlockPlan:
    """What the integrand of a pants graph needs of the graph alone: its
    vertices, in ``graph.vertex_ids`` order, and the einsum subscripts
    contracting their tensors with one inverse Gram matrix per edge."""

    vertices: tuple
    einsum_spec: str


def _block_plan(graph, params: CftParams) -> _BlockPlan:
    """The one reader of a pants graph's slots (graph_block, rho_density and
    the spectral integral).  It checks the graph's structure, then takes each
    marked weight and each edge end, outgoing (0, sign -1) or incoming (1,
    sign +1), in one pass; an edge end's einsum letter is shared by its vertex
    slot and by the edge's inverse Gram matrix."""
    graph.check_structure()
    L = len(graph.edges)
    vertices, specs = [], []
    for vid, slot_list in graph.slot_map().items():
        slots, spec = [], ""
        for k, kind, i in slot_list:
            if kind == "mark":
                slots.append((None, graph.marked[i].alpha))
            else:
                end = int(graph.edges[i].v_to == (vid, k))
                slots.append((i, 2 * end - 1))
                spec += chr(ord("a") + 2 * i + end)
        edges = tuple(eidx for eidx, _x in slots if eidx is not None)
        marks = tuple(complex(conformal_weight(x, params)) for eidx, x in slots if eidx is None)
        vertices.append(_Vertex(tuple(slots), edges, marks))
        specs.append(spec)
    specs += [chr(ord("a") + 2 * e) + chr(ord("a") + 2 * e + 1) for e in range(L)]
    return _BlockPlan(vertices=tuple(vertices), einsum_spec=",".join(specs) + "->")


def _require_edge_slots(graph, plan: _BlockPlan) -> None:
    """A block glues every vertex into the graph through at least one edge."""
    for vid, vertex in zip(graph.vertex_ids, plan.vertices):
        if not vertex.edges:
            raise ValidationError(f"vertex {vid} has no edge slots")


def _level_terms(plan: _BlockPlan, N: int, L: int) -> list:
    """Every multidegree of total <= N over the L edges, by total ascending
    and then lexicographically, paired with the levels it puts on each
    vertex's edge slots (one tuple per vertex)."""
    degrees = (d for d in itertools.product(range(N + 1), repeat=L) if sum(d) <= N)
    return [
        (degs, tuple(tuple(degs[eidx] for eidx in vertex.edges) for vertex in plan.vertices))
        for degs in sorted(degrees, key=lambda d: (sum(d), d))
    ]


def _vertex_tensors(vertex: _Vertex, levels, hs, c) -> dict:
    """Pant arrays, annulus matrices or disk vectors (by the number of edge
    slots) of one vertex, keyed by each of the given distinct level tuples on
    its edge slots; ``hs`` holds the weight of every edge of the graph."""
    weights = tuple(hs[eidx] for eidx in vertex.edges)
    if len(weights) == 3:
        return {lv: _pant_array(lv, weights, c) for lv in levels}
    if len(weights) == 2:
        return {lv: _annulus_matrix(*lv, weights[0], vertex.marks[0], weights[1], c) for lv in levels}
    return {lv: _disk_vector(lv[0], weights[0], *vertex.marks, c) for lv in levels}


def _contract(plan: _BlockPlan, terms: list, tensors, hs, finv, c, N: int) -> BlockSeries:
    """Per-node half of graph_block.  ``terms`` comes from _level_terms;
    ``tensors`` holds each vertex's {levels: tensor}, and ``hs`` and ``finv``
    each edge's weight and inverse Gram matrices (levels 0..N)."""
    coeffs = {}
    for degs, levels in terms:
        operands = [t[lv] for t, lv in zip(tensors, levels)]
        operands += [finv[eidx][n] for eidx, n in enumerate(degs)]
        coeffs[degs] = complex(np.einsum(plan.einsum_spec, *operands))
    exps = tuple(-c / 24.0 + h.real for h in hs)
    return BlockSeries(exponents=exps, coeffs=coeffs, N=N)


def graph_block(graph, p_vector, params: CftParams, N: int = 4) -> BlockSeries:
    """Conformal block of a pants graph, with its weights on the marked points.

    One p and one level per linking edge; per-vertex coefficient tensors
    (pant / annulus / disk by the number of edge slots) are contracted across
    every edge through the inverse Gram matrix at that edge's weight.  The
    output factorizes as prod_i |q_i|^{-c_L/24 + Delta_{Q+ip_i}} times a
    holomorphic series in the q_i, which the caller evaluates at the moduli.
    """
    from .graphs import AdmissibleGraph  # local import to avoid a cycle

    if not isinstance(graph, AdmissibleGraph):
        raise ValidationError("graph_block expects an AdmissibleGraph")
    plan = _block_plan(graph, params)
    L = len(graph.edges)
    if len(p_vector) != L:
        raise DimensionMismatch(f"need one p per edge ({L}), got {len(p_vector)}")
    _require_edge_slots(graph, plan)
    c = params.c_L
    hs = [complex(conformal_weight(params.Q + 1j * p, params)) for p in p_vector]
    finv = [_gram_inverses(h, c, N) for h in hs]
    terms = _level_terms(plan, N, L)
    tensors = [
        _vertex_tensors(vertex, {lv[v] for _degs, lv in terms}, hs, c)
        for v, vertex in enumerate(plan.vertices)
    ]
    return _contract(plan, terms, tensors, hs, finv, c, N)
