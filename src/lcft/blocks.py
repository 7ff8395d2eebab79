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

Both descendant recursions are ring-agnostic and memoised on their words in a
dict that lives for one call.  ``_radial_arrays`` and ``_pant_arrays`` run
them with the weights as complex arrays and c as a float, so each family (the
radial elements of a level pair, the pant brackets of a level triple) comes
out as one array whose axis 0 runs along the weights.  A pant bracket keeps
its z-monomials only while slot 3 is primary, where the derivatives act on
them; they are summed at ``ZHAT`` before slot 3's transport, which only
multiplies by powers of z13 and z23.

``_block_series`` is the spectral engine's block at an array of node tuples,
from one plan of the graph (``graphs._plan``: each vertex's slots in order,
as (edge index, orientation sign) or (None, alpha); ``dozz`` reads its DOZZ
arguments from the same records).  It builds one inverse Gram stack per level
over the nodes, and each vertex's tensors over the distinct projections of
the tuples onto its own edges (``graphs._projections``).  ``_contract`` sums
each multidegree's products of tensor and inverse entries over the basis
indices, and ``BlockSeries`` turns the coefficient arrays into |F|^2 and the
last-level share.  Every step is an out-of-place elementwise operation along
the nodes or tuples, so an entry has the same bits at any array length;
``graph_block`` is the engine at the one tuple (p_1, ..., p_L).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, ValidationError
from .graphs import AdmissibleGraph, _plan, _projections
from .params import CftParams
from .virasoro import (
    _accumulate,
    _gram_stack,
    _invert_stack,
    apply_generator_to_word,
    conformal_weight,
    partitions,
)

__all__ = [
    "ZHAT",
    "BlockSeries",
    "torus_one_point_block",
    "graph_block",
]

#: Canonical pant-frame insertion points: unit pairwise distances, P(zhat)=1.
ZHAT = (-0.5 + 0.0j, 0.5 + 0.0j, 0.0 + 1j * math.sqrt(3.0) / 2.0)


# ---------------------------------------------------------------------------
# rational multiples of H = z12^E12 z13^E13 z23^E23:
# dict[(a, b, d)] -> coefficient  (z12^a z13^b z23^d * H)
# ---------------------------------------------------------------------------


def _zf_add(out: dict, x: dict, shift: tuple, s=None) -> None:
    """Add x, times s unless s is None, into ``out`` with its z-monomials
    shifted by ``shift``."""
    da, db, dd = shift
    for (a, b, d), p in x.items():
        _accumulate(out, (a + da, b + db, d + dd), p if s is None else p * s)


# dz_i of z12, z13, z23: (sign, exponent slot, unit monomial) of the two
# factors holding z_i
_DZ = {
    1: ((1, 0, (1, 0, 0)), (1, 1, (0, 1, 0))),
    2: ((-1, 0, (1, 0, 0)), (1, 2, (0, 0, 1))),
    3: ((-1, 1, (0, 1, 0)), (-1, 2, (0, 0, 1))),
}


def _zf_dz(x: dict, i: int, weights, s: int) -> dict:
    """s times d/dz_i of (sum z-monomials * coefficient) * H, in the same form;
    the exponents of H follow from the slot weights (D1, D2, D3)."""
    d1, d2, d3 = weights
    exps = (d3 - d1 - d2, d2 - d1 - d3, d1 - d2 - d3)  # of z12, z13, z23 in H
    factors: dict = {}  # s * sign * (monomial exponent + exponent in H)
    out: dict = {}
    for mono, p in x.items():
        for sign, slot, (ua, ub, ud) in _DZ[i]:
            key = (slot, mono[slot])
            if key not in factors:
                factors[key] = (exps[slot] + mono[slot]) * (sign * s)
            _accumulate(out, (mono[0] - ua, mono[1] - ub, mono[2] - ud), p * factors[key])
    return out


def _binom(n: int, k: int) -> int:
    if k == 0:
        return 1
    if n < k:
        return 0
    return math.comb(n, k)


def _generator(n: int, word: tuple, slot: int, weights, c, memo: dict) -> dict:
    """L_n on a word of the given slot, memoised in a bracket memo."""
    key = ("L", n, word, slot)
    if key not in memo:
        memo[key] = apply_generator_to_word(n, word, weights[slot], c)
    return memo[key]


def _bracket_h(w1: tuple, w2: tuple, weights, c, memo: dict) -> dict:
    """Normalized pant-frame bracket of two descendant slots and a primary
    third, as the rational multiple of H {(a, b, d): coeff}.

    ``w_i`` are ascending operator words and ``weights`` the slot weights
    (D1, D2, D3).  Slot 2 reduces via the differential term on the primary
    slot 3 plus transport onto slot 1, then slot 1 as a pure differential
    word acting on H.  Memoised in ``memo``, which must serve one (weights,
    c) only.
    """
    key = ("H", w1, w2)
    if key in memo:
        return memo[key]
    out: dict = {}
    if w2:
        m, rest2 = w2[0], w2[1:]
        lower = _bracket_h(w1, rest2, weights, c, memo)
        sgn_m = (-1) ** m
        # differential piece on the primary slot 3: (z3-z2) = -z23
        _zf_add(out, _zf_dz(lower, 3, weights, sgn_m), (0, 0, 1 - m))
        if m > 1:
            _zf_add(out, lower, (0, 0, -m), weights[2] * ((m - 1) * sgn_m))
        # operator transport onto slot 1: powers of (z1 - z2) = z12
        for k in range(0, sum(w1) + 2):
            cb = _binom(m + k - 2, k)
            if cb == 0:
                continue
            sgn = -1 if k % 2 == 0 else 1
            for w1_new, coeff in _generator(k - 1, w1, 0, weights, c, memo).items():
                sub = _bracket_h(w1_new, rest2, weights, c, memo)
                _zf_add(out, sub, (1 - m - k, 0, 0), coeff * (sgn * cb))
    elif w1:
        m, rest1 = w1[0], w1[1:]
        lower = _bracket_h(rest1, (), weights, c, memo)
        sgn_m = (-1) ** m
        # D_m on slots {2,3}: (z2-z1) = -z12, (z3-z1) = -z13
        _zf_add(out, _zf_dz(lower, 2, weights, sgn_m), (1 - m, 0, 0))
        _zf_add(out, _zf_dz(lower, 3, weights, sgn_m), (0, 1 - m, 0))
        if m > 1:
            _zf_add(out, lower, (-m, 0, 0), weights[1] * ((m - 1) * sgn_m))
            _zf_add(out, lower, (0, -m, 0), weights[2] * ((m - 1) * sgn_m))
    else:
        out[(0, 0, 0)] = 1
    memo[key] = out
    return out


def _bracket(w1: tuple, w2: tuple, w3: tuple, weights, c, zhat, memo: dict):
    """Normalized pant-frame bracket of three descendant slots divided by H,
    at the insertion points zhat.

    Slot 3 reduces via operator transport onto slots 1 and 2, which
    multiplies a bracket by powers of z13 or z23; a primary slot 3 leaves
    ``_bracket_h`` summed at the points.  Memoised in ``memo``, which must
    serve one (weights, c, zhat) only.
    """
    key = ("B", w1, w2, w3)
    if key in memo:
        return memo[key]
    z1, z2, z3 = zhat
    if not w3:
        out = sum(p * ((z1 - z2) ** a * (z1 - z3) ** b * (z2 - z3) ** d)
                  for (a, b, d), p in _bracket_h(w1, w2, weights, c, memo).items())
    else:
        m, rest3 = w3[0], w3[1:]
        words = (w1, w2)
        out = 0
        for r, z in ((0, z1 - z3), (1, z2 - z3)):  # slots 1 and 2
            for k in range(0, sum(words[r]) + 2):
                cb = _binom(m + k - 2, k)
                if cb == 0:
                    continue
                sgn = -1 if k % 2 == 0 else 1  # (-1)^(k-1)
                for wr_new, coeff in _generator(k - 1, words[r], r, weights, c, memo).items():
                    pair = (wr_new, w2) if r == 0 else (w1, wr_new)
                    sub = _bracket(*pair, rest3, weights, c, zhat, memo)
                    out = out + sub * (coeff * (sgn * cb * z ** (1 - m - k)))
    memo[key] = out
    return out


# ---------------------------------------------------------------------------
# radial-frame matrix elements  <h_out, a| V_Delta(1) |h_in, b>
# ---------------------------------------------------------------------------


def _radial_element(a: tuple, b: tuple, weights, c, memo: dict):
    """Normalized vertex matrix element at weights (h_out, Delta, h_in).

    Raising operators peel off the out-state through the commutator
    [L_m, V(z)] = z^m (z d/dz + (m+1) Delta) V(z) at z = 1, using that the
    matrix element between L0-eigenstates of weights (h_out + |a|, h_in + |b|)
    scales as z^(h_out + |a| - h_in - |b| - Delta).  Memoised in ``memo``,
    which must serve one (weights, c) only.
    """
    if (a, b) in memo:
        return memo[(a, b)]
    h_out, d_mid, h_in = weights
    if a:
        m, rest = a[0], a[1:]
        grading = h_out + sum(rest) - h_in - sum(b) - d_mid
        out = _radial_element(rest, b, weights, c, memo) * (grading + (m + 1) * d_mid)
        for w2, coeff in apply_generator_to_word(m, b, h_in, c).items():
            out = out + _radial_element(rest, w2, weights, c, memo) * coeff
    elif b:
        m, rest = b[0], b[1:]
        grading = h_out - h_in - (sum(b) - m) - d_mid
        out = _radial_element((), rest, weights, c, memo) * (grading + (1 - m) * d_mid) * -1
    else:
        out = 1
    memo[(a, b)] = out
    return out


# ---------------------------------------------------------------------------
# coefficient tensors
# ---------------------------------------------------------------------------


def _fill(levels, weights, element) -> dict:
    """{levels: array} holding element(words) for every tuple of partition
    words at each level tuple in ``levels``; axis 0 runs along the weights."""
    size = np.broadcast(*weights).size
    out = {}
    for lv in levels:
        bases = [[nu.word() for nu in partitions(n)] for n in lv]
        arr = out[lv] = np.empty((size, *(len(b) for b in bases)), dtype=complex)
        for idx in np.ndindex(*arr.shape[1:]):
            arr[(slice(None), *idx)] = element(*(b[i] for b, i in zip(bases, idx)))
    return out


def _radial_arrays(levels, weights, c) -> dict:
    """Radial elements between the partitions of each level pair (n_out, n_in)
    in ``levels``, at weights (h_out, Delta_mid, h_in)."""
    memo: dict = {}
    return _fill(levels, weights, lambda a, b: _radial_element(a, b, weights, c, memo))


def _pant_arrays(levels, weights, c) -> dict:
    """Pant brackets of every partition triple at each level triple in
    ``levels``, at slot weights (D1, D2, D3) and the points ZHAT."""
    memo: dict = {}
    return _fill(levels, weights, lambda *w: _bracket(*w, weights, c, ZHAT, memo))


# ---------------------------------------------------------------------------
# block series
# ---------------------------------------------------------------------------


@dataclass
class BlockSeries:
    """Truncated block expansion: prod |q_i|^{exponents_i} * series.

    ``coeffs`` maps multidegrees to holomorphic series coefficients; the
    modulus-dependent prefactor exponents stay symbolic in |q| so callers can
    form |F|^2 without cancellation.  Coefficients and exponents are scalars,
    or arrays over node tuples in the spectral engine; the methods run on 1-D
    arrays out of place, so an entry has the same bits at any number of
    tuples, and return scalars for a scalar series.
    """

    exponents: tuple
    coeffs: dict
    N: int

    def _parts(self, qs) -> tuple:
        """The prefactor, the series and its level-N part at the given moduli,
        the series summed in one pass over the coefficients."""
        qs = tuple(complex(q) for q in qs)
        if len(qs) != len(self.exponents):
            raise DimensionMismatch(f"expected {len(self.exponents)} moduli, got {len(qs)}")
        pref, total, top = 1.0, 0.0 + 0.0j, 0.0 + 0.0j
        for q, e in zip(qs, self.exponents):
            pref = pref * abs(q) ** np.reshape(e, -1)
        for degs, co in self.coeffs.items():
            term = np.reshape(co, -1)
            for q, n in zip(qs, degs):
                if n:
                    term = term * q**n
            total = total + term
            if sum(degs) == self.N:
                top = top + term
        return pref, total, top

    def _out(self, x):
        """x as a scalar when the coefficients are scalars."""
        return x if np.ndim(next(iter(self.coeffs.values()))) else x[0]

    def series_value(self, qs):
        return self._out(self._parts(qs)[1])

    def value(self, qs):
        pref, total, _top = self._parts(qs)
        return self._out(pref * total)

    def abs2_and_last_level(self, qs) -> tuple:
        """|F|^2 at the given moduli and the level-N share |top| / |series|
        of the truncated series (inf where the series vanishes)."""
        pref, full, top = self._parts(qs)
        full, top = np.abs(full), np.abs(top)
        last_level = np.divide(top, full, out=np.full(full.shape, math.inf), where=full != 0)
        return self._out(pref**2 * full**2), self._out(last_level)

    def abs2(self, qs):
        """|F|^2 at the given moduli."""
        return self.abs2_and_last_level(qs)[0]


def _gram_inverses(hs: np.ndarray, c: float, N: int) -> list:
    """Inverse Gram matrices at levels 0..N for every weight of the complex
    array ``hs``: one stack per level, shape (len(hs), p(n), p(n)).  Every
    block truncates through it, so it rejects N < 0."""
    if N < 0:
        raise ValidationError(f"truncation level N must be >= 0, got {N}")
    return [np.ones((len(hs), 1, 1), dtype=complex)] + [
        _invert_stack(_gram_stack(hs, c, n), n, hs)[0] for n in range(1, N + 1)
    ]


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
    hs = np.array([h])
    finv = _gram_inverses(hs, c, N)
    W = _radial_arrays({(n, n) for n in range(N + 1)}, (hs, d_mark, hs), c)
    coeffs = {(n,): complex(np.trace(finv[n][0] @ W[(n, n)][0])) for n in range(N + 1)}
    return BlockSeries(exponents=(-c / 24.0 + h.real,), coeffs=coeffs, N=N)


def _require_edge_slots(graph, plan: tuple) -> None:
    """A block glues every vertex into the graph through at least one edge."""
    for vid, vertex in zip(graph.vertex_ids, plan):
        if not vertex.edges:
            raise ValidationError(f"vertex {vid} has no edge slots")


def _level_terms(plan: tuple, N: int, L: int) -> list:
    """Every multidegree of total <= N over the L edges, by total ascending
    and then lexicographically, paired with the levels it puts on each
    vertex's edge slots (one tuple per vertex)."""
    degrees = (d for d in itertools.product(range(N + 1), repeat=L) if sum(d) <= N)
    return [
        (degs, tuple(tuple(degs[eidx] for eidx in vertex.edges) for vertex in plan))
        for degs in sorted(degrees, key=lambda d: (sum(d), d))
    ]


def _vertex_tensors(vertex, levels, weights, params: CftParams) -> dict:
    """Pant arrays, annulus matrices or disk vectors (by the number of edge
    slots) of one vertex, keyed by each of the given distinct level tuples on
    its edge slots; ``weights`` holds one complex array per edge slot, and
    axis 0 of every tensor runs along them."""
    c = params.c_L
    marks = [complex(conformal_weight(x, params)) for x in vertex.alphas]
    if len(weights) == 3:
        return _pant_arrays(levels, weights, c)
    if len(weights) == 2:
        return _radial_arrays(levels, (weights[0], marks[0], weights[1]), c)
    disks = _radial_arrays({(lv[0], 0) for lv in levels}, (weights[0], *marks), c)
    return {(n,): arr[:, :, 0] for (n, _zero), arr in disks.items()}


def _contract(plan: tuple, terms: list, tensors: list, finv: list) -> dict:
    """Each multidegree's block coefficient, as an array over node tuples.

    ``terms`` comes from _level_terms; ``tensors`` holds each vertex's
    {levels: array} and ``finv`` each edge's inverse Gram matrices at levels
    0..N, all with the tuples on their last, contiguous axis.  A coefficient
    sums, over every assignment of basis indices to the edge ends, the
    product of one entry of each operand, out of place and in an order fixed
    by the plan, so a tuple's coefficient has the same bits at any number of
    tuples (np.einsum's order depends on the operand shapes)."""
    coeffs = {}
    for degs, levels in terms:
        operands = [(t[lv], vertex.ends) for t, lv, vertex in zip(tensors, levels, plan)]
        operands += [(f[n], (2 * e, 2 * e + 1)) for e, (f, n) in enumerate(zip(finv, degs))]
        sizes = [len(f[n]) for f, n in zip(finv, degs) for _end in (0, 1)]
        total = None
        for idx in itertools.product(*map(range, sizes)):
            term = None
            for arr, ends in operands:
                entry = arr[tuple(idx[end] for end in ends)]
                term = entry if term is None else term * entry
            total = term if total is None else total + term
        coeffs[degs] = total
    return coeffs


def _block_series(
    plan: tuple, ps, tuples: np.ndarray, projections: list, params: CftParams, N: int
) -> tuple:
    """The engine's block at node tuples, as one BlockSeries of arrays over
    the columns of the (L, n) array ``tuples`` (indices into the edges' p
    values ``ps``; ``projections`` from graphs._projections), and the number
    of vertex tensors built."""
    c = params.c_L
    hs = np.array([complex(conformal_weight(params.Q + 1j * p, params)) for p in ps])
    terms = _level_terms(plan, N, len(tuples))
    tensors, built = [], 0
    for v, (vertex, (own, distinct, rows)) in enumerate(zip(plan, projections)):
        weights = [hs[distinct[own.index(e)]] for e in vertex.edges]
        arrays = _vertex_tensors(vertex, {lv[v] for _degs, lv in terms}, weights, params)
        built += distinct.shape[1] * len(arrays)
        tensors.append({lv: np.ascontiguousarray(np.moveaxis(a[rows], 0, -1)) for lv, a in arrays.items()})
    stacks = _gram_inverses(hs, c, N)
    finv = [[np.ascontiguousarray(np.moveaxis(F[node], 0, -1)) for F in stacks] for node in tuples]
    exps = tuple(-c / 24.0 + hs[node].real for node in tuples)
    return BlockSeries(exponents=exps, coeffs=_contract(plan, terms, tensors, finv), N=N), built


def graph_block(graph, p_vector, params: CftParams, N: int = 4) -> BlockSeries:
    """Conformal block of a pants graph, with its weights on the marked points.

    One p and one level per linking edge; per-vertex coefficient tensors
    (pant / annulus / disk by the number of edge slots) are contracted across
    every edge through the inverse Gram matrix at that edge's weight.  The
    output factorizes as prod_i |q_i|^{-c_L/24 + Delta_{Q+ip_i}} times a
    holomorphic series in the q_i, which the caller evaluates at the moduli.
    It is the spectral engine's block at the one node tuple (p_1, ..., p_L).
    """
    if not isinstance(graph, AdmissibleGraph):
        raise ValidationError("graph_block expects an AdmissibleGraph")
    plan = _plan(graph)
    L = len(graph.edges)
    if len(p_vector) != L:
        raise DimensionMismatch(f"need one p per edge ({L}), got {len(p_vector)}")
    _require_edge_slots(graph, plan)
    ps, tuples = [float(p) for p in p_vector], np.arange(L)[:, None]
    series, _built = _block_series(plan, ps, tuples, _projections(plan, tuples), params, N)
    coeffs = {degs: complex(co[0]) for degs, co in series.coeffs.items()}
    return BlockSeries(tuple(float(e[0]) for e in series.exponents), coeffs, N)
