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
  contractions, one orthonormal basis index per glued edge (cyclic torus
  chains and sphere chains are pants graphs).

Both descendant recursions are ring-agnostic and memoised on their words in a
dict that lives for one call; the same dict holds the Virasoro generator
memo of the weight they expand on (h_in for a radial element, one per slot
for a pant bracket).  ``_radial_arrays`` and ``_pant_arrays`` run
them with the weights as complex arrays and c as a float, so each family (the
radial elements of a level pair, the pant brackets of a level triple) comes
out as one array whose axis 0 runs along the weights.  A pant bracket is one
numeric recursion at the points ``ZHAT``: it moves each mode L_{-m}, m >= 2,
onto the other two slots and takes each L_{-1} from the global Ward
identities, so every intermediate is a value at the points, not a
polynomial in them.

``_block_series`` is the spectral engine's block on n nodes per edge, from
one plan of the graph (``graphs._plan``: each vertex's slots in order, as
(edge index, orientation sign) or (None, alpha); ``dozz`` reads its DOZZ
arguments from the same records).  Its arrays have one node axis per edge,
and each vertex's tensors, taken on the grid of its own edges' nodes, lie on
theirs.  The vertices of one kind (slot pattern and marked weights) share
one ``_vertex_tensors`` call, each slot's weights on the kind's node axis of
its edge: the two pants of a genus-2 graph share one build.  An edge glues
through F^{-1} = R^-T R^-1, R the lower Cholesky factor of F: ``_fold``
solves each edge slot against its node's R, on the same axis, each vertex
takes views of its kind's tensors on its own edges' axes, and ``_contract``
sums each multidegree's products of tensor entries over one basis index per
edge; ``BlockSeries`` turns the coefficient arrays into |F|^2 and the
last-level share.  Every step is an out-of-place elementwise operation, so
an entry has the same bits at any array shape.  ``torus_one_point_block`` is
the engine's self-loop at one node, read as scalars, for ``lcft block``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ValidationError
from .graphs import AdmissibleGraph, EdgeSpec, MarkedPoint, _plan
from .params import CftParams
from .virasoro import _gram_stack, _guard, apply_generator_to_word, conformal_weight, partitions

__all__ = [
    "ZHAT",
    "BlockSeries",
    "torus_one_point_block",
]

#: Canonical pant-frame insertion points: unit pairwise distances, P(zhat)=1.
ZHAT = (-0.5 + 0.0j, 0.5 + 0.0j, 0.0 + 1j * math.sqrt(3.0) / 2.0)


# ---------------------------------------------------------------------------
# pant-frame brackets  <V_{D1,w1}(z1) V_{D2,w2}(z2) V_{D3,w3}(z3)> / H
# ---------------------------------------------------------------------------


def _bracket(w1: tuple, w2: tuple, w3: tuple, weights, c, zhat, memo: dict):
    """Normalized pant-frame bracket of three descendant slots divided by H,
    at the insertion points zhat.

    The outermost mode L_{-m} of the last slot r that holds a word goes
    first.  For m >= 2 it moves onto the other two slots j as
    -sum_k C(1-m, k) (z_j - z_r)^(1-m-k) L_{k-1}.  L_{-1} is d_r = d/dz_r,
    which the three global Ward identities sum_i (z_i^n d_i + n z_i^(n-1) h_i
    + C(n, 2) L_1 on slot i) = 0, n = 0, 1, 2, fix from the brackets one
    level lower (h_i: the weight plus level of slot i).  Either way the
    total level falls.  Memoised in ``memo``, which must serve one (weights,
    c, zhat) only; its entry ("L", slot) is the generator memo at that
    slot's weight.
    """
    words = (w1, w2, w3)
    if words in memo:
        return memo[words]
    r = max((i for i in range(3) if words[i]), default=None)
    if r is None:
        return 1
    m, rest = words[r][0], words[r][1:]
    words = tuple(rest if i == r else w for i, w in enumerate(words))

    def terms(j, n):
        """(bracket, coefficient) of L_n applied to slot j of ``words``."""
        gens = memo.setdefault(("L", j), {})
        for new, coeff in apply_generator_to_word(n, words[j], weights[j], c, gens).items():
            yield _bracket(*words[:j], new, *words[j + 1:], weights, c, zhat, memo), coeff

    s, t = (j for j in range(3) if j != r)
    zr, zs, zt = zhat[r], zhat[s], zhat[t]
    if m == 1:  # d_r = (b_2 - (z_s + z_t) b_1) / ((z_r - z_s)(z_r - z_t)), b_n = sum_i z_i^n d_i
        h = [weights[i] + sum(words[i]) for i in range(3)]
        out = _bracket(*words, weights, c, zhat, memo) * (
            h[r] * (zs + zt - 2 * zr) + (h[s] - h[t]) * (zt - zs))
        for j in range(3):
            for sub, coeff in terms(j, 1):
                out = out - sub * coeff
        out = out / ((zr - zs) * (zr - zt))
    else:
        out = 0
        for j, z in ((s, zs - zr), (t, zt - zr)):
            for k in range(sum(words[j]) + 2):
                sgn = -1 if k % 2 == 0 else 1  # (-1)^(k-1)
                scale = sgn * math.comb(m + k - 2, k) * z ** (1 - m - k)
                for sub, coeff in terms(j, k - 1):
                    out = out + sub * (coeff * scale)
    memo[(w1, w2, w3)] = out
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
    which must serve one (weights, c) only; its entry "L" is the generator
    memo at h_in.
    """
    if (a, b) in memo:
        return memo[(a, b)]
    h_out, d_mid, h_in = weights
    if a:
        m, rest = a[0], a[1:]
        grading = h_out + sum(rest) - h_in - sum(b) - d_mid
        out = _radial_element(rest, b, weights, c, memo) * (grading + (m + 1) * d_mid)
        for w2, coeff in apply_generator_to_word(m, b, h_in, c, memo.setdefault("L", {})).items():
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
    words at each level tuple in ``levels``; the leading axes are the
    weights' broadcast shape, then one basis axis per word."""
    shape = np.broadcast(*weights).shape
    out = {}
    for lv in levels:
        bases = [partitions(n) for n in lv]
        arr = out[lv] = np.empty((*shape, *(len(b) for b in bases)), dtype=complex)
        for idx in np.ndindex(*arr.shape[len(shape):]):
            arr[(..., *idx)] = element(*(b[i] for b, i in zip(bases, idx)))
    return out


def _radial_arrays(levels, weights, c) -> dict:
    """Radial elements between the partitions of each level pair (n_out, n_in)
    in ``levels``, at weights (h_out, Delta_mid, h_in)."""
    memo: dict = {}
    return _fill(levels, weights, lambda a, b: _radial_element(a, b, weights, c, memo))


def _pant_arrays(levels, weights, c) -> dict:
    """Pant brackets of every partition triple at each level triple in
    ``levels``, at slot weights (D1, D2, D3) and the points ZHAT, all from
    one ``_bracket`` memo: a bracket's lower-level brackets are kept as
    arrays over the weights until the build ends."""
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
    or arrays that broadcast over node tuples in the spectral engine; the
    methods run out of place on arrays of at least one axis, so an entry has
    the same bits at any shape, and return scalars for a scalar series.
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
            pref = pref * abs(q) ** np.atleast_1d(e)
        for degs, co in self.coeffs.items():
            term = np.atleast_1d(co)
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


def _gram_factors(hs: np.ndarray, c: float, N: int) -> list:
    """Lower Cholesky factors R, F = R R^T, of the Gram matrices at levels
    0..N at every weight of ``hs`` (on the spectrum line, F is real positive
    definite), one stack per level of shape (len(hs), p(n), p(n)), each level
    past ``_guard`` before any is factored; both take the real part, so the
    guard's condition numbers come from real SVDs.  Rejects N < 0."""
    if N < 0:
        raise ValidationError(f"truncation level N must be >= 0, got {N}")
    memo: dict = {}  # the levels share hs, so one generator memo serves them all
    grams = [_gram_stack(hs, c, n, memo).real for n in range(1, N + 1)]
    for n, F in enumerate(grams, 1):
        _guard(F, n, hs)
    return [np.ones((len(hs), 1, 1))] + [np.linalg.cholesky(F) for F in grams]


def torus_one_point_block(alpha1: complex, p: float, params: CftParams, N: int = 6) -> BlockSeries:
    """One-point block on the torus: |q|^{-c_L/24 + Delta_{Q+ip}} sum_n q^n
    Tr(F^{-1}_{Q+ip,n} w^A_n(alpha1, p, p)), for the caller to evaluate at
    a modulus 0 < |q| < 1: the engine's self-loop at the one node p."""
    loop = AdmissibleGraph([EdgeSpec((1, 2), (1, 1))], [MarkedPoint(1, 3, alpha1)])
    series, _built = _block_series(_plan(loop), [p], 1, params, N)
    coeffs = {degs: complex(co[0]) for degs, co in series.coeffs.items()}
    return BlockSeries(exponents=(float(series.exponents[0][0]),), coeffs=coeffs, N=N)


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


def _vertex_tensors(marks: tuple, levels, weights, c) -> dict:
    """Pant arrays, annulus matrices or disk vectors (by the number of edge
    slots) of a vertex kind with the marked weights ``marks``, keyed by each
    of the given distinct level tuples on its edge slots; ``weights`` holds
    one complex array per edge slot, and their broadcast shape leads every
    tensor.  A kind is a slot pattern (each slot's edge numbered by first
    appearance in slot order: (0, 0) a self-loop, (0, 1, 1) a genus-2 pant)
    with the marks' bits; a kind whose weight rows lie among another's (a
    self-loop pant beside a three-edge pant) still builds its own."""
    if len(weights) == 3:
        return _pant_arrays(levels, weights, c)
    if len(weights) == 2:
        return _radial_arrays(levels, (weights[0], marks[0], weights[1]), c)
    disks = _radial_arrays({(lv[0], 0) for lv in levels}, (weights[0], *marks), c)
    return {(n,): arr[..., 0] for (n, _zero), arr in disks.items()}


def _contract(plan: tuple, terms: list, tensors: list) -> dict:
    """Each multidegree's block coefficient, as an array over node tuples.

    ``terms`` comes from _level_terms; ``tensors`` holds each vertex's folded
    {levels: array} (_fold), basis axes first, then one node axis per edge.
    A coefficient sums, over every assignment of one basis index to each
    edge, the broadcast product of one entry of each tensor, out of place and
    in an order fixed by the plan, so a tuple's coefficient has the same bits
    at any number of tuples (np.einsum's order depends on the shapes)."""
    coeffs = {}
    for degs, levels in terms:
        operands = [(t[lv], vertex.edges) for t, lv, vertex in zip(tensors, levels, plan)]
        total = None
        for idx in itertools.product(*(range(len(partitions(n))) for n in degs)):
            term = None
            for arr, edges in operands:
                entry = arr[tuple(idx[e] for e in edges)]
                term = entry if term is None else term * entry
            total = term if total is None else total + term
        coeffs[degs] = total
    return coeffs


def _fold(t: np.ndarray, lv: tuple, factors: list) -> np.ndarray:
    """``t`` (node axes, then one basis axis per slot at levels ``lv``) with
    slot k solved against R = factors[k][lv[k]] (p, p, *node axes) by forward
    substitution: x_j = (t_j - sum_{i<j} R[j, i] x_i) / R[j, j], i ascending."""
    for k, n in enumerate(lv):
        axis = t.ndim - len(lv) + k
        t, xs = np.moveaxis(t, axis, 0), []
        R = np.expand_dims(factors[k][n], tuple(range(1 - len(lv), 0)))  # R[j, i] on t[j]
        for j in range(len(t)):
            acc = t[j]
            for i in range(j):
                acc = acc - R[j, i] * xs[i]
            xs.append(acc / R[j, j])
        t = np.moveaxis(np.stack(xs), 0, axis)
    return t


def _on_axis(a: np.ndarray, axis: int, d: int) -> np.ndarray:
    """A view of ``a`` with its node axis 0 moved last, as axis ``axis`` of d."""
    return np.moveaxis(a, 0, -1).reshape(*a.shape[1:], *(len(a) if k == axis else 1 for k in range(d)))


def _on_axes(a: np.ndarray, own: tuple, n: int, L: int) -> np.ndarray:
    """A view of ``a`` (one node axis per edge of ``own``, in that order,
    then basis axes) with the basis axes first, then one axis per edge of L:
    n on those of ``own``, 1 elsewhere."""
    d = len(own)
    a = a.transpose(*range(d, a.ndim), *sorted(range(d), key=own.__getitem__))
    return a.reshape(*a.shape[: a.ndim - d], *(n if e in own else 1 for e in range(L)))


def _block_series(plan: tuple, ps, L: int, params: CftParams, N: int) -> tuple:
    """The engine's block on the grid of the nodes ``ps`` on each of the L
    edges, as one BlockSeries of arrays that broadcast to shape (n,) * L, and
    the number of vertex tensors built.

    The vertices of one kind (slot pattern and marked weights, by their bits;
    _vertex_tensors) share one build on the grid of the kind's own node axes,
    at the union of their level tuples, solved against the Gram factors
    (_fold) laid on the same axes; each vertex lays the kind's tensors on its
    own edges' axes."""
    c, n = params.c_L, len(ps)
    hs = np.array([complex(conformal_weight(params.Q + 1j * p, params)) for p in ps])
    terms = _level_terms(plan, N, L)
    stacks = _gram_factors(hs, c, N)
    kinds: dict = {}  # (pattern, marks bits) -> (marks, [vertex index])
    for v, vertex in enumerate(plan):
        pattern = tuple(vertex.own.index(e) for e in vertex.edges)
        marks = np.array([conformal_weight(x, params) for x in vertex.alphas], dtype=complex)
        kinds.setdefault((pattern, marks.tobytes()), (tuple(marks.tolist()), []))[1].append(v)
    tensors, built = [None] * len(plan), 0
    for (pattern, _bits), (marks, members) in kinds.items():
        d = len(set(pattern))
        levels = {lv[v] for _degs, lv in terms for v in members}
        factors = [[_on_axis(R, a, d) for R in stacks] for a in pattern]
        arrays = _vertex_tensors(marks, levels, [_on_axis(hs, a, d) for a in pattern], c)
        arrays = {lv: _fold(a, lv, factors) for lv, a in arrays.items()}
        built += n**d * len(arrays)
        for v in members:
            tensors[v] = {lv: _on_axes(a, plan[v].own, n, L) for lv, a in arrays.items()}
    exps = tuple(_on_axis(-c / 24.0 + hs.real, e, L) for e in range(L))
    return BlockSeries(exponents=exps, coeffs=_contract(plan, terms, tensors), N=N), built
