"""Spectral-integral evaluation of correlation functions.

Every correlator is a pants graph, and ``graph_correlator`` is the one
spectral integral: a weighted quadrature of

    rho(alpha, p) * |F_p(alpha, q)|^2

over one spectrum parameter p per linking edge, times 2^{L/2} / (2 pi)^{2L-1}
and one metric constant per vertex.  A vertex's constant is that of its
building block, fixed by its number of edge slots: Z_D/2 for a disk,
pi/(sqrt(2) e) for a flat annulus and 1 for a pant.  The three explicit
formulas are graph adapters, and these constants reproduce their closed-form
prefactors:

    torus one-point:  self-loop             1/(2e)
    torus k-point:    k-cycle of annuli     1/(2^{2k-1} pi^{k-1} e^k)
    sphere k-point:   disk-annulus...-disk  2^{-3/2} Z_D^2 / ((2 pi)^{k-3} (2e)^{k-4})

The sphere adapter multiplies the graph value by one p-independent scalar
S = const^2 prod_e |q_e|^{c_L/12}: const is the product of |z_j|-powers of the
marked points, and the |q| powers remove the graph's -c_L/24 plumbing exponent,
which the DOZZ-metric sphere formula does not have.

The adapters check only their geometry.  Every weight bound comes from
``graphs._violations`` on the graph they build: alpha > 0 on an annulus
vertex, alpha < Q everywhere, and for the sphere chain alpha_1 + alpha_2 > Q,
alpha_{k-1} + alpha_k > Q at the two disk vertices and sum(alpha) > 2Q.

The graph is read once into ``graphs._plan``, whose vertex records give each
vertex's weight bounds, DOZZ arguments, tensors, the edge of each tensor
slot, metric constant and share of the mu-exponent.  The integrand is one
array computation with one node axis per edge: ``dozz._rho`` and
``blocks._block_series`` take each vertex's DOZZ factors and tensors on the
grid of its own edges' nodes, the tensors' edge slots solved against one Gram
factor stack per level over the n nodes, and broadcasting spans the n^L node
tuples only in their products.  ``_rho`` makes one ``dozz._dozz``
call over every vertex's argument triples, which evaluates each distinct
log-Upsilon argument (and its pole distance) once, and ``_block_series`` one
tensor build per vertex kind (slot pattern and marked weights), on the grid
of the kind's own edges' nodes.  Nothing is kept
between calls, and a rule whose n^L tuples exceed ``_NODE_BUDGET`` raises
CostGuard before any of them is evaluated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .blocks import _block_series, _require_edge_slots
from .dozz import _rho
from .errors import CostGuard, DimensionMismatch, ValidationError
from .graphs import AdmissibleGraph, EdgeSpec, MarkedPoint, _plan, _violations
from .params import CftParams
from .special import _panel_rule
from .virasoro import conformal_weight

__all__ = [
    "Quadrature",
    "CorrelatorResult",
    "torus_one_point",
    "torus_k_point",
    "sphere_k_point",
    "graph_correlator",
    "ANNULUS_VERTEX_CONSTANT",
    "DISK_VERTEX_CONSTANT",
    "Z_DISK",
]

#: zeta_R'(-1) = mpmath.zeta(-1, derivative=1), rounded to double
_ZETA_PRIME_MINUS1 = -0.16542114370045094

#: Z_{D, g_D} = e^{1/4} 2^{1/12} pi^{1/4} e^{5/24 + zeta'(-1)}
Z_DISK = math.exp(0.25) * 2.0 ** (1.0 / 12.0) * math.pi**0.25 * math.exp(5.0 / 24.0 + _ZETA_PRIME_MINUS1)

#: Flat-annulus building-block constant C = pi / (sqrt(2) e): the metric
#: constant of every vertex with two edge slots.
ANNULUS_VERTEX_CONSTANT = math.pi / (math.sqrt(2.0) * math.e)

#: Disk building-block constant Z_D / 2: the metric constant of every vertex
#: with one edge slot.
DISK_VERTEX_CONSTANT = Z_DISK / 2.0

#: A vertex's metric constant by its number of edge slots.
_VERTEX_CONSTANTS = {1: DISK_VERTEX_CONSTANT, 2: ANNULUS_VERTEX_CONSTANT, 3: 1.0}

#: The cap on spectral evaluations (node tuples) of one correlator, read at
#: each call; a quadrature rule with more nodes, or with more than its square
#: root per panel (leggauss's dense companion matrix), is refused before it is
#: built.
_NODE_BUDGET = 10**6


@dataclass
class Quadrature:
    """Composite Gauss-Legendre rule on (0, p_max]."""

    p_max: float = 12.0
    panel_width: float = 0.5
    nodes_per_panel: int = 8
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # each bound is written so that NaN fails it; the nodes are counted
        # before the rule is built, the panel count capped against overflow
        finite = 0 < self.p_max < math.inf and 0 < self.panel_width < math.inf
        if not (finite and self.nodes_per_panel >= 1):
            raise ValidationError("quadrature parameters must be positive and finite")
        panels = max(1, round(min(self.p_max / self.panel_width, _NODE_BUDGET)))
        if panels * self.nodes_per_panel > _NODE_BUDGET or self.nodes_per_panel**2 > _NODE_BUDGET:
            raise CostGuard(
                f"{self.p_max / self.panel_width:.6g} panels of {self.nodes_per_panel} "
                f"quadrature nodes exceed budget {_NODE_BUDGET} (per panel, its square root)"
            )
        self.nodes, self.weights = _panel_rule(self.p_max, self.panel_width, self.nodes_per_panel)
        if not (np.all(np.diff(self.nodes) > 0) and np.all(self.weights > 0)):
            raise ValidationError("quadrature nodes must increase with positive weights")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def last_panel_slice(self) -> slice:
        return slice(len(self.nodes) - self.nodes_per_panel, len(self.nodes))


@dataclass
class CorrelatorResult:
    value: float
    imag_residual: float
    tail_fraction: float
    last_level_fraction: float
    mu_exponent: float
    n_evaluations: int
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValidationError(f"correlator value is not finite: {self.value}")


def _torus_cycle(alphas, qs) -> AdmissibleGraph:
    """k-cycle of annulus vertices 1..k (k = 1: a self-loop).  Edge j carries
    q_j from slot 2 of vertex (j+1) % k + 1 into slot 1 of vertex j+1, which
    holds alpha_j on slot 3 (j 0-based)."""
    k = len(alphas)
    return AdmissibleGraph(
        edges=[EdgeSpec(((j + 1) % k + 1, 2), (j + 1, 1), q=complex(q)) for j, q in enumerate(qs)],
        marked=[MarkedPoint(j + 1, 3, a) for j, a in enumerate(alphas)],
    )


def _sphere_chain(alphas, qs) -> AdmissibleGraph:
    """Disk-annulus...-disk chain of vertices 1..k-2 for k marked points.

    Edge e (0-based) carries q_e from vertex e+1 (slot 1 at the first disk,
    slot 2 elsewhere) into slot 1 of vertex e+2.  Vertex 1 holds alpha_2,
    alpha_1 on slots 2, 3; annulus vertex v holds alpha_{v+1} on slot 3;
    vertex k-2 holds alpha_{k-1}, alpha_k on slots 2, 3 (alphas 1-based).
    """
    k = len(alphas)
    edges = [EdgeSpec((e + 1, 1 if e == 0 else 2), (e + 2, 1), q=complex(q)) for e, q in enumerate(qs)]
    marked = [MarkedPoint(1, 2, alphas[1]), MarkedPoint(1, 3, alphas[0])]
    marked += [MarkedPoint(v, 3, alphas[v]) for v in range(2, k - 2)]
    marked += [MarkedPoint(k - 2, 2, alphas[k - 2]), MarkedPoint(k - 2, 3, alphas[k - 1])]
    return AdmissibleGraph(edges=edges, marked=marked)


def _sphere_scalar(alphas, mags, qs, params: CftParams) -> float:
    """p-independent factor S = const^2 prod_e |q_e|^{c_L/12} taking the sphere
    chain graph to the DOZZ-metric k-point function.

    ``mags`` are |z_2|, ..., |z_{k-1}|.  const carries |z_j|^{-Delta_j} inside
    the unit circle and |z_j|^{+Delta_j} outside, plus |z_2|^{-Delta_1} for
    z_1 = 0 and |z_{k-1}|^{Delta_k} for z_k = infinity.  The |q| powers cancel
    the graph's -c_L/24 plumbing exponent per edge, which the sphere formula
    does not have.
    """
    d = [conformal_weight(a, params).real for a in alphas]
    const = mags[0] ** (-d[0]) * mags[-1] ** d[-1]
    for m, dj in zip(mags, d[1:-1]):
        const *= m ** (-dj) if m < 1.0 else m**dj
    return const**2 * math.prod(abs(q) ** (params.c_L / 12.0) for q in qs)


def torus_one_point(
    alpha1: float,
    tau: complex,
    params: CftParams,
    quad: Quadrature | None = None,
    N: int = 6,
) -> CorrelatorResult:
    """<V_alpha1(0)> on the torus C/(2 pi Z + 2 pi tau Z) with metric |dz|^2:

        (1/2e) int_0^oo C(Q+ip, alpha1, Q-ip) |F_p(alpha1, q)|^2 dp,
        q = e^{2 pi i tau},

    evaluated as torus_k_point at the one point x_1 = 0: the self-loop graph
    with one annulus vertex.  ``details`` keeps the engine's keys, with ``rho``
    made real, and adds ``q``.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValidationError(f"Im tau must be positive, got {tau}")
    res = torus_k_point([alpha1], [0], tau, params, quad, N)
    return replace(res, details={**res.details, "q": res.details["q"][0], "rho": res.details["rho"].real})


def torus_k_point(
    alphas,
    x_positions,
    tau: complex,
    params: CftParams,
    quad: Quadrature | None = None,
    N: int = 4,
) -> CorrelatorResult:
    """k-point function on the torus, marked points x_j (x_1 = 0, increasing
    imaginary parts below 2 pi Im tau), moduli q_j = z_{j+1}/z_j with
    z_j = e^{i x_j} and q_k = e^{2 pi i tau} / z_k; evaluated as the k-cycle
    of annulus vertices.  ``details`` keeps the engine's keys and adds the
    moduli ``q``."""
    tau = complex(tau)
    k = len(alphas)
    if len(x_positions) != k:
        raise DimensionMismatch("need one position per weight")
    if abs(complex(x_positions[0])) != 0.0:
        raise ValidationError("x_1 must be 0")
    ims = [complex(x).imag for x in x_positions]
    if any(ims[j + 1] <= ims[j] for j in range(k - 1)) or ims[-1] >= 2 * math.pi * tau.imag:
        raise ValidationError("need Im x_j < Im x_{j+1} < 2 pi Im tau")

    zs = [np.exp(1j * complex(x)) for x in x_positions]
    qs = [zs[j + 1] / zs[j] for j in range(k - 1)] + [np.exp(2j * math.pi * tau) / zs[k - 1]]
    res = graph_correlator(_torus_cycle(alphas, qs), params, quad=quad, N=N)
    return replace(res, details={**res.details, "q": [complex(q) for q in qs]})


def sphere_k_point(
    alphas,
    z_positions,
    params: CftParams,
    quad: Quadrature | None = None,
    N: int = 4,
) -> CorrelatorResult:
    """k-point function on the sphere in the DOZZ metric; z_1 = 0, z_k = None
    (infinity), radially ordered |z_j| < |z_{j+1}| with |z_2| < 1 < |z_{k-1}|.

    Evaluated as the disk-annulus...-disk chain with moduli
    q_j = z_j / z_{j+1} (j = 2..k-2), times the scalar S of _sphere_scalar.
    The chain's disk vertices also require alpha_1 + alpha_2 > Q and
    alpha_{k-1} + alpha_k > Q.  ``details`` keeps the engine's keys, whose
    ``rho`` and ``block_abs2`` belong to the graph value before S, and adds
    the moduli ``q``.
    """
    k = len(alphas)
    if k < 4:
        raise ValidationError("sphere evaluation needs k >= 4 (fewer points have no moduli)")
    if len(z_positions) != k:
        raise DimensionMismatch("need one position per weight")
    if complex(z_positions[0]) != 0:
        raise ValidationError("z_1 must be 0")
    if z_positions[-1] is not None:
        raise ValidationError("z_k must be None (the point at infinity)")
    mags = [abs(complex(z)) for z in z_positions[1:-1]]
    if any(mags[j] >= mags[j + 1] for j in range(len(mags) - 1)):
        raise ValidationError("need |z_j| < |z_{j+1}|")
    if not (mags[0] < 1.0 < mags[-1]):
        raise ValidationError("need |z_2| < 1 < |z_{k-1}|")

    zs = [complex(z) for z in z_positions[:-1]]
    qs = [zs[j] / zs[j + 1] for j in range(1, k - 2)]  # q_j = z_j/z_{j+1}, j = 2..k-2 (1-based)
    res = graph_correlator(_sphere_chain(alphas, qs), params, quad=quad, N=N)
    return replace(
        res,
        value=res.value * _sphere_scalar(alphas, mags, qs, params),
        details={**res.details, "q": qs},
    )


def graph_correlator(
    graph: AdmissibleGraph,
    params: CftParams,
    quad: Quadrature | None = None,
    N: int = 4,
) -> CorrelatorResult:
    """Correlator of a validated pants graph:

        2^{L/2} / (2 pi)^{2L-1} * prod_v C_v *
            int rho(alpha, p) |F_p(alpha, q)|^2 dp  over p in R_+^L,

    with one DOZZ factor in rho and one metric constant C_v per vertex, that
    of its building block: DISK_VERTEX_CONSTANT with one edge slot,
    ANNULUS_VERTEX_CONSTANT with two and 1 with three.  ``details["prefactor"]``
    includes prod_v C_v; ``details["rho"]`` (the bare DOZZ product) and
    ``details["block_abs2"]`` hold the integrand's factors at every node, as
    arrays of shape (n_nodes,) * L.  ``details["gram_sets"]``,
    ``["dozz_factors"]``, ``["vertex_tensors"]`` and ``["upsilon_evals"]``
    count the Gram sets, vertex DOZZ factors, distinct vertex tensors
    (vertices of one kind with the same weights share them) and distinct
    log-Upsilon arguments evaluated.  ``tail_fraction`` is
    the share of the integral from nodes with any edge's p in the last panel."""
    q_vector = [complex(q) for q in graph.q_vector()]
    plan = _plan(graph)
    violations = _violations(graph, plan, params)
    if violations:
        raise ValidationError("; ".join(str(v) for v in violations))
    L = len(graph.edges)
    if any(not 0 < abs(q) < 1 for q in q_vector):
        raise ValidationError("all plumbing moduli must satisfy 0 < |q| < 1")
    quad = quad or Quadrature()
    if quad.n_nodes**L > _NODE_BUDGET:
        raise CostGuard(f"{quad.n_nodes}^{L} spectral evaluations exceed budget {_NODE_BUDGET}")
    _require_edge_slots(graph, plan)
    ps = [float(p) for p in quad.nodes]
    rho, dozz_factors, upsilon_evals = _rho(plan, ps, L, params)
    series, vertex_tensors = _block_series(plan, ps, L, params, N)
    block_abs2, last_level = series.abs2_and_last_level(q_vector)
    weights = math.prod(np.ix_(*[quad.weights] * L))  # outer product over the edges
    weighted = weights * rho * block_abs2
    total = complex(weighted.sum())
    # nodes with any edge's p in the last panel: their largest node index is in it
    largest_index = functools.reduce(np.maximum, np.indices(block_abs2.shape, sparse=True))
    tail = complex(weighted[largest_index >= quad.last_panel_slice().start].sum())
    pref = 2.0 ** (L / 2.0) / (2.0 * math.pi) ** (2 * L - 1) * math.prod(
        _VERTEX_CONSTANTS[len(vertex.edges)] for vertex in plan
    )
    value = pref * total
    mu_exp = sum(
        (2 * params.Q - len(vertex.edges) * params.Q - sum(vertex.alphas)) / params.gamma for vertex in plan
    )
    return CorrelatorResult(
        value=value.real,
        imag_residual=abs(value.imag) / abs(value) if value else 0.0,
        tail_fraction=abs(tail) / abs(total) if total else math.inf,
        last_level_fraction=float(last_level.max()),
        mu_exponent=mu_exp,
        n_evaluations=block_abs2.size,
        details={
            "prefactor": pref,
            "genus": graph.genus(),
            "L": L,
            "rho": rho,
            "block_abs2": block_abs2,
            "gram_sets": len(ps),
            "dozz_factors": dozz_factors,
            "vertex_tensors": vertex_tensors,
            "upsilon_evals": upsilon_evals,
        },
    )
