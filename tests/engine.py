"""The spectral engine at one node tuple (p_1, ..., p_L): the private path
``graph_correlator`` runs (``graphs._plan``, then ``dozz._rho`` and
``blocks._block_series``), on the nodes ``ps``, read at the entry
(0, 1, ..., L - 1), where edge e is at node ps[e]."""

import numpy as np

from lcft.blocks import BlockSeries, _block_series, _require_edge_slots
from lcft.dozz import _rho
from lcft.graphs import _plan


def _entry(a, L: int):
    """The entry (0, 1, ..., L - 1) of an array that broadcasts to (L,) * L."""
    return np.broadcast_to(a, (L,) * L)[tuple(range(L))]


def tuple_rho(graph, ps, params) -> complex:
    """The bare DOZZ product of the graph at p = ps, one p per edge."""
    L = len(graph.edges)
    return complex(_entry(_rho(_plan(graph), [float(p) for p in ps], L, params)[0], L))


def tuple_block(graph, ps, params, N: int = 4) -> BlockSeries:
    """The graph's block at p = ps, with scalar coefficients and exponents."""
    plan, L = _plan(graph), len(graph.edges)
    _require_edge_slots(graph, plan)
    series, _built = _block_series(plan, [float(p) for p in ps], L, params, N)
    coeffs = {degs: complex(_entry(co, L)) for degs, co in series.coeffs.items()}
    return BlockSeries(tuple(float(_entry(e, L)) for e in series.exponents), coeffs, N)
