"""The spectral engine at one node tuple (p_1, ..., p_L): the private path
``graph_correlator`` runs (``graphs._plan``, ``graphs._projections``, then
``dozz._rho`` and ``blocks._block_series``), over a single tuple."""

import numpy as np

from lcft.blocks import BlockSeries, _block_series, _require_edge_slots
from lcft.dozz import _rho
from lcft.graphs import _plan, _projections


def _one_tuple(graph) -> tuple:
    """The graph's plan, the (L, 1) index array of the tuple and its projections."""
    plan = _plan(graph)
    tuples = np.arange(len(graph.edges))[:, None]
    return plan, tuples, _projections(plan, tuples)


def tuple_rho(graph, ps, params) -> complex:
    """The bare DOZZ product of the graph at p = ps, one p per edge."""
    plan, _tuples, projections = _one_tuple(graph)
    return complex(_rho(plan, [float(p) for p in ps], projections, params)[0][0])


def tuple_block(graph, ps, params, N: int = 4) -> BlockSeries:
    """The graph's block at p = ps, with scalar coefficients and exponents."""
    plan, tuples, projections = _one_tuple(graph)
    _require_edge_slots(graph, plan)
    series, _built = _block_series(plan, [float(p) for p in ps], tuples, projections, params, N)
    coeffs = {degs: complex(co[0]) for degs, co in series.coeffs.items()}
    return BlockSeries(tuple(float(e[0]) for e in series.exponents), coeffs, N)
