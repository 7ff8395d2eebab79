"""DOZZ structure constants and spectral densities built from them.

The three-point constant is

    C(a1, a2, a3) = (pi mu l(g^2/4) (g/2)^{2 - g^2/2})^{(2Q - abar)/g}
                    * Ups'(0) Ups(a1) Ups(a2) Ups(a3)
                    / [Ups(abar/2 - Q) prod_i Ups(abar/2 - a_i)],

abar = a1 + a2 + a3, accumulated in log domain.  Poles sit exactly on the
zero lattice of the denominator Upsilons; arguments closer than 1e-6 to that
lattice raise NearPole.  One Upsilon evaluator per gamma serves every call.

Every factor takes a memo dict from its caller: log Upsilon(z) and the pole
distance of z are evaluated once per exact complex argument in it, so the
constants that share arguments (the same edge node at many vertices or node
tuples) share those evaluations.  A hit returns the bits a fresh evaluation
would.  ``dozz_constant`` uses a fresh dict, ``rho_density`` one dict for its
vertices and ``bootstrap.graph_correlator`` one dict per call; nothing is kept
between calls.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .blocks import _block_plan, _projections
from .errors import NearPole
from .params import CftParams
from .special import UpsilonEvaluator, log_l_ratio

__all__ = ["dozz_constant", "rho_density"]

#: Denominator arguments closer than this to the Upsilon zero lattice raise NearPole.
_POLE_DISTANCE = 1e-6


def _lattice_distance(z: complex, gamma: float) -> float:
    """Distance from z to the zero lattice of Upsilon,
    (-g/2 N - 2/g N) union (Q + g/2 N + 2/g N).

    The lattice is real, so on each ray the nearest point is the lattice value
    nearest Re z: with t >= 0 the distance of Re z from the ray's base along
    the ray, a <= t/(g/2) + 1 and b is the floor or ceiling of the rest."""
    Q = gamma / 2.0 + 2.0 / gamma
    best = math.inf
    for base, sgn in ((0.0, -1.0), (Q, 1.0)):
        # lattice points base + sgn*(a*g/2 + b*2/g), a,b >= 0
        t = max(sgn * (z.real - base), 0.0)
        for a in range(int(t / (gamma / 2.0)) + 2):
            rem = (t - a * gamma / 2.0) / (2.0 / gamma)
            for b in (max(math.floor(rem), 0), max(math.ceil(rem), 0)):
                pt = base + sgn * (a * gamma / 2.0 + b * 2.0 / gamma)
                best = min(best, abs(z - pt))
    return best


@functools.lru_cache(maxsize=None)
def _upsilon_evaluator(gamma: float) -> tuple[UpsilonEvaluator, complex]:
    """The Upsilon evaluator at gamma, shared by every structure constant,
    and log Upsilon'(0) = log Upsilon(gamma/2)."""
    ev = UpsilonEvaluator(gamma)
    return ev, ev.log_upsilon(gamma / 2.0)


def _once(memo: dict, tag: str, z: complex, evaluate, *args):
    """evaluate(z, *args), computed once per tag and exact z in ``memo``.  The
    key tells signed zeros apart, as loggamma's branch cut does."""
    key = (tag, z, math.copysign(1.0, z.real), math.copysign(1.0, z.imag))
    if key not in memo:
        memo[key] = evaluate(z, *args)
    return memo[key]


def _upsilon_evals(memo: dict) -> int:
    """Number of log Upsilon evaluations stored in ``memo``."""
    return sum(key[0] == "log_upsilon" for key in memo)


def dozz_constant(
    alpha1: complex,
    alpha2: complex,
    alpha3: complex,
    params: CftParams,
) -> complex:
    """C^DOZZ_{gamma,mu}(alpha1, alpha2, alpha3), log-domain throughout."""
    return _dozz((alpha1, alpha2, alpha3), params, {})


def _dozz(alphas, params: CftParams, memo: dict) -> complex:
    """dozz_constant(*alphas, params) with its log Upsilons and pole distances
    looked up in, or added to, ``memo``."""
    gamma = params.gamma
    ev, log_ups_prime0 = _upsilon_evaluator(gamma)
    alpha1, alpha2, alpha3 = alphas
    abar = alpha1 + alpha2 + alpha3
    denom_args = [
        abar / 2.0 - params.Q,
        abar / 2.0 - alpha1,
        abar / 2.0 - alpha2,
        abar / 2.0 - alpha3,
    ]
    for arg in denom_args:
        if _once(memo, "distance", complex(arg), _lattice_distance, gamma) < _POLE_DISTANCE:
            raise NearPole(
                f"DOZZ denominator argument {arg} within {_POLE_DISTANCE} of the Upsilon zero lattice"
            )
    base = (
        math.log(math.pi * params.mu)
        + log_l_ratio(gamma**2 / 4.0).real
        + (2.0 - gamma**2 / 2.0) * math.log(gamma / 2.0)
    )
    log_c = (2.0 * params.Q - abar) / gamma * base
    log_c += log_ups_prime0
    for a in (alpha1, alpha2, alpha3):
        log_c += _once(memo, "log_upsilon", complex(a), ev.log_upsilon)
    for arg in denom_args:
        log_c -= _once(memo, "log_upsilon", complex(arg), ev.log_upsilon)
    if log_c.real == -math.inf:
        return 0.0 + 0.0j
    if log_c.real == math.inf:
        raise NearPole(f"DOZZ pole hit exactly at ({alpha1}, {alpha2}, {alpha3})")
    return cmath.exp(log_c)


def _vertex_dozz(vertex, p_vector, params: CftParams, memo: dict) -> complex:
    """DOZZ factor of one planned vertex (``blocks._Vertex``): Q + i sigma p
    on its edge slots and alpha on its marked slots, in slot order."""
    args = [x if eidx is None else params.Q + 1j * x * p_vector[eidx] for eidx, x in vertex.slots]
    return _dozz(args, params, memo)


def _rho(plan, ps, tuples, params: CftParams, memo: dict) -> tuple:
    """The engine's bare DOZZ product at node tuples, as an array over the
    columns of the (L, n) array ``tuples`` (indices into the edges' p values
    ``ps``), and the number of vertex factors built."""
    rho, built = None, 0
    for vertex, (own, distinct, rows) in zip(plan, _projections(plan, tuples)):
        edge_ps = ({e: ps[i] for e, i in zip(own, t)} for t in distinct.T)
        factors = np.array([_vertex_dozz(vertex, p_vector, params, memo) for p_vector in edge_ps])
        built += len(factors)
        rho = factors[rows] if rho is None else rho * factors[rows]
    return rho, built


def rho_density(graph, p_vector, params: CftParams) -> complex:
    """Spectral density of a pants graph: one DOZZ factor per vertex with
    arguments Q + i sigma p on edge slots (sigma the orientation sign) and the
    marked points' alphas elsewhere.  It is the spectral engine's density at
    the one node tuple (p_1, ..., p_L).

    Always complex.  Self-conjugate graphs (the torus self-loop, genus 2) are
    real up to roundoff; chains with k >= 2 are complex pointwise, reality
    being restored only after the symmetrized spectral integral.
    """
    plan = _block_plan(graph, params)
    tuples = np.arange(len(graph.edges))[:, None]
    return complex(_rho(plan, [float(p) for p in p_vector], tuples, params, {})[0][0])
