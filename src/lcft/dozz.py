"""DOZZ structure constants and spectral densities built from them.

The three-point constant is

    C(a1, a2, a3) = (pi mu l(g^2/4) (g/2)^{2 - g^2/2})^{(2Q - abar)/g}
                    * Ups'(0) Ups(a1) Ups(a2) Ups(a3)
                    / [Ups(abar/2 - Q) prod_i Ups(abar/2 - a_i)],

abar = a1 + a2 + a3, accumulated in log domain.  Poles sit exactly on the
zero lattice of the denominator Upsilons; arguments closer than
``zero_threshold`` to that lattice raise NearPole.
"""

from __future__ import annotations

import cmath
import math

from .errors import NearPole
from .params import CftParams
from .special import UpsilonEvaluator, log_l_ratio

__all__ = ["DozzEvaluator", "dozz_constant", "rho_density"]


def _lattice_distance(z: complex, gamma: float) -> float:
    """Distance from z to the zero lattice of Upsilon,
    (-g/2 N - 2/g N) union (Q + g/2 N + 2/g N)."""
    Q = gamma / 2.0 + 2.0 / gamma
    best = math.inf
    x = z.real
    for base, sgn in ((0.0, -1.0), (Q, 1.0)):
        # lattice points base + sgn*(a*g/2 + b*2/g), a,b >= 0
        reach = abs(x - base) + abs(z.imag) + gamma  # conservative search radius
        amax = int(reach / (gamma / 2.0)) + 2
        for a in range(amax):
            rem = reach - a * gamma / 2.0
            bmax = int(rem / (2.0 / gamma)) + 2
            for b in range(bmax):
                pt = base + sgn * (a * gamma / 2.0 + b * 2.0 / gamma)
                best = min(best, abs(z - pt))
        if best == 0.0:
            return 0.0
    return best


class DozzEvaluator:
    """Shared per-gamma evaluator: one UpsilonEvaluator amortized across the
    thousands of structure-constant calls a quadrature loop makes."""

    _cache: dict = {}

    def __new__(cls, gamma: float, **kw):
        key = (gamma, tuple(sorted(kw.items())))
        if key not in cls._cache:
            inst = super().__new__(cls)
            inst.ev = UpsilonEvaluator(gamma, **kw)
            inst.gamma = gamma
            inst._log_ups_prime0 = None
            cls._cache[key] = inst
        return cls._cache[key]

    def log_upsilon(self, z: complex) -> complex:
        return self.ev.log_upsilon(z)

    def log_upsilon_prime0(self) -> complex:
        if self._log_ups_prime0 is None:
            self._log_ups_prime0 = self.ev.log_upsilon(self.gamma / 2.0)
        return self._log_ups_prime0


def dozz_constant(
    alpha1: complex,
    alpha2: complex,
    alpha3: complex,
    params: CftParams,
    zero_threshold: float = 1e-6,
) -> complex:
    """C^DOZZ_{gamma,mu}(alpha1, alpha2, alpha3), log-domain throughout."""
    gamma = params.gamma
    dz = DozzEvaluator(gamma)
    abar = alpha1 + alpha2 + alpha3
    denom_args = [
        abar / 2.0 - params.Q,
        abar / 2.0 - alpha1,
        abar / 2.0 - alpha2,
        abar / 2.0 - alpha3,
    ]
    for arg in denom_args:
        if _lattice_distance(complex(arg), gamma) < zero_threshold:
            raise NearPole(
                f"DOZZ denominator argument {arg} within {zero_threshold} of the Upsilon zero lattice"
            )
    base = (
        math.log(math.pi * params.mu)
        + log_l_ratio(gamma**2 / 4.0).real
        + (2.0 - gamma**2 / 2.0) * math.log(gamma / 2.0)
    )
    log_c = (2.0 * params.Q - abar) / gamma * base
    log_c += dz.log_upsilon_prime0()
    for a in (alpha1, alpha2, alpha3):
        log_c += dz.log_upsilon(complex(a))
    for arg in denom_args:
        log_c -= dz.log_upsilon(complex(arg))
    if log_c.real == -math.inf:
        return 0.0 + 0.0j
    if log_c.real == math.inf:
        raise NearPole(f"DOZZ pole hit exactly at ({alpha1}, {alpha2}, {alpha3})")
    return cmath.exp(log_c)


def _dozz_plan(graph, alphas) -> tuple:
    """Per-graph half of rho_density: for each vertex (in ``graph.vertex_ids``
    order) its slots in order, as (edge index, orientation sign) for an edge
    slot and (None, alpha) for a marked slot."""
    alpha_of = {(m.vertex, m.slot): a for m, a in zip(graph.marked, alphas)}
    slot_map = graph.slot_map()
    return tuple(
        tuple(
            (eidx, graph.orientation_sign(vid, k)) if kind == "edge" else (None, alpha_of[(vid, k)])
            for k, kind, eidx in slot_map[vid]
        )
        for vid in graph.vertex_ids
    )


def _vertex_dozz(slots, p_vector, params: CftParams, zero_threshold: float = 1e-6) -> complex:
    """DOZZ factor of one planned vertex: Q + i sigma p on its edge slots and
    alpha on its marked slots."""
    args = [x if eidx is None else params.Q + 1j * x * p_vector[eidx] for eidx, x in slots]
    return dozz_constant(*args, params, zero_threshold)


def _density(factors) -> complex:
    """Vertex-ordered product of the DOZZ factors."""
    return math.prod(factors, start=1.0 + 0.0j)


def rho_density(
    graph,
    alphas,
    p_vector,
    params: CftParams,
    zero_threshold: float = 1e-6,
) -> complex:
    """Spectral density of a pants graph: one DOZZ factor per vertex with
    arguments Q + i sigma p on edge slots (sigma the orientation sign) and the
    marked alphas elsewhere.

    Always complex.  Self-conjugate graphs (the torus self-loop, genus 2) are
    real up to roundoff; chains with k >= 2 are complex pointwise, reality
    being restored only after the symmetrized spectral integral.
    """
    return _density(
        _vertex_dozz(slots, p_vector, params, zero_threshold) for slots in _dozz_plan(graph, alphas)
    )
