"""DOZZ structure constants and spectral densities built from them.

The three-point constant is

    C(a1, a2, a3) = (pi mu l(g^2/4) (g/2)^{2 - g^2/2})^{(2Q - abar)/g}
                    * Ups'(0) Ups(a1) Ups(a2) Ups(a3)
                    / [Ups(abar/2 - Q) prod_i Ups(abar/2 - a_i)],

abar = a1 + a2 + a3, accumulated in log domain.  Poles sit exactly on the
zero lattice of the denominator Upsilons; arguments closer than 1e-6 to that
lattice raise NearPole.  One Upsilon evaluator per gamma serves every call.

``_dozz`` evaluates the constant at every argument triple of three complex
arrays in one pass.  One dedupe over the arguments' bit patterns (signed zeros
kept apart, as loggamma's branch cut does) gives each distinct argument one
log Upsilon and each distinct denominator one pole distance, every pole check
first; constants that share arguments (the same edge node at many vertices or
node tuples) share those evaluations, and each constant keeps the bits it has
alone.  ``dozz_constant`` is the kernel at one triple, and ``_rho`` makes one
kernel call per spectral call, with each vertex's arguments read from the
graph's plan and projections (``graphs._plan``, ``graphs._projections``);
nothing is kept between calls.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NearPole
from .graphs import _plan, _projections
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


def dozz_constant(
    alpha1: complex,
    alpha2: complex,
    alpha3: complex,
    params: CftParams,
) -> complex:
    """C^DOZZ_{gamma,mu}(alpha1, alpha2, alpha3), log-domain throughout."""
    return complex(_dozz(([alpha1], [alpha2], [alpha3]), params)[0][0])


def _dozz(args, params: CftParams) -> tuple:
    """C^DOZZ at the triples (args[0][i], args[1][i], args[2][i]) of three
    complex arrays, and the number of distinct log Upsilon arguments.

    Any denominator near the zero lattice raises NearPole before the first
    log Upsilon.  The log sum runs in a lone constant's order, so each entry
    has the bits it has alone; a zero of a numerator Upsilon gives 0 and an
    exact pole raises NearPole."""
    gamma = params.gamma
    ev, log_ups_prime0 = _upsilon_evaluator(gamma)
    alphas = [np.asarray(a, dtype=complex) for a in args]
    abar = alphas[0] + alphas[1] + alphas[2]
    # columns: the numerators alpha_i, then the denominators abar/2 - Q, abar/2 - alpha_i
    cols = np.stack([*alphas, abar / 2.0 - params.Q, *(abar / 2.0 - a for a in alphas)], axis=1)
    flat = cols.ravel()
    _bits, first, ids = np.unique(
        flat.view(np.uint64).reshape(-1, 2), axis=0, return_index=True, return_inverse=True
    )
    ids = ids.reshape(cols.shape)
    distance = np.full(len(first), math.inf)
    for i in np.unique(ids[:, 3:]):
        distance[i] = _lattice_distance(complex(flat[first[i]]), gamma)
    near = distance[ids[:, 3:]] < _POLE_DISTANCE
    if near.any():
        raise NearPole(
            f"DOZZ denominator argument {cols[:, 3:][near][0]} within {_POLE_DISTANCE} "
            "of the Upsilon zero lattice"
        )
    terms = np.array([ev.log_upsilon(z) for z in flat[first].tolist()])[ids]
    base = (
        math.log(math.pi * params.mu)
        + log_l_ratio(gamma**2 / 4.0).real
        + (2.0 - gamma**2 / 2.0) * math.log(gamma / 2.0)
    )
    # (2Q - abar) / gamma componentwise, as a complex scalar divides by a
    # float; numpy's complex division multiplies by 1/gamma instead
    log_c = np.divide((2.0 * params.Q - abar).view(float), gamma).view(complex) * base
    log_c = log_c + log_ups_prime0
    for k in range(3):
        log_c = log_c + terms[:, k]
    for k in range(3, 7):
        log_c = log_c - terms[:, k]
    pole = log_c.real == math.inf
    if pole.any():
        raise NearPole(f"DOZZ pole hit exactly at {tuple(cols[np.argmax(pole), :3].tolist())}")
    zero = log_c.real == -math.inf
    return np.where(zero, 0.0, np.exp(np.where(zero, 0.0, log_c))), len(first)


def _rho(plan, ps, projections: list, params: CftParams) -> tuple:
    """The engine's bare DOZZ product at node tuples, as an array over the
    tuples that ``projections`` (from graphs._projections) projects onto each
    vertex's edges, the number of vertex factors and the number of distinct
    log Upsilon arguments.  ``ps`` holds the edges' p values.  Each vertex's
    factors are taken over its distinct projections: Q + i sigma p on its edge
    slots and alpha on its marked slots, in slot order, all in one _dozz call."""
    ps = np.asarray(ps, dtype=float)
    slot_args, gathers, built = ([], [], []), [], 0
    for vertex, (own, distinct, rows) in zip(plan, projections):
        for column, (eidx, x) in zip(slot_args, vertex.slots):
            if eidx is None:
                column.append(np.full(distinct.shape[1], x, dtype=complex))
            else:
                column.append(params.Q + 1j * x * ps[distinct[own.index(eidx)]])
        gathers.append(built + rows)
        built += distinct.shape[1]
    factors, evals = _dozz([np.concatenate(column) for column in slot_args], params)
    return functools.reduce(np.multiply, (factors[g] for g in gathers)), built, evals


def rho_density(graph, p_vector, params: CftParams) -> complex:
    """Spectral density of a pants graph: one DOZZ factor per vertex with
    arguments Q + i sigma p on edge slots (sigma the orientation sign) and the
    marked points' alphas elsewhere.  It is the spectral engine's density at
    the one node tuple (p_1, ..., p_L).

    Always complex.  Self-conjugate graphs (the torus self-loop, genus 2) are
    real up to roundoff; chains with k >= 2 are complex pointwise, reality
    being restored only after the symmetrized spectral integral.
    """
    plan = _plan(graph)
    projections = _projections(plan, np.arange(len(graph.edges))[:, None])
    return complex(_rho(plan, [float(p) for p in p_vector], projections, params)[0][0])
