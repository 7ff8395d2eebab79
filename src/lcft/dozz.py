"""DOZZ structure constants and spectral densities built from them.

The three-point constant is

    C(a1, a2, a3) = (pi mu l(g^2/4) (g/2)^{2 - g^2/2})^{(2Q - abar)/g}
                    * Ups'(0) Ups(a1) Ups(a2) Ups(a3)
                    / [Ups(abar/2 - Q) prod_i Ups(abar/2 - a_i)],

abar = a1 + a2 + a3, accumulated in log domain.  Poles sit exactly on the
zero lattice of the denominator Upsilons; arguments closer than 1e-6 to that
lattice raise NearPole.  One Upsilon evaluator per gamma serves every call.

``_dozz`` evaluates the constant at every argument triple of three complex
arrays in one pass.  One lexsort of the arguments' bit patterns (signed zeros
kept apart, as log Gamma's branch cut does) leaves the distinct arguments.
The shift-budget check and the pole distance run once over the array of
distinct denominators, and then log Upsilon once over the array of all
distinct arguments, so every pole check comes first.  Constants that share
arguments (the same edge node at many vertices or grid points) share those
evaluations, and each constant keeps the bits it has alone.
``dozz_constant`` is the kernel at one triple, and ``_rho`` makes one kernel
call per spectral call, with each vertex's arguments read from the graph's
plan (``graphs._plan``) on the grid of its own edges' nodes; nothing is kept
between calls.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, NearPole
from .params import CftParams
from .special import UpsilonEvaluator, log_l_ratio

__all__ = ["dozz_constant"]

#: Denominator arguments closer than this to the Upsilon zero lattice raise NearPole.
_POLE_DISTANCE = 1e-6


def _lattice_distance(z, gamma: float):
    """Distance from every entry of a complex array to the zero lattice of
    Upsilon, (-g/2 N - 2/g N) union (Q + g/2 N + 2/g N).

    The lattice is real, so on each ray the nearest point is the lattice value
    nearest Re z: with t >= 0 the distance of Re z from the ray's base, b runs
    over the steps of the longer generator 2/g up to t/(2/g) + 1 and a is the
    floor or ceiling of the rest.  Each distance is the hypot of its real and
    imaginary parts, as a complex scalar's abs takes it."""
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    Q = gamma / 2.0 + 2.0 / gamma
    best = np.full(z.shape, math.inf)
    for base, sgn in ((0.0, -1.0), (Q, 1.0)):
        # lattice points base + sgn*(a*g/2 + b*2/g), a,b >= 0
        t = np.maximum(sgn * (x - base), 0.0)
        steps = (t / (2.0 / gamma)).astype(np.int64) + 2
        for b in range(int(steps.max(initial=0))):
            rem = (t - b * 2.0 / gamma) / (gamma / 2.0)
            for a in (np.maximum(np.floor(rem), 0.0), np.maximum(np.ceil(rem), 0.0)):
                pt = base + sgn * (a * gamma / 2.0 + b * 2.0 / gamma)
                best = np.where(b < steps, np.minimum(best, np.hypot(x - pt, y)), best)
    return best[()]


def _distinct(rows: np.ndarray) -> tuple:
    """The index of the first row of each distinct bit pattern among the rows
    of an (m, k) complex array, in ascending order of the words (real,
    imaginary) of column 0, then of column 1 and so on, as unsigned integers;
    and the index of each row's pattern among them.  Signed zeros stay apart,
    which np.unique would merge."""
    bits = np.ascontiguousarray(rows).view(np.uint64).reshape(len(rows), -1)
    order = np.lexsort(bits.T[::-1])
    ranked = bits[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    ids = np.empty(order.size, dtype=np.intp)
    ids[order] = np.cumsum(new) - 1
    return order[new], ids


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

    The guards run in this order, over the whole batch: a non-finite weight
    raises DomainError; any denominator that log Upsilon could not shift
    into its band within its budget raises BudgetExceeded before any pole
    distance is sought; any denominator near the zero lattice raises
    NearPole before the first log Upsilon.  The log sum runs in a lone constant's order, so each entry has
    the bits it has alone; a zero of a numerator Upsilon gives 0 and an exact
    pole raises NearPole."""
    gamma = params.gamma
    ev, log_ups_prime0 = _upsilon_evaluator(gamma)
    alphas = np.array(args, dtype=complex)
    finite = np.isfinite(alphas)
    if not finite.all():
        raise DomainError(f"DOZZ needs finite weights, got {alphas[~finite][0]}")
    abar = alphas[0] + alphas[1] + alphas[2]
    # columns: the numerators alpha_i, then the denominators abar/2 - Q, abar/2 - alpha_i
    cols = np.stack([*alphas, abar / 2.0 - params.Q, *(abar / 2.0 - a for a in alphas)], axis=1)
    flat = cols.ravel()
    first, ids = _distinct(flat[:, None])
    ids = ids.reshape(cols.shape)
    denominator = np.zeros(first.size, dtype=bool)
    denominator[ids[:, 3:]] = True
    z = flat[first[denominator]]
    ev.check_shift_budget(z)
    distance = np.full(first.size, math.inf)
    distance[denominator] = _lattice_distance(z, gamma)
    near = distance[ids[:, 3:]] < _POLE_DISTANCE
    if near.any():
        raise NearPole(
            f"DOZZ denominator argument {cols[:, 3:][near][0]} within {_POLE_DISTANCE} "
            "of the Upsilon zero lattice"
        )
    # the flat kernel: perfbench's tracer keys each log_upsilon call by its
    # hashed arguments, which an array is not
    terms = ev._log_upsilon(flat[first])[ids]
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


def _rho(plan, ps, L: int, params: CftParams) -> tuple:
    """The engine's bare DOZZ product with the nodes ``ps`` on each of the L
    edges, as an array that broadcasts to shape (n,) * L, the number of vertex
    factors and the number of distinct log Upsilon arguments.  Each vertex's
    factors are taken on the grid of its own edges' nodes and laid on their
    axes: Q + i sigma p on its edge slots and alpha on its marked slots, in
    slot order, all in one _dozz call."""
    ps = np.asarray(ps, dtype=float)
    slot_args, views, built = ([], [], []), [], 0
    for vertex in plan:
        own, grid, shape = vertex.grid(len(ps), L)
        for column, (eidx, x) in zip(slot_args, vertex.slots):
            if eidx is None:
                column.append(np.full(grid.shape[1], x, dtype=complex))
            else:
                column.append(params.Q + 1j * x * ps[grid[own.index(eidx)]])
        views.append((built, grid.shape[1], shape))
        built += grid.shape[1]
    factors, evals = _dozz([np.concatenate(column) for column in slot_args], params)
    return functools.reduce(np.multiply, (factors[b : b + k].reshape(s) for b, k, s in views)), built, evals
