"""Independent oracles, kept apart from the production modules: exact
arithmetic where it is feasible, otherwise a route that shares no code with
them.

* an exact-rational Virasoro commutator engine over Fractions (iterative
  worklist reduction, no recursion sharing with production code) that builds
  Shapovalov Gram matrices and vertex matrix elements;
* closed-form level-1 block coefficients;
* small Gaussian-integration helpers for the free-field kernels;
* det' Delta of the flat torus by spectral-zeta continuation of its heat
  trace, the oracle of the eta closed form.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def _insert_lowering(word: list[int], m: int) -> list[tuple[list[int], Fraction]]:
    """L_{-m} * L_{-word}|D> as a list of canonical (word, coeff) pieces.
    Words are ascending lists (leftmost operator first)."""
    if not word or m <= word[0]:
        return [([m] + word, Fraction(1))]
    head, tail = word[0], word[1:]
    out = []
    for w, co in _insert_lowering(tail, m):
        for w2, co2 in _insert_lowering(w, head):
            out.append((w2, co * co2))
    for w, co in _insert_lowering(tail, m + head):
        out.append((w, co * (head - m)))
    return out


def raise_once(k: int, word: list[int], delta: Fraction, c: Fraction):
    """L_k (k > 0) applied to the canonical word; returns [(word, coeff)]."""
    assert k > 0
    if not word:
        return []
    head, tail = word[0], word[1:]
    out = []
    # commutator [L_k, L_{-head}]
    n = k - head
    if n == 0:
        lvl = sum(tail)
        out.append((list(tail), (delta + lvl) * (k + head)))
        if k == head:
            out.append((list(tail), c * Fraction(k**3 - k, 12)))
    elif n < 0:
        for w, co in _insert_lowering(list(tail), -n):
            out.append((w, co * (k + head)))
    else:
        for w, co in raise_once(n, list(tail), delta, c):
            out.append((w, co * (k + head)))
    # push L_k through
    for w, co in raise_once(k, list(tail), delta, c):
        for w2, co2 in _insert_lowering(w, head):
            out.append((w2, co * co2))
    return out


def _collect(pieces) -> dict:
    out: dict = {}
    for w, co in pieces:
        key = tuple(w)
        out[key] = out.get(key, Fraction(0)) + co
    return {k: v for k, v in out.items() if v != 0}


def gram_entry(nu_bra, nu_ket, delta: Fraction, c: Fraction) -> Fraction:
    """<L_{-nu_bra} D, L_{-nu_ket} D> with partitions given non-increasing."""
    bra = sorted(nu_bra)  # ascending word: adjoint raising ops applied smallest first
    state = {tuple(sorted(nu_ket)): Fraction(1)}
    for k in bra:
        pieces = []
        for w, co in state.items():
            for w2, co2 in raise_once(k, list(w), delta, c):
                pieces.append((w2, co * co2))
        state = _collect(pieces)
        if not state:
            return Fraction(0)
    return state.get((), Fraction(0))


def exact_partitions(n: int, max_part=None):
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in exact_partitions(n - first, first):
            out.append((first,) + rest)
    return out


def gram_matrix(delta: Fraction, c: Fraction, n: int):
    basis = exact_partitions(n)
    return [[gram_entry(bi, bj, delta, c) for bj in basis] for bi in basis]


def exact_det(mat) -> Fraction:
    """Fraction determinant by cofactor/Gauss elimination (small matrices)."""
    m = [row[:] for row in mat]
    n = len(m)
    det = Fraction(1)
    for i in range(n):
        piv = None
        for r in range(i, n):
            if m[r][i] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = -det
        det *= m[i][i]
        inv = Fraction(1) / m[i][i]
        for r in range(i + 1, n):
            f = m[r][i] * inv
            if f:
                for col in range(i, n):
                    m[r][col] -= f * m[i][col]
    return det


def vertex_element(nu_out, nu_in, h_out: Fraction, d_mid: Fraction, h_in: Fraction, c: Fraction) -> Fraction:
    """<h_out, nu_out | V(1) | h_in, nu_in> normalized to 1 between primaries,
    reduced with [L_k, V(1)] = (z d/dz + (k+1) Delta) V(z)|_{z=1}."""
    out_word = sorted(nu_out)
    ket = {tuple(sorted(nu_in)): Fraction(1)}

    def elem(out_rest: list[int], ket_state: dict) -> Fraction:
        if out_rest:
            k = out_rest[0]
            rest = out_rest[1:]
            total = Fraction(0)
            for w, co in ket_state.items():
                grading = h_out + sum(rest) - h_in - sum(w) - d_mid + (k + 1) * d_mid
                total += co * grading * elem(rest, {w: Fraction(1)})
                moved = _collect(raise_once(k, list(w), h_in, c))
                if moved:
                    total += co * elem(rest, moved)
            return total
        total = Fraction(0)
        for w, co in ket_state.items():
            if not w:
                total += co
                continue
            m = w[0]
            rest_lvl = sum(w) - m
            factor = -(h_out - h_in - rest_lvl - d_mid + (1 - m) * d_mid)
            total += co * factor * elem([], {tuple(w[1:]): Fraction(1)})
        return total

    return elem(out_word, ket)


def torus_level1_coeff(d_alpha, d_h):
    """Exact level-1 torus one-point block coefficient."""
    return d_alpha * (d_alpha - 1) / (2 * d_h) + 1


def gauss_integral(a, b, c0):
    """int exp(-a x^2 + b x + c0) dx = sqrt(pi/a) exp(b^2/(4a) + c0), a > 0."""
    return math.sqrt(math.pi / a) * math.exp(b * b / (4.0 * a) + c0)


def _heat_trace(t: float, tau: complex, radius: float) -> float:
    """theta(t) = sum over the frequency lattice of e^{-t lambda} on the torus
    C/(R Z + R tau Z); for small t the Poisson-dual form
    theta = (A/t) sum_{a,b} e^{-pi^2 |a tau + b|^2 / (t scale)} is used
    (A = area/(4 pi), scale = (2 pi / R)^2)."""
    tau = complex(tau)
    scale = (2.0 * math.pi / radius) ** 2
    area = radius**2 * tau.imag
    A = area / (4.0 * math.pi)
    if t < 1.0:
        tt = t * scale
        B = int(math.ceil(math.sqrt(tt * 45.0) / (math.pi * min(1.0, tau.imag)))) + 2
        a = np.arange(-B, B + 1)
        total = np.sum(np.exp(-math.pi**2 * np.abs(a[:, None] * tau + a[None, :]) ** 2 / tt))
        return (A / t) * float(total)
    lam_unit = scale / tau.imag**2
    B = int(math.ceil(math.sqrt(45.0 / (t * lam_unit)) * (1 + abs(tau)))) + 2
    m = np.arange(-B, B + 1)
    lam = scale * np.abs(m[None, :] - m[:, None] * tau) ** 2 / tau.imag**2
    return float(np.sum(np.exp(-t * lam[t * lam < 45.0])))


def det_prime_torus_zeta(tau: complex, radius: float = 2.0 * math.pi) -> float:
    """det' Delta by direct zeta regularization: with theta(t) the heat trace
    and A = area/(4 pi),

        zeta'(0) = int_0^1 (theta - A/t) dt/t + int_1^oo (theta - 1) dt/t
                   - A - euler_gamma,
        det' = exp(-zeta'(0)),

    each integral by a 200-point Gauss-Legendre rule."""
    tau = complex(tau)
    A = radius**2 * tau.imag / (4.0 * math.pi)
    x, w = np.polynomial.legendre.leggauss(200)
    # I0 on (0, 1): substitute t = s^2 to soften the t -> 0 end
    s, ws = 0.5 * (x + 1.0), 0.5 * w
    I0 = float(np.sum(ws * 2.0 * s * np.array(
        [(_heat_trace(si**2, tau, radius) - A / si**2) / si**2 for si in s]
    )))
    # I1 on (1, 1 + span]: the integrand decays like e^{-lambda_min t}
    scale = (2.0 * math.pi / radius) ** 2
    lam_min = scale * min(
        abs(n - m * tau) ** 2 / tau.imag**2
        for m in range(-2, 3)
        for n in range(-2, 3)
        if (m, n) != (0, 0)
    )
    span = 45.0 / lam_min
    tt, wt = 0.5 * span * (x + 1.0), 0.5 * span * w
    I1 = float(np.sum(wt * np.array([(_heat_trace(ti, tau, radius) - 1.0) / ti for ti in 1.0 + tt])))
    return math.exp(-(I0 + I1 - A - float(np.euler_gamma)))
