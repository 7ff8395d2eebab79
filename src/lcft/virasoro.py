"""Partition combinatorics and the Virasoro Verma-module algebra.

Basis convention: the level-n descendant attached to the partition
nu = (nu_1 >= nu_2 >= ... >= nu_k) is

    |D, nu>  =  L_{-nu_k} ... L_{-nu_1} |D>,

i.e. the largest part acts first on the highest-weight state.  A basis state
is keyed by its *operator word*: the ascending tuple (nu_k, ..., nu_1), read
left to right as operators; ``partitions`` lists the words of a level.  The
commutation relations

    [L_n, L_m] = (n - m) L_{n+m} + (c/12) (n^3 - n) delta_{n,-m}

together with L_m |D> = 0 (m > 0) and L_0 |D> = D |D> normal-order any word.

The generator action is written ring-agnostically: the weight ``delta`` and
central charge ``c`` may be floats, complex numbers, Fractions, numpy arrays
or any objects supporting +, *, and division by small integers.  Production
runs it once per call on complex arrays of weights (one entry per quadrature
node or node tuple) with c a float, so every descendant coefficient (Gram
entries here, radial elements and pant brackets in ``blocks``) comes out as
an array over the nodes.  Its recursion is memoised on (n, word) in one dict
per weight array and call (the Gram stacks of all levels share one; ``blocks``
keeps one per radial build and pant slot), whose expansions no caller mutates.
Every operation is out-of-place and elementwise, so an entry has the same bits
at any array length (numpy 2.4's in-place complex ``*=`` does not: on
one-element arrays it differs from ``a * b`` in 310 of 720 products).  At
dyadic-rational weights every product and partial sum is exact, which is what
makes the bit-for-bit oracle comparison in the tests meaningful.  ``_guard``
checks a Gram stack for DegenerateWeight before ``blocks`` factors it or
``shapovalov_inverse`` inverts its one matrix; no stack is inverted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateWeight, ValidationError
from .params import CftParams

__all__ = [
    "GramMatrix",
    "partitions",
    "conformal_weight",
    "kac_weight",
    "apply_generator_to_word",
    "shapovalov",
    "shapovalov_inverse",
]


@lru_cache(maxsize=None)
def _partition_tuples(n: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partition_tuples(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """The operator words of all partitions of n, largest-part-first
    (reverse-lexicographic) order of the partitions; one tuple per n serves
    every Gram build."""
    if n < 0:
        raise ValidationError(f"partition level must be >= 0, got {n}")
    return tuple(p[::-1] for p in _partition_tuples(n, n if n else 1))


def conformal_weight(alpha: complex, params: CftParams) -> complex:
    """Delta_alpha = (alpha/2)(Q - alpha/2)."""
    return (alpha / 2.0) * (params.Q - alpha / 2.0)


def kac_weight(r: int, s: int, params: CftParams) -> float:
    """Degenerate weight alpha_{r,s} = Q - r gamma/2 - s 2/gamma (r, s >= 1)."""
    if r < 1 or s < 1:
        raise ValidationError(f"Kac labels must satisfy r, s >= 1, got ({r}, {s})")
    return params.Q - r * params.gamma / 2.0 - s * 2.0 / params.gamma


# ---------------------------------------------------------------------------
# generator action on canonical words
# ---------------------------------------------------------------------------


def _accumulate(target: dict, word: tuple[int, ...], coeff) -> None:
    if word in target:
        target[word] = target[word] + coeff
    else:
        target[word] = coeff


def apply_generator_to_word(
    n: int, word: tuple[int, ...], delta, c, memo: dict | None = None
) -> dict:
    """L_n applied to the canonical word (ascending tuple); returns
    {word: coefficient} in canonical form.  Ring-agnostic in (delta, c).
    Every expansion, the recursion's own included, is kept in ``memo`` under
    (n, word): one memo per (delta, c), fresh when None.  Callers share the
    returned dicts, so none may mutate them."""
    memo = {} if memo is None else memo
    key = (n, word)
    if key in memo:
        return memo[key]
    if n == 0:
        out = {word: delta + sum(word)}
    elif n < 0:
        m = -n
        if not word or m <= word[0]:
            out = {(m,) + word: 1}
        else:
            m1, rest = word[0], word[1:]
            out = {}
            # L_{-m} L_{-m1} = L_{-m1} L_{-m} + (m1 - m) L_{-(m+m1)}
            for w2, co in apply_generator_to_word(n, rest, delta, c, memo).items():
                for w3, co3 in apply_generator_to_word(-m1, w2, delta, c, memo).items():
                    _accumulate(out, w3, co * co3)
            for w2, co in apply_generator_to_word(-(m + m1), rest, delta, c, memo).items():
                _accumulate(out, w2, co * (m1 - m))
    elif not word:
        out = {}
    else:
        m1, rest = word[0], word[1:]
        out = {}
        # L_n L_{-m1} = L_{-m1} L_n + (n + m1) L_{n - m1} + delta_{n,m1} (c/12)(n^3 - n)
        for w2, co in apply_generator_to_word(n, rest, delta, c, memo).items():
            for w3, co3 in apply_generator_to_word(-m1, w2, delta, c, memo).items():
                _accumulate(out, w3, co * co3)
        for w2, co in apply_generator_to_word(n - m1, rest, delta, c, memo).items():
            _accumulate(out, w2, co * (n + m1))
        if n == m1 and n > 1:
            central = (c * ((n**3 - n) // 6)) / 2
            _accumulate(out, rest, central)
    memo[key] = out
    return out


# ---------------------------------------------------------------------------
# Shapovalov form
# ---------------------------------------------------------------------------


@dataclass
class GramMatrix:
    """Shapovalov form on level-n descendants, indexed by the words of partitions()."""

    level: int
    delta: complex
    c: complex
    entries: np.ndarray
    basis: tuple[tuple[int, ...], ...]
    residual: float | None = None  # max |F F^-1 - I| when this is an inverse
    method: str | None = None


def _pairing(word_bra: tuple[int, ...], word_ket: tuple[int, ...], delta, c, memo=None):
    """< L_{-bra} D , L_{-ket} D >  with adjoint L_n^dag = L_{-n}; ``memo``
    is the generator memo at (delta, c)."""
    state = {word_ket: 1}
    for m in word_bra:  # rightmost raising operator of the bra acts first
        nxt: dict = {}
        for w, co in state.items():
            for w2, co2 in apply_generator_to_word(m, w, delta, c, memo).items():
                _accumulate(nxt, w2, co * co2)
        state = nxt
        if not state:
            return 0
    return state.get((), 0)


def _gram_stack(deltas: np.ndarray, c, n: int, memo: dict | None = None) -> np.ndarray:
    """Level-n Gram matrices at every weight of the complex array ``deltas``,
    shape (len(deltas), p(n), p(n)): the upper triangle from ``_pairing`` on
    the whole array, mirrored, so each matrix is exactly symmetric.  The
    entries share the generator memo at (deltas, c), fresh when None."""
    memo = {} if memo is None else memo
    words = partitions(n)
    F = np.empty((len(deltas), len(words), len(words)), dtype=complex)
    for i, wi in enumerate(words):
        for j in range(i, len(words)):
            F[:, i, j] = F[:, j, i] = _pairing(wi, words[j], deltas, c, memo)
    return F


def shapovalov(delta, c, n: int) -> GramMatrix:
    """Gram matrix F(nu, nu') at level n: ``_gram_stack`` at the one weight
    ``delta``."""
    if n < 0:
        raise ValidationError(f"level must be >= 0, got {n}")
    F = _gram_stack(np.array([delta], dtype=complex), c, n)[0]
    return GramMatrix(level=n, delta=delta, c=c, entries=F, basis=partitions(n))


#: Equilibrated Gram condition numbers above this raise DegenerateWeight.
_COND_GUARD = 1e10


def _guard(F: np.ndarray, level: int, deltas) -> None:
    """Raise DegenerateWeight, naming the weight, where a level-``level`` Gram
    matrix of the stack F, shape (n, p, p), at the weights ``deltas`` has a
    vanishing diagonal entry or a condition over ``_COND_GUARD`` after
    symmetric diagonal equilibration, which separates Kac-zero proximity from
    the harmless entry-scale spread of high levels and large weights."""
    diag = np.abs(np.diagonal(F, axis1=1, axis2=2))
    vanishing = (diag == 0.0).any(axis=1)
    if vanishing.any():
        raise DegenerateWeight(
            f"Gram matrix at level {level}, Delta = {deltas[np.argmax(vanishing)]} "
            "has a vanishing diagonal norm"
        )
    d = 1.0 / np.sqrt(diag)
    cond = np.linalg.cond(F * d[:, :, None] * d[:, None, :])
    bad = ~(cond <= _COND_GUARD)  # nan included
    if bad.any():
        i = np.argmax(bad)
        raise DegenerateWeight(
            f"Gram matrix at level {level}, Delta = {deltas[i]} has equilibrated condition "
            f"{cond[i]:.3e} > guard {_COND_GUARD:.1e} (weight near a Kac zero?)"
        )


def shapovalov_inverse(F: GramMatrix) -> GramMatrix:
    """F^{-1} past ``_guard``, with its residual max |F F^{-1} - I|: Cholesky
    where F is real positive definite (the spectrum line), LU otherwise."""
    _guard(F.entries[None], F.level, [F.delta])
    ident, inv = np.eye(len(F.entries)), None
    if not F.entries.imag.any():
        try:
            cf = np.linalg.cholesky(F.entries.real)
        except np.linalg.LinAlgError:
            pass
        else:
            inv, method = np.linalg.solve(cf.T, np.linalg.solve(cf, ident)).astype(complex), "cholesky"
    if inv is None:
        inv, method = np.linalg.solve(F.entries, ident.astype(complex)), "lu"
    residual = float(np.max(np.abs(F.entries @ inv - ident)))
    return GramMatrix(F.level, F.delta, F.c, inv, F.basis, residual=residual, method=method)
