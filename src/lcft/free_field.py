"""Explicit free-field objects on the unit disk and flat annulus.

A boundary field on a circle is the truncated random Fourier series

    phi~(theta) = c + sum_{0 < n <= M} (phi_n e^{i n theta} + conj(phi_n) e^{-i n theta}),
    phi_n = (x_n + i y_n) / (2 sqrt(n)),

carried here as the real mode pairs (x_n, y_n).  The Gaussian reference
measure on mode space is the standard normal in every (x_n, y_n) together
with Lebesgue dc; all kernels below are densities relative to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError
from .params import CftParams
from .special import dedekind_eta

__all__ = [
    "BoundaryField",
    "free_annulus_amplitude",
    "heat_kernel_K0",
    "annulus_partition",
]


@dataclass
class BoundaryField:
    """Zero mode plus M Fourier mode pairs of a real boundary field."""

    c: float
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if self.xs.shape != self.ys.shape or self.xs.ndim != 1:
            raise DimensionMismatch("xs and ys must be 1-d arrays of equal length")

    @property
    def M(self) -> int:
        return len(self.xs)

    @classmethod
    def sample(cls, M: int, rng: np.random.Generator) -> "BoundaryField":
        return cls(float(rng.normal()), rng.normal(size=M), rng.normal(size=M))


def _mode_exponent(x: np.ndarray, xp: np.ndarray, a: np.ndarray) -> float:
    """sum_n [ (x'_n - a_n x_n)^2 / (2 (1 - a_n^2)) - x'_n^2 / 2 ]."""
    return float(np.sum((xp - a * x) ** 2 / (2.0 * (1.0 - a * a)) - 0.5 * xp * xp))


def free_annulus_amplitude(q: complex, f: BoundaryField, fp: BoundaryField) -> float:
    """Free-field amplitude of the flat annulus of modulus |q|, relative to the
    Gaussian boundary measure:

        exp(-(c - c')^2 / 2t
            - sum_n [ (x'_n - e^{-nt} x_n)^2 / (2(1 - e^{-2tn})) - x'_n^2/2
                    + (y'_n - e^{-nt} y_n)^2 / (2(1 - e^{-2tn})) - y'_n^2/2 ]),

    t = -ln|q|, truncated at the common mode cutoff.
    """
    aq = abs(complex(q))
    if not 0.0 < aq < 1.0:
        raise DomainError(f"need 0 < |q| < 1, got |q| = {aq}")
    if f.M != fp.M:
        raise DimensionMismatch("boundary fields must share the mode cutoff M")
    t = -math.log(aq)
    n = np.arange(1, f.M + 1)
    a = np.exp(-n * t)
    expo = -((f.c - fp.c) ** 2) / (2.0 * t)
    expo -= _mode_exponent(f.xs, fp.xs, a)
    expo -= _mode_exponent(f.ys, fp.ys, a)
    return math.exp(expo)


def heat_kernel_K0(t: float, f: BoundaryField, fp: BoundaryField, params: CftParams) -> float:
    """Integral kernel of the free propagator over time t (relative to the
    Gaussian boundary measure):

        e^{-Q^2 t/2} / sqrt(2 pi t) * prod_{n<=M} (1 - e^{-2tn})^{-1}
        * exp(-(c-c')^2/2t - sum_n [ (x_n - e^{-nt} x'_n)^2 / (2(1-e^{-2tn}))
                                     - x_n^2/2 + (same in y) ]).
    """
    if t <= 0.0:
        raise DomainError(f"need t > 0, got {t}")
    if f.M != fp.M:
        raise DimensionMismatch("boundary fields must share the mode cutoff M")
    n = np.arange(1, f.M + 1)
    a = np.exp(-n * t)
    pref = math.exp(-params.Q**2 * t / 2.0) / math.sqrt(2.0 * math.pi * t)
    pref /= float(np.prod(1.0 - a * a))
    expo = -((f.c - fp.c) ** 2) / (2.0 * t)
    expo -= _mode_exponent(fp.xs, f.xs, a)
    expo -= _mode_exponent(fp.ys, f.ys, a)
    return pref * math.exp(expo)


def annulus_partition(q: complex) -> float:
    """Partition constant of the flat annulus:

        Z_{A_q} = (pi / t)^{1/2} / eta(i t / pi),  t = -ln|q|,

    that is 2^{-1/2} (2 pi / t)^{1/2} |q|^{-1/12} prod_{n>=1} (1 - |q|^{2n})^{-1}.
    """
    aq = abs(complex(q))
    if not 0.0 < aq < 1.0:
        raise DomainError(f"need 0 < |q| < 1, got |q| = {aq}")
    t = -math.log(aq)
    return math.sqrt(math.pi / t) / dedekind_eta(1j * t / math.pi).real
