"""Analytic special functions: Gamma ratio l, Zamolodchikov Upsilon, Dedekind eta,
Jacobi theta_1.

Upsilon_{gamma/2} is evaluated through its integral representation on the strip
0 < Re z < Q,

    ln Upsilon(z) = int_0^oo [ (Q/2 - z)^2 e^{-t}
                               - sinh((Q/2 - z) t/2)^2 / (sinh(t gamma/4) sinh(t/gamma)) ] dt/t,

extended to the whole plane by the functional relations

    Upsilon(z + gamma/2) = l(gamma z / 2) (gamma/2)^{1 - gamma z} Upsilon(z),
    Upsilon(z + 2/gamma) = l(2 z / gamma) (gamma/2)^{4 z / gamma - 1} Upsilon(z),

with l(z) = Gamma(z)/Gamma(1 - z).  All prefactors are accumulated in log
domain; zeros of Upsilon are reached exactly through poles/zeros of l.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import BudgetExceeded, DomainError, PoleError

__all__ = [
    "l_ratio",
    "log_l_ratio",
    "UpsilonEvaluator",
    "upsilon",
    "dedekind_eta",
    "theta1",
]

_NEG_INF = complex(-math.inf, 0.0)
_POS_INF = complex(math.inf, 0.0)


#: B_{2k} / (2k (2k - 1)), k = 1..8: the Stirling series of log Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)


def _log_gamma(z: complex) -> complex:
    """log Gamma(z), continued analytically off the positive reals and cut along
    the negative real axis (x + 0j and x - 0j lie on either side of the cut).
    Below Re z = -7 the reflection Gamma(z) Gamma(1 - z) = pi / sin(pi z) is
    used; otherwise the recurrence lifts Re z to at least 7, subtracting the
    principal log of each factor, and the 8-term Stirling series ends it."""
    x, y = z.real, z.imag
    if x < -7.0:
        # sin(pi z) e^{-pi |y|} / 2 with x reduced to r = x - n exactly; the
        # 2 pi i multiple moves its principal log to the recurrence's branch
        n = round(x)
        r, s, e = x - n, (-1.0) ** (n % 2), -2.0 * math.pi * abs(y)
        sin_scaled = complex(
            s * math.sin(math.pi * r) * (1.0 + math.exp(e)),
            s * math.copysign(1.0, y) * math.cos(math.pi * r) * -math.expm1(e),
        )
        log_sin = cmath.log(sin_scaled) + (math.pi * abs(y) - math.log(2.0))
        turns = math.copysign(2.0 * math.pi, y) * math.floor(0.5 * x + 0.25)
        return complex(math.log(math.pi), turns) - log_sin - _log_gamma(complex(1.0 - x, -y))
    acc = 0j
    while x < 7.0:
        acc -= cmath.log(complex(x, y))  # complex(), not z + 1, keeps the sign of a zero y
        x += 1.0
    w = complex(x, y)
    inv2 = 1.0 / (w * w)
    series = 0j
    for c in reversed(_STIRLING):
        series = series * inv2 + c
    return acc + (w - 0.5) * cmath.log(w) - w + 0.5 * math.log(2.0 * math.pi) + series / w


def _is_exact_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real == round(z.real)


def log_l_ratio(z: complex) -> complex:
    """log of l(z) = Gamma(z)/Gamma(1-z).

    Returns complex +inf at poles (z a nonpositive integer) and complex -inf
    at zeros (z a positive integer), so that exp() of the result carries the
    correct limit.  Exact float comparison is used: near misses flow through
    _log_gamma and stay finite.
    """
    z = complex(z)
    if _is_exact_integer(z):
        if z.real <= 0.0:
            return _POS_INF
        return _NEG_INF
    return _log_gamma(z) - _log_gamma(1.0 - z)


def l_ratio(z: complex) -> complex:
    """Gamma(z) / Gamma(1 - z), computed in log domain.

    Raises PoleError when z is a nonpositive integer (uncancelled pole of the
    numerator).  At positive integers the zero of 1/Gamma(1-z) wins and 0 is
    returned.
    """
    lg = log_l_ratio(z)
    if lg.real == math.inf:
        raise PoleError(f"l(z) has a pole at z = {z}")
    if lg.real == -math.inf:
        return 0.0 + 0.0j
    out = cmath.exp(lg)
    if out != out:  # NaN
        raise DomainError(f"l_ratio produced NaN at z = {z}")
    return out


def _panel_rule(length: float, panel_width: float, nodes_per_panel: int) -> tuple:
    """Composite Gauss-Legendre nodes and weights on [0, length]: the
    nodes_per_panel-point rule on each of round(length / panel_width) equal
    panels (at least one)."""
    x, w = np.polynomial.legendre.leggauss(nodes_per_panel)
    n_panels = max(1, int(round(length / panel_width)))
    edges = np.linspace(0.0, length, n_panels + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    nodes = (0.5 * (hi - lo) * x[None, :] + 0.5 * (hi + lo)).ravel()
    weights = (0.5 * (hi - lo) * w[None, :]).ravel()
    return nodes, weights


@dataclass
class UpsilonEvaluator:
    """Upsilon_{gamma/2} at one gamma.

    The t-integral is cut at ``T`` with composite Gauss-Legendre panels, one
    rule shared by every gamma, whose z-independent factors are computed once
    per evaluator.  Arguments are first reduced into the band
    |Re z - Q/2| <= gamma/4 by the functional relations (coarse 2/gamma steps
    first, then gamma/2 steps, at most ``SHIFT_BUDGET`` of them), which keeps
    the integrand tail below 1e-14 of the accumulated value at T = 80.
    """

    T: ClassVar[float] = 80.0
    PANEL_WIDTH: ClassVar[float] = 0.5
    NODES_PER_PANEL: ClassVar[int] = 16
    SHIFT_BUDGET: ClassVar[int] = 200
    _NODES, _WEIGHTS = _panel_rule(T, PANEL_WIDTH, NODES_PER_PANEL)

    gamma: float
    Q: float = field(init=False)
    # sinh(t gamma/4) sinh(t/gamma) and e^{-t} at the rule's nodes
    _sinh_pair: np.ndarray = field(init=False, repr=False, compare=False)
    _exp_neg: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 2.0:
            raise DomainError(f"gamma must lie in (0, 2), got {self.gamma}")
        self.Q = self.gamma / 2.0 + 2.0 / self.gamma
        t = self._NODES
        self._sinh_pair = np.sinh(self.gamma / 4.0 * t) * np.sinh(1.0 / self.gamma * t)
        self._exp_neg = np.exp(-t)

    # -- integral on the central band ------------------------------------

    def _log_upsilon_band(self, z: complex) -> complex:
        t = self._NODES
        w = complex(self.Q / 2.0) - z
        vals = (w**2 * self._exp_neg - np.sinh(w / 2.0 * t) ** 2 / self._sinh_pair) / t
        return complex(np.dot(self._WEIGHTS, vals))

    # -- shift reduction ---------------------------------------------------

    def log_upsilon(self, z: complex) -> complex:
        """log Upsilon(z); real part -inf encodes a zero of Upsilon."""
        z = complex(z)
        g2 = self.gamma / 2.0
        ig2 = 2.0 / self.gamma
        band_lo = self.Q / 2.0 - self.gamma / 4.0
        band_hi = self.Q / 2.0 + self.gamma / 4.0
        log_half_gamma = math.log(g2)

        acc = 0.0 + 0.0j
        shifts = 0
        while z.real < band_lo:
            step = ig2 if band_lo - z.real >= ig2 else g2
            if step == ig2:
                acc -= log_l_ratio(2.0 * z / self.gamma) + (4.0 * z / self.gamma - 1.0) * log_half_gamma
            else:
                acc -= log_l_ratio(self.gamma * z / 2.0) + (1.0 - self.gamma * z) * log_half_gamma
            z += step
            shifts += 1
            if shifts > self.SHIFT_BUDGET:
                raise BudgetExceeded(f"more than {self.SHIFT_BUDGET} Upsilon shifts required")
        while z.real >= band_hi:
            step = ig2 if z.real - ig2 >= band_lo else g2
            z -= step
            if step == ig2:
                acc += log_l_ratio(2.0 * z / self.gamma) + (4.0 * z / self.gamma - 1.0) * log_half_gamma
            else:
                acc += log_l_ratio(self.gamma * z / 2.0) + (1.0 - self.gamma * z) * log_half_gamma
            shifts += 1
            if shifts > self.SHIFT_BUDGET:
                raise BudgetExceeded(f"more than {self.SHIFT_BUDGET} Upsilon shifts required")

        if acc.real == math.inf:
            raise PoleError(
                "Upsilon shift chain accumulated an uncancelled pole of l; "
                "this indicates evaluation on the zero lattice from an inconsistent direction"
            )
        if acc.real == -math.inf:
            return _NEG_INF
        return acc + self._log_upsilon_band(z)


def upsilon(z: complex, ev: UpsilonEvaluator) -> complex:
    """Upsilon_{gamma/2}(z) anywhere in the complex plane."""
    lu = ev.log_upsilon(z)
    if lu.real == -math.inf:
        return 0.0 + 0.0j
    out = cmath.exp(lu)
    if out != out:
        raise DomainError(f"upsilon produced NaN at z = {z}")
    return out


def dedekind_eta(tau: complex) -> complex:
    """Dedekind eta(tau) = q^{1/24} prod (1 - q^n), q = e^{2 pi i tau}."""
    tau = complex(tau)
    if tau.imag <= 0.0:
        raise DomainError(f"eta requires Im tau > 0, got {tau}")
    q = cmath.exp(2j * cmath.pi * tau)
    aq = abs(q)
    n_max = int(math.ceil(math.log(1e-16) / math.log(aq))) if aq > 0 else 1
    if n_max > 10**7:
        raise DomainError(f"Im tau = {tau.imag} too small for the eta product")
    prod = 1.0 + 0.0j
    qn = 1.0 + 0.0j
    for _ in range(max(n_max, 1)):
        qn *= q
        prod *= 1.0 - qn
    return cmath.exp(2j * cmath.pi * tau / 24.0) * prod


def theta1(z, tau: complex):
    """Jacobi theta_1(z, tau) = 2 sum_{n>=0} (-1)^n q^{(n+1/2)^2} sin((2n+1) pi z),
    with nome q = e^{i pi tau}.  Accepts scalar or ndarray z.

    Truncated at the first n with |q|^{(n+1/2)^2} e^{(2n+1) pi max|Im z|} < 1e-16.
    """
    tau = complex(tau)
    if tau.imag <= 0.0:
        raise DomainError(f"theta1 requires Im tau > 0, got {tau}")
    z_arr = np.asarray(z, dtype=complex)
    q = cmath.exp(1j * cmath.pi * tau)
    aq = abs(q)
    im_max = float(np.max(np.abs(z_arr.imag))) if z_arr.size else 0.0

    total = np.zeros_like(z_arr)
    n = 0
    while True:
        mag = aq ** ((n + 0.5) ** 2) * math.exp((2 * n + 1) * math.pi * im_max)
        if n > 0 and mag < 1e-16:
            break
        if n > 10_000:
            raise DomainError("theta1 series failed to converge (Im tau too small)")
        total = total + (-1) ** n * q ** ((n + 0.5) ** 2) * np.sin((2 * n + 1) * math.pi * z_arr)
        n += 1
    out = 2.0 * total
    return complex(out) if np.isscalar(z) or z_arr.ndim == 0 else out
