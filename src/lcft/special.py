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
import functools
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
    _log_gamma and stay finite.  A non-finite z raises DomainError.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"l(z) needs a finite argument, got {z}")
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


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built once per n
    and read-only.

    numpy's leggauss nodes are within an ulp of the roots of P_n, but its
    weights are off by up to 7e-14 relative at n = 20 and 2e-11 at n = 200,
    at the end nodes, where a weight moves fast with its node.  Here each
    weight is 2 (1 - x^2) / (n P_{n-1}(x))^2 at the root x = y - P_n(y)/P_n'(y)
    next to the rounded node y, to first order in that step: 3e-15 at n = 20,
    1e-13 at n = 200."""
    y, _ = np.polynomial.legendre.leggauss(n)
    p_prev, p_last, p_n = np.zeros_like(y), np.ones_like(y), y  # P_{n-2}, P_{n-1}, P_n
    for k in range(2, n + 1):
        p_prev, p_last, p_n = p_last, p_n, ((2 * k - 1) * y * p_n - (k - 1) * p_last) / k
    one_minus = (1.0 - y) * (1.0 + y)
    step = p_n * one_minus / (n * (p_last - y * p_n))
    # d log(weight) / dy = -2 y / (1 - y^2) - 2 P_{n-1}'(y) / P_{n-1}(y)
    dlog = -2.0 * (y + (n - 1) * (p_prev - y * p_last) / p_last) / one_minus
    w = 2.0 * one_minus / (n * p_last) ** 2 * (1.0 - step * dlog)
    y.flags.writeable = w.flags.writeable = False
    return y, w


def _panel_rule(length: float, panel_width: float, nodes_per_panel: int) -> tuple:
    """Composite Gauss-Legendre nodes and weights on [0, length]: the
    nodes_per_panel-point rule on each of round(length / panel_width) equal
    panels (at least one)."""
    x, w = _gauss_legendre(nodes_per_panel)
    n_panels = max(1, int(round(length / panel_width)))
    edges = np.linspace(0.0, length, n_panels + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    nodes = (0.5 * (hi - lo) * x[None, :] + 0.5 * (hi + lo)).ravel()
    weights = (0.5 * (hi - lo) * w[None, :]).ravel()
    return nodes, weights


@dataclass
class UpsilonEvaluator:
    """Upsilon_{gamma/2} at one gamma.

    Arguments are first reduced into the band |Re z - Q/2| <= gamma/4 by the
    functional relations (coarse 2/gamma steps first, then gamma/2 steps, at
    most ``SHIFT_BUDGET`` of them).  There, with w = Q/2 - z, the integrand
    decays like e^{-min(1, 1/gamma) t} and oscillates at frequency |Im w|, so
    the t-integral is cut at T = 37 max(1, gamma) + 5, where the tail is below
    1e-16, and taken with composite Gauss-Legendre panels of
    ``NODES_PER_PANEL`` nodes.  The panels are at most 2.5 wide, and at most
    8 gamma below gamma = 0.3125, where the poles of 1/sinh(t/gamma) at
    t = +-i pi gamma close in on the first panel.  Their number doubles until
    one panel holds at most 17.5 radians of the oscillation.  This holds the
    band integral to about 3e-14 of max(1, |value|) up to |Im w| = 40, with
    460 nodes at gamma = sqrt(2) and |Im w| <= 7.  A rule depends only on gamma
    and its panel count, so every argument keeps the bits it has alone; each
    is built once per evaluator, with its z-independent factors, the first
    time it is needed, and one of more than 2^18 nodes raises BudgetExceeded.
    """

    NODES_PER_PANEL: ClassVar[int] = 20
    SHIFT_BUDGET: ClassVar[int] = 200
    _MAX_PHASE: ClassVar[float] = 17.5
    _NODE_BUDGET: ClassVar[int] = 2**18

    gamma: float
    Q: float = field(init=False)
    # the cut T, and the panel count while |Im w| T <= _MAX_PHASE * panels
    _cut: float = field(init=False, repr=False, compare=False)
    _panels: int = field(init=False, repr=False, compare=False)
    # panel count -> (nodes t, kernel, c): the band integral is
    # w^2 c - sum_j kernel_j sinh(w t_j / 2)^2
    _rules: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 2.0:
            raise DomainError(f"gamma must lie in (0, 2), got {self.gamma}")
        self.Q = self.gamma / 2.0 + 2.0 / self.gamma
        self._cut = 37.0 * max(1.0, self.gamma) + 5.0
        self._panels = math.ceil(self._cut / min(2.5, 8.0 * self.gamma))

    # -- integral on the central band ------------------------------------

    def _band_rule(self, im_w: float) -> tuple:
        panels, max_panels = self._panels, self._NODE_BUDGET // self.NODES_PER_PANEL
        while im_w * self._cut > self._MAX_PHASE * panels and panels <= max_panels:
            panels *= 2
        if panels > max_panels:
            raise BudgetExceeded(
                f"log Upsilon at |Im w| = {im_w} needs more than {self._NODE_BUDGET} quadrature nodes"
            )
        rule = self._rules.get(panels)
        if rule is None:
            t, weights = _panel_rule(self._cut, self._cut / panels, self.NODES_PER_PANEL)
            with np.errstate(over="ignore"):  # 1/sinh(t/gamma) -> 0 at small gamma
                kernel = weights / (t * np.sinh(self.gamma / 4.0 * t) * np.sinh(t / self.gamma))
            rule = self._rules[panels] = (t, kernel, float(np.dot(weights, np.exp(-t) / t)))
        return rule

    def _log_upsilon_band(self, z: complex) -> complex:
        w = complex(self.Q / 2.0) - z
        t, kernel, c = self._band_rule(abs(w.imag))
        s = np.sinh((0.5 * w) * t)
        s *= s
        return w * w * c - complex(kernel @ s)

    # -- shift reduction ---------------------------------------------------

    def check_shift_budget(self, z: complex) -> None:
        """Raise log_upsilon's BudgetExceeded, without its shifts, when z lies
        so far from the band that SHIFT_BUDGET + 1 steps of the longest shift,
        2/gamma, cannot reach it."""
        gap = abs(z.real - self.Q / 2.0) - self.gamma / 4.0
        if gap > (self.SHIFT_BUDGET + 1) * (2.0 / self.gamma):
            raise BudgetExceeded(f"more than {self.SHIFT_BUDGET} Upsilon shifts required")

    def _log_step(self, z: complex, step: float) -> complex:
        """log Upsilon(z + step) - log Upsilon(z), for a step of 2/gamma or gamma/2."""
        g = self.gamma
        if step == 2.0 / g:
            return log_l_ratio(2.0 * z / g) + (4.0 * z / g - 1.0) * math.log(g / 2.0)
        return log_l_ratio(g * z / 2.0) + (1.0 - g * z) * math.log(g / 2.0)

    def log_upsilon(self, z: complex) -> complex:
        """log Upsilon(z); real part -inf encodes a zero of Upsilon."""
        z = complex(z)
        if not cmath.isfinite(z):
            raise DomainError(f"Upsilon needs a finite argument, got {z}")
        g2 = self.gamma / 2.0
        ig2 = 2.0 / self.gamma
        band_lo = self.Q / 2.0 - self.gamma / 4.0
        band_hi = self.Q / 2.0 + self.gamma / 4.0

        acc, shifts, down = 0.0 + 0.0j, 0, False
        # up while below the band, then down while above it (2/gamma unless that crosses band_lo)
        while (z.real < band_lo and not down) or z.real >= band_hi:
            down = z.real >= band_hi
            if down:
                step = ig2 if z.real - ig2 >= band_lo else g2
                z -= step
                acc += self._log_step(z, step)
            else:
                step = ig2 if band_lo - z.real >= ig2 else g2
                acc -= self._log_step(z, step)
                z += step
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
