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
domain; zeros of Upsilon are reached exactly through poles/zeros of l.  In
w = Q/2 - z the integrand is real and even, and near t = 0 it is taken as
(w^2/t) [expm1(-t) - (S(w t/2)^2 R(t) - 1)], S(u) = sinh(u)/u and
R(t) = 1/(S(gamma t/4) S(t/gamma)), whose two parts do not cancel.

log Gamma, log l and log Upsilon are array kernels: each takes a complex array
(a scalar is its one-element case) and treats every entry on its own, with
elementwise numpy operations and per-entry sums only, so an entry has the same
bits in any batch.
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


def _complex(re, im) -> np.ndarray:
    """The complex array re + i im, each zero keeping its sign (re + 1j * im
    would turn an imaginary -0.0 into +0.0)."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _log_gamma(z):
    """log Gamma at every entry of a complex array, continued analytically off
    the positive reals and cut along the negative real axis (x + 0j and x - 0j
    lie on either side of the cut).  Below Re z = -7 the reflection
    Gamma(z) Gamma(1 - z) = pi / sin(pi z) is used; otherwise the recurrence
    lifts Re z to at least 7, subtracting the principal log of each factor,
    and the 8-term Stirling series ends it."""
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    x, y = flat.real, flat.imag
    reflect = x < -7.0
    # the recurrence and the series run at 1 - z on the reflected entries
    xs, ys = np.where(reflect, 1.0 - x, x), np.where(reflect, -y, y)
    acc = np.zeros(flat.shape, dtype=complex)
    low = xs < 7.0
    while low.any():
        acc[low] = acc[low] - np.log(_complex(xs[low], ys[low]))
        xs = np.where(low, xs + 1.0, xs)
        low = xs < 7.0
    w = _complex(xs, ys)
    inv2 = 1.0 / (w * w)
    series = _STIRLING[-1]
    for c in reversed(_STIRLING[:-1]):
        series = series * inv2 + c
    out = acc + (w - 0.5) * np.log(w) - w + 0.5 * math.log(2.0 * math.pi) + series / w
    if reflect.any():
        # sin(pi z) e^{-pi |y|} / 2 with x reduced to r = x - n exactly; the
        # 2 pi i multiple moves its principal log to the recurrence's branch
        x, y = x[reflect], y[reflect]
        n = np.round(x)
        r, s, e = x - n, 1.0 - 2.0 * np.mod(n, 2.0), -2.0 * math.pi * np.abs(y)
        sin_scaled = _complex(
            s * np.sin(math.pi * r) * (1.0 + np.exp(e)),
            s * np.copysign(1.0, y) * np.cos(math.pi * r) * -np.expm1(e),
        )
        log_sin = np.log(sin_scaled) + (math.pi * np.abs(y) - math.log(2.0))
        turns = np.copysign(2.0 * math.pi, y) * np.floor(0.5 * x + 0.25)
        out[reflect] = _complex(math.log(math.pi), turns) - log_sin - out[reflect]
    return out.reshape(z.shape)[()]


def log_l_ratio(z):
    """log of l(z) = Gamma(z)/Gamma(1-z) at every entry of a complex array.

    Returns complex +inf at poles (z a nonpositive integer) and complex -inf
    at zeros (z a positive integer), so that exp() of the result carries the
    correct limit.  Exact float comparison is used: near misses flow through
    _log_gamma and stay finite.  A non-finite entry raises DomainError.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        raise DomainError(f"l(z) needs a finite argument, got {flat[~finite][0]}")
    x = flat.real
    out = np.where(x <= 0.0, _POS_INF, _NEG_INF)
    rest = (flat.imag != 0.0) | (x != np.round(x))
    out[rest] = _log_gamma(flat[rest]) - _log_gamma(1.0 - flat[rest])
    return out.reshape(z.shape)[()]


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


#: 1/(2k + 1)!, k = 9..1: S(u) - 1 = sinh(u)/u - 1 as a series in u^2, to an ulp at |u| <= 1
_SINHC = tuple(1.0 / math.factorial(2 * k + 1) for k in range(9, 0, -1))


def _sinhc_m1(u, sinh_u):
    """S(u) - 1 = sinh(u)/u - 1 at every entry of an array u, given sinh(u):
    its series where |u| <= 1, where the quotient would cancel."""
    v = u * u
    series = v * _SINHC[0]
    for coeff in _SINHC[1:]:
        series += coeff
        series *= v
    with np.errstate(invalid="ignore", divide="ignore"):  # u = 0 takes the series
        return np.where(np.abs(u) <= 1.0, series, sinh_u / u - 1.0)


@dataclass
class UpsilonEvaluator:
    """Upsilon_{gamma/2} at one gamma.

    ``log_upsilon`` takes a complex array and reduces every entry into the
    band |Re z - Q/2| <= gamma/4 by the functional relations (coarse 2/gamma
    steps first, then gamma/2 steps, at most ``SHIFT_BUDGET`` of them).  The
    chain of real parts runs first, in masked array steps; one log l call
    then takes the factors of all steps, and each entry adds up its own in
    chain order.

    In the band, with w = Q/2 - z, the integrand decays like
    e^{-min(1, 1/gamma) t} and oscillates at frequency |Im w|, so the
    t-integral is cut at T = 37 max(1, gamma) + 5, where the tail is below
    1e-16, and taken with composite Gauss-Legendre panels of
    ``NODES_PER_PANEL`` nodes.  The panels are at most 2.5 wide, and at most
    8 gamma below gamma = 0.3125, where the poles of 1/sinh(t/gamma) at
    t = +-i pi gamma close in on the first panel.  Their number doubles until
    one panel holds at most 17.5 radians of the oscillation.  This holds the
    band integral to about 5e-15 of max(1, |value|) up to |Im w| = 40, with
    460 nodes at gamma = sqrt(2) and |Im w| <= 7.  A rule depends only on
    gamma and its panel count; each is built once per evaluator, with its
    z-independent factors, the first time it is needed, and one of more than
    2^18 nodes raises BudgetExceeded.

    As the band integral I has I(-w) = I(w) and I(conj w) = conj I(w), each
    distinct (|Re w|, |Im w|) is summed once, over its own row only, with
    ``np.sum`` and at most ``_CHUNK_NODES`` nodes a chunk, so it keeps the
    bits it has alone.  On the first panel S(u) - 1, u = w t/2, comes from
    its series at |u| <= 1.  On the others sinh(w t/2)^2 = (cosh(w t) - 1)/2,
    and the nodes c_p +- h x_j (panel centre c_p, half-width h,
    Gauss-Legendre node x_j) are paired: the phase e^{i Im w t} there is
    e^{i Im w c_p} e^{+-i Im w h x_j}, a sin and a cos per panel and per
    pair, and the kernels, built once per rule and |Re w|, enter as sums and
    differences over each pair.
    """

    NODES_PER_PANEL: ClassVar[int] = 20
    SHIFT_BUDGET: ClassVar[int] = 200
    _MAX_PHASE: ClassVar[float] = 17.5
    _NODE_BUDGET: ClassVar[int] = 2**18
    _CHUNK_NODES: ClassVar[int] = 6144

    gamma: float
    Q: float = field(init=False)
    # the cut T, and the panel count while |Im w| T <= _MAX_PHASE * panels
    _cut: float = field(init=False, repr=False, compare=False)
    _panels: int = field(init=False, repr=False, compare=False)
    # panel count -> (nodes t, first panel's factors, other panels' factors):
    # the band integral is w^2 (c + first panel) - sum_j kernel_j sinh(w t_j / 2)^2
    _rules: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 2.0:
            raise DomainError(f"gamma must lie in (0, 2), got {self.gamma}")
        self.Q = self.gamma / 2.0 + 2.0 / self.gamma
        self._cut = 37.0 * max(1.0, self.gamma) + 5.0
        self._panels = math.ceil(self._cut / min(2.5, 8.0 * self.gamma))

    # -- integral on the central band ------------------------------------

    def _panel_counts(self, im_w):
        """The band rule's panel count at every |Im w| of a real array."""
        im_w = np.asarray(im_w, dtype=float)
        panels, max_panels = np.full(im_w.shape, self._panels), self._NODE_BUDGET // self.NODES_PER_PANEL
        grow = im_w * self._cut > self._MAX_PHASE * panels
        while grow.any():
            panels = np.where(grow, 2 * panels, panels)
            grow = (im_w * self._cut > self._MAX_PHASE * panels) & (panels <= max_panels)
        over = panels > max_panels
        if over.any():
            raise BudgetExceeded(
                f"log Upsilon at |Im w| = {im_w[over][0]} needs more than "
                f"{self._NODE_BUDGET} quadrature nodes"
            )
        return panels[()]

    def _rule(self, panels: int) -> tuple:
        rule = self._rules.get(panels)
        if rule is None:
            n, width = self.NODES_PER_PANEL, self._cut / panels
            nodes, weights = _panel_rule(self._cut, width, n)
            t0, g = nodes[:n], weights[:n] / nodes[:n]
            s_a, s_b = (_sinhc_m1(x, np.sinh(x)) for x in (self.gamma / 4.0 * t0, t0 / self.gamma))
            r = 1.0 / ((1.0 + s_a) * (1.0 + s_b))
            first = (0.5 * t0, g * np.expm1(-t0), g, r, -(s_a + s_b + s_a * s_b) * r)
            t, weights = nodes[n:].reshape(-1, n), weights[n:].reshape(-1, n)
            with np.errstate(over="ignore"):  # 1/sinh(t/gamma) -> 0 at small gamma
                kernel = weights / (t * np.sinh(self.gamma / 4.0 * t) * np.sinh(t / self.gamma))
            # i times the phase angles per unit Im w: the centres c_p, then the offsets h x_j < 0
            offsets = 0.5 * width * _gauss_legendre(n)[0][: n // 2]
            angles = 1j * np.concatenate([width * (np.arange(1, panels) + 0.5), offsets])
            c = float(np.sum(weights * np.exp(-t) / t))
            rule = self._rules[panels] = (nodes, first, (t, kernel, c, angles))
        return rule

    def _band_group(self, panels: int, re_w: np.ndarray, im_w: np.ndarray) -> np.ndarray:
        """The band integral at w = re_w + i im_w for every entry of two real
        arrays >= 0, entries of equal re_w next to each other, all on the
        rule of ``panels`` panels, one entry per row."""
        nodes, (half_t, ge, g, r, r_m1), (t, kernel, c, angles) = self._rule(panels)
        h, rows = self.NODES_PER_PANEL // 2, self._CHUNK_NODES // self.NODES_PER_PANEL
        # first panel: (w^2/t) (expm1(-t) - (S(u)^2 R - 1)) at u = w t/2, with
        # S(u)^2 R - 1 = s (s + 2) R + (R - 1), s = S(u) - 1
        head = np.empty(im_w.shape, dtype=complex)
        for lo in range(0, im_w.size, rows):
            a, b = re_w[lo : lo + rows, None] * half_t, im_w[lo : lo + rows, None] * half_t
            s = _sinhc_m1(_complex(a, b), _complex(np.sinh(a) * np.cos(b), np.cosh(a) * np.sin(b)))
            head[lo : lo + rows] = np.sum(ge - g * (s * (s + 2.0) * r + r_m1), axis=1)
        w, half_k = _complex(re_w, im_w), 0.5 * np.sum(kernel)
        total = w * w * (c + head)
        # other panels: kernel sinh(w t/2)^2 = kc (cos(Im w t) - 1) + i ks sin(Im w t),
        # kc, ks = kernel cosh(Re w t)/2, kernel sinh(Re w t)/2.  At t = c_p +- h x_j
        # cos(Im w t) = C_p c_j -+ S_p s_j and sin(Im w t) = S_p c_j +- C_p s_j, so the
        # pair adds C_p (kc+ + kc-) c_j + S_p (kc- - kc+) s_j + i [S_p (ks+ + ks-) c_j + C_p (ks+ - ks-) s_j]
        step = max(1, self._CHUNK_NODES // nodes.size)
        edges = [0, *(np.flatnonzero(re_w[1:] != re_w[:-1]) + 1), re_w.size]
        j, mirror = np.s_[:, :h], np.s_[:, : h - 1 : -1]
        for start, stop in zip(edges[:-1], edges[1:]):
            kc, ks = (0.5 * kernel * f(re_w[start] * t) for f in (np.cosh, np.sinh))
            # pairs[j, 0, kc or ks, c_j or s_j, p]
            pairs = np.array([[kc[j] + kc[mirror], kc[mirror] - kc[j]], [ks[j] + ks[mirror], ks[j] - ks[mirror]]])
            pairs = pairs.transpose(3, 0, 1, 2)[:, None]
            for lo in range(start, stop, step):
                at = slice(lo, min(lo + step, stop))
                phase = np.exp(im_w[at, None] * angles)
                cos_c, sin_c = phase[:, : panels - 1].real, phase[:, : panels - 1].imag
                # trig[j, row, 0, c_j or s_j, 0]
                trig = phase[:, panels - 1 :].view(float).reshape(-1, h, 2).transpose(1, 0, 2)[:, :, None, :, None]
                # the sum over the pairs runs in order, elementwise over rows
                a = np.sum(np.multiply(pairs, trig, order="C"), axis=0)
                total[at] -= _complex(
                    np.sum(cos_c * a[:, 0, 0] + sin_c * a[:, 0, 1], axis=1) - half_k,
                    np.sum(sin_c * a[:, 1, 0] + cos_c * a[:, 1, 1], axis=1),
                )
        return total

    def _log_upsilon_band(self, z):
        """The band integral at every entry of a complex array in the band
        |Re z - Q/2| <= gamma/4.  The integrand is real and even in w, so each
        distinct (|Re w|, |Im w|) is integrated once, one group per rule, and
        conjugated back where exactly one of Re w and Im w has its sign bit set."""
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        re_w, im_w = self.Q / 2.0 - flat.real, 0.0 - flat.imag
        # sorted by |Re w|, then |Im w|; abs leaves no -0.0, so values part as bits do
        pairs, pair_of = np.unique(_complex(np.abs(re_w), np.abs(im_w)), return_inverse=True)
        panels = self._panel_counts(pairs.imag)
        values = np.empty(pairs.shape, dtype=complex)
        for p in set(panels.tolist()):  # np.unique here would import numpy.ma
            rule = panels == p
            values[rule] = self._band_group(p, pairs.real[rule], pairs.imag[rule])
        out = values[pair_of]
        flip = np.signbit(re_w) != np.signbit(im_w)
        out[flip] = out[flip].conjugate()
        return out.reshape(z.shape)[()]

    # -- shift reduction ---------------------------------------------------

    def check_shift_budget(self, z) -> None:
        """Raise log_upsilon's BudgetExceeded, without its shifts, when an
        entry of a complex array lies so far from the band that
        SHIFT_BUDGET + 1 steps of the longest shift, 2/gamma, cannot reach it."""
        gap = np.abs(np.asarray(z, dtype=complex).real - self.Q / 2.0) - self.gamma / 4.0
        if np.any(gap > (self.SHIFT_BUDGET + 1) * (2.0 / self.gamma)):
            raise BudgetExceeded(f"more than {self.SHIFT_BUDGET} Upsilon shifts required")

    def _log_step(self, x: np.ndarray, y: np.ndarray, coarse: np.ndarray) -> np.ndarray:
        """log Upsilon(z + step) - log Upsilon(z) at z = x + iy, for a step of
        2/gamma where ``coarse`` and of gamma/2 elsewhere."""
        g, log_g2 = self.gamma, math.log(self.gamma / 2.0)
        arg = _complex(np.where(coarse, 2.0 * x / g, g * x / 2.0), np.where(coarse, 2.0 * y / g, g * y / 2.0))
        power = _complex(
            np.where(coarse, 4.0 * x / g - 1.0, 1.0 - g * x) * log_g2,
            np.where(coarse, 4.0 * y / g, 0.0 - g * y) * log_g2,
        )
        return log_l_ratio(arg) + power

    def log_upsilon(self, z):
        """log Upsilon at every entry of a complex array (a complex at a
        scalar); real part -inf encodes a zero of Upsilon."""
        z = np.asarray(z, dtype=complex)
        return self._log_upsilon(z.ravel()).reshape(z.shape)[()]

    def _log_upsilon(self, z: np.ndarray) -> np.ndarray:
        """log_upsilon on a flat complex array."""
        finite = np.isfinite(z)
        if not finite.all():
            raise DomainError(f"Upsilon needs a finite argument, got {z[~finite][0]}")
        g2 = self.gamma / 2.0
        ig2 = 2.0 / self.gamma
        band_lo = self.Q / 2.0 - self.gamma / 4.0
        band_hi = self.Q / 2.0 + self.gamma / 4.0

        # up while below the band, then down while above it (2/gamma unless
        # that crosses band_lo); per step: the entries it moves, the real part
        # where each factor is taken, its length and its direction
        x, y = z.real.copy(), z.imag
        down, steps = np.zeros(z.shape, dtype=bool), []
        for shifts in range(self.SHIFT_BUDGET + 1):
            moving = np.flatnonzero(((x < band_lo) & ~down) | (x >= band_hi))
            if not moving.size:
                break
            if shifts == self.SHIFT_BUDGET:
                raise BudgetExceeded(f"more than {self.SHIFT_BUDGET} Upsilon shifts required")
            x0 = x[moving]
            is_down = down[moving] = x0 >= band_hi
            coarse = np.where(is_down, x0 - ig2 >= band_lo, band_lo - x0 >= ig2)
            step = np.where(coarse, ig2, g2)
            # down: z - step, then its factor; up: the factor at z, then z + step
            x[moving] = np.where(is_down, x0 - step, x0 + step)
            steps.append((moving, np.where(is_down, x[moving], x0), coarse, is_down))

        acc = np.zeros(z.shape, dtype=complex)
        if steps:
            moved, at, coarse, is_down = (np.concatenate(a) for a in zip(*steps))
            factors = self._log_step(at, y[moved], coarse)
            lo = 0
            for moving, *_ in steps:
                f, d = factors[lo : lo + moving.size], is_down[lo : lo + moving.size]
                acc[moving] = np.where(d, acc[moving] + f, acc[moving] - f)
                lo += moving.size

        if np.any(acc.real == math.inf):
            raise PoleError(
                "Upsilon shift chain accumulated an uncancelled pole of l; "
                "this indicates evaluation on the zero lattice from an inconsistent direction"
            )
        out = np.full(z.shape, _NEG_INF)
        live = acc.real != -math.inf
        out[live] = acc[live] + self._log_upsilon_band(_complex(x[live], y[live]))
        return out


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
