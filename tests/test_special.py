import cmath
import math

import mpmath
import numpy as np
import pytest

from lcft.errors import DomainError, PoleError
from lcft.special import (
    UpsilonEvaluator,
    _log_gamma,
    dedekind_eta,
    l_ratio,
    theta1,
    upsilon,
)

GAMMAS = (0.8, 1.0, math.sqrt(2.0), 1.8)


class TestLRatio:
    def test_half(self):
        assert l_ratio(0.5) == pytest.approx(1.0)

    def test_reciprocal_identity(self):
        for z in (0.3, 0.11, 0.77 + 0.2j):
            assert l_ratio(z) * l_ratio(1 - z) == pytest.approx(1.0, rel=1e-13)

    def test_quarter_against_mpmath(self):
        # arbitrary-precision Gamma oracle
        mpmath.mp.dps = 30
        expect = float(mpmath.gamma("0.25") / mpmath.gamma("0.75"))
        assert l_ratio(0.25).real == pytest.approx(expect, rel=1e-14)
        assert l_ratio(0.25).real == pytest.approx(2.95867, rel=1e-5)

    def test_pole(self):
        for z in (0.0, -1.0, -5.0):
            with pytest.raises(PoleError):
                l_ratio(z)

    def test_zero_at_positive_integers(self):
        assert l_ratio(2.0) == 0.0


def _mp_log_gamma(z):
    return complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))


def _rel_to_ref(value, ref):
    return abs(value - ref) / max(1.0, abs(ref))


class TestLogGamma:
    """The complex log Gamma behind l(z) against mpmath's, which is the
    analytic continuation from the positive reals."""

    def test_grid_against_mpmath(self):
        mpmath.mp.dps = 30
        worst = 0.0
        # below Re z = -7 by reflection, whose cost and error do not grow with -Re z
        far = [-20.3, -999.5, -1e4 + 0.3, -1e6 + 0.123, -3.3e7 + 0.25]
        for x in [*np.linspace(-12.0, 12.0, 97), *far]:
            for y in [*np.linspace(-20.0, 20.0, 41), -1e5, -250.0, -1e-9, 1e-300, 400.0]:
                if y == 0.0 and x <= 0.0:
                    continue  # the cut, tested below
                z = complex(x, y)
                worst = max(worst, _rel_to_ref(_log_gamma(z), _mp_log_gamma(z)))
        assert worst <= 1e-14

    def test_positive_reals(self):
        mpmath.mp.dps = 30
        for x in np.geomspace(1e-6, 150.0, 120):
            z = complex(x, 0.0)
            assert _rel_to_ref(_log_gamma(z), _mp_log_gamma(z)) <= 1e-14

    def test_next_to_poles(self):
        mpmath.mp.dps = 30
        for n in range(0, 12):
            for eps in (1e-12, 1e-6, 1e-2):
                for theta in (0.3, 1.7, 2.9, -0.8, -2.2):
                    z = complex(-n + eps * math.cos(theta), eps * math.sin(theta))
                    assert _rel_to_ref(_log_gamma(z), _mp_log_gamma(z)) <= 1e-14, z

    def test_negative_axis_branches(self):
        # x + 0j and x - 0j agree with mpmath mod 2 pi i, on either side of the cut
        mpmath.mp.dps = 30
        for x in (-0.5, -1e-9, -1.25, -2.999999, -3.000001, -7.5, -11.9, -999.5, -1e6 + 0.25):
            ref = _mp_log_gamma(complex(x, 0.0))
            above, below = _log_gamma(complex(x, 0.0)), _log_gamma(complex(x, -0.0))
            for value in (above, below):
                d = value - ref
                d -= 2j * math.pi * round(d.imag / (2.0 * math.pi))
                assert abs(d) <= 1e-14 * max(1.0, abs(ref)), (x, value)
            assert below == above.conjugate()
            assert abs(above.imag - below.imag) > math.pi
            assert abs(above - _log_gamma(complex(x, 1e-300))) <= 1e-14 * abs(above)


class TestUpsilon:
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_strip_center_is_one(self, gamma):
        ev = UpsilonEvaluator(gamma)
        assert upsilon(ev.Q / 2.0, ev) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_shift_relation_grid(self, gamma):
        ev = UpsilonEvaluator(gamma)
        z = 0.1
        while z < ev.Q - 0.6:
            lhs = upsilon(z + gamma / 2.0, ev)
            rhs = l_ratio(gamma * z / 2.0) * (gamma / 2.0) ** (1 - gamma * z) * upsilon(z, ev)
            assert abs(lhs - rhs) <= 1e-8 * abs(lhs)
            z += 0.1

    def test_second_shift_relation(self):
        gamma = 1.0
        ev = UpsilonEvaluator(gamma)
        z = 0.4
        lhs = upsilon(z + 2.0 / gamma, ev)
        rhs = l_ratio(2.0 * z / gamma) * (gamma / 2.0) ** (4.0 * z / gamma - 1.0) * upsilon(z, ev)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_shift_example_gamma_one(self):
        ev = UpsilonEvaluator(1.0)
        ratio = upsilon(0.4 + 0.5, ev) / upsilon(0.4, ev)
        expect = l_ratio(0.4 / 2.0) * 0.5 ** (1 - 0.4)
        assert ratio == pytest.approx(expect, rel=1e-10)

    def test_zeros(self):
        gamma = 1.3
        ev = UpsilonEvaluator(gamma)
        for z0 in (-gamma / 2.0, -2.0 / gamma, ev.Q, ev.Q + gamma / 2.0):
            neighborhood = abs(upsilon(z0 + 0.1, ev))
            assert abs(upsilon(z0, ev)) < 1e-6 * neighborhood

    def test_real_on_real_axis_and_schwarz(self):
        ev = UpsilonEvaluator(1.2)
        assert abs(upsilon(0.9, ev).imag) < 1e-14
        z = 0.8 + 0.6j
        assert upsilon(z.conjugate(), ev) == pytest.approx(upsilon(z, ev).conjugate(), rel=1e-12)

    @pytest.mark.parametrize("gamma", (1.2, math.sqrt(2.0), 0.8))
    def test_prime_zero_identity(self, gamma):
        # Upsilon'(0) = Upsilon(gamma/2) against a Richardson-extrapolated difference
        ev = UpsilonEvaluator(gamma)
        h = 1e-4

        def central(hh):
            return (upsilon(hh, ev) - upsilon(-hh, ev)) / (2 * hh)

        fd = (4 * central(h / 2) - central(h)) / 3
        assert fd == pytest.approx(upsilon(gamma / 2.0, ev), rel=1e-6)


class TestEta:
    def test_translation(self):
        tau = 2j
        assert dedekind_eta(tau + 1) / dedekind_eta(tau) == pytest.approx(
            cmath.exp(1j * cmath.pi / 12), rel=1e-12
        )

    def test_inversion(self):
        tau = 1 + 1j
        assert dedekind_eta(-1 / tau) / dedekind_eta(tau) == pytest.approx(
            cmath.sqrt(tau / 1j), rel=1e-12
        )

    def test_cusp_asymptotics(self):
        assert dedekind_eta(10j).real == pytest.approx(math.exp(-10 * math.pi / 12), rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            dedekind_eta(1.0 - 0.5j)

    def test_functional_equations_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.4, 2.5))
            r1 = dedekind_eta(tau + 1) / dedekind_eta(tau) - cmath.exp(1j * cmath.pi / 12)
            r2 = dedekind_eta(-1 / tau) / dedekind_eta(tau) - cmath.sqrt(tau / 1j)
            assert abs(r1) < 1e-10 and abs(r2) < 1e-10


def theta1_product(z, tau):
    """Product representation (independent route for the series test)."""
    q = cmath.exp(1j * cmath.pi * tau)
    out = -1j * q ** (1.0 / 6.0) * cmath.exp(1j * cmath.pi * z) * dedekind_eta(tau)
    for m in range(1, 200):
        out *= (1 - q ** (2 * m) * cmath.exp(2j * cmath.pi * z)) * (
            1 - q ** (2 * m - 2) * cmath.exp(-2j * cmath.pi * z)
        )
    return out


class TestTheta1:
    def test_zero_at_origin(self):
        assert theta1(0.0, 1j) == 0.0

    def test_antisymmetry(self):
        z, tau = 0.3 + 0.1j, 1j
        assert theta1(-z, tau) == pytest.approx(-theta1(z, tau), abs=1e-14)

    def test_series_equals_product(self):
        z, tau = 0.2, 2j
        assert theta1(z, tau) == pytest.approx(theta1_product(z, tau), rel=1e-12)

    def test_product_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
            a, b = theta1(z, tau), theta1_product(z, tau)
            assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            theta1(0.1, -1j)

    def test_vectorized(self):
        zs = np.array([0.1, 0.2 + 0.1j, -0.3])
        vals = theta1(zs, 1.5j)
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(theta1(0.1, 1.5j))
