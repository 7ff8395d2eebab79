import cmath
import math

import mpmath
import numpy as np
import pytest

import lcft.special
from lcft.errors import BudgetExceeded, DomainError, PoleError
from lcft.special import (
    UpsilonEvaluator,
    _gauss_legendre,
    _log_gamma,
    _panel_rule,
    dedekind_eta,
    l_ratio,
    log_l_ratio,
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

    @pytest.mark.parametrize(
        "z", [-math.inf, math.inf, math.nan, complex(0.5, math.inf), complex(math.nan, 1)]
    )
    def test_non_finite_raises_domain_error(self, z):
        for f in (log_l_ratio, l_ratio):
            with pytest.raises(DomainError):
                f(z)


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


class TestGaussLegendre:
    @pytest.mark.parametrize("n, bound", [(1, 1e-16), (3, 1e-15), (16, 1e-14), (20, 1e-14), (200, 5e-13)])
    def test_weights_against_mpmath(self, n, bound):
        # the end weights move fast with their node: numpy's leggauss has them
        # 7e-14 off at n = 20 and 2e-11 at n = 200
        mpmath.mp.dps = 30
        x, w = _gauss_legendre(n)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        for i in sorted({0, 1, 2, n // 2} & set(range(n))):
            root = mpmath.mpf(x[i])
            for _ in range(4):
                p, p_last = mpmath.legendre(n, root), mpmath.legendre(n - 1, root)
                root -= p * (root**2 - 1) / (n * (root * p - p_last))
            ref = 2 * (1 - root**2) / (n * mpmath.legendre(n - 1, root)) ** 2
            assert abs(x[i] - root) <= 1e-16
            assert abs((w[i] - ref) / ref) <= bound, i

    def test_built_once_and_read_only(self):
        x, w = _gauss_legendre(20)
        again = _gauss_legendre(20)
        assert again[0] is x and again[1] is w
        assert not x.flags.writeable and not w.flags.writeable

    @pytest.mark.parametrize("length, width, n", [(1.0, 1.0, 200), (79.0, 2.5, 20), (6.0, 0.5, 8)])
    def test_panel_rule_is_bitwise_the_uncached_rule(self, monkeypatch, length, width, n):
        cached = _panel_rule(length, width, n)
        monkeypatch.setattr(lcft.special, "_gauss_legendre", _gauss_legendre.__wrapped__)
        fresh = _panel_rule(length, width, n)
        assert [a.tobytes() for a in cached] == [a.tobytes() for a in fresh]


def _mp_band(gamma, w):
    """The band integral of ln Upsilon_{gamma/2} at w = Q/2 - z by mpmath's
    adaptive Gauss-Legendre quadrature at 20 digits: the integrand is cut at
    t = 45 max(1, gamma), beyond which the band's tail is below 1e-17, and
    split into pieces that each hold at most 16 radians of its oscillation."""
    mpmath.mp.dps = 20
    g, w = mpmath.mpf(gamma), mpmath.mpc(w.real, w.imag)

    def integrand(t):
        pair = mpmath.sinh(g * t / 4) * mpmath.sinh(t / g)
        return (w**2 * mpmath.exp(-t) - mpmath.sinh(w * t / 2) ** 2 / pair) / t

    cut = 45.0 * max(1.0, gamma)
    pieces = math.ceil(cut * max(1.0, abs(float(w.imag))) / 16.0)
    return complex(mpmath.quad(integrand, mpmath.linspace(0, cut, pieces + 1), method="gauss-legendre"))


def _mp_log_upsilon(gamma, z):
    """ln Upsilon_{gamma/2}(z): gamma/2 steps of the shift relation with
    mpmath's log Gamma, into the band |Re z - Q/2| <= gamma/4, then the band
    integral."""
    mpmath.mp.dps = 20
    g, z = mpmath.mpf(gamma), mpmath.mpc(z.real, z.imag)
    Q = g / 2 + 2 / g

    def log_shift(x):  # log of l(g x / 2) (g/2)^{1 - g x}
        return mpmath.loggamma(g * x / 2) - mpmath.loggamma(1 - g * x / 2) + (1 - g * x) * mpmath.log(g / 2)

    acc = mpmath.mpc(0)
    while z.real < Q / 2 - g / 4:
        acc -= log_shift(z)
        z += g / 2
    while z.real > Q / 2 + g / 4:
        z -= g / 2
        acc += log_shift(z)
    return complex(acc) + _mp_band(gamma, complex(Q / 2 - z))


class TestLogUpsilonOracle:
    """log Upsilon against mpmath quadrature of its integral representation."""

    def test_band_integral(self):
        # the integrand is even in w and real for real w, so one reference at
        # (|Re w|, |Im w|) checks w at both band edges and both signs of Im w
        grid = [
            (gamma, re, im)
            for gamma in (*GAMMAS, 0.3, 1.99)
            for re, im in ((gamma / 4, 0.0), (0.0, 2.5), (gamma / 4, 2.5), (0.0, 7.0), (gamma / 4, 7.0))
        ]
        grid += [(0.3, 0.075, 15.0), (1.0, 0.25, 28.0), (0.3, 0.0, 40.0)]
        grid += [(gamma, gamma / 4, 40.0) for gamma in (math.sqrt(2.0), 1.99)]
        worst = 0.0
        for gamma, re, im in grid:
            ev = UpsilonEvaluator(gamma)
            ref = _mp_band(gamma, complex(re, im))
            for sign in (1.0, -1.0):
                for w, expect in ((complex(re, im), ref), (complex(re, -im), ref.conjugate())):
                    value = ev._log_upsilon_band(ev.Q / 2.0 - sign * w)
                    worst = max(worst, _rel_to_ref(value, expect))
        assert worst <= 1e-13

    def test_first_panel_does_not_cancel(self):
        # w^2 c and the first panel's sum used to cancel down to |log Upsilon|,
        # 3.8e-14, 5.5e-14 and 2.5e-14 off here (torus1pt-deep's alpha/2 - 5.01i
        # after one shift is the first)
        gamma = math.sqrt(2.0)
        ev = UpsilonEvaluator(gamma)
        for w, bound in ((-0.246 + 5.01j, 5e-15), (-0.35 + 5.9j, 1e-14), (6.9j, 1e-14)):
            assert abs(ev._log_upsilon_band(ev.Q / 2.0 - w) - _mp_band(gamma, w)) <= bound, w

    def test_workload_arguments(self):
        # arguments of the torus1pt-deep, spherekpt-wide and graph-genus2
        # benchmark workloads at gamma = sqrt(2): alpha, alpha/2 - ip, Q - alpha/2
        # and Q + ip of the torus one-point function, the sphere chain's last
        # vertex (alpha_4 + alpha_5 - Q - ip)/2 and the genus-2 Q/2 + i(p1 + p2 + p3)/2
        gamma = math.sqrt(2.0)
        ev = UpsilonEvaluator(gamma)
        Q = ev.Q
        for z in (1.2, 0.6 - 5.99j, Q - 0.6, Q + 5.99j, (2.3 - Q) / 2.0 - 2.97j, Q / 2.0 + 2.17j):
            assert _rel_to_ref(ev.log_upsilon(z), _mp_log_upsilon(gamma, complex(z))) <= 1e-13, z


def _mod_2pi_i(d):
    """d reduced by the multiple of 2 pi i nearest its imaginary part."""
    return d - 2j * math.pi * round(d.imag / (2.0 * math.pi))


class TestArrayKernels:
    """log Gamma, log l and log Upsilon over one array: every entry has the
    bits of its own one-element evaluation."""

    def test_log_gamma_and_log_l_entries_equal_their_own_evaluation(self):
        rng = np.random.default_rng(11)
        zs = rng.uniform(-30.0, 30.0, 200) + 1j * rng.uniform(-20.0, 20.0, 200)
        zs = np.concatenate([zs, [complex(-7.5, 0.0), complex(-7.5, -0.0), 0.25 + 0j, 1e-300j]])
        # log l takes its pole and zero at integers apart from log Gamma
        for f, args in ((_log_gamma, zs), (log_l_ratio, np.concatenate([zs, [-12.0, 3.0]]))):
            batch = f(args)
            assert batch.tobytes() == np.array([f(z) for z in args]).tobytes()
            assert f(args.reshape(2, -1)).tobytes() == batch.tobytes()
        assert log_l_ratio(np.array([-12.0, 3.0])).tolist() == [complex(math.inf), complex(-math.inf)]

    def test_log_upsilon_random_batch_is_entrywise(self):
        # about 40 entries in each group of one rule and one Re w, where a
        # step that depends on the batch would change the bits of some
        gamma = math.sqrt(2.0)
        ev = UpsilonEvaluator(gamma)
        rng = np.random.default_rng(5)
        zs = rng.choice([0.9, 1.2, -2.3, 4.9, ev.Q / 2.0], 400) + 1j * rng.uniform(-12.0, 12.0, 400)
        batch = ev.log_upsilon(zs)
        assert batch.tobytes() == np.array([ev.log_upsilon(z) for z in zs]).tobytes()

    def test_band_fold_is_entrywise_and_exact(self, monkeypatch):
        ev = UpsilonEvaluator(math.sqrt(2.0))
        # dyadic Re w, so that Q/2 - (Q/2 - w) is w exactly; |Im w| = 3 and 20
        # take 23 and 92 panels
        re_w = np.repeat([0.125, -0.125, 0.25, -0.25, 0.3125, -0.3125, 0.0], 8)
        im_z = np.tile([3.0, -3.0, 20.0, -20.0, 0.0, -0.0, 1.7, -1.7], 7)
        zs = lcft.special._complex(ev.Q / 2.0 - re_w, im_z)
        assert np.array_equal(ev.Q / 2.0 - zs.real, re_w)
        assert sorted(set(ev._panel_counts(np.abs(im_z)).tolist())) == [23, 92]
        batch = ev._log_upsilon_band(zs)
        assert batch.tobytes() == np.array([ev._log_upsilon_band(z) for z in zs]).tobytes()
        # I(-w) = I(w) and I(conj w) = conj I(w), bit for bit
        w = ev.Q / 2.0 - zs[(re_w > 0.0) & (im_z > 0.0)]
        values = [ev._log_upsilon_band(ev.Q / 2.0 - v) for v in (w, -w, w.conjugate(), -w.conjugate())]
        assert values[1].tobytes() == values[0].tobytes()
        assert values[2].tobytes() == values[3].tobytes() == values[0].conjugate().tobytes()

        rows, band_group = [], UpsilonEvaluator._band_group

        def recording(self, panels, re, im):
            rows.append(im.size)
            return band_group(self, panels, re, im)

        monkeypatch.setattr(UpsilonEvaluator, "_band_group", recording)
        pairs = ev._log_upsilon_band(np.concatenate([ev.Q / 2.0 - w, ev.Q / 2.0 - w.conjugate()]))
        assert sum(rows) == w.size and pairs.tobytes() == np.concatenate([values[0], values[2]]).tobytes()

    def test_log_upsilon_entries_equal_their_own_evaluation_and_mpmath(self, monkeypatch):
        gamma = math.sqrt(2.0)
        ev = UpsilonEvaluator(gamma)
        Q = ev.Q
        # the band is 0.71 <= Re z < 1.41; the shifts are 0.71 and 1.41 long
        shifted = [
            -2.3 + 0.4j,  # up: 2/gamma, then gamma/2
            0.3 + 1.1j,  # up: gamma/2
            4.9 - 0.6j,  # down: 2/gamma, then gamma/2
            1.6 + 0.2j,  # down: gamma/2
            -6.1 + 0.35j,  # up, with l at Re < -7: log Gamma's reflection
            13.3 - 0.2j,  # down, with l at Re > 8: the reflection at 1 - z
            -1.9 - 9.5j,
            3.7 + 16.0j,
        ]
        band = [
            Q / 2.0 + 0.1 - 3.0j,  # |Im w| = 3, 10 and 20: 23, 46 and 92 panels
            Q / 2.0 - 0.2 + 10.0j,
            Q / 2.0 + 0.3 + 20.0j,
            1.2 + 1.0j,
            *(0.9 + 1j * np.array([1.0, -2.0, 2.5, 0.3, -0.7, 4.1, -5.5])),  # one Re w
        ]
        signed = [complex(0.7, 0.0), complex(0.7, -0.0), complex(-3.3, 0.0), complex(-3.3, -0.0)]
        zeros = [0.0, complex(-0.0, 0.0), complex(0.0, -0.0), -gamma / 2.0, -2.0 / gamma]
        zs = np.array(shifted + band + signed + zeros)

        log_gamma, real_parts = lcft.special._log_gamma, []

        def recording(z):
            real_parts.append(np.min(np.real(z)))
            return log_gamma(z)

        monkeypatch.setattr(lcft.special, "_log_gamma", recording)
        batch = ev.log_upsilon(zs)
        monkeypatch.undo()
        assert min(real_parts) < -7.0
        assert sorted(int(ev._panel_counts(abs(z.imag))) for z in band[:3]) == [23, 46, 92]

        assert batch.tobytes() == np.array([ev.log_upsilon(z) for z in zs]).tobytes()
        assert ev.log_upsilon(zs.reshape(4, -1)).tobytes() == batch.tobytes()
        assert np.all(batch[-len(zeros) :] == complex(-math.inf, 0.0))
        # x + 0j and x - 0j lie on either side of the cut: conjugate values
        at = len(shifted) + len(band)
        assert batch[at + 1] == batch[at].conjugate() and batch[at + 3] == batch[at + 2].conjugate()
        for z, value in zip(zs[: -len(zeros)], batch[: -len(zeros)]):
            ref = _mp_log_upsilon(gamma, complex(z))
            assert abs(_mod_2pi_i(value - ref)) <= 1e-13 * max(1.0, abs(ref)), z


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

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, complex(1, math.inf), complex(1, math.nan)])
    def test_non_finite_raises_domain_error(self, z):
        with pytest.raises(DomainError):
            UpsilonEvaluator(math.sqrt(2.0)).log_upsilon(z)

    def test_band_rules_are_lazy_and_bounded(self):
        ev = UpsilonEvaluator(math.sqrt(2.0))
        assert ev._rules == {}
        ev.log_upsilon(0.9 + 3j)
        ev.log_upsilon(1.1 - 6j)
        assert [t.size for t, _, _ in ev._rules.values()] == [460]
        # 2^18 nodes at most: |Im w| = 1e5 would take 460 * 2^14 of them
        with pytest.raises(BudgetExceeded):
            ev.log_upsilon(ev.Q / 2.0 + 1e5j)
        assert len(ev._rules) == 1

    @pytest.mark.parametrize("side", (-1.0, 1.0))
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_shift_budget_check_refuses_what_log_upsilon_refuses(self, gamma, side):
        ev = UpsilonEvaluator(gamma)
        step = 2.0 / gamma

        def at_gap(gap):  # gap: the distance from the band |Re z - Q/2| < gamma/4
            return complex(ev.Q / 2.0 + side * (gamma / 4.0 + gap), 0.3)

        past = at_gap((ev.SHIFT_BUDGET + 1) * step + 1e-9)
        with pytest.raises(BudgetExceeded, match="more than 200 Upsilon shifts"):
            ev.check_shift_budget(past)
        with pytest.raises(BudgetExceeded, match="more than 200 Upsilon shifts"):
            ev.log_upsilon(past)
        within = at_gap((ev.SHIFT_BUDGET - 10) * step)
        ev.check_shift_budget(within)
        ev.log_upsilon(within)

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
