import math

import numpy as np
import pytest
from scipy.integrate import quad

from lcft.errors import DomainError
from lcft.free_field import (
    BoundaryField,
    annulus_partition,
    free_annulus_amplitude,
    heat_kernel_K0,
)
from lcft.params import CftParams

from oracles import gauss_integral


class TestFreeAnnulus:
    def test_zero_fields(self):
        f = BoundaryField(0.0, np.zeros(5), np.zeros(5))
        assert free_annulus_amplitude(0.3, f, f) == pytest.approx(1.0)

    def test_zero_mode_gaussian(self):
        t = -math.log(0.4)
        f = BoundaryField(1.3, np.zeros(3), np.zeros(3))
        fp = BoundaryField(-0.7, np.zeros(3), np.zeros(3))
        expect = math.exp(-((1.3 + 0.7) ** 2) / (2 * t))
        assert free_annulus_amplitude(0.4, f, fp) == pytest.approx(expect, rel=1e-14)

    def test_domain(self):
        f = BoundaryField(0.0, np.zeros(2), np.zeros(2))
        with pytest.raises(DomainError):
            free_annulus_amplitude(1.2, f, f)

    def test_k0_relation_pointwise(self):
        # A0 = sqrt(-2 pi ln|q|) |q|^{-Q^2/2} K0(-ln|q|) prod(1 - |q|^{2n})
        params = CftParams(gamma=1.1)
        rng = np.random.default_rng(8)
        q = 0.3
        t = -math.log(q)
        prod = float(np.prod(1.0 - q ** (2 * np.arange(1, 400))))
        for _ in range(20):
            f = BoundaryField.sample(8, rng)
            fp = BoundaryField.sample(8, rng)
            a0 = free_annulus_amplitude(q, f, fp)
            rhs = (
                math.sqrt(2 * math.pi * t)
                * q ** (-params.Q**2 / 2.0)
                * heat_kernel_K0(t, f, fp, params)
                * prod
            )
            assert a0 == pytest.approx(rhs, rel=1e-8)


class TestHeatKernel:
    def test_prefactor_at_zero_fields(self):
        params = CftParams(gamma=1.0)
        f = BoundaryField(0.0, np.zeros(6), np.zeros(6))
        got = heat_kernel_K0(1.0, f, f, params)
        expect = math.exp(-params.Q**2 / 2.0) / math.sqrt(2 * math.pi)
        expect /= float(np.prod(1.0 - np.exp(-2.0 * np.arange(1, 7))))
        assert got == pytest.approx(expect, rel=1e-13)

    def test_eigenrelation_by_quadrature(self):
        # int K0(t, f, .) e^{(alpha-Q) c'} dmu0 = e^{-2 Delta_alpha t} e^{(alpha-Q) c}
        params = CftParams(gamma=1.2)
        alpha = 0.4
        t = 0.7
        rng = np.random.default_rng(5)
        f = BoundaryField.sample(3, rng)
        # c'-integral numerically; mode integrals are exactly 1 each (checked below)
        def integrand(cp):
            return (
                math.exp(-((f.c - cp) ** 2) / (2 * t)) / math.sqrt(2 * math.pi * t)
            ) * math.exp((alpha - params.Q) * cp)

        c_int, _err = quad(integrand, -40, 40, limit=200)
        da = alpha / 2.0 * (params.Q - alpha / 2.0)
        lhs = math.exp(-params.Q**2 * t / 2.0) * c_int
        # mode part: per mode int k(x, x') dmu(x') = 1 by Gaussian algebra
        assert lhs == pytest.approx(math.exp(-2 * da * t) * math.exp((alpha - params.Q) * f.c), rel=1e-9)

    def test_mode_integral_is_one(self):
        # per x-mode: (1-a^2)^{-1/2} int exp(-(x-a x')^2/(2(1-a^2)) + x^2/2) dmu(x') = 1
        t, n, x = 0.6, 2, 0.83
        a = math.exp(-n * t)

        def integrand(xp):
            return (
                (1 - a * a) ** -0.5
                * math.exp(-((x - a * xp) ** 2) / (2 * (1 - a * a)) + x * x / 2)
                * math.exp(-xp * xp / 2)
                / math.sqrt(2 * math.pi)
            )

        val, _ = quad(integrand, -30, 30)
        assert val == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("t,s", [(0.3, 0.3), (0.3, 0.5), (0.5, 1.0), (1.0, 1.0)])
    def test_semigroup_analytic_convolution(self, t, s):
        params = CftParams(gamma=1.3)
        rng = np.random.default_rng(3)
        M = 8
        for _ in range(3):
            f = BoundaryField.sample(M, rng)
            fp = BoundaryField.sample(M, rng)
            # closed-form Gaussian convolution over the intermediate field
            at = np.exp(-np.arange(1, M + 1) * t)
            asn = np.exp(-np.arange(1, M + 1) * s)
            pref = math.exp(-params.Q**2 * (t + s) / 2.0) / (2 * math.pi * math.sqrt(t * s))
            pref /= float(np.prod((1 - at**2) * (1 - asn**2)))
            A = 0.5 / t + 0.5 / s
            B = f.c / t + fp.c / s
            C = -f.c**2 / (2 * t) - fp.c**2 / (2 * s)
            total = gauss_integral(A, B, C)
            for x, xp in ((f.xs, fp.xs), (f.ys, fp.ys)):
                for n in range(1, M + 1):
                    an, asn_n = at[n - 1], asn[n - 1]
                    Am = an**2 / (2 * (1 - an**2)) + 1.0 / (2 * (1 - asn_n**2))
                    Bm = x[n - 1] * an / (1 - an**2) + xp[n - 1] * asn_n / (1 - asn_n**2)
                    Cm = (
                        -x[n - 1] ** 2 / (2 * (1 - an**2))
                        + x[n - 1] ** 2 / 2
                        - xp[n - 1] ** 2 * asn_n**2 / (2 * (1 - asn_n**2))
                    )
                    total *= gauss_integral(Am, Bm, Cm) / math.sqrt(2 * math.pi)
            lhs = pref * total
            rhs = heat_kernel_K0(t + s, f, fp, params)
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_domain(self):
        params = CftParams(gamma=1.0)
        f = BoundaryField(0.0, np.zeros(2), np.zeros(2))
        with pytest.raises(DomainError):
            heat_kernel_K0(-1.0, f, f, params)


class TestAnnulusPartition:
    def test_depends_on_modulus_only(self):
        assert annulus_partition(0.3) == annulus_partition(0.3 * np.exp(0.7j))

    def test_small_q_asymptotics(self):
        # the product deviates from 1 by exactly |q|^2, so 1e-10 needs |q| <= 1e-5
        for q, tol in ((1e-6, 1e-10), (1e-4, 2e-8)):
            t = -math.log(q)
            expect = 2 ** -0.5 * math.sqrt(2 * math.pi / t) * math.exp(t / 12.0)
            assert annulus_partition(q) == pytest.approx(expect, rel=tol)

    def test_eta_relation(self):
        # 1/eta(tau~) with e^{2 pi i tau~} = |q|^2 is prod(1-|q|^{2n})^{-1} |q|^{-1/12}
        q = 0.3
        lhs = annulus_partition(q) / (2 ** -0.5 * math.sqrt(-2 * math.pi / math.log(q)))
        expect = q ** (-1.0 / 12.0) / np.prod(1.0 - q ** (2 * np.arange(1, 400)))
        assert lhs == pytest.approx(expect, rel=1e-12)

    def test_eigenrelation_error_monotone_in_M(self):
        # truncated-amplitude eigenrelation error ~ |q|^{2(M+1)}, monotone
        params = CftParams(gamma=1.1)
        q, alpha = 0.3, 0.4
        t = -math.log(q)
        prod_full = float(np.prod(1.0 - q ** (2 * np.arange(1, 600))))
        errs = []
        for M in (2, 4, 8):
            n = np.arange(1, M + 1)
            lhs = float(np.prod(1.0 - np.exp(-2 * n * t)))
            errs.append(abs(lhs - prod_full) / prod_full)
        assert errs[0] > errs[1] > errs[2]
