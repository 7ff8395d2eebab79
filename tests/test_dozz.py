import math
import time

import mpmath
import numpy as np
import pytest

import lcft.dozz
from lcft.bootstrap import Quadrature, _sphere_chain, _torus_cycle, graph_correlator
from lcft.dozz import _distinct, _dozz, _lattice_distance, _upsilon_evaluator, dozz_constant
from lcft.errors import BudgetExceeded, DomainError, NearPole
from lcft.params import CftParams
from lcft.special import UpsilonEvaluator

from engine import tuple_rho


class TestDozzConstant:
    def test_permutation_symmetry_spec_point(self):
        params = CftParams(gamma=1.0, mu=1.0)
        base = dozz_constant(0.3, 0.5, 0.9, params)
        for perm in ((0.5, 0.3, 0.9), (0.9, 0.5, 0.3), (0.5, 0.9, 0.3)):
            assert dozz_constant(*perm, params) == pytest.approx(base, rel=1e-12)

    def test_permutation_symmetry_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            params = CftParams(gamma=float(rng.uniform(0.7, 1.8)))
            a = rng.uniform(0.2, 0.85 * params.Q, size=3)
            base = dozz_constant(*a, params)
            perm = rng.permutation(3)
            assert dozz_constant(*a[perm], params) == pytest.approx(base, rel=1e-12)

    def test_mu_scaling_exact(self):
        gamma = 1.3
        base = dozz_constant(0.4, 0.7, 1.25, CftParams(gamma=gamma, mu=1.0))
        for mu in (0.5, 2.0, 7.3):
            scaled = dozz_constant(0.4, 0.7, 1.25, CftParams(gamma=gamma, mu=mu))
            Q = CftParams(gamma=gamma).Q
            assert scaled == pytest.approx(mu ** ((2 * Q - 2.35) / gamma) * base, rel=1e-13)

    def test_reality_on_spectrum_line(self):
        params = CftParams(gamma=math.sqrt(2.0))
        c = dozz_constant(params.Q + 0.5j, 1.0, params.Q - 0.5j, params)
        assert abs(c.imag) < 1e-10 * abs(c)

    def test_near_pole_guard(self):
        params = CftParams(gamma=1.0)
        # abar/2 - Q on the zero lattice: choose alphas summing to 2Q exactly
        Q = params.Q
        with pytest.raises(NearPole):
            dozz_constant(Q, Q / 2, Q / 2, params)

    def test_near_pole_guard_with_shared_memo(self):
        # log Upsilon(0) = -inf as a numerator gives 0; the same argument as a
        # denominator of another triple in the call must still raise NearPole
        params = CftParams(gamma=1.0)
        Q = params.Q
        consts, evals = _dozz(([0.0], [1.0], [1.2]), params)
        assert consts[0] == 0.0 and evals == 7
        with pytest.raises(NearPole, match="within 1e-06 of the Upsilon zero lattice"):
            _dozz(([0.0, Q], [1.0, Q / 2], [1.2, Q / 2]), params)

    def test_shared_memo_is_bitwise(self):
        params = CftParams(gamma=math.sqrt(2.0))
        Q = params.Q
        # p = 30 and 12 put |Im w| of their arguments in other panel counts of
        # the log Upsilon band rule than p = 0.3 and 0.7
        ev, _ = _upsilon_evaluator(params.gamma)
        assert len({int(ev._panel_counts(p)) for p in (0.7, 12.0, 30.0)}) == 3
        triples = [(Q + 1j * p, 1.2, Q - 1j * p) for p in (0.3, 30.0, 0.7, 0.3, 12.0)]
        consts, evals = _dozz(list(zip(*triples)), params)
        alone = np.array([dozz_constant(*args, params) for args in triples])
        assert np.all(consts != 0.0)
        assert consts.tobytes() == alone.tobytes()
        # Q +- ip and alpha/2 +- ip per distinct p, plus alpha, alpha/2 and Q - alpha/2
        assert evals == 4 * 4 + 3

    def test_signed_zeros_are_distinct_arguments(self):
        # 0.7 + 0j and 0.7 - 0j are one value but two bit patterns; the
        # denominators of both triples coincide
        params = CftParams(gamma=1.0)
        plus, minus = complex(0.7, 0.0), complex(0.7, -0.0)
        consts, evals = _dozz(([plus, minus], [1.0, 1.0], [1.2, 1.2]), params)
        assert evals == 7 + 1
        assert _dozz(([plus, plus], [1.0, 1.0], [1.2, 1.2]), params)[1] == 7
        assert consts.tobytes() == np.array(
            [dozz_constant(plus, 1.0, 1.2, params), dozz_constant(minus, 1.0, 1.2, params)]
        ).tobytes()

    def test_distinct_values_keep_bit_patterns(self):
        # values equal but for the sign of one zero, or for one word, stay
        # apart; each value maps back to the first with its bits
        a = complex(0.7, 0.0)
        values = np.array([
            a,
            complex(0.7, -0.0),
            a,
            complex(math.nextafter(0.7, 2.0), 0.0),
            complex(0.7, -0.0),
            0j,
            complex(-0.0, 0.0),
        ])
        first, ids = _distinct(values)
        assert sorted(first.tolist()) == [0, 1, 3, 5, 6]
        assert first[ids].tolist() == [0, 1, 0, 3, 1, 5, 6]
        assert values[first][ids].tobytes() == values.tobytes()
        words = [tuple(w) for w in values[first].view(np.uint64).reshape(-1, 2)]
        assert words == sorted(words)
        assert len(np.unique(values)) == 3  # which merges signed zeros

    @pytest.mark.parametrize(
        "weight", [math.inf, -math.inf, math.nan, complex(1.0, math.inf), complex(math.inf, -math.inf)]
    )
    def test_non_finite_weight_raises_domain_error(self, weight):
        params = CftParams(gamma=math.sqrt(2.0))
        for args in ((weight, 1.0, 1.2), (1.0, 1.2, weight)):
            with pytest.raises(DomainError, match="DOZZ needs finite weights"):
                dozz_constant(*args, params)

    def test_shared_evaluator_cached(self):
        e1 = _upsilon_evaluator(1.17)
        e2 = _upsilon_evaluator(1.17)
        assert e1 is e2

    def test_lattice_distance(self):
        gamma = 1.0
        assert _lattice_distance(0.0 + 0j, gamma) == 0.0
        assert _lattice_distance(-gamma / 2 + 0j, gamma) == 0.0
        Q = gamma / 2 + 2 / gamma
        assert _lattice_distance(Q + 2 / gamma + 0j, gamma) == 0.0
        assert _lattice_distance(Q / 2 + 0j, gamma) > 0.5

    @pytest.mark.parametrize("gamma", [0.8, 1.0, math.sqrt(2.0), 1.3, 1.8])
    def test_lattice_distance_matches_box_scan(self, gamma):
        # every lattice point base + sgn (a g/2 + b 2/g) within 14 of its base
        Q = gamma / 2 + 2 / gamma
        a = np.arange(int(14 / (gamma / 2)) + 1)[:, None]
        b = np.arange(int(14 / (2 / gamma)) + 1)[None, :]
        steps = (a * gamma / 2 + b * 2 / gamma).ravel()
        box = np.concatenate([-steps, Q + steps])
        rng = np.random.default_rng(3)
        on_lattice = box[np.abs(box - Q / 2) < 6]
        re = np.concatenate([rng.uniform(-6.0, Q + 6.0, 300), on_lattice])
        zs = re + 1j * rng.uniform(-10.0, 10.0, re.size)
        for z in zs:
            assert _lattice_distance(complex(z), gamma) == pytest.approx(
                np.abs(z - box).min(), abs=1e-12
            )

    def test_lattice_distance_equals_short_generator_search(self):
        # the search runs over the 2/gamma generator; the gamma/2 loop it
        # replaced is the oracle, on random arguments and on lattice points
        rng = np.random.default_rng(5)
        for _ in range(3000):
            gamma = float(rng.choice([math.sqrt(2.0), 1.0, 0.8, rng.uniform(0.05, 1.99)]))
            Q = gamma / 2 + 2 / gamma
            z = complex(rng.uniform(-60.0, Q + 60.0), rng.choice([0.0, -0.0, rng.uniform(-3.0, 3.0)]))
            assert _lattice_distance(z, gamma) == _short_generator_search(z, gamma)
        for gamma in (0.3, 0.8, 1.0, math.sqrt(2.0), 1.8):
            Q = gamma / 2 + 2 / gamma
            for a in range(30):
                for b in range(8):
                    for base, sgn in ((0.0, -1.0), (Q, 1.0)):
                        z = complex(base + sgn * (a * gamma / 2 + b * 2 / gamma), 0.0)
                        assert _lattice_distance(z, gamma) == _short_generator_search(z, gamma)

    def test_lattice_distance_at_small_gamma_is_short(self):
        # gamma = 0.02 admits denominators out to Re z = 201 * 2/gamma = 20 100;
        # the gamma/2 loop took about a second at Re z = 8 000, this search
        # about 200 steps
        gamma = 0.02
        z = complex(8000.3, 0.5)
        t0 = time.perf_counter()
        d = _lattice_distance(z, gamma)
        assert time.perf_counter() - t0 < 0.1
        # lattice points lie gamma/2 = 0.01 apart there, so the nearest is
        # within 0.005 along the real axis
        assert 0.5 <= d <= math.hypot(0.005, 0.5)
        z = complex(300.3, 0.5)
        assert _lattice_distance(z, 0.05) == _short_generator_search(z, 0.05)

    def test_lattice_distance_on_arrays(self):
        # every entry of an array, of any shape, equals the scalar search
        rng = np.random.default_rng(7)
        for gamma in (0.3, 0.8, 1.0, math.sqrt(2.0), 1.8):
            Q = gamma / 2 + 2 / gamma
            lattice = [
                base + sgn * (a * gamma / 2 + b * 2 / gamma)
                for a in range(12)
                for b in range(4)
                for base, sgn in ((0.0, -1.0), (Q, 1.0))
            ]
            re = np.concatenate([rng.uniform(-40.0, Q + 40.0, 200), lattice])
            on_axis = rng.random(re.size) < 0.5
            im = np.where(on_axis, rng.choice([0.0, -0.0, 1e-7], re.size), rng.uniform(-3.0, 3.0, re.size))
            zs = re + 0j
            zs.imag = im
            distances = _lattice_distance(zs.reshape(-1, 2), gamma)
            assert distances.shape == (zs.size // 2, 2)
            for z, d in zip(zs, distances.ravel()):
                assert d == _short_generator_search(complex(z), gamma), (gamma, z)


def _short_generator_search(z: complex, gamma: float) -> float:
    """Distance from z to the zero lattice of Upsilon by the loop over the
    gamma/2 generator, O(Re z / (gamma/2)) steps: each a, then the floor or
    ceiling of the rest in steps of 2/gamma."""
    Q = gamma / 2.0 + 2.0 / gamma
    best = math.inf
    for base, sgn in ((0.0, -1.0), (Q, 1.0)):
        t = max(sgn * (z.real - base), 0.0)
        for a in range(int(t / (gamma / 2.0)) + 2):
            rem = (t - a * gamma / 2.0) / (2.0 / gamma)
            for b in (max(math.floor(rem), 0), max(math.ceil(rem), 0)):
                best = min(best, abs(z - (base + sgn * (a * gamma / 2.0 + b * 2.0 / gamma))))
    return best


class TestRhoDensity:
    def test_torus_one_point_form(self):
        params = CftParams(gamma=1.2)
        p = 0.8
        rho = tuple_rho(_torus_cycle([1.1], [0.1]), [p], params)
        expect = dozz_constant(params.Q + 1j * p, 1.1, params.Q - 1j * p, params)
        assert isinstance(rho, complex)
        assert abs(rho.imag) <= 1e-10 * abs(rho)
        assert rho.real == pytest.approx(expect.real, rel=1e-12)

    def test_torus_one_point_real_positive(self):
        params = CftParams(gamma=math.sqrt(2.0))
        for p in np.linspace(0.05, 8.0, 40):
            rho = tuple_rho(_torus_cycle([1.2], [0.1]), [float(p)], params)
            assert isinstance(rho, complex)
            assert rho.real > 0
            assert abs(rho.imag) <= 1e-10 * abs(rho)

    def test_sphere_k4(self):
        params = CftParams(gamma=1.1)
        Q = params.Q
        alphas = [1.5, 1.4, 1.3, 1.2]
        p2 = 0.6
        g = _sphere_chain(alphas, [0.25])
        rho = tuple_rho(g, [p2], params)
        expect = dozz_constant(1.5, 1.4, Q - 1j * p2, params) * dozz_constant(
            1.2, 1.3, Q + 1j * p2, params
        )
        assert isinstance(rho, complex)
        assert rho == pytest.approx(expect, rel=1e-12)

    def test_engine_density_is_bare_dozz_product(self):
        params = CftParams(gamma=1.2)
        # the vertex constant scales the graph correlator; its per-node
        # density stays the bare DOZZ product
        g = _torus_cycle([1.1], [0.1])
        quad = Quadrature(p_max=1.0, panel_width=0.5, nodes_per_panel=2)
        r = graph_correlator(g, params, quad=quad, N=1)
        rho = tuple_rho(g, [float(quad.nodes[0])], params)
        assert r.details["rho"][0] == pytest.approx(rho, rel=1e-14)

    def test_genus2_graph_case(self):
        from lcft.graphs import AdmissibleGraph, EdgeSpec

        params = CftParams(gamma=math.sqrt(2.0))
        Q = params.Q
        g = AdmissibleGraph(
            edges=[
                EdgeSpec((1, 1), (2, 1), q=0.1),
                EdgeSpec((1, 2), (1, 3), q=0.1),
                EdgeSpec((2, 2), (2, 3), q=0.1),
            ]
        )
        ps = [0.5, 0.9, 1.3]
        rho = tuple_rho(g, ps, params)
        expect = dozz_constant(Q - 1j * ps[0], Q - 1j * ps[1], Q + 1j * ps[1], params)
        expect *= dozz_constant(Q + 1j * ps[0], Q - 1j * ps[2], Q + 1j * ps[2], params)
        assert isinstance(rho, complex)
        assert rho == pytest.approx(expect, rel=1e-12)


class TestDozzGuards:
    """_dozz's guards come in one order, whatever else the batch holds: a
    non-finite weight raises DomainError, then any denominator out of the
    shift budget's reach raises BudgetExceeded, then one near the zero
    lattice raises NearPole, and only then is log Upsilon evaluated."""

    def test_guard_order(self, monkeypatch):
        params = CftParams(gamma=1.0)
        Q = params.Q
        _upsilon_evaluator(params.gamma)  # log Upsilon'(0), before the patch
        fine = (0.3, 0.5, 0.9)
        near = (Q, Q / 2, Q / 2)  # abar/2 - Q = 0
        far = (1e7, 1.0, 1.2)  # abar/2 - alpha_2 and abar/2 - alpha_3 out of reach
        bad = (1.0, complex(1.2, math.nan), 0.9)

        def batch(*triples):
            return list(zip(*triples))

        def no_log_upsilon(self, z):
            raise AssertionError("log Upsilon evaluated before the guards")

        search, searched = lcft.dozz._lattice_distance, []

        def recording(z, gamma):
            searched.append(np.size(z))
            return search(z, gamma)

        monkeypatch.setattr(UpsilonEvaluator, "_log_upsilon", no_log_upsilon)
        monkeypatch.setattr(lcft.dozz, "_lattice_distance", recording)
        with pytest.raises(DomainError, match="DOZZ needs finite weights"):
            _dozz(batch(near, far, fine, bad), params)
        with pytest.raises(BudgetExceeded, match="more than 200 Upsilon shifts required"):
            _dozz(batch(near, fine, far), params)
        assert searched == []
        with pytest.raises(NearPole, match="within 1e-06 of the Upsilon zero lattice"):
            _dozz(batch(fine, near, fine), params)
        assert searched == [6]  # the six distinct denominators of both triples, in one search
        monkeypatch.undo()
        assert _dozz(batch(fine), params)[0][0] == dozz_constant(*fine, params)


class TestDozzShiftEquation:
    """Teschner's shift equation (hep-th/9507109).  Upsilon(x + g/2) =
    S(x) Upsilon(x), with S(x) = l(g x / 2) (g/2)^{1 - g x}, turns

        C(a1 + g/2, a2, a3) / C(a1 - g/2, a2, a3)
            = S(a1 - g/2) S(a1) S(h - a1 - g/4)
              / [A S(h - Q - g/4) S(h - a2 - g/4) S(h - a3 - g/4)],

    h = (a1 + a2 + a3)/2 and A = pi mu l(g^2/4) (g/2)^{2 - g^2/2}, into
    Gamma functions.  Here l is taken from mpmath's log Gamma, so the oracle
    shares no code with the kernel."""

    def test_random_complex_arguments(self):
        mpmath.mp.dps = 30
        rng = np.random.default_rng(17)

        def log_l(x):
            return mpmath.loggamma(x) - mpmath.loggamma(1 - x)

        checked = out_of_band = 0
        while checked < 24:
            gamma, mu = float(rng.uniform(0.6, 1.9)), float(rng.uniform(0.5, 2.0))
            params = CftParams(gamma=gamma, mu=mu)
            Q = params.Q
            a = rng.uniform(-0.5, Q + 0.5, 3) + 1j * rng.uniform(-2.0, 2.0, 3)
            h = a.sum() / 2
            if min(abs(np.imag([*a, h, *(h - a)]))) < 0.1:
                continue  # away from the real zero lattice of every Upsilon
            checked += 1
            plus, minus = _dozz(([a[0] + gamma / 2, a[0] - gamma / 2], [a[1]] * 2, [a[2]] * 2), params)[0]
            for shift in (gamma / 2, -gamma / 2):
                b = a + [shift, 0.0, 0.0]
                args = [*b, b.sum() / 2 - Q, *(b.sum() / 2 - b)]
                out_of_band += sum(abs(z.real - Q / 2) > gamma / 4 for z in args)

            g, Qm = mpmath.mpf(gamma), mpmath.mpf(Q)
            a1, a2, a3 = (mpmath.mpc(x.real, x.imag) for x in a)
            hm = (a1 + a2 + a3) / 2

            def log_s(x):
                return log_l(g * x / 2) + (1 - g * x) * mpmath.log(g / 2)

            log_a = mpmath.log(mpmath.pi * mu) + log_l(g**2 / 4) + (2 - g**2 / 2) * mpmath.log(g / 2)
            ratio = complex(
                mpmath.exp(
                    log_s(a1 - g / 2) + log_s(a1) + log_s(hm - a1 - g / 4)
                    - log_a - log_s(hm - Qm - g / 4) - log_s(hm - a2 - g / 4) - log_s(hm - a3 - g / 4)
                )
            )
            assert plus / minus == pytest.approx(ratio, rel=1e-12), (gamma, mu, a)
        assert out_of_band > 100  # of 24 * 2 * 7 arguments: the shift chain runs


class TestDozzReflection:
    """Reflection a1 -> 2Q - a1, which keeps Delta_a = (a/2)(Q - a/2).  It
    permutes the four denominator Upsilons and turns Ups(a1) into
    Ups(a1 - Q), so two shift equations (Upsilon by g/2 and by 2/g) give

        C(2Q - a1, a2, a3) / C(a1, a2, a3)
            = A^{2(a1 - Q)/g}
              / [l(g(a1 - Q)/2) l(2a1/g - 4/g^2) (g/2)^{4a1/g - 8/g^2 - g(a1 - Q)}],

    A = pi mu l(g^2/4) (g/2)^{2 - g^2/2}, free of a2 and a3.  l is taken from
    mpmath's log Gamma, so the oracle shares no code with the kernel."""

    def test_random_complex_arguments(self):
        mpmath.mp.dps = 30
        rng = np.random.default_rng(23)

        def log_l(x):
            return mpmath.loggamma(x) - mpmath.loggamma(1 - x)

        checked = 0
        while checked < 24:
            gamma, mu = float(rng.uniform(0.6, 1.9)), float(rng.uniform(0.5, 2.0))
            params = CftParams(gamma=gamma, mu=mu)
            Q = params.Q
            a = rng.uniform(-0.5, Q + 0.5, 3) + 1j * rng.uniform(-2.0, 2.0, 3)
            h = a.sum() / 2
            if min(abs(np.imag([*a, h, *(h - a)]))) < 0.1:
                continue  # away from the real zero lattice of every Upsilon
            checked += 1
            reflected, plain = _dozz(([2 * Q - a[0], a[0]], [a[1]] * 2, [a[2]] * 2), params)[0]

            g, Qm = mpmath.mpf(gamma), mpmath.mpf(Q)
            a1 = mpmath.mpc(a[0].real, a[0].imag)
            log_a = mpmath.log(mpmath.pi * mu) + log_l(g**2 / 4) + (2 - g**2 / 2) * mpmath.log(g / 2)
            ratio = complex(
                mpmath.exp(
                    2 * (a1 - Qm) / g * log_a - log_l(g * (a1 - Qm) / 2) - log_l(2 * a1 / g - 4 / g**2)
                    - (4 * a1 / g - 8 / g**2 - g * (a1 - Qm)) * mpmath.log(g / 2)
                )
            )
            assert reflected / plain == pytest.approx(ratio, rel=1e-12), (gamma, mu, a)
