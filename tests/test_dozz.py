import math

import numpy as np
import pytest

from lcft.bootstrap import Quadrature, _sphere_chain, _torus_cycle, graph_correlator
from lcft.dozz import _dozz, _lattice_distance, _upsilon_evaluator, dozz_constant, rho_density
from lcft.errors import NearPole
from lcft.params import CftParams


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
        triples = [(Q + 1j * p, 1.2, Q - 1j * p) for p in (0.3, 0.7, 0.3)]
        consts, evals = _dozz(list(zip(*triples)), params)
        alone = np.array([dozz_constant(*args, params) for args in triples])
        assert consts.tobytes() == alone.tobytes()
        # Q +- ip and alpha/2 +- ip per distinct p, plus alpha, alpha/2 and Q - alpha/2
        assert evals == 2 * 4 + 3

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


class TestRhoDensity:
    def test_torus_one_point_form(self):
        params = CftParams(gamma=1.2)
        p = 0.8
        rho = rho_density(_torus_cycle([1.1], [0.1]), [p], params)
        expect = dozz_constant(params.Q + 1j * p, 1.1, params.Q - 1j * p, params)
        assert isinstance(rho, complex)
        assert abs(rho.imag) <= 1e-10 * abs(rho)
        assert rho.real == pytest.approx(expect.real, rel=1e-12)

    def test_torus_one_point_real_positive(self):
        params = CftParams(gamma=math.sqrt(2.0))
        for p in np.linspace(0.05, 8.0, 40):
            rho = rho_density(_torus_cycle([1.2], [0.1]), [float(p)], params)
            assert isinstance(rho, complex)
            assert rho.real > 0
            assert abs(rho.imag) <= 1e-10 * abs(rho)

    def test_sphere_k4(self):
        params = CftParams(gamma=1.1)
        Q = params.Q
        alphas = [1.5, 1.4, 1.3, 1.2]
        p2 = 0.6
        g = _sphere_chain(alphas, [0.25])
        rho = rho_density(g, [p2], params)
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
        rho = rho_density(g, [float(quad.nodes[0])], params)
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
        rho = rho_density(g, ps, params)
        expect = dozz_constant(Q - 1j * ps[0], Q - 1j * ps[1], Q + 1j * ps[1], params)
        expect *= dozz_constant(Q + 1j * ps[0], Q - 1j * ps[2], Q + 1j * ps[2], params)
        assert isinstance(rho, complex)
        assert rho == pytest.approx(expect, rel=1e-12)
