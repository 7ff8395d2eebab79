import json
import math
import tracemalloc

import numpy as np
import pytest

import lcft.blocks
import lcft.bootstrap
import lcft.dozz
import lcft.graphs
import lcft.virasoro
from lcft.acceptance import _genus2_hand_coded, _torus_one_point_hand_coded
from lcft.blocks import BlockSeries, _contract, _fold, _gram_factors, _level_terms, _on_axis
from lcft.bootstrap import (
    ANNULUS_VERTEX_CONSTANT,
    DISK_VERTEX_CONSTANT,
    Quadrature,
    Z_DISK,
    _ZETA_PRIME_MINUS1,
    _sphere_chain,
    _sphere_scalar,
    _torus_cycle,
    graph_correlator,
    sphere_k_point,
    torus_k_point,
    torus_one_point,
)
from lcft.dozz import dozz_constant
from lcft.errors import CostGuard, DegenerateWeight, GraphInvalid, NearPole, ValidationError
from lcft.graphs import AdmissibleGraph, EdgeSpec, MarkedPoint, _plan, _violations
from lcft.params import CftParams
from lcft.virasoro import conformal_weight, partitions

from engine import tuple_block, tuple_rho

QUAD = Quadrature(p_max=4.0, panel_width=0.5, nodes_per_panel=6)
S2 = CftParams(gamma=math.sqrt(2.0))


@pytest.fixture(scope="module")
def torus_k2():
    """Torus 2-point at gamma = sqrt(2), 20 x 20 nodes, N = 2."""
    quad = Quadrature(p_max=2.5, panel_width=0.5, nodes_per_panel=4)
    return torus_k_point([0.9, 1.1], [0.0, 0.2 + 2.2j], 1j, S2, quad, N=2)


class TestQuadrature:
    def test_nodes_increasing_weights_positive(self):
        q = Quadrature(p_max=12.0, panel_width=0.5, nodes_per_panel=8)
        assert np.all(np.diff(q.nodes) > 0)
        assert np.all(q.weights > 0)
        assert q.nodes[0] > 0 and q.nodes[-1] <= 12.0

    def test_integrates_polynomial_exactly(self):
        q = Quadrature(p_max=2.0, panel_width=0.5, nodes_per_panel=4)
        assert np.dot(q.weights, q.nodes**3) == pytest.approx(2.0**4 / 4.0, rel=1e-13)

    @pytest.mark.parametrize("field", ["p_max", "panel_width"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_non_finite_or_non_positive_rejected(self, field, bad):
        with pytest.raises(ValidationError, match="positive and finite"):
            Quadrature(**{field: bad})

    def test_node_count_at_the_budget(self):
        # 125 000 panels of 8 nodes is the default budget of 10^6 nodes
        assert Quadrature(p_max=62_500.0, panel_width=0.5, nodes_per_panel=8).n_nodes == 10**6
        with pytest.raises(CostGuard, match="exceed budget 1000000"):
            Quadrature(p_max=62_500.0, panel_width=0.5, nodes_per_panel=9)
        with pytest.raises(CostGuard, match="exceed budget 1000000"):
            Quadrature(p_max=1e300, panel_width=1e-300)
        # the square root of the budget caps the nodes of one panel
        assert Quadrature(p_max=0.5, panel_width=0.5, nodes_per_panel=1000).n_nodes == 1000
        with pytest.raises(CostGuard, match="exceed budget 1000000"):
            Quadrature(p_max=0.5, panel_width=0.5, nodes_per_panel=1001)


class TestVertexConstants:
    def test_annulus_constant(self):
        assert ANNULUS_VERTEX_CONSTANT == pytest.approx(math.pi / (math.sqrt(2) * math.e), rel=1e-15)

    def test_zeta_prime(self):
        import mpmath

        mpmath.mp.dps = 20
        assert _ZETA_PRIME_MINUS1 == pytest.approx(float(mpmath.zeta(-1, 1, 1)), rel=1e-15)
        assert _ZETA_PRIME_MINUS1 == pytest.approx(-0.1654211437, abs=1e-9)

    def test_z_disk_reference_value(self):
        import mpmath

        mpmath.mp.dps = 20
        zp = float(mpmath.zeta(-1, 1, 1))
        expect = math.exp(0.25) * 2 ** (1 / 12) * math.pi**0.25 * math.exp(5 / 24 + zp)
        assert Z_DISK == pytest.approx(expect, rel=1e-10)
        assert DISK_VERTEX_CONSTANT == pytest.approx(Z_DISK / 2.0)

    def test_prefactor_identities_symbolic(self):
        """The graph constant 2^{L/2}/(2 pi)^{2L-1} with the annulus/disk vertex
        constants reproduces the closed-form torus and sphere prefactors."""
        import sympy

        L, e, pi = sympy.symbols("L"), sympy.E, sympy.pi
        sq2 = sympy.sqrt(2)
        c_annulus = pi / (sq2 * e)
        zd = sympy.symbols("Z_D", positive=True)
        c_disk = zd / 2
        for k in (1, 2, 3, 4):
            graph = 2 ** sympy.Rational(k, 2) / (2 * pi) ** (2 * k - 1) * c_annulus**k
            explicit = 1 / (2 ** (2 * k - 1) * pi ** (k - 1) * e**k)
            assert sympy.simplify(graph - explicit) == 0
        for k in (4, 5, 6):
            Lk = k - 3
            graph = (
                2 ** sympy.Rational(Lk, 2)
                / (2 * pi) ** (2 * Lk - 1)
                * c_disk**2
                * c_annulus ** (k - 4)
            )
            explicit = 2 ** sympy.Rational(-3, 2) * zd**2 / ((2 * pi) ** (k - 3) * (2 * e) ** (k - 4))
            assert sympy.simplify(graph - explicit) == 0


class TestTorusOnePoint:
    def test_value_and_diagnostics(self):
        params = CftParams(gamma=math.sqrt(2.0))
        res = torus_one_point(1.2, 1j, params, QUAD, N=4)
        assert res.value > 0
        assert res.tail_fraction < 1e-12
        assert res.last_level_fraction < 1e-6
        assert (res.details["rho"] * res.details["block_abs2"]).min() >= 0.0  # positivity at all nodes

    def test_mu_scaling_exact_factorization(self):
        base = torus_one_point(1.2, 1j, CftParams(gamma=math.sqrt(2.0), mu=1.0), QUAD, N=2)
        for mu in (0.5, 3.0):
            res = torus_one_point(1.2, 1j, CftParams(gamma=math.sqrt(2.0), mu=mu), QUAD, N=2)
            assert res.value == pytest.approx(base.value * mu**base.mu_exponent, rel=1e-12)
            assert res.mu_exponent == pytest.approx(-1.2 / math.sqrt(2.0))

    def test_validation(self):
        params = CftParams(gamma=1.0)
        with pytest.raises(ValidationError):
            torus_one_point(-0.1, 1j, params, QUAD, N=2)
        with pytest.raises(ValidationError):
            torus_one_point(1.0, 1.0 - 1j, params, QUAD, N=2)
        # the self-loop's admissibility at its edges: alpha > 0 (spectral), alpha < Q (Seiberg)
        with pytest.raises(ValidationError, match="spectral"):
            torus_one_point(0.0, 1j, params, QUAD, N=2)
        with pytest.raises(ValidationError, match="Seiberg"):
            torus_one_point(params.Q, 1j, params, QUAD, N=2)

    def test_quadrature_doubling_stability(self):
        params = CftParams(gamma=math.sqrt(2.0))
        a = torus_one_point(1.2, 1j, params, Quadrature(4.0, 0.5, 6), N=3).value
        b = torus_one_point(1.2, 1j, params, Quadrature(8.0, 0.5, 12), N=6).value
        assert abs(b - a) / abs(a) < 0.01


class TestTorusKPoint:
    def test_k1_reduces_to_one_point_including_prefactor(self):
        params = CftParams(gamma=math.sqrt(2.0))
        quad = Quadrature(p_max=3.0, panel_width=0.5, nodes_per_panel=5)
        r1 = torus_k_point([1.2], [0.0], 1j, params, quad, N=3)
        r0 = torus_one_point(1.2, 1j, params, quad, N=3)
        assert r1.value == pytest.approx(r0.value, rel=1e-10)
        assert r1.details["prefactor"] == pytest.approx(1.0 / (2.0 * math.e))

    def test_q_construction_from_positions(self):
        params = CftParams(gamma=math.sqrt(2.0))
        tau = 1j
        xs = [0.0, 0.3 + 2.0j]
        quad = Quadrature(p_max=1.0, panel_width=0.5, nodes_per_panel=2)
        res = torus_k_point([0.9, 1.1], xs, tau, params, quad, N=1)
        zs = [np.exp(1j * complex(x)) for x in xs]
        expect_qs = [zs[1] / zs[0], np.exp(2j * math.pi * tau) / zs[1]]
        assert np.allclose(res.details["q"], expect_qs)

    def test_reality_at_k2(self, torus_k2):
        assert torus_k2.imag_residual < 1e-8

    def test_cost_guard(self, monkeypatch):
        params = CftParams(gamma=1.0)
        quad = Quadrature(p_max=6.0, panel_width=0.5, nodes_per_panel=8)
        monkeypatch.setattr(lcft.bootstrap, "_NODE_BUDGET", 100)
        with pytest.raises(CostGuard):
            torus_k_point([1.0, 1.0, 1.0], [0.0, 1j, 2j], 1j, params, quad, N=1)

    def test_ordering_validation(self):
        params = CftParams(gamma=1.0)
        with pytest.raises(ValidationError):
            torus_k_point([1.0, 1.0], [0.0, 0.1 - 1j], 1j, params, QUAD, N=1)

    def test_last_level_fraction_covers_every_node(self, torus_k2):
        # the worst node of the 20 x 20 grid is (19, 0), far past the first 8
        assert torus_k2.last_level_fraction == pytest.approx(0.010905019858819308, rel=1e-8)

    def test_tail_fraction_counts_any_edge_in_last_panel(self, torus_k2):
        # share of the integral from the nodes where either edge's p lies in the
        # last panel, not only the 4 x 4 corner where both do
        quad = Quadrature(p_max=2.5, panel_width=0.5, nodes_per_panel=4)
        details = torus_k2.details
        weighted = np.outer(quad.weights, quad.weights) * details["rho"] * details["block_abs2"]
        head = slice(0, quad.n_nodes - quad.nodes_per_panel)
        expect = abs(weighted.sum() - weighted[head, head].sum()) / abs(weighted.sum())
        assert torus_k2.tail_fraction == pytest.approx(expect, rel=1e-10)
        assert torus_k2.tail_fraction == pytest.approx(1.11e-3, rel=0.01)


class TestAdapterPins:
    """Values of the torus and sphere entry points frozen from their former
    dedicated quadrature loops (chain-of-annuli blocks, per-formula DOZZ
    products and closed-form prefactors)."""

    S2 = CftParams(gamma=math.sqrt(2.0))
    QUAD_S = Quadrature(p_max=2.0, panel_width=0.5, nodes_per_panel=3)

    def test_torus_k2(self, torus_k2):
        assert torus_k2.value == pytest.approx(0.0007753834486284882, rel=1e-10)

    def test_torus_k3(self):
        quad = Quadrature(p_max=1.5, panel_width=0.5, nodes_per_panel=3)
        res = torus_k_point(
            [0.9, 1.1, 1.0], [0.0, 0.3 + 2.0j, 0.1 + 4.0j], 1j, self.S2, quad, N=1
        )
        assert res.value == pytest.approx(1.9812944654274972e-05, rel=1e-10)

    def test_sphere_k4(self):
        res = sphere_k_point(
            [1.5, 1.4, 1.3, 1.2], [0, 0.5, 2.0, None], CftParams(gamma=1.2), self.QUAD_S, N=2
        )
        assert res.value == pytest.approx(5.606752192451118, rel=1e-10)

    def test_sphere_k5(self):
        res = sphere_k_point(
            [1.5, 1.4, 1.3, 1.2, 1.1], [0, 0.3, 2.0, 4.0, None], self.S2, self.QUAD_S, N=2
        )
        assert res.value == pytest.approx(0.8412735590675887, rel=1e-10)


class TestAdapterDetails:
    """The adapters keep the engine's details; their own keys override it."""

    ENGINE_KEYS = {
        "prefactor", "genus", "L", "rho", "block_abs2", "gram_sets", "dozz_factors", "vertex_tensors"
    }
    QUAD = Quadrature(p_max=1.0, panel_width=0.5, nodes_per_panel=2)

    def test_torus_one_point(self):
        details = torus_one_point(1.2, 1j, S2, self.QUAD, N=1).details
        assert self.ENGINE_KEYS | {"q"} <= details.keys()
        assert details["q"] == pytest.approx(math.exp(-2 * math.pi), rel=1e-15)
        assert (details["rho"] * details["block_abs2"]).min() >= 0.0
        assert details["prefactor"] == pytest.approx(1 / (2 * math.e), rel=1e-15)
        assert np.isrealobj(details["rho"]) and details["rho"].shape == (4,)
        counts = (details["gram_sets"], details["dozz_factors"], details["vertex_tensors"])
        assert counts == (4, 4, 8)

    def test_torus_k_point(self, torus_k2):
        details = torus_k2.details
        assert self.ENGINE_KEYS | {"q"} <= details.keys()
        assert details["prefactor"] == pytest.approx(1.0 / (2**3 * math.pi * math.e**2))
        assert details["rho"].shape == details["block_abs2"].shape == (20, 20)
        assert details["gram_sets"] == 20

    def test_sphere_k_point(self):
        params = CftParams(gamma=1.2)
        res = sphere_k_point([1.5, 1.4, 1.3, 1.2], [0, 0.5, 2.0, None], params, self.QUAD, N=1)
        assert self.ENGINE_KEYS | {"q"} <= res.details.keys()
        assert res.details["q"] == [0.25]
        assert res.details["rho"].shape == res.details["block_abs2"].shape == (4,)
        assert res.details["dozz_factors"] == 2 * 4


class TestModularCovariance:
    """S transformation of the torus one- and two-point functions,
    <V_alpha>_{-1/tau} = |tau|^{2 Delta_alpha} <V_alpha>_tau: DOZZ, blocks and
    quadrature together at two moduli against a closed-form law."""

    @pytest.mark.parametrize("tau", [1.25j, 0.3 + 1.1j])
    def test_s_covariance(self, tau):
        alpha = 1.2
        delta = conformal_weight(alpha, S2).real
        lhs = torus_one_point(alpha, -1.0 / tau, S2, N=6).value
        rhs = abs(tau) ** (2.0 * delta) * torus_one_point(alpha, tau, S2, N=6).value
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @staticmethod
    def _s_frame(alphas, xs, tau):
        """Weights, points and modulus after x -> x/tau, tau -> -1/tau, in
        torus_k_point's frame: the point of least Im x moved to 0, every Im x
        reduced into [0, 2 pi Im tau') by lattice steps, points ordered by Im x
        and the weights ordered with them."""
        tau_s = -1.0 / tau
        period = 2.0 * math.pi * tau_s.imag
        ys = [complex(x) / tau for x in xs]
        y0 = min(ys, key=lambda y: y.imag)
        ys = [y - y0 for y in ys]
        ys = [y - math.floor(y.imag / period) * 2.0 * math.pi * tau_s for y in ys]
        order = sorted(range(len(ys)), key=lambda j: ys[j].imag)
        return [alphas[j] for j in order], [ys[j] for j in order], tau_s

    # N = 6 against N = 7 moves either side by at most 1.6e-8 relative, over
    # 100x below the tolerance; the 30-node rule is within 3e-9 of a 96-node one
    @pytest.mark.parametrize("tau, x2", [(1.1j, 2.97 + 3.3j), (0.3 + 1.1j, -2.27 + 3.2j)])
    def test_s_covariance_two_point(self, tau, x2):
        """<V(x_1/tau) V(x_2/tau)>_{-1/tau} = prod_j |tau|^{2 Delta_j} <V(x_1) V(x_2)>_tau."""
        alphas, xs = [0.9, 1.1], [0.0, x2]
        quad = Quadrature(p_max=4.5, panel_width=1.5, nodes_per_panel=10)
        alphas_s, xs_s, tau_s = self._s_frame(alphas, xs, tau)
        lhs = torus_k_point(alphas_s, xs_s, tau_s, S2, quad, N=6).value
        weight = math.prod(abs(tau) ** (2.0 * conformal_weight(a, S2).real) for a in alphas)
        rhs = weight * torus_k_point(alphas, xs, tau, S2, quad, N=6).value
        assert lhs == pytest.approx(rhs, rel=2e-6)


class TestSphereKPoint:
    PARAMS = CftParams(gamma=1.2)

    def test_k4_prefactor(self):
        quad = Quadrature(p_max=2.0, panel_width=0.5, nodes_per_panel=3)
        res = sphere_k_point(
            [1.5, 1.4, 1.3, 1.2], [0, 0.5, 2.0, None], self.PARAMS, quad, N=2
        )
        assert res.details["prefactor"] == pytest.approx(2.0 ** -1.5 * Z_DISK**2 / (2 * math.pi))
        assert res.imag_residual < 1e-10

    def test_mu_scaling(self):
        quad = Quadrature(p_max=2.0, panel_width=0.5, nodes_per_panel=3)
        alphas = [1.5, 1.4, 1.3, 1.2]
        base = sphere_k_point(alphas, [0, 0.5, 2.0, None], CftParams(gamma=1.2, mu=1.0), quad, N=2)
        res = sphere_k_point(alphas, [0, 0.5, 2.0, None], CftParams(gamma=1.2, mu=2.0), quad, N=2)
        expect_exp = (2 * self.PARAMS.Q - sum(alphas)) / 1.2
        assert res.mu_exponent == pytest.approx(expect_exp)
        assert res.value == pytest.approx(base.value * 2.0**expect_exp, rel=1e-12)

    def test_crossing_at_half(self):
        # z -> 1.5 - z swaps z_1 = 0 and z_3 = 1.5 and fixes z_2 = 0.75 (cross
        # ratio 1/2); in this normalization at infinity it takes the swapped
        # weights' value to the original's times 1.5^{-4(Delta_1 - Delta_3)}.
        # The chain's modulus 1/2 makes truncation the error: 4.1e-4 at N = 8,
        # 1.0e-4 at N = 10 (the N = 10 pair takes about 0.3 s)
        quad, z = Quadrature(6.0, 0.5, 8), [0, 0.75, 1.5, None]
        d1, d3 = (complex(conformal_weight(a, S2)).real for a in (1.5, 1.3))
        expect = 1.5 ** (-4 * (d1 - d3))

        def error(N):
            plain = sphere_k_point([1.5, 1.4, 1.3, 1.2], z, S2, quad, N=N).value
            swapped = sphere_k_point([1.3, 1.4, 1.5, 1.2], z, S2, quad, N=N).value
            return abs(plain / swapped / expect - 1)

        err8, err10 = error(8), error(10)
        assert err10 <= 2e-4
        assert err10 <= err8 / 2

    def test_seiberg_validation(self):
        # sum(alpha) = 0.6 < 2Q = 4.53
        with pytest.raises(ValidationError, match="global Seiberg"):
            sphere_k_point([0.1, 0.2, 0.1, 0.2], [0, 0.5, 2.0, None], self.PARAMS, QUAD, N=1)
        with pytest.raises(ValidationError):
            sphere_k_point([1.5, 1.4, 1.3, 1.2], [0, 2.0, 0.5, None], self.PARAMS, QUAD, N=1)

    def test_disk_vertex_spectral_bound(self):
        # sum(alpha) = 5.2 > 2Q = 4.53, but the disk vertex holding alpha_1, alpha_2
        # has alpha_1 + alpha_2 = 1.1 <= Q
        with pytest.raises(ValidationError, match="vertex 1: spectral"):
            sphere_k_point([0.5, 0.6, 2.0, 2.1], [0, 0.5, 2.0, None], self.PARAMS, QUAD, N=1)


def theta_graph(q=0.1):
    return AdmissibleGraph(
        edges=[
            EdgeSpec((1, 1), (2, 1), q=q),
            EdgeSpec((1, 2), (1, 3), q=q),
            EdgeSpec((2, 2), (2, 3), q=q),
        ]
    )


class TestGraphCorrelator:
    def test_genus2_prefactor_and_mu_exponent(self):
        params = CftParams(gamma=math.sqrt(2.0))
        quad = Quadrature(p_max=1.0, panel_width=0.5, nodes_per_panel=2)
        res = graph_correlator(theta_graph(), params, quad=quad, N=1)
        assert res.details["prefactor"] == pytest.approx(2.0**1.5 / (2 * math.pi) ** 5)
        assert res.details["genus"] == 2
        assert res.mu_exponent == pytest.approx(-2 * params.Q / params.gamma)
        assert res.imag_residual < 1e-10

    def test_malformed_graph_slot_reuse(self):
        g = AdmissibleGraph(
            edges=[EdgeSpec((1, 1), (1, 1), q=0.1), EdgeSpec((1, 2), (1, 3), q=0.1)]
        )
        with pytest.raises(GraphInvalid):
            g.check_structure()
        with pytest.raises(GraphInvalid):
            tuple_rho(g, [0.5, 0.5], S2)
        with pytest.raises(GraphInvalid):
            tuple_block(g, [0.5, 0.5], S2)

    def test_validation_errors_surface(self):
        params = CftParams(gamma=1.0)
        g = AdmissibleGraph(
            edges=[EdgeSpec((1, 1), (1, 2), q=0.1)], marked=[MarkedPoint(1, 3, -0.5)]
        )
        with pytest.raises(ValidationError):
            graph_correlator(g, params, quad=QUAD, N=1)

    def test_negative_truncation_level(self):
        g = _torus_cycle([1.2], [0.1])
        quad = Quadrature(p_max=1.0, panel_width=0.5, nodes_per_panel=2)
        assert math.isfinite(graph_correlator(g, S2, quad=quad, N=0).value)
        with pytest.raises(ValidationError, match="N must be >= 0, got -1"):
            graph_correlator(g, S2, quad=quad, N=-1)

    def test_three_marked_vertex(self):
        # the DOZZ product takes a lone pant with three marked points (one DOZZ
        # constant); a block and the spectral integral need an edge to glue
        g = AdmissibleGraph(edges=[], marked=[MarkedPoint(1, k, 2.0) for k in (1, 2, 3)])
        assert tuple_rho(g, [], S2) == dozz_constant(2.0, 2.0, 2.0, S2)
        with pytest.raises(ValidationError, match="vertex 1 has no edge slots"):
            tuple_block(g, [], S2)
        with pytest.raises(ValidationError, match="vertex 1 has no edge slots"):
            graph_correlator(g, S2)

    def test_adapters_are_the_engine_on_their_graphs(self):
        # every vertex takes its building block's metric constant, so the
        # engine with no extra argument is each adapter, bit for bit
        quad = Quadrature(p_max=1.5, panel_width=0.5, nodes_per_panel=3)
        q = complex(np.exp(2j * math.pi * 1j))
        one = torus_one_point(1.2, 1j, S2, quad, N=3)
        assert graph_correlator(_torus_cycle([1.2], [q]), S2, quad=quad, N=3).value == one.value
        two = torus_k_point([0.9, 1.1], [0.0, 0.2 + 2.2j], 1j, S2, quad, N=2)
        cycle = _torus_cycle([0.9, 1.1], two.details["q"])
        assert graph_correlator(cycle, S2, quad=quad, N=2).value == two.value
        alphas, zs = [1.5, 1.4, 1.3, 1.2, 1.1], [0.0, 0.3, 2.0, 4.0, None]
        sphere = sphere_k_point(alphas, zs, S2, quad, N=2)
        qs = sphere.details["q"]
        chain = graph_correlator(_sphere_chain(alphas, qs), S2, quad=quad, N=2).value
        assert chain * _sphere_scalar(alphas, [0.3, 2.0, 4.0], qs, S2) == sphere.value

    def test_self_loop_equals_torus_one_point(self):
        params = CftParams(gamma=math.sqrt(2.0))
        tau = 1j
        q = complex(np.exp(2j * math.pi * tau))
        g = AdmissibleGraph(
            edges=[EdgeSpec((1, 1), (1, 2), q=q)], marked=[MarkedPoint(1, 3, 1.2)]
        )
        quad = Quadrature(p_max=4.0, panel_width=0.5, nodes_per_panel=5)
        r_graph = graph_correlator(g, params, quad=quad, N=3)
        r_torus = torus_one_point(1.2, tau, params, quad, N=3)
        hand = _torus_one_point_hand_coded(1.2, tau, params, quad, N=3)
        assert r_graph.value == pytest.approx(hand, rel=1e-10)
        assert r_torus.value == pytest.approx(hand, rel=1e-10)

    def test_genus2_at_level_7_against_hand_coded(self):
        # the acceptance transcription inverts each Gram matrix alone and
        # contracts with np.einsum, sharing no factor or contraction code with
        # the engine; N = 7 reaches levels no exact-rational oracle covers
        quad = Quadrature(p_max=1.5, panel_width=0.5, nodes_per_panel=2)
        g = genus2_graph()
        res = graph_correlator(g, S2, quad=quad, N=7)
        assert res.value == pytest.approx(_genus2_hand_coded(quad, g.q_vector(), S2, 7), rel=1e-10)


def genus2_graph():
    """The acceptance criterion-7 genus-2 graph."""
    qs = [0.06 + 0.02j, 0.09 - 0.01j, 0.05 + 0.04j]
    return AdmissibleGraph(
        edges=[
            EdgeSpec((1, 1), (2, 1), q=qs[0]),
            EdgeSpec((1, 2), (1, 3), q=qs[1]),
            EdgeSpec((2, 2), (2, 3), q=qs[2]),
        ]
    )


@pytest.fixture(scope="module")
def genus2_run():
    """graph_correlator on the genus-2 graph at 9 nodes per edge and N = 3,
    with the number of Gram stacks it built."""
    builds = []
    original = lcft.blocks._gram_stack

    def counting(*args, **kwargs):
        builds.append(args)
        return original(*args, **kwargs)

    g, quad = genus2_graph(), Quadrature(p_max=1.5, panel_width=0.5, nodes_per_panel=3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lcft.blocks, "_gram_stack", counting)
        res = graph_correlator(g, S2, quad=quad, N=3)
    return g, quad, 3, res, len(builds)


def _sphere5():
    g = _sphere_chain([1.5, 1.4, 1.3, 1.2, 1.1], [0.15, 0.5])
    return g, Quadrature(p_max=2.0, panel_width=0.5, nodes_per_panel=3), 2


def _torus2():
    g = _torus_cycle([0.9, 1.1], [0.1 + 0.02j, 0.12 - 0.01j])
    return g, Quadrature(p_max=1.5, panel_width=0.5, nodes_per_panel=3), 2


def _torus3():
    """3-cycle of annuli: each annulus vertex misses one edge, so its factors
    and tensors are built over node pairs and reused across the nodes of that
    edge."""
    g = _torus_cycle([0.9, 1.0, 1.1], [0.1 + 0.02j, 0.12 - 0.01j, 0.08 + 0.03j])
    return g, Quadrature(1.0, 0.5, 2), 2


def _torus3_equal():
    """The 3-cycle of _torus3 with one weight on every annulus: the three
    vertices are one kind, and their node pairs the same 16 weight rows."""
    g = _torus_cycle([1.0, 1.0, 1.0], [0.1 + 0.02j, 0.12 - 0.01j, 0.08 + 0.03j])
    return g, Quadrature(1.0, 0.5, 2), 2


def _theta():
    """Two pants joined by three distinct edges: each pant is on every edge."""
    g = AdmissibleGraph(edges=[EdgeSpec((1, k), (2, k)) for k in (1, 2, 3)])
    return g, Quadrature(1.0, 0.5, 2), 2


class TestEngineCaches:
    """graph_correlator builds the Gram sets of all nodes in one stack per
    level, each vertex's DOZZ factors once over every tuple of its edges'
    nodes, and each vertex kind's tensors (slot pattern and marked weights)
    once over the grid of its own edges' nodes; its values must equal the
    per-node path (``engine.tuple_rho``, ``engine.tuple_block``), which is
    the same engine at one node tuple, bit for bit."""

    @pytest.mark.parametrize("case", ["genus2", "sphere5", "torus2", "torus3", "torus3_equal", "theta"])
    def test_bitwise_equal_to_per_node_path(self, case, request):
        if case == "genus2":
            g, quad, N, res, _builds = request.getfixturevalue("genus2_run")
        else:
            cases = {"sphere5": _sphere5, "torus2": _torus2, "torus3": _torus3,
                     "torus3_equal": _torus3_equal, "theta": _theta}
            g, quad, N = cases[case]()
            res = graph_correlator(g, S2, quad=quad, N=N)
        L, qs = len(g.edges), g.q_vector()
        rho = np.empty((quad.n_nodes,) * L, dtype=complex)
        block_abs2 = np.empty((quad.n_nodes,) * L)
        for idx in np.ndindex(*rho.shape):
            ps = [float(quad.nodes[i]) for i in idx]
            rho[idx] = tuple_rho(g, ps, S2)
            block_abs2[idx] = tuple_block(g, ps, S2, N).abs2_and_last_level(qs)[0]
        assert np.array_equal(res.details["rho"], rho)
        assert np.array_equal(res.details["block_abs2"], block_abs2)

    @pytest.mark.parametrize("case", ["genus2", "sphere5"])
    def test_kernels_keep_bits_at_any_tuple_count(self, case):
        # the Gram factors, the per-slot substitution fold, the contraction
        # and the series pass give each of n nodes or node tuples the bits of
        # its one-element slice
        g, quad, N = (genus2_graph(), Quadrature(1.5, 0.5, 3), 3) if case == "genus2" else _sphere5()
        hs = np.array([complex(conformal_weight(S2.Q + 1j * p, S2)) for p in quad.nodes])

        stacks = _gram_factors(hs, S2.c_L, N)
        for i in range(len(hs)):
            for full, alone in zip(stacks, _gram_factors(hs[i : i + 1], S2.c_L, N)):
                assert np.array_equal(full[i : i + 1], alone)

        plan, L, n = _plan(g), len(g.edges), 40
        terms = _level_terms(plan, N, L)
        rng = np.random.default_rng(7)

        def cnoise(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        def noise(*shape):
            return cnoise(*shape, n)

        def one(a, j):  # tuple j alone, as a contiguous one-element last axis
            return np.ascontiguousarray(a[..., j : j + 1])

        def substitute(x, R):  # R^-1 x for one basis vector x, one entry at a time, i ascending
            out = []
            for j in range(len(x)):
                acc = x[j : j + 1]
                for i in range(j):
                    acc = acc - R[j, i : i + 1] * out[i]
                out.append(acc / R[j, j : j + 1])
            return np.concatenate(out)

        # the fold over every node tuple of each vertex's grid, against each
        # tuple alone with its own nodes' factors and against the substitution
        # written out, one slot after another; each genus-2 pant holds a
        # self-loop, whose factor it takes on both slots
        m = 3
        stacks_m = [rng.normal(size=(m, len(partitions(k)), len(partitions(k)))) for k in range(N + 1)]
        for v, vertex in enumerate(plan):
            d = len(vertex.own)
            pattern = [vertex.own.index(e) for e in vertex.edges]
            factors = [[_on_axis(S, a, d) for S in stacks_m] for a in pattern]
            for lv in {levels[v] for _degs, levels in terms}:
                t = cnoise(*(m,) * d, *(len(partitions(k)) for k in lv))
                folded = _fold(t, lv, factors)
                for idx in np.ndindex(*(m,) * d):
                    cell = tuple(slice(i, i + 1) for i in idx)
                    alone = [[_on_axis(S[idx[a] : idx[a] + 1], a, d) for S in stacks_m] for a in pattern]
                    one_tuple = _fold(t[cell].copy(), lv, alone)
                    assert np.array_equal(folded[cell], one_tuple)
                    expect = t[idx]
                    for k, n_k in enumerate(lv):
                        expect = np.apply_along_axis(substitute, k, expect, stacks_m[n_k][idx[pattern[k]]])
                    assert np.array_equal(folded[idx], expect)

        tensors = [
            {lv: noise(*(len(partitions(k)) for k in lv)) for lv in {levels[v] for _degs, levels in terms}}
            for v in range(len(plan))
        ]
        exps = tuple(rng.normal(size=n) for _e in range(L))
        coeffs = _contract(plan, terms, tensors)
        series = BlockSeries(exps, coeffs, N).abs2_and_last_level(g.q_vector())
        for j in range(n):
            tensors_j = [{lv: one(a, j) for lv, a in t.items()} for t in tensors]
            coeffs_j = _contract(plan, terms, tensors_j)
            for degs, co in coeffs.items():
                assert np.array_equal(co[j : j + 1], coeffs_j[degs])
            exps_j = tuple(one(e, j) for e in exps)
            series_j = BlockSeries(exps_j, coeffs_j, N).abs2_and_last_level(g.q_vector())
            for full, one_tuple in zip(series, series_j):
                assert np.array_equal(full[j : j + 1], one_tuple)

    def test_genus2_counts(self, genus2_run):
        *_g, res, builds = genus2_run
        # one Gram stack over the 9 nodes per level 1..3; each pant misses one
        # loop: 81 node pairs, and 10 level pairs (n1, n_loop) with
        # n1 + n_loop <= 3 at N = 3; both pants hold the same 81 weight rows
        # (h(p_0), h(p_loop), h(p_loop)), so their tensors are built once
        assert builds == 3
        assert res.details["gram_sets"] == 9
        assert res.details["dozz_factors"] == 2 * 81
        assert res.details["vertex_tensors"] == 81 * 10
        # 18 numerator arguments Q +- ip and 133 distinct denominators
        # Q/2 + i(+-a/2) and Q/2 + i(+-a/2 +- b): many of the node-pair values
        # coincide exactly, as the 9 nodes sit on an arithmetic grid
        assert res.details["upsilon_evals"] == 18 + 133

    def test_sphere5_counts(self):
        # the annulus vertex touches both edges: one factor and 3 tensors per
        # node pair; each disk misses one edge
        g, _quad, _N = _sphere5()
        res = graph_correlator(g, S2, quad=Quadrature(6.0, 0.5, 3), N=1)
        assert res.details["gram_sets"] == 36
        assert res.details["dozz_factors"] == 36 + 36**2 + 36
        assert res.details["vertex_tensors"] == 2 * 36 * 2 + 3 * 36**2
        assert res.details["upsilon_evals"] == 873

    def test_self_loop_counts(self):
        res = graph_correlator(_torus_cycle([1.2], [0.0019]), S2, quad=Quadrature(6.0, 0.5, 8), N=1)
        assert res.details["gram_sets"] == 96
        assert res.details["dozz_factors"] == 96
        assert res.details["vertex_tensors"] == 96 * 2
        # Q +- ip and alpha/2 +- ip per node, plus alpha, alpha/2 and Q - alpha/2
        assert res.details["upsilon_evals"] == 4 * 96 + 3

    def test_torus3_counts(self):
        # each annulus misses one edge of the 3-cycle: one factor per vertex
        # and node pair on its own edges, reused at the 4 nodes of the third,
        # and a tensor there at each of the 6 level pairs with total <= 2
        g, quad, N = _torus3()
        res = graph_correlator(g, S2, quad=quad, N=N)
        assert res.details["gram_sets"] == 4
        assert res.details["dozz_factors"] == 3 * 4**2
        assert res.details["vertex_tensors"] == 3 * 4**2 * 6
        # 8 numerator arguments Q +- ip, the 3 alphas and 90 distinct
        # denominators (alpha/2 and Q - alpha/2 at equal nodes among them)
        assert res.details["upsilon_evals"] == 8 + 3 + 90

    def test_torus3_equal_counts(self):
        # with one weight the three annuli are one kind whose node pairs are
        # the same 16 weight rows: one tensor at each of them and of the 6
        # level pairs, where distinct weights build three
        g, quad, N = _torus3_equal()
        res = graph_correlator(g, S2, quad=quad, N=N)
        assert res.details["dozz_factors"] == 3 * 4**2
        assert res.details["vertex_tensors"] == 4**2 * 6

    def test_theta_counts(self):
        # both pants build a factor at each of the 4^3 node triples; they hold
        # the same weight rows, so one tensor is built there at each of the
        # 10 level triples with total <= 2
        g, quad, N = _theta()
        res = graph_correlator(g, S2, quad=quad, N=N)
        assert res.details["gram_sets"] == 4
        assert res.details["dozz_factors"] == 2 * 4**3
        assert res.details["vertex_tensors"] == 4**3 * 10
        # 8 numerator arguments Q +- ip and 64 distinct denominators
        assert res.details["upsilon_evals"] == 8 + 64

    def test_upsilon_memo_is_per_call(self):
        g, quad, N = _theta()
        first = graph_correlator(g, S2, quad=quad, N=N)
        second = graph_correlator(g, S2, quad=quad, N=N)
        assert first.details["upsilon_evals"] == second.details["upsilon_evals"] == 72
        assert np.array_equal(first.details["rho"], second.details["rho"])

    def test_generator_expanded_once_per_memo(self, monkeypatch):
        # the Gram stacks of levels 1..6 share one generator memo and the
        # annulus's radial elements keep another at h_in, so each (n, word)
        # is expanded once in each; neither count depends on the nodes
        counts = {"calls": 0, "expansions": 0}
        original = lcft.virasoro.apply_generator_to_word

        def counting(*args):
            n, word, _delta, _c, memo = (*args, None)[:5]
            counts["calls"] += 1
            counts["expansions"] += memo is None or (n, word) not in memo
            return original(*args)

        # the recursion calls its module global, the radial elements blocks'
        monkeypatch.setattr(lcft.virasoro, "apply_generator_to_word", counting)
        monkeypatch.setattr(lcft.blocks, "apply_generator_to_word", counting)
        for quad in (Quadrature(1.0, 0.5, 2), Quadrature(2.0, 0.5, 3)):
            counts.update(calls=0, expansions=0)
            torus_one_point(1.2, 1j, S2, quad, N=6)
            assert counts == {"calls": 1774, "expansions": 403}

    def test_generators_expand_on_the_node_weights(self, monkeypatch):
        # each annulus of the torus 2-point lays h_in on one node axis, so
        # every expansion called from blocks runs on the n = 4 node weights,
        # not on the 16 node pairs
        sizes = []
        original = lcft.blocks.apply_generator_to_word

        def recording(n, word, delta, *rest):
            sizes.append(np.size(delta))
            return original(n, word, delta, *rest)

        monkeypatch.setattr(lcft.blocks, "apply_generator_to_word", recording)
        torus_k_point([0.8, 1.2], [0, 0.5 + 2j], 1j, S2, Quadrature(1.0, 0.5, 2), N=3)
        assert sizes and max(sizes) <= 4

    def test_near_pole_at_its_edge(self):
        # the self-loop's constant denominator argument abar/2 - Q = alpha/2
        # lies within _POLE_DISTANCE of the lattice point 0 iff alpha < 2e-6
        quad = Quadrature(1.0, 0.5, 2)
        edge = 2.0 * lcft.dozz._POLE_DISTANCE
        res = graph_correlator(_torus_cycle([1.01 * edge], [0.01]), S2, quad=quad, N=1)
        assert math.isfinite(res.value)
        with pytest.raises(NearPole, match="within 1e-06 of the Upsilon zero lattice"):
            graph_correlator(_torus_cycle([0.99 * edge], [0.01]), S2, quad=quad, N=1)

    def test_degenerate_weight_at_its_edge(self):
        # the first node (p ~ 0.106) keeps its Gram matrices within the
        # equilibrated condition guard through level 10; at level 11 its
        # condition is 3.3e10
        quad = Quadrature(0.5, 0.5, 2)
        res = torus_one_point(1.2, 1j, S2, quad, N=10)
        assert res.value == pytest.approx(0.008133194850499832, rel=1e-12)
        with pytest.raises(DegenerateWeight, match="level 11"):
            torus_one_point(1.2, 1j, S2, quad, N=11)

    def test_graph_read_once_per_call(self, monkeypatch):
        # one structure check serves the weight bounds, the DOZZ factors and
        # the block
        calls = {"check_structure": 0}

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        original = AdmissibleGraph.check_structure
        monkeypatch.setattr(AdmissibleGraph, "check_structure", counted("check_structure", original))
        g, quad, N = _torus3()
        graph_correlator(g, S2, quad=quad, N=N)
        assert calls == {"check_structure": 1}

    def test_memory_stays_on_own_grids(self):
        # each annulus of the 3-cycle builds its 18 radial entries (the 10
        # level pairs with total <= 3) on its own 12^2 node pairs; the 20
        # multidegree coefficients and a few work arrays span the 12^3 tuples.
        # Tensors gathered onto every tuple would alone take 3 * 18 * 12^3
        # complex entries (1.5 MB), above the bound
        args = ([0.8, 1.0, 1.2], [0, 0.3 + 1.5j, 0.6 + 3.5j], 1j, S2, Quadrature(2.0, 0.5, 3))
        torus_k_point(*args, N=3)  # warm: the Upsilon evaluator and its rules
        tracemalloc.start()
        try:
            torus_k_point(*args, N=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, complex_bytes = 12, 16
        tensors = 3 * 18 * n**2 * complex_bytes
        coefficients = 20 * n**3 * complex_bytes
        work = 16 * n**3 * complex_bytes
        assert peak < tensors + coefficients + work  # 1.12 MB

    def test_cost_guard_at_its_edge(self, monkeypatch):
        g, _quad, _N = _torus2()
        quad = Quadrature(p_max=1.0, panel_width=0.5, nodes_per_panel=2)
        monkeypatch.setattr(lcft.bootstrap, "_NODE_BUDGET", 16)
        assert graph_correlator(g, S2, quad=quad, N=1).n_evaluations == 16

        def unreachable(*args, **kwargs):
            raise AssertionError("DOZZ evaluated before the cost guard")

        monkeypatch.setattr(lcft.dozz, "_dozz", unreachable)
        monkeypatch.setattr(lcft.bootstrap, "_NODE_BUDGET", 15)
        with pytest.raises(CostGuard, match="4\\^2 spectral evaluations exceed budget 15"):
            graph_correlator(g, S2, quad=quad, N=1)


def violations(graph, params):
    """The weight bounds' violations on the graph's plan, as graph_correlator
    checks them."""
    return _violations(graph, _plan(graph), params)


class TestValidateGraph:
    def test_torus_annulus_vertex_needs_positive_alpha(self):
        params = CftParams(gamma=1.0)
        g = AdmissibleGraph(
            edges=[EdgeSpec((1, 1), (1, 2), q=0.1)], marked=[MarkedPoint(1, 3, 0.5)]
        )
        assert violations(g, params) == []
        g_bad = AdmissibleGraph(
            edges=[EdgeSpec((1, 1), (1, 2), q=0.1)], marked=[MarkedPoint(1, 3, -0.1)]
        )
        bad = violations(g_bad, params)
        assert len(bad) >= 1 and "spectral" in bad[0].kind

    def test_genus2_always_admissible(self):
        params = CftParams(gamma=1.5)
        assert violations(theta_graph(), params) == []

    def test_one_hole_sphere_needs_charge(self):
        # b = 1 vertex with two marked points: alpha2 + alpha3 > Q
        params = CftParams(gamma=1.0)  # Q = 2.5
        g = AdmissibleGraph(
            edges=[EdgeSpec((1, 1), (2, 1), q=0.1)],
            marked=[
                MarkedPoint(1, 2, 1.4),
                MarkedPoint(1, 3, 1.2),
                MarkedPoint(2, 2, 0.4),
                MarkedPoint(2, 3, 0.8),
            ],
        )
        out = violations(g, params)
        assert any(v.vertex == 2 for v in out)  # 0.4 + 0.8 - 2.5 < 0
        assert all(v.vertex != 1 for v in out if "spectral" in v.kind)

    def test_marked_point_on_unlisted_vertex(self):
        g = AdmissibleGraph(
            edges=[EdgeSpec((1, 1), (1, 2), q=0.1)],
            marked=[MarkedPoint(1, 3, 1.2), MarkedPoint(3, 1, 1.2)],
            vertex_ids=[1],
        )
        with pytest.raises(GraphInvalid, match=r"vertices \[3\]"):
            violations(g, S2)

    def test_mixed_type_vertex_ids(self):
        # derived ids are sorted in __post_init__, unlisted ones in check_structure
        with pytest.raises(GraphInvalid, match="vertex ids 'a', 1 mix types"):
            AdmissibleGraph.from_json({"edges": [{"from": [1, 1], "to": ["a", 1]}]})
        g = AdmissibleGraph.from_json({"vertices": [{"id": 2}], "edges": [{"from": [1, 1], "to": ["a", 1]}]})
        with pytest.raises(GraphInvalid, match="vertex ids 'a', 1 mix types"):
            g.check_structure()

    def test_nan_weight_violates_every_bound(self):
        g = AdmissibleGraph(edges=[EdgeSpec((1, 1), (1, 2), q=0.1)], marked=[MarkedPoint(1, 3, math.nan)])
        kinds = [v.kind.split(" (")[0] for v in violations(g, S2)]
        assert kinds == ["spectral", "Seiberg", "global Seiberg"]

    def test_marked_slot_out_of_range(self):
        # the self-loop holds slots 1 and 2; a mark on slot 7 leaves slot 3
        # empty and names a slot a pant does not have
        g = AdmissibleGraph(edges=[EdgeSpec((1, 1), (1, 2), q=0.1)], marked=[MarkedPoint(1, 7, 1.2)])
        with pytest.raises(GraphInvalid, match=r"slot index must be 1..3, got \(1, 7\)"):
            violations(g, S2)
        with pytest.raises(GraphInvalid):
            graph_correlator(g, S2, quad=QUAD, N=1)

    def test_json_roundtrip(self):
        # the theta graph's JSON form, as the CLI reads it, gives the graph back
        g = theta_graph(0.2 + 0.05j)
        blob = json.dumps({
            "vertices": [{"id": v, "slots": 3} for v in g.vertex_ids],
            "edges": [{"from": list(e.v_from), "to": list(e.v_to), "q": [e.q.real, e.q.imag]} for e in g.edges],
            "marked": [],
        })
        g2 = AdmissibleGraph.from_json(json.loads(blob))
        assert g2 == g
        g2.check_structure()
