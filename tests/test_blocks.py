import itertools
import math
import re

import mpmath
import numpy as np
import pytest
import sympy

from lcft.blocks import (
    ZHAT,
    BlockSeries,
    _bracket,
    _gram_factors,
    _pant_arrays,
    _radial_arrays,
    _radial_element,
    torus_one_point_block,
)
from lcft.bootstrap import _sphere_chain, _sphere_scalar, _torus_cycle
from lcft.errors import DegenerateWeight, DimensionMismatch, ValidationError
from lcft.graphs import AdmissibleGraph, EdgeSpec, MarkedPoint
from lcft.params import CftParams
from lcft.virasoro import (
    _gram_stack,
    _pairing,
    conformal_weight,
    kac_weight,
    partitions,
    shapovalov,
    shapovalov_inverse,
)

from engine import tuple_block
from oracles import torus_level1_coeff, vertex_element
from fractions import Fraction


def three_point_descendant(
    delta1, delta2, delta3, nu1=(), nu2=(), nu3=(), c=26.0, zhat=ZHAT, frame="pant"
) -> complex:
    """Normalized holomorphic three-point coefficient of one descendant triple
    (partitions nu_i, largest part first), from the production recursion at
    scalar weights.

    frame="pant": the recursion-rule bracket divided by the holomorphic half
    H(z) at the insertion points ``zhat``.  frame="radial": slots read (out,
    vertex, in) at (infinity, 1, 0), and slot 2 must be primary.  The
    all-empty value is 1 in either frame.
    """
    w1, w2, w3 = (tuple(reversed(tuple(nu))) for nu in (nu1, nu2, nu3))
    if frame == "radial":
        assert not w2, "the radial frame holds the vertex in slot 2"
        return complex(_radial_element(w1, w3, (delta1, delta2, delta3), c, {}))
    return complex(_bracket(w1, w2, w3, (delta1, delta2, delta3), c, zhat, {}))


def radial_matrix(n_out, n_in, h_out, d_mid, h_in, c):
    """The engine's radial elements between two levels at one node."""
    arrays = _radial_arrays({(n_out, n_in)}, (np.array([h_out]), d_mid, np.array([h_in])), c)
    return arrays[(n_out, n_in)][0]


def sympy_h_and_points():
    z1, z2, z3, d1, d2, d3 = sympy.symbols("z1 z2 z3 d1 d2 d3")
    H = (
        (z1 - z2) ** (d3 - d1 - d2)
        * (z2 - z3) ** (d1 - d2 - d3)
        * (z1 - z3) ** (d2 - d1 - d3)
    )
    return H, (z1, z2, z3), (d1, d2, d3)


class TestRulesEngine:
    def test_all_empty_is_one(self):
        assert three_point_descendant(0.3, 0.7, 1.1) == pytest.approx(1.0)

    def test_level_one_slot1_vs_sympy(self):
        # one application of rule (3): -(d/dz2 + d/dz3) H / H at zhat
        H, zs, ds = sympy_h_and_points()
        expr = -(sympy.diff(H, zs[1]) + sympy.diff(H, zs[2])) / H
        subs = dict(zip(zs, [sympy.nsimplify(z, rational=False) for z in ZHAT]))
        vals = {ds[0]: 0.31, ds[1]: 0.77, ds[2]: 1.13}
        expect = complex(expr.subs({**subs, **vals}).evalf(20))
        got = three_point_descendant(0.31, 0.77, 1.13, (1,), (), ())
        assert got == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize(
        "nu,slot",
        [
            pytest.param(nu, slot, id=f"nu{i}" if slot == 1 else f"nu{i}-slot{slot}")
            for slot in (1, 2, 3)
            for i, nu in enumerate([(2,), (1, 1), (2, 1), (3,)])
        ],
    )
    def test_slot1_words_vs_sympy(self, nu, slot):
        # iterated rule (3): D_m words on one slot acting on H, computed
        # symbolically; slot 3's L_{-1} is the one the Ward identities reduce
        H, zs, ds = sympy_h_and_points()
        vals = {ds[0]: 0.45, ds[1]: 0.81, ds[2]: 1.27}
        r = slot - 1
        word = tuple(reversed(tuple(sorted(nu, reverse=True))))  # ascending
        cur = H
        for m in reversed(word):  # innermost first
            cur = sum(
                -((zs[j] - zs[r]) ** (1 - m)) * sympy.diff(cur, zs[j])
                + (m - 1) * (zs[j] - zs[r]) ** (-m) * ds[j] * cur
                for j in range(3)
                if j != r
            )
        subs = dict(zip(zs, ZHAT))
        expect = complex((cur / H).subs({**subs, **vals}).evalf(20))
        nus = [() if j != r else nu for j in range(3)]
        got = three_point_descendant(0.45, 0.81, 1.27, *nus)
        assert got == pytest.approx(expect, rel=1e-10)

    def test_path_independence_rule4_vs_rule5(self):
        rng = np.random.default_rng(9)
        zh = ZHAT
        for _ in range(10):
            d = rng.uniform(0.2, 2.2, size=3)
            a = three_point_descendant(d[0], d[1], d[2], (), (), (2,), c=27.3)
            b = three_point_descendant(
                d[0], d[2], d[1], (), (2,), (), c=27.3, zhat=(zh[0], zh[2], zh[1])
            )
            assert a == pytest.approx(b, rel=1e-10)

    def test_path_independence_multi_slot(self):
        rng = np.random.default_rng(12)
        zh = ZHAT
        for _ in range(5):
            d = rng.uniform(0.2, 2.0, size=3)
            a = three_point_descendant(d[0], d[1], d[2], (1,), (), (2, 1), c=25.0)
            b = three_point_descendant(
                d[0], d[2], d[1], (1,), (2, 1), (), c=25.0, zhat=(zh[0], zh[2], zh[1])
            )
            assert a == pytest.approx(b, rel=1e-9)

    def test_exact_path_independence(self):
        # Fraction weights, c and points run the recursion exactly: every word
        # triple up to total level 4 must give the same Fraction whichever
        # slot the recursion reduces first (the last slot holding a word)
        d = (Fraction(3, 7), Fraction(-5, 4), Fraction(11, 6))
        c, zs = Fraction(127, 5), (Fraction(-1, 2), Fraction(1, 2), Fraction(3))
        base, memo = {}, {}
        for lv in itertools.product(range(5), repeat=3):
            if sum(lv) <= 4:
                for words in itertools.product(*([nu.word() for nu in partitions(n)] for n in lv)):
                    base[words] = _bracket(*words, d, c, zs, memo)
                    assert isinstance(base[words], (int, Fraction))
        for perm in list(itertools.permutations(range(3)))[1:]:
            memo = {}
            for words, value in base.items():
                got = _bracket(
                    *(words[i] for i in perm), tuple(d[i] for i in perm), c,
                    tuple(zs[i] for i in perm), memo,
                )
                assert got == value, (perm, words)

    # values of the former recursion, which differentiated z-monomials of H,
    # at total levels 5 and 6: weights (0.7+0.4j, 1.3-0.9j, 2.1+0.2j),
    # c = 27.3, ZHAT; each within 2e-15 of a 40-digit mpmath run
    DEEP = [
        (((), (), (6,)), 14.100000000000003 - 2.8000000000000025j),
        (((), (), (3, 2, 1)), 152.2471143630535 - 70.92084132646825j),
        (((1, 1, 1, 1, 1, 1), (), ()), -5134.663197157151 + 7374.993394533616j),
        (((), (4, 2), ()), 63.335005551444176 + 7.969992598074481j),
        (((2,), (2,), (2,)), -80.1536584566998 + 17.004425962246824j),
        (((1,), (2,), (3,)), -77.81691205185281 - 187.89574713080006j),
        (((3,), (1, 1), (1,)), 49.75373822715733 + 153.96682279081088j),
        (((5,), (), ()), 13.060769515458675 + 6.111920087683933j),
        (((), (2, 2, 1), ()), -27.14566050290923 + 95.42745759479867j),
        (((1,), (1,), (4,)), 117.87679570545927 - 7.2069552591621004j),
        (((2, 1), (2,), ()), 142.0312149767954 - 64.2569316624415j),
        (((), (3,), (2, 1)), -878.3790593748347 - 26.590159073503912j),
    ]

    @pytest.mark.parametrize("nus,expect", DEEP)
    def test_deep_levels_frozen(self, nus, expect):
        got = three_point_descendant(0.7 + 0.4j, 1.3 - 0.9j, 2.1 + 0.2j, *nus, c=27.3)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_memoized_recursion_deterministic(self):
        a = three_point_descendant(0.4, 0.8, 1.2, (2, 1), (), (1,), c=26.5)
        b = three_point_descendant(0.4, 0.8, 1.2, (2, 1), (), (1,), c=26.5)
        assert a == b  # bit-identical


class TestRadialFrame:
    def test_level_one_matrix_element(self):
        # frozen closed forms: M((1),(1)) = dm(dm-1) + 2h at equal weights
        for h, dm in [(1.0, 1.0), (0.7, 1.9), (2.3, 0.4)]:
            got = three_point_descendant(h, dm, h, (1,), (), (1,), frame="radial")
            assert got == pytest.approx(dm * (dm - 1) + 2 * h, rel=1e-13)

    @pytest.mark.parametrize(
        "a,b", [((1,), (1,)), ((2,), (2,)), ((1, 1), (2,)), ((2, 1), (1,)), ((2, 2), (1, 1, 1))]
    )
    def test_vs_exact_rational_oracle(self, a, b):
        ho, dm, hi, c = Fraction(5, 4), Fraction(3, 8), Fraction(7, 2), Fraction(26)
        expect = float(vertex_element(a, b, ho, dm, hi, c))
        got = three_point_descendant(
            float(ho), float(dm), float(hi), a, (), b, c=float(c), frame="radial"
        )
        assert got.real == pytest.approx(expect, rel=1e-12)
        assert got.imag == 0.0
        words = (tuple(reversed(a)), tuple(reversed(b)))
        assert _radial_element(*words, (ho, dm, hi), c, {}) == vertex_element(a, b, ho, dm, hi, c)

    def test_symmetry_under_swap(self):
        got1 = three_point_descendant(1.2, 0.7, 2.1, (2, 1), (), (1, 1), frame="radial")
        got2 = three_point_descendant(2.1, 0.7, 1.2, (1, 1), (), (2, 1), frame="radial")
        assert got1 == pytest.approx(got2, rel=1e-13)


class TestCoeffTensors:
    def test_all_empty_entries_are_one(self):
        params = CftParams(gamma=1.2)
        h = complex(conformal_weight(params.Q + 0.5j, params))
        hs = np.array([h])
        assert radial_matrix(0, 0, h, 0.9, h, params.c_L)[0, 0] == pytest.approx(1.0)
        assert radial_matrix(0, 0, h, 0.9, 1.1, params.c_L)[0, 0] == pytest.approx(1.0)
        pant = _pant_arrays({(0, 0, 0)}, (hs, hs, hs), params.c_L)[(0, 0, 0)]
        assert pant[0, 0, 0, 0] == pytest.approx(1.0)

    def test_torus_level1_contraction_oracle(self):
        rng = np.random.default_rng(4)
        params = CftParams(gamma=1.2)
        for _ in range(10):
            alpha1 = float(rng.uniform(0.1, 2.0))
            p = float(rng.uniform(0.2, 3.0))
            dh = complex(conformal_weight(params.Q + 1j * p, params))
            da = complex(conformal_weight(alpha1, params))
            finv = shapovalov_inverse(shapovalov(dh, params.c_L, 1)).entries
            w = radial_matrix(1, 1, dh, da, dh, params.c_L)
            got = complex(np.trace(finv @ w))
            assert got == pytest.approx(complex(torus_level1_coeff(da, dh)), rel=1e-10)

    def test_disk_level1_equals_single_slot_radial(self):
        params = CftParams(gamma=1.4)
        h = complex(conformal_weight(params.Q + 0.9j, params))
        d2, d1 = 0.8, 1.3
        vec = radial_matrix(1, 0, h, d2, d1, params.c_L)[:, 0]
        single = three_point_descendant(h, d2, d1, (1,), (), (), frame="radial", c=params.c_L)
        assert vec[0] == pytest.approx(single, rel=1e-14)

    def test_tensor_weight_independence_of_mu(self):
        # coefficients involve only weights and c_L
        p1 = CftParams(gamma=1.2, mu=1.0)
        p2 = CftParams(gamma=1.2, mu=9.0)
        h = complex(conformal_weight(p1.Q + 0.5j, p1))
        w1 = radial_matrix(2, 2, h, 0.9, h, p1.c_L)
        w2 = radial_matrix(2, 2, h, 0.9, h, p2.c_L)
        assert np.array_equal(w1, w2)


class TestSharedMemos:
    """One generator memo serves every entry of a build at one weight array:
    each Gram stack of levels 1..8 and each radial and pant array at levels
    <= 6 must equal, bit for bit, entries built each with a fresh memo, so no
    caller may mutate an expansion the memo hands out."""

    c = 26.3

    @staticmethod
    def weights(seed, k, n=4):
        """k random complex weight arrays of n entries."""
        rng = np.random.default_rng(seed)
        return [rng.uniform(0.2, 3.0, n) + 1j * rng.uniform(-2.0, 2.0, n) for _ in range(k)]

    @staticmethod
    def assert_entries(arrays, element):
        for levels, arr in arrays.items():
            bases = [[nu.word() for nu in partitions(k)] for k in levels]
            for idx in np.ndindex(*arr.shape[1:]):
                alone = element(*(b[i] for b, i in zip(bases, idx)))
                assert np.array_equal(arr[(slice(None), *idx)], np.broadcast_to(alone, arr.shape[:1]))

    def test_gram_stacks_across_levels(self):
        (hs,), memo = self.weights(1, 1), {}
        for n in range(1, 9):
            F = _gram_stack(hs, self.c, n, memo)
            words = [nu.word() for nu in partitions(n)]
            for i, j in itertools.combinations_with_replacement(range(len(words)), 2):
                alone = _pairing(words[i], words[j], hs, self.c)
                assert np.array_equal(F[:, i, j], alone) and np.array_equal(F[:, j, i], alone)

    def test_radial_arrays(self):
        h_out, d_mid, h_in = self.weights(2, 3)
        weights = (h_out, d_mid[0], h_in)
        levels = set(itertools.product(range(7), repeat=2))
        arrays = _radial_arrays(levels, weights, self.c)
        self.assert_entries(arrays, lambda a, b: _radial_element(a, b, weights, self.c, {}))

    def test_pant_arrays(self):
        weights = tuple(self.weights(3, 3))
        levels = {lv for lv in itertools.product(range(7), repeat=3) if sum(lv) <= 6}
        arrays = _pant_arrays(levels, weights, self.c)
        self.assert_entries(arrays, lambda *w: _bracket(*w, weights, self.c, ZHAT, {}))


class TestGramInverses:
    """The DegenerateWeight guard on the engine's stacked Gram factors, at its edge."""

    params = CftParams(gamma=math.sqrt(2.0))

    def spectrum_weights(self):
        ps = np.linspace(0.1, 4.0, 12)
        return np.array([complex(conformal_weight(self.params.Q + 1j * p, self.params)) for p in ps])

    def test_weight_next_to_kac_zero_raises_at_level_2(self):
        near = complex(conformal_weight(kac_weight(2, 1, self.params), self.params)) + 1e-13
        hs = np.append(self.spectrum_weights(), near)
        with pytest.raises(DegenerateWeight, match=re.escape(f"level 2, Delta = {hs[-1]} has equilibrated")):
            _gram_factors(hs, self.params.c_L, 2)
        stacks = _gram_factors(hs[:-1], self.params.c_L, 2)
        assert [s.shape for s in stacks] == [(12, 1, 1), (12, 1, 1), (12, 2, 2)]

    def test_zero_weight_has_vanishing_diagonal_at_level_1(self):
        hs = np.append(self.spectrum_weights(), 0.0)
        with pytest.raises(DegenerateWeight, match=r"level 1, Delta = 0j has a vanishing diagonal norm"):
            _gram_factors(hs, self.params.c_L, 1)

    def test_negative_truncation_level_is_a_validation_error(self):
        # every block truncates through the Gram factors; N = 0 is the edge
        graph = _torus_cycle([1.2], [0.1])
        assert len(tuple_block(graph, [0.5], self.params, N=0).coeffs) == 1
        calls = (
            lambda N: _gram_factors(self.spectrum_weights(), self.params.c_L, N),
            lambda N: torus_one_point_block(1.2, 0.5, self.params, N=N),
            lambda N: tuple_block(graph, [0.5], self.params, N=N),
        )
        for call in calls:
            with pytest.raises(ValidationError, match="N must be >= 0, got -1"):
                call(-1)


class TestTorusBlock:
    def test_level_zero_prefactor(self):
        params = CftParams(gamma=math.sqrt(2.0))
        series = torus_one_point_block(1.2, 1.0, params, N=0)
        assert series.coeffs[(0,)] == pytest.approx(1.0)
        # exponent -c_L/24 + Delta_{Q+ip}: c_L = 28, Delta = 1.375 at p = 1
        assert series.exponents[0] == pytest.approx(-28.0 / 24.0 + 1.375, rel=1e-12)

    def test_partial_sums_decreasing(self):
        params = CftParams(gamma=1.1)
        series = torus_one_point_block(1.2, 0.7, params, N=8)
        incs = [abs(series.coeffs[(n,)] * 0.3**n) for n in range(9)]
        assert all(incs[n + 1] < incs[n] for n in range(1, 8))

    def test_identity_insertion_gives_characters(self):
        params = CftParams(gamma=1.1)
        series = torus_one_point_block(1e-12, 0.83, params, N=6)
        for n in range(7):
            assert series.coeffs[(n,)].real == pytest.approx(len(partitions(n)), rel=1e-6)


class TestChainBlock:
    """Blocks of the torus k-cycle and sphere chain graphs the adapters build."""

    def test_torus_k1_equals_one_point(self):
        params = CftParams(gamma=1.3)
        q = 0.12 + 0.07j
        s1 = tuple_block(_torus_cycle([1.1], [q]), [0.9], params, N=4)
        s2 = torus_one_point_block(1.1, 0.9, params, N=4)
        for n in range(5):
            assert s1.coeffs[(n,)] == pytest.approx(s2.coeffs[(n,)], rel=1e-12)
        assert s1.exponents == pytest.approx(s2.exponents)

    def test_torus_k2_structure(self):
        params = CftParams(gamma=1.3)
        qs = [0.1 + 0.02j, 0.15 - 0.03j]
        s = tuple_block(_torus_cycle([1.0, 1.2], qs), [0.5, 0.8], params, N=3)
        assert s.coeffs[(0, 0)] == pytest.approx(1.0)
        val = s.value(qs)
        assert np.isfinite(val.real) and np.isfinite(val.imag)

    def test_sphere_prefactor_factors(self):
        params = CftParams(gamma=1.2)
        alphas = [1.5, 1.4, 1.3, 1.2]
        g = _sphere_chain(alphas, [0.25])
        s = tuple_block(g, [0.7], params, N=2)
        dm = [complex(conformal_weight(a, params)).real for a in alphas]
        h2 = complex(conformal_weight(params.Q + 0.7j, params)).real
        # |z2|^{-Da2} |z3|^{+Da3} |z2|^{-Da1} |z3|^{+Da4}, squared; |q|^{c_L/12}
        # turns the graph's |q|^{2(-c_L/24 + Delta_{Q+ip})} into |q|^{2 Delta_{Q+ip}}
        expect_const = 0.5 ** (-dm[1]) * 2.0 ** dm[2] * 0.5 ** (-dm[0]) * 2.0 ** dm[3]
        expect = expect_const**2 * 0.25 ** (params.c_L / 12.0)
        assert _sphere_scalar(alphas, [0.5, 2.0], [0.25], params) == pytest.approx(expect, rel=1e-12)
        assert s.exponents[0] + params.c_L / 24.0 == pytest.approx(h2)
        assert s.coeffs[(0,)] == pytest.approx(1.0)


class TestGraphBlock:
    def test_self_loop_equals_torus_block(self):
        # the engine's substitution fold against the reference's explicit F^-1;
        # folding through a Cholesky factor of a computed F^-1 was 5e-7 off
        # at level 10
        params = CftParams(gamma=1.1)
        alpha1, p, q = 1.2, 0.83, 0.08 + 0.03j
        g = AdmissibleGraph(
            edges=[EdgeSpec((1, 1), (1, 2), q=q)], marked=[MarkedPoint(1, 3, alpha1)]
        )
        for N, rel in ((4, 1e-12), (10, 1e-9)):
            gb = tuple_block(g, [p], params, N=N)
            tb = torus_one_point_block(alpha1, p, params, N=N)
            for n in range(N + 1):
                assert gb.coeffs[(n,)] == pytest.approx(tb.coeffs[(n,)], rel=rel), (N, n)

    @pytest.mark.parametrize("p", [0.3, 1.0])
    def test_self_loop_level_8_against_mpmath(self, p):
        # Tr(F^-1 W) at level 8 from the same ring-agnostic recursions on
        # 30-digit weights, with mpmath's inverse: about 0.2 s per p.  The
        # engine keeps ~2e-13 here; a Cholesky factor of a computed F^-1 was
        # 5e-10 off at p = 0.3
        gamma, alpha1 = 1.3, 0.8
        with mpmath.workdps(30):
            g = mpmath.mpf(gamma)
            Q = g / 2 + 2 / g
            c, h = 1 + 6 * Q**2, (Q**2 + mpmath.mpf(p) ** 2) / 4
            d = mpmath.mpf(alpha1) / 2 * (Q - mpmath.mpf(alpha1) / 2)
            words = [nu.word() for nu in partitions(8)]
            gens, elems = {}, {}
            F = mpmath.matrix([[_pairing(u, v, h, c, gens) for v in words] for u in words])
            W = mpmath.matrix([[_radial_element(u, v, (h, d, h), c, elems) for v in words] for u in words])
            X = mpmath.inverse(F) * W
            expect = complex(sum(X[i, i] for i in range(len(words))))
        graph = AdmissibleGraph(
            edges=[EdgeSpec((1, 1), (1, 2), q=0.1)], marked=[MarkedPoint(1, 3, alpha1)]
        )
        got = tuple_block(graph, [p], CftParams(gamma=gamma), N=8).coeffs[(8,)]
        assert got == pytest.approx(expect, rel=1e-11)

    def test_normalization_multidegree_zero(self):
        params = CftParams(gamma=math.sqrt(2.0))
        g = AdmissibleGraph(
            edges=[
                EdgeSpec((1, 1), (2, 1), q=0.1),
                EdgeSpec((1, 2), (1, 3), q=0.1),
                EdgeSpec((2, 2), (2, 3), q=0.1),
            ]
        )
        gb = tuple_block(g, [0.4, 0.7, 1.1], params, N=2)
        assert gb.coeffs[(0, 0, 0)] == pytest.approx(1.0)

    def test_cauchy_riemann_in_q1(self):
        # the series part is holomorphic in each modulus
        params = CftParams(gamma=math.sqrt(2.0))
        g = AdmissibleGraph(
            edges=[
                EdgeSpec((1, 1), (2, 1), q=0.1),
                EdgeSpec((1, 2), (1, 3), q=0.1),
                EdgeSpec((2, 2), (2, 3), q=0.1),
            ]
        )
        gb = tuple_block(g, [0.4, 0.7, 1.1], params, N=3)
        q0 = [0.1 + 0.02j, 0.09, 0.11]
        h = 1e-5

        def s(q1):
            return gb._parts([q1, q0[1], q0[2]])[1][0]

        d_re = (s(q0[0] + h) - s(q0[0] - h)) / (2 * h)
        d_im = (s(q0[0] + 1j * h) - s(q0[0] - 1j * h)) / (2 * h)
        # holomorphy: d/d(Im q) = i d/d(Re q)
        assert abs(d_im - 1j * d_re) < 1e-6 * max(abs(d_re), 1.0)

    def test_level_agreement_with_chain_on_torus_graph(self):
        # 2-cycle vs the hand-written cyclic trace
        # Tr(F^-1_{p2,n2} W2_{n2 n1} F^-1_{p1,n1} W1_{n1 n2}), W_j = w^A(p_j, alpha_j, p_{j-1})
        # at N = 4 and at N = 6, whose levels 5 and 6 no exact-rational oracle reaches
        params = CftParams(gamma=1.25)
        c = params.c_L
        alphas, ps, qs = [0.9, 1.3], [1.1, 0.6], [0.05 + 0.01j, 0.07 - 0.02j]
        g = AdmissibleGraph(
            edges=[EdgeSpec((2, 2), (1, 1), q=qs[0]), EdgeSpec((1, 2), (2, 1), q=qs[1])],
            marked=[MarkedPoint(1, 3, alphas[0]), MarkedPoint(2, 3, alphas[1])],
        )
        h = [complex(conformal_weight(params.Q + 1j * p, params)) for p in ps]
        d = [complex(conformal_weight(a, params)) for a in alphas]

        def finv(j, n):
            return np.eye(1) if n == 0 else shapovalov_inverse(shapovalov(h[j], c, n)).entries

        for N in (4, 6):
            gb = tuple_block(g, ps, params, N=N)
            for (n1, n2), co in gb.coeffs.items():
                w1 = radial_matrix(n1, n2, h[0], d[0], h[1], c)
                w2 = radial_matrix(n2, n1, h[1], d[1], h[0], c)
                expect = complex(np.trace(finv(1, n2) @ w2 @ finv(0, n1) @ w1))
                assert co == pytest.approx(expect, rel=1e-12)
            assert len(gb.coeffs) == (N + 1) * (N + 2) // 2


class TestBlockSeries:
    def test_value_and_abs2(self):
        s = BlockSeries(exponents=(0.5,), coeffs={(0,): 1.0, (1,): 2.0 + 1.0j}, N=1)
        q = 0.2 + 0.1j
        expect = abs(q) ** 0.5 * (1.0 + (2 + 1j) * q)
        assert s.value([q]) == pytest.approx(expect)
        assert s.abs2([q]) == pytest.approx(abs(expect) ** 2)

    def test_dimension_check(self):
        s = BlockSeries(exponents=(0.5,), coeffs={(0,): 1.0}, N=0)
        with pytest.raises(DimensionMismatch):
            s.value([0.1, 0.2])
