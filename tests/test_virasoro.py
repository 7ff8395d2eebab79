import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcft.errors import DegenerateWeight, ValidationError
from lcft.params import CftParams
from lcft.virasoro import (
    _pairing,
    apply_generator_to_word,
    conformal_weight,
    kac_weight,
    partitions,
    shapovalov,
    shapovalov_inverse,
)

from oracles import exact_det, exact_partitions, gram_matrix


class TestPartitions:
    def test_zero(self):
        assert partitions(0) == ((),)

    def test_one(self):
        assert partitions(1) == ((1,),)

    def test_counts_exhaustive(self):
        # brute-force enumeration oracle
        for n in range(9):
            assert len(partitions(n)) == len(exact_partitions(n))
        assert len(partitions(4)) == 5

    def test_basis_built_once_and_negative_level_rejected(self):
        assert partitions(5) is partitions(5)
        for _ in range(2):
            with pytest.raises(ValidationError, match="level must be >= 0"):
                partitions(-1)

    def test_canonical_order(self):
        # ascending operator words of the partitions, largest part first
        assert partitions(4) == ((4,), (1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1))
        for n in range(9):
            assert all(w == tuple(sorted(w)) and sum(w) == n for w in partitions(n))
            assert [w[::-1] for w in partitions(n)] == sorted((w[::-1] for w in partitions(n)), reverse=True)


class TestWeights:
    def test_zero_weight(self):
        params = CftParams(gamma=1.3)
        assert conformal_weight(0.0, params) == 0.0

    def test_gamma_weight_is_one(self):
        params = CftParams(gamma=1.3)
        assert conformal_weight(params.gamma, params) == pytest.approx(1.0, rel=1e-14)

    def test_spectrum_weight(self):
        params = CftParams(gamma=math.sqrt(2.0))
        d = conformal_weight(params.Q + 1j, params)
        assert d == pytest.approx(1.375, rel=1e-12)
        assert abs(d.imag) < 1e-14

    def test_kac_weights(self):
        params = CftParams(gamma=1.1)
        assert kac_weight(1, 1, params) == pytest.approx(0.0, abs=1e-14)
        assert kac_weight(2, 1, params) == pytest.approx(-params.gamma / 2.0)
        assert kac_weight(1, 2, params) == pytest.approx(-2.0 / params.gamma)
        with pytest.raises(ValidationError):
            kac_weight(0, 1, params)


class TestApplyVirasoro:
    """L_n on canonical operator words (ascending tuples) of level-|word|
    descendants."""

    def test_grading_l0(self):
        assert apply_generator_to_word(0, (1,), 0.7, 25.0) == {(1,): pytest.approx(1.7)}

    def test_single_commutator(self):
        assert apply_generator_to_word(1, (1,), 0.7, 25.0) == {(): pytest.approx(1.4)}

    def test_level_two_commutator(self):
        out = apply_generator_to_word(2, (2,), 0.7, 25.0)
        assert out == {(): pytest.approx(4 * 0.7 + 25.0 / 2)}

    @given(
        n=st.integers(min_value=-3, max_value=3),
        parts=st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_grading_respected(self, n, parts):
        word = tuple(sorted(parts))
        out = apply_generator_to_word(n, word, 0.5, 26.0)
        for w, co in out.items():
            assert w == tuple(sorted(w))  # canonical
            assert sum(w) == sum(word) - n
            assert co == co  # no NaN


class TestShapovalov:
    def test_level_one(self):
        F = shapovalov(0.7, 25.0, 1)
        assert F.entries == pytest.approx(np.array([[1.4]]))

    def test_level_two_matches_known_matrix(self):
        D, c = 0.7, 25.5
        F = shapovalov(D, c, 2).entries
        expect = np.array([[4 * D + c / 2, 6 * D], [6 * D, 8 * D**2 + 4 * D]])
        assert F == pytest.approx(expect)

    def test_pairing_on_arrays_equals_each_weight_bitwise(self):
        deltas = np.array([0.5, 0.7, 0.3 + 0.2j, 1.9 - 0.4j])
        for bra, ket in [((1, 1), (1, 1)), ((1, 2), (3,)), ((1, 1, 2), (2, 2))]:
            whole = _pairing(bra, ket, deltas, 26.0)
            for i in range(len(deltas)):
                assert np.array_equal(whole[i : i + 1], _pairing(bra, ket, deltas[i : i + 1], 26.0))
        assert _pairing((1, 1), (1, 1), deltas[:2], 26.0) == pytest.approx([4.0, 6.72], rel=1e-15)

    def test_exactly_symmetric_bitwise(self):
        F = shapovalov(0.3 + 0.2j, 26.0, 4).entries
        assert np.array_equal(F, F.T)

    @pytest.mark.parametrize(
        "d,c", [(Fraction(1, 2), Fraction(26)), (Fraction(3, 4), Fraction(1, 2)), (Fraction(2), Fraction(28))]
    )
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bit_for_bit_vs_exact_oracle(self, d, c, n):
        exact = gram_matrix(d, c, n)
        prod = shapovalov(float(d), float(c), n).entries
        assert np.array_equal(prod.real, np.array([[float(x) for x in row] for row in exact]))
        assert np.all(prod.imag == 0.0)

    def test_kac_vanishing_levels_up_to_4(self):
        params = CftParams(gamma=math.sqrt(2.0))
        for n in range(1, 5):
            for r in range(1, n + 1):
                for s in range(1, n + 1):
                    if r * s > n:
                        continue
                    d = Fraction(9 - (r + 2 * s) ** 2, 8)
                    exact = gram_matrix(d, Fraction(28), n)
                    assert exact_det(exact) == 0

    def test_kac_degenerate_level_one(self):
        params = CftParams(gamma=math.sqrt(2.0))
        d = conformal_weight(kac_weight(1, 1, params), params)
        F = shapovalov(complex(d), params.c_L, 1)
        assert abs(np.linalg.det(F.entries)) <= 1e-8 * max(np.abs(F.entries).max(), 1e-300)


class TestShapovalovInverse:
    def test_level_one(self):
        F = shapovalov(0.7, 25.0, 1)
        inv = shapovalov_inverse(F)
        assert inv.entries == pytest.approx(np.array([[1 / 1.4]]))

    def test_identity_residual_level3(self):
        params = CftParams(gamma=1.1)
        d = complex(conformal_weight(params.Q + 0.7j, params))
        F = shapovalov(d, params.c_L, 3)
        inv = shapovalov_inverse(F)
        assert np.max(np.abs(F.entries @ inv.entries - np.eye(len(F.entries)))) < 1e-12

    @pytest.mark.parametrize("p", [0.3, 0.7, 1.5])
    def test_positive_definite_on_spectrum_line(self, p):
        params = CftParams(gamma=1.3)
        d = complex(conformal_weight(params.Q + 1j * p, params))
        for n in range(1, 5):
            F = shapovalov(d, params.c_L, n)
            assert np.all(np.linalg.eigvalsh(F.entries.real) > 0)
            inv = shapovalov_inverse(F)
            assert inv.method == "cholesky"

    def test_degenerate_guard(self):
        # level 2 just off the (2,1) Kac zero: equilibrated condition blows up
        params = CftParams(gamma=math.sqrt(2.0))
        d = conformal_weight(kac_weight(2, 1, params), params) + 1e-13
        with pytest.raises(DegenerateWeight):
            shapovalov_inverse(shapovalov(complex(d), params.c_L, 2))
        # exact Kac zero at level 1 has a vanishing diagonal norm
        with pytest.raises(DegenerateWeight):
            shapovalov_inverse(shapovalov(0.0, params.c_L, 1))

    @pytest.mark.parametrize("p", [0.5, 1.5, 3.0])
    def test_spectrum_eigenvalues_positive(self, p):
        params = CftParams(gamma=1.8)
        d = complex(conformal_weight(params.Q + 1j * p, params))
        for n in (1, 2, 3, 4):
            ev = np.linalg.eigvalsh(shapovalov(d, params.c_L, n).entries.real)
            assert ev.min() > 0
