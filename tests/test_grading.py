import math

import numpy as np
import pytest

from shiftlab.grading import (
    GradedComplementBasis,
    HomogeneousIdeal,
    hilbert_function,
    monomial_basis,
    monomial_exponents,
    monomial_rank,
    monomial_weights,
    total_dimension,
)
from shiftlab.operators import ShiftBlocks
from shiftlab.polynomials import Polynomial, WeightScheme, besov_weight

from oracles import (
    complement_projector_exact,
    ideal_degree_dim_exact,
    monomial_ideal_degree_dim,
    standard_monomials,
    svd_complement_basis,
)


def mono(*alpha):
    return Polynomial.monomial(alpha)


def z(i, d=2):
    return Polynomial.variable(d, i)


W = WeightScheme(0.5, 2)


class TestIdealValidation:
    def test_rejects_nonhomogeneous(self):
        with pytest.raises(ValueError):
            HomogeneousIdeal.from_generators([z(1) + z(2) ** 2], 2)

    def test_rejects_zero_generator(self):
        with pytest.raises(ValueError):
            HomogeneousIdeal.from_generators([Polynomial(2, {})], 2)

    def test_rejects_constant_generator(self):
        with pytest.raises(ValueError):
            HomogeneousIdeal.from_generators([Polynomial.constant(2, 1.0)], 2)

    def test_zero_ideal(self):
        assert HomogeneousIdeal.zero(2).is_trivial


class TestDegreeBases:
    def test_z1z2_degree3(self):
        I = HomogeneousIdeal.from_generators([mono(1, 1)], 2)
        basis = GradedComplementBasis(I, W, 4)
        # enumeration oracle: degree-3 multiples of z1z2 are z1^2z2, z1z2^2
        assert monomial_ideal_degree_dim([(1, 1)], 2, 3) == 2
        assert basis.dim_ideal(3) == 2

    def test_zero_ideal_empty(self):
        basis = GradedComplementBasis(HomogeneousIdeal.zero(2), W, 5)
        for n in range(6):
            assert basis.dim_ideal(n) == 0

    def test_z1sq_degree2(self):
        I = HomogeneousIdeal.from_generators([mono(2, 0)], 2)
        basis = GradedComplementBasis(I, W, 3)
        assert monomial_ideal_degree_dim([(2, 0)], 2, 2) == 1
        assert basis.dim_ideal(2) == 1

    def test_complement_z1z2_degree4(self):
        I = HomogeneousIdeal.from_generators([mono(1, 1)], 2)
        basis = GradedComplementBasis(I, W, 4)
        assert basis.dim_complement(4) == 2
        # the complement contains the pure-power directions
        for alpha in ((4, 0), (0, 4)):
            x = basis.to_weighted_coords(Polynomial.monomial(alpha), 4)
            Q = basis.complement_basis(4)
            assert np.linalg.norm(x - Q @ (Q.conj().T @ x)) < 1e-12

    def test_complement_zero_ideal_degree5(self):
        basis = GradedComplementBasis(HomogeneousIdeal.zero(2), W, 5)
        assert basis.dim_complement(5) == 6 == total_dimension(2, 5)

    def test_complement_z1sq_is_two_dimensional(self):
        I = HomogeneousIdeal.from_generators([mono(2, 0)], 2)
        basis = GradedComplementBasis(I, W, 8)
        for n in range(1, 9):
            # residue monomials z2^n and z1 z2^{n-1}
            assert basis.dim_complement(n) == 2

    def test_nonmonomial_generator_against_rational_oracle(self):
        g = z(1) ** 2 + z(2) ** 2
        I = HomogeneousIdeal.from_generators([g], 2)
        basis = GradedComplementBasis(I, W, 8)
        for n in range(2, 9):
            assert basis.dim_ideal(n) == ideal_degree_dim_exact([g], 2, n)

    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    @pytest.mark.parametrize("d", [2, 3])
    def test_orthonormality(self, sigma, d):
        gens = [Polynomial.monomial((1, 1) + (0,) * (d - 2))]
        I = HomogeneousIdeal.from_generators(gens, d)
        basis = GradedComplementBasis(I, WeightScheme(sigma, d), 12)
        for n in range(13):
            Q = basis.complement_basis(n)
            G = Q.conj().T @ Q
            assert np.abs(G - np.eye(Q.shape[1])).max() < 1e-10
            P = basis.ideal_degree_basis(n)
            if P.shape[1]:
                assert np.abs(P.conj().T @ P - np.eye(P.shape[1])).max() < 1e-10
                assert np.abs(P.conj().T @ Q).max() < 1e-10

    def test_dimensions_add_up(self):
        I = HomogeneousIdeal.from_generators([mono(1, 1), z(1) ** 3], 2)
        basis = GradedComplementBasis(I, W, 10)
        for n in range(11):
            assert basis.dim_ideal(n) + basis.dim_complement(n) == total_dimension(2, n)

    def test_dim_ideal_independent_of_sigma(self):
        g = z(1) ** 2 + 2 * z(1) * z(2)
        I = HomogeneousIdeal.from_generators([g], 2)
        dims = []
        for sigma in (0.5, 1.0, 2.0):
            basis = GradedComplementBasis(I, WeightScheme(sigma, 2), 9)
            dims.append([basis.dim_ideal(n) for n in range(10)])
        assert dims[0] == dims[1] == dims[2]

    def test_ideal_property_propagation(self):
        # g * e stays in the ideal for complement basis vectors e
        g = mono(1, 1)
        I = HomogeneousIdeal.from_generators([g], 2)
        basis = GradedComplementBasis(I, W, 10)
        for n in range(1, 8):
            for a in range(basis.dim_complement(n)):
                e = basis.complement_vector_polynomial(n, a)
                prod = Polynomial(2, g.coeffs) * e
                m = n + g.degree
                x = basis.to_weighted_coords(prod, m)
                P = basis.ideal_degree_basis(m)
                assert np.linalg.norm(x - P @ (P.conj().T @ x)) < 1e-9


class TestHilbertFunction:
    def test_z1z2(self):
        I = HomogeneousIdeal.from_generators([mono(1, 1)], 2)
        hf = hilbert_function(I, 6)
        assert hf.dims_complement == [1, 2, 2, 2, 2, 2, 2]
        assert not hf.finite_codimension_suspected

    def test_zero_ideal_d3(self):
        hf = hilbert_function(HomogeneousIdeal.zero(3), 4)
        assert hf.dims_complement == [1, 3, 6, 10, 15]

    def test_maximal_ideal_warns(self):
        I = HomogeneousIdeal.from_generators([z(1), z(2)], 2)
        hf = hilbert_function(I, 6)
        assert hf.dims_complement == [1, 0, 0, 0, 0, 0, 0]
        assert hf.finite_codimension_suspected


class TestSelectionBasis:
    """Monomial ideals: H_n is spanned by the standard monomials."""

    @pytest.mark.parametrize("d, gens", [(2, [(1, 1)]), (3, [(1, 1, 0), (0, 0, 2)]),
                                         (2, [(2, 0), (0, 3)]), (3, [])])
    def test_positions_are_standard_monomials(self, d, gens):
        ideal = HomogeneousIdeal.from_generators([mono(*g) for g in gens], d)
        basis = GradedComplementBasis(ideal, WeightScheme(1.0, d), 9)
        for n in range(10):
            rec = basis.record(n)
            std = [rec.monomials[k] for k in rec.complement_basis]
            assert std == standard_monomials(gens, d, n)
            assert basis.dim_ideal(n) == monomial_ideal_degree_dim(gens, d, n)
            assert sorted(np.concatenate([rec.ideal_basis, rec.complement_basis])) == list(
                range(rec.dim_total))

    def test_dense_matrix_on_demand(self):
        I = HomogeneousIdeal.from_generators([mono(1, 1)], 2)
        basis = GradedComplementBasis(I, W, 6)
        Q = basis.complement_basis(5)
        assert Q.shape == (6, 2)
        assert np.array_equal(Q[[0, 5]], np.eye(2))  # z1^5 and z2^5
        assert basis.complement_basis(5) is not Q  # built per call, not kept
        assert basis.ideal_degree_basis(5).shape == (6, 4)

    @pytest.mark.parametrize("gens", [[mono(1, 1)], [z(1) ** 2 + z(2) ** 2]])
    def test_coordinate_maps_match_dense_basis(self, gens):
        basis = GradedComplementBasis(HomogeneousIdeal.from_generators(gens, 2), W, 7)
        rng = np.random.default_rng(3)
        for n in range(8):
            Q = basis.complement_basis(n)
            x = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            y = rng.standard_normal(Q.shape[1]) + 1j * rng.standard_normal(Q.shape[1])
            assert np.abs(basis.to_complement(x, n) - Q.conj().T @ x).max(initial=0) <= 1e-14
            assert np.abs(basis.from_complement(y, n) - Q @ y).max(initial=0) <= 1e-14

    def test_general_ideal_low_degrees_are_selections(self):
        # below its generator's degree a quadric decides no rank
        w1, w2, w3 = (Polynomial.variable(3, i) for i in (1, 2, 3))
        I = HomogeneousIdeal.from_generators([w1 ** 2 + w2 ** 2 + w3 ** 2, w1 * w2 * w3], 3)
        hf = hilbert_function(I, 4)
        assert hf.rank_margins[:2] == [None, None]
        assert all(m is not None for m in hf.rank_margins[2:])


class TestRankDecisions:
    """The pivoted-QR path, with unit-norm columns, at degrees where the unscaled
    weighted columns spread over more orders of magnitude than rank_tol."""

    def test_sum_of_squares_dims_at_high_degree(self):
        I = HomogeneousIdeal.from_generators([z(1) ** 2 + z(2) ** 2], 2)
        hf = hilbert_function(I, 122)
        assert hf.dims_complement[2:] == [2] * 121
        assert hf.dims_ideal[2:] == list(range(1, 122))

    def test_principal_quadric_dims(self):
        # multiplication by a nonzero g is injective, so dim I_n = dim P_{n-2};
        # building every degree up to 56 takes most of a minute, so only the
        # degrees checked are built
        w1, w2, w3 = (Polynomial.variable(3, i) for i in (1, 2, 3))
        I = HomogeneousIdeal.from_generators([w1 ** 2 + w2 ** 2 + w3 ** 2], 3)
        basis = GradedComplementBasis(I, WeightScheme(1.0, 3), 2)
        for n in (10, 30, 46, 56):
            rec = basis._build_degree(n)
            assert rec.dim_ideal == total_dimension(3, n - 2)
            assert rec.dim_complement == 2 * n + 1
            assert rec.rank_margin > 1e3

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    def test_against_rational_oracle(self, sigma):
        w1, w2, w3 = (Polynomial.variable(3, i) for i in (1, 2, 3))
        for gens in ([w1 ** 2 + w2 ** 2 + w3 ** 2],
                     [w1 * w2, w1 ** 2 - w2 * w3],
                     [w1 ** 2 + 2 * w2 * w3, w2 ** 3 - w1 * w3 ** 2]):
            basis = GradedComplementBasis(
                HomogeneousIdeal.from_generators(gens, 3), WeightScheme(sigma, 3), 8)
            for n in range(9):
                assert basis.dim_ideal(n) == ideal_degree_dim_exact(gens, 3, n)

    def test_margin_of_orthogonal_columns(self):
        # at n = 2 and 3 the multiples of z1^2 + z2^2 have disjoint supports,
        # so every scaled singular value is 1 and the margin is 1/rank_tol
        I = HomogeneousIdeal.from_generators([z(1) ** 2 + z(2) ** 2], 2)
        hf = hilbert_function(I, 3, rank_tol=1e-6)
        assert hf.rank_margins[:2] == [None, None]
        assert hf.rank_margins[2:] == pytest.approx([1e6, 1e6], rel=1e-12)

    def test_margin_measures_the_nearest_diagonal_entry(self):
        # (z1 + z2)^2 and (z1 - z2)^2 span a plane of degree 2 that the third
        # generator leaves by 1e-7.  Whichever of the two near-parallel unit
        # columns the pivoting puts last, |R_22| is its distance from the span
        # of the other two, and the two distances agree to about 1e-7
        # relative; |R_00| is 1, the norm of a unit column
        g1, g2 = (z(1) + z(2)) ** 2, (z(1) - z(2)) ** 2
        I = HomogeneousIdeal.from_generators([g1, g2, g1 + 1e-7 * z(1) ** 2], 2)
        basis = GradedComplementBasis(I, W, 2)
        rec = basis.record(2)
        A = np.column_stack([basis.to_weighted_coords(g, 2) for g in I.generators])
        A /= np.linalg.norm(A, axis=0)
        coef = np.linalg.lstsq(A[:, :2], A[:, 2], rcond=None)[0]
        r_last = np.linalg.norm(A[:, 2] - A[:, :2] @ coef)
        assert 1e-8 < r_last < 1e-7
        assert rec.dim_ideal == 3
        assert rec.rank_margin == pytest.approx(r_last / basis.rank_tol, rel=1e-6)
        # with a threshold above it, the same value is dropped, by thr / r
        rec = GradedComplementBasis(I, W, 2, rank_tol=1e-5).record(2)
        assert rec.dim_ideal == 2
        assert rec.rank_margin == pytest.approx(1e-5 / r_last, rel=1e-6)


def _projector(Q):
    return Q @ Q.conj().T


def _w(i):
    return Polynomial.variable(3, i)


QUADRIC = [_w(1) ** 2 + _w(2) ** 2 + _w(3) ** 2]
NON_MONOMIAL_IDEALS = {
    "quadric": QUADRIC,
    "quadric+cubic": QUADRIC + [_w(1) * _w(2) * _w(3)],
    "mixed": [_w(1) * _w(2), _w(1) ** 2 - _w(2) * _w(3)],
    "complex": [_w(1) ** 2 + 1j * _w(2) * _w(3), _w(2) ** 3 - _w(1) * _w(3) ** 2],
}


class TestQRAgainstSVD:
    """The pivoted QR against the full SVD the basis was built with before
    (``oracles.svd_complement_basis``): same dims, same complement."""

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("name", sorted(NON_MONOMIAL_IDEALS))
    def test_dims_and_projectors(self, name, sigma):
        gens = NON_MONOMIAL_IDEALS[name]
        basis = GradedComplementBasis(
            HomogeneousIdeal.from_generators(gens, 3), WeightScheme(sigma, 3), 20)
        for n in range(21):
            _, Q_svd, _ = svd_complement_basis(gens, 3, n, sigma, basis.rank_tol)
            Q = basis.complement_basis(n)
            assert Q.shape == Q_svd.shape
            assert np.abs(_projector(Q) - _projector(Q_svd)).max(initial=0) <= 1e-12

    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-8, 1e-7, 1e-5])
    def test_near_threshold_rank_decisions(self, rank_tol):
        g1, g2 = (z(1) + z(2)) ** 2, (z(1) - z(2)) ** 2
        gens = [g1, g2, g1 + 1e-7 * z(1) ** 2]
        hf = hilbert_function(HomogeneousIdeal.from_generators(gens, 2), 10,
                              rank_tol=rank_tol)
        for n in range(11):
            P_svd, _, _ = svd_complement_basis(gens, 2, n, 0.5, rank_tol)
            assert hf.dims_ideal[n] == P_svd.shape[1]

    def test_sum_of_squares_dims_to_degree_122(self):
        gens = [z(1) ** 2 + z(2) ** 2]
        hf = hilbert_function(HomogeneousIdeal.from_generators(gens, 2), 122)
        for n in range(123):
            P_svd, _, _ = svd_complement_basis(gens, 2, n, 0.5, 1e-10)
            assert hf.dims_ideal[n] == P_svd.shape[1]


class TestExactProjector:
    """D^(-1/2) Q Q^H D^(1/2), with D the monomial weights, is the projector
    onto H_n in plain coefficient coordinates; ``complement_projector_exact``
    computes it over the rationals."""

    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    @pytest.mark.parametrize("name", ["quadric", "mixed"])
    def test_against_rational_projector(self, name, sigma):
        gens = NON_MONOMIAL_IDEALS[name]
        basis = GradedComplementBasis(
            HomogeneousIdeal.from_generators(gens, 3), WeightScheme(sigma, 3), 6)
        for n in range(7):
            sw = basis.sqrt_weights(n)
            P = _projector(basis.complement_basis(n)) * sw[None, :] / sw[:, None]
            exact = complement_projector_exact(gens, 3, n, sigma)
            assert np.abs(P - exact).max() <= 1e-12


class TestRealArithmetic:
    """Real generators give a real basis; everything built on it stays complex."""

    @pytest.mark.parametrize("name", sorted(NON_MONOMIAL_IDEALS))
    def test_basis_dtype(self, name):
        gens = NON_MONOMIAL_IDEALS[name]
        basis = GradedComplementBasis(
            HomogeneousIdeal.from_generators(gens, 3), WeightScheme(1.0, 3), 6)
        want = complex if name == "complex" else np.float64
        for n in range(2, 7):
            assert not basis.record(n).is_selection
            assert basis.complement_basis(n).dtype == want
            assert basis.ideal_degree_basis(n).dtype == want

    def test_blocks_and_defects_stay_complex(self):
        blocks = ShiftBlocks(GradedComplementBasis(
            HomogeneousIdeal.from_generators(QUADRIC, 3), WeightScheme(1.0, 3), 8))
        for n in range(7):
            assert blocks.shift_block(1, n).dtype == complex
            assert blocks.mult_block(_w(1) * _w(2), n).dtype == complex
            assert blocks.row_defect_block(n).dtype == complex
            assert blocks.column_defect_block(n).dtype == complex


def test_monomial_rank_is_position_in_monomial_basis():
    for d in (1, 2, 3, 4):
        for n in range(9):
            E = monomial_exponents(d, n)
            assert E.tolist() == [list(a) for a in monomial_basis(d, n)]
            assert monomial_rank(E).tolist() == list(range(len(E)))
    with pytest.raises(ValueError):
        monomial_exponents(2, 3)[0, 0] = 1


def test_monomial_basis_order_is_graded_lex():
    assert monomial_basis(2, 3) == ((3, 0), (2, 1), (1, 2), (0, 3))
    assert monomial_basis(3, 2)[0] == (2, 0, 0)
    assert len(monomial_basis(3, 5)) == math.comb(7, 2)


class TestMonomialWeights:
    @pytest.mark.parametrize("d, sigma", [(2, 0.5), (3, 1.0), (3, 2.0), (4, 0.75)])
    def test_equals_weight_scheme(self, d, sigma):
        w = WeightScheme(sigma, d)
        for n in range(15):
            expected = [w.weight(a) for a in monomial_basis(d, n)]
            assert monomial_weights(d, n, sigma).tolist() == expected

    def test_agrees_with_float_multinomial_loop(self):
        # the float loop the weights were computed with before, alpha!/|alpha|!
        # as a running product of j/k
        def multinomial_ratio(alpha):
            out, k = 1.0, 0
            for a in alpha:
                for j in range(1, a + 1):
                    k += 1
                    out *= j / k
            return out

        for d, sigma, n_max in [(2, 0.5, 122), (3, 1.0, 40), (3, 2.0, 31)]:
            for n in range(n_max + 1):
                c = besov_weight(n, sigma)
                old = np.array([c * multinomial_ratio(a) for a in monomial_basis(d, n)])
                new = monomial_weights(d, n, sigma)
                assert np.max(np.abs(new - old) / old) <= 1e-14

    def test_basis_sqrt_weights(self):
        basis = GradedComplementBasis(HomogeneousIdeal.zero(3), WeightScheme(1.0, 3), 8)
        for n in range(9):
            assert np.array_equal(basis.sqrt_weights(n), np.sqrt(monomial_weights(3, n, 1.0)))

    def test_read_only(self):
        with pytest.raises(ValueError):
            monomial_weights(2, 3, 0.5)[0] = 1.0
