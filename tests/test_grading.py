import math

import numpy as np
import pytest

from shiftlab.grading import (
    GradedComplementBasis,
    HomogeneousIdeal,
    hilbert_function,
    monomial_basis,
    monomial_weights,
    total_dimension,
)
from shiftlab.polynomials import Polynomial, WeightScheme, besov_weight

from oracles import ideal_degree_dim_exact, monomial_ideal_degree_dim


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
