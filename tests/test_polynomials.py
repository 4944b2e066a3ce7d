import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.grading import monomial_basis
from shiftlab.polynomials import (
    MatrixPolynomial,
    Polynomial,
    WeightScheme,
    besov_weight,
    monomial_norm_sq,
    monomial_norm_sq_exact,
)


def z(i, d=2):
    return Polynomial.variable(d, i)


class TestBesovWeight:
    def test_drury_arveson_weights_are_one(self):
        for n in range(201):
            assert besov_weight(n, 0.5) == 1.0

    def test_degree_zero_is_one(self):
        for sigma in (0.5, 0.7, 1.0, 2.5):
            assert besov_weight(0, sigma) == 1.0

    def test_sigma_one_degree_three(self):
        # Gamma recurrence oracle: G(4)G(2)/G(5) = 6/24
        assert besov_weight(3, 1.0) == pytest.approx(0.25, abs=0)

    def test_matches_log_gamma(self):
        for sigma in (0.5, 0.75, 1.0, 1.5, 2.0, 2.5):
            for n in (0, 1, 5, 50, 200):
                ref = math.exp(
                    math.lgamma(n + 1)
                    + math.lgamma(2 * sigma)
                    - math.lgamma(2 * sigma + n)
                )
                assert besov_weight(n, sigma) == pytest.approx(ref, rel=1e-12)

    def test_monotone_decreasing_for_sigma_above_half(self):
        for sigma in (0.75, 1.0, 2.0):
            vals = [besov_weight(n, sigma) for n in range(200)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            besov_weight(3, 0.0)
        with pytest.raises(ValueError):
            besov_weight(3, -1.0)


class TestMonomialNorm:
    def test_paper_example(self):
        assert monomial_norm_sq((1, 1), WeightScheme(0.5, 2)) == pytest.approx(0.5)

    def test_constant(self):
        for sigma in (0.5, 1.0, 1.7):
            assert monomial_norm_sq((0, 0), WeightScheme(sigma, 2)) == 1.0

    def test_sigma_one(self):
        # c_{1,2} = G(3)G(2)/G(4) = 1/3, times 1/2
        assert monomial_norm_sq((1, 1), WeightScheme(1.0, 2)) == pytest.approx(
            1 / 6, rel=1e-14
        )

    def test_rational_cross_check(self):
        w = WeightScheme(0.5, 3)
        for n in range(13):
            for alpha in monomial_basis(3, n):
                exact = monomial_norm_sq_exact(alpha)
                assert monomial_norm_sq(alpha, w) == pytest.approx(
                    float(exact), rel=1e-13
                )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            monomial_norm_sq((1, 1, 1), WeightScheme(0.5, 2))


class TestInnerProduct:
    def test_z1z2_with_itself(self):
        w = WeightScheme(0.5, 2)
        p = z(1) * z(2)
        assert w.inner_product(p, p) == pytest.approx(0.5)

    def test_distinct_monomials_orthogonal(self):
        for sigma in (0.5, 1.0, 2.0):
            w = WeightScheme(sigma, 2)
            assert w.inner_product(z(1) ** 2, z(2) ** 2) == 0

    def test_z1z2_sigma_one(self):
        w = WeightScheme(1.0, 2)
        p = z(1) * z(2)
        assert w.inner_product(p, p) == pytest.approx(1 / 6, rel=1e-14)

    def test_degree_mismatch_is_zero(self):
        w = WeightScheme(0.5, 2)
        assert w.inner_product(z(1), z(1) ** 2) == 0


class TestArithmetic:
    def test_product_of_variables(self):
        assert z(1) * z(2) == Polynomial.monomial((1, 1))

    def test_binomial_square(self):
        p = (z(1) + z(2)) ** 2
        assert p == Polynomial(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_monomial_product(self):
        assert (z(1) * z(2)) * z(1) ** 2 == Polynomial.monomial((3, 1))

    def test_evaluate_z1z2(self):
        p = z(1) * z(2)
        s = 1 / math.sqrt(2)
        assert p([s, s]) == pytest.approx(0.5)

    def test_evaluate_at_zero_gives_constant_term(self):
        p = Polynomial(2, {(0, 0): 3.5, (2, 1): 2.0, (1, 0): -1})
        assert p([0, 0]) == 3.5

    def test_evaluate_coordinate(self):
        assert z(1)([1, 0]) == 1

    def test_zero_coefficients_pruned(self):
        p = z(1) - z(1)
        assert p.is_zero and p.coeffs == {}

    def test_homogeneous_validation(self):
        with pytest.raises(ValueError):
            Polynomial.homogeneous(2, 2, {(2, 0): 1, (1, 0): 1})


# random homogeneous polynomials for property tests

def _coeff():
    return st.complex_numbers(
        min_magnitude=0, max_magnitude=4, allow_nan=False, allow_infinity=False
    )


def homogeneous_polys(d=2, degree=3):
    monos = list(monomial_basis(d, degree))
    return st.dictionaries(st.sampled_from(monos), _coeff(), max_size=len(monos)).map(
        lambda c: Polynomial(d, c)
    )


def polys(d=2, max_degree=3):
    monos = [a for n in range(max_degree + 1) for a in monomial_basis(d, n)]
    return st.dictionaries(st.sampled_from(monos), _coeff(), max_size=6).map(
        lambda c: Polynomial(d, c)
    )


@given(homogeneous_polys(), homogeneous_polys(), _coeff())
@settings(max_examples=60, deadline=None)
def test_inner_product_sesquilinear(p, q, c):
    w = WeightScheme(0.5, 2)
    lhs = w.inner_product(c * p, q)
    rhs = c * w.inner_product(p, q)
    assert lhs == pytest.approx(rhs, abs=1e-9)
    conj = np.conj(w.inner_product(q, p))
    assert w.inner_product(p, q) == pytest.approx(conj, abs=1e-9)


@given(polys(), polys(), st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_evaluation_is_multiplicative(p, q, k):
    theta = 2 * math.pi * k / 30
    zpt = [0.6 * math.cos(theta), 0.6 * math.sin(theta) * 1j]
    lhs = (p * q)(zpt)
    rhs = p(zpt) * q(zpt)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


def _dict_loop_value(p, zpt):
    """The per-term loop that evaluated a polynomial before the exponent-matrix
    evaluator; also returns sum |c z^alpha|, the scale of its round-off."""
    acc, scale = 0j, 0.0
    for alpha, c in p.coeffs.items():
        term = c
        for zi, a in zip(zpt, alpha):
            if a:
                term *= zi**a
        acc += term
        scale += abs(term)
    return acc, scale


@given(polys(d=3, max_degree=5), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_evaluation_matches_dict_loop(p, seed):
    rng = np.random.default_rng(seed)
    zpt = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    old, scale = _dict_loop_value(p, np.asarray(zpt, dtype=complex))
    new = p(zpt)
    assert isinstance(new, complex)
    assert abs(new - old) <= 1e-14 * max(abs(old), scale)


@given(polys(d=3, max_degree=5), st.integers(1, 9), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_batch_rows_equal_points(p, batch, seed):
    rng = np.random.default_rng(seed)
    zs = rng.standard_normal((batch, 3)) + 1j * rng.standard_normal((batch, 3))
    vals = p(zs)
    assert vals.shape == (batch,)
    assert all(vals[k] == p(zs[k]) for k in range(batch))


def test_matrix_polynomial_batch():
    P = MatrixPolynomial([[z(1), z(2) ** 2], [2 * z(1) * z(2), Polynomial(2, {})]])
    zs = np.array([[0.6, 0.8j], [1.0, 0.0], [0.3 - 0.1j, 0.5]])
    assert P(zs).shape == (3, 2, 2)
    sups = P.sup_eval(zs)
    assert sups.shape == (3,)
    for k in range(3):
        assert np.array_equal(P(zs)[k], P(zs[k]))
        assert sups[k] == P.sup_eval(zs[k])
        assert sups[k] == pytest.approx(np.linalg.norm(P(zs[k]), 2), rel=1e-14)
    scalar = MatrixPolynomial.from_scalar(z(1) * z(2))
    assert scalar.sup_eval(zs).tolist() == [abs(p) for p in (z(1) * z(2))(zs)]


def test_bad_point_shape_rejected():
    with pytest.raises(ValueError):
        z(1)([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        z(1)(np.zeros((2, 2, 2)))
