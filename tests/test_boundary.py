import math
import time

import numpy as np
import pytest

from shiftlab.boundary import (
    OptimizerConfig,
    VarietyBoundaryNotFound,
    boundary_sup,
    character_check,
    kernel_vector,
)
from shiftlab.grading import GradedComplementBasis, HomogeneousIdeal
from shiftlab.operators import ShiftBlocks
from shiftlab.polynomials import Polynomial, WeightScheme

from oracles import kernel_series_exact, sup_abs_on_sphere_grid


def z(i, d=2):
    return Polynomial.variable(d, i)


FAST = OptimizerConfig(n_starts=16, seed=11)


class TestBoundarySup:
    def test_coordinate_on_free_sphere(self):
        r = boundary_sup(z(1), HomogeneousIdeal.zero(2), FAST)
        assert r.value == pytest.approx(1.0, abs=1e-8)
        assert r.sphere_residual < 1e-10

    def test_z1z2_lagrange_value(self):
        # Lagrange oracle: |z1 z2| on the sphere peaks at |z1| = |z2| = 1/sqrt 2
        r = boundary_sup(z(1) * z(2), HomogeneousIdeal.zero(2), FAST)
        assert r.value == pytest.approx(0.5, abs=1e-8)
        zstar = np.abs(r.point)
        assert zstar[0] == pytest.approx(1 / math.sqrt(2), abs=1e-5)

    def test_two_circle_boundary(self):
        I = HomogeneousIdeal.from_generators([z(1) * z(2)], 2)
        r = boundary_sup(z(1) + z(2), I, FAST)
        assert r.value == pytest.approx(1.0, abs=1e-8)
        assert r.ideal_residual < 1e-8

    def test_grid_oracle_agreement(self):
        p = z(1) ** 2 + 2 * z(1) * z(2)
        r = boundary_sup(p, HomogeneousIdeal.zero(2), FAST)
        grid = sup_abs_on_sphere_grid(p, 2, 400)
        assert r.value >= grid - 1e-6

    def test_value_dominates_samples(self):
        cfg = OptimizerConfig(n_starts=8, seed=3, fallback_grid=50)
        r = boundary_sup(z(1) * z(2), HomogeneousIdeal.zero(2), cfg)
        assert r.value == pytest.approx(0.5, abs=1e-7)

    def test_phase_invariance(self):
        p = z(1) ** 2 * z(2)
        r = boundary_sup(p, HomogeneousIdeal.zero(2), FAST)
        for theta in (0.3, 1.1, 2.9):
            assert abs(p(np.exp(1j * theta) * r.point)) == pytest.approx(
                r.value, abs=1e-10
            )

    def test_feasible_starts_scale_invariant(self):
        # points of a homogeneous variety stay on it after normalization
        I = HomogeneousIdeal.from_generators([z(1) ** 2 - z(2) ** 2], 2)
        r = boundary_sup(z(1), I, FAST)
        assert r.ideal_residual < 1e-8
        assert r.value == pytest.approx(1 / math.sqrt(2), abs=1e-6)

    def test_empty_boundary_raises(self):
        # generators with only the origin as a common real zero in C^2:
        # z1, z2 leave no sphere point
        I = HomogeneousIdeal.from_generators([z(1), z(2)], 2)
        with pytest.raises(VarietyBoundaryNotFound):
            boundary_sup(z(1), I, OptimizerConfig(n_starts=4, seed=0))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            boundary_sup(Polynomial(2, {}), HomogeneousIdeal.zero(2), FAST)

    def test_deterministic(self):
        a = boundary_sup(z(1) * z(2), HomogeneousIdeal.zero(2), FAST)
        b = boundary_sup(z(1) * z(2), HomogeneousIdeal.zero(2), FAST)
        assert a.value == b.value
        assert np.array_equal(a.point, b.point)


class TestKernelVector:
    def test_origin(self):
        kv = kernel_vector([0.0, 0.0], 0.5, 5)
        assert kv.normalization == pytest.approx(1.0)
        assert kv.coefficients[0][0] == pytest.approx(1.0)
        assert all(np.abs(c).max() == 0 for c in kv.coefficients[1:])

    def test_normalization_geometric_series(self):
        # sigma = 1/2: sum r^{2n} = 1/(1-r^2), so C = sqrt(1-r^2)
        for r in (0.3, 0.7, 0.95):
            kv = kernel_vector([r, 0.0], 0.5, 10)
            assert kv.normalization == pytest.approx(
                math.sqrt(1 - r * r), rel=1e-12
            )

    def test_truncated_norm_bracket(self):
        for sigma in (0.5, 1.0, 1.5):
            kv = kernel_vector([0.5, 0.4], sigma, 25)
            assert kv.norm_sq_truncated <= 1.0 + 1e-12
            assert kv.norm_sq_truncated >= 1.0 - kv.tail_bound - 1e-12

    def test_reproducing_identity(self):
        lam = np.array([0.5, 0.4])
        kv = kernel_vector(lam, 0.5, 40)
        f = z(1) ** 2 * z(2)
        w = WeightScheme(0.5, 2)
        basis = GradedComplementBasis(HomogeneousIdeal.zero(2), w, 40)
        acc = 0.0 + 0.0j
        for n in range(41):
            x = kv.weighted_coords(n, basis.sqrt_weights(n))
            y = basis.to_weighted_coords(f, n)
            acc += np.vdot(x, y)  # <f, v_lambda>
        assert acc == pytest.approx(kv.normalization * f(lam), abs=1e-10)

    def test_boundary_point_rejected(self):
        with pytest.raises(ValueError):
            kernel_vector([1.0, 0.0], 0.5, 5)

    # dyadic coordinates, so that r^2 = |lam|^2 is exact in floating point
    @pytest.mark.parametrize("lam, two_sigma, N", [
        ((0.25, 0.0), 1, 14),  # tail about 9e-19, far below the total's ulp
        ((0.25, 0.0), 2, 14),
        ((0.125, 0.25), 2, 12),
        ((0.75, 0.5), 1, 20),
        ((0.75, 0.5), 4, 30),
        ((0.5, 0.25, 0.125), 3, 10),
    ])
    def test_against_exact_series(self, lam, two_sigma, N):
        kv = kernel_vector(lam, two_sigma / 2, N)
        total, tail = kernel_series_exact(sum(x * x for x in lam), two_sigma, N)
        assert kv.normalization == pytest.approx(float(total) ** -0.5, rel=1e-12, abs=0)
        assert kv.tail_bound == pytest.approx(float(tail / total), rel=1e-12, abs=0)
        assert kv.norm_sq_truncated == pytest.approx(
            float(1 - tail / total), rel=1e-12, abs=0)

    def test_near_boundary(self):
        t0 = time.perf_counter()
        for r in (0.999, 0.99999):
            for sigma in (0.5, 1.0, 2.0):
                for d in (2, 3):
                    lam = np.full(d, r / math.sqrt(d), dtype=complex)
                    lam[-1] *= 1j
                    r2 = float(np.sum(np.abs(lam) ** 2))
                    kv = kernel_vector(lam, sigma, 30)
                    assert kv.normalization == pytest.approx(
                        (1 - r2) ** sigma, rel=1e-12, abs=0)
                    assert kv.norm_sq_truncated + kv.tail_bound == pytest.approx(
                        1.0, rel=0, abs=1e-12)
                    assert 0.0 <= kv.tail_bound <= 1.0
        assert time.perf_counter() - t0 < 2.0

    def test_normalizer_overflow_raises(self):
        # (1 - r^2)^(-2 sigma) is about 1e1880 here
        with pytest.raises(OverflowError):
            kernel_vector([0.99999, 0.0], 200.0, 30)


@pytest.fixture(scope="module")
def blocks():
    I = HomogeneousIdeal.from_generators([z(1) * z(2)], 2)
    return ShiftBlocks(GradedComplementBasis(I, WeightScheme(0.5, 2), 40))


class TestCharacterCheck:

    def test_constant(self, blocks):
        res = character_check(Polynomial.constant(2, 2.0), [0.3, 0.0], blocks, N=20)
        assert res.discrepancy < 1e-12

    def test_free_coordinate(self):
        blocks = ShiftBlocks(
            GradedComplementBasis(HomogeneousIdeal.zero(2), WeightScheme(0.5, 2), 62)
        )
        res = character_check(z(1), [0.6, 0.3], blocks, N=60)
        assert res.discrepancy <= 1e-8

    def test_reproduces_cube(self, blocks):
        res = character_check(z(1) ** 3, [0.7, 0.0], blocks, N=36)
        assert res.vector_state_value.real == pytest.approx(0.343, abs=1e-6)
        assert abs(res.point_value) <= res.operator_norm + res.discrepancy + 1e-12

    def test_infeasible_point_rejected(self, blocks):
        with pytest.raises(ValueError):
            character_check(z(1), [0.5, 0.5], blocks, N=10)
