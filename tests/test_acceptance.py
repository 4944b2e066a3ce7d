"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import math
import time

import numpy as np
import pytest

from oracles import monomial_window_norm
from shiftlab.boundary import OptimizerConfig, boundary_sup, character_check, kernel_vector
from shiftlab.grading import GradedComplementBasis, HomogeneousIdeal, monomial_basis
from shiftlab.operators import ShiftBlocks, operator_norm, schatten_partial_sums
from shiftlab.polynomials import (
    Polynomial,
    WeightScheme,
    besov_weight,
    monomial_norm_sq,
    monomial_norm_sq_exact,
)


def z(i, d=2):
    return Polynomial.variable(d, i)


def mono(*alpha):
    return Polynomial.monomial(alpha)


def free_blocks(d, sigma, n_max):
    return ShiftBlocks(
        GradedComplementBasis(HomogeneousIdeal.zero(d), WeightScheme(sigma, d), n_max)
    )


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_weight_identities():
    t0 = time.perf_counter()
    for d in (2, 3):
        w = WeightScheme(0.5, d)
        for n in range(13):
            for alpha in monomial_basis(d, n):
                exact = monomial_norm_sq_exact(alpha)
                got = monomial_norm_sq(alpha, w)
                assert got == pytest.approx(float(exact), rel=1e-13)
    for sigma in (0.5, 1.0, 1.5, 2.0, 2.5):
        for n in range(101):
            ref = math.exp(
                math.lgamma(n + 1) + math.lgamma(2 * sigma) - math.lgamma(2 * sigma + n)
            )
            assert besov_weight(n, sigma) == pytest.approx(ref, rel=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"weight identities exact/1e-12 ({elapsed:.2f}s)")


def test_criterion_2_besov_defect_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2, 3):
        for sigma in (0.5, 1.0, 1.5, 2.0):
            blocks = free_blocks(d, sigma, 31)
            for n in range(31):
                dim = blocks.basis.dim_complement(n)
                row_pred = 1.0 if n == 0 else (2 * sigma - 1) / (n + 2 * sigma - 1)
                col_pred = 1.0 - (n + d) / (n + 2 * sigma)
                R = blocks.row_defect_block(n)
                C = blocks.column_defect_block(n)
                worst = max(worst, np.abs(R - row_pred * np.eye(dim)).max())
                worst = max(worst, np.abs(C - col_pred * np.eye(dim)).max())
    assert worst < 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(2, f"defect blocks scalar, max deviation {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_3_exact_case_z1():
    blocks = free_blocks(2, 0.5, 82)
    trace = blocks.essential_norm_estimate(z(1), [(10, 50), (20, 60), (40, 80)])
    for _, _, f in trace.rows():
        assert f == pytest.approx(1.0, abs=1e-10)
    r = boundary_sup(z(1), HomogeneousIdeal.zero(2), OptimizerConfig(seed=5))
    assert r.value == pytest.approx(1.0, abs=1e-8)
    report(3, f"f grid == 1, boundary sup {r.value:.10f}")


def test_criterion_4_nontrivial_case_z1z2():
    t0 = time.perf_counter()
    r = boundary_sup(z(1) * z(2), HomogeneousIdeal.zero(2), OptimizerConfig(seed=5))
    assert r.value == pytest.approx(0.5, abs=1e-6)
    blocks = free_blocks(2, 0.5, 122)
    trace = blocks.essential_norm_estimate(
        mono(1, 1), [(10, 50), (20, 60), (40, 120)]
    )
    assert not trace.monotonicity_violations
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    # M_{z1z2} maps each degree-n monomial to one of degree n+2, so the window
    # norms have the closed form f(m, M) = sqrt((floor(m/2)+1)(ceil(m/2)+1) /
    # ((m+1)(m+2))) = 1/2 + O(1/m); f(40,120) = sqrt(441/1722) is 1.21% above
    # 1/2.  Each raw window is pinned to the enumeration oracle, and the 1%
    # band applies to the Richardson estimate of the limit.
    for (m, M), f in trace.grid.items():
        assert f == pytest.approx(monomial_window_norm((1, 1), m, M), abs=1e-10)
    est = trace.extrapolated
    assert abs(est - r.value) <= 0.01 * r.value
    assert abs(est - 0.5) <= 0.01 * 0.5
    report(4, f"boundary sup {r.value:.8f}; f(40,120) = "
              f"{trace.grid[(40, 120)]:.8f} == closed form; extrapolated "
              f"{est:.8f} within 1% of the sup; grid monotone ({elapsed:.2f}s)")


def test_criterion_5_ideal_case_two_circles():
    t0 = time.perf_counter()
    I = HomogeneousIdeal.from_generators([mono(1, 1)], 2)
    blocks = ShiftBlocks(GradedComplementBasis(I, WeightScheme(0.5, 2), 62))
    p = z(1) + z(2)
    r = boundary_sup(p, I, OptimizerConfig(seed=5))
    assert r.value == pytest.approx(1.0, abs=1e-6)
    trace = blocks.essential_norm_estimate(p, [(10, 50), (20, 60)])
    assert trace.estimate == pytest.approx(1.0, rel=0.01)
    spec = blocks.commutator_blocks(1, 2, range(2, 61))
    assert spec.block_norms().max() <= 1e-10
    spec11 = blocks.commutator_blocks(1, 1, range(2, 61))
    assert spec11.block_norms().max() <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(5, f"boundary sup {r.value:.8f}, estimate {trace.estimate:.8f}, "
              f"commutators <= 1e-10 ({elapsed:.2f}s)")


def test_criterion_6_decay_probe_z1sq():
    t0 = time.perf_counter()
    I = HomogeneousIdeal.from_generators([mono(2, 0)], 2)
    blocks = ShiftBlocks(GradedComplementBasis(I, WeightScheme(0.5, 2), 62))
    spec = blocks.commutator_blocks(1, 1, range(10, 61))
    slope = spec.decay_slope(10, 60)
    assert slope == pytest.approx(-1.0, abs=0.2)
    sums = schatten_partial_sums(spec, [1.0, 2.0], fit_range=(10, 60))
    assert sums.increment_slopes[2.0] <= -1.5
    assert sums.increment_slopes[1.0] >= -1.2
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(6, f"norm slope {slope:.3f}; increment slopes "
              f"p=2: {sums.increment_slopes[2.0]:.3f}, "
              f"p=1: {sums.increment_slopes[1.0]:.3f} ({elapsed:.2f}s)")


def test_criterion_7_character_shadow():
    I = HomogeneousIdeal.from_generators([mono(1, 1)], 2)
    p = z(1) ** 3
    msgs = []
    for sigma in (0.5, 1.0):
        blocks = ShiftBlocks(GradedComplementBasis(I, WeightScheme(sigma, 2), 64))
        res = character_check(p, [0.7, 0.0], blocks, N=60)
        assert res.discrepancy <= 1e-6
        assert abs(res.point_value) <= res.operator_norm + 1e-6
        msgs.append(f"sigma={sigma}: disc {res.discrepancy:.2e}, "
                    f"|p| {abs(res.point_value):.4f} <= ||p(S)|| {res.operator_norm:.4f}")
    report(7, "; ".join(msgs))


def test_criterion_8_aa_star_approximation():
    blocks = free_blocks(2, 0.5, 32)
    res = [blocks.aa_star_residual(1, 2, k, 30).residual for k in (1, 2, 3)]
    assert res[0] >= res[1] >= res[2]
    assert res[2] <= 0.05
    report(8, f"residuals k=1,2,3: {res[0]:.4f} >= {res[1]:.4f} >= {res[2]:.4f} <= 0.05")


def _workloads():
    z1, z2 = z(1), z(2)
    d2 = [
        [], [z1 * z2], [z1 ** 2], [z1 ** 2 + z2 ** 2], [z1 ** 2 - z2 ** 2],
        [z1 ** 3], [z1 * z2 ** 2], [z1 ** 2 * z2], [z1 * z2, z1 ** 3],
        [z1 ** 2 + 2 * z1 * z2],
    ]
    w1, w2, w3 = (Polynomial.variable(3, i) for i in (1, 2, 3))
    d3 = [
        [], [w1 * w2], [w1 * w2 * w3], [w1 ** 2 + w2 ** 2 + w3 ** 2],
        [w1 * w2, w1 * w3], [w1 ** 2], [w2 ** 3], [w1 * w2 + w2 * w3],
        [w1 ** 2 - w2 * w3], [w1 * w2 ** 2],
    ]
    out = []
    sigmas = (0.5, 1.0, 1.5, 2.0)
    for k, gens in enumerate(d2):
        out.append((2, sigmas[k % 4], gens))
    for k, gens in enumerate(d3):
        out.append((3, sigmas[(k + 2) % 4], gens))
    return out


def test_criterion_9_invariant_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250823)
    workloads = _workloads()
    assert len(workloads) == 20
    for d, sigma, gens in workloads:
        ideal = HomogeneousIdeal.from_generators(gens, d)
        blocks = ShiftBlocks(GradedComplementBasis(ideal, WeightScheme(sigma, d), 10))
        # compressions compose: S_i S_j = S_j S_i = (z_i z_j)(S) on H_n
        for n in range(9):
            for i in range(1, d + 1):
                for j in range(1, d + 1):
                    Sij = blocks.shift_block(i, n + 1) @ blocks.shift_block(j, n)
                    Sji = blocks.shift_block(j, n + 1) @ blocks.shift_block(i, n)
                    zij = Polynomial.variable(d, i) * Polynomial.variable(d, j)
                    assert np.abs(Sij - Sji).max(initial=0.0) <= 1e-12
                    assert np.abs(blocks.mult_block(zij, n) - Sij).max(initial=0.0) <= 1e-12
        assert blocks.row_contraction_excess(range(0, 10)) <= 1e-10
        if gens:
            assert blocks.generator_residual((0, 10)) <= 1e-9
        coeffs = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        p = sum((c * Polynomial.variable(d, i + 1) for i, c in enumerate(coeffs)),
                Polynomial(d, {}))
        trace = blocks.essential_norm_estimate(
            p, [(0, 8), (1, 8), (2, 8), (2, 9), (2, 10)]
        )
        assert not trace.monotonicity_violations
        lam = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        lam = 0.6 * lam / np.linalg.norm(lam)
        kv = kernel_vector(lam, sigma, 12)
        assert kv.norm_sq_truncated <= 1.0 + 1e-12
        assert kv.norm_sq_truncated >= 1.0 - kv.tail_bound - 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(9, f"20 workloads: commutation/products/row-contraction/relations/"
              f"monotonicity/kernel-norm all clean ({elapsed:.2f}s)")
