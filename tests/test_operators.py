import math

import numpy as np
import pytest

from shiftlab.boundary import character_check, kernel_vector
from shiftlab.grading import GradedComplementBasis, HomogeneousIdeal, monomial_basis
from shiftlab.operators import (
    ShiftBlocks,
    default_window_schedule,
    operator_norm,
    schatten_partial_sums,
)
from shiftlab.polynomials import MatrixPolynomial, Polynomial, WeightScheme


def mono(*alpha):
    return Polynomial.monomial(alpha)


def z(i, d=2):
    return Polynomial.variable(d, i)


def make_blocks(gens, d=2, sigma=0.5, n_max=12):
    ideal = HomogeneousIdeal.from_generators(gens, d)
    return ShiftBlocks(GradedComplementBasis(ideal, WeightScheme(sigma, d), n_max))


@pytest.fixture(scope="module")
def free_blocks():
    return make_blocks([], n_max=20)


@pytest.fixture(scope="module")
def z1z2_blocks():
    return make_blocks([mono(1, 1)], n_max=20)


class TestShiftBlock:
    def test_constant_to_z1(self, free_blocks):
        B = free_blocks.shift_block(1, 0)
        assert B[0, 0] == pytest.approx(1.0)
        assert np.abs(B[1:]).max() == 0

    def test_z2_to_z1z2_coefficient(self, free_blocks):
        # ratio of monomial norms ||z1 z2|| / ||z2|| = 1/sqrt(2)
        B = free_blocks.shift_block(1, 1)
        col = B[:, 1]  # z2 direction (graded-lex puts z1 first)
        assert np.abs(col).max() == pytest.approx(1 / math.sqrt(2), rel=1e-14)

    def test_s2_annihilates_pure_z1_direction(self, z1z2_blocks):
        basis = z1z2_blocks.basis
        for n in range(1, 6):
            x = basis.project_to_complement(mono(n, 0), n)
            B = z1z2_blocks.shift_block(2, n)
            assert np.linalg.norm(B @ x) < 1e-12

    def test_out_of_range_degree(self, free_blocks):
        with pytest.raises(IndexError):
            free_blocks.shift_block(1, free_blocks.n_max)

    def test_bad_coordinate(self, free_blocks):
        with pytest.raises(ValueError):
            free_blocks.shift_block(3, 0)


class TestDefectBlocks:
    def test_row_defect_zero_for_drury_arveson(self, free_blocks):
        for n in range(1, 8):
            R = free_blocks.row_defect_block(n)
            assert np.abs(R).max() < 1e-12

    def test_degree_zero_is_scalar_one(self, z1z2_blocks):
        R = z1z2_blocks.row_defect_block(0)
        assert R.shape == (1, 1) and R[0, 0] == pytest.approx(1.0)

    def test_row_defect_sigma_one(self):
        blocks = make_blocks([], sigma=1.0, n_max=6)
        R = blocks.row_defect_block(4)
        assert np.abs(R - 0.2 * np.eye(5)).max() < 1e-12

    def test_column_defect_sigma_half(self, free_blocks):
        C = free_blocks.column_defect_block(1)
        assert np.abs(C + 0.5 * np.eye(2)).max() < 1e-12

    def test_column_defect_hardy_exact_zero(self):
        # sigma = d/2 makes (n+d)/(n+2 sigma) = 1, so the defect vanishes
        blocks = make_blocks([], sigma=1.0, n_max=40)
        for n in (0, 10, 39):
            assert np.abs(blocks.column_defect_block(n)).max() < 1e-12

    def test_column_defect_decays_like_one_over_n(self):
        # away from sigma = d/2 the scalar is (2 sigma - d)/(n + 2 sigma)
        blocks = make_blocks([], sigma=2.0, n_max=40)
        vals = [np.abs(blocks.column_defect_block(n)).max() for n in (10, 20, 39)]
        assert vals[0] > vals[1] > vals[2]
        for n, v in zip((10, 20, 39), vals):
            assert v == pytest.approx(2.0 / (n + 4), rel=1e-10)

    def test_column_defect_two_routes_agree(self, z1z2_blocks):
        # direct enumeration on the 2-dimensional complement at degree 3:
        # basis directions are the normalized pure powers, and S_i acts as a
        # unit-weight shift on its own power chain for sigma = 1/2
        C = z1z2_blocks.column_defect_block(3)
        assert np.abs(C - 0.0 * np.eye(2)).max() < 1e-12


class TestAssembly:
    def test_identity(self, free_blocks):
        one = Polynomial.constant(2, 1.0)
        t = free_blocks.assemble_polynomial(one, (0, 5))
        D = sum(free_blocks.basis.dim_complement(n) for n in range(6))
        assert np.abs(t.dense() - np.eye(D)).max() == 0

    def test_z1_band_structure(self, free_blocks):
        t = free_blocks.assemble_polynomial(z(1), (0, 6))
        X = t.dense()
        for n in range(0, 7):
            for n2 in range(0, 7):
                ro, rd = t.degree_offsets[n], t.degree_dims[n]
                co, cd = t.degree_offsets[n2], t.degree_dims[n2]
                blk = X[ro:ro + rd, co:co + cd]
                if n == n2 + 1:
                    ref = free_blocks.shift_block(1, n2)
                    assert np.abs(blk - ref).max() < 1e-14
                else:
                    assert np.abs(blk).max() == 0

    def test_generator_gives_zero_operator(self, z1z2_blocks):
        t = z1z2_blocks.assemble_polynomial(mono(1, 1), (0, 10))
        assert operator_norm(t) < 1e-12

    def test_matrix_polynomial_tensoring(self, free_blocks):
        p = MatrixPolynomial([[z(1), Polynomial.constant(2, 0.0)],
                              [Polynomial.constant(2, 0.0), z(1)]])
        t = free_blocks.assemble_polynomial(p, (0, 6))
        assert operator_norm(t) == pytest.approx(1.0, abs=1e-10)

    def test_window_validation(self, free_blocks):
        with pytest.raises(IndexError):
            free_blocks.assemble_polynomial(z(1), (0, free_blocks.n_max + 1))

    def test_narrow_window_warns(self, free_blocks):
        with pytest.warns(UserWarning):
            free_blocks.assemble_polynomial(z(1) ** 4, (0, 2))


class TestOperatorNorm:
    def test_zero(self, z1z2_blocks):
        t = z1z2_blocks.assemble_polynomial(mono(1, 1), (0, 8))
        assert operator_norm(t) == pytest.approx(0.0, abs=1e-12)

    def test_z1_any_window_is_one(self, free_blocks):
        for window in ((0, 6), (3, 10), (5, 15)):
            t = free_blocks.assemble_polynomial(z(1), window)
            assert operator_norm(t) == pytest.approx(1.0, abs=1e-12)

    def test_dense_and_iterative_agree(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((80, 60)) + 1j * rng.standard_normal((80, 60))
        import scipy.sparse as sp

        dense = float(np.linalg.norm(A, 2))
        import shiftlab.operators as ops

        old = ops.DENSE_NORM_CUTOFF
        ops.DENSE_NORM_CUTOFF = 10
        try:
            assert operator_norm(sp.csr_matrix(A)) == pytest.approx(dense, rel=1e-8)
        finally:
            ops.DENSE_NORM_CUTOFF = old


class TestEssentialNorm:
    def test_z1_grid_is_one(self, free_blocks):
        tr = free_blocks.essential_norm_estimate(z(1), [(0, 8), (2, 10), (4, 14)])
        for _, _, f in tr.rows():
            assert f == pytest.approx(1.0, abs=1e-10)
        assert tr.estimate == pytest.approx(1.0, abs=1e-10)
        assert not tr.monotonicity_violations

    def test_z1z2_decreases_toward_half(self):
        blocks = make_blocks([], n_max=44)
        tr = blocks.essential_norm_estimate(mono(1, 1), [(4, 24), (9, 29), (14, 34)])
        fs = [f for _, _, f in tr.rows()]
        assert fs[0] > fs[1] > fs[2] > 0.5
        assert not tr.monotonicity_violations
        assert tr.extrapolated == pytest.approx(0.5, abs=0.01)

    def test_generator_polynomial_estimates_zero(self, z1z2_blocks):
        tr = z1z2_blocks.essential_norm_estimate(mono(1, 1), [(0, 10), (2, 12)])
        assert tr.estimate == pytest.approx(0.0, abs=1e-12)

    def test_window_precondition(self, free_blocks):
        with pytest.raises(ValueError):
            free_blocks.essential_norm_estimate(z(1) ** 3, [(0, 4)])

    def test_default_schedule(self):
        sched = default_window_schedule(1, 60)
        assert sched == [(10, 50), (20, 60)]
        assert default_window_schedule(1, 120) == [(10, 50), (20, 60), (40, 80)]


class TestCommutators:
    def test_free_n0_value_one(self, free_blocks):
        spec = free_blocks.commutator_blocks(1, 1, [0])
        assert spec.block_norm(0) == pytest.approx(1.0, abs=1e-14)

    def test_z1z2_cross_pair_vanishes(self, z1z2_blocks):
        spec = z1z2_blocks.commutator_blocks(1, 2, range(2, 15))
        assert spec.block_norms().max() < 1e-10

    def test_free_diagonal_decay(self):
        blocks = make_blocks([], n_max=62)
        spec = blocks.commutator_blocks(1, 1, range(10, 61))
        slope = spec.decay_slope(10, 60)
        assert slope == pytest.approx(-1.0, abs=0.2)

    def test_block_matches_assembled_commutator(self, free_blocks, z1z2_blocks):
        # S_i S_j* - S_j* S_i assembled on degrees 0..10; its degree-n block
        # is exact for n <= 9, where S_i H_n still lies inside the window
        for blocks in (free_blocks, z1z2_blocks):
            t = {i: blocks.assemble_polynomial(z(i), (0, 10)) for i in (1, 2)}
            for i, j in ((1, 1), (1, 2), (2, 1)):
                Ai, Aj = t[i].dense(), t[j].dense()
                X = Ai @ Aj.conj().T - Aj.conj().T @ Ai
                for n in range(10):
                    o, k = t[i].degree_offsets[n], t[i].degree_dims[n]
                    C = blocks.commutator_block(i, j, n)
                    assert np.abs(C - X[o:o + k, o:o + k]).max() <= 1e-12


class TestSchatten:
    def test_zero_spectrum(self, z1z2_blocks):
        spec = z1z2_blocks.commutator_blocks(1, 2, range(2, 12))
        sums = schatten_partial_sums(spec, [1.0, 2.0])
        for p in (1.0, 2.0):
            assert np.all(sums.partial_sums[p] < 1e-12)

    def test_z1sq_ideal_slopes(self):
        blocks = make_blocks([mono(2, 0)], n_max=62)
        spec = blocks.commutator_blocks(1, 1, range(1, 61))
        sums = schatten_partial_sums(spec, [1.0, 2.0], fit_range=(20, 60))
        assert sums.increment_slopes[2.0] <= -1.5
        assert sums.increment_slopes[1.0] >= -1.2

    def test_free_summability_contrast(self):
        blocks = make_blocks([], n_max=62)
        spec = blocks.commutator_blocks(1, 1, range(1, 61))
        sums = schatten_partial_sums(spec, [1.0, 3.0], fit_range=(20, 60))
        assert sums.increment_slopes[3.0] < -1.0  # summable trend at p = d + 1
        assert sums.increment_slopes[1.0] >= -1.0  # non-summable trend at p = 1

    def test_exponent_validation(self, free_blocks):
        spec = free_blocks.commutator_blocks(1, 1, [1])
        with pytest.raises(ValueError):
            schatten_partial_sums(spec, [0.0])


class TestAAStar:
    def test_target_in_dictionary(self, free_blocks):
        # S1 S1* is itself a dictionary element at k = 1
        r = free_blocks.aa_star_residual(1, 1, 1, 12, target="product_adjoint")
        assert r.residual < 1e-12

    def test_residual_decreases_in_k(self):
        blocks = make_blocks([], n_max=32)
        res = [blocks.aa_star_residual(1, 1, k, 30).residual for k in (1, 2, 3)]
        assert res[0] >= res[1] >= res[2]

    def test_finite_rank_ideal_small_residual(self, z1z2_blocks):
        r = z1z2_blocks.aa_star_residual(1, 1, 2, 20)
        assert r.residual <= 1e-6

    def test_preconditions(self, free_blocks):
        with pytest.raises(ValueError):
            free_blocks.aa_star_residual(1, 1, 0, 10)
        with pytest.raises(ValueError):
            free_blocks.aa_star_residual(1, 1, 4, 8)


class TestStructuralInvariants:
    def test_product_rule(self, z1z2_blocks):
        # p(S) q(S) = (pq)(S) on the source degrees n <= 12 - deg q, where
        # q(S) H_n stays inside the assembled window
        p = 1.0 + z(1) - 2j * z(2) ** 2
        q = 0.5 * z(2) + z(1) ** 2 - z(1) * z(2) ** 2
        window = (0, 12)
        tp = z1z2_blocks.assemble_polynomial(p, window).dense()
        tq = z1z2_blocks.assemble_polynomial(q, window).dense()
        tpq = z1z2_blocks.assemble_polynomial(p * q, window)
        n = 12 - q.degree
        stop = tpq.degree_offsets[n] + tpq.degree_dims[n]
        assert np.abs((tp @ tq)[:, :stop] - tpq.dense()[:, :stop]).max() <= 1e-12

    def test_row_contraction(self, z1z2_blocks):
        assert z1z2_blocks.row_contraction_excess(range(0, 12)) <= 1e-10

    def test_generator_residual(self, z1z2_blocks):
        assert z1z2_blocks.generator_residual((0, 12)) <= 1e-9

    def test_compressions_commute(self, z1z2_blocks):
        # S1 S2 - S2 S1 assembled on an inner window
        p = mono(1, 0)
        q = mono(0, 1)
        t1 = z1z2_blocks.assemble_polynomial(p, (0, 12)).dense()
        t2 = z1z2_blocks.assemble_polynomial(q, (0, 12)).dense()
        comm = t1 @ t2 - t2 @ t1
        # drop the top two degrees where truncation bites
        t = z1z2_blocks.assemble_polynomial(p, (0, 12))
        stop = t.degree_offsets[10] + t.degree_dims[10]
        assert np.abs(comm[:stop, :stop]).max() <= 1e-10


class TestBlockwiseAgreesWithAssembled:
    """The per-degree computations against the assembled windows they replace."""

    def test_window_norm_homogeneous_scalar(self, free_blocks, z1z2_blocks):
        cases = [(free_blocks, mono(1, 1)), (z1z2_blocks, z(1) + z(2)),
                 (z1z2_blocks, 2j * z(1) ** 3 - z(2) ** 3)]
        for blocks, p in cases:
            for window in ((0, 8), (3, 12), (6, 20), (10, 17)):
                ref = operator_norm(blocks.assemble_polynomial(p, window))
                assert blocks.window_norm(p, window) == pytest.approx(ref, abs=1e-12)

    def test_window_norm_homogeneous_matrix(self, z1z2_blocks):
        zero = Polynomial.constant(2, 0.0)
        p = MatrixPolynomial([[z(1), 2 * z(2), zero],
                              [zero, z(1) - 1j * z(2), 0.5 * z(2)]])
        for window in ((0, 6), (2, 14), (9, 20)):
            ref = operator_norm(z1z2_blocks.assemble_polynomial(p, window))
            got = z1z2_blocks.window_norm(p, window)
            assert got == pytest.approx(ref, abs=1e-12)
            assert got > 0.5

    @pytest.mark.parametrize("k", [1, 2])
    def test_aa_star_matches_full_dictionary_fit(self, free_blocks, k):
        # the fit before the graded dictionary: every word S^mu (S^nu)* with
        # |mu|, |nu| <= k, on the assembled window [0, M] trimmed to [k, M-k]
        M = 14
        A = {mu: free_blocks.assemble_polynomial(mono(*mu), (0, M))
             for deg in range(k + 1) for mu in monomial_basis(2, deg)}
        any_t = A[(0, 0)]
        lo = any_t.degree_offsets[k]
        hi = any_t.degree_offsets[M - k] + any_t.degree_dims[M - k]

        def trim(mat):
            return mat.toarray()[lo:hi, lo:hi]

        T1, T2 = A[(1, 0)].matrix, A[(0, 1)].matrix
        target = trim(T1.conj().T @ T2).ravel()
        D = np.column_stack([trim(A[mu].matrix @ A[nu].matrix.conj().T).ravel()
                             for mu in sorted(A) for nu in sorted(A)])
        coeffs, *_ = np.linalg.lstsq(D, target, rcond=None)
        ref = np.linalg.norm(target - D @ coeffs) / np.linalg.norm(target)
        r = free_blocks.aa_star_residual(1, 2, k, M)
        assert D.shape[1] == {1: 9, 2: 36}[k]
        assert r.dictionary_size == {1: 5, 2: 14}[k]
        assert r.residual == pytest.approx(ref, abs=1e-12)

    def test_character_state_matches_assembled(self):
        blocks = make_blocks([mono(1, 1)], n_max=34)
        lam, N = np.array([0.7, 0.0]), 30
        kv = kernel_vector(lam, 0.5, N)
        basis = blocks.basis
        v = np.concatenate([
            basis.complement_basis(n).conj().T
            @ kv.weighted_coords(n, basis.sqrt_weights(n))
            for n in range(N + 1)
        ])
        for p in (z(1) ** 3, 0.3 + z(1) ** 3 - 2j * z(1) + z(1) * z(1)):
            t = blocks.assemble_polynomial(p, (0, N))
            res = character_check(p, lam, blocks, N=N)
            ref = np.vdot(v, t.matrix @ v)
            assert abs(res.vector_state_value - ref) <= 1e-12
            assert res.operator_norm == pytest.approx(operator_norm(t), abs=1e-12)
