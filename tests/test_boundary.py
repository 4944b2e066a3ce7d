import math
import time

import numpy as np
import pytest

from shiftlab.boundary import (
    OptimizerConfig,
    VarietyBoundaryNotFound,
    _ascend,
    _feasible_start,
    _Problem,
    boundary_sup,
    character_check,
    kernel_vector,
)
from shiftlab.grading import GradedComplementBasis, HomogeneousIdeal
from shiftlab.operators import ShiftBlocks
from shiftlab.polynomials import (
    MatrixPolynomial,
    Polynomial,
    WeightScheme,
    as_matrix_polynomial,
)

from oracles import (
    fd_gradient,
    kernel_series_exact,
    newton_to_variety,
    sup_abs_on_sphere_grid,
)


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
        p = z(1) * z(2)
        cfg = OptimizerConfig(n_starts=8, seed=3)
        r = boundary_sup(p, HomogeneousIdeal.zero(2), cfg)
        x = _sphere_points(2, 50, 3)  # every sphere point is feasible here
        assert r.value >= np.abs(p(x[:, :2] + 1j * x[:, 2:])).max()
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
        assert res.lower_bound_slack >= -1e-12
        # the result carries the kernel vector it projected
        kv = kernel_vector([0.7, 0.0], 0.5, 36)
        assert res.kernel.normalization == kv.normalization
        assert res.kernel.tail_bound == kv.tail_bound

    def test_infeasible_point_rejected(self, blocks):
        with pytest.raises(ValueError):
            character_check(z(1), [0.5, 0.5], blocks, N=10)


class TestConvergenceReport:
    def test_free_coordinate_all_stationary(self):
        r = boundary_sup(z(1), HomogeneousIdeal.zero(2), FAST)
        assert r.n_stationary == r.n_starts == 16
        assert r.worst_feasibility_residual <= 1e-10

    def test_iteration_cap_reported(self):
        cfg = OptimizerConfig(n_starts=16, seed=11, max_iter=5)
        r = boundary_sup(z(1), HomogeneousIdeal.zero(2), cfg)
        assert r.n_stationary == 0 and r.n_converged == 16

    def test_iterates_feasible_with_generator(self):
        # every iterate is retracted onto V, so even a capped run is feasible
        I = HomogeneousIdeal.from_generators([z(1) * z(2)], 2)
        cfg = OptimizerConfig(n_starts=8, seed=11, max_iter=5)
        r = boundary_sup(z(1) + z(2), I, cfg)
        assert r.n_converged == 8
        assert r.worst_feasibility_residual <= 1e-10


def _sphere_points(d, count, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, 2 * d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _penalized_objective(p, ideal, rho):
    """The penalized objective as the finite-difference ascent evaluated it;
    rho = 0 gives the objective boundary_sup ascends."""
    p = as_matrix_polynomial(p)

    def fun(x):
        d = len(x) // 2
        zz = x[:d] + 1j * x[d:]
        return p.sup_eval(zz) - rho * sum(abs(g(zz)) ** 2 for g in ideal.generators)

    return fun


class TestAnalyticGradient:
    def check(self, p, ideal, points):
        prob = _Problem(as_matrix_polynomial(p), ideal)
        fun = _penalized_objective(p, ideal, 0.0)
        for x in points:
            exact = prob.gradient(x[None])[0]
            fd = fd_gradient(fun, x)
            assert np.linalg.norm(exact - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_scalar(self):
        p = z(1, 3) ** 2 * z(2, 3) + 2j * z(3, 3) - z(1, 3) * z(3, 3)
        self.check(p, HomogeneousIdeal.zero(3), _sphere_points(3, 20, 1))

    def test_matrix_simple_top_singular_value(self):
        P = MatrixPolynomial([[z(1), z(2)], [z(2) * z(1), z(1) ** 2 - 1j * z(2)]])
        points = [
            x for x in _sphere_points(2, 40, 2)
            if -np.diff(np.linalg.svd(P(x[:2] + 1j * x[2:]), compute_uv=False)) > 1e-2
        ]
        assert len(points) >= 20
        self.check(P, HomogeneousIdeal.zero(2), points)

    def test_penalized_with_generator(self):
        # the generator adds no term: the objective is sigma_1(P) alone
        w1, w2, w3 = (z(i, 3) for i in (1, 2, 3))
        ideal = HomogeneousIdeal.from_generators([w1**2 + w2**2 + w3**2], 3)
        self.check(w1 * w2, ideal, _sphere_points(3, 20, 3))

    def test_tangent_projection(self):
        # at points of the quadric the tangent part of a vector is orthogonal
        # to x and to the finite-difference gradients of Re g and Im g, and
        # differs from the vector by a combination of those normals
        w1, w2, w3 = (z(i, 3) for i in (1, 2, 3))
        g = w1**2 + (0.5 - 0.3j) * w2 * w3
        ideal = HomogeneousIdeal.from_generators([g], 3)
        prob = _Problem(as_matrix_polynomial(w1), ideal)
        rng = np.random.default_rng(5)
        for _ in range(10):
            zz = _feasible_start(prob, rng, FAST)
            x = np.concatenate([zz.real, zz.imag])
            N = np.array([x] + [fd_gradient(lambda y, part=part: part(g(y[:3] + 1j * y[3:])), x)
                                for part in (np.real, np.imag)])
            v = rng.standard_normal(6)
            t = prob.tangent(x[None], v[None])[0]
            assert np.abs(N @ t).max() <= 1e-8
            coef, *_ = np.linalg.lstsq(N.T, v - t, rcond=None)
            assert np.linalg.norm(N.T @ coef - (v - t)) <= 1e-8

    def test_tangent_at_singular_point(self):
        # at e1 every partial derivative of w1 w2 w3 vanishes, so only x is
        # normal and the projection is the sphere's
        w1, w2, w3 = (z(i, 3) for i in (1, 2, 3))
        prob = _Problem(as_matrix_polynomial(w1), HomogeneousIdeal.from_generators([w1 * w2 * w3], 3))
        x = np.array([1.0, 0, 0, 0, 0, 0])
        v = np.random.default_rng(6).standard_normal(6)
        t = prob.tangent(x[None], v[None])[0]
        assert np.abs(t - (v - (v @ x) * x)).max() <= 1e-15


# the penalty ascent's own schedule: rho = 10, 100, ..., 1e5, and its grad_tol
RHO_INITIAL, RHO_FACTOR, RHO_STAGES, FD_GRAD_TOL = 10.0, 10.0, 5, 1e-9


def _fd_ascent_sup(p, ideal, cfg, h=1e-6):
    """The maximum as the penalized finite-difference ascent computed it: the
    same starts, each stepped alone with a central-difference gradient of
    sigma_1(P) - rho sum |g|^2 through the penalty stages, then polished onto
    the variety by single-point Gauss-Newton."""
    p = as_matrix_polynomial(p)
    prob = _Problem(p, ideal)
    rng = np.random.default_rng(cfg.seed)
    starts = []
    attempts = 0
    while len(starts) < cfg.n_starts and attempts < 10 * cfg.n_starts:
        attempts += 1
        z0 = _feasible_start(prob, rng, cfg)
        if z0 is not None:
            starts.append(z0)
    best = -np.inf
    for z0 in starts:
        d = len(z0)
        x = np.concatenate([z0.real, z0.imag])
        x = x / np.linalg.norm(x)
        rho = RHO_INITIAL
        for _stage in range(RHO_STAGES if ideal.generators else 1):
            fun = _penalized_objective(p, ideal, rho if ideal.generators else 0.0)
            step = cfg.step_initial
            f = fun(x)
            for _ in range(cfg.max_iter):
                g = fd_gradient(fun, x, h)
                g_tan = g - (g @ x) * x
                if np.linalg.norm(g_tan) <= FD_GRAD_TOL * max(1.0, abs(f)):
                    break
                x_new = x + step * g_tan
                x_new = x_new / np.linalg.norm(x_new)
                f_new = fun(x_new)
                if f_new > f:
                    x, f = x_new, f_new
                    step = min(step * 1.2, 1.0)
                else:
                    step *= 0.5
                    if step < 1e-14:
                        break
            rho *= RHO_FACTOR
        zz = x[:d] + 1j * x[d:]
        z_pol = newton_to_variety(ideal, zz, cfg.newton_iters, cfg.newton_tol)
        if z_pol is not None:
            zz = z_pol / np.linalg.norm(z_pol)
        feasible = (abs(np.linalg.norm(zz) ** 2 - 1.0) <= cfg.feasibility_tol
                    and ideal.residual_at(zz) <= cfg.feasibility_tol)
        if feasible:
            best = max(best, p.sup_eval(zz))
    return best


class TestOldAndNewAscent:
    @pytest.mark.parametrize("case", ["z1", "z1z2", "two-circles", "grid-oracle"])
    def test_maxima_agree_with_finite_differences(self, case):
        free = HomogeneousIdeal.zero(2)
        p, ideal = {
            "z1": (z(1), free),
            "z1z2": (z(1) * z(2), free),
            "two-circles": (z(1) + z(2), HomogeneousIdeal.from_generators([z(1) * z(2)], 2)),
            "grid-oracle": (z(1) ** 2 + 2 * z(1) * z(2), free),
        }[case]
        new = boundary_sup(p, ideal, FAST).value
        assert new == pytest.approx(_fd_ascent_sup(p, ideal, FAST), abs=1e-8)

    @pytest.mark.parametrize("case", ["two-circles", "matrix", "generic-d3"])
    def test_start_alone_matches_batch(self, case):
        cfg = FAST
        if case == "two-circles":
            p = as_matrix_polynomial(z(1) + z(2))
            ideal = HomogeneousIdeal.from_generators([z(1) * z(2)], 2)
        elif case == "matrix":
            p = MatrixPolynomial([[z(1), z(2)], [z(2) * z(1), z(1) ** 2]])
            ideal = HomogeneousIdeal.zero(2)
        else:
            # complex coefficients, so that no product is exact
            w1, w2, w3 = (z(i, 3) for i in (1, 2, 3))
            p = as_matrix_polynomial((0.7 + 0.2j) * w1 * w2 - 1.3j * w3 + 0.4 * w1**2)
            ideal = HomogeneousIdeal.from_generators([w1**2 + (0.5 - 0.3j) * w2 * w3], 3)
            cfg = OptimizerConfig(n_starts=8, seed=11, max_iter=60)
        prob = _Problem(p, ideal)
        rng = np.random.default_rng(4)
        starts = np.array([_feasible_start(prob, rng, cfg) for _ in range(8)])
        points, stationary = _ascend(prob, starts, cfg)
        for k in range(len(starts)):
            alone, alone_stationary = _ascend(prob, starts[k:k + 1], cfg)
            assert np.array_equal(alone[0], points[k])
            assert alone_stationary[0] == stationary[k]


W1, W2, W3 = (z(i, 3) for i in (1, 2, 3))
QUADRIC = HomogeneousIdeal.from_generators([W1**2 + W2**2 + W3**2], 3)
NORMAL_CROSSING = HomogeneousIdeal.from_generators([W1 * W2 * W3], 3)


class TestAscentOnVarietySphere:
    @pytest.mark.parametrize("seed", range(10))
    def test_w1w2_on_quadric(self, seed):
        r = boundary_sup(W1 * W2, QUADRIC, OptimizerConfig(n_starts=8, seed=seed))
        assert abs(r.value - 0.5) <= 1e-12
        assert r.n_stationary == r.n_starts == 8
        assert r.worst_feasibility_residual <= 1e-10

    def test_inhomogeneous_on_quadric(self):
        # |p| = 3/4 + 1/sqrt 2 at this point of the quadric's sphere, its sup
        p = 0.5 + W1 + W2 * W3
        w_star = np.array([1 / math.sqrt(2), -0.5j, 0.5j])
        assert QUADRIC.residual_at(w_star) <= 1e-15
        assert np.linalg.norm(w_star) == pytest.approx(1.0, abs=1e-15)
        r = boundary_sup(p, QUADRIC, OptimizerConfig(n_starts=8, seed=0))
        assert r.value >= abs(p(w_star)) - 1e-12

    def test_maximum_at_singular_point(self):
        # |w1| on V(w1 w2 w3) peaks at e1, where the generator's gradient vanishes
        r = boundary_sup(W1, NORMAL_CROSSING, OptimizerConfig(n_starts=8, seed=0))
        assert abs(r.value - 1.0) <= 1e-12
        assert r.n_stationary == r.n_starts

    @pytest.mark.parametrize("seed", range(10))
    def test_component_reached_with_default_starts(self, seed):
        # |w1 w2| vanishes on the planes w1 = 0 and w2 = 0 and peaks at 1/2 on
        # w3 = 0; a start stays on its plane, so one must land on w3 = 0
        r = boundary_sup(W1 * W2, NORMAL_CROSSING, OptimizerConfig(seed=seed))
        assert r.n_starts == 64
        assert abs(r.value - 0.5) <= 1e-12

    def test_demo_sup(self):
        # the demo's essnorm sup: z1 + z2 on the two circles of (z1 z2)
        I = HomogeneousIdeal.from_generators([z(1) * z(2)], 2)
        r = boundary_sup(z(1) + z(2), I, OptimizerConfig(n_starts=32, seed=42))
        assert abs(r.value - 1.0) <= 1e-10
        assert r.n_basins == 2
        assert r.n_stationary == r.n_starts == 32
