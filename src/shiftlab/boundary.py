"""Boundary maximization on the variety sphere and kernel-vector states.

boundary_sup maximizes the largest singular value of an evaluated matrix
polynomial over points of the variety on the unit sphere, by penalized
projected gradient ascent with multistart.  kernel_vector builds the
normalized reproducing vector at an interior point; character_check compares
the induced vector state against plain point evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grading import HomogeneousIdeal, monomial_basis, monomial_weights
from .operators import ShiftBlocks
from .polynomials import MatrixPolynomial, Polynomial, as_matrix_polynomial

__all__ = [
    "OptimizerConfig",
    "BoundaryMaxResult",
    "KernelVector",
    "CharacterCheckResult",
    "boundary_sup",
    "kernel_vector",
    "character_check",
]


class VarietyBoundaryNotFound(RuntimeError):
    """No feasible point of the variety was located on the unit sphere."""


@dataclass(frozen=True)
class OptimizerConfig:
    n_starts: int = 64
    penalty_initial: float = 10.0
    penalty_factor: float = 10.0
    penalty_stages: int = 5
    max_iter: int = 300
    step_initial: float = 0.1
    grad_tol: float = 1e-9
    fd_step: float = 1e-6
    newton_iters: int = 60
    newton_tol: float = 1e-12
    feasibility_tol: float = 1e-8
    seed: int = 0
    basin_tol: float = 1e-3
    fallback_grid: int = 0  # extra plain feasible samples, 0 disables


@dataclass
class BoundaryMaxResult:
    point: np.ndarray
    value: float
    sphere_residual: float
    ideal_residual: float
    n_starts: int
    n_converged: int
    n_basins: int
    start_values: list[float] = field(default_factory=list)


def _random_sphere_point(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def _newton_to_variety(
    ideal: HomogeneousIdeal, z0: np.ndarray, cfg: OptimizerConfig
) -> np.ndarray | None:
    """Gauss-Newton on the generator system; returns a nonzero root or None."""
    gens = ideal.generators
    if not gens:
        return z0.copy()
    z = z0.astype(complex).copy()
    for _ in range(cfg.newton_iters):
        g = np.array([p(z) for p in gens])
        if np.max(np.abs(g)) <= cfg.newton_tol:
            break
        J = np.array(
            [[p.derivative(i)(z) for i in range(1, ideal.d + 1)] for p in gens]
        )
        step, *_ = np.linalg.lstsq(J, -g, rcond=None)
        if not np.all(np.isfinite(step)):
            return None
        z = z + step
    if np.max(np.abs([p(z) for p in gens])) > 1e-10:
        return None
    if np.linalg.norm(z) < 1e-8:
        return None
    return z


def _feasible_start(
    ideal: HomogeneousIdeal, rng: np.random.Generator, cfg: OptimizerConfig
) -> np.ndarray | None:
    for _ in range(20):
        z = _newton_to_variety(ideal, _random_sphere_point(ideal.d, rng), cfg)
        if z is not None:
            z = z / np.linalg.norm(z)  # homogeneity keeps the point on the variety
            if ideal.residual_at(z) <= 1e-8:
                return z
    return None


def _penalized_objective(p: MatrixPolynomial, ideal: HomogeneousIdeal, rho: float):
    gens = ideal.generators

    def fun(x: np.ndarray) -> float:
        z = x[: len(x) // 2] + 1j * x[len(x) // 2:]
        val = p.sup_eval(z)
        for g in gens:
            val -= rho * abs(g(z)) ** 2
        return val

    return fun


def _fd_gradient(fun, x: np.ndarray, h: float) -> np.ndarray:
    g = np.zeros_like(x)
    for k in range(len(x)):
        xp = x.copy()
        xp[k] += h
        xm = x.copy()
        xm[k] -= h
        g[k] = (fun(xp) - fun(xm)) / (2 * h)
    return g


def _project_sphere(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x)


def _ascend(
    p: MatrixPolynomial,
    ideal: HomogeneousIdeal,
    z0: np.ndarray,
    cfg: OptimizerConfig,
) -> np.ndarray:
    d = len(z0)
    x = np.concatenate([z0.real, z0.imag])
    x = _project_sphere(x)
    rho = cfg.penalty_initial
    for _stage in range(cfg.penalty_stages if ideal.generators else 1):
        fun = _penalized_objective(p, ideal, rho if ideal.generators else 0.0)
        step = cfg.step_initial
        f = fun(x)
        for _ in range(cfg.max_iter):
            g = _fd_gradient(fun, x, cfg.fd_step)
            g_tan = g - (g @ x) * x  # tangential component on the sphere
            gn = np.linalg.norm(g_tan)
            if gn <= cfg.grad_tol * max(1.0, abs(f)):
                break
            x_new = _project_sphere(x + step * g_tan)
            f_new = fun(x_new)
            if f_new > f:
                x, f = x_new, f_new
                step = min(step * 1.2, 1.0)
            else:
                step *= 0.5
                if step < 1e-14:
                    break
        rho *= cfg.penalty_factor
    z = x[:d] + 1j * x[d:]
    # polish back onto the variety sphere before reporting
    z_pol = _newton_to_variety(ideal, z, cfg)
    if z_pol is not None:
        z = z_pol / np.linalg.norm(z_pol)
    return z


def _canonical_phase(z: np.ndarray) -> np.ndarray:
    for zi in z:
        if abs(zi) > 1e-6:
            return z * np.exp(-1j * np.angle(zi))
    return z


def _count_basins(points: list[np.ndarray], tol: float) -> int:
    reps: list[np.ndarray] = []
    for z in points:
        zc = _canonical_phase(z)
        if all(np.linalg.norm(zc - r) > tol for r in reps):
            reps.append(zc)
    return len(reps)


def boundary_sup(
    p, ideal: HomogeneousIdeal, cfg: OptimizerConfig | None = None
) -> BoundaryMaxResult:
    """sup over the variety sphere of the largest singular value of p(z)."""
    p = as_matrix_polynomial(p)
    if p.is_zero:
        raise ValueError("zero polynomial has no boundary maximizer")
    if p.d != ideal.d:
        raise ValueError("polynomial / ideal dimension mismatch")
    cfg = cfg or OptimizerConfig()
    rng = np.random.default_rng(cfg.seed)

    starts = []
    attempts = 0
    while len(starts) < cfg.n_starts and attempts < 10 * cfg.n_starts:
        attempts += 1
        z = _feasible_start(ideal, rng, cfg)
        if z is not None:
            starts.append(z)
    if not starts:
        raise VarietyBoundaryNotFound(
            "no feasible start found: the variety may not meet the sphere"
        )

    results = []
    for z0 in starts:
        z = _ascend(p, ideal, z0, cfg)
        sphere_res = abs(np.linalg.norm(z) ** 2 - 1.0)
        ideal_res = ideal.residual_at(z)
        val = p.sup_eval(z)
        ok = sphere_res <= cfg.feasibility_tol and ideal_res <= cfg.feasibility_tol
        results.append((ok, val, z, sphere_res, ideal_res))

    converged = [r for r in results if r[0]]
    if not converged:
        raise VarietyBoundaryNotFound(
            "no multistart converged to a feasible boundary point"
        )
    # deterministic winner: max value, lexicographic tie-break on coordinates
    converged.sort(
        key=lambda r: (-r[1], tuple(np.round(np.concatenate([r[2].real, r[2].imag]), 9)))
    )
    best_ok, best_val, best_z, best_sres, best_ires = converged[0]

    # optional plain sampling safety net: the report must dominate every sample
    if cfg.fallback_grid > 0:
        for _ in range(cfg.fallback_grid):
            z = _feasible_start(ideal, rng, cfg)
            if z is None:
                continue
            val = p.sup_eval(z)
            if val > best_val:
                best_val, best_z = val, z
                best_sres = abs(np.linalg.norm(z) ** 2 - 1.0)
                best_ires = ideal.residual_at(z)

    basins = _count_basins([r[2] for r in converged], cfg.basin_tol)
    return BoundaryMaxResult(
        point=best_z,
        value=float(best_val),
        sphere_residual=float(best_sres),
        ideal_residual=float(best_ires),
        n_starts=len(starts),
        n_converged=len(converged),
        n_basins=basins,
        start_values=[float(r[1]) for r in results],
    )


@dataclass
class KernelVector:
    """Truncated normalized reproducing vector at an interior point."""

    point: np.ndarray
    sigma: float
    truncation_degree: int
    coefficients: list[np.ndarray]  # per degree, monomial order
    normalization: float  # C_lambda
    norm_sq_truncated: float
    tail_bound: float

    @property
    def d(self) -> int:
        return len(self.point)

    def weighted_coords(self, n: int, sqrt_weights: np.ndarray) -> np.ndarray:
        return self.coefficients[n] * sqrt_weights


def kernel_vector(lam, sigma: float, N: int) -> KernelVector:
    # imported here, not at module level: scipy.special adds about 65 ms and
    # 2 MB to every `import shiftlab`, and only this function needs it
    from scipy.special import betainc

    lam = np.asarray(lam, dtype=complex)
    d = len(lam)
    r2 = float(np.sum(np.abs(lam) ** 2))
    if r2 >= 1.0:
        raise ValueError(f"point norm {np.sqrt(r2):.6f} not inside the open ball")
    # ||K_lam||^2 = sum_n c_n^{-1} r2^n = (1 - r2)^(-2 sigma); the float power
    # raises OverflowError where it leaves the float range.  Its terms past N
    # sum to total * I_{r2}(N + 1, 2 sigma), so their share of it is I.
    total = (1.0 - r2) ** (-2.0 * sigma)
    C = 1.0 / math.sqrt(total)
    tail_bound = float(betainc(N + 1, 2.0 * sigma, r2))

    lam_conj = np.conj(lam)
    coeffs = []
    norm_sq = 0.0
    for n in range(N + 1):
        # the coefficient of z^alpha is C conj(lam)^alpha / ||z^alpha||^2
        w = monomial_weights(d, n, sigma)
        vec = C * np.prod(lam_conj ** np.array(monomial_basis(d, n)), axis=1) / w
        coeffs.append(vec)
        norm_sq += float(np.sum(np.abs(vec) ** 2 * w))
    return KernelVector(
        point=lam,
        sigma=sigma,
        truncation_degree=N,
        coefficients=coeffs,
        normalization=C,
        norm_sq_truncated=norm_sq,
        tail_bound=tail_bound,
    )


@dataclass
class CharacterCheckResult:
    vector_state_value: complex
    point_value: complex
    discrepancy: float
    operator_norm: float
    lower_bound_slack: float  # operator_norm + discrepancy - |p(lambda)|
    projection_residual: float


def character_check(
    p: Polynomial,
    lam,
    blocks: ShiftBlocks,
    N: int | None = None,
) -> CharacterCheckResult:
    """Compare <p(S) v, v> for the projected kernel vector v against p(lam).

    lam must lie on the variety of the ideal behind the blocks (interior of
    the ball); the kernel vector then already lives in the complement and the
    projection only removes truncation round-off.
    """
    basis = blocks.basis
    ideal = basis.ideal
    lam = np.asarray(lam, dtype=complex)
    if ideal.residual_at(lam) > 1e-10:
        raise ValueError(
            f"point residual {ideal.residual_at(lam):.2e} exceeds 1e-10: "
            "not on the variety"
        )
    if N is None:
        N = blocks.n_max - max(1, p.degree)
    if N + p.degree > blocks.n_max:
        raise IndexError("truncation degree exceeds cached blocks")
    kv = kernel_vector(lam, basis.weights.sigma, N)

    proj = []
    proj_res_sq = 0.0
    for n in range(N + 1):
        x = kv.weighted_coords(n, basis.sqrt_weights(n))
        Q = basis.complement_basis(n)
        y = Q.conj().T @ x
        proj.append(y)
        proj_res_sq += float(np.linalg.norm(x - Q @ y) ** 2)

    # <p(S) v, v> = sum over k and n of <B_n v_n, v_{n+k}>, where B_n is the
    # block H_n -> H_{n+k} of the degree-k part of p, compressed to 0..N
    value = 0j
    for k in p.homogeneous_degrees():
        q = p.homogeneous_part(k)
        for n in range(N - k + 1):
            value += np.vdot(proj[n + k], blocks.mult_block(q, n) @ proj[n])
    value = complex(value)
    pv = p(lam)
    opn = blocks.window_norm(p, (0, N))
    disc = abs(value - pv)
    return CharacterCheckResult(
        vector_state_value=value,
        point_value=pv,
        discrepancy=float(disc),
        operator_norm=float(opn),
        lower_bound_slack=float(opn + disc - abs(pv)),
        projection_residual=float(np.sqrt(proj_res_sq)),
    )
