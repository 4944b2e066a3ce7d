"""Boundary maximization on the variety sphere and kernel-vector states.

boundary_sup maximizes the largest singular value of an evaluated matrix
polynomial over V ∩ S, the unit vectors at which every generator of the
ideal vanishes, by projected gradient ascent with multistart: exact
Wirtinger gradients projected onto the tangent space of V ∩ S, a
Gauss-Newton retraction, and all starts stepped together as one batch.
kernel_vector builds the normalized reproducing vector at an interior point;
character_check compares the induced vector state against plain point
evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grading import HomogeneousIdeal, monomial_exponents, monomial_weights
from .operators import ShiftBlocks, _narrow_window_message
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
    max_iter: int = 300
    step_initial: float = 0.1
    # an ascent test resolves a tangent gradient down to about sqrt(eps |f|)
    grad_tol: float = 1e-7
    newton_iters: int = 60
    newton_tol: float = 1e-12
    feasibility_tol: float = 1e-8
    seed: int = 0
    basin_tol: float = 1e-3


@dataclass
class BoundaryMaxResult:
    point: np.ndarray
    value: float
    sphere_residual: float
    ideal_residual: float
    n_starts: int
    n_converged: int
    n_basins: int
    n_stationary: int  # starts whose tangent gradient met grad_tol
    worst_feasibility_residual: float  # over the converged starts


class _Problem:
    """The symbol P, the ideal's generators g and their complex partial
    derivatives, built once per boundary_sup call.

    At z = x_re + i x_im the objective is f(x) = sigma_1(P(z)).  With u, v
    the top singular vectors of P(z) and a_i = u* (d_i P) v, its gradient is
    df/dx_re = Re a and df/dx_im = -Im a.
    """

    def __init__(self, p: MatrixPolynomial, ideal: HomogeneousIdeal):
        self.d = p.d
        self.p = p
        self.dp = [
            MatrixPolynomial([[q.derivative(i) for q in row] for row in p.entries])
            for i in range(1, p.d + 1)
        ]
        self.gens = ideal.generators
        self.jac = [[g.derivative(i) for i in range(1, p.d + 1)] for g in self.gens]

    def point(self, x: np.ndarray) -> np.ndarray:
        return x[..., : self.d] + 1j * x[..., self.d:]

    def value(self, x: np.ndarray) -> np.ndarray:
        """f at a batch of real points x of shape (B, 2d)."""
        return self.p.sup_eval(self.point(x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """The exact gradient of f at a batch of real points, shape (B, 2d)."""
        z = self.point(x)
        P = self.p(z)
        dP = [D(z) for D in self.dp]
        if self.p.shape == (1, 1):
            pv = P[:, 0, 0]
            mag = np.abs(pv)
            phase = np.divide(np.conj(pv), mag, out=np.zeros_like(pv), where=mag > 0)
            a = np.stack([phase * D[:, 0, 0] for D in dP], axis=1)
        else:
            U, _, Vh = np.linalg.svd(P)
            u = np.conj(U[:, :, 0])[:, :, None]
            v = np.conj(Vh[:, 0, :])[:, None, :]
            a = np.stack([(u * D * v).sum(axis=(1, 2)) for D in dP], axis=1)
        return np.concatenate([a.real, -a.imag], axis=1)

    def generators_at(self, z: np.ndarray) -> np.ndarray:
        """g(z) for every generator at a batch of points, shape (B, m)."""
        return np.array([g(z) for g in self.gens]).reshape(len(self.gens), len(z)).T

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        """dg/dz for every generator at a batch of points, shape (B, m, d)."""
        J = np.array([[dg(z) for dg in row] for row in self.jac])
        return J.reshape(len(self.gens), self.d, len(z)).transpose(2, 0, 1)

    def tangent(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The part of g (B, 2d) tangent to V ∩ S at the points x (B, 2d).

        The normal space is spanned by x and, for each generator with
        c = dg/dz, by grad Re g = [Re c, -Im c] and grad Im g = [Im c, Re c].
        Subtracting pinv(N) N g is the minimum-norm projection, also at a
        singular point of V where these rows lose rank.
        """
        c = self.jacobian(self.point(x))
        N = np.concatenate([
            x[:, None, :],
            np.concatenate([c.real, -c.imag], axis=2),
            np.concatenate([c.imag, c.real], axis=2),
        ], axis=1)
        Ng = (N * g[:, None, :]).sum(axis=2)
        return g - (np.linalg.pinv(N) * Ng[:, None, :]).sum(axis=2)


def _retract(
    prob: _Problem, z: np.ndarray, cfg: OptimizerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton from each point of a batch z (B, d) onto V, then onto the
    sphere (homogeneity keeps a point on V when it is scaled).

    Each row stops on its own once every generator is within newton_tol, so
    a row's result does not depend on the other rows.  Returns the points and
    whether each reached V: a finite step every time, a residual of at most
    1e-10 and a norm of at least 1e-8.
    """
    z = z.astype(complex)
    ok = np.ones(len(z), dtype=bool)
    active = np.arange(len(z))
    for _ in range(cfg.newton_iters if prob.gens else 0):
        G = prob.generators_at(z[active])
        far = np.abs(G).max(axis=1) > cfg.newton_tol
        active, G = active[far], G[far]
        if not active.size:
            break
        step = (np.linalg.pinv(prob.jacobian(z[active])) * G[:, None, :]).sum(axis=2)
        finite = np.isfinite(step).all(axis=1)
        ok[active[~finite]] = False
        active = active[finite]
        z[active] -= step[finite]
    norm = np.linalg.norm(z, axis=1)
    ok &= norm >= 1e-8
    ok[ok] = np.abs(prob.generators_at(z[ok])).max(axis=1, initial=0.0) <= 1e-10
    z[ok] /= norm[ok, None]
    return z, ok


def _feasible_start(
    prob: _Problem, rng: np.random.Generator, cfg: OptimizerConfig
) -> np.ndarray | None:
    for _ in range(20):
        z = rng.standard_normal(prob.d) + 1j * rng.standard_normal(prob.d)
        z, ok = _retract(prob, z[None] / np.linalg.norm(z), cfg)
        if ok[0]:
            return z[0]
    return None


def _ascend(
    prob: _Problem, z0: np.ndarray, cfg: OptimizerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient ascent on V ∩ S of all starts z0 (B, d) as one batch.

    Each step moves along the tangent gradient and retracts onto V ∩ S, so
    every iterate is feasible; a step that does not reach V is rejected like
    one that does not ascend.  Every start keeps its own step size and
    freezes at grad_tol, at the step floor or at max_iter.  Each row is
    computed on its own, so a start's trajectory does not depend on the
    other starts.  A start stays on the component of V ∩ S it begins on.
    Returns the points (B, d) and per start whether it met grad_tol.
    """
    x = np.concatenate([z0.real, z0.imag], axis=1)
    n = len(x)
    stationary = np.zeros(n, dtype=bool)
    step = np.full(n, cfg.step_initial)
    f = prob.value(x)
    active = np.arange(n)
    for _ in range(cfg.max_iter):
        xa = x[active]
        g_tan = prob.tangent(xa, prob.gradient(xa))
        gn = np.linalg.norm(g_tan, axis=1)
        done = gn <= cfg.grad_tol * np.maximum(1.0, np.abs(f[active]))
        stationary[active[done]] = True
        active, xa, g_tan = active[~done], xa[~done], g_tan[~done]
        if not active.size:
            break
        z_new, ok = _retract(prob, prob.point(xa + step[active, None] * g_tan), cfg)
        x_new = np.concatenate([z_new.real, z_new.imag], axis=1)
        f_new = np.full(len(active), -np.inf)
        f_new[ok] = prob.value(x_new[ok])
        up = f_new > f[active]
        won = active[up]
        x[won], f[won] = x_new[up], f_new[up]
        step[won] = np.minimum(step[won] * 1.2, 1.0)
        step[active[~up]] *= 0.5
        active = active[step[active] >= 1e-14]
        if not active.size:
            break
    return prob.point(x), stationary


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
    """sup over the variety sphere of the largest singular value of p(z).

    Each start ascends on V ∩ S and stays on the connected component it
    begins on, so the answer misses a component that no start lands on.
    For |w1 w2| on V(w1 w2 w3), 8 starts missed the plane w3 = 0 in 1 of 50
    seeds; the default of 64 starts missed it in none.
    """
    p = as_matrix_polynomial(p)
    if p.is_zero:
        raise ValueError("zero polynomial has no boundary maximizer")
    if p.d != ideal.d:
        raise ValueError("polynomial / ideal dimension mismatch")
    cfg = cfg or OptimizerConfig()
    rng = np.random.default_rng(cfg.seed)
    prob = _Problem(p, ideal)

    starts = []
    attempts = 0
    while len(starts) < cfg.n_starts and attempts < 10 * cfg.n_starts:
        attempts += 1
        z = _feasible_start(prob, rng, cfg)
        if z is not None:
            starts.append(z)
    if not starts:
        raise VarietyBoundaryNotFound(
            "no feasible start found: the variety may not meet the sphere"
        )

    points, stationary = _ascend(prob, np.array(starts), cfg)
    converged = []
    for z in points:
        sphere_res = abs(np.linalg.norm(z) ** 2 - 1.0)
        ideal_res = ideal.residual_at(z)
        if sphere_res <= cfg.feasibility_tol and ideal_res <= cfg.feasibility_tol:
            converged.append((p.sup_eval(z), z, sphere_res, ideal_res))
    if not converged:
        raise VarietyBoundaryNotFound(
            "no multistart converged to a feasible boundary point"
        )
    # deterministic winner: max value, lexicographic tie-break on coordinates
    converged.sort(
        key=lambda r: (-r[0], tuple(np.round(np.concatenate([r[1].real, r[1].imag]), 9)))
    )
    best_val, best_z, best_sres, best_ires = converged[0]
    return BoundaryMaxResult(
        point=best_z,
        value=float(best_val),
        sphere_residual=float(best_sres),
        ideal_residual=float(best_ires),
        n_starts=len(starts),
        n_converged=len(converged),
        n_basins=_count_basins([r[1] for r in converged], cfg.basin_tol),
        n_stationary=int(stationary.sum()),
        worst_feasibility_residual=float(max(max(r[2], r[3]) for r in converged)),
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
        vec = C * np.prod(lam_conj ** monomial_exponents(d, n), axis=1) / w
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
    kernel: KernelVector  # the truncated kernel vector before projection
    warnings: list[str] = field(default_factory=list)  # narrow window, if N < deg p


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
        y = basis.to_complement(x, n)
        proj.append(y)
        proj_res_sq += float(np.linalg.norm(x - basis.from_complement(y, n)) ** 2)

    # <p(S) v, v> = sum over k and n of <B_n v_n, v_{n+k}>, where B_n is the
    # block H_n -> H_{n+k} of the degree-k part of p, compressed to 0..N
    value = 0j
    for k in p.homogeneous_degrees():
        q = p.homogeneous_part(k)
        for n in range(N - k + 1):
            value += np.vdot(proj[n + k], blocks.mult_block(q, n) @ proj[n])
    value = complex(value)
    pv = p(lam)
    # parts of degree above N map degrees 0..N out of the window, so they
    # drop out of its compression; the narrow window is reported, not warned
    warnings, in_window = [], p
    if p.degree > N:
        warnings.append(_narrow_window_message(p.degree, (0, N)))
        in_window = Polynomial(p.d, {a: c for a, c in p.coeffs.items() if sum(a) <= N})
    opn = blocks.window_norm(in_window, (0, N))
    disc = abs(value - pv)
    return CharacterCheckResult(
        vector_state_value=value,
        point_value=pv,
        discrepancy=float(disc),
        operator_norm=float(opn),
        lower_bound_slack=float(opn + disc - abs(pv)),
        projection_residual=float(np.sqrt(proj_res_sq)),
        kernel=kv,
        warnings=warnings,
    )
