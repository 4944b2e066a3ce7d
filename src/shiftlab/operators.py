"""Graded matrix blocks of the compressed shift tuple and derived probes.

The compressed coordinate multipliers map the degree-n complement into the
degree-(n+1) complement, so a homogeneous symbol of degree k is a family of
blocks H_n -> H_{n+k}.  Products of compressions equal compressions of
products here (the ideal is invariant under multiplication), so blocks of
p(S) are computed exactly from multiplication matrices.  Every probe works on
these per-degree blocks; a window of p(S) is assembled into one sparse matrix
only when p couples degrees (inhomogeneous, or a matrix symbol whose entries
have different degrees).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grading import GradedComplementBasis, monomial_basis, _index_map
from .polynomials import MatrixPolynomial, Polynomial, as_matrix_polynomial

__all__ = [
    "ShiftBlocks",
    "BandedTruncation",
    "EssentialNormTrace",
    "CommutatorSpectrum",
    "SchattenSums",
    "AAStarResidual",
    "operator_norm",
    "schatten_partial_sums",
    "default_window_schedule",
]

DENSE_NORM_CUTOFF = 2000
ITERATIVE_TOL = 1e-10
ITERATIVE_MAXITER = 10000


class ShiftBlocks:
    """Blocks of S_i : H_n -> H_{n+1} and of multiplication operators.

    Wraps a GradedComplementBasis; all computed blocks are cached and
    immutable, so instances are safe for concurrent read.
    """

    def __init__(self, basis: GradedComplementBasis):
        self.basis = basis
        self.d = basis.d
        self.n_max = basis.n_max
        self._mult_cache: dict[tuple[Polynomial, int], np.ndarray] = {}

    # -- raw multiplication in weighted monomial coordinates

    def _mult_matrix(self, q: Polynomial, n: int) -> np.ndarray:
        """Multiplication by homogeneous q, degree-n coords to degree n+k."""
        k = q.degree
        src = monomial_basis(self.d, n)
        sw_src = self.basis.sqrt_weights(n)
        sw_dst = self.basis.sqrt_weights(n + k)
        idx_dst = _index_map(self.d, n + k)
        M = np.zeros((len(sw_dst), len(src)), dtype=complex)
        for a, alpha in enumerate(src):
            for gamma, c in q.coeffs.items():
                tgt = tuple(x + y for x, y in zip(alpha, gamma))
                b = idx_dst[tgt]
                M[b, a] += c * sw_dst[b] / sw_src[a]
        return M

    def mult_block(self, q: Polynomial, n: int) -> np.ndarray:
        """Block of q(S) : H_n -> H_{n + deg q} for homogeneous q."""
        if not q.is_homogeneous:
            raise ValueError("mult_block needs a homogeneous polynomial")
        k = q.degree
        if n + k > self.n_max:
            raise IndexError(
                f"degree {n + k} beyond cached n_max={self.n_max}"
            )
        key = (q, n)
        blk = self._mult_cache.get(key)
        if blk is None:
            if q.is_zero:
                blk = np.zeros(
                    (self.basis.dim_complement(n), self.basis.dim_complement(n)),
                    dtype=complex,
                )
            elif k == 0:
                c = q.coeffs[(0,) * self.d]
                blk = c * np.eye(self.basis.dim_complement(n), dtype=complex)
            else:
                Qs = self.basis.complement_basis(n)
                Qd = self.basis.complement_basis(n + k)
                blk = Qd.conj().T @ self._mult_matrix(q, n) @ Qs
            self._mult_cache[key] = blk
        return blk

    def shift_block(self, i: int, n: int) -> np.ndarray:
        """Block of S_i : H_n -> H_{n+1} (i is 1-based)."""
        if not 1 <= i <= self.d:
            raise ValueError(f"coordinate {i} out of range 1..{self.d}")
        return self.mult_block(Polynomial.variable(self.d, i), n)

    # -- defect operators on H_n

    def row_defect_block(self, n: int) -> np.ndarray:
        """I - sum_i S_i S_i* on H_n."""
        dim = self.basis.dim_complement(n)
        out = np.eye(dim, dtype=complex)
        if n >= 1:
            for i in range(1, self.d + 1):
                B = self.shift_block(i, n - 1)
                out -= B @ B.conj().T
        return out

    def column_defect_block(self, n: int) -> np.ndarray:
        """I - sum_i S_i* S_i on H_n."""
        dim = self.basis.dim_complement(n)
        out = np.eye(dim, dtype=complex)
        for i in range(1, self.d + 1):
            B = self.shift_block(i, n)
            out -= B.conj().T @ B
        return out

    # -- windows P_[m,M] p(S) P_[m,M]

    def _check_window(self, p: MatrixPolynomial, window: tuple[int, int]):
        m, M = window
        if not (0 <= m <= M <= self.n_max):
            raise IndexError(
                f"window {window} not inside cached degrees 0..{self.n_max}"
            )
        if p.degree > M - m:
            warnings.warn(
                f"polynomial degree {p.degree} exceeds window width {M - m}",
                stacklevel=3,
            )

    def window_norm(self, p, window: tuple[int, int]) -> float:
        """||P_[m,M] p(S) P_[m,M]|| for a (matrix-valued) polynomial p.

        When every entry of p is homogeneous of one degree k, the window is a
        direct sum of the blocks H_n -> H_{n+k}, so the norm is the largest
        block norm over n in [m, M-k].  Symbols that couple degrees are
        assembled.
        """
        p = as_matrix_polynomial(p)
        degrees = p.homogeneous_degrees()
        if len(degrees) > 1:
            return operator_norm(self.assemble_polynomial(p, window))
        self._check_window(p, window)
        k = degrees[0] if degrees else 0
        m, M = window

        def entry(q, n):
            if q.is_zero:  # mult_block would give the degree-0 shape
                dims = (self.basis.dim_complement(n + k), self.basis.dim_complement(n))
                return np.zeros(dims, dtype=complex)
            return self.mult_block(q, n)

        return max(
            (operator_norm(np.block([[entry(q, n) for q in row] for row in p.entries]))
             for n in range(m, M - k + 1)),
            default=0.0,
        )

    def assemble_polynomial(
        self, p, window: tuple[int, int]
    ) -> "BandedTruncation":
        """P_[m,M] p(S) P_[m,M] for a (matrix-valued) polynomial p."""
        p = as_matrix_polynomial(p)
        self._check_window(p, window)
        m, M = window
        L = M - m + 1
        dims = [self.basis.dim_complement(n) for n in range(m, M + 1)]
        offsets = {m + j: int(off) for j, off in enumerate(np.cumsum([0] + dims[:-1]))}
        r, c = p.shape
        grid = [[None] * (c * L) for _ in range(r * L)]
        for i in range(r):
            for j in range(c):
                entry = p.entries[i][j]
                for k in entry.homogeneous_degrees():
                    q = entry.homogeneous_part(k)
                    for n in range(m, M - k + 1):
                        # sparse, so bmat's np.asarray cannot merge equal-shape
                        # dense blocks into one higher-dimensional array
                        blk = sp.coo_matrix(self.mult_block(q, n))
                        grid[i * L + n + k - m][j * L + n - m] = blk
        # bmat takes each block row's height and column's width from its
        # blocks, so anchor every row and column with a (possibly zero) block
        for a in range(r * L):
            if grid[a][0] is None:
                grid[a][0] = sp.coo_matrix((dims[a % L], dims[0]), dtype=complex)
        for b in range(c * L):
            if grid[0][b] is None:
                grid[0][b] = sp.coo_matrix((dims[0], dims[b % L]), dtype=complex)
        return BandedTruncation(
            window=(m, M),
            matrix=sp.bmat(grid, format="csr", dtype=complex),
            degree_offsets=offsets,
            degree_dims={m + j: dims[j] for j in range(L)},
        )

    # -- commutators

    def commutator_block(self, i: int, j: int, n: int) -> np.ndarray:
        """Block of S_i S_j* - S_j* S_i on H_n (degree-preserving)."""
        dim = self.basis.dim_complement(n)
        first = np.zeros((dim, dim), dtype=complex)
        if n >= 1:
            Bi = self.shift_block(i, n - 1)
            Bj = self.shift_block(j, n - 1)
            first = Bi @ Bj.conj().T
        if n + 1 <= self.n_max:
            Bi = self.shift_block(i, n)
            Bj = self.shift_block(j, n)
            second = Bj.conj().T @ Bi
        else:
            raise IndexError(f"commutator at degree {n} needs blocks at {n + 1}")
        return first - second

    def commutator_blocks(self, i: int, j: int, degrees) -> "CommutatorSpectrum":
        degrees = list(degrees)
        singvals = {}
        for n in degrees:
            C = self.commutator_block(i, j, n)
            singvals[n] = (
                np.linalg.svd(C, compute_uv=False) if C.size else np.zeros(0)
            )
        return CommutatorSpectrum(i=i, j=j, degrees=degrees,
                                  singular_values=singvals)

    # -- structural diagnostics

    def row_contraction_excess(self, degrees) -> float:
        """max over degrees of (largest eigenvalue of sum_i S_i S_i*) - 1."""
        worst = -np.inf
        for n in degrees:
            R = np.eye(self.basis.dim_complement(n), dtype=complex)
            R -= self.row_defect_block(n)
            if R.shape[0]:
                ev = np.linalg.eigvalsh((R + R.conj().T) / 2)
                worst = max(worst, float(ev[-1]) - 1.0)
        return worst

    def generator_residual(self, window: tuple[int, int]) -> float:
        """max_g ||g(S)|| on the inner part of the window (should vanish)."""
        m, M = window
        return max(
            (self.window_norm(g, (m, M - g.degree)) for g in self.basis.ideal.generators),
            default=0.0,
        )

    # -- essential norm estimation

    def essential_norm_estimate(self, p, schedule) -> "EssentialNormTrace":
        """Tail-compression norm grid f(m, M) = ||P_[m,M] p(S) P_[m,M]||.

        The tail projections decrease to the essential norm as m grows;
        growing M approaches each tail norm from inside.
        """
        p = as_matrix_polynomial(p)
        schedule = [tuple(wm) for wm in schedule]
        if not schedule:
            raise ValueError("empty window schedule")
        for m, M in schedule:
            if M - m < 2 * p.degree:
                raise ValueError(
                    f"window ({m},{M}) narrower than twice deg p = {p.degree}"
                )
        grid = {(m, M): self.window_norm(p, (m, M)) for m, M in schedule}
        m_star = max(m for m, _ in grid)
        M_star = max(M for m, M in grid if m == m_star)
        violations = _monotonicity_violations(grid)
        return EssentialNormTrace(
            grid=grid,
            estimate=grid[(m_star, M_star)],
            estimate_window=(m_star, M_star),
            monotonicity_violations=violations,
            extrapolated=_extrapolate_tail(grid),
        )

    # -- least-squares approximation of S_i* S_j by products A1 A2*

    def aa_star_residual(
        self, i: int, j: int, k: int, M: int, target: str = "adjoint_product"
    ) -> "AAStarResidual":
        """Relative Frobenius residual of S_i* S_j against the span of
        S^mu (S^nu)* with |mu|, |nu| <= k, on the edge-trimmed window [k, M-k].

        The target preserves degree, and a word with |mu| != |nu| maps H_n
        into H_{n+|mu|-|nu|}, so it is orthogonal to the target and to every
        word with |mu| = |nu|; the fit uses only the latter, on the diagonal
        blocks H_n -> H_n.

        target="product_adjoint" switches to S_i S_j*, which lies inside the
        dictionary and must give residual zero (a sanity direction).
        """
        if k < 1:
            raise ValueError("dictionary degree must be at least 1")
        if M < 2 * k + 2:
            raise ValueError(f"window top {M} too small for trim width {k}")
        if M > self.n_max:
            raise IndexError(f"window top {M} beyond cached n_max={self.n_max}")
        degrees = range(k, M - k + 1)

        def stack(blocks):
            return np.concatenate([b.ravel() for b in blocks])

        if target == "adjoint_product":
            tvec = stack(self.shift_block(i, n).conj().T @ self.shift_block(j, n)
                         for n in degrees)
        elif target == "product_adjoint":
            tvec = stack(self.shift_block(i, n - 1) @ self.shift_block(j, n - 1).conj().T
                         for n in degrees)
        else:
            raise ValueError(f"unknown target {target!r}")
        cols = []
        for deg in range(k + 1):
            words = [Polynomial.monomial(mu) for mu in monomial_basis(self.d, deg)]
            for mu in words:
                for nu in words:
                    cols.append(stack(
                        self.mult_block(mu, n - deg) @ self.mult_block(nu, n - deg).conj().T
                        for n in degrees
                    ))
        Dmat = np.column_stack(cols)
        coeffs, _, rank, _ = np.linalg.lstsq(Dmat, tvec, rcond=None)
        resid = np.linalg.norm(tvec - Dmat @ coeffs)
        tnorm = np.linalg.norm(tvec)
        return AAStarResidual(
            i=i, j=j, dictionary_degree=k, window_top=M,
            residual=float(resid / tnorm) if tnorm > 0 else 0.0,
            dictionary_size=Dmat.shape[1],
            dictionary_rank=int(rank),
        )


def _monotonicity_violations(grid: dict, tol: float = 1e-10) -> list:
    out = []
    for (m1, M1), f1 in grid.items():
        for (m2, M2), f2 in grid.items():
            if m1 == m2 and M1 < M2 and f1 > f2 + tol:
                out.append(((m1, M1), (m2, M2), f1 - f2))
            if M1 == M2 and m1 < m2 and f2 > f1 + tol:
                out.append(((m1, M1), (m2, M2), f2 - f1))
    return out


@dataclass
class BandedTruncation:
    """Assembled matrix of p(S) on the degree window [m, M]."""

    window: tuple[int, int]
    matrix: sp.csr_matrix
    degree_offsets: dict[int, int]
    degree_dims: dict[int, int]

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


def operator_norm(t) -> float:
    """Largest singular value; dense SVD for small matrices, ARPACK above."""
    mat = t.matrix if isinstance(t, BandedTruncation) else t
    if sp.issparse(mat):
        if min(mat.shape) == 0 or mat.nnz == 0:
            return 0.0
        if max(mat.shape) <= DENSE_NORM_CUTOFF:
            return float(np.linalg.norm(mat.toarray(), 2))
        s = spla.svds(
            mat.astype(complex), k=1, return_singular_vectors=False,
            tol=ITERATIVE_TOL, maxiter=ITERATIVE_MAXITER,
        )
        return float(s[0])
    mat = np.asarray(mat)
    if mat.size == 0 or not mat.any():
        return 0.0
    if max(mat.shape) <= DENSE_NORM_CUTOFF:
        return float(np.linalg.norm(mat, 2))
    s = spla.svds(
        sp.csr_matrix(mat), k=1, return_singular_vectors=False,
        tol=ITERATIVE_TOL, maxiter=ITERATIVE_MAXITER,
    )
    return float(s[0])


def _extrapolate_tail(grid: dict) -> float | None:
    """Richardson step in 1/m on the two deepest tails (largest M per m)."""
    best_per_m = {}
    for (m, M), f in grid.items():
        if m not in best_per_m or M > best_per_m[m][0]:
            best_per_m[m] = (M, f)
    ms = sorted(best_per_m)
    if len(ms) < 2 or ms[-2] == 0:
        return None
    m1, m2 = ms[-2], ms[-1]
    f1, f2 = best_per_m[m1][1], best_per_m[m2][1]
    c = (f1 - f2) / (1.0 / m1 - 1.0 / m2)
    return f2 - c / m2


@dataclass
class EssentialNormTrace:
    grid: dict[tuple[int, int], float]
    estimate: float
    estimate_window: tuple[int, int]
    monotonicity_violations: list = field(default_factory=list)
    extrapolated: float | None = None

    def rows(self):
        for (m, M) in sorted(self.grid):
            yield m, M, self.grid[(m, M)]


@dataclass
class CommutatorSpectrum:
    """Per-degree singular values of S_i S_j* - S_j* S_i on H_n."""

    i: int
    j: int
    degrees: list[int]
    singular_values: dict[int, np.ndarray]

    def block_norm(self, n: int) -> float:
        s = self.singular_values[n]
        return float(s[0]) if s.size else 0.0

    def block_norms(self) -> np.ndarray:
        return np.array([self.block_norm(n) for n in self.degrees])

    def decay_slope(self, n_lo: int, n_hi: int) -> float:
        """Log-log slope of block norms over degrees [n_lo, n_hi]."""
        ns, vals = [], []
        for n in self.degrees:
            if n_lo <= n <= n_hi and self.block_norm(n) > 0:
                ns.append(n)
                vals.append(self.block_norm(n))
        if len(ns) < 2:
            raise ValueError("not enough nonzero blocks for a slope fit")
        return float(np.polyfit(np.log(ns), np.log(vals), 1)[0])


@dataclass
class SchattenSums:
    """Schatten-p partial sums of a commutator spectrum, by exponent."""

    exponents: list[float]
    degrees: list[int]
    partial_sums: dict[float, np.ndarray]  # cumulative over degrees
    increments: dict[float, np.ndarray]
    increment_slopes: dict[float, float | None]


def schatten_partial_sums(
    spec: CommutatorSpectrum,
    p_exponents,
    n_max: int | None = None,
    fit_range: tuple[int, int] | None = None,
) -> SchattenSums:
    """sum_{n<=N} sum_k s_k(block_n)^p, with log-log slopes of increments.

    Slopes are a decay diagnostic, not a convergence proof; None when fewer
    than two positive increments fall inside the fit range.
    """
    exps = [float(p) for p in p_exponents]
    if any(p <= 0 for p in exps):
        raise ValueError("Schatten exponents must be positive")
    degrees = [n for n in spec.degrees if n_max is None or n <= n_max]
    if fit_range is None and degrees:
        fit_range = (degrees[len(degrees) // 2], degrees[-1])
    sums, incs, slopes = {}, {}, {}
    for p in exps:
        inc = np.array(
            [float(np.sum(spec.singular_values[n] ** p)) for n in degrees]
        )
        incs[p] = inc
        sums[p] = np.cumsum(inc)
        ns, vals = [], []
        for n, v in zip(degrees, inc):
            if fit_range and fit_range[0] <= n <= fit_range[1] and v > 0:
                ns.append(n)
                vals.append(v)
        slopes[p] = (
            float(np.polyfit(np.log(ns), np.log(vals), 1)[0])
            if len(ns) >= 2
            else None
        )
    return SchattenSums(exps, degrees, sums, incs, slopes)


@dataclass
class AAStarResidual:
    i: int
    j: int
    dictionary_degree: int
    window_top: int
    residual: float
    dictionary_size: int
    dictionary_rank: int


def default_window_schedule(poly_degree: int, n_max: int) -> list[tuple[int, int]]:
    """Default tail windows: m in {10, 20, 40}, M = m + max(40, 8 deg)."""
    width = max(40, 8 * poly_degree)
    out = []
    for m in (10, 20, 40):
        M = m + width
        if M <= n_max:
            out.append((m, M))
    if not out:
        m = 0
        out.append((m, min(n_max, m + width)))
    return out
