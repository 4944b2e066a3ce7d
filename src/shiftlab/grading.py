"""Graded bases for a homogeneous ideal and its orthogonal complement.

Everything at degree n is expressed in *weighted monomial coordinates*: the
coefficient of z^alpha times the norm of z^alpha, so the standard hermitian
inner product on coordinate vectors is the weighted inner product on
polynomials.  Distinct monomials are orthogonal, so where every generator of
degree <= n is a single monomial, I_n is spanned by the monomials some
generator divides and H_n by the rest (the standard monomials): the basis is
an exact selection.  Other degrees take a column-pivoted Householder QR
(Businger and Golub) of the generator multiples, with columns scaled to unit
norm, in real arithmetic when the generators' coefficients are real, and
record how near the rank decision came to its threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .polynomials import Polynomial, WeightScheme, besov_weight, monomial_norm_sq_exact

__all__ = [
    "HomogeneousIdeal",
    "GradedComplementBasis",
    "HilbertFunction",
    "hilbert_function",
    "monomial_basis",
    "monomial_exponents",
    "monomial_rank",
    "monomial_weights",
    "total_dimension",
]

DEFAULT_RANK_TOL = 1e-10


@lru_cache(maxsize=None)
def monomial_basis(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices of degree n in d variables, graded-lex (z1^n first)."""
    if d == 1:
        return ((n,),)
    out = []
    for a in range(n, -1, -1):
        for rest in monomial_basis(d - 1, n - a):
            out.append((a,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_weights(d: int, n: int, sigma: float) -> np.ndarray:
    """||z^alpha||^2 = c_{sigma,n} * alpha!/n! over ``monomial_basis(d, n)``,
    as ``WeightScheme.weight`` gives it, with one Besov weight per degree.
    The array is cached and read-only."""
    c = besov_weight(n, sigma)
    w = np.array([c * float(monomial_norm_sq_exact(a)) for a in monomial_basis(d, n)])
    w.flags.writeable = False
    return w


@lru_cache(maxsize=None)
def monomial_exponents(d: int, n: int) -> np.ndarray:
    """``monomial_basis(d, n)`` as a read-only (count, d) integer array."""
    e = np.array(monomial_basis(d, n), dtype=np.int64).reshape(-1, d)
    e.flags.writeable = False
    return e


def monomial_rank(exponents: np.ndarray) -> np.ndarray:
    """Position of each row (a multi-index) in ``monomial_basis`` of its degree.

    The order is lexicographically decreasing, so the monomials that precede
    alpha are those that agree with it before some coordinate i and exceed it
    at i; with r the degree left after coordinate i, there are
    C(r + d - i - 2, d - i - 1) of them (0-based i).
    """
    e = np.asarray(exponents, dtype=np.int64)
    d = e.shape[-1]
    rest = e.sum(axis=-1)
    rank = np.zeros_like(rest)
    for i in range(d - 1):
        rest = rest - e[..., i]
        top, j = rest + d - i - 2, d - i - 1
        binom = np.ones_like(rest)
        for m in range(j):  # C(top, m + 1) from C(top, m), exactly
            binom = binom * (top - m) // (m + 1)
        rank += binom
    return rank


def total_dimension(d: int, n: int) -> int:
    return math.comb(n + d - 1, d - 1)


@dataclass(frozen=True)
class HomogeneousIdeal:
    """Ideal given by homogeneous generators; empty list is the zero ideal."""

    generators: tuple[Polynomial, ...]
    d: int

    def __post_init__(self):
        for g in self.generators:
            if g.d != self.d:
                raise ValueError("generator dimension mismatch")
            if g.is_zero:
                raise ValueError("zero generator")
            if not g.is_homogeneous:
                raise ValueError(f"generator {g!r} is not homogeneous")
            if g.degree == 0:
                raise ValueError("constant generator would give the unit ideal")

    @classmethod
    def zero(cls, d: int) -> "HomogeneousIdeal":
        return cls((), d)

    @classmethod
    def from_generators(cls, gens, d: int) -> "HomogeneousIdeal":
        return cls(tuple(gens), d)

    @property
    def is_trivial(self) -> bool:
        return not self.generators

    def residual_at(self, z) -> float:
        """max_j |g_j(z)|, the ideal-membership residual of a point."""
        if not self.generators:
            return 0.0
        return max(abs(g(z)) for g in self.generators)


@dataclass
class _DegreeRecord:
    """The degree-n pieces of I and H, in one of two forms.

    A *selection* (every generator of degree <= n is a monomial) holds the
    positions in ``monomials`` of the monomials in I_n and of the standard
    monomials, as 1-d index arrays, and makes no rank decision.  Otherwise
    both are column blocks of the Q of a pivoted QR, real when the
    generators are, and ``rank_margin`` says how far, as a factor, the
    diagonal entry |R_jj| nearest the threshold ``rank_tol * |R_00|`` sat
    from it.
    """

    n: int
    monomials: tuple[tuple[int, ...], ...]
    sqrt_weights: np.ndarray  # per-monomial norm, weighted-coordinate scaling
    ideal_basis: np.ndarray  # positions, or (dim_total, dim_ideal)
    complement_basis: np.ndarray  # positions, or (dim_total, dim_complement)
    rank_margin: float | None = None  # None for a selection

    @property
    def is_selection(self) -> bool:
        return self.complement_basis.ndim == 1

    @property
    def dim_total(self) -> int:
        return len(self.monomials)

    @property
    def dim_ideal(self) -> int:
        return self.ideal_basis.shape[-1]

    @property
    def dim_complement(self) -> int:
        return self.complement_basis.shape[-1]

    def support(self) -> np.ndarray:
        """Positions of the monomials the complement basis is built on."""
        if self.is_selection:
            return self.complement_basis
        return np.arange(self.dim_total)


def _selection_matrix(positions: np.ndarray, t: int) -> np.ndarray:
    Q = np.zeros((t, len(positions)), dtype=complex)
    Q[positions, np.arange(len(positions))] = 1.0
    return Q


def _rank_margin(r: np.ndarray, threshold: float) -> float:
    """min_j max(r_j / threshold, threshold / r_j) for r_j = |R_jj|: the
    factor by which the diagonal entry nearest the threshold clears it (inf
    for an exact zero)."""
    with np.errstate(divide="ignore"):
        return float(np.exp(np.abs(np.log(r / threshold)).min()))


class GradedComplementBasis:
    """Per-degree orthonormal bases of I_n and H_n = (degree n) minus I_n.

    Built eagerly for degrees 0..n_max.  Read-only after construction, so it
    is safe to share across threads.
    """

    def __init__(
        self,
        ideal: HomogeneousIdeal,
        weights: WeightScheme,
        n_max: int,
        rank_tol: float = DEFAULT_RANK_TOL,
    ):
        if ideal.d != weights.d:
            raise ValueError("ideal / weight-scheme dimension mismatch")
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        self.ideal = ideal
        self.weights = weights
        self.n_max = n_max
        self.rank_tol = rank_tol
        self._records = [self._build_degree(n) for n in range(n_max + 1)]

    @property
    def d(self) -> int:
        return self.ideal.d

    def record(self, n: int) -> _DegreeRecord:
        if not 0 <= n <= self.n_max:
            raise IndexError(f"degree {n} beyond cached n_max={self.n_max}")
        return self._records[n]

    def ideal_degree_basis(self, n: int) -> np.ndarray:
        """Orthonormal columns spanning I_n (built on demand for a selection)."""
        rec = self.record(n)
        if rec.is_selection:
            return _selection_matrix(rec.ideal_basis, rec.dim_total)
        return rec.ideal_basis

    def complement_basis(self, n: int) -> np.ndarray:
        """Orthonormal columns spanning H_n (built on demand for a selection)."""
        rec = self.record(n)
        if rec.is_selection:
            return _selection_matrix(rec.complement_basis, rec.dim_total)
        return rec.complement_basis

    def dim_ideal(self, n: int) -> int:
        return self.record(n).dim_ideal

    def dim_complement(self, n: int) -> int:
        return self.record(n).dim_complement

    def sqrt_weights(self, n: int) -> np.ndarray:
        return self.record(n).sqrt_weights

    def to_complement(self, x: np.ndarray, n: int) -> np.ndarray:
        """H_n coordinates of the projection of weighted coordinates x."""
        rec = self.record(n)
        if rec.is_selection:
            return x[rec.complement_basis]
        return rec.complement_basis.conj().T @ x

    def from_complement(self, y: np.ndarray, n: int) -> np.ndarray:
        """Weighted coordinates of the H_n vector with coordinates y."""
        rec = self.record(n)
        if rec.is_selection:
            x = np.zeros(rec.dim_total, dtype=complex)
            x[rec.complement_basis] = y
            return x
        return rec.complement_basis @ y

    def to_weighted_coords(self, p: Polynomial, n: int) -> np.ndarray:
        """Coordinates of the degree-n part of p, scaled by monomial norms."""
        rec = self.record(n)
        x = np.zeros(rec.dim_total, dtype=complex)
        terms = [(alpha, c) for alpha, c in p.coeffs.items() if sum(alpha) == n]
        if terms:
            x[monomial_rank([alpha for alpha, _ in terms])] = [c for _, c in terms]
        return x * rec.sqrt_weights

    def from_weighted_coords(self, x: np.ndarray, n: int) -> Polynomial:
        rec = self.record(n)
        coeffs = {}
        for k, alpha in enumerate(rec.monomials):
            c = x[k] / rec.sqrt_weights[k]
            if c != 0:
                coeffs[alpha] = c
        return Polynomial(self.d, coeffs)

    def complement_vector_polynomial(self, n: int, a: int) -> Polynomial:
        """The a-th orthonormal basis polynomial of H_n."""
        y = np.zeros(self.dim_complement(n), dtype=complex)
        y[a] = 1.0
        return self.from_weighted_coords(self.from_complement(y, n), n)

    def project_to_complement(self, p: Polynomial, n: int) -> np.ndarray:
        """Coefficients of the degree-n part of p in the H_n basis."""
        return self.to_complement(self.to_weighted_coords(p, n), n)

    # construction

    def _build_degree(self, n: int) -> _DegreeRecord:
        monos = monomial_basis(self.d, n)
        sw = np.sqrt(monomial_weights(self.d, n, self.weights.sigma))
        gens = [g for g in self.ideal.generators if g.degree <= n]
        if all(len(g.coeffs) == 1 for g in gens):
            # I_n is spanned by the monomials some generator exponent divides
            E = monomial_exponents(self.d, n)
            in_ideal = np.zeros(len(monos), dtype=bool)
            for g in gens:
                (gamma,) = g.coeffs
                in_ideal |= (E >= np.array(gamma)).all(axis=1)
            return _DegreeRecord(n, monos, sw, np.flatnonzero(in_ideal),
                                 np.flatnonzero(~in_ideal))

        # columns z^beta g in weighted coordinates, scaled to unit norm: the
        # weights spread over many orders of magnitude in n, and unscaled
        # columns would drag full-rank diagonal entries under the threshold.
        # Real generators give a real A, so the factorization runs in real
        # arithmetic and the basis is real.
        real = all(c.imag == 0 for g in gens for c in g.coeffs.values())
        betas = [monomial_exponents(self.d, n - g.degree) for g in gens]
        A = np.zeros((len(monos), sum(map(len, betas))), dtype=float if real else complex)
        norm_sq = np.zeros(A.shape[1])  # the terms of a column are orthogonal
        start = 0
        for g, B in zip(gens, betas):
            cols = np.arange(start, start + len(B))
            for alpha, c in g.coeffs.items():
                rows = monomial_rank(B + np.array(alpha))
                A[rows, cols] += (c.real if real else c) * sw[rows]
                norm_sq[cols] += abs(c) ** 2 * sw[rows] ** 2
            start += len(B)
        A /= np.sqrt(norm_sq)
        # column-pivoted Householder QR: |R_jj| is non-increasing, and the
        # first r columns of Q span the pivoted columns kept by the rank test.
        # scipy.linalg is loaded with the package (through scipy.sparse.linalg),
        # so importing it here costs nothing.
        from scipy.linalg import qr

        Q, R, _ = qr(A, pivoting=True)
        diag = np.abs(np.diagonal(R))
        threshold = self.rank_tol * diag[0]
        r = int(np.count_nonzero(diag > threshold))
        return _DegreeRecord(n, monos, sw, Q[:, :r], Q[:, r:],
                             _rank_margin(diag, threshold))


@dataclass
class HilbertFunction:
    """dim H_n for n = 0..n_max, with a finite-co-dimension warning flag."""

    dims_complement: list[int]
    dims_ideal: list[int]
    dims_total: list[int]
    finite_codimension_suspected: bool = field(default=False)
    # per degree, the pivoted QR's rank margin (see _DegreeRecord); None
    # where the degree is a selection and no rank was decided
    rank_margins: list[float | None] = field(default_factory=list)

    @classmethod
    def from_basis(cls, basis: "GradedComplementBasis") -> "HilbertFunction":
        """The table of an already built basis, up to its n_max."""
        degrees = range(basis.n_max + 1)
        dh = [basis.dim_complement(n) for n in degrees]
        # a vanishing tail means every high-degree polynomial is in the ideal
        tail = dh[max(1, basis.n_max // 2):]
        return cls(
            dh,
            [basis.dim_ideal(n) for n in degrees],
            [basis.record(n).dim_total for n in degrees],
            bool(tail) and all(x == 0 for x in tail),
            [basis.record(n).rank_margin for n in degrees],
        )

    def rows(self):
        for n, (t, di, dh) in enumerate(
            zip(self.dims_total, self.dims_ideal, self.dims_complement)
        ):
            yield n, t, di, dh


def hilbert_function(
    ideal: HomogeneousIdeal,
    n_max: int,
    weights: WeightScheme | None = None,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> HilbertFunction:
    """Dimension table of the graded complement.

    dim I_n does not depend on the weight scheme; sigma = 1/2 is used when
    none is supplied.
    """
    if weights is None:
        weights = WeightScheme(0.5, ideal.d)
    return HilbertFunction.from_basis(GradedComplementBasis(ideal, weights, n_max, rank_tol))
