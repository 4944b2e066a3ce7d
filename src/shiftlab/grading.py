"""Graded bases for a homogeneous ideal and its orthogonal complement.

Everything at degree n is expressed in *weighted monomial coordinates*: the
coefficient of z^alpha times the norm of z^alpha, so the standard hermitian
inner product on coordinate vectors is the weighted inner product on
polynomials.  Orthonormalization then reduces to plain numpy SVD.
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


def total_dimension(d: int, n: int) -> int:
    return math.comb(n + d - 1, d - 1)


@lru_cache(maxsize=None)
def _index_map(d: int, n: int) -> dict:
    return {alpha: k for k, alpha in enumerate(monomial_basis(d, n))}


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
    n: int
    monomials: tuple[tuple[int, ...], ...]
    sqrt_weights: np.ndarray  # per-monomial norm, weighted-coordinate scaling
    ideal_basis: np.ndarray  # (dim_total, dim_ideal), orthonormal columns
    complement_basis: np.ndarray  # (dim_total, dim_complement)

    @property
    def dim_total(self) -> int:
        return len(self.monomials)

    @property
    def dim_ideal(self) -> int:
        return self.ideal_basis.shape[1]

    @property
    def dim_complement(self) -> int:
        return self.complement_basis.shape[1]


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
        return self.record(n).ideal_basis

    def complement_basis(self, n: int) -> np.ndarray:
        return self.record(n).complement_basis

    def dim_ideal(self, n: int) -> int:
        return self.record(n).dim_ideal

    def dim_complement(self, n: int) -> int:
        return self.record(n).dim_complement

    def sqrt_weights(self, n: int) -> np.ndarray:
        return self.record(n).sqrt_weights

    def to_weighted_coords(self, p: Polynomial, n: int) -> np.ndarray:
        """Coordinates of the degree-n part of p, scaled by monomial norms."""
        rec = self.record(n)
        idx = _index_map(self.d, n)
        x = np.zeros(rec.dim_total, dtype=complex)
        for alpha, c in p.coeffs.items():
            if sum(alpha) == n:
                x[idx[alpha]] = c
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
        return self.from_weighted_coords(self.complement_basis(n)[:, a], n)

    def project_to_complement(self, p: Polynomial, n: int) -> np.ndarray:
        """Coefficients of the degree-n part of p in the H_n basis."""
        Q = self.complement_basis(n)
        return Q.conj().T @ self.to_weighted_coords(p, n)

    # construction

    def _build_degree(self, n: int) -> _DegreeRecord:
        monos = monomial_basis(self.d, n)
        t = len(monos)
        sw = np.sqrt(monomial_weights(self.d, n, self.weights.sigma))
        idx = _index_map(self.d, n)

        cols = []
        for g in self.ideal.generators:
            k = g.degree
            if k > n:
                continue
            for beta in monomial_basis(self.d, n - k):
                col = np.zeros(t, dtype=complex)
                for alpha, c in g.coeffs.items():
                    gamma = tuple(b + a for b, a in zip(beta, alpha))
                    col[idx[gamma]] += c * sw[idx[gamma]]
                cols.append(col)

        if not cols:
            ideal_q = np.zeros((t, 0), dtype=complex)
            comp_q = np.eye(t, dtype=complex)
        else:
            A = np.column_stack(cols)
            U, s, _ = np.linalg.svd(A, full_matrices=True)
            r = int(np.count_nonzero(s > self.rank_tol * s[0])) if s.size else 0
            ideal_q = U[:, :r]
            comp_q = U[:, r:]
        return _DegreeRecord(n, monos, sw, ideal_q, comp_q)


@dataclass
class HilbertFunction:
    """dim H_n for n = 0..n_max, with a finite-co-dimension warning flag."""

    dims_complement: list[int]
    dims_ideal: list[int]
    dims_total: list[int]
    finite_codimension_suspected: bool = field(default=False)

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
    basis = GradedComplementBasis(ideal, weights, n_max, rank_tol)
    dh = [basis.dim_complement(n) for n in range(n_max + 1)]
    di = [basis.dim_ideal(n) for n in range(n_max + 1)]
    dt = [basis.record(n).dim_total for n in range(n_max + 1)]
    # a vanishing tail means every high-degree polynomial is in the ideal
    tail = dh[max(1, n_max // 2):]
    suspect = bool(tail) and all(x == 0 for x in tail)
    return HilbertFunction(dh, di, dt, suspect)
