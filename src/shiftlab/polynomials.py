"""Multivariate polynomials with the sigma-weighted monomial inner products.

Monomials z^alpha are mutually orthogonal; the squared norm of z^alpha is
``c_{sigma,|alpha|} * alpha! / |alpha|!`` where ``c_{sigma,n}`` is the Besov
scale weight.  sigma = 1/2 gives weight 1 at every degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "Polynomial",
    "MatrixPolynomial",
    "WeightScheme",
    "besov_weight",
    "monomial_norm_sq",
    "monomial_norm_sq_exact",
]

def besov_weight(n: int, sigma: float) -> float:
    """Scale weight c_{sigma,n} = Gamma(n+1)Gamma(2s)/Gamma(2s+n).

    Exact rational product when 2*sigma is a positive integer, log-Gamma
    otherwise (stable out to n of a few hundred).
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    two_sigma = 2.0 * sigma
    m = round(two_sigma)
    if m >= 1 and abs(two_sigma - m) < 1e-12:
        num, den = 1, 1
        for k in range(n):
            num *= k + 1
            den *= m + k
        return num / den
    return math.exp(
        math.lgamma(n + 1) + math.lgamma(two_sigma) - math.lgamma(two_sigma + n)
    )


def monomial_norm_sq_exact(alpha: tuple[int, ...]) -> Fraction:
    """Exact alpha!/|alpha|! as a Fraction (the sigma = 1/2 norm)."""
    num = 1
    for a in alpha:
        num *= math.factorial(a)
    return Fraction(num, math.factorial(sum(alpha)))


@dataclass(frozen=True)
class WeightScheme:
    """Inner-product weights for the sigma scale in dimension d."""

    sigma: float
    d: int

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.d < 2:
            raise ValueError(f"dimension must be at least 2, got {self.d}")

    def weight(self, alpha: tuple[int, ...]) -> float:
        if len(alpha) != self.d:
            raise ValueError(
                f"multi-index of length {len(alpha)} in dimension {self.d}"
            )
        return besov_weight(sum(alpha), self.sigma) * float(monomial_norm_sq_exact(alpha))

    def inner_product(self, p: "Polynomial", q: "Polynomial") -> complex:
        """<p, q> = sum_alpha p_a conj(q_a) ||z^a||^2."""
        if p.d != self.d or q.d != self.d:
            raise ValueError("dimension mismatch between polynomials and weights")
        acc = 0.0 + 0.0j
        small, large = (p.coeffs, q.coeffs)
        if len(large) < len(small):
            small, large = large, small
        for alpha, c in small.items():
            other = large.get(alpha)
            if other is not None:
                if large is q.coeffs:
                    acc += c * np.conj(other) * self.weight(alpha)
                else:
                    acc += other * np.conj(c) * self.weight(alpha)
        return complex(acc)

    def norm(self, p: "Polynomial") -> float:
        return math.sqrt(max(self.inner_product(p, p).real, 0.0))


def monomial_norm_sq(alpha: tuple[int, ...], w: WeightScheme) -> float:
    """Squared norm of z^alpha under the weight scheme."""
    return w.weight(tuple(alpha))


class Polynomial:
    """Polynomial in d complex variables, stored as exponent -> coefficient.

    Zero coefficients are never stored.  Instances are treated as immutable.
    """

    __slots__ = ("d", "coeffs")

    def __init__(self, d: int, coeffs: dict | None = None):
        if d < 1:
            raise ValueError("dimension must be positive")
        clean: dict[tuple[int, ...], complex] = {}
        for alpha, c in (coeffs or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != d or any(a < 0 for a in alpha):
                raise ValueError(f"bad multi-index {alpha} for dimension {d}")
            c = complex(c)
            if c != 0:
                clean[alpha] = clean.get(alpha, 0) + c
                if clean[alpha] == 0:
                    del clean[alpha]
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def monomial(cls, alpha, coeff=1.0) -> "Polynomial":
        alpha = tuple(alpha)
        return cls(len(alpha), {alpha: coeff})

    @classmethod
    def variable(cls, d: int, i: int) -> "Polynomial":
        """z_i (1-based coordinate index)."""
        alpha = [0] * d
        alpha[i - 1] = 1
        return cls(d, {tuple(alpha): 1.0})

    @classmethod
    def constant(cls, d: int, c) -> "Polynomial":
        return cls(d, {(0,) * d: c})

    @classmethod
    def homogeneous(cls, degree: int, d: int, coeffs: dict) -> "Polynomial":
        """Validating constructor: every exponent must have the given degree."""
        p = cls(d, coeffs)
        for alpha in p.coeffs:
            if sum(alpha) != degree:
                raise ValueError(
                    f"exponent {alpha} has degree {sum(alpha)}, expected {degree}"
                )
        return p

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        if not self.coeffs:
            return 0
        return max(sum(a) for a in self.coeffs)

    @property
    def is_homogeneous(self) -> bool:
        degrees = {sum(a) for a in self.coeffs}
        return len(degrees) <= 1

    def homogeneous_part(self, n: int) -> "Polynomial":
        return Polynomial(
            self.d, {a: c for a, c in self.coeffs.items() if sum(a) == n}
        )

    def homogeneous_degrees(self) -> list[int]:
        return sorted({sum(a) for a in self.coeffs})

    def __add__(self, other):
        other = self._coerce(other)
        merged = dict(self.coeffs)
        for a, c in other.coeffs.items():
            merged[a] = merged.get(a, 0) + c
        return Polynomial(self.d, merged)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Polynomial(self.d, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if np.isscalar(other):
            return Polynomial(
                self.d, {a: c * other for a, c in self.coeffs.items()}
            )
        other = self._coerce(other)
        out: dict[tuple[int, ...], complex] = {}
        for a, ca in self.coeffs.items():
            for b, cb in other.coeffs.items():
                key = tuple(x + y for x, y in zip(a, b))
                out[key] = out.get(key, 0) + ca * cb
        return Polynomial(self.d, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.d, 1.0)
        for _ in range(k):
            out = out * self
        return out

    def __call__(self, z) -> complex:
        z = np.asarray(z, dtype=complex)
        if z.shape != (self.d,):
            raise ValueError(f"point of shape {z.shape} in dimension {self.d}")
        acc = 0.0 + 0.0j
        for alpha, c in self.coeffs.items():
            term = c
            for zi, a in zip(z, alpha):
                if a:
                    term *= zi**a
            acc += term
        return complex(acc)

    def derivative(self, i: int) -> "Polynomial":
        """Complex partial derivative d/dz_i (1-based)."""
        out = {}
        for alpha, c in self.coeffs.items():
            a = alpha[i - 1]
            if a:
                beta = list(alpha)
                beta[i - 1] = a - 1
                out[tuple(beta)] = out.get(tuple(beta), 0) + a * c
        return Polynomial(self.d, out)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.d == other.d and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.d, frozenset(self.coeffs.items())))

    def __repr__(self):
        if self.is_zero:
            return "Polynomial(0)"
        terms = []
        for alpha in sorted(self.coeffs, key=lambda a: (sum(a), tuple(-x for x in a))):
            c = self.coeffs[alpha]
            mono = "*".join(
                f"z{i+1}" + (f"^{a}" if a > 1 else "")
                for i, a in enumerate(alpha)
                if a
            )
            terms.append(f"({c:g})" + ("*" + mono if mono else ""))
        return " + ".join(terms)

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.d != self.d:
                raise ValueError("dimension mismatch")
            return other
        if np.isscalar(other):
            return Polynomial.constant(self.d, other)
        return NotImplemented


class MatrixPolynomial:
    """Matrix with Polynomial entries; evaluates to a complex matrix."""

    def __init__(self, entries):
        rows = [list(r) for r in entries]
        if not rows or not rows[0]:
            raise ValueError("empty matrix polynomial")
        ncols = len(rows[0])
        dims = set()
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            for p in r:
                if not isinstance(p, Polynomial):
                    raise TypeError("entries must be Polynomial")
                dims.add(p.d)
        if len(dims) != 1:
            raise ValueError("mixed dimensions in matrix polynomial")
        self.entries = rows
        self.shape = (len(rows), ncols)
        self.d = dims.pop()

    @classmethod
    def from_scalar(cls, p: Polynomial) -> "MatrixPolynomial":
        return cls([[p]])

    @property
    def degree(self) -> int:
        return max(p.degree for r in self.entries for p in r)

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for r in self.entries for p in r)

    def homogeneous_degrees(self) -> list[int]:
        degs = set()
        for r in self.entries:
            for p in r:
                degs.update(p.homogeneous_degrees())
        return sorted(degs)

    def __call__(self, z) -> np.ndarray:
        out = np.empty(self.shape, dtype=complex)
        for i, row in enumerate(self.entries):
            for j, p in enumerate(row):
                out[i, j] = p(z)
        return out

    def sup_eval(self, z) -> float:
        """Largest singular value of the evaluated matrix."""
        m = self(z)
        if self.shape == (1, 1):
            return abs(m[0, 0])
        return float(np.linalg.norm(m, 2))


def as_matrix_polynomial(p) -> MatrixPolynomial:
    if isinstance(p, MatrixPolynomial):
        return p
    if isinstance(p, Polynomial):
        return MatrixPolynomial.from_scalar(p)
    raise TypeError(f"cannot interpret {type(p).__name__} as a matrix polynomial")
