"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's weighted-SVD path: dimensions come
from combinatorial monomial counting or exact rational row reduction, and
norms from direct enumeration.
"""

from fractions import Fraction
from itertools import product
import math

from shiftlab.grading import monomial_basis


def monomial_ideal_degree_dim(gen_exponents, d, n):
    """dim I_n for a monomial ideal: count degree-n monomials divisible
    by some generator exponent."""
    count = 0
    for alpha in monomial_basis(d, n):
        if any(
            all(a >= g for a, g in zip(alpha, gen)) and sum(gen) <= n
            for gen in gen_exponents
        ):
            count += 1
    return count


def rational_rank(columns):
    """Rank over Q of integer/rational column vectors, by exact elimination."""
    rows = [list(col) for col in zip(*columns)] if columns else []
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    col = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col] / pv
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def ideal_degree_dim_exact(generators, d, n):
    """dim I_n by exact rational rank of the spanning set z^beta * g."""
    idx = {a: k for k, a in enumerate(monomial_basis(d, n))}
    cols = []
    for g in generators:
        k = g.degree
        if k > n:
            continue
        for beta in monomial_basis(d, n - k):
            col = [Fraction(0)] * len(idx)
            for alpha, c in g.coeffs.items():
                if c.imag != 0:
                    raise ValueError("rational oracle needs real coefficients")
                gamma = tuple(b + a for b, a in zip(beta, alpha))
                col[idx[gamma]] += Fraction(c.real).limit_denominator(10**12)
            cols.append(col)
    return rational_rank(cols)


def monomial_window_norm(beta, m, M):
    """||P_[m,M] M_{z^beta} P_[m,M]|| on the free sigma = 1/2 space.

    M_{z^beta} sends z^alpha to z^(alpha+beta) and distinct monomials are
    orthogonal, so the compression's Gram matrix is diagonal with entries
    ||z^(alpha+beta)||^2 / ||z^alpha||^2 for m <= |alpha| <= M - |beta|,
    where ||z^alpha||^2 = alpha!/|alpha|!.  The largest is found exactly.
    """
    d, k = len(beta), sum(beta)

    def norm_sq(alpha):
        num = 1
        for a in alpha:
            num *= math.factorial(a)
        return Fraction(num, math.factorial(sum(alpha)))

    best = Fraction(0)
    for n in range(m, M - k + 1):
        for alpha in monomial_basis(d, n):
            shifted = tuple(a + b for a, b in zip(alpha, beta))
            best = max(best, norm_sq(shifted) / norm_sq(alpha))
    return math.sqrt(best)


def kernel_series_exact(r2, two_sigma, N):
    """Exact (total, tail) of the kernel series sum_n c_n^{-1} r2^n, where the
    tail is the sum of the terms with n > N.

    For an integer 2*sigma = s, c_n^{-1} = Gamma(s+n)/(Gamma(n+1)Gamma(s)) is
    the binomial coefficient C(n+s-1, n), and the series is (1 - r2)^(-s).
    r2 is a rational (a float is taken at its exact binary value).
    """
    r2 = Fraction(r2)
    total = 1 / (1 - r2) ** two_sigma
    partial = sum(math.comb(n + two_sigma - 1, n) * r2**n for n in range(N + 1))
    return total, total - partial


def sup_abs_on_sphere_grid(p, d, n_theta=200):
    """Crude grid maximum of |p| on the real-positive part of the sphere
    (enough for symmetric test polynomials in d=2)."""
    assert d == 2
    best = 0.0
    for k in range(n_theta + 1):
        t = math.pi / 2 * k / n_theta
        z = (math.cos(t), math.sin(t))
        best = max(best, abs(p(z)))
    return best
