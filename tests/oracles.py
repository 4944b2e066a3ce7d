"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's basis and block paths: dimensions
come from combinatorial monomial counting or exact rational row reduction,
complement projectors from exact rational Gram-Schmidt or from the full SVD
the basis was once built with, norms from direct enumeration,
monomial-ideal blocks and defects from their closed forms, operator norms
from singular values, gradients from central finite differences, and
points of a variety from the single-point Gauss-Newton the penalty ascent
used.
"""

from fractions import Fraction
from itertools import product
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from shiftlab.grading import monomial_basis, monomial_weights


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


def standard_monomials(gen_exponents, d, n):
    """Degree-n multi-indices that no generator exponent divides, in
    monomial_basis order: the orthogonal basis of H_n for a monomial ideal."""
    return [
        alpha for alpha in monomial_basis(d, n)
        if not any(all(a >= g for a, g in zip(alpha, gen)) for gen in gen_exponents)
    ]


def monomial_shift_block(gen_exponents, d, sigma, i, n):
    """Block of S_i : H_n -> H_{n+1} (i 1-based) for a monomial ideal, on the
    normalized standard monomials.

    ||z^alpha||^2 = c_n alpha!/n! with c_{n+1}/c_n = (n+1)/(n+2 sigma), so S_i
    sends e_alpha to sqrt((alpha_i+1)/(n+2 sigma)) e_(alpha+e_i), or to 0 when
    alpha+e_i lies in the ideal.
    """
    src = standard_monomials(gen_exponents, d, n)
    dst = {b: k for k, b in enumerate(standard_monomials(gen_exponents, d, n + 1))}
    B = np.zeros((len(dst), len(src)))
    for a, alpha in enumerate(src):
        beta = tuple(x + (k == i - 1) for k, x in enumerate(alpha))
        if beta in dst:
            B[dst[beta], a] = math.sqrt((alpha[i - 1] + 1) / (n + 2 * sigma))
    return B


def monomial_defects(gen_exponents, d, sigma, n):
    """Diagonals of I - sum_i S_i S_i* and I - sum_i S_i* S_i on H_n for a
    monomial ideal.

    A divisor of a standard monomial is standard, so S_i* sends e_beta to
    sqrt(beta_i/(n-1+2 sigma)) e_(beta-e_i) whenever beta_i >= 1, and the row
    defect is 1 - n/(n+2 sigma-1) for n >= 1 (1 at n = 0).  The column defect
    at e_alpha is 1 - sum over the i with alpha+e_i standard of
    (alpha_i+1)/(n+2 sigma).
    """
    src = standard_monomials(gen_exponents, d, n)
    dst = set(standard_monomials(gen_exponents, d, n + 1))
    row = np.full(len(src), 1.0 if n == 0 else 1.0 - n / (n + 2 * sigma - 1))
    col = np.ones(len(src))
    for a, alpha in enumerate(src):
        for i in range(d):
            if tuple(x + (k == i) for k, x in enumerate(alpha)) in dst:
                col[a] -= (alpha[i] + 1) / (n + 2 * sigma)
    return row, col


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


def _generator_columns(generators, d, n):
    """The multiples z^beta g of degree n, as coefficient columns over
    monomial_basis(d, n): a list of {position: coefficient} dicts."""
    idx = {a: k for k, a in enumerate(monomial_basis(d, n))}
    cols = []
    for g in generators:
        if g.degree > n:
            continue
        for beta in monomial_basis(d, n - g.degree):
            col = {}
            for alpha, c in g.coeffs.items():
                k = idx[tuple(b + a for b, a in zip(beta, alpha))]
                col[k] = col.get(k, 0) + c
            cols.append(col)
    return cols


def svd_complement_basis(generators, d, n, sigma, rank_tol):
    """(ideal basis, complement basis, rank margin) of degree n by the full
    SVD the library used before its pivoted QR.

    The multiples z^beta g, in weighted coordinates and scaled to unit norm,
    are the columns of A; with A = U S V^H, the rank r counts the singular
    values above rank_tol * s_0, I_n is U[:, :r] and H_n is U[:, r:], and the
    margin is min_j max(s_j / thr, thr / s_j).  With no multiple of degree n,
    H_n is everything and the margin is None.
    """
    sw = np.sqrt(monomial_weights(d, n, sigma))
    t = len(sw)
    cols = _generator_columns(generators, d, n)
    if not cols:
        return np.zeros((t, 0), dtype=complex), np.eye(t, dtype=complex), None
    A = np.zeros((t, len(cols)), dtype=complex)
    for j, col in enumerate(cols):
        for k, c in col.items():
            A[k, j] = c * sw[k]
    A /= np.linalg.norm(A, axis=0)
    U, s, _ = np.linalg.svd(A, full_matrices=True)
    thr = rank_tol * s[0]
    r = int(np.count_nonzero(s > thr))
    with np.errstate(divide="ignore"):
        margin = float(np.exp(np.abs(np.log(s / thr)).min()))
    return U[:, :r], U[:, r:], margin


def complement_projector_exact(generators, d, n, sigma):
    """Exact projector onto H_n in plain coefficient coordinates.

    The inner product of degree n has the rational Gram matrix
    G = diag(c_{sigma,n} alpha!/n!) (sigma = 1/2 or 1, where
    c_{1/2,n} = 1 and c_{1,n} = 1/(n+1)).  Gram-Schmidt in G over Fractions
    turns the multiples z^beta g into an orthogonal basis v_j of I_n
    (dependent columns leave a zero residual and are dropped), and the
    projector onto H_n is I - sum_j v_j (G v_j)^T / (v_j^T G v_j), returned
    as a float matrix.  The coefficients must be real (taken at their exact
    binary value).
    """
    c_n = {Fraction(1, 2): Fraction(1), Fraction(1): Fraction(1, n + 1)}[Fraction(sigma)]
    monos = monomial_basis(d, n)
    t = len(monos)
    G = [c_n * Fraction(math.prod(map(math.factorial, a)), math.factorial(n)) for a in monos]

    def dot(x, y):
        return sum(G[k] * x[k] * y[k] for k in range(t))

    basis = []
    for col in _generator_columns(generators, d, n):
        if any(c.imag != 0 for c in col.values()):
            raise ValueError("exact projector needs real coefficients")
        v = [Fraction(0)] * t
        for k, c in col.items():
            v[k] = Fraction(c.real)
        for u, uu in basis:
            f = dot(u, v) / uu
            v = [a - f * b for a, b in zip(v, u)]
        if any(v):
            basis.append((v, dot(v, v)))
    P = [[Fraction(int(i == j)) for j in range(t)] for i in range(t)]
    for v, vv in basis:
        Gv = [G[k] * v[k] for k in range(t)]
        for i in range(t):
            if v[i]:
                for j in range(t):
                    P[i][j] -= v[i] * Gv[j] / vv
    return np.array([[float(x) for x in row] for row in P])


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


def svd_operator_norm(mat):
    """Largest singular value the way the library once took it: a dense SVD
    for a matrix of at most ``shiftlab.operators.DENSE_NORM_CUTOFF`` rows and
    columns, ARPACK's ``svds`` at tol 1e-10 above (a dense matrix made CSR),
    in the matrix's own arithmetic, complex storage included.  The cutoff is
    read at call time, so a test that patches it moves both paths together.
    """
    from shiftlab import operators

    cutoff = operators.DENSE_NORM_CUTOFF
    mat = getattr(mat, "matrix", mat)  # an assembled BandedTruncation
    if sp.issparse(mat):
        if min(mat.shape) == 0 or mat.nnz == 0:
            return 0.0
        if max(mat.shape) <= cutoff:
            return float(np.linalg.norm(mat.toarray(), 2))
    else:
        mat = np.asarray(mat)
        if mat.size == 0 or not mat.any():
            return 0.0
        if max(mat.shape) <= cutoff:
            return float(np.linalg.norm(mat, 2))
    s = spla.svds(sp.csr_matrix(mat), k=1, return_singular_vectors=False,
                  tol=1e-10, maxiter=10000)
    return float(s[0])


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


def fd_gradient(fun, x, h=1e-6):
    """Central finite-difference gradient of a real function of a real vector
    (2 len(x) evaluations, error O(h^2) plus round-off of order eps/h)."""
    g = np.zeros_like(x)
    for k in range(len(x)):
        xp = x.copy()
        xp[k] += h
        xm = x.copy()
        xm[k] -= h
        g[k] = (fun(xp) - fun(xm)) / (2 * h)
    return g


def newton_to_variety(ideal, z0, newton_iters=60, newton_tol=1e-12):
    """Gauss-Newton on the generator system from one point z0, the way the
    penalty ascent polished its points onto the variety: a nonzero root, or
    None when a step is not finite, the residual ends above 1e-10 or the norm
    below 1e-8.  Each step is the least-squares solution of J step = -g."""
    if not ideal.generators:
        return z0.copy()
    jac = [[g.derivative(i) for i in range(1, ideal.d + 1)] for g in ideal.generators]
    z = z0.astype(complex).copy()
    for _ in range(newton_iters):
        g = np.array([p(z) for p in ideal.generators])
        if np.max(np.abs(g)) <= newton_tol:
            break
        J = np.array([[dp(z) for dp in row] for row in jac])
        step, *_ = np.linalg.lstsq(J, -g, rcond=None)
        if not np.all(np.isfinite(step)):
            return None
        z = z + step
    if ideal.residual_at(z) > 1e-10 or np.linalg.norm(z) < 1e-8:
        return None
    return z
