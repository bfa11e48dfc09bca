"""Small dense matrices over a commutative ring.

A matrix is a list of rows and a vector a list; entries are any values
with Python + - * (TruncSeries, FFElt, int).  Sums fold left from the
first product, so no zero is needed and a truncated series keeps the
precision its terms give it; series over residues (Zmod, a prime field)
sum in one packed pass with the same result (series.TruncSeries.dot).

Only inverse divides, once: adj(A) det(A)^-1.  (The order of a matrix
over a finite field is gf.GF.matrix_order's.)  The characteristic polynomial
is Berkowitz's division-free algorithm (S. J. Berkowitz, IPL 18, 1984),
O(d^4) ring operations, so det and the adjugate (Cayley-Hamilton, Horner
in A) are valid over rings with zero divisors such as W_n(F_q)[[u]]/u^M.
One characteristic polynomial serves each det/adjugate pair: a caller
builds it once (charpoly) and asks charpoly_det and adjugate of it.
"""

from __future__ import annotations


def dot(u, v):
    """sum u_i v_i, folded left from the first product, or by the first
    entry's class when it sums rows itself (series.TruncSeries.dot)."""
    own = getattr(type(u[0]), "dot", None)
    if own is not None:
        return own(u, v)
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


def mul(A, B):
    cols = list(zip(*B))
    return [[dot(row, col) for col in cols] for row in A]


def mat_vec(A, v):
    return [dot(row, v) for row in A]


def vec_mat(v, A):
    return [dot(v, col) for col in zip(*A)]


def scalar(d, c, zero):
    """The d x d matrix c I."""
    return [[c if i == j else zero for j in range(d)] for i in range(d)]


def charpoly(A):
    """[c_0, ..., c_(d-1)] with det(x I - A) = x^d + c_(d-1) x^(d-1) + ... + c_0.

    Berkowitz: with A_k the leading k x k block and A_(k+1) =
    [[A_k, C], [R, a]], the coefficients of the next block's polynomial
    (highest degree first) are the Toeplitz convolution of the previous
    ones with 1, -a, -R C, -R A_k C, ..., -R A_k^(k-1) C.  The leading
    1 is kept implicit, so no ring constant is ever needed.
    """
    P = []                      # det(x I - A_k) below its leading 1, highest first
    for k in range(len(A)):
        Ak = [row[:k] for row in A[:k]]
        R, v = A[k][:k], [row[k] for row in A[:k]]
        t = [-A[k][k]]
        for m in range(k):
            t.append(-dot(R, v))
            if m + 1 < k:
                v = mat_vec(Ak, v)
        # (1, P) convolved with (1, t): the new coefficient of x^(k-i) is
        # P_i + t_i + sum_(j < i) t_(i-j-1) P_j, indices from 0
        new = []
        for i in range(k + 1):
            acc = t[i] if i == k else P[i] + t[i]
            for j in range(i):
                acc = acc + t[i - j - 1] * P[j]
            new.append(acc)
        P = new
    return P[::-1]


def charpoly_det(c):
    """det A = (-1)^d c_0 from c = charpoly(A)."""
    return c[0] if len(c) % 2 == 0 else -c[0]


def det(A):
    return charpoly_det(charpoly(A))


def adjugate(A, c, one):
    """adj(A) = (-1)^(d+1) (A^(d-1) + c_(d-1) A^(d-2) + ... + c_1 I) from
    c = charpoly(A), by Cayley-Hamilton, evaluated by Horner in A; one
    is used at d = 1."""
    d = len(A)
    if d == 1:
        return [[one]]
    Q = [row[:] for row in A]
    for k in range(d - 1, 0, -1):
        if k < d - 1:
            Q = mul(Q, A)
        for i in range(d):
            Q[i][i] = Q[i][i] + c[k]
    return Q if d % 2 == 1 else [[-a for a in row] for row in Q]


def inverse(A, one):
    """adj(A) det(A)^-1 over a field whose elements have .inverse(),
    which raises ZeroDivisionError when A is singular; det and adjugate
    from one characteristic polynomial."""
    c = charpoly(A)
    inv = charpoly_det(c).inverse()
    return [[a * inv for a in row] for row in adjugate(A, c, one)]

