"""Small dense matrices over a commutative ring.

A matrix is a list of rows and a vector a list; entries are any values
with Python + - * (TruncSeries, FFElt, int).  Sums fold left from the
first product, so no zero is needed and a truncated series keeps the
precision its terms give it.

Only inverse divides; order is the one power loop for the order of a
matrix in GL_d.  The characteristic polynomial is Berkowitz's
division-free algorithm (S. J. Berkowitz, IPL 18, 1984), O(d^4) ring
operations, so det and the adjugate (Cayley-Hamilton, Horner in A) are
valid over rings with zero divisors such as W_n(F_q)[[u]]/u^M.
"""

from __future__ import annotations


def dot(u, v):
    """sum u_i v_i, folded left from the first product."""
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


def det(A):
    c0 = charpoly(A)[0]
    return c0 if len(A) % 2 == 0 else -c0


def adjugate(A, one):
    """adj(A) = (-1)^(d+1) (A^(d-1) + c_(d-1) A^(d-2) + ... + c_1 I), by
    Cayley-Hamilton, evaluated by Horner in A; one is used at d = 1."""
    d = len(A)
    if d == 1:
        return [[one]]
    c = charpoly(A)
    Q = [row[:] for row in A]
    for k in range(d - 1, 0, -1):
        if k < d - 1:
            Q = mul(Q, A)
        for i in range(d):
            Q[i][i] = Q[i][i] + c[k]
    return Q if d % 2 == 1 else [[-a for a in row] for row in Q]


def inverse(A, one, zero):
    """Gauss-Jordan inverse over a field whose elements have .inverse()
    and are false exactly when zero; ZeroDivisionError when singular."""
    d = len(A)
    work = [list(row) + e for row, e in zip(A, scalar(d, one, zero))]
    for c in range(d):
        piv = next((r for r in range(c, d) if work[r][c]), None)
        if piv is None:
            raise ZeroDivisionError("matrix not invertible")
        work[c], work[piv] = work[piv], work[c]
        inv = work[c][c].inverse()
        work[c] = [x * inv for x in work[c]]
        for r in range(d):
            if r != c and work[r][c]:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return [row[d:] for row in work]


def order(A, one, zero, bound):
    """The least k in [1, bound] with A^k = I, or None: the power loop,
    over a ring whose elements compare by ==."""
    ident = scalar(len(A), one, zero)
    power = A
    for k in range(1, bound + 1):
        if power == ident:
            return k
        power = mul(power, A)
    return None
