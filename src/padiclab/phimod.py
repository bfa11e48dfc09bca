"""Etale phi-modules over truncated Laurent series, presented by a
Frobenius matrix G: (phi(e_1),...,phi(e_d)) = (e_1,...,e_d) G.

Lattices are basis-change certificates whose lattice-basis Frobenius
matrix has nonnegative exponents (phi-stability).  Heights are decided
two independent ways: elementary divisors over k[[u]] (Smith form with
valuation pivoting) and direct membership solving through the adjugate
over W_n(F_q)[[u]]/u^M.  Decisions the truncation cannot certify raise
Indeterminate rather than guess.
"""

from __future__ import annotations

from itertools import permutations

from . import gf
from .errors import Indeterminate, Unsupported
from .rings import FFRing, Zmod
from .series import TruncSeries

# ---------------------------------------------------------------------------
# small exact matrices over TruncSeries


def mat_identity(ring, d, prec):
    return [[TruncSeries.one(ring, prec) if i == j else TruncSeries.zero(ring, prec)
             for j in range(d)] for i in range(d)]


def mat_scalar(ring, d, f: TruncSeries):
    z = TruncSeries.zero(ring, f.prec)
    return [[f if i == j else z for j in range(d)] for i in range(d)]


def mat_mul(A, B):
    d, m, k = len(A), len(B[0]), len(B)
    out = []
    for i in range(d):
        row = []
        for j in range(m):
            acc = A[i][0] * B[0][j]
            for t in range(1, k):
                acc = acc + A[i][t] * B[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(A, v):
    return [sum_series([A[i][j] * v[j] for j in range(len(v))]) for i in range(len(A))]


def sum_series(terms):
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc


def mat_frobenius(A, p):
    return [[a.frobenius(p) for a in row] for row in A]


def mat_scale(A, f):
    return [[a * f for a in row] for row in A]


def mat_det(A) -> TruncSeries:
    d = len(A)
    if d > 5:
        raise Unsupported("determinants by permutation expansion: d <= 5")
    ring = A[0][0].ring
    prec = min(a.prec for row in A for a in row)
    acc = TruncSeries.zero(ring, prec + sum(a._veff() for a in A[0]))
    for perm in permutations(range(d)):
        sign = perm_sign(perm)
        term = A[0][perm[0]]
        for i in range(1, d):
            term = term * A[i][perm[i]]
        acc = acc + (term if sign > 0 else -term)
    return acc


def perm_sign(perm):
    """The sign of a permutation given as a tuple of images."""
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def mat_adjugate(A):
    d = len(A)
    if d == 1:
        one = TruncSeries.one(A[0][0].ring, A[0][0].prec)
        return [[one]]
    out = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            minor = [[A[r][c] for c in range(d) if c != j] for r in range(d) if r != i]
            cof = mat_det(minor)
            out[j][i] = cof if (i + j) % 2 == 0 else -cof
    return out


# ---------------------------------------------------------------------------


class PhiModule:
    """Finite phi-module over the truncated Laurent ring, rank d,
    torsion level n, coefficient field F_q (q = p at n >= 2)."""

    def __init__(self, p: int, q: int, n: int, G, prec: int | None = None,
                 eisenstein=None):
        self.p = p
        self.q = q
        self.n = n
        self.d = len(G)
        self.G = G
        self.E = eisenstein
        if n == 1:
            self.ring = FFRing(gf.field(p, gf.degree(q, p)))
        else:
            if q != p:
                raise Unsupported("torsion level n >= 2 implemented for q = p")
            self.ring = Zmod(p, n)
        for row in G:
            if len(row) != self.d:
                raise ValueError("G must be square")
            for a in row:
                if a.ring != self.ring:
                    raise ValueError("G entries must live over the module ring")
        self.prec = prec if prec is not None else min(a.prec for r in G for a in r)

    def det(self) -> TruncSeries:
        return mat_det(self.G)

    def reduce_mod_p(self) -> "PhiModule":
        if self.n == 1:
            return self
        Gbar = [[a.reduce_mod_p() for a in row] for row in self.G]
        return PhiModule(self.p, self.p, 1, Gbar, eisenstein=self.E)

    def __repr__(self):
        return f"PhiModule(d={self.d}, n={self.n}, q={self.q})"


def is_etale(M: PhiModule) -> bool:
    """id (x) phi is invertible iff det G is a unit in the Laurent ring,
    i.e. nonzero mod p at this truncation."""
    det = M.det()
    if isinstance(M.ring, Zmod):
        return not det.reduce_mod_p().is_zero()
    return not det.is_zero()


class PhiLattice:
    """A phi-stable basis inside a PhiModule.

    basis is the change-of-basis matrix C (lattice basis in module
    coordinates); the lattice Frobenius C^-1 G phi(C) must have
    nonnegative exponents, which is checked at construction.
    """

    def __init__(self, module: PhiModule, basis=None):
        self.module = module
        ring, d, prec = module.ring, module.d, module.prec
        if basis is None:
            basis = mat_identity(ring, d, prec)
        self.basis = basis
        det = mat_det(basis)
        det_inv = det.inverse()
        binv = mat_scale(mat_adjugate(basis), det_inv)
        GL = mat_mul(mat_mul(binv, module.G), mat_frobenius(basis, module.p))
        for row in GL:
            for a in row:
                me = a.valuation()
                if me is not None and me < 0:
                    raise ValueError("basis is not phi-stable: "
                                     f"lattice Frobenius has exponent {me}")
                if a.prec < 0:
                    raise Indeterminate("truncation too small to certify phi-stability")
        self.lattice_frobenius = GL

    @property
    def d(self):
        return self.module.d

    def __repr__(self):
        return f"PhiLattice(d={self.d}, n={self.module.n})"


def stabilize_lattice(M: PhiModule) -> PhiLattice:
    """Smallest k >= 0 with u^k * (coordinate lattice) phi-stable:
    scaling the basis by u^k rescales the Frobenius matrix by
    u^((p-1)k)."""
    vmin = 0
    for row in M.G:
        for a in row:
            me = a.valuation()
            if me is not None:
                vmin = min(vmin, me)
    k = 0 if vmin >= 0 else (-vmin + M.p - 2) // (M.p - 1)
    uk = TruncSeries.monomial(M.ring, k, M.ring.one, M.prec)
    return PhiLattice(M, mat_scalar(M.ring, M.d, uk))


# --- elementary divisors over k[[u]]/u^M ---


def snf_u_exponents(A, p=None):
    """Exponents of the elementary divisors of a matrix over k[[u]],
    by valuation-pivoted elimination.  Certification: every pivot
    valuation must be < (remaining precision)/2, else Indeterminate.
    """
    d = len(A)
    work = [row[:] for row in A]
    exps = []
    for step in range(d):
        pivot = None
        pv = None
        for i in range(step, d):
            for j in range(step, d):
                v = work[i][j].valuation()
                if v is not None and (pv is None or v < pv):
                    pv, pivot = v, (i, j)
        prec_here = min(work[i][j].prec for i in range(step, d) for j in range(step, d))
        if pivot is None:
            raise Indeterminate("block vanishes at truncation; pivots uncertifiable")
        if 2 * pv >= prec_here:
            raise Indeterminate(f"pivot valuation {pv} too close to precision {prec_here}")
        i0, j0 = pivot
        work[step], work[i0] = work[i0], work[step]
        for row in work:
            row[step], row[j0] = row[j0], row[step]
        piv = work[step][step]
        piv_inv = piv.inverse()
        for i in range(step + 1, d):
            if work[i][step].is_zero():
                continue
            factor = work[i][step] * piv_inv
            work[i] = [work[i][j] - factor * work[step][j] for j in range(d)]
        for j in range(step + 1, d):
            if work[step][j].is_zero():
                continue
            factor = work[step][j] * piv_inv
            for i in range(step, d):
                work[i][j] = work[i][j] - factor * work[i][step]
        exps.append(pv)
    return exps


def u_height(L: PhiLattice) -> int:
    """Smallest h with u^h killing coker(id (x) phi); the largest
    elementary divisor exponent.  Torsion level 1 only."""
    if L.module.n != 1:
        raise Unsupported("u_height is the n = 1 notion; use height_divides for n >= 2")
    if not is_etale(L.module):
        raise ValueError("module is not etale")
    return max(snf_u_exponents(L.lattice_frobenius))


# --- membership decisions through the adjugate ---


def solve_in_lattice(B, b):
    """The unique Laurent solution x of B x = b, via adj(B) b / det(B).

    Returns the vector of series; raises Indeterminate when the
    precision of some entry drops below 0 (the nonnegativity of its
    support could then not be read off).
    """
    det = mat_det(B)
    if isinstance(det.ring, Zmod):
        if det.reduce_mod_p().is_zero():
            raise ValueError("matrix not invertible over the Laurent ring")
    elif det.is_zero():
        raise ValueError("matrix not invertible over the Laurent ring")
    det_inv = det.inverse()
    adj = mat_adjugate(B)
    x = mat_vec(adj, b)
    return [xi * det_inv for xi in x]


def _vector_integral(x) -> bool:
    for xi in x:
        if xi.prec < 0:
            raise Indeterminate("precision exhausted before integrality was visible")
        me = xi.valuation()
        if me is not None and me < 0:
            return False
    return True


def height_divides(L, U: TruncSeries) -> bool:
    """Whether the lattice has height dividing U: U * (basis) lies in
    the image of id (x) phi.

    L may be a PhiLattice, or a PhiModule whose coordinate basis is
    taken as the candidate; a candidate that is not phi-stable is not a
    phi-lattice and the answer is False.
    """
    if isinstance(L, PhiModule):
        try:
            L = PhiLattice(L)
        except ValueError:
            return False
    G = L.lattice_frobenius
    ring, d = L.module.ring, L.module.d
    if isinstance(ring, Zmod) and U.reduce_mod_p().is_zero():
        raise ValueError("U must not be divisible by p")
    for i in range(d):
        b = [U if j == i else TruncSeries.zero(ring, U.prec) for j in range(d)]
        x = solve_in_lattice(G, b)
        if not _vector_integral(x):
            return False
    return True


def lattice_contains(L1: PhiLattice, L2: PhiLattice, fmat) -> bool:
    """Whether f(L1) sits inside L2, for f given by a matrix over the
    Laurent ring in module coordinates."""
    target = mat_mul(fmat, L1.basis)
    B2 = L2.basis
    for i in range(L1.d):
        col = [target[r][i] for r in range(len(target))]
        x = solve_in_lattice(B2, col)
        if not _vector_integral(x):
            return False
    return True


def tensor_lattice(L1: PhiLattice, L2: PhiLattice) -> PhiLattice:
    """Kronecker product of the lattice Frobenius presentations."""
    M1, M2 = L1.module, L2.module
    if (M1.p, M1.q, M1.n) != (M2.p, M2.q, M2.n):
        raise ValueError("tensor factors over different base data")
    A, B = L1.lattice_frobenius, L2.lattice_frobenius
    d1, d2 = len(A), len(B)
    G = [[A[i1][j1] * B[i2][j2]
          for j1 in range(d1) for j2 in range(d2)]
         for i1 in range(d1) for i2 in range(d2)]
    mod = PhiModule(M1.p, M1.q, M1.n, G, eisenstein=M1.E)
    return PhiLattice(mod)


# --- the cyclotomic family ---


def cyclotomic_module(m: int, n: int, E, q: int | None = None,
                      prec: int = 24) -> PhiModule:
    """Rank-1 module with Frobenius c^-m E(u)^m (E Eisenstein,
    c = E(0)/p).  Etale for every m; a phi-lattice of E-height <= m
    exists iff m >= 0."""
    p = E.p
    if q is None:
        q = p
    ring = FFRing(gf.field(p, gf.degree(q, p))) if n == 1 else Zmod(p, n)
    if n > 1 and q != p:
        raise Unsupported("torsion level n >= 2 implemented for q = p")
    Eser = E.as_series(ring, prec)
    cinv = ring.inv(ring.of_int(E.c_unit))
    base = Eser.scale(cinv)
    if m >= 0:
        g = TruncSeries.one(ring, prec)
        for _ in range(m):
            g = g * base
    else:
        binv = base.inverse()
        g = TruncSeries.one(ring, binv.prec)
        for _ in range(-m):
            g = g * binv
    return PhiModule(p, q, n, [[g]], eisenstein=E)
