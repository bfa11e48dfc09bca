"""Etale phi-modules over truncated Laurent series, presented by a
Frobenius matrix G: (phi(e_1),...,phi(e_d)) = (e_1,...,e_d) G.

Lattices are basis-change certificates whose lattice-basis Frobenius
matrix has nonnegative exponents (phi-stability).  Heights are decided
two independent ways: elementary divisors over k[[u]] (Smith form with
valuation pivoting) and direct membership solving through the adjugate
over W_n(F_q)[[u]]/u^M.  The coordinate basis is the identity, exact:
the coordinate lattice's Frobenius is G itself.  One characteristic
polynomial serves each det/adjugate pair, and a module builds one for
G, once: is_etale reads its det and the coordinate lattice its
adjugate; a lattice of any other basis builds its own.  Decisions the
truncation cannot certify raise Indeterminate rather than guess.  A
module's coefficient ring is rings.module_ring's.
"""

from __future__ import annotations

import functools

from . import matrix
from .errors import Indeterminate, Unsupported
from .rings import Zmod, module_ring
from .series import TruncSeries

# ---------------------------------------------------------------------------
# small exact matrices over TruncSeries: the arithmetic is padiclab.matrix;
# mat_det and mat_adjugate are named for perfbench's tracer; mat_mul is public


def mat_mul(A, B):
    return matrix.mul(A, B)


def _balanced(A):
    """r, c and B with A = diag(u^r) B diag(u^c), the least valuation
    in each row and column of B being 0.  The shifts are exact.  On B
    the intermediate terms of Berkowitz's algorithm, some of which
    cancel, have valuation >= 0; on A a cancelling term of low valuation
    would lower the tracked precision of det and adjugate."""
    r = [min(a._veff() for a in row) for row in A]
    B = [[a.shift(-ri) for a in row] for row, ri in zip(A, r)]
    c = [min(a._veff() for a in col) for col in zip(*B)]
    return r, c, [[a.shift(-cj) for a, cj in zip(row, c)] for row in B]


class _Charpoly:
    """A = diag(u^r) B diag(u^c) (_balanced) and the one characteristic
    polynomial of B that det A and adj A share: det A = u^s det B and
    adj(A)_ij = u^(s - c_i - r_j) adj(B)_ij, s = sum(r) + sum(c); the
    adjugate by Horner on it (matrix.adjugate), whose d = 1 case is
    1 at the precision of A's entry."""

    def __init__(self, A):
        self.one = TruncSeries.one(A[0][0].ring, A[0][0].prec)
        self.r, self.c, self.B = _balanced(A)
        self.s = sum(self.r) + sum(self.c)
        self.poly = matrix.charpoly(self.B)

    def det(self) -> TruncSeries:
        return matrix.charpoly_det(self.poly).shift(self.s)

    def det_adjugate(self):
        s = self.s
        adj = matrix.adjugate(self.B, self.poly, self.one)
        return self.det(), [[a.shift(s - ci - rj) for a, rj in zip(row, self.r)]
                            for row, ci in zip(adj, self.c)]


def _charpoly_of(A):
    """A itself when it is a _Charpoly (a module's, built once), else A's."""
    return A if isinstance(A, _Charpoly) else _Charpoly(A)


def mat_det(A) -> TruncSeries:
    """det A, A a matrix or its _Charpoly."""
    return _charpoly_of(A).det()


def mat_adjugate(A):
    """(det A, adj A) from one characteristic polynomial, the det equal
    to mat_det(A); A a matrix or its _Charpoly."""
    return _charpoly_of(A).det_adjugate()


# ---------------------------------------------------------------------------


class PhiModule:
    """Finite phi-module over the truncated Laurent ring, rank d,
    torsion level n, coefficient field F_q (q = p at n >= 2).  G is not
    changed after construction: its det and adjugate are kept."""

    def __init__(self, p: int, q: int, n: int, G):
        self.p = p
        self.q = q
        self.n = n
        self.d = len(G)
        self.G = G
        if n > 1 and q != p:
            raise Unsupported("torsion level n >= 2 implemented for q = p")
        self.ring = module_ring(p, q, n)
        for row in G:
            if len(row) != self.d:
                raise ValueError("G must be square")
            for a in row:
                if a.ring != self.ring:
                    raise ValueError("G entries must live over the module ring")
        self.prec = min(a.prec for r in G for a in r)

    @functools.cached_property
    def _charpoly(self):
        return _Charpoly(self.G)

    @functools.cached_property
    def _det_adjugate(self):
        return mat_adjugate(self._charpoly)

    def det(self) -> TruncSeries:
        return mat_det(self._charpoly)

    def __repr__(self):
        return f"PhiModule(d={self.d}, n={self.n}, q={self.q})"


def _zero_mod_p(f: TruncSeries) -> bool:
    """Whether f is 0 mod p at its truncation."""
    return (f.reduce_mod_p() if isinstance(f.ring, Zmod) else f).is_zero()


def is_etale(M: PhiModule) -> bool:
    """id (x) phi is invertible iff det G is a unit in the Laurent ring,
    i.e. nonzero mod p.  True when a coefficient below the truncation
    shows it; a truncation cannot certify a non-unit, so otherwise
    Indeterminate."""
    if _zero_mod_p(M.det()):
        raise Indeterminate("det G is 0 mod p to its precision; a unit may lie beyond it")
    return True


class PhiLattice:
    """A phi-stable basis inside a PhiModule.

    basis is the change-of-basis matrix C (lattice basis in module
    coordinates); the lattice Frobenius C^-1 G phi(C) must have
    nonnegative exponents, which is checked at construction.
    """

    def __init__(self, module: PhiModule, basis=None):
        self.module = module
        if basis is None:
            ring, prec = module.ring, module.prec
            self.basis = matrix.scalar(module.d, TruncSeries.one(ring, prec),
                                       TruncSeries.zero(ring, prec))
            GL = module.G
        else:
            self.basis = basis
            binv, frob = _inverse_and_frobenius(basis)
            GL = mat_mul(mat_mul(binv, module.G), frob)
        for row in GL:
            for a in row:
                me = a.valuation()
                if me is not None and me < 0:
                    raise ValueError("basis is not phi-stable: "
                                     f"lattice Frobenius has exponent {me}")
                if a.prec < 0:
                    raise Indeterminate("truncation too small to certify phi-stability")
        self.lattice_frobenius = GL

    @functools.cached_property
    def _frobenius_inverse(self):
        """(adj, det^-1) of the lattice Frobenius, for height_divides: the
        module's det and adjugate when it is G itself (the coordinate
        lattice), else its own."""
        GL = self.lattice_frobenius
        det, adj = self.module._det_adjugate if GL is self.module.G else mat_adjugate(GL)
        if _zero_mod_p(det):
            raise Indeterminate("det is 0 mod p to its precision; invertibility is not visible")
        return adj, det.inverse()

    def __repr__(self):
        return f"PhiLattice(d={self.module.d}, n={self.module.n})"


def _inverse_and_frobenius(basis):
    """(C^-1, phi(C)) of a change of basis C, C^-1 = adj(C) det(C)^-1."""
    det, adj = mat_adjugate(basis)
    det_inv = det.inverse()
    return ([[a * det_inv for a in row] for row in adj],
            [[a.frobenius() for a in row] for row in basis])


def stabilize_lattice(M: PhiModule) -> PhiLattice:
    """Smallest k >= 0 with u^k * (coordinate lattice) phi-stable:
    scaling the basis by u^k rescales the Frobenius matrix by
    u^((p-1)k)."""
    vals = [a.valuation() for row in M.G for a in row]
    vmin = min([0] + [v for v in vals if v is not None])
    k = (-vmin + M.p - 2) // (M.p - 1)          # ceil(-vmin / (p - 1))
    uk = TruncSeries.monomial(M.ring, k, M.ring.one, M.prec)
    return PhiLattice(M, matrix.scalar(M.d, uk, TruncSeries.zero(M.ring, uk.prec)))


# --- elementary divisors over k[[u]]/u^M ---


def snf_u_exponents(A):
    """Exponents of the elementary divisors of a matrix over k[[u]],
    by valuation-pivoted elimination.  Certification: every pivot valuation
    must be below the block's least precision, else Indeterminate.
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
        if pv >= prec_here:
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
    elementary divisor exponent.  Torsion level 1 only; Indeterminate
    unless the module is visibly etale."""
    if L.module.n != 1:
        raise Unsupported("u_height is the n = 1 notion; use height_divides for n >= 2")
    is_etale(L.module)
    return max(snf_u_exponents(L.lattice_frobenius))


# --- membership decisions through the adjugate ---


def height_divides(L, U: TruncSeries) -> bool:
    """Whether the lattice has height dividing U: U * (basis) lies in
    the image of id (x) phi.

    L may be a PhiLattice, or a PhiModule whose coordinate basis is
    taken as the candidate; a candidate that is not phi-stable is not a
    phi-lattice and the answer is False.  ValueError when U is divisible
    by p, at every n: at n = 1 that means U = 0.

    U e_j is in the image iff x = adj(GL) U e_j det(GL)^-1, column j of
    adj(GL) times U det(GL)^-1, is integral, GL the lattice Frobenius.
    Indeterminate when an entry's precision drops below 0: the
    nonnegativity of its support is then not visible.
    """
    if _zero_mod_p(U):
        raise ValueError("U must not be divisible by p")
    if isinstance(L, PhiModule):
        try:
            L = PhiLattice(L)
        except ValueError:
            return False
    adj, det_inv = L._frobenius_inverse
    w = U * det_inv
    for j in range(L.module.d):
        for row in adj:
            x = row[j] * w
            if x.prec < 0:
                raise Indeterminate("precision exhausted before integrality was visible")
            me = x.valuation()
            if me is not None and me < 0:
                return False
    return True


# --- the cyclotomic family ---


def cyclotomic_module(m: int, n: int, E, q: int | None = None,
                      prec: int = 24) -> PhiModule:
    """Rank-1 module with Frobenius c^-m E(u)^m (E Eisenstein,
    c = E(0)/p).  Etale for every m; a phi-lattice of E-height <= m
    exists iff m >= 0."""
    p = E.p
    if q is None:
        q = p
    ring = module_ring(p, q, n)
    Eser = E.as_series(ring, prec)
    cinv = ring.inv(ring.of_int(E.c_unit))
    base = Eser.scale(cinv)
    # a linear loop, not padic.power: the tracked precision depends on the product order
    step = base if m >= 0 else base.inverse()
    g = TruncSeries.one(ring, step.prec)
    for _ in range(abs(m)):
        g = g * step
    return PhiModule(p, q, n, [[g]])
