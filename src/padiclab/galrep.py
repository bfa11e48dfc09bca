"""Constructive mod-p functor from Frobenius matrices to Galois data.

For a unit-root matrix G over F_q[[u]]/u^M the solutions of
x^(p) = x G form an F_p-space of dimension d once the residue field is
large enough; solutions are produced by enumerating or linearizing the
residue equation and then running the coefficient recursion

    x_m = (sigma(x_{m/p}) [p | m] - sum_{j>=1} x_{m-j} G_j) G_0^{-1}.

The arithmetic-Frobenius action on the solution space is the
unramified Galois representation attached to G; rank-1 non-unit
matrices c u^a are solved in the fractional-exponent model instead,
where the tame character shows up through the exponent a/(p-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product

import numpy as np

from . import gf, perfseries
from .errors import ExtensionCapExceeded, Unsupported
from .phimod import PhiModule, perm_sign
from .rings import FFRing
from .series import TruncSeries

_ENUM_LIMIT = 200_000
_ENUM_SOLVE_CAP = 20_000


# --- small dense linear algebra over a GF field ---


def ff_vec_mat(v, A):
    fld = A[0][0].field
    return [sum((v[i] * A[i][j] for i in range(len(v))), start=fld.zero)
            for j in range(len(A[0]))]


def ff_mat_inv(A):
    fld = A[0][0].field
    d = len(A)
    work = [list(row) + [fld.one if i == j else fld.zero for j in range(d)]
            for i, row in enumerate(A)]
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


# ---------------------------------------------------------------------------


@dataclass
class SolutionSet:
    """All p^d solutions of x^(p) = x G, closed under F_p-combinations.

    basis: d solutions whose F_p-span is the whole set; solutions and
    the enumerated list are ordered lexicographically by the residue
    coordinates' field codes.
    """

    base_field: gf.GF
    field: gf.GF
    s: int
    d: int
    prec: int
    basis: list
    all: list = dc_field(default=None)

    @property
    def cardinality(self) -> int:
        return self.base_field.p ** len(self.basis)

    def solutions(self):
        if self.all is None:
            p = self.base_field.p
            ring = FFRing(self.field)
            combos = []
            for coeffs in product(range(p), repeat=len(self.basis)):
                vec = [TruncSeries.zero(ring, self.prec) for _ in range(self.d)]
                for c, b in zip(coeffs, self.basis):
                    if c:
                        vec = [v + bi.scale(self.field.el(c)) for v, bi in zip(vec, b)]
                combos.append(tuple(vec))
            combos.sort(key=_residue_key)
            self.all = combos
        return self.all


def _residue_key(vec):
    out = []
    for s in vec:
        c = s.coeffs.get(0)
        out.append(0 if c is None else s.ring.field.code(c))
    return tuple(out)


def _as_matrix(G):
    if isinstance(G, PhiModule):
        if G.n != 1:
            raise Unsupported("the mod-p functor takes torsion level 1")
        return G.G
    return G


def _residue_matrix(G):
    return [[a.coeffs.get(0, a.ring.field.zero) for a in row] for row in G]


def _residue_solutions_enum(G0, ext, p):
    """Brute force over ext^d; deterministic order by codes."""
    d = len(G0)
    if ext.order ** d > _ENUM_LIMIT:
        raise Unsupported("enumeration domain too large")
    G0e = [[ext.coerce(a) for a in row] for row in G0]
    sols = []
    for codes in product(range(ext.order), repeat=d):
        x = [ext.from_code(c) for c in codes]
        if all(x[j] ** p == sum((x[i] * G0e[i][j] for i in range(d)), start=ext.zero)
               for j in range(d)):
            sols.append(x)
    return sols


def _residue_basis_linearized(G0, ext, p):
    """F_p-basis of { x : sigma(x) = x G0 } inside ext^d, by kernel of
    the F_p-linear operator sigma - (. G0)."""
    d = len(G0)
    m = ext.fp_degree
    G0e = [[ext.coerce(a) for a in row] for row in G0]
    cols = []
    for j in range(d):
        for k in range(m):
            vec = [0] * m
            vec[k] = 1
            x = [ext.zero] * d
            x[j] = ext.from_fp(vec)
            tx = [ext.frob_p(x[j]) if i == j else ext.zero for i in range(d)]
            gx = ff_vec_mat(x, G0e)
            img = [a - b for a, b in zip(tx, gx)]
            cols.append(np.concatenate([np.array(ext.to_fp(c), dtype=np.int64)
                                        for c in img]))
    mat = np.stack(cols, axis=1) % ext.p
    basis = gf.fp_kernel(mat, ext.p)
    out = []
    for v in basis:
        out.append([ext.from_fp(v[j * m:(j + 1) * m]) for j in range(d)])
    return out


def _fp_span_basis(vectors, ext, d, p):
    """Reduce a set of residue solutions to an F_p-basis (deterministic)."""
    m = ext.fp_degree
    rows = []
    keep = []
    seen = np.zeros((0, d * m), dtype=np.int64)
    for x in sorted(vectors, key=lambda xs: tuple(ext.code(c) for c in xs)):
        flat = np.concatenate([np.array(ext.to_fp(c), dtype=np.int64) for c in x])
        if not flat.any():
            continue
        test = np.concatenate([seen, flat.reshape(1, -1)]) if seen.size else flat.reshape(1, -1)
        _, piv = gf.fp_rref(test, p)
        if len(piv) == test.shape[0]:
            seen = test
            keep.append(x)
    return keep


def solve_unit_root(G, s_max: int = 64, enumeration: bool | None = None) -> SolutionSet:
    """Solution set of x^(p) = x G for G with G(0) invertible.

    The residue extension degree s is increased until the residue
    equation has p^d solutions (the splitting degree can have odd prime
    factors, so every s up to the cap is tried).  Residue solving is by
    enumeration for d <= 2 and by F_p-linearization for larger d.
    """
    G = _as_matrix(G)
    ring = G[0][0].ring
    if not isinstance(ring, FFRing):
        raise Unsupported("unit-root solver works mod p")
    base = ring.field
    p = base.p
    d = len(G)
    prec = min(a.prec for row in G for a in row)
    G0 = _residue_matrix(G)
    try:
        ff_mat_inv(G0)
    except ZeroDivisionError:
        raise Unsupported("G(0) is not invertible: not the unit-root case") from None
    if enumeration is None:
        enumeration = d <= 2
    for s in range(1, s_max + 1):
        ext = gf.extension(base, s)
        if enumeration and ext.order ** d <= _ENUM_SOLVE_CAP:
            sols = _residue_solutions_enum(G0, ext, p)
            if len(sols) == p ** d:
                basis = _fp_span_basis(sols, ext, d, p)
                break
        else:
            basis = _residue_basis_linearized(G0, ext, p)
            if len(basis) == d:
                break
    else:
        raise ExtensionCapExceeded(f"no splitting field up to degree {s_max}")
    full = [_extend_solution(G, x0, ext, prec) for x0 in basis]
    for sol in full:
        _verify_solution(G, sol, ext)
    return SolutionSet(base, ext, s, d, prec, full)


def _extend_solution(G, x0, ext, prec):
    """Coefficient recursion from the residue solution x0."""
    ring = FFRing(ext)
    d = len(G)
    p = ext.p
    Gcoef = {}
    for i in range(d):
        for j in range(d):
            for e, c in G[i][j].coeffs.items():
                Gcoef.setdefault(e, [[ext.zero] * d for _ in range(d)])[i][j] = ext.coerce(c)
    G0inv = ff_mat_inv(Gcoef[0])
    xs = [list(x0)]
    for mdeg in range(1, prec):
        rhs = [ext.zero] * d
        if mdeg % p == 0:
            rhs = [ext.frob_p(c) for c in xs[mdeg // p]]
        acc = [ext.zero] * d
        for j, Gj in Gcoef.items():
            if 1 <= j <= mdeg:
                acc = [a + b for a, b in zip(acc, ff_vec_mat(xs[mdeg - j], Gj))]
        vec = [r - a for r, a in zip(rhs, acc)]
        xs.append(ff_vec_mat(vec, G0inv))
    out = []
    for i in range(d):
        out.append(TruncSeries(ring, {m: xs[m][i] for m in range(prec)}, prec))
    return tuple(out)


def _verify_solution(G, sol, ext):
    ring = FFRing(ext)
    Ge = [[TruncSeries(ring, {e: ext.coerce(c) for e, c in a.coeffs.items()}, a.prec)
           for a in row] for row in G]
    d = len(G)
    for j in range(d):
        lhs = sol[j].frobenius()
        rhs = sol[0] * Ge[0][j]
        for i in range(1, d):
            rhs = rhs + sol[i] * Ge[i][j]
        if not (lhs - rhs).is_zero():
            raise ArithmeticError("recursion produced a non-solution")


# ---------------------------------------------------------------------------


@dataclass
class GaloisActionRep:
    """Arithmetic Frobenius acting on an F_p-basis of the solutions."""

    p: int
    matrix: list  # d x d over F_p (ints)

    def char_poly(self):
        return charpoly_mod_p(self.matrix, self.p)

    def order(self, cap: int = 10_000) -> int:
        ident = [[1 if i == j else 0 for j in range(len(self.matrix))]
                 for i in range(len(self.matrix))]
        acc = self.matrix
        for k in range(1, cap + 1):
            if acc == ident:
                return k
            acc = [[sum(acc[i][t] * self.matrix[t][j] for t in range(len(acc))) % self.p
                    for j in range(len(acc))] for i in range(len(acc))]
        raise ArithmeticError("action has no small order; not invertible?")


def frobenius_action(S: SolutionSet) -> GaloisActionRep:
    """Matrix of x -> x^(q) (coefficientwise q-power, u fixed) on the
    F_p-basis of the solution set."""
    ext, base, p = S.field, S.base_field, S.base_field.p
    m = ext.fp_degree
    res = []
    for b in S.basis:
        res.append([bi.coeffs.get(0, ext.zero) for bi in b])
    cols = [np.concatenate([np.array(ext.to_fp(c), dtype=np.int64) for c in x])
            for x in res]
    basis_mat = np.stack(cols, axis=1) % p
    f = base.fp_degree  # q = p^f
    A = []
    for x in res:
        y = x
        for _ in range(f):
            y = [ext.frob_p(c) for c in y]
        target = np.concatenate([np.array(ext.to_fp(c), dtype=np.int64) for c in y])
        coords = gf.fp_solve(basis_mat, target, p)
        if coords is None:
            raise ArithmeticError("q-Frobenius does not preserve the solution space")
        A.append([int(c) for c in coords])
    # columns of the action matrix are the images
    d = len(A)
    return GaloisActionRep(p, [[A[j][i] for j in range(d)] for i in range(d)])


def charpoly_mod_p(A, p: int):
    """Coefficients (low degree first) of det(xI - A) mod p; d <= 4."""
    d = len(A)
    polys = [[[(-A[i][j]) % p] + ([1] if i == j else []) for j in range(d)]
             for i in range(d)]

    def pmul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    def padd(a, b):
        n = max(len(a), len(b))
        return [((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                for i in range(n)]

    from itertools import permutations
    acc = [0]
    for perm in permutations(range(d)):
        sign = perm_sign(perm)
        term = [1]
        for i in range(d):
            term = pmul(term, polys[i][perm[i]])
        if sign < 0:
            term = [(-t) % p for t in term]
        acc = padd(acc, term)
    acc += [0] * (d + 1 - len(acc))
    return tuple(acc[:d + 1])


def unramified_to_phimod(A, q: int, prec: int = 20) -> PhiModule:
    """Constant-matrix module whose solution set carries the unramified
    representation with arithmetic Frobenius A (over F_p)."""
    p = min((k for k in range(2, q + 1) if q % k == 0), default=0)  # least prime factor
    ring = FFRing(gf.field(p, gf.degree(q, p)))
    d = len(A)
    G = [[TruncSeries(ring, {0: ring.of_int(A[i][j])}, prec) for j in range(d)]
         for i in range(d)]
    return PhiModule(p, q, 1, G)


# ---------------------------------------------------------------------------


def solve_rank1(a: int, c, base_field: gf.GF, s_max: int = 16, prec=8):
    """Solutions of x^(p) = c u^a x in the fractional-exponent model:
    zero plus the F_p^x multiples of gamma u^(a/(p-1)) with
    gamma^(p-1) = c.  The exponent a/(p-1) is the tame-character datum.
    """
    p = base_field.p
    c = base_field.coerce(c)
    if not c:
        raise ValueError("c must be nonzero")
    if a == 0:
        ring = FFRing(base_field)
        G = [[TruncSeries(ring, {0: c}, int(prec))]]
        return solve_unit_root(G, s_max=s_max)
    fld = None
    for s in range(1, s_max + 1):
        ext = gf.extension(base_field, s)
        gamma = ext.nth_root(ext.coerce(c), p - 1)
        if gamma is not None:
            fld = ext
            break
    else:
        raise ExtensionCapExceeded(f"no (p-1)-st root of {c!r} up to degree {s_max}")
    from fractions import Fraction
    D = p - 1
    sol = perfseries.monomial(fld, D, 1, Fraction(a, p - 1), gamma, Fraction(prec))
    zero = perfseries.zero_series(fld, D, 1, Fraction(prec))
    sols = [zero] + [sol.scale(fld.el(z)) for z in range(1, p)]
    cu = perfseries.monomial(fld, D, 1, Fraction(a), fld.coerce(c), Fraction(prec))
    for x in sols:
        if not (x.pth_power() - cu * x).is_zero():
            raise ArithmeticError("rank-1 solution failed substitution")
    return SolutionSet(base_field, fld, fld.fp_degree // base_field.fp_degree, 1,
                       prec, [(sol,)], all=[(x,) for x in sols])
