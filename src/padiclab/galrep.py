"""Constructive mod-p functor from Frobenius matrices to Galois data.

For a unit-root matrix G over F_q[[u]]/u^M the solutions of
x^(p) = x G form an F_p-space of dimension d over F_(q^s), where s is
the order of N = G0 sigma(G0) ... sigma^(f-1)(G0) in GL_d(F_q); the
solver computes s first and builds that one field.  Every solution is
x0 Q, where sigma(x0) = x0 G0 in F_(q^s) and Q is the trivialisation,
the matrix over F_q[[u]]/u^M with Q(0) = I and G0 phi(Q) = Q G (Katz,
"p-adic properties of modular schemes and modular forms", 1973, sec. 4),
as phi(x0 Q) = x0 G0 phi(Q) = x0 Q G.  Q comes from one coefficient
recursion over F_q, whatever s is:

    Q_m = ([p | m] G0 sigma(Q_{m/p}) - sum_{j=1..m} Q_{m-j} G_j) G0^{-1}.

Every map the solver applies is F_p-linear, and runs on ints packed one
digit per F_p coordinate (gf.fp_pack), each right multiplication
X -> X H as the columns of gf.GF.right_columns; a matrix's digits are
gf.GF.digits', a series' series.TruncSeries'.  The order of N is
gf.GF.matrix_order's (_splitting_degree).  Each Q_m is its d d f digits
over F_q, one packed sum of the maps X -> -X G_j G0^{-1} and
X -> G0 sigma(X) G0^{-1}; the check G0 phi(Q) = Q G runs on the same
digits with maps built from G's own coefficients (entries read by
gf.GF.entries).

The residues V = { x0 : sigma(x0) = x0 G0 } need no elimination of size
d n, n = [F_(q^s) : F_p].  C_k = G0 sigma(G0) ... sigma^(k-1)(G0) gives
sigma^k(x) = x C_k on V and C_n = N^s = I, so the trace
T(y) = sum_(k<n) sigma^k(y) C_k^(-1) has sigma(T(y)) = T(y) G0; and V is,
by Lang's theorem, d-dimensional over F_p with V (x) F_(q^s) = F_(q^s)^d,
so for y = sum lambda_i v_i over an F_p-basis of V, T(y) = sum Tr(lambda_i)
v_i: T is onto V, and the T(y e_j), y over an F_p-basis of F_(q^s), span
it before n elements y are used (_residue_basis).  Their reduced echelon
form, the columns most significant first, is the basis least in code
order.  x0 Q and the p^d solutions are F_p-combinations of packed
series, each unpacked once into d series (_unpack).  No field is
enumerated: the rank-1 root gamma^(p-1) = c is the least nonzero
solution of gamma^p = c gamma (gf.GF.frobenius_solutions).

The arithmetic-Frobenius action on the solution space is the
unramified Galois representation attached to G; rank-1 non-unit
matrices c u^a are solved in the fractional-exponent model instead,
where the tame character shows up through the exponent a/(p-1).
"""

from __future__ import annotations

from itertools import product

from . import Fields, gf, matrix, padic
from .errors import ExtensionCapExceeded, Unsupported
from .rings import FFRing
from .series import TruncSeries

# --- small dense linear algebra over a GF field: padiclab.matrix, named
# here for perfbench's tracer ---


def ff_vec_mat(v, A):
    return matrix.vec_mat(v, A)


def ff_mat_inv(A):
    return matrix.inverse(A, A[0][0].field.one)


# ---------------------------------------------------------------------------


class SolutionSet(Fields):
    """All p^d solutions of x^(p) = x G, closed under F_p-combinations,
    over field = F_(q^s), q the order of base_field, at u-precision prec.

    basis: d solutions x0 Q spanning the set, x0 the residue basis
    least in code order (_residue_basis); solutions() are ordered
    lexicographically by the residue coordinates' codes, each made by d
    int multiply-adds on the packed basis and one unpack, and kept in all,
    a cache: it is no field, so equality and repr do not read it.
    """

    _fields = ("base_field", "field", "s", "d", "prec", "basis")

    def __init__(self, base_field: gf.GF, field: gf.GF, s: int, d: int, prec: int,
                 basis: list, all: list = None):
        super().__init__(base_field, field, s, d, prec, basis)
        self.all = all

    @property
    def cardinality(self) -> int:
        return self.base_field.p ** len(self.basis)

    def solutions(self):
        if self.all is None:
            ext, p, prec = self.field, self.base_field.p, self.prec
            w = gf.fp_width(len(self.basis) * (p - 1) ** 2)
            packed = [gf.fp_pack([a for x in b for a in x.digits(0, prec)], w)
                      for b in self.basis]
            combos = [_unpack(sum(c * v for c, v in zip(cs, packed)), ext, self.d, prec, w)
                      for cs in product(range(p), repeat=len(self.basis))]
            self.all = sorted(combos, key=lambda v: tuple(
                ext.code(x.coeffs.get(0, ext.zero)) for x in v))
        return self.all


def _unpack(acc, ext, d, prec, w) -> tuple:
    """The d series over ext at precision prec packed one after another in
    acc, w-byte digits laid out as TruncSeries.digits(0, prec) gives them."""
    ring, n = FFRing(ext), prec * ext.fp_degree
    digits = gf.fp_unpack(acc, d * n, w, ext.p)
    return tuple(TruncSeries.from_digits(ring, digits[i:i + n], 0, prec)
                 for i in range(0, d * n, n))


def _as_matrix(G):
    """G, or the matrix .G of a module (phimod.PhiModule) at level .n = 1."""
    if hasattr(G, "G"):
        if G.n != 1:
            raise Unsupported("the mod-p functor takes torsion level 1")
        return G.G
    return G


def _residue_matrix(G):
    return [[a.coeffs.get(0, a.ring.field.zero) for a in row] for row in G]


def _residue_basis(G0inv, ext):
    """The F_p-basis of V = { x in ext^d : sigma(x) = x G0 } least in
    code order, V the image of the trace (module docstring), G0 over F_q
    by its inverse, ext = F_(q^s) with N^s = I: the rows T(y_b e_j) for the
    F_p-basis y_b = 1 + x + ... + x^b of ext, b from n - 1 down (a lone
    x^b often has zero traces into the subfields, the moduli being
    sparse), and while they add rank the rows T(sigma^r(y_b) e_j), r > 0,
    which cost no Frobenius, reduced after each block until d are
    independent; reversed, the reduced echelon rows are the greedy pick
    over V sorted by codes."""
    d, n, p = len(G0inv), ext.fp_degree, ext.p
    trace, rows = _trace_map(G0inv, ext), []
    for b in range(n - 1, -1, -1):
        for block in trace(ext.from_fp([int(i <= b) for i in range(n)])):
            rank = len(rows)
            rows, pivots = gf.fp_rref(rows + block, p)
            del rows[len(pivots):]
            if len(rows) in (rank, d):
                break
        if len(rows) == d:
            break
    return [[ext.from_fp(v[i:i + n][::-1]) for i in range(0, d * n, n)] for v in reversed(rows)]


def _trace_map(G0inv, ext):
    """y -> for r < n, the d rows T(sigma^r(y) e_j), each its d n digits
    most significant first (x_0's top one down to x_(d-1)'s constant one),
    sigma^r(y)'s orbit being y's rotated by r.  T(y e_j)_i =
    sum_(k,t) (C_k^(-1)[j][i])_t x^t sigma^k(y), x^t the image of F_q's x^t,
    is one packed sum of n f terms, each at most (p-1)^2.  C_k^(-1) =
    sigma(C_(k-1)^(-1)) G0^(-1) is one packed map on d d f digits."""
    base = G0inv[0][0].field
    d, f, n, p = len(G0inv), base.fp_degree, ext.fp_degree, ext.p
    one = matrix.scalar(d, base.one, base.zero)
    v = gf.fp_width(d * f * (p - 1) ** 2)
    step = _frobenius_columns(one, base.right_columns(base.digits(G0inv), v), base, v)
    inverses = [base.digits(one)]
    for _ in range(n - 1):
        inverses.append(gf.fp_unpack(gf.fp_combine(inverses[-1], step), d * d * f, v, p))
    coeffs = [[[c for cs in zip(*entry) for c in cs] for entry in row]    # k, then t
              for row in base.entries(list(zip(*inverses)))]
    lifted = [ext.coerce(base.from_fp([int(i == t) for i in range(f)])) for t in range(1, f)]
    w = gf.fp_width(n * f * (p - 1) ** 2)

    def trace(y):
        orbit = []
        for k in range(n):
            y = ext.frob_p(y) if k else y
            orbit += [gf.fp_pack(z.coeffs, w) for z in [y, *(y * x for x in lifted)]]
        for r in range(0, n * f, f):            # sigma^r(y)'s orbit: this one rotated
            yield [[c for entry in row for c in reversed(gf.fp_unpack(
                gf.fp_combine(entry, orbit[r:] + orbit[:r]), n, w, p))] for row in coeffs]
    return trace


def _coefficients(G, prec) -> dict:
    """{j: digits of G_j} for the nonzero coefficients G_j, j < prec, of G."""
    base = G[0][0].ring.field
    exps = {e for row in G for a in row for e in a.coeffs if e < prec}
    return {j: base.digits([[a.coeffs.get(j, base.zero) for a in row] for row in G])
            for j in sorted(exps)}


def _frobenius_columns(A, right, base, w) -> list:
    """X -> A sigma(X) B as packed columns, reduced, given the packed
    columns `right` of X -> X B: sigma(x^t E_ik) = x^(tp) E_ik, and
    A x^(tp) E_ik = sum_a (A[a][i] x^(tp)) E_ak.  A sum has at most
    d f (p-1)^2 in a digit."""
    d, f, p = len(A), base.fp_degree, base.p
    cols = base.entries(right)
    frob = [base.frob_p(base.gen ** t) for t in range(f)]
    images = [[[(a * x).coeffs for x in frob] for a in row] for row in A]
    return [gf.fp_reduce(sum(gf.fp_combine(images[a][i][t], cols[a][k])
                             for a in range(d)), d * d * f, w, p)
            for i in range(d) for k in range(d) for t in range(f)]


def _trivialisation(G, G0, G0inv, prec) -> list:
    """The F_p digits of Q_0, ..., Q_(M-1) over F_q, by the recursion: Q_m
    is one packed sum of the maps X -> -X G_j G0^(-1) on Q_(m-j) and,
    when p | m, X -> G0 sigma(X) G0^(-1) on Q_(m/p), unpacked once.  A
    digit sums at most d f (p-1)^2 per map G_j and d^2 f (p-1)^2 for sigma."""
    base = G0[0][0].field
    d, f, p = len(G0), base.fp_degree, base.p
    n = d * d * f
    Gj = _coefficients(G, prec)
    Gj.pop(0, None)
    w = gf.fp_width(d * f * (p - 1) ** 2 * (len(Gj) + d))
    inv = base.right_columns(base.digits(G0inv), w)
    maps = [(j, base.right_columns(gf.fp_unpack(gf.fp_combine([-c % p for c in Gm], inv),
                                                n, w, p), w))
            for j, Gm in Gj.items()]
    frob = _frobenius_columns(G0, inv, base, w) if p < prec else None
    Q = [base.digits(matrix.scalar(d, 1, 0))]
    for m in range(1, prec):
        Q.append(_image(Q, m, maps, frob, n, w, p))
    return Q


def _image(Q, m, maps, frob, n, w, p) -> list:
    """The digits at m of sum_j Q_(m-j) H_j + [p | m] A sigma(Q_(m/p)) B: one
    packed sum of maps (j, columns of X -> X H_j) and frob (X -> A sigma(X) B)."""
    acc = sum(gf.fp_combine(Q[m - j], cols) for j, cols in maps if j <= m)
    if m % p == 0:
        acc += gf.fp_combine(Q[m // p], frob)
    return gf.fp_unpack(acc, n, w, p)


def _times_Q(residues, Q, base):
    """The solutions x0 Q, a d-tuple of series per residue x0, Q by its
    digits.  As F_q embeds F_p-linearly, (x0 Q_m)_i = sum_{j,t}
    (Q_m[j][i])_t x0_j x^t: on packed ints, x0 Q = sum_{j,t} C[j][t] P[j][t],
    where C[j][t] holds (Q_m[j][i])_t at digit (i M + m) n and P[j][t] the
    n coordinates of x0_j x^t, x^t in F_q.  A digit sums at most
    d f (p-1)^2 < 256^w."""
    ext = residues[0][0].field
    d, f, n, p, prec = len(residues[0]), base.fp_degree, ext.fp_degree, ext.p, len(Q)
    w = gf.fp_width(d * f * (p - 1) ** 2)
    lifted = [ext.coerce(base.from_fp([int(i == t) for i in range(f)])) for t in range(f)]
    rows = [base.entries(Qm) for Qm in Q]
    C = [[gf.fp_pack([Qm[j][i][t] for i in range(d) for Qm in rows], n * w)
          for t in range(f)] for j in range(d)]
    return [_unpack(sum(c * gf.fp_pack((a * b).coeffs, w)
                        for a, Cj in zip(x0, C) for b, c in zip(lifted, Cj)), ext, d, prec, w)
            for x0 in residues]


def _check_solutions(G, G0e, Q, residues, prec):
    """ArithmeticError unless sum_{j>=0} Q_(m-j) G_j = [p | m] G0 sigma(Q_(m/p))
    for every m < M, i.e. G0 phi(Q) = Q G at precision M, and
    sigma(x0) = x0 G0 for every residue x0: then every x0 Q solves.  The
    maps come from G's own coefficients, G_0 included and no G0^(-1),
    not from the recursion's; Q is given by its digits."""
    base = G[0][0].ring.field
    d, f, p = len(G), base.fp_degree, base.p
    n = d * d * f
    Gj = _coefficients(G, prec)
    w = gf.fp_width(d * f * (p - 1) ** 2 * (len(Gj) + d))
    maps = [(j, base.right_columns(Gm, w)) for j, Gm in Gj.items()]
    minus_G0 = [[-a for a in row] for row in _residue_matrix(G)]
    identity = [1 << 8 * w * k for k in range(n)]     # X -> X I
    frob = _frobenius_columns(minus_G0, identity, base, w)
    if any(any(_image(Q, m, maps, frob, n, w, p)) for m in range(prec)):
        raise ArithmeticError("the trivialisation Q fails G0 phi(Q) = Q G")
    ext = G0e[0][0].field
    for x0 in residues:
        if [ext.frob_p(a) for a in x0] != ff_vec_mat(x0, G0e):
            raise ArithmeticError("a residue solution fails sigma(x0) = x0 G0")


def solve_unit_root(G) -> SolutionSet:
    """Solution set of x^(p) = x G for G with G(0) invertible.

    On residues the equation iterates to x^(q) = x N with
    N = G0 sigma(G0) ... sigma^(f-1)(G0) over F_q, so all p^d residue
    solutions lie in F_(q^s) exactly when N^s = I: the extension degree
    s is the order of N (_splitting_degree), and only F_(q^s) is built,
    if it fits in gf.MAX_ORDER.  The basis is the residue basis least in
    code order times Q, both checked first.
    """
    G = _as_matrix(G)
    ring = G[0][0].ring
    if not isinstance(ring, FFRing):
        raise Unsupported("unit-root solver works mod p")
    base = ring.field
    d = len(G)
    prec = min(a.prec for row in G for a in row)
    G0 = _residue_matrix(G)
    try:
        G0inv = ff_mat_inv(G0)
    except ZeroDivisionError:
        raise Unsupported("G(0) is not invertible: not the unit-root case") from None
    s = _splitting_degree(G0, base)
    ext = gf.extension(base, s)
    G0e = [[ext.coerce(a) for a in row] for row in G0]
    residues = _residue_basis(G0inv, ext)
    if len(residues) != d:
        raise ArithmeticError(f"residue solutions of rank {len(residues)} in {ext.tag}, not {d}")
    Q = _trivialisation(G, G0, G0inv, prec)
    _check_solutions(G, G0e, Q, residues, prec)
    return SolutionSet(base, ext, s, d, prec, _times_Q(residues, Q, base))


def _frobenius_norm(G0, base):
    """N = G0 sigma(G0) ... sigma^(f-1)(G0) over F_q, q = p^f."""
    N = Gi = G0
    for _ in range(base.fp_degree - 1):
        Gi = [[base.frob_p(a) for a in row] for row in Gi]
        N = matrix.mul(N, Gi)
    return N


def _splitting_degree(G0, base):
    """The order s of N in GL_d(F_q), q = p^f, found by gf.GF.matrix_order
    up to p^d - 1 and the largest s with q^s <= gf.MAX_ORDER; past the
    second, ExtensionCapExceeded before any field is built.

    s <= p^d - 1 by Lang's theorem ("Algebraic groups over finite
    fields", 1956): G0 = X^-1 sigma(X) for an X in GL_d over the closure
    of F_p, so N = X^-1 sigma^f(X), and X N X^-1 = sigma^f(X) X^-1 is
    fixed by sigma (sigma(X) = X G0, sigma^f(G0) = G0): N is conjugate
    into GL_d(F_p), whose elements have order at most p^d - 1."""
    d, q = len(G0), base.order
    lang, fits = base.p ** d - 1, padic.ndigits(gf.MAX_ORDER, q) - 1
    s = base.matrix_order(_frobenius_norm(G0, base), min(lang, fits))
    if s is not None:
        return s
    if fits >= lang:  # a self-check: s <= p^d - 1 by Lang's theorem, as above
        raise ArithmeticError(f"N has order above p^d - 1 = {lang} in GL_{d}(F_{q})")
    raise ExtensionCapExceeded(f"N has order > {fits} in GL_{d}(F_{q}): the residue equation "
                               f"needs F_({q}^s), s > {fits}, of order above gf.MAX_ORDER")


# ---------------------------------------------------------------------------


class GaloisActionRep(Fields):
    """GaloisActionRep(p, matrix): arithmetic Frobenius acting on an
    F_p-basis of the solutions, matrix d x d over F_p (ints)."""

    _fields = ("p", "matrix")

    def char_poly(self):
        return charpoly_mod_p(self.matrix, self.p)


def frobenius_action(S: SolutionSet) -> GaloisActionRep:
    """Matrix of x -> x^(q) (coefficientwise q-power, u fixed) on the
    F_p-basis of the solution set, read on the coefficients at the least
    exponent of the basis: 0 for x0 Q, a/(p-1) for gamma u^(a/(p-1)).
    ArithmeticError when that matrix is singular mod p."""
    ext, base, p = S.field, S.base_field, S.base_field.p
    low = min(x.valuation() for b in S.basis for x in b if x)
    res = [[dict(x.terms()).get(low, ext.zero) for x in b] for b in S.basis]
    d, f = len(res), base.fp_degree  # q = p^f
    images = [[ext.frob_p(c, f) for c in x] for x in res]
    rows, pivots = gf.fp_rref(list(zip(*[ext.digits([x]) for x in res + images])), p)
    if any(c >= d for c in pivots):
        raise ArithmeticError("q-Frobenius does not preserve the solution space")
    # row r of the action matrix: the coordinate at basis vector pivots[r] of each image
    A = [[0] * d for _ in range(d)]
    for r, c in enumerate(pivots):
        A[c] = rows[r][d:]
    if matrix.det(A) % p == 0:
        raise ArithmeticError("the q-Frobenius action is singular mod p")
    return GaloisActionRep(p, A)


def charpoly_mod_p(A, p: int):
    """Coefficients (low degree first) of det(xI - A) mod p: Berkowitz
    over the int entries, then reduced."""
    return tuple(c % p for c in matrix.charpoly(A)) + (1,)


def unramified_to_phimod(A, p: int, f: int = 1, prec: int = 20) -> phimod.PhiModule:
    """Constant-matrix module over F_(p^f), p and f as gf.field takes
    them, whose solution set carries the unramified representation with
    arithmetic Frobenius A (over F_p)."""
    from . import phimod
    ring = FFRing(gf.field(p, f))
    d = len(A)
    G = [[TruncSeries(ring, {0: ring.of_int(A[i][j])}, prec) for j in range(d)]
         for i in range(d)]
    return phimod.PhiModule(p, p ** f, 1, G)


# ---------------------------------------------------------------------------


def solve_rank1(a: int, c, base_field: gf.GF, prec=8):
    """Solutions of x^(p) = c u^a x in the fractional-exponent model:
    zero plus the F_p^x multiples of gamma u^(a/(p-1)) with
    gamma^(p-1) = c.  The exponent a/(p-1) is the tame-character datum.
    gamma exists in F_(q^s) iff c^(s (q-1)/(p-1)) = 1: s is the order of
    the norm N = c^((q-1)/(p-1)) of c, _splitting_degree([[c]]).
    """
    p = base_field.p
    c = base_field.coerce(c)
    if not c:
        raise ValueError("c must be nonzero")
    if a == 0:
        return solve_unit_root([[TruncSeries(FFRing(base_field), {0: c}, int(prec))]])
    s = _splitting_degree([[c]], base_field)
    fld = gf.extension(base_field, s)
    roots = fld.frobenius_solutions(fld.coerce(c))
    if len(roots) < 2:
        raise ArithmeticError(f"no (p-1)-st root of {c!r} in {fld.tag}")
    gamma = roots[1]
    from fractions import Fraction
    from . import perfseries
    D = p - 1
    sol = perfseries.monomial(fld, D, 1, Fraction(a, p - 1), gamma, Fraction(prec))
    zero = perfseries.PerfSeries(fld, D, 1, {}, Fraction(prec))
    cu = perfseries.monomial(fld, D, 1, Fraction(a), fld.coerce(c), Fraction(prec))
    # a self-check; the other solutions z sol, z in F_p, solve too, as z^p = z
    if not (sol.pth_power() - cu * sol).is_zero():
        raise ArithmeticError("rank-1 solution failed substitution")
    sols = [zero] + [sol.scale(z) for z in range(1, p)]
    return SolutionSet(base_field, fld, s, 1, prec, [(sol,)], all=[(x,) for x in sols])
