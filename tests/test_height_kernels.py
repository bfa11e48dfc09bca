"""The heights path against the code it replaced, on seeded random inputs.

Three kernels of phimod's heights changed, and each is checked here
against its old form, kept in this file (or, for the heap inverse, the
kernel's own recurrence, which F_q and Q still use):

- TruncSeries.inverse over a prime field, by Newton doubling on packed
  digits, against the coefficient recurrence (SparseSeries._field_inverse),
  and over Z/9 against the p-adic lift of that recurrence's inverse;
- matrix.dot on series over residues, one packed sum, against the fold
  from the first product with the shared product loop;
- PhiLattice's coordinate change, built once per ring value, d and
  prec, and the lattice's det and adjugate, taken from the module's when
  the two Frobenius matrices agree, against the lattice built afresh and
  its own characteristic polynomial.

Inputs: rank d <= 3, precisions 1 to 13, valuations 0 to 2, over F_3,
F_5, F_9 and Z/9.  Equality is of coefficients and precision code, and
of each refusal's class and message.
"""

import functools
import random

import pytest

from padiclab import gf, matrix, phimod
from padiclab.errors import Indeterminate
from padiclab.rings import FFRing, Zmod
from padiclab.series import SparseSeries, TruncSeries, lift_mod_p

RINGS = {"F3": lambda: FFRing(gf.field(3)), "F5": lambda: FFRing(gf.field(5)),
         "F9": lambda: FFRing(gf.field(3, 2)), "Z/9": lambda: Zmod(3, 2)}


def codes(ring):
    return ring.modulus if isinstance(ring, Zmod) else ring.field.order


def coeff(ring, code):
    return code if isinstance(ring, Zmod) else ring.field.from_code(code)


def random_series(rng, ring, vmin=0, vmax=2, unit=False):
    """Terms from a valuation in [vmin, vmax] up to past the precision,
    dense or sparse; the least term a unit mod p when unit is set (a
    zero series otherwise now and then)."""
    prec = rng.randrange(1, 14)
    v = rng.randrange(vmin, min(vmax, prec - 1) + 1) if unit else rng.randrange(vmin, vmax + 1)
    top = prec + 2
    if rng.random() < 0.5:
        exps = range(v + 1, top)
    else:
        exps = rng.sample(range(v + 1, top), min(rng.randrange(4), max(top - v - 1, 0)))
    terms = {e: coeff(ring, rng.randrange(codes(ring))) for e in exps}
    if unit:
        lead = rng.randrange(1, codes(ring))
        terms[v] = coeff(ring, lead if not isinstance(ring, Zmod) or lead % ring.p
                         else lead + 1)
    elif rng.random() < 0.8:
        terms[v] = coeff(ring, rng.randrange(1, codes(ring)))
    return TruncSeries(ring, terms, prec)


def state(s):
    return s.coeffs, s.pc


def same(a, b):
    assert type(a) is type(b) and state(a) == state(b)


def same_matrix(A, B):
    for row, ref in zip(A, B, strict=True):
        for a, b in zip(row, ref, strict=True):
            same(a, b)


def outcome(call):
    """The value of call(), or the class and message of what it raised."""
    try:
        return "value", call()
    except (ValueError, ZeroDivisionError, Indeterminate) as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# the inverse: the heap recurrence, and over Z/p^n its lift


def ref_inverse(f):
    ring = f.ring
    if isinstance(ring, Zmod):
        fbar = f.reduce_mod_p()
        if fbar.is_zero():
            raise ZeroDivisionError("not a unit: zero mod p")
        y = lift_mod_p(fbar._field_inverse(fbar.ring.inv), ring)
        two = TruncSeries(ring, {0: ring.of_int(2)}, y.prec)
        for _ in range(max(1, (ring.n - 1).bit_length())):
            y = y * (two - f * y)
        return y
    return f._field_inverse(ring.inv)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_inverse_matches_the_heap_recurrence(name):
    rng = random.Random(f"inverse:{name}")
    for _ in range(400):
        f = random_series(rng, RINGS[name](), unit=True)
        same(f.inverse(), ref_inverse(f))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_inverse_at_the_widest_digits(p):
    """Dense units at 30 to 70 digits, their coefficients mostly p - 1:
    a doubling's second product sums up to n (p - 1)^3 in a digit, past
    one byte at p = 5 and 7 (and at p = 3 from n = 32), so the digits
    must widen."""
    rng = random.Random(f"wide:{p}")
    ring = FFRing(gf.field(p))
    for n in (30, 31, 32, 33, 47, 64, 70):
        for _ in range(6):
            f = TruncSeries(ring, {e: ring.field.el(p - 1 if rng.random() < 0.8 else
                                                    rng.randrange(p)) for e in range(n)}, n)
            same(f.inverse(), ref_inverse(f))


def test_inverse_of_zero_is_refused_as_before():
    for name in ("F3", "F5"):
        f = TruncSeries(RINGS[name](), {}, 5)
        with pytest.raises(ValueError, match="^zero series has no leading coefficient$"):
            f.inverse()


# ---------------------------------------------------------------------------
# the dot product: the fold from the first product, by the shared loop


def ref_dot(u, v):
    acc = SparseSeries.__mul__(u[0], v[0])
    for a, b in zip(u[1:], v[1:]):
        acc = acc + SparseSeries.__mul__(a, b)
    return acc


@pytest.mark.parametrize("name", sorted(RINGS))
def test_dot_matches_the_fold(name):
    """Rows of 1 to 4 pairs, negative valuations and zero operands among
    them, each operand at its own precision."""
    rng = random.Random(f"dot:{name}")
    for _ in range(400):
        ring = RINGS[name]()
        k = rng.randrange(1, 5)
        u = [random_series(rng, ring, vmin=-2) for _ in range(k)]
        v = [random_series(rng, ring, vmin=-2) for _ in range(k)]
        same(matrix.dot(u, v), ref_dot(u, v))


def test_dot_of_other_entries_folds_as_before():
    F9 = gf.field(3, 2)
    u, v = [F9.from_code(c) for c in (1, 5, 7)], [F9.from_code(c) for c in (2, 8, 3)]
    assert matrix.dot(u, v) == u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
    assert matrix.dot([2, 3], [5, 7]) == 31


# ---------------------------------------------------------------------------
# the lattice: the coordinate lattice against the truncated identity it
# was built from, by decisions and completions; any other basis against
# the lattice built afresh, its det and adjugate its own


def ref_mat_adjugate(A):
    r, c, B = phimod._balanced(A)
    s = sum(r) + sum(c)
    poly = matrix.charpoly(B)
    det = matrix.charpoly_det(poly)
    adj = matrix.adjugate(B, poly, TruncSeries.one(A[0][0].ring, A[0][0].prec))
    return det.shift(s), [[a.shift(s - ci - rj) for a, rj in zip(row, r)]
                          for row, ci in zip(adj, c)]


def ref_lattice_frobenius(module, basis=None):
    """C^-1 G phi(C), the coordinate basis C = I at the module's least
    precision, 1 + O(u^prec) and 0 + O(u^prec), as phimod built it."""
    ring, d, prec = module.ring, module.d, module.prec
    if basis is None:
        basis = matrix.scalar(d, TruncSeries.one(ring, prec), TruncSeries.zero(ring, prec))
    det, adj = ref_mat_adjugate(basis)
    det_inv = det.inverse()
    binv = [[a * det_inv for a in row] for row in adj]
    frob = [[a.frobenius() for a in row] for row in basis]
    GL = matrix.mul(matrix.mul(binv, module.G), frob)
    for row in GL:
        for a in row:
            me = a.valuation()
            if me is not None and me < 0:
                raise ValueError(f"basis is not phi-stable: lattice Frobenius has exponent {me}")
            if a.prec < 0:
                raise Indeterminate("truncation too small to certify phi-stability")
    return GL


def ref_frobenius_inverse(GL):
    det, adj = ref_mat_adjugate(GL)
    if phimod._zero_mod_p(det):
        raise Indeterminate("det is 0 mod p to its precision; invertibility is not visible")
    return adj, det.inverse()


def all_integral(inverse, columns) -> bool:
    """Whether x = adj(B) b det(B)^-1 is integral for every b in columns,
    inverse = (adj B, det(B)^-1); Indeterminate when an entry's precision
    drops below 0 (phimod's membership before it read the columns of
    U I as U e_j)."""
    adj, det_inv = inverse
    for b in columns:
        for xi in matrix.mat_vec(adj, b):
            xi = xi * det_inv
            if xi.prec < 0:
                raise Indeterminate("precision exhausted before integrality was visible")
            me = xi.valuation()
            if me is not None and me < 0:
                return False
    return True


def ref_u_height(M):
    GL = ref_lattice_frobenius(M)
    phimod.is_etale(M)
    return max(phimod.snf_u_exponents(GL))


@functools.lru_cache(maxsize=2)
def ref_coordinate_inverse(M):
    """(adj, det^-1) of I G phi(I), once per module of the questions asked."""
    return ref_frobenius_inverse(ref_lattice_frobenius(M))


def ref_height_divides(M, U):
    """The coordinate lattice's membership through the truncated identity:
    the columns of U I, zero-padded at U's precision."""
    if phimod._zero_mod_p(U):
        raise ValueError("U must not be divisible by p")
    try:
        inverse = ref_coordinate_inverse(M)
    except ValueError:
        return False
    columns = matrix.scalar(M.d, U, TruncSeries.zero(M.ring, U.prec))
    return all_integral(inverse, columns)


def random_module(rng, name):
    """A module over a ring built afresh, as each heights question builds
    one: entries of valuation 0 to 2 at their own precisions."""
    ring = RINGS[name]()
    d = rng.randrange(1, 4)
    G = [[random_series(rng, ring) for _ in range(d)] for _ in range(d)]
    return phimod.PhiModule(ring.p, codes(ring) if not isinstance(ring, Zmod) else ring.p,
                            1 if not isinstance(ring, Zmod) else ring.n, G)


def random_questions(rng, ring):
    """U = u^h times a unit, h < 7, each at its own precision above h."""
    return [random_series(rng, ring, vmax=0, unit=True).shift(h) for h in range(7)]


def questions(M, Us, u_height, height_divides):
    """The outcome of u_height (at n = 1) and of height_divides for each U."""
    out = [outcome(lambda: u_height(M))] if M.n == 1 else []
    return out + [outcome(lambda: height_divides(M, U)) for U in Us]


def new_u_height(M):
    return phimod.u_height(phimod.PhiLattice(M))


TOP = 24


def complete(rng, a, zeros):
    """a past its precision to u^TOP: by zeros, or at random."""
    ring = a.ring
    tail = {} if zeros else {e: coeff(ring, rng.randrange(codes(ring)))
                             for e in range(max(a.prec, 0), TOP)}
    return TruncSeries(ring, {**a.coeffs, **tail}, TOP)


def completion_disagreements(rng, M, Us, new):
    """The answers of new (a list of outcomes, as questions gives them)
    that some completion of G and of each U past its precision does not
    give: the completion by zeros and two at random, each decided by the
    truncated-identity reference."""
    bad = []
    for zeros in (True, False, False):
        Mc = phimod.PhiModule(M.p, M.q, M.n, [[complete(rng, a, zeros) for a in row]
                                               for row in M.G])
        Uc = [complete(rng, U, zeros) for U in Us]
        ref = questions(Mc, Uc, ref_u_height, ref_height_divides)
        bad += [(k, got, want) for k, (got, want) in enumerate(zip(new, ref))
                if got[0] != "Indeterminate" and got != want]
    return bad


def same_or_sharper(a, ref):
    """a knows at least ref's digits: a precision code at least ref's,
    and equal coefficients below ref's."""
    assert a.pc >= ref.pc
    assert {e: c for e, c in a.coeffs.items() if e < ref.pc} == ref.coeffs


def only_decided(new, ref):
    """new's answers where ref's is Indeterminate; Indeterminate elsewhere."""
    return [got if want[0] == "Indeterminate" else ("Indeterminate", "")
            for got, want in zip(new, ref)]


# Questions the truncated identity decides and G itself does not, per ring
# on the seeded inputs below: the balanced Berkowitz adjugate's precision
# is not monotone in its entries' precisions (see
# test_the_balanced_adjugate_of_G_can_know_less_than_that_of_I_G_phi_I).
REFERENCE_ONLY = {"F3": 1, "F5": 0, "F9": 0, "Z/9": 0}


@pytest.mark.parametrize("name", sorted(RINGS))
def test_coordinate_heights_decide_what_the_truncated_identity_decided(name):
    """The coordinate lattice is G itself, every entry at its own
    precision: at least the digits of I G phi(I) over the truncated
    identity.  Every u_height and height_divides(U) answer that both
    decide, refusals included, is the same; the truncated identity
    decides alone at most REFERENCE_ONLY[name] of them.  An answer only
    the new code decides is one every completion of G and of U past its
    precision gives."""
    rng = random.Random(f"coordinates:{name}")
    compared = sharper = reference_only = 0
    for _ in range(300):
        M = random_module(rng, name)
        Us = random_questions(rng, M.ring)
        L, GL = phimod.PhiLattice(M), ref_lattice_frobenius(M)
        assert L.lattice_frobenius is M.G
        for row, ref_row in zip(L.lattice_frobenius, GL, strict=True):
            for a, b in zip(row, ref_row, strict=True):
                same_or_sharper(a, b)
        new = questions(M, Us, new_u_height, phimod.height_divides)
        ref = questions(M, Us, ref_u_height, ref_height_divides)
        for got, want in zip(new, ref, strict=True):
            if want[0] != "Indeterminate" and got[0] != "Indeterminate":
                assert got == want
                compared += 1
            reference_only += want[0] != "Indeterminate" and got[0] == "Indeterminate"
        only_new = only_decided(new, ref)
        sharper += sum(got[0] != "Indeterminate" for got in only_new)
        if any(got[0] != "Indeterminate" for got in only_new):
            assert completion_disagreements(rng, M, Us, only_new) == []
    assert compared > 800 and sharper > 50
    assert reference_only <= REFERENCE_ONLY[name]


def test_the_balanced_adjugate_of_G_can_know_less_than_that_of_I_G_phi_I():
    """The one seeded question of the test above that only the truncated
    identity decides.  Row 1 of G is known to u^2 at least, so _balanced
    shifts it by u^-2 and its zero G_10 = O(u^2) becomes O(u^0); the
    Horner adjugate reads it, so adj(G)_11 is O(u^0), although the
    cofactor G_00 G_22 - G_02 G_20 is O(u^2).  Through I G phi(I) every
    entry is known to u^1 only, and adj_11 comes out O(u^1): that is
    enough to see x = adj_11 U det^-1 has a u^-1 term, and every
    completion agrees.  G's answer is Indeterminate, sound but loose."""
    R = RINGS["F3"]()
    el = R.field.el

    def series(terms, prec):
        return TruncSeries(R, {e: el(c) for e, c in terms.items()}, prec)

    G = [[series({2: 1}, 5), series({0: 2}, 4), series({}, 2)],
         [series({}, 2), series({2: 1, 3: 2, 5: 2}, 6),
          series({2: 2, 3: 2, 5: 2, 6: 2, 7: 1, 9: 1, 10: 2, 11: 1}, 12)],
         [series({0: 1}, 1), series({1: 1, 6: 2, 7: 1}, 8), series({2: 2, 3: 2}, 5)]]
    M = phimod.PhiModule(3, 3, 1, G)
    U = series({1: 1, 3: 1}, 9)
    assert state(M._det_adjugate[1][1][1]) == ({}, 0)
    assert state(ref_frobenius_inverse(ref_lattice_frobenius(M))[0][1][1]) == ({}, 1)
    new = questions(M, [U], new_u_height, phimod.height_divides)
    ref = questions(M, [U], ref_u_height, ref_height_divides)
    assert new[1] == ("Indeterminate", "precision exhausted before integrality was visible")
    assert ref[1] == ("value", False)
    assert completion_disagreements(random.Random(0), M, [U], only_decided(ref, new)) == []


@pytest.mark.parametrize("name", ["F3", "Z/9"])
def test_the_completion_oracle_refuses_a_digit_claimed_beyond_the_precision(name):
    """The injected defect: G's entry of least precision claims one digit
    (a zero) beyond it.  Of the answers so decided where the truncated
    identity decides nothing, some disagree with a completion of the
    true G."""
    rng = random.Random(f"coordinates:defect:{name}")
    caught = 0
    for _ in range(200):
        M = random_module(rng, name)
        Us = random_questions(rng, M.ring)
        i, j = min(((i, j) for i in range(M.d) for j in range(M.d)),
                   key=lambda ij: M.G[ij[0]][ij[1]].prec)
        G = [row[:] for row in M.G]
        G[i][j] = TruncSeries(M.ring, G[i][j].coeffs, G[i][j].prec + 1)
        claimed = questions(phimod.PhiModule(M.p, M.q, M.n, G), Us, new_u_height,
                            phimod.height_divides)
        ref = questions(M, Us, ref_u_height, ref_height_divides)
        caught += bool(completion_disagreements(rng, M, Us, only_decided(claimed, ref)))
    assert caught > 0


def check_lattice(M, basis):
    new = outcome(lambda: phimod.PhiLattice(M, basis))
    ref = outcome(lambda: ref_lattice_frobenius(M, basis))
    assert new[0] == ref[0]
    if new[0] != "value":
        assert new == ref
        return 0
    L, GL = new[1], ref[1]
    same_matrix(L.lattice_frobenius, GL)
    new = outcome(lambda: L._frobenius_inverse)
    ref = outcome(lambda: ref_frobenius_inverse(GL))
    assert new[0] == ref[0]
    if new[0] != "value":
        assert new == ref
        return 1
    same_matrix(new[1][0], ref[1][0])
    same(new[1][1], ref[1][1])
    return 1


@pytest.mark.parametrize("name", sorted(RINGS))
def test_lattice_matches_the_uncached_lattice(name):
    """The module's det against its own balanced Berkowitz det, and a
    stabilized lattice against the lattice built afresh, with its
    (adj, det^-1), refusals included."""
    rng = random.Random(f"lattice:{name}")
    built = 0
    for _ in range(300):
        M = random_module(rng, name)
        r, c, B = phimod._balanced(M.G)
        same(M.det(), matrix.det(B).shift(sum(r) + sum(c)))
        assert outcome(lambda: phimod.is_etale(M))[0] in ("value", "Indeterminate")
        k = rng.randrange(3)
        uk = TruncSeries.monomial(M.ring, k, M.ring.one, M.prec)
        built += check_lattice(M, matrix.scalar(M.d, uk, TruncSeries.zero(M.ring, uk.prec)))
    assert built > 200


def test_the_coordinate_lattice_of_mixed_precisions_takes_the_module_det():
    """G = diag(1 + O(u^2), 1 + O(u^9)), zeros known to u^9: the
    coordinate lattice's Frobenius is G, each entry at its own
    precision, and its adjugate is the module's, zeros known to u^9;
    through the truncated identity every entry was known to u^2 only."""
    R = RINGS["F3"]()
    one = R.one
    G = [[TruncSeries(R, {0: one}, 2), TruncSeries(R, {}, 9)],
         [TruncSeries(R, {}, 9), TruncSeries(R, {0: one}, 9)]]
    M = phimod.PhiModule(3, 3, 1, G)
    L = phimod.PhiLattice(M)
    assert L.lattice_frobenius is G
    adj, det_inv = L._frobenius_inverse
    assert adj is M._det_adjugate[1]
    same(det_inv, M._det_adjugate[0].inverse())
    assert state(adj[0][1]) == ({}, 9)
    assert [[a.pc for a in row] for row in ref_lattice_frobenius(M)] == [[2, 2], [2, 2]]
    assert state(ref_frobenius_inverse(ref_lattice_frobenius(M))[0][0][1]) == ({}, 2)


def test_heights_leave_G_unchanged():
    """The coordinate lattice shares G: u_height and height_divides read
    it and change no row and no entry."""
    rng = random.Random("unchanged")
    for name in ("F3", "Z/9"):
        for _ in range(40):
            M = random_module(rng, name)
            rows = [list(row) for row in M.G]
            states = [[state(a) for a in row] for row in M.G]
            L = phimod.PhiLattice(M)
            questions(M, random_questions(rng, M.ring), lambda M: phimod.u_height(L),
                      lambda M, U: phimod.height_divides(L, U))
            assert [list(row) for row in M.G] == rows
            assert all(a is b for row, ref in zip(M.G, rows) for a, b in zip(row, ref))
            assert [[state(a) for a in row] for row in M.G] == states


def test_one_charpoly_per_module_matrix():
    """is_etale, the coordinate lattice's height_divides and u_height share
    one characteristic polynomial, and the coordinate lattice builds
    none."""
    rng = random.Random(5)

    def module():
        R = RINGS["F3"]()
        G = [[TruncSeries(R, {e: R.field.el(rng.randrange(3)) for e in range(6)}, 12)
              for _ in range(3)] for _ in range(3)]
        for i in range(3):
            G[i][i] = G[i][i] + TruncSeries.one(R, 12)
        return phimod.PhiModule(3, 3, 1, G)

    M, calls = module(), []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix, "charpoly", lambda A: calls.append(1) or CHARPOLY(A))
        phimod.is_etale(M)
        L = phimod.PhiLattice(M)
        for h in range(4):
            phimod.height_divides(L, TruncSeries.monomial(M.ring, h, M.ring.one, 12))
        phimod.u_height(L)
    assert len(calls) == 1


CHARPOLY = matrix.charpoly
