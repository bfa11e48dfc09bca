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
# the lattice: built afresh, and its det and adjugate its own


def ref_mat_adjugate(A):
    r, c, B = phimod._balanced(A)
    s = sum(r) + sum(c)
    poly = matrix.charpoly(B)
    det = matrix.charpoly_det(poly)
    adj = matrix.adjugate(B, poly, TruncSeries.one(A[0][0].ring, A[0][0].prec))
    return det.shift(s), [[a.shift(s - ci - rj) for a, rj in zip(row, r)]
                          for row, ci in zip(adj, c)]


def ref_lattice_frobenius(module, basis=None):
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


def random_module(rng, name):
    """A module over a ring built afresh, as each heights question builds
    one: entries of valuation 0 to 2 at their own precisions."""
    ring = RINGS[name]()
    d = rng.randrange(1, 4)
    G = [[random_series(rng, ring) for _ in range(d)] for _ in range(d)]
    return phimod.PhiModule(ring.p, codes(ring) if not isinstance(ring, Zmod) else ring.p,
                            1 if not isinstance(ring, Zmod) else ring.n, G)


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
    """The module's det against its own balanced Berkowitz det, the
    coordinate lattice and a stabilized one against the lattice built
    afresh, and each lattice's (adj, det^-1), refusals included."""
    rng = random.Random(f"lattice:{name}")
    built = 0
    for _ in range(300):
        M = random_module(rng, name)
        r, c, B = phimod._balanced(M.G)
        same(M.det(), matrix.det(B).shift(sum(r) + sum(c)))
        assert outcome(lambda: phimod.is_etale(M))[0] in ("value", "Indeterminate")
        built += check_lattice(M, None)
        k = rng.randrange(3)
        uk = TruncSeries.monomial(M.ring, k, M.ring.one, M.prec)
        built += check_lattice(M, matrix.scalar(M.d, uk, TruncSeries.zero(M.ring, uk.prec)))
    assert built > 300


def test_a_lattice_whose_frobenius_differs_in_precision_takes_its_own_det():
    """G = diag(1 + O(u^2), 1 + O(u^9)), zeros known to u^9: the
    coordinate lattice's Frobenius keeps G's coefficients, every entry
    known to u^2, so its adjugate is its own, zeros known to u^2, not
    the module's, known to u^9."""
    R = RINGS["F3"]()
    one = R.one
    G = [[TruncSeries(R, {0: one}, 2), TruncSeries(R, {}, 9)],
         [TruncSeries(R, {}, 9), TruncSeries(R, {0: one}, 9)]]
    M = phimod.PhiModule(3, 3, 1, G)
    L = phimod.PhiLattice(M)
    GL = L.lattice_frobenius
    assert [[a.coeffs for a in row] for row in GL] == [[a.coeffs for a in row] for row in G]
    assert [[a.pc for a in row] for row in GL] != [[a.pc for a in row] for row in G]
    adj, det_inv = L._frobenius_inverse
    ref_adj, ref_det_inv = ref_frobenius_inverse(GL)
    same_matrix(adj, ref_adj)
    same(det_inv, ref_det_inv)
    assert state(M._det_adjugate[1][0][1]) == ({}, 9)
    assert state(adj[0][1]) == ({}, 2)


def test_one_charpoly_per_module_matrix():
    """is_etale, the coordinate lattice's height_divides and u_height share
    one characteristic polynomial; a module over an equal ring, built
    afresh, finds its coordinate change built."""
    rng = random.Random(5)

    def module():
        R = RINGS["F3"]()
        G = [[TruncSeries(R, {e: R.field.el(rng.randrange(3)) for e in range(6)}, 12)
              for _ in range(3)] for _ in range(3)]
        for i in range(3):
            G[i][i] = G[i][i] + TruncSeries.one(R, 12)
        return phimod.PhiModule(3, 3, 1, G)

    phimod.PhiLattice(module())
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
