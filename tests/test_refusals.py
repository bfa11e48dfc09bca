"""Input refusals that no other test drives, every refusal of phimod and
logtrunc, the certified refusals of taumod's and witt's divisions and
orders and of galrep's rank-1 root (through a patched field), and the
self-checks of galrep's splitting degree and rank-1 substitution and of
the Witt laws' integrality (through a patched kernel or target), each
through the public API and asserted by its message; where a command-line
flag reaches one, the command exits 2 with that message too, or, for a
certified refusal, prints it as its error record."""

import json
import re
from fractions import Fraction

import pytest

from padiclab import gf, gskel, ramif, record, witt
from padiclab.calculus import weierstrass
from padiclab.cli import main
from padiclab.errors import Indeterminate, NotDivisible, PrecisionError, Unsupported
from padiclab.galrep import solve_rank1, solve_unit_root
from padiclab.logtrunc import (BoundedOp, ScaledMatrix, congruent_mod, is_bounded, log_m,
                               rdc_valuation_check)
from padiclab.perfseries import (PerfRing, PerfSeries, frobenius_fixed_residual, monomial,
                                 solve_additive, solve_frobenius_fixed)
from padiclab.phimod import (PhiLattice, PhiModule, height_divides, is_etale,
                             snf_u_exponents, u_height)
from padiclab.rings import FFRing, IntRing, Zmod
from padiclab.series import TruncSeries
from padiclab.taumod import trivial_restriction_module
from padiclab.witt import WittVector, from_int, frobenius_w, to_zmod, witt_divide

F3, F9 = gf.field(3), gf.field(3, 2)
F3_4 = PerfSeries(F3, 2, 1, {}, 4)          # zero on the lattice 1/6 Z at precision 4
# log_m(4) at order 1, certified mod 3^3; a value mod 3^2 over p^1
LOG4 = log_m(BoundedOp.of(3, 3, [[4]]), 1)
HALF = ScaledMatrix(3, ((3, 6), (0, 9)), 1, 2)
JORDAN = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]


def series(ring, coeffs, prec=6):
    return TruncSeries(ring, coeffs, prec)


def f3(coeffs, prec):
    """A series over F_3 from {exponent: int}."""
    return series(FFRing(F3), {e: F3.el(c) for e, c in coeffs.items()}, prec)


# rank 1 over F_3: G = 0 + O(u^2), whose det no truncation shows a unit,
# and G = u^2 + O(u^3), a unit of valuation 2 known to one more place
ZERO = PhiModule(3, 3, 1, [[f3({}, 2)]])
DEEP = PhiModule(3, 3, 1, [[f3({2: 1}, 3)]])


REFUSALS = {
    "calculus weierstrass over a field": (
        lambda: weierstrass(series(FFRing(F3), {0: F3.one})),
        ValueError, "weierstrass preparation works over Z/p^n"),
    "calculus weierstrass of a Laurent series": (
        lambda: weierstrass(series(Zmod(3, 2), {-1: 1, 0: 1})),
        ValueError, "weierstrass preparation needs nonnegative exponents"),
    "gskel mul across primes": (
        lambda: gskel.mul(gskel.elt(3, 4, 0, 1), gskel.elt(5, 4, 0, 1)),
        ValueError, "mismatched primes"),
    "gskel decompose by c(tau) = 2": (
        lambda: gskel.decompose(gskel.elt(3, 4, 1, 1), gskel.elt(3, 4, 2, 1)),
        ValueError, "decompose needs c(tau) = 1"),
    "gskel decompose by chi(tau) = 2": (
        lambda: gskel.decompose(gskel.elt(3, 4, 1, 1), gskel.elt(3, 4, 1, 2)),
        ValueError, "decompose needs chi(tau) = 1 mod p"),
    "phimod a row of two entries in rank 1": (
        lambda: PhiModule(3, 3, 1, [[series(FFRing(F3), {0: F3.one})] * 2]),
        ValueError, "G must be square"),
    "phimod an entry over Z/9 at level 1": (
        lambda: PhiModule(3, 3, 1, [[series(Zmod(3, 2), {0: 1})]]),
        ValueError, "G entries must live over the module ring"),
    "phimod is_etale of a det 0 to its precision": (
        lambda: is_etale(ZERO),
        Indeterminate, "det G is 0 mod p to its precision; a unit may lie beyond it"),
    # u_height asks is_etale first: the module's det, not the lattice's
    "phimod u_height of a det 0 to its precision": (
        lambda: u_height(PhiLattice(ZERO)),
        Indeterminate, "det G is 0 mod p to its precision; a unit may lie beyond it"),
    # C = u^-3: C^-1 G phi(C) = u^-6 (0 + O(u^2)) has no term and precision -4
    "phimod a lattice Frobenius of negative precision": (
        lambda: PhiLattice(ZERO, [[f3({-3: 1}, 4)]]),
        Indeterminate, "truncation too small to certify phi-stability"),
    # the coordinate lattice's Frobenius is G itself: the module's det
    "phimod height_divides through the module's det": (
        lambda: height_divides(ZERO, f3({0: 1}, 4)),
        Indeterminate, "det is 0 mod p to its precision; invertibility is not visible"),
    # C = u: the lattice Frobenius 0 + O(u^4) differs from G in its
    # precision, so the det is the lattice's own
    "phimod height_divides through the lattice's own det": (
        lambda: height_divides(PhiLattice(ZERO, [[f3({1: 1}, 6)]]), f3({0: 1}, 4)),
        Indeterminate, "det is 0 mod p to its precision; invertibility is not visible"),
    "phimod Smith form of a block 0 at its truncation": (
        lambda: snf_u_exponents([[f3({}, 4)]]),
        Indeterminate, "block vanishes at truncation; pivots uncertifiable"),
    "phimod Smith form with a pivot at the block's precision": (
        lambda: snf_u_exponents([[f3({3: 1}, 10), f3({}, 2)], [f3({}, 2), f3({3: 1}, 10)]]),
        Indeterminate, "pivot valuation 3 too close to precision 2"),
    "phimod u_height at torsion level 2": (
        lambda: u_height(PhiLattice(PhiModule(3, 3, 2, [[series(Zmod(3, 2), {0: 1}, 4)]]))),
        Unsupported, "u_height is the n = 1 notion; use height_divides for n >= 2"),
    # x = U u^-2 with U = 1 + O(u): precision 1 - 2 - 2 < 0 and no term
    "phimod height_divides with U known to one place": (
        lambda: height_divides(DEEP, f3({0: 1}, 1)),
        Indeterminate, "precision exhausted before integrality was visible"),
    "series inverse over the integers": (
        lambda: series(IntRing(), {0: 1}).inverse(),
        ValueError, "no inversion over IntRing()"),
    "series reduce_mod_p over a field": (
        lambda: series(FFRing(F3), {0: F3.one}).reduce_mod_p(),
        ValueError, "reduce_mod_p needs a Zmod coefficient ring"),
    "witt Frobenius over the integers": (
        lambda: frobenius_w(WittVector(3, IntRing(), [1, 2])),
        Unsupported, "the Witt Frobenius is taken in characteristic p only"),
    "witt from_int over the integers": (
        lambda: from_int(5, 3, 2, IntRing()),
        Unsupported, "from_int takes a ring of characteristic p"),
    "witt to_zmod of the integer coordinate 5": (
        lambda: to_zmod(WittVector(3, IntRing(), [5, 1])),
        ValueError, "to_zmod needs coordinates in F_p"),
    # z = V[1]: its leading coordinate is 0, so no y has z y = x
    "witt witt_divide by a vector of leading coordinate 0": (
        lambda: witt_divide(WittVector(3, FFRing(F3), [F3.one, F3.zero]),
                            WittVector(3, FFRing(F3), [F3.zero, F3.one])),
        NotDivisible, "leading coordinate of divisor vanishes"),
    # 2 has order 2 in F_3^x, above p^0 = 1
    "taumod a tau-matrix of no order <= p^s": (
        lambda: trivial_restriction_module([[2]], 0, F3, gskel.elt(3, 8, 1, 1), 4),
        ValueError, "tau_T has no order <= p^0"),
    # the transposition has order 2 <= p^1 = 3, not a power of 3
    "taumod a tau-matrix of order prime to p": (
        lambda: trivial_restriction_module([[0, 1], [1, 0]], 1, F3, gskel.elt(3, 8, 1, 1), 4),
        ValueError, "tau_T has order 2, not a power of p"),
    "witt to_zmod over F_9": (
        lambda: to_zmod(WittVector(3, FFRing(F9), [F9.gen, F9.one])),
        ValueError, "to_zmod needs coordinates in F_p"),
    "perfseries binomial power of 2": (
        lambda: monomial(F3, 2, 4, 0, F3.el(2), 6).binomial_power(Fraction(1, 2)),
        ValueError, "binomial power needs constant term 1"),
    # refused before any other check: D = 0 and U over Z/25 are refused too
    "perfseries fixed points over F_9": (
        lambda: solve_frobenius_fixed(series(Zmod(5, 2), {0: 5}), F9, 2, D=0, jmax=3, prec=6),
        ValueError, "the fixed-point solver works over F_3, not F9"),
    # L = D p^jmax must be a positive int: a negative jmax made it a float
    "perfseries ring of negative depth": (
        lambda: PerfRing(F3, 2, -1, 4),
        ValueError, "lattice depth jmax must be nonnegative, got -1"),
    "perfseries fixed points at negative depth": (
        lambda: solve_frobenius_fixed(series(Zmod(3, 2), {0: 1, 1: 1}), F3, 2, jmax=-1, prec=6),
        ValueError, "lattice depth jmax must be nonnegative, got -1"),
    "perfseries ring of denominator 0": (
        lambda: PerfRing(F3, 0, 1, 4),
        ValueError, "lattice denominator D must be positive, got 0"),
    # the check reads V's coordinates on its ring's precision and length
    "perfseries fixed-point check of a V over another ring": (
        lambda: frobenius_fixed_residual(series(Zmod(3, 2), {0: 1, 1: 1}),
                                         WittVector(3, PerfRing(F3, 2, 1, 4), [F3_4, F3_4]),
                                         PerfRing(F3, 2, 1, 8), 2),
        ValueError, "Witt vectors live in different rings"),
    "perfseries fixed-point check of a V of another length": (
        lambda: frobenius_fixed_residual(series(Zmod(3, 2), {0: 1, 1: 1}),
                                         WittVector(3, PerfRing(F3, 2, 1, 4), [F3_4]),
                                         PerfRing(F3, 2, 1, 4), 2),
        ValueError, "Witt vectors live in different rings"),
    "perfseries solve_additive with U = 0": (
        lambda: solve_additive(PerfSeries(F3, 2, 4, {}, 6), monomial(F3, 2, 4, 1, F3.one, 6)),
        ValueError, "U must be nonzero"),
    "galrep a module at level 2": (
        lambda: solve_unit_root(PhiModule(3, 3, 2, [[series(Zmod(3, 2), {0: 1})]])),
        Unsupported, "the mod-p functor takes torsion level 1"),
    "ramif inverse of a decreasing function": (
        lambda: ramif.PLFunction(((Fraction(0), Fraction(0)),), Fraction(-1)).inverse(),
        ValueError, "only strictly increasing functions invert"),
    "ramif herbrand jump at 0": (
        lambda: ramif.herbrand_phi([(0, 9)]),
        ValueError, "jump abscissas must be positive"),
    "ramif bound-ginf at h = -1": (
        lambda: ramif.bound_Ginf(-1, 1, 3), ValueError, "h >= 0 and n >= 1"),
    "ramif bound-ginf at n = 0": (
        lambda: ramif.bound_Ginf(1, 0, 3), ValueError, "h >= 0 and n >= 1"),
    "ramif bound-gk at h = 0": (
        lambda: ramif.bound_GK(0, 1, 1, 3, tame=True), ValueError, "h, e, n >= 1"),
    "ramif bound-gk refined at h < e": (
        lambda: ramif.bound_GK(1, 1, 2, 3, refined=True),
        ValueError, "the refined constant needs h >= e"),
    "ramif bound-gk with no (s0, c0)": (
        lambda: ramif.bound_GK(1, 1, 1, 3, s0=1),
        ValueError, "supply (s0, c0) or set tame=True"),
    "ramif bound-converse at h = 0": (
        lambda: ramif.bound_converse(0, 1, 3), ValueError, "h, e >= 1"),
    "ramif bound-sst at r = 0": (
        lambda: ramif.bound_semistable(0, 1, 1, 3), ValueError, "r, n, e >= 1"),
    "ramif bound-tau at h = 0": (
        lambda: ramif.bound_tau_congruence(0, 0, 3), ValueError, "h >= 1 and c' >= 0"),
    "ramif bound-tau at c' = -1": (
        lambda: ramif.bound_tau_congruence(1, -1, 3), ValueError, "h >= 1 and c' >= 0"),
    "ramif gamma at s = -1": (
        lambda: ramif.gamma_lower_bound(-1, 1, 0), ValueError, "s >= 0"),
    "galrep unit root over Z/3": (
        lambda: solve_unit_root([[series(Zmod(3, 1), {0: 1})]]),
        Unsupported, "unit-root solver works mod p"),
    "galrep rank 1 at c = 0": (
        lambda: solve_rank1(1, 0, F3), ValueError, "c must be nonzero"),
    "logtrunc log_m at m = -1": (
        lambda: log_m(BoundedOp.of(3, 3, [[4]]), -1), ValueError, "m must be nonnegative, got -1"),
    "logtrunc value_mod at k = -1": (
        lambda: LOG4.value_mod(-1), ValueError, "k must be nonnegative, got -1"),
    "logtrunc value_mod past the certified digits": (
        lambda: HALF.value_mod(3), PrecisionError, "value certified only mod p^2"),
    # 1 - 2 = -1: the i = 3 term is -1/3
    "logtrunc value_mod of a value with a 1/3": (
        lambda: log_m(BoundedOp.of(3, 3, [[2]]), 2).value_mod(2),
        PrecisionError, "value is not p-integral"),
    "logtrunc is_zero_mod at k = -2": (
        lambda: HALF.is_zero_mod(-2), ValueError, "k must be nonnegative, got -2"),
    "logtrunc is_zero_mod past the certified digits": (
        lambda: congruent_mod(HALF, HALF, 3),
        PrecisionError, "congruence mod p^3 asked, certified only mod p^2"),
    "logtrunc difference across primes": (
        lambda: HALF.sub(ScaledMatrix(5, ((5,),), 1, 2)), ValueError, "prime mismatch"),
    "logtrunc sum across primes": (
        lambda: HALF.add(ScaledMatrix(5, ((5,),), 0, 2)), ValueError, "prime mismatch"),
    # 1 - 4 = 0 mod 3^1 passes every power, but i = 9 asks v_p(9) = 2 > N digits
    "logtrunc is_bounded past its budget": (
        lambda: is_bounded(BoundedOp.of(3, 1, [[4]]), 3),
        PrecisionError, "budget too small to decide boundedness"),
    "logtrunc rdc at t = -1": (
        lambda: rdc_valuation_check([[4]], 3, 8, -1, 1),
        ValueError, "t and i must be nonnegative, got t = -1, i = 1"),
    "logtrunc rdc at i = -2": (
        lambda: rdc_valuation_check([[4]], 3, 8, 1, -2),
        ValueError, "t and i must be nonnegative, got t = 1, i = -2"),
    "logtrunc rdc below d = p^(t-1)(p-1)": (
        lambda: rdc_valuation_check([[4]], 3, 8, 1, 1),
        ValueError, "need d >= p^(t-1)(p-1) = 2"),
    "logtrunc rdc of f = 2": (
        lambda: rdc_valuation_check([[2]], 3, 8, 0, 1),
        ValueError, "f - id is not nilpotent mod p"),
    "logtrunc rdc past the working precision": (
        lambda: rdc_valuation_check(JORDAN, 3, 3, 1, 40),
        PrecisionError, "bound 39 exceeds working precision 3"),
}

# the refusals a flag reaches: the command, and its message on stderr
COMMANDS = {
    "ramif herbrand jump at 0": ("ramif herbrand --jumps 0,9", "--jumps: "),
    "ramif bound-ginf at h = -1": ("ramif bound-ginf --h -1", ""),
    "ramif bound-gk at h = 0": ("ramif bound-gk --h 0 --tame", ""),
    "ramif bound-gk refined at h < e": ("ramif bound-gk --e 2 --refined", ""),
    "ramif bound-gk with no (s0, c0)": ("ramif bound-gk --s0 1", ""),
    "ramif bound-converse at h = 0": ("ramif bound-converse --h 0", ""),
    "ramif bound-sst at r = 0": ("ramif bound-sst --r 0 --n 1 --e 1 --p 3", ""),
    "ramif bound-tau at h = 0": ("ramif bound-tau --h 0", ""),
    "ramif bound-tau at c' = -1": ("ramif bound-tau --cprime -1", ""),
    "ramif gamma at s = -1": ("ramif gamma --s -1", ""),
    "galrep rank 1 at c = 0": ("galois rank1 --a 1 --c 0", ""),
    "logtrunc log_m at m = -1": ("logm value --matrix 4 --m -1", ""),
    "logtrunc rdc at t = -1": ("logm rdc --matrix 4 --t -1", ""),
    "logtrunc rdc at i = -2": ("logm rdc --matrix 4 --i -2", ""),
    "logtrunc rdc below d = p^(t-1)(p-1)": ("logm rdc --p 3 --matrix 4 --t 1", ""),
    "logtrunc rdc of f = 2": ("logm rdc --p 3 --matrix 2 --t 0", ""),
}

# the certified refusals a flag reaches: the command, which prints the
# refusal as its one error record and exits 0
RECORDS = {
    "logtrunc value_mod of a value with a 1/3": "logm value --p 3 --N 3 --matrix 2 --m 2",
    "logtrunc is_bounded past its budget": "logm bounded --p 3 --N 1 --matrix 4 --m 3",
    "logtrunc rdc past the working precision":
        "logm rdc --p 3 --N 3 --matrix 1,1,0;0,1,1;0,0,1 --t 1 --i 40",
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_each_refusal_raises_its_message(name, capsys):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
    if name in COMMANDS:
        command, flag = COMMANDS[name]
        assert main(command.split()) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"input error: {flag}{message}\n")
    if name in RECORDS:
        assert main(RECORDS[name].split()) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["results"] == [record(
            "error", f"{error.__name__}: {message}", exact=False, precision="n/a",
            anchor="error")]


def test_splitting_degree_asserts_langs_bound(monkeypatch):
    """A matrix_order that finds no order up to p^d - 1, where the search
    is capped by Lang's bound and not by gf.MAX_ORDER, is refused by name."""
    monkeypatch.setattr(gf.GF, "matrix_order", lambda self, A, bound: None)
    with pytest.raises(ArithmeticError, match=r"^N has order above p\^d - 1 = 2 in GL_1\(F_3\)$"):
        solve_rank1(1, 2, F3)


def test_rank1_asserts_its_substitution(monkeypatch):
    """gamma = 1 offered as a square root of 2 in F_9: u^(1/2) fails
    x^3 = 2u x, and the solver refuses rather than return it."""
    monkeypatch.setattr(gf.GF, "frobenius_solutions", lambda self, *args: [self.zero, self.one])
    with pytest.raises(ArithmeticError, match="^rank-1 solution failed substitution$"):
        solve_rank1(1, 2, F3)


def test_witt_laws_assert_their_integrality():
    """Targets X_0, X_1 are no ghost sum: w_1 = X_0^3 + 3 X_1 = X_1 would
    need X_1 - X_0^3 divisible by 3, and the lift refuses to divide."""
    targets = [{(1, 0): 1}, {(0, 1): 1}]
    with pytest.raises(ArithmeticError, match="^ghost lift produced a non-integral law$"):
        witt._solve_laws(3, 2, targets)
    sums = witt._solve_laws(3, 2, [witt._p_add(witt._ghost(3, k, 0, 4), witt._ghost(3, k, 2, 4))
                                   for k in range(2)])
    assert sums[0] == {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1}


def test_rank1_without_a_root_in_its_splitting_field(monkeypatch):
    """s is chosen so that gamma^(p-1) = c has a root in F_(q^s); a
    frobenius_solutions that finds only 0 there is refused by name."""
    monkeypatch.setattr(gf.GF, "frobenius_solutions", lambda self, *args: [self.zero])
    with pytest.raises(ArithmeticError, match=r"^no \(p-1\)-st root of ff\(F3:2\) in F9$"):
        solve_rank1(1, 2, F3)
