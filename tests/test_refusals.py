"""Input refusals that no other test drives, each through the public API
and asserted by its message; where a command-line flag reaches one, the
command exits 2 with that message too."""

import re
from fractions import Fraction

import pytest

from padiclab import gf, gskel, ramif
from padiclab.calculus import weierstrass
from padiclab.cli import main
from padiclab.errors import Unsupported
from padiclab.galrep import solve_unit_root
from padiclab.perfseries import PerfSeries, monomial, solve_additive
from padiclab.phimod import PhiModule
from padiclab.rings import FFRing, IntRing, Zmod
from padiclab.series import TruncSeries
from padiclab.witt import WittVector, frobenius_w, to_zmod

F3, F9 = gf.field(3), gf.field(3, 2)


def series(ring, coeffs, prec=6):
    return TruncSeries(ring, coeffs, prec)


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
    "series inverse over the integers": (
        lambda: series(IntRing(), {0: 1}).inverse(),
        ValueError, "no inversion over IntRing()"),
    "series reduce_mod_p over a field": (
        lambda: series(FFRing(F3), {0: F3.one}).reduce_mod_p(),
        ValueError, "reduce_mod_p needs a Zmod coefficient ring"),
    "witt ghost Frobenius of W_1": (
        lambda: frobenius_w(WittVector(3, IntRing(), [1])),
        ValueError, "ghost Frobenius needs n >= 2"),
    "witt to_zmod of the integer coordinate 5": (
        lambda: to_zmod(WittVector(3, IntRing(), [5, 1])),
        ValueError, "coordinate outside F_p"),
    "witt to_zmod over F_9": (
        lambda: to_zmod(WittVector(3, FFRing(F9), [F9.gen, F9.one])),
        ValueError, "to_zmod needs coordinates in F_p"),
    "perfseries binomial power of 2": (
        lambda: monomial(F3, 2, 4, 0, F3.el(2), 6).binomial_power(Fraction(1, 2)),
        ValueError, "binomial power needs constant term 1"),
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
    "ramif compare across primes": (
        lambda: ramif.BoundExpr.of(1, 1, 2, 3).compare(ramif.BoundExpr.of(1, 1, 2, 5)),
        ValueError, "different primes"),
}

# the refusals a flag reaches: the command, and its message on stderr
COMMANDS = {
    "ramif herbrand jump at 0": ("ramif herbrand --jumps 0,9", "--jumps: "),
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
