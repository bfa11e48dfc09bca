"""taumod.galois_act against the term-by-term substitution it replaced.

The reference builds (1+eta)^chi - 1 on every call, multiplies each term
by both of its factors, 1 included, and sums one BivarSeries a term.
The two must agree on coeffs and pc, and raise the same errors with the
same messages, on seeded inputs at p in {3, 5, 7}: u-exponents from -4,
c(g) zero, a multiple of p or a unit, and g at precisions too low for
some truncations."""

import random

from padiclab import gf
from padiclab.gskel import GaloisElt
from padiclab.padic import PadicInt
from padiclab.taumod import BivarSeries, binom_power, bivar_one, galois_act


def galois_act_reference(g, f):
    """galois_act before it built only what its terms use: the reference."""
    fld = f.field
    one = bivar_one(fld, f.prec)
    P = binom_power(g.chi, fld, f.prec) - one  # image of eta
    ppow_cache = {0: one}
    bin_cache: dict = {}
    out = BivarSeries(fld, {}, f.prec)
    for (i, j), c in sorted(f.coeffs.items()):
        if j not in ppow_cache:
            jprev = max(k for k in ppow_cache if k <= j)
            cur = ppow_cache[jprev]
            for t in range(jprev, j):
                cur = cur * P
                ppow_cache[t + 1] = cur
        exponent = g.c * i
        key = exponent.residue % exponent.p ** exponent.prec
        if key not in bin_cache:
            bin_cache[key] = binom_power(exponent, fld, f.prec)
        term = bin_cache[key] * ppow_cache[j]
        shifted = term._like({(a + i, b): v for (a, b), v in term.coeffs.items()},
                             term.prec + i)
        out = out + shifted.scale(c)
    return out.truncate(f.prec)


def draw(rng):
    """A seeded (g, f): g's two precisions drawn apart, c(g) zero, p^k
    times a unit or a unit, chi(g) any unit; f with up to four terms
    u^i eta^j, i from -4 and j < 4, at a truncation from -1 to 9."""
    p = rng.choice((3, 5, 7))
    fld = gf.field(p)
    nc, nchi = rng.randrange(1, 5), rng.randrange(1, 5)
    kind = rng.randrange(3)
    c = 0 if kind == 0 else rng.randrange(1, p ** nc) * p ** (kind == 1)
    chi = rng.randrange(1, p) + p * rng.randrange(p ** nchi)
    g = GaloisElt(PadicInt(p, nc, c), PadicInt(p, nchi, chi))
    prec = rng.randrange(-1, 10)
    coeffs = {(rng.randrange(-4, 6), rng.randrange(4)): fld.random(rng)
              for _ in range(rng.randrange(5))}
    return g, BivarSeries(fld, coeffs, prec)


def outcome(act, g, f):
    try:
        r = act(g, f)
    except Exception as e:           # the type and message are compared
        return type(e), str(e)
    return r.coeffs, r.pc


def test_galois_act_matches_the_reference():
    rng = random.Random(36)
    raised = nonzero = negative = 0
    for _ in range(12000):
        g, f = draw(rng)
        got, want = outcome(galois_act, g, f), outcome(galois_act_reference, g, f)
        assert got == want, (g, f)
        if isinstance(want[0], type):
            raised += 1
        elif want[0]:
            nonzero += 1
            negative += want[1] < f.prec
    # the draw reaches each case: refusals, nonzero images and a
    # precision lowered by a negative u-exponent
    assert raised > 1000 and nonzero > 3000 and negative > 500, (raised, nonzero, negative)
