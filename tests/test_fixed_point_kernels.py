"""Differential tests of the kernels under the Frobenius fixed points,
each against the code it replaced, kept here as the reference:

- PerfSeries.binomial_power, the product over base-p digits, against the
  term loop sum C(alpha, k) w^k, on coefficients and on the precision
  code's value and type, over F_3, F_5, F_7, F_9 and F_27, on and off
  the lattice, at alpha = +-1/(p-1) and at random alpha;
- FFElt's one-step arithmetic at degree 1 against the coefficient-tuple
  path that every other field takes, on every pair of F_3, F_5 and F_7
  and on seeded pairs of F_101, int operands and the reflected operators
  included;
- solve_frobenius_fixed, its residual read from ghost components and each
  correction written in place, against the loop on the Witt laws (the
  residual a W_n product and difference, each correction a Witt sum), on
  each residual step and each whole solution or refusal: seeded U over
  Z/p^n, p in {3, 5, 7}, n <= 4, D in {1, p - 1, 2(p - 1)}, precisions on
  and off the lattice, lattice caps included.
"""

import operator
import random
from fractions import Fraction

import pytest

from padiclab import gf, witt
from padiclab.errors import (ExtensionTooSmall, LatticeTooCoarse, PadicLabError,
                             PrecisionError)
from padiclab.gf import FFElt, _mulmod
from padiclab.padic import binomials_mod_p
from padiclab.perfseries import (PerfRing, PerfSeries, _ghost_residual, _mod_p_image,
                                 one_like, root_p_minus_1, solve_additive,
                                 solve_frobenius_fixed, zmod_series_to_witt)
from padiclab.rings import Zmod
from padiclab.series import TruncSeries


def binomial_power_by_terms(x, alpha):
    """(1 + w)^alpha by the term loop: one product per k with k v(w) < prec."""
    fld = x.field
    onep = one_like(x)
    w = x - onep
    if w.is_zero():
        return onep
    wv = w._veff()
    if wv <= 0:
        raise ValueError("binomial power needs constant term 1")
    acc = term = onep
    for ck in binomials_mod_p(alpha, -(-x.pc // wv) - 1, x.p)[1:]:
        term = term * w
        if ck:
            acc = acc + term.scale(fld.el(ck))
    return acc


FIELDS = [gf.field(3), gf.field(5), gf.field(7), gf.field(3, 2), gf.field(3, 3)]


def binomial_case(rng):
    """(1 + w, alpha): the precision code pc on the lattice or a multiple
    of 1/p off it; w of one to four terms, the least of code v = pc/j
    rounded, j < 41, so the loop stays short (w = 0 where pc <= 1); alpha
    +-1/(p-1), an int or a random element of Z_(p)."""
    F = rng.choice(FIELDS)
    p = F.p
    D, jmax = rng.choice([1, 2, p - 1]), rng.randrange(3)
    L = D * p ** jmax
    pc = Fraction(rng.randrange(1, 6 * L * p), p)
    top = -(-pc // 1)
    v = max(1, top // rng.randrange(1, 41))
    w = {Fraction(k, L): F.random_nonzero(rng)
         for k in [v] + [rng.randrange(v, 2 * top) for _ in range(rng.randrange(4))]}
    x = PerfSeries(F, D, jmax, {0: F.one, **w}, pc / L)
    kind = rng.randrange(4)
    if kind < 2:
        alpha = Fraction((-1) ** kind, p - 1)
    elif kind == 2:
        alpha = Fraction(rng.randrange(-60, 60))
    else:
        den = rng.choice([b for b in range(1, 30) if b % p])
        alpha = Fraction(rng.randrange(-400, 400), den)
    return x, alpha


@pytest.mark.parametrize("seed", range(4))
def test_binomial_power_matches_the_term_loop(seed):
    rng = random.Random(f"binomial-digits:{seed}")
    off_lattice = 0
    for _ in range(100):
        x, alpha = binomial_case(rng)
        got, want = x.binomial_power(alpha), binomial_power_by_terms(x, alpha)
        assert got.coeffs == want.coeffs, (x, alpha)
        assert type(got.pc) is type(want.pc) and got.pc == want.pc, (x, alpha)
        off_lattice += type(got.pc) is not int
    assert off_lattice > 10


def test_binomial_power_refuses_as_the_term_loop_did():
    F = gf.field(5)
    x = PerfSeries(F, 4, 1, {0: F.one, Fraction(1, 4): F.el(2)}, Fraction(3))
    for alpha in (Fraction(1, 5), Fraction(7, 10)):
        with pytest.raises(ValueError, match="^exponent not a p-adic integer$"):
            x.binomial_power(alpha)
        with pytest.raises(ValueError, match="^exponent not a p-adic integer$"):
            binomial_power_by_terms(x, alpha)
    one = one_like(x)      # w = 0 answers before alpha is read
    for power in (one.binomial_power, lambda alpha: binomial_power_by_terms(one, alpha)):
        got = power(Fraction(1, 5))
        assert got.coeffs == one.coeffs and got.pc == one.pc


# --- FFElt at degree 1 ---

def by_tuples(op, a, b):
    """a op b as the coefficient-tuple path computes it: b coerced into
    a's field, sums digit by digit, products by _mulmod."""
    F = a.field
    p, x = F.p, a.coeffs
    if op == "neg":
        return FFElt(F, tuple(-c % p for c in x))
    y = F.coerce(b).coeffs
    if op == "add":
        return FFElt(F, tuple((c + d) % p for c, d in zip(x, y)))
    if op == "sub":
        return FFElt(F, tuple((c - d) % p for c, d in zip(x, y)))
    return FFElt(F, _mulmod(x, y, F._fold, p))


def same(got, want):
    return type(got) is FFElt and got.field is want.field and type(got.coeffs) is tuple \
        and got.coeffs == want.coeffs and all(type(c) is int for c in got.coeffs)


def check_pair(a, b):
    """Every operator on the pair (a, b) of one prime field, with b also as
    an int operand on either side."""
    k = b.coeffs[0] + b.field.p * 3 - 7      # an int of b's residue, any size
    cases = [(a + b, "add", a, b), (a - b, "sub", a, b), (a * b, "mul", a, b),
             (-a, "neg", a, None), (a + k, "add", a, k), (k + a, "add", a, k),
             (a - k, "sub", a, k), (a * k, "mul", a, k), (k * a, "mul", a, k),
             (a.__radd__(b), "add", b, a), (a.__rmul__(b), "mul", b, a)]
    for got, op, x, y in cases:
        assert same(got, by_tuples(op, x, y)), (op, x, y)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_prime_field_arithmetic_matches_the_tuple_path_on_every_pair(p):
    F = gf.field(p)
    for a in map(F.from_code, range(p)):
        for b in map(F.from_code, range(p)):
            check_pair(a, b)


def test_prime_field_arithmetic_matches_the_tuple_path_on_seeded_pairs():
    F, rng = gf.field(101), random.Random("ffelt-degree-1")
    for _ in range(2000):
        check_pair(F.random(rng), F.random(rng))


def test_degree_one_arithmetic_leaves_other_operands_to_the_tuple_path():
    F3, F9 = gf.field(3), gf.field(3, 2)
    a, b = F9.gen, F3.el(2)
    for op, got in (("add", a + b), ("sub", a - b)):
        assert same(got, by_tuples(op, a, b))
    with pytest.raises(TypeError, match="cannot coerce"):
        b + Fraction(1, 2)


def test_products_coerce_a_subfield_element_as_sums_do():
    """F9 * F3 answers in F9, as F9 + F3 does; F3 * F9 refuses exactly as
    F3 + F9 does, with no reflected product tried."""
    F3, F9 = gf.field(3), gf.field(3, 2)
    for a in map(F9.from_code, range(9)):
        for b in map(F3.from_code, range(3)):
            assert same(a * b, by_tuples("mul", a, b)) and a * b == a * b.coeffs[0]
            assert same(a.__rmul__(b), by_tuples("mul", a, b))
            for op in (operator.add, operator.mul):
                with pytest.raises(ValueError, match="^cannot coerce element of F9 into F3$"):
                    op(b, a)
    with pytest.raises(TypeError, match="unsupported operand"):
        F9.gen * Fraction(1, 2)


# --- the Frobenius fixed points: residual from ghost components ---

def solve_by_witt_laws(U, field, n, D, jmax, prec, steps=None):
    """solve_frobenius_fixed as it was on the Witt laws: each residual
    U V - phi(V) a W_n product and difference, its coordinates below k
    checked zero, each correction added by a Witt sum.  steps, a list,
    receives (V's coordinates, k, the residual's coordinate k) per step."""
    p = field.p
    ring = PerfRing(field, D, jmax, prec)
    UW = zmod_series_to_witt(U, ring, n)
    Ubar = UW.coords[0]
    if Ubar.is_zero():
        raise ValueError("U must not be divisible by p")
    V = witt.WittVector(p, ring, [root_p_minus_1(Ubar)] + [ring.zero] * (n - 1))
    for k in range(1, n):
        resid = UW * V - witt.frobenius_w(V)
        for j in range(k):
            if not resid.coords[j].is_zero():
                raise PrecisionError("residual not divisible by p^k")
        rk = resid.coords[k]
        if steps is not None:
            steps.append((list(V.coords), k, rk))
        try:
            a = rk
            for _ in range(k):
                a = a.pth_root()
        except LatticeTooCoarse:
            coords = list(V.coords)
            coords[k] = coords[k].truncate(rk.valuation() / p)
            V = witt.WittVector(p, ring, coords)
            continue
        x = solve_additive(Ubar, a)
        for _ in range(k):
            x = x.pth_power()
        V = V + witt.WittVector(p, ring, [ring.zero] * k + [x] + [ring.zero] * (n - 1 - k))
    return V


def fixed_point_case(rng):
    """(U, p, n, D, jmax, prec): half the draws with U mod p of leading
    coefficient 1 (the one (p-1)-st power of F_p), so that most solve,
    half with any coefficients; the precision an integer or a half, at,
    below or above U's.  W_4 laws are generated at p = 3 only."""
    p = rng.choice([3, 5, 7])
    n = rng.randint(1, 4 if p == 3 else 3)
    q = p ** n
    D, jmax, M = rng.choice([1, p - 1, 2 * (p - 1)]), rng.randint(0, 5), rng.randint(2, 10)
    if rng.random() < 0.5:
        h = rng.choice([0, 1, 1, 2])
        coeffs = {e: p * rng.randrange(q // p) for e in range(h)}
        coeffs[h] = 1 + p * rng.randrange(q // p)
        coeffs.update((e, rng.randrange(q)) for e in range(h + 1, h + rng.randint(1, 5)))
    else:
        coeffs = {e: rng.randrange(q) for e in range(rng.randint(1, 5))}
    prec = rng.choice([Fraction(M), Fraction(M + 2), Fraction(2 * M + 1, 2), Fraction(M - 1)])
    return TruncSeries(Zmod(p, n), coeffs, M), p, n, D, jmax, prec


def coded(c):
    return c.coeffs, type(c.pc), c.pc


def outcome(solve, U, p, n, D, jmax, prec):
    """Each coordinate's coefficients, precision code and its type, or the
    refusal's type and message."""
    try:
        return [coded(c) for c in solve(U, gf.field(p), n, D, jmax, prec).coords]
    except (PadicLabError, ValueError) as exc:
        return type(exc), str(exc)


def by_ghosts(U, field, n, D, jmax, prec):
    return solve_frobenius_fixed(U, field, n, D=D, jmax=jmax, prec=prec)


# series solvev's pinned configurations, (p, n, coefficients, M, jmax); the
# last caps coordinates 2 and 3 at codes 399 and 295, below the ring's 486
PINNED_SOLVEV = [(3, 2, [0, 4, 0], 6, 1), (3, 3, [1, 0, 1], 6, 1), (3, 2, [0, 1, 1], 10, 5),
                 (3, 3, [0, 1, 1], 10, 1), (3, 3, [0, 1, 1], 10, 5), (5, 2, [1, 1, 2], 8, 3),
                 (5, 3, [0, 0, 1, 3], 7, 2), (5, 3, [0, 1, 1], 6, 1), (3, 4, [0, 2, 1], 9, 2)]


@pytest.mark.parametrize("seed", range(4))
def test_fixed_points_match_the_witt_law_solver(seed):
    """Every residual step, the ghost residual against the law's coordinate
    k on the same V, and every whole solution or refusal."""
    rng = random.Random(f"fixed-point-ghosts:{seed}")
    cases = [fixed_point_case(rng) for _ in range(150)]
    if seed == 0:
        cases += [(TruncSeries(Zmod(p, n), dict(enumerate(cs)), M), p, n, p - 1, jmax,
                   Fraction(M)) for p, n, cs, M, jmax in PINNED_SOLVEV]
    capped = solved = steps_seen = 0
    refusals = set()
    for U, p, n, D, jmax, prec in cases:
        steps = []
        want = outcome(lambda *a: solve_by_witt_laws(*a, steps=steps), U, p, n, D, jmax, prec)
        assert outcome(by_ghosts, U, p, n, D, jmax, prec) == want, (U, p, n, D, jmax, prec)
        for coords, k, rk in steps:
            ring = PerfRing(gf.field(p), D, jmax, prec)
            got = _ghost_residual(U, coords, k, ring, _mod_p_image(U, ring, n).pc)
            assert coded(got) == coded(rk), (U, p, n, D, jmax, prec, k)
        steps_seen += len(steps)
        if isinstance(want, tuple):
            refusals.add(want[0])
        else:
            solved += 1
            ring_pc = PerfRing(gf.field(p), D, jmax, prec).one.pc
            capped += any(not c and pc < ring_pc for c, _, pc in want[1:])
    assert solved > 40 and capped > 5 and steps_seen > 60
    assert refusals == {ValueError, ExtensionTooSmall, LatticeTooCoarse}


def test_the_fixed_point_solver_evaluates_no_witt_law(monkeypatch):
    """With the Witt laws, sums and products made to raise, the solver still
    answers at n = 2, 3 and 4, as the law solver did."""
    cases = [(TruncSeries(Zmod(3, n), {0: 3, 1: 1, 2: 1}, 10), n) for n in (2, 3, 4)]
    want = [outcome(solve_by_witt_laws, U, 3, n, 2, 4, Fraction(10)) for U, n in cases]

    def no_law(*args, **kwargs):
        raise AssertionError("a Witt law was evaluated")

    monkeypatch.setattr(witt, "eval_law", no_law)
    monkeypatch.setattr(witt, "generate_laws", no_law)
    monkeypatch.setattr(witt.WittVector, "__add__", no_law)
    monkeypatch.setattr(witt.WittVector, "__mul__", no_law)
    got = [outcome(by_ghosts, U, 3, n, 2, 4, Fraction(10)) for U, n in cases]
    assert got == want and all(isinstance(g, list) and len(g) == n
                               for g, (_, n) in zip(got, cases))
