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
  and off the lattice, lattice caps included;
- frobenius_fixed_residual, read from the same ghost kernel, against the
  law residual phi(V) - U V (U's image by zmod_series_to_witt, the Witt
  laws' product and a sum with the coordinatewise negative), coordinate
  by coordinate up to the first nonzero one, on each solved V of the
  cases above, on V with a unit added at each coordinate's leading term
  and on V with a unit at a random code;
- solve_frobenius_fixed, each coordinate solving V_k^p - Ubar^(p^k) V_k =
  r_k, against the loop that took the residual's p^k-th root, solved at
  scale 1 and raised the answer to p^k, capping the coordinate where a
  root left the lattice: the old answers' digits are kept and only
  refined, and what changes agrees with a solve four lattice steps finer.
"""

import operator
import random
from fractions import Fraction

import pytest

from padiclab import gf, witt
from padiclab.errors import (ExtensionTooSmall, LatticeTooCoarse, PadicLabError,
                             PrecisionError)
from padiclab.gf import FFElt, _mulmod
from padiclab.padic import binomials_mod_p, power
from padiclab.perfseries import (PerfRing, PerfSeries, _ghost_residual, _mod_p_image,
                                 frobenius_fixed_residual, one_like, root_p_minus_1,
                                 solve_additive, solve_frobenius_fixed)
from padiclab.rings import Zmod
from padiclab.series import SparseSeries, TruncSeries
from test_rings import negative


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

def Ubar_pk(Ubar, k):
    for _ in range(k):
        Ubar = Ubar.pth_power()
    return Ubar


def zmod_series_to_witt(U, ring, n):
    """U = sum c_e u^e over Z/p^m, m >= n, in W_n(PerfSeries) as sum c_e [u]^e,
    from its ghost components w_k = sum c_e u^(e p^k) (Serre, Local Fields,
    II.6): x_k = (w_k - sum_(i<k) p^i x_i^(p^(k-i))) / p^k mod p reads each
    x_i only mod p, so x_i enters lifted to [0, p); x_0 is w_0 mod p.  Over
    U's ring, on the integer exponents below every coordinate's precision
    min(ring.prec, U.prec), each power the p-th power of the one before.
    ArithmeticError when a division by p^k is not exact."""
    p, R, coords = ring.p, U.ring, [_mod_p_image(U, ring, n)]
    L, el, pc = ring.one.L, ring.field.el, coords[0].pc
    top, x, pows = -(-pc // L), U.coeffs, []  # the integer e with e L < pc; x_k = x mod p
    for k in range(1, n):                   # pows: x_i^(p^(k-i)) over U's ring, i < k
        lift = TruncSeries(R, {e: c % p for e, c in x.items()}, top)
        pows = [power(y, p, operator.mul, None) for y in pows + [lift]]
        w = TruncSeries(R, {e * p ** k: c for e, c in U.coeffs.items()}, top)
        for i, y in enumerate(pows):
            w = w - y.scale(p ** i)
        if any(c % p ** k for c in w.coeffs.values()):
            raise ArithmeticError(f"ghost component {k} less its lower terms is not p^{k} Z")
        x = {e: c // p ** k for e, c in w.coeffs.items()}
        coords.append(ring.one._like({e * L: el(c) for e, c in x.items()}, pc))
    return witt.WittVector(p, ring, coords)


def law_residual(U, V, ring, n):
    """phi(V) - U V in W_n(PerfSeries) on the Witt laws, as
    frobenius_fixed_residual computed it before it read the ghost kernel:
    the difference a sum with the negative."""
    return witt.frobenius_w(V) + negative(zmod_series_to_witt(U, ring, n) * V)


def solve_by_witt_laws(U, field, n, D, jmax, prec, steps=None):
    """solve_frobenius_fixed as it was on the Witt laws: each residual
    U V - phi(V) a W_n product and difference, its coordinates below k
    checked zero, each correction x^p - Ubar^(p^k) x = r_k added by a Witt
    sum.  steps, a list, receives (V's coordinates, k, the residual's
    coordinate k) per step."""
    p = field.p
    ring = PerfRing(field, D, jmax, prec)
    UW = zmod_series_to_witt(U, ring, n)
    Ubar = UW.coords[0]
    if Ubar.is_zero():
        raise ValueError("U must not be divisible by p")
    V = witt.WittVector(p, ring, [root_p_minus_1(Ubar)] + [ring.zero] * (n - 1))
    for k in range(1, n):
        resid = UW * V + negative(witt.frobenius_w(V))
        for j in range(k):
            if not resid.coords[j].is_zero():
                raise PrecisionError("residual not divisible by p^k")
        rk = resid.coords[k]
        if steps is not None:
            steps.append((list(V.coords), k, rk))
        x = solve_additive(Ubar_pk(Ubar, k), rk)
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
# seventh caps coordinates 1 and 2 at code 140, below the ring's 700
PINNED_SOLVEV = [(3, 2, [0, 4, 0], 6, 1), (3, 3, [1, 0, 1], 6, 1), (3, 2, [0, 1, 1], 10, 5),
                 (3, 3, [0, 1, 1], 10, 1), (3, 3, [0, 1, 1], 10, 5), (5, 2, [1, 1, 2], 8, 3),
                 (5, 3, [0, 0, 1, 3], 7, 2), (5, 3, [0, 1, 1], 6, 1), (3, 4, [0, 2, 1], 9, 2)]


def with_unit(V, k, code):
    """V with the unit 1 u^(code/L) added to coordinate k."""
    coords, c = list(V.coords), V.coords[k]
    coords[k] = c + c._like({code: c.field.one}, c.pc)
    return witt.WittVector(V.p, V.ring, coords)


def assert_the_check_reads_as_the_laws(U, V, n, rng):
    """frobenius_fixed_residual's coordinates, up to the first nonzero one,
    are the law residual's, negated, in coefficients and precision code, on
    V, on V with a unit added at each coordinate's leading term and on V
    with a unit at a random code; the number of vectors and of those whose
    residual is not zero."""
    k = rng.randrange(n)
    vectors = [V] + [with_unit(V, j, min(c.coeffs)) for j, c in enumerate(V.coords) if c.coeffs]
    if V.coords[k].pc > 0:
        vectors.append(with_unit(V, k, rng.randrange(-(-V.coords[k].pc // 1))))
    caught = 0
    for W in vectors:
        got = frobenius_fixed_residual(U, W, V.ring, n)
        want = law_residual(U, W, V.ring, n).coords[:got.n]
        assert [coded(c) for c in got.coords] == [coded(-c) for c in want], (U, W)
        caught += not got.is_zero()
    return len(vectors), caught


@pytest.mark.parametrize("seed", range(4))
def test_fixed_points_match_the_witt_law_solver(seed):
    """Every residual step, the ghost residual against the law's coordinate
    k on the same V, every whole solution or refusal, and on each solution
    the check against the law residual."""
    rng = random.Random(f"fixed-point-ghosts:{seed}")
    cases = [fixed_point_case(rng) for _ in range(150)]
    if seed == 0:
        cases += [(TruncSeries(Zmod(p, n), dict(enumerate(cs)), M), p, n, p - 1, jmax,
                   Fraction(M)) for p, n, cs, M, jmax in PINNED_SOLVEV]
    capped = solved = steps_seen = checks = caught = 0
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
            capped += sum(pc < ring_pc for _, _, pc in want[1:])
            V = by_ghosts(U, gf.field(p), n, D, jmax, prec)
            more, found = assert_the_check_reads_as_the_laws(U, V, n, rng)
            checks, caught = checks + more, caught + found
    assert solved > 40 and capped > 5 and steps_seen > 60
    assert checks > 3 * solved and solved < caught < checks - solved
    assert refusals == {ValueError, ExtensionTooSmall, LatticeTooCoarse}


def test_the_check_reads_u_at_its_own_precision():
    """U(u^(p^k)) is known to p^k times U's precision code: with V_0
    doubled, coordinate 1 of the residual is 3 u^(15/2) + O(u^8), as the
    laws read it, where U(u^5) read at U mod p's code, O(u^6), certifies
    only O(u^(15/2))."""
    U = TruncSeries(Zmod(5, 3), {0: 25, 1: 40, 2: 106}, 6)
    V = solve_frobenius_fixed(U, gf.field(5), 3, D=8, jmax=5, prec=Fraction(8))
    W = witt.WittVector(5, V.ring, [V.coords[0].scale(V.ring.field.el(2))] + list(V.coords[1:]))
    assert assert_the_check_reads_as_the_laws(U, W, 3, random.Random(0)) == (4, 4)
    res = frobenius_fixed_residual(U, W, V.ring, 3)
    assert [c.terms() for c in res.coords] == [[], [(Fraction(15, 2), V.ring.field.el(3))]]
    assert [c.prec for c in res.coords] == [Fraction(13, 2), Fraction(8)]


def test_the_fixed_point_solver_evaluates_no_witt_law(monkeypatch):
    """With the Witt laws, sums and products made to raise, the solver still
    answers at n = 2, 3 and 4, as the law solver did, and at n = 5 and 6,
    past the laws' cap; the check reads each answer's residual zero."""
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
    for n in range(2, 7):
        U = TruncSeries(Zmod(3, n), {0: 3, 1: 1, 2: 1}, 10)
        V = by_ghosts(U, gf.field(3), n, 2, 4, Fraction(10))
        res = frobenius_fixed_residual(U, V, V.ring, n)
        assert res.n == n and res.is_zero()


# --- each coordinate's own equation against the p^k-th roots it replaced ---

def solve_by_roots(U, field, n, D, jmax, prec):
    """solve_frobenius_fixed as it was before each coordinate solved its own
    equation: the residual's p^k-th root, x^p - Ubar x solved at scale 1 and
    x^(p^k) written in place; a root off the lattice capped the coordinate
    at v(r_k)/p instead."""
    p = field.p
    ring = PerfRing(field, D, jmax, prec)
    Ubar = _mod_p_image(U, ring, n)
    if Ubar.is_zero():
        raise ValueError("U must not be divisible by p")
    V = [root_p_minus_1(Ubar)] + [ring.zero] * (n - 1)
    for k in range(1, n):
        rk = _ghost_residual(U, V, k, ring, Ubar.pc)
        try:
            a = rk
            for _ in range(k):
                a = a.pth_root()
        except LatticeTooCoarse:
            V[k] = V[k].truncate(rk.valuation() / p)
            continue
        x = solve_additive(Ubar, a)
        for _ in range(k):
            x = x.pth_power()
        V[k] = SparseSeries.truncate(x, ring.one.pc)
    return witt.WittVector(p, ring, V)


def below(c, L, top):
    """A coded coordinate's terms below the exponent top, keyed by exponent."""
    return {Fraction(e, L): v for e, v in c[0].items() if e < top * L}


@pytest.mark.parametrize("seed", range(4))
def test_each_coordinate_solves_its_own_equation(seed):
    """Where the roots answer, the direct solve answers with the same
    coefficients below the old code and a code at least as large, or
    refuses exactly as the solve four lattice steps finer does; where the
    roots refuse, it refuses identically.  Each direct answer agrees with
    the finer solve below both codes."""
    rng = random.Random(f"fixed-point-roots:{seed}")
    gained = refused = 0
    for _ in range(150):
        U, p, n, D, jmax, prec = case = fixed_point_case(rng)
        old, new = outcome(solve_by_roots, *case), outcome(by_ghosts, *case)
        fine = outcome(by_ghosts, U, p, n, D, jmax + 4, prec)
        L = D * p ** jmax
        if isinstance(old, tuple):
            assert new == old, case
            continue
        if isinstance(new, tuple):
            assert new == fine, case
            refused += 1
            continue
        for c, was in zip(new, old):
            top = Fraction(was[2], L)
            assert c[2] >= was[2] and below(c, L, top) == below(was, L, top), case
        gained += new != old
        assert isinstance(fine, list), case
        for c, f in zip(new, fine):
            top = min(Fraction(c[2], L), Fraction(f[2], L * p ** 4))
            assert below(c, L, top) == below(f, L * p ** 4, top), case
    assert gained > 5 and refused > 0
