"""PerfSeries and BivarSeries on integer exponent codes against the
Fraction-keyed models they replaced.

FracPerf and FracBivar are those models, kept here as the reference:
coefficients keyed by the exponent itself (a Fraction for PerfSeries,
(i, j) for BivarSeries), every lattice check and truncation done in
Fractions (the weight i + j of (i, j) against a Fraction precision),
the product through the shared kernel with codes bounded through the
Fraction precision.  ref_root_p_minus_1 and ref_solve_additive are the
solvers as they ran on FracPerf.  Results, precisions and every
LatticeTooCoarse message must agree, including precisions off the
lattice.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclab import gf
from padiclab.errors import ExtensionTooSmall, LatticeTooCoarse, PrecisionError
from padiclab.gf import FFElt
from padiclab.padic import binomials_mod_p
from padiclab.perfseries import PerfRing, PerfSeries, root_p_minus_1, solve_additive
from padiclab.series import SparseSeries
from padiclab.taumod import BivarSeries

F3, F9 = gf.field(3), gf.field(3, 2)
SETTINGS = settings(max_examples=80)


# ---------------------------------------------------------------------------
# the Fraction-keyed reference models


class FracPerf(SparseSeries):
    __slots__ = ("field", "D", "jmax")

    def __init__(self, field, D, jmax, coeffs, prec):
        self.field, self.D, self.jmax = field, D, jmax
        self.pc = Fraction(prec)        # an exponent is its own code
        L = D * field.p ** jmax
        clean = {}
        for e, c in coeffs.items():
            e = Fraction(e)
            if (e * L).denominator != 1:
                raise LatticeTooCoarse(f"exponent {e} outside lattice 1/{L} Z")
            if e < self.prec and c:
                clean[e] = clean[e] + c if e in clean else c
        self.coeffs = {e: c for e, c in clean.items() if c}

    def _like(self, coeffs, prec):
        return FracPerf(self.field, self.D, self.jmax, coeffs, prec)

    def _model(self):
        return self.field, self.D, self.jmax

    def _one(self, prec):
        return self._like({Fraction(0): self.field.one}, prec)

    @property
    def L(self):
        return self.D * self.field.p ** self.jmax

    def inverse(self):
        return self._field_inverse(FFElt.inverse)

    def __truediv__(self, other):
        return self * other.inverse()

    def pth_power(self):
        p = self.field.p
        return self._like({e * p: c ** p for e, c in self.coeffs.items()}, self.prec * p)

    def pth_root(self):
        p = self.field.p
        for e in sorted(self.coeffs):
            if (e / p * self.L).denominator != 1:
                raise LatticeTooCoarse(f"p-th root of u^{e} leaves the lattice")
        return self._like({e / p: c ** p ** (self.field.fp_degree - 1)
                           for e, c in self.coeffs.items()},
                          self.prec / p)

    def binomial_power(self, alpha):
        fld, p = self.field, self.field.p
        onep = self._one(self.prec)
        w = self - onep
        if w.is_zero():
            return onep
        wv = w._veff()
        acc = term = onep
        k = 0
        while (k + 1) * wv < self.prec:
            k += 1
            term = term * w
            ck = ref_binom_mod_p(Fraction(alpha), k, p)
            if ck:
                acc = acc + term.scale(fld.el(ck))
        return acc


def ref_binom_mod_p(alpha, k, p):
    num = Fraction(1)
    for i in range(k):
        num *= alpha - i
    c = num / math.factorial(k)
    return c.numerator * pow(c.denominator, -1, p) % p


def ref_root_p_minus_1(U):
    p = U.field.p
    h, lead = U.leading()
    if (h / (p - 1) * U.L).denominator != 1:
        raise LatticeTooCoarse(f"exponent {h}/{p - 1} not representable")
    roots = U.field.frobenius_solutions(lead)
    if len(roots) < 2:
        raise ExtensionTooSmall(f"no {p - 1}-th root of {lead!r} in {U.field.tag}")
    body = U.shift(-h).scale(lead.inverse())
    return body.binomial_power(Fraction(1, p - 1)).scale(roots[1]).shift(h / (p - 1))


def ref_solve_additive(U, a):
    p = U.field.p
    h = U.valuation()
    thresh = Fraction(p) * h / (p - 1)
    target = min(a.prec, U.prec + thresh / p)
    x = FracPerf(a.field, a.D, a.jmax, {}, max(target / p, target - h))
    rem = a
    U0 = U.leading()[1]
    for _ in range(int(max(target - a._veff(), 0) * a.L) + 2):
        va = rem.valuation()
        if va is None or va >= target:
            return x
        if va > thresh:
            x0 = -(rem / U)
        elif va < thresh:
            try:
                x0 = rem.pth_root()
            except LatticeTooCoarse:
                return x.truncate(va / p)
        else:
            a0 = rem.coeffs[va]
            roots = U0.field.frobenius_solutions(U0, a0)
            if not roots:
                raise ExtensionTooSmall(f"residue equation x^{p} - {U0!r} x = {a0!r} "
                                        f"has no root in {U0.field.tag}")
            if (va / p * a.L).denominator != 1:
                return x.truncate(va / p)
            x0 = FracPerf(a.field, a.D, a.jmax, {va / p: roots[0]}, rem.prec / p)
        x = x + x0
        rem = rem - (x0.pth_power() - U * x0)
        if rem._veff() <= va and not rem.is_zero():
            raise PrecisionError("no progress in semilinear solve")
    raise PrecisionError("semilinear solve did not converge")


class FracBivar(SparseSeries):
    __slots__ = ("field",)

    def __init__(self, field, coeffs, prec):
        self.field = field
        self.pc = Fraction(prec)
        clean = {}
        for (i, j), c in coeffs.items():
            if j < 0:
                raise ValueError("eta-exponents are nonnegative")
            if c and Fraction(i + j) < self.prec:
                clean[i, j] = c
        self.coeffs = clean

    def _like(self, coeffs, prec):
        return FracBivar(self.field, coeffs, prec)

    def _model(self):
        return self.field

    def valuation(self):
        if not self.coeffs:
            return None
        return min(Fraction(i + j) for i, j in self.coeffs)

    def _codes(self, other, prec):
        # the Kronecker codes of the weight i + j, bounded through prec
        B = 1 + sum(max((j for _, j in f.coeffs), default=0) for f in (self, other))

        def code(f):
            return {(i + j) * B + j: c for (i, j), c in f.coeffs.items()}

        def decode(k):
            w, j = divmod(k, B)
            return w - j, j

        return code(self), code(other), math.ceil(prec) * B, decode


# ---------------------------------------------------------------------------


def outcome(thunk):
    """What a computation gives, comparable across the two models: the
    terms in increasing exponent order and the precision, or the error."""
    try:
        x = thunk()
    except (LatticeTooCoarse, ExtensionTooSmall, PrecisionError, ValueError) as err:
        return type(err).__name__, str(err)
    if isinstance(x, SparseSeries):
        return x.terms(), x.prec, str(x.prec)
    return x


# lattices 1/L Z with L = D p^jmax; exponents drawn on the finer
# 1/(3L) Z, so a third of them are off the lattice
LATTICES = st.sampled_from([(F3, 2, 2), (F9, 2, 1), (F3, 1, 3), (F9, 4, 0)])


@st.composite
def perf_operands(draw, min_size=0):
    """A lattice and two (terms, precision) operands on it."""
    field, D, jmax = draw(LATTICES)
    L = D * field.p ** jmax
    exps = st.integers(-L, 4 * L).map(lambda k: Fraction(k, 3 * L))
    codes = st.integers(0, field.order - 1).map(field.from_code)
    terms = st.dictionaries(exps, codes, min_size=min_size, max_size=7)
    # precisions on and off the lattice
    precs = st.builds(Fraction, st.integers(1, 6 * L), st.sampled_from([L, 2 * L, 7]))
    return field, D, jmax, [(draw(terms), draw(precs)) for _ in range(2)]


def both(field, D, jmax, terms, prec):
    """The new series and the reference one; LatticeTooCoarse must fire
    in both constructors or in neither, with one message."""
    new = outcome(lambda: PerfSeries(field, D, jmax, terms, prec))
    assert new == outcome(lambda: FracPerf(field, D, jmax, terms, prec))
    if new[0] == "LatticeTooCoarse":
        return None
    return PerfSeries(field, D, jmax, terms, prec), FracPerf(field, D, jmax, terms, prec)


@SETTINGS
@given(perf_operands(), st.integers(-12, 12), st.integers(1, 3))
def test_perf_codes_match_fraction_keys(operands, num, den):
    field, D, jmax, [a, b] = operands
    s = Fraction(num, den * D * field.p ** jmax)     # on or off the lattice
    pairs = [both(field, D, jmax, *a), both(field, D, jmax, *b)]
    for pair in pairs:
        if pair is None:
            continue
        x, rx = pair
        for op in (lambda f: f.shift(s), lambda f: f.pth_root(), lambda f: f.pth_power(),
                   lambda f: f.pth_power().pth_root(),
                   lambda f: f.truncate(f.prec - s), lambda f: f.valuation(),
                   lambda f: f.leading(), lambda f: f * f, lambda f: -f,
                   lambda f: f.inverse() if f.coeffs else None):
            assert outcome(lambda: op(x)) == outcome(lambda: op(rx))
    if None in pairs:
        return
    (x, rx), (y, ry) = pairs
    for op in (lambda f, g: f * g, lambda f, g: f + g, lambda f, g: f - g,
               lambda f, g: f == g):
        assert outcome(lambda: op(x, y)) == outcome(lambda: op(rx, ry))


@SETTINGS
@given(perf_operands(min_size=1))
def test_solvers_match_the_fraction_reference(operands):
    # U and a on one lattice, off-lattice terms dropped; U may have a
    # leading exponent whose (p-1)-st part leaves it, a may need p-th
    # roots deeper than the lattice holds, which caps the solution's
    # precision at v(rem)/p
    field, D, jmax, [u, a] = operands
    L = D * field.p ** jmax
    keep = lambda t: {e: c for e, c in t[0].items() if (e * L).denominator == 1}
    (U, rU), (A, rA) = both(field, D, jmax, keep(u), u[1]), both(field, D, jmax, keep(a), a[1])
    if U.is_zero():
        return
    assert outcome(lambda: root_p_minus_1(U)) == outcome(lambda: ref_root_p_minus_1(rU))
    assert outcome(lambda: solve_additive(U, A)) == outcome(lambda: ref_solve_additive(rU, rA))


def test_lattice_boundary():
    # L = 18: 1/18 is on the lattice, 1/36 is not
    L = 18
    on, off = Fraction(1, L), Fraction(1, 2 * L)
    f = PerfSeries(F3, 2, 2, {on: F3.one, 2 * on: F3.el(2)}, Fraction(35, 36))
    with pytest.raises(LatticeTooCoarse, match=r"^exponent 1/36 outside lattice 1/18 Z$"):
        PerfSeries(F3, 2, 2, {on: F3.one, off: F3.one}, 1)
    with pytest.raises(LatticeTooCoarse, match=r"^exponent 1/12 outside lattice 1/18 Z$"):
        f.shift(off)
    assert f.shift(on).terms() == [(2 * on, F3.one), (3 * on, F3.el(2))]
    assert PerfSeries(F3, 2, 2, {}, 1).shift(off).prec == 1 + off
    with pytest.raises(LatticeTooCoarse, match=r"^p-th root of u\^1/18 leaves the lattice$"):
        f.pth_root()
    # a precision off the lattice keeps the code just below it
    g = PerfSeries(F3, 2, 2, {Fraction(17, 18): F3.one, 1: F3.one}, Fraction(35, 36))
    assert g.terms() == [(Fraction(17, 18), F3.one)] and g.prec == Fraction(35, 36)
    assert (g * g).prec == Fraction(35, 36) + Fraction(17, 18)
    # v(U)/(p-1) off the lattice
    with pytest.raises(LatticeTooCoarse, match=r"^exponent 1/18/2 not representable$"):
        root_p_minus_1(PerfSeries(F3, 2, 2, {on: F3.one}, 2))
    # the p-th root of u^(1/18) leaves the lattice: capped at v(a)/p
    x = solve_additive(PerfSeries(F3, 2, 2, {1: F3.one}, 4), PerfSeries(F3, 2, 2, {on: F3.one}, 4))
    assert x.is_zero() and x.prec == on / 3


@st.composite
def bivar_terms(draw):
    exps = st.tuples(st.integers(-2, 6), st.integers(0, 5))
    codes = st.integers(0, 8).map(F9.from_code)
    return draw(st.dictionaries(exps, codes, max_size=8)), draw(st.integers(1, 12))


@SETTINGS
@given(bivar_terms(), bivar_terms())
def test_bivar_codes_match_fraction_weights(ta, tb):
    x, rx = BivarSeries(F9, *ta), FracBivar(F9, *ta)
    y, ry = BivarSeries(F9, *tb), FracBivar(F9, *tb)
    for op in (lambda f, g: f, lambda f, g: f * g, lambda f, g: f + g,
               lambda f, g: f.valuation(), lambda f, g: f.truncate(g.prec),
               lambda f, g: f == g):
        assert outcome(lambda: op(x, y)) == outcome(lambda: op(rx, ry))
    with pytest.raises(ValueError, match="eta-exponents are nonnegative"):
        BivarSeries(F9, {(0, -1): F9.one}, 1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_binomials_mod_p_match_the_fraction_formula(p):
    for alpha in (Fraction(1, p - 1), Fraction(-1, 2), Fraction(3, 4), Fraction(-1)):
        got = binomials_mod_p(alpha, 59, p)
        assert got == [ref_binom_mod_p(alpha, k, p) for k in range(60)]
    with pytest.raises(ValueError, match="not a p-adic integer"):
        binomials_mod_p(Fraction(1, p), 3, p)


def _fraction_news(monkeypatch, thunk):
    calls = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    thunk()
    monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize("size", [10, 30])
def test_products_build_O1_fractions(monkeypatch, size):
    # a PerfSeries on its lattice holds its precision as an int code, so
    # its products and sums, like those of a BivarSeries truncated by an
    # int degree, build no Fraction; nor does a Witt law's integer
    # constant in PerfRing
    f = PerfSeries(F9, 2, 2, {Fraction(k, 18): F9.from_code(k % 8 + 1) for k in range(size)}, 40)
    g = BivarSeries(F9, {(k, k % 3): F9.from_code(k % 8 + 1) for k in range(size)}, 100)
    ring = PerfRing(F9, 2, 2, 40)
    assert len(f.coeffs) == len(g.coeffs) == size
    assert _fraction_news(monkeypatch, lambda: f * f) == 0
    assert _fraction_news(monkeypatch, lambda: f + f) == 0
    assert _fraction_news(monkeypatch, lambda: ring.of_int(size)) == 0
    assert _fraction_news(monkeypatch, lambda: g * g) == 0
