"""PerfSeries with its precision held as a lattice code against the
PerfSeries that held it as a Fraction.

RefPerf is that model, kept here as the reference together with the
shared-kernel operations it ran through (RefKernel): coefficients keyed
by the int code e*L, the precision an exact Fraction, every product,
sum, truncation and inverse bounded through code_bound(prec, L).
Random chains of operations over F_3, F_5 and F_9, on lattices
1/(D p^jmax) Z with D in {1, 2, 4} and jmax <= 3, must give equal
coefficient dicts, equal exact precisions and the same errors in both,
precisions off the lattice included; and the precision and valuation
read from a PerfSeries must always be Fractions.
"""

import math
from fractions import Fraction
from heapq import heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from padiclab import gf
from padiclab.errors import LatticeTooCoarse, PrecisionError
from padiclab.gf import FFElt
from padiclab.padic import binomials_mod_p
from padiclab.perfseries import PerfSeries


def code_bound(prec, unit: int) -> int:
    """ceil(prec * unit) in ints: an int k has k / unit < prec iff k < it."""
    return -(-prec.numerator * unit // prec.denominator)


class RefKernel:
    """The shared series kernel as it ran on a Fraction precision."""

    __slots__ = ("coeffs", "prec")

    def _veff(self):
        v = self.valuation()
        return self.prec if v is None else v

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero series has no leading coefficient")
        return self.valuation(), self.coeffs[min(self.coeffs)]

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other):
        if type(other) is not type(self) or other._model() != self._model():
            raise ValueError("series from different models")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return self._like(out, min(self.prec, other.prec))

    def __neg__(self):
        return self._like({e: -c for e, c in self.coeffs.items()}, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        prec = min(self.prec + other._veff(), other.prec + self._veff())
        bound = code_bound(prec, self.L)
        out: dict = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                if k < bound:
                    t = c1 * c2
                    out[k] = out[k] + t if k in out else t
        return self._like(out, prec)

    def scale(self, c):
        return self._like({e: v * c for e, v in self.coeffs.items()}, self.prec)

    def truncate(self, prec):
        if prec >= self.prec:
            return self
        return self._like(self.coeffs, prec)

    def _field_inverse(self, inv):
        v, lead = self.leading()
        linv = inv(lead)
        left, bound = self.coeffs, code_bound(self.prec - v, self.L)
        low = min(left)
        tail = sorted((k - low, c) for k, c in left.items() if k != low)
        out, sums, heap = {}, {}, [0]
        while heap:
            n = heappop(heap)
            g = -sums.pop(n) * linv if n else linv
            if not g:
                continue
            out[n - low] = g
            for k, c in tail:
                m = n + k
                if m >= bound:
                    break
                if m in sums:
                    sums[m] = sums[m] + c * g
                else:
                    sums[m] = c * g
                    heappush(heap, m)
        return self._like(out, self.prec - 2 * v)


class RefPerf(RefKernel):
    """PerfSeries with a Fraction precision."""

    __slots__ = ("field", "D", "jmax", "L")

    def __init__(self, field, D, jmax, coeffs, prec):
        self.field, self.D, self.jmax = field, D, jmax
        self.L = L = D * field.p ** jmax
        codes = {}
        for e, c in coeffs.items():
            k = Fraction(e) * L
            if k.denominator != 1:
                raise LatticeTooCoarse(f"exponent {Fraction(e)} outside lattice 1/{L} Z")
            k = k.numerator
            codes[k] = codes[k] + c if k in codes else c
        self._fill(codes, prec)

    def _like(self, coeffs, prec):
        out = object.__new__(RefPerf)
        out.field, out.D, out.jmax, out.L = self.field, self.D, self.jmax, self.L
        out._fill(coeffs, prec)
        return out

    def _fill(self, coeffs, prec):
        self.prec = prec if type(prec) is Fraction else Fraction(prec)
        bound = code_bound(self.prec, self.L)
        self.coeffs = {k: c for k, c in coeffs.items() if k < bound and c}

    def _model(self):
        return self.field, self.D, self.jmax

    def valuation(self):
        return Fraction(min(self.coeffs), self.L) if self.coeffs else None

    def shift(self, e):
        k = Fraction(e) * self.L
        if k.denominator != 1 and self.coeffs:
            e = Fraction(min(self.coeffs), self.L) + e
            raise LatticeTooCoarse(f"exponent {e} outside lattice 1/{self.L} Z")
        k = k.numerator
        return self._like({c + k: v for c, v in self.coeffs.items()}, self.prec + e)

    def inverse(self):
        return self._field_inverse(FFElt.inverse)

    def pth_power(self):
        p, frob = self.field.p, self.field.frob_p
        return self._like({k * p: frob(c) for k, c in self.coeffs.items()}, self.prec * p)

    def pth_root(self):
        p = self.field.p
        for k in sorted(self.coeffs):
            if k % p:
                raise LatticeTooCoarse(f"p-th root of u^{Fraction(k, self.L)} leaves the lattice")
        return self._like({k // p: self.field.frob_p(c, -1) for k, c in self.coeffs.items()},
                          self.prec / p)

    def binomial_power(self, alpha):
        fld = self.field
        onep = self._like({0: fld.one}, self.prec)
        w = self - onep
        if w.is_zero():
            return onep
        wv = w._veff()
        if wv <= 0:
            raise ValueError("binomial power needs constant term 1")
        acc = term = onep
        for ck in binomials_mod_p(alpha, math.ceil(self.prec / wv) - 1, fld.p)[1:]:
            term = term * w
            if ck:
                acc = acc + term.scale(fld.el(ck))
        return acc


# ---------------------------------------------------------------------------

F3, F5, F9 = gf.field(3), gf.field(5), gf.field(3, 2)
SETTINGS = settings(max_examples=150)
ERRORS = (LatticeTooCoarse, PrecisionError, ValueError, ZeroDivisionError)


def outcome(thunk):
    """The result and None, or None and the error."""
    try:
        return thunk(), None
    except ERRORS as err:
        return None, (type(err).__name__, str(err))


def check_readers(x):
    """The public readers give Fractions; pc is an int exactly on the lattice."""
    assert type(x.prec) is Fraction
    if x.coeffs:
        assert type(x.valuation()) is Fraction and type(x.leading()[0]) is Fraction
    assert all(type(e) is Fraction for e, _ in x.terms())
    assert (type(x.pc) is int) == ((x.prec * x.L).denominator == 1)


@st.composite
def chains(draw):
    """A lattice, two nonzero start series on it and a chain of
    operations: each step applies an operation to series already made
    (by index), with shifts, truncations, monomial exponents and start
    precisions on the lattice, a p-th of its step off it, or half a step
    off it."""
    field = draw(st.sampled_from([F3, F5, F9]))
    D, jmax = draw(st.sampled_from([1, 2, 4])), draw(st.integers(0, 3))
    p, L = field.p, D * field.p ** jmax
    fine = st.sampled_from([L, L, p * L, 2 * L])        # denominators of drawn exponents
    near = st.builds(Fraction, st.integers(-2 * L, 4 * L), fine)
    coeffs = st.integers(1, field.order - 1).map(field.from_code)
    starts = []
    for _ in range(2):
        step = draw(st.sampled_from([1, p]))        # codes all divisible by p: a p-th root
        exps = st.integers(-L, 5 * L).map(lambda k: Fraction(k - k % step, L))
        terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=8))
        den = draw(fine)
        prec = Fraction(draw(st.integers(den, 6 * den)), den)
        starts.append((terms, prec))
    alphas = [Fraction(1, p - 1), Fraction(-1), Fraction(3, 4), Fraction(1, 2)]
    steps = []
    for n in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(["*", "+", "-", "neg", "scale", "shift", "truncate",
                                   "pth_power", "pth_root", "inverse", "monomial",
                                   "binomial_power"]))
        # the last series made as often as any other
        i = draw(st.one_of(st.just(n + 1), st.integers(0, n + 1)))
        j = draw(st.integers(0, n + 1))
        steps.append((op, i, j, draw(near), draw(coeffs), draw(st.sampled_from(alphas))))
    return field, D, jmax, starts, steps


def apply(op, x, y, s, c, alpha):
    if op == "*":
        return x * y
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "neg":
        return -x
    if op == "scale":
        return x.scale(c)
    if op == "shift":
        return x.shift(s)
    if op == "truncate":
        # at or below the precision, as often at v(x)/p as at a drawn point
        v = x.valuation()
        return x.truncate(v / x.field.p if v is not None and s < 0 else x.prec - abs(s))
    if op == "pth_power":
        return x.pth_power()
    if op == "pth_root":
        return x.pth_root()
    if op == "inverse":
        return x.inverse()
    if op == "monomial":
        return type(x)(x.field, x.D, x.jmax, {s: c}, x.prec)
    # 1 + u^(1 - v(x)) (x's first three terms), at precision at most 4
    low = min(x.coeffs, default=0)
    w = {1 + Fraction(k - low, x.L): c for k, c in sorted(x.coeffs.items())[:3]}
    one = x.field.one
    return type(x)(x.field, x.D, x.jmax, {0: one, **w}, min(x.prec, 4)).binomial_power(alpha)


@SETTINGS
@given(chains())
def test_op_chains_match_the_fraction_precision_model(chain):
    field, D, jmax, starts, steps = chain
    new = [PerfSeries(field, D, jmax, *t) for t in starts]
    ref = [RefPerf(field, D, jmax, *t) for t in starts]
    for x in new:
        check_readers(x)
    for op, i, j, s, c, alpha in steps:
        i, j = i % len(new), j % len(new)
        x, err = outcome(lambda: apply(op, new[i], new[j], s, c, alpha))
        rx, rerr = outcome(lambda: apply(op, ref[i], ref[j], s, c, alpha))
        assert err == rerr
        if err is None:
            assert x.coeffs == rx.coeffs and x.prec == rx.prec
            check_readers(x)
            if len(x.coeffs) <= 32 and abs(x.prec) <= 12:     # keeps the chain fast
                new.append(x)
                ref.append(rx)


def test_off_lattice_precisions_stay_exact():
    # L = 2 * 3^1 = 6: a p-th root of the precision 1 leaves the lattice,
    # its p-th power comes back onto it as an int code
    f = PerfSeries(F3, 2, 1, {0: F3.el(2)}, 1)
    r = f.pth_root()
    assert r.prec == Fraction(1, 3) and r.pc == 2
    rr = r.pth_root()
    assert rr.prec == Fraction(1, 9) and rr.pc == Fraction(2, 3) and rr.coeffs == f.coeffs
    back = rr.pth_power()
    assert type(back.pc) is int and back.prec == Fraction(1, 3)
    assert type(f.truncate(Fraction(1, 7)).pc) is Fraction
    assert f.truncate(Fraction(1, 7)).prec == Fraction(1, 7)
