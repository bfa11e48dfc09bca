"""The shared sparse-series kernel against a plain dict convolution.

Each model draws random sparse operands, and sums, products, equality
and (over a field) inverses must match a slow reference written here:
coefficients keyed by the exponent itself, combined pair by pair,
kept when the exponent's weight is below the precision.  The inverse
by coefficient recurrence must also give exactly the coefficients and
precision of the geometric-series loop it replaced, kept here as
geometric_inverse.
"""

import math
from collections import namedtuple
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padiclab import gf
from padiclab.perfseries import PerfSeries
from padiclab.rings import FFRing, QRing, Zmod
from padiclab.series import SparseSeries, TruncSeries
from padiclab.taumod import BivarSeries

F3 = gf.field(3)
F9 = gf.field(3, 2)
F9_CODES = st.integers(0, 8).map(F9.from_code)

# make(terms, prec) builds the series; norm gives a coefficient's
# canonical form; weight and add act on exponents
Model = namedtuple("Model", "make exps coeffs precs weight add norm zero one unit_exp")


def _trunc(ring, coeffs, norm=lambda c: c):
    return Model(lambda t, p: TruncSeries(ring, t, p), st.integers(-3, 9), coeffs,
                 st.integers(1, 10), lambda e: e, lambda a, b: a + b, norm,
                 ring.zero, ring.one, 0)


MODELS = {
    "trunc-Z/9": _trunc(Zmod(3, 2), st.integers(-20, 40), lambda c: c % 9),
    "trunc-Q": _trunc(QRing(3), st.fractions(-4, 4, max_denominator=6)),
    "trunc-F9": _trunc(FFRing(F9), F9_CODES),
    # D = 2, jmax = 2: the lattice (1/18) Z
    "perf": Model(lambda t, p: PerfSeries(F9, 2, 2, t, p),
                  st.integers(-9, 40).map(lambda k: Fraction(k, 18)), F9_CODES,
                  # precisions off the lattice too, as truncation makes them
                  st.integers(1, 72).map(lambda k: Fraction(k, 36)),
                  lambda e: e, lambda a, b: a + b, lambda c: c,
                  F9.zero, F9.one, Fraction(0)),
    # truncated by total degree
    "bivar-1-1": Model(lambda t, p: BivarSeries(F9, t, p),
                       st.tuples(st.integers(-2, 6), st.integers(0, 5)), F9_CODES,
                       st.integers(1, 12), lambda e: e[0] + e[1],
                       lambda a, b: (a[0] + b[0], a[1] + b[1]), lambda c: c,
                       F9.zero, F9.one, (0, 0)),
}

SETTINGS = settings(max_examples=60)


def terms(m, min_size=0):
    return st.dictionaries(m.exps, m.coeffs, min_size=min_size, max_size=8)


def ref_form(m, t, prec):
    """(terms, prec) in normal form: weight below prec, canonical
    nonzero coefficients."""
    out = {}
    for e, c in t.items():
        c = m.norm(c)
        if m.weight(e) < prec and c != m.zero:
            out[e] = c
    return out, prec


def ref_veff(m, a):
    t, prec = a
    return min((m.weight(e) for e in t), default=prec)


def ref_add(m, a, b):
    out = dict(a[0])
    for e, c in b[0].items():
        out[e] = out[e] + c if e in out else c
    return ref_form(m, out, min(a[1], b[1]))


def ref_mul(m, a, b):
    out = {}
    for e1, c1 in a[0].items():
        for e2, c2 in b[0].items():
            e = m.add(e1, e2)
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return ref_form(m, out, min(a[1] + ref_veff(m, b), b[1] + ref_veff(m, a)))


def ref_eq(m, a, b):
    prec = min(a[1], b[1])
    keys = set(a[0]) | set(b[0])
    return all(a[0].get(e, m.zero) == b[0].get(e, m.zero)
               for e in keys if m.weight(e) < prec)


def state(s):
    return dict(s.terms()), s.prec


@pytest.mark.parametrize("name", sorted(MODELS))
@SETTINGS
@given(data=st.data())
def test_kernel_matches_dict_convolution(name, data):
    m = MODELS[name]
    ta, pa = data.draw(terms(m)), data.draw(m.precs)
    # half the time the same terms, so that equality can hold
    tb = ta if data.draw(st.booleans()) else data.draw(terms(m))
    pb = data.draw(m.precs)
    a, b = m.make(ta, pa), m.make(tb, pb)
    A, B = ref_form(m, ta, pa), ref_form(m, tb, pb)
    assert state(a) == A and state(b) == B
    assert state(a * b) == ref_mul(m, A, B)
    assert state(a + b) == ref_add(m, A, B)
    assert (a == b) == ref_eq(m, A, B)


def loop_product(a, b):
    """The product loop as it ran on every pair of operands, an empty one
    among them: precision code, product codes, the loop, _like."""
    a._check(b)
    pc = a._product_pc(b)
    left, right, bound, decode = a._codes(b, pc)
    out = {}
    for k1, c1 in left.items():
        for k2, c2 in right.items():
            k = k1 + k2
            if k < bound:
                out[k] = out[k] + c1 * c2 if k in out else c1 * c2
    if decode is not None:
        out = {decode(k): c for k, c in out.items()}
    return a._like(out, pc)


@pytest.mark.parametrize("name", sorted(MODELS))
@SETTINGS
@given(data=st.data())
def test_empty_operand_products_match_the_loop(name, data):
    """A product with an operand zero at its precision (no terms, or only
    terms at or above it) is the loop's: the same empty coefficients and
    the same precision code, of the same type, with no product codes made."""
    m = MODELS[name]
    a = m.make(data.draw(terms(m)), data.draw(m.precs))
    prec = data.draw(m.precs)
    high = {e: c for e, c in data.draw(terms(m)).items() if m.weight(e) >= prec}
    empty = m.make(data.draw(st.sampled_from([{}, high])), prec)
    assert not empty.coeffs
    for x, y in ((a, empty), (empty, a)):
        want = loop_product(x, y)
        with mock.patch.object(type(x), "_codes", side_effect=AssertionError("loop ran")):
            got = x * y
        assert (got.coeffs, got.pc, type(got.pc)) == ({}, want.pc, type(want.pc))
        assert want.coeffs == {}


def test_empty_operand_products_of_different_models_still_raise():
    pairs = [(TruncSeries(FFRing(F9), {}, 4), TruncSeries(Zmod(3, 2), {}, 4)),
             (PerfSeries(F9, 2, 2, {}, 4), PerfSeries(F9, 1, 2, {}, 4)),
             (PerfSeries(F9, 2, 2, {}, 4), TruncSeries(FFRing(F9), {}, 4))]
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="different models"):
                x * y


@pytest.mark.parametrize("name", ["perf", "trunc-F9", "trunc-Q"])
@SETTINGS
@given(data=st.data())
def test_field_inverse_matches_dict_convolution(name, data):
    m = MODELS[name]
    t, prec = data.draw(terms(m, min_size=1)), data.draw(m.precs)
    F = ref_form(m, t, prec)
    assume(F[0])
    v = min(F[0])
    g = m.make(t, prec).inverse()
    G = state(g)
    assert G == ref_form(m, *G)
    assert g.prec == prec - 2 * v
    # f * g = 1 up to the product's precision, which pins g down
    assert ref_mul(m, F, G) == ref_form(m, {m.unit_exp: m.one}, prec - v)


# ---------------------------------------------------------------------------
# the recurrence inverse against the geometric-series loop it replaced


def geometric_inverse(f, inv):
    """f = lead u^v (1 + w) gives 1/f = lead^-1 u^-v sum_k (-w)^k, summed
    while k v(w) < prec - v: about (prec - v)/v(w) full products.
    Precisions and v(w) are compared as codes."""
    v, lead = f.leading()
    linv = inv(lead)
    unit = f.shift(-v).scale(linv)
    one = unit._like({0: lead * linv}, unit.pc)
    w = unit - one
    wv = w._veff()
    assert wv > 0
    acc = term = one
    k = 0
    while k * wv < unit.pc:
        term = term * (-w)
        acc = acc + term
        k += 1
    return acc.scale(linv).shift(-v).truncate(f.prec - 2 * v)


def nonzero(codes, make):
    return st.integers(1, codes - 1).map(make)


# name -> (ring, coefficient strategy, nonzero-coefficient strategy)
TRUNC_RINGS = {
    "F3": (FFRing(F3), st.integers(0, 2).map(F3.from_code), nonzero(3, F3.from_code)),
    "F9": (FFRing(F9), F9_CODES, nonzero(9, F9.from_code)),
    "Q": (QRing(3), st.fractions(-4, 4, max_denominator=27),
          st.fractions(-4, 4, max_denominator=27).map(lambda c: c or Fraction(1, 3))),
    # through the Newton lift: the leading coefficient may be divisible by p
    "Z/9": (Zmod(3, 2), st.integers(0, 8), st.integers(1, 8)),
    "Z/125": (Zmod(5, 3), st.integers(0, 124), st.integers(1, 124)),
    "Z/81": (Zmod(3, 4), st.integers(0, 80), st.integers(1, 80)),
}


@st.composite
def trunc_units(draw, name):
    """A TruncSeries with a nonzero term at v in [-3, 6] and, above it,
    either every exponent up to past the precision (dense) or at most
    four (sparse)."""
    ring, coeff, lead = TRUNC_RINGS[name]
    prec = draw(st.integers(1, 24))
    v = draw(st.integers(-3, min(6, prec - 1)))
    if draw(st.booleans()):
        tail = {e: draw(coeff) for e in range(v + 1, prec + 2)}
    else:
        tail = draw(st.dictionaries(st.integers(v + 1, prec + 2), coeff, max_size=4))
    f = TruncSeries(ring, {v: draw(lead), **tail}, prec)
    assume(not isinstance(ring, Zmod) or not f.reduce_mod_p().is_zero())
    return f


@st.composite
def perf_units(draw):
    """A PerfSeries on (1/L) Z, L = D 3^jmax up to 1458, at a precision off
    the lattice as often as not: a leading term at v in [-1, prec), then
    either every multiple of a step through the window prec - v (dense)
    or at most six codes, up to past the window (sparse).  Steps and
    gaps are at least a twelfth of the window, so that the reference
    loop stays short."""
    field = draw(st.sampled_from([F3, F9]))
    D, jmax = draw(st.integers(1, 2)), draw(st.integers(0, 6))
    L = D * 3 ** jmax
    prec = Fraction(draw(st.integers(1, 60)), draw(st.integers(1, 11)))
    low = draw(st.integers(-L, math.ceil(prec * L) - 1))
    span = math.ceil(prec * L) - low
    least = max(1, span // 12)
    if draw(st.booleans()):
        step = draw(st.integers(least, max(least, span // 3)))
        codes = range(low + step, low + span + step + 1, step)
    else:
        gaps = draw(st.lists(st.integers(least, span + L), max_size=6))
        codes = [low + k for k in gaps]
    coeff = F9_CODES if field is F9 else st.integers(0, 2).map(F3.from_code)
    lead = nonzero(field.order, field.from_code)
    terms = {Fraction(k, L): draw(coeff) for k in codes}
    terms[Fraction(low, L)] = draw(lead)
    return PerfSeries(field, D, jmax, terms, prec)


def same_inverse(f):
    """Over a prime field, and mod p over Z/p^n, the inverse is Newton's
    (_prime_field_inverse): the loop stands in for it too."""
    new = f.inverse()
    with mock.patch.object(SparseSeries, "_field_inverse", geometric_inverse), \
            mock.patch.object(TruncSeries, "_prime_field_inverse",
                              lambda g, p: geometric_inverse(g, g.ring.inv)):
        old = f.inverse()
    assert type(new.prec) is type(old.prec) and new.prec == old.prec
    assert new.coeffs == old.coeffs
    assert repr(new) == repr(old)


@pytest.mark.parametrize("name", sorted(TRUNC_RINGS))
@SETTINGS
@given(data=st.data())
def test_trunc_inverse_matches_the_geometric_loop(name, data):
    same_inverse(data.draw(trunc_units(name)))


@SETTINGS
@given(f=perf_units())
def test_perf_inverse_matches_the_geometric_loop(f):
    same_inverse(f)


def test_field_inverse_makes_no_product():
    """The recurrence makes no series product; the loop makes one per term."""
    dense = TruncSeries(FFRing(F9), {e: F9.from_code(e % 9 or 1) for e in range(2, 26)}, 24)
    sparse = PerfSeries(F3, 2, 6, {Fraction(1, 3): F3.one, Fraction(5, 1458): F3.one,
                                   Fraction(7, 2): F3.el(2)}, Fraction(29, 3))
    for f in (dense, sparse):
        with mock.patch.object(SparseSeries, "__mul__", autospec=True,
                               side_effect=SparseSeries.__mul__) as mul:
            f.inverse()
            assert mul.call_count == 0
            geometric_inverse(f, lambda c: c.inverse())
            assert mul.call_count > 0


# --- the packed product of TruncSeries over int residues ---
#
# Over Zmod and over FFRing of a prime field, TruncSeries.__mul__ is one
# Kronecker product on gf's packed codec.  The shared loop,
# SparseSeries.__mul__, is its reference: the same coeffs and pc.

PACKED_RINGS = [FFRing(gf.field(p)) for p in (3, 5, 101, 1009)] + [
    Zmod(3, 1), Zmod(3, 2), Zmod(5, 3), Zmod(3, 9), Zmod(7, 10), Zmod(3, 40)]


def _modulus(ring):
    return ring.modulus if isinstance(ring, Zmod) else ring.p


def test_packed_rings_need_every_digit_width():
    # one product of two top residues needs w = 1, 2, 4, 8 and wider
    widths = {gf.fp_width((_modulus(r) - 1) ** 2) for r in PACKED_RINGS if isinstance(r, Zmod)}
    assert {1, 2, 4, 8} < widths and max(widths) > 8


@st.composite
def packed_operand(draw, ring):
    """Terms at Laurent exponents, dense or spread over a span far larger
    than their number; coefficients often the top residue, whose digit
    sums are the largest; the precision anywhere from below the first
    term to past the last."""
    m = _modulus(ring)
    low = draw(st.integers(-12, 12))
    span = draw(st.sampled_from([1, 4, 40, 3000]))
    count = draw(st.integers(0, min(span, 80)))
    exps = draw(st.lists(st.integers(low, low + span - 1), min_size=count, max_size=count))
    codes = st.one_of(st.just(m - 1), st.integers(0, m - 1))
    coeffs = {e: ring.of_int(draw(codes)) for e in exps}
    return TruncSeries(ring, coeffs, draw(st.integers(low - 6, low + span + 6)))


@settings(max_examples=400)
@given(data=st.data())
def test_packed_product_matches_the_loop(data):
    ring = data.draw(st.sampled_from(PACKED_RINGS))
    a = data.draw(packed_operand(ring))
    b = a if data.draw(st.booleans()) else data.draw(packed_operand(ring))
    packed, loop = a * b, SparseSeries.__mul__(a, b)
    assert packed.coeffs == loop.coeffs and packed.pc == loop.pc


def test_every_series_has_the_one_repr_of_its_terms_and_precision():
    assert repr(TruncSeries(Zmod(3, 2), {2: 4, 0: 10}, 5)) == "<1*u^0 + 4*u^2 + O(u^5)>"
    assert repr(TruncSeries(Zmod(3, 2), {}, 5)) == "<0 + O(u^5)>"
    for terms in (7, 8):        # the first six shown, then " + ..." for any more
        assert repr(TruncSeries(Zmod(3, 2), dict.fromkeys(range(terms), 1), 9)) == \
            "<" + " + ".join(f"1*u^{e}" for e in range(6)) + " + ... + O(u^9)>"
    assert repr(TruncSeries(Zmod(3, 2), dict.fromkeys(range(6), 1), 9)) == \
        "<" + " + ".join(f"1*u^{e}" for e in range(6)) + " + O(u^9)>"
    half = PerfSeries(F3, 2, 1, {Fraction(1, 2): F3.one}, Fraction(7, 2))
    assert repr(half) == "<ff(F3:1)*u^1/2 + O(u^7/2)>"
    assert repr(BivarSeries(F3, {(1, 2): F3.one}, 4)) == "<ff(F3:1)*u^(1, 2) + O(u^4)>"
    for series in (half, BivarSeries(F3, {}, 4)):
        with pytest.raises(TypeError):
            hash(series)
