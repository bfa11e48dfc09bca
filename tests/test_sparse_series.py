"""The shared sparse-series kernel against a plain dict convolution.

Each model draws random sparse operands, and sums, products, equality
and (over a field) inverses must match a slow reference written here:
coefficients keyed by the exponent itself, combined pair by pair,
kept when the exponent's weight is below the precision.
"""

from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padiclab import gf
from padiclab.perfseries import PerfSeries
from padiclab.rings import FFRing, QRing, Zmod
from padiclab.series import TruncSeries
from padiclab.taumod import BivarSeries

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

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


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
