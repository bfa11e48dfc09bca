"""The coefficient-ring protocol: constants, reduce, inv, frob and char_p
on values that compute with Python's operators.

Every adapter's of_int is a ring map from Z once values are reduced, and
a Witt vector over Z/p^k is the coordinatewise reduction of the same
vector over Z, which pins the one reduction in WittVector's constructor.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclab import gf
from padiclab.perfseries import PerfRing
from padiclab.rings import FFRing, IntRing, OperatorRing, QRing, Zmod
from padiclab.series import TruncSeries
from padiclab.witt import WittVector

SETTINGS = settings(max_examples=60)


class TruncSeriesRing(OperatorRing):
    """Coefficient-ring adapter: Witt vectors over F_q[[u]]-truncations,
    a fixture of the ring protocol and of the Witt-vector tests.

    The Frobenius here is the imperfect one (coefficientwise p-th power
    with u -> u^p); it is a ring map but not surjective, so p-th roots
    of coordinates are generally unavailable, unlike the
    fractional-exponent model.
    """

    char_p = True

    def __init__(self, base: FFRing, prec: int):
        self.base = base
        self.p = base.p
        self.prec = prec
        self.zero = TruncSeries.zero(base, prec)
        self.one = TruncSeries.one(base, prec)

    def of_int(self, k):
        return TruncSeries(self.base, {0: self.base.of_int(k)}, self.prec)

    def times_int(self, k, a):
        return a.times_int(k, self.p, self.prec)

    def frob(self, a):
        return a.frobenius()

    def __eq__(self, other):
        return isinstance(other, TruncSeriesRing) and self.base == other.base \
            and self.prec == other.prec

    def __hash__(self):
        return hash(("TruncSeriesRing", self.base, self.prec))

    def __repr__(self):
        return f"W-coeff({self.base!r}[[u]]/u^{self.prec})"


ADAPTERS = {
    "Z/3^2": Zmod(3, 2),
    "Z/5": Zmod(5, 1),
    "Z": IntRing(),
    "Q(3)": QRing(3),
    "F_9": FFRing(gf.field(3, 2)),
    "Perf(F_3)": PerfRing(gf.field(3), 2, 2, Fraction(4)),
    "F_3[[u]]/u^5": TruncSeriesRing(FFRing(gf.field(3)), 5),
}


@pytest.mark.parametrize("name", list(ADAPTERS))
@SETTINGS
@given(a=st.integers(-60, 60), b=st.integers(-60, 60))
def test_of_int_is_a_ring_map(name, a, b):
    ring = ADAPTERS[name]
    r = ring.reduce
    x, y = ring.of_int(a), ring.of_int(b)
    assert r(x + y) == r(ring.of_int(a + b))
    assert r(x - y) == r(ring.of_int(a - b))
    assert r(x * y) == r(ring.of_int(a * b))
    assert r(-x) == r(ring.of_int(-a))


@pytest.mark.parametrize("name", list(ADAPTERS))
def test_constants(name):
    ring = ADAPTERS[name]
    assert ring.reduce(ring.of_int(0)) == ring.zero
    assert ring.reduce(ring.of_int(1)) == ring.one
    assert not ring.zero and ring.one
    assert ring.frob(ring.one) == ring.one


def _vectors(p, k):
    """(n, x, y): two vectors of length n <= 3 at p = 3, n <= 2 at p = 5."""
    bound = 2 * p ** k
    n = st.integers(1, 3 if p == 3 else 2)
    return n.flatmap(lambda n: st.tuples(
        st.just(n), *[st.lists(st.integers(-bound, bound), min_size=n, max_size=n)] * 2))


@pytest.mark.parametrize("p, k", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3)])
@SETTINGS
@given(data=st.data())
def test_witt_over_zmod_reduces_witt_over_z(p, k, data):
    n, x, y = data.draw(_vectors(p, k))
    Z, R = IntRing(), Zmod(p, k)
    xz, yz = WittVector(p, Z, x), WittVector(p, Z, y)
    xr, yr = WittVector(p, R, x), WittVector(p, R, y)
    assert all(0 <= c < p ** k for c in xr.coords)
    for got, want in ((xr + yr, xz + yz), (xr * yr, xz * yz), (xr - yr, xz - yz),
                      (-xr, -xz)):
        assert got.coords == tuple(c % p ** k for c in want.coords)
        assert got == WittVector(p, R, want.coords)
    assert (xr - xr).is_zero() and (xr == yr) == (xr - yr).is_zero()
