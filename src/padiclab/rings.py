"""Coefficient-ring adapters.

Witt vectors and truncated series compute on their coefficients with
Python's + - * == and truth values.  An adapter supplies only what an
operator cannot: the constants zero, one and of_int, reduce (a value's
canonical representative), inv (the inverse of a unit), frob (the
coefficient Frobenius), char_p, and times_int(k, a), equal to
of_int(k) * a, which the series adapters give with no product.

OperatorRing is the one adapter, with reduce the identity.  Zmod(p, n)
is Z/p^n on plain ints (this is W_n(F_p)) and reduces mod p^n; int
operators do not, so TruncSeries and WittVector reduce each coefficient
once when they are built.  The others are IntRing() (exact integers,
the p-torsion-free ghost oracle), QRing(p) (rationals inside Q_p),
FFRing(F) (a finite field from padiclab.gf, whose reduce makes each
value an element of F, the digit tuple that series sums over F read)
and, with series as coefficients, perfseries.PerfRing.  module_ring
picks the coefficient ring of a phi-module over (p, q, n).  QRing
loads fractions when one is built, not when this module is imported.
"""

from __future__ import annotations

from . import Fields
from .gf import GF, FFElt, field
from .padic import degree


class OperatorRing(Fields):
    """Ring protocol over values with Python arithmetic operators.

    Subclasses set zero, one and char_p and define of_int; reduce is
    the identity, and inv, frob and times_int default to a.inverse(),
    reduce and of_int(k) * a.  Two rings of one class are equal when
    the fields they list in _fields are.
    """

    char_p = False

    def reduce(self, a):
        return a

    def inv(self, a):
        return a.inverse()

    def frob(self, a):
        return self.reduce(a)

    def times_int(self, k, a):
        return self.of_int(k) * a


class Zmod(OperatorRing):
    _fields = ("p", "n")

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.modulus = p ** n
        self.zero = 0
        self.one = 1 % self.modulus
        self.char_p = (n == 1)

    def reduce(self, a):
        return a % self.modulus

    of_int = reduce

    def inv(self, a):
        return pow(a, -1, self.modulus)


class IntRing(OperatorRing):
    """Exact integers; used as the torsion-free lift when checking Witt
    laws against ghost components."""

    zero = 0
    one = 1

    def of_int(self, k):
        return k


class QRing(OperatorRing):
    """Rationals viewed inside Q_p, as Fractions."""

    _fields = ("p",)

    def __init__(self, p: int):
        from fractions import Fraction
        self.p = p
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def of_int(self, k):
        return self.one * k

    def inv(self, a):
        return 1 / a


class FFRing(OperatorRing):
    _fields = ("field",)
    char_p = True

    def __init__(self, field: GF):
        self.field = field
        self.p = field.p
        self.zero = field.zero
        self.one = field.one

    def reduce(self, a):
        """a as an element of the field: ints reduce mod p, elements of a
        registered subfield embed, others raise."""
        return self.field.coerce(a)

    def of_int(self, k):
        return self.field.el(k)

    def frob(self, a: FFElt):
        return self.field.frob_p(a)


def module_ring(p: int, q: int, n: int):
    """The coefficient ring of a module over (p, q, n): F_q at n = 1,
    Z/p^n at n >= 2."""
    return FFRing(field(p, degree(q, p))) if n == 1 else Zmod(p, n)
