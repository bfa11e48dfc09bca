"""Coefficient-ring adapters.

Witt vectors and truncated series are generic over a small ring
protocol: constants (zero, one, of_int), arithmetic, equality, a
coefficient Frobenius, inversion of units, and reduce, which maps a
value to its canonical representative.

OperatorRing is the one adapter: its arithmetic is Python's operators,
and reduce is the identity.  Zmod(p, n), Z/p^n with plain int residues
(this is W_n(F_p)), overrides only its reductions mod p^n: reduce and
the four operations, besides its constants, inverse and name.  The
other adapters built on it are IntRing() (exact integers, the
p-torsion-free ghost oracle), QRing(p) (rationals with p-adic valuation
bookkeeping), FFRing(F) (a finite field from padiclab.gf) and, with
series as coefficients, perfseries.PerfRing and series.TruncSeriesRing.
"""

from __future__ import annotations

from fractions import Fraction

from .gf import GF, FFElt
from .padic import vp


class OperatorRing:
    """Ring protocol over values with Python arithmetic operators.

    reduce maps a value to its canonical representative, and a zero
    test is the truth value of that.  Subclasses set zero, one and
    char_p and define of_int; inv and frob default to a.inverse() and
    reduce.
    """

    char_p = False

    def reduce(self, a):
        return a

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return not self.reduce(a)

    def eq(self, a, b):
        return self.reduce(a) == self.reduce(b)

    def inv(self, a):
        return a.inverse()

    def frob(self, a):
        return self.reduce(a)


class Zmod(OperatorRing):
    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.modulus = p ** n
        self.zero = 0
        self.one = 1 % self.modulus
        self.char_p = (n == 1)

    def reduce(self, a):
        return a % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def of_int(self, k):
        return k % self.modulus

    def inv(self, a):
        return pow(a, -1, self.modulus)

    def __repr__(self):
        return f"Z/{self.p}^{self.n}"

    def __eq__(self, other):
        return isinstance(other, Zmod) and (self.p, self.n) == (other.p, other.n)

    def __hash__(self):
        return hash(("Zmod", self.p, self.n))


class IntRing(OperatorRing):
    """Exact integers; used as the torsion-free lift when checking Witt
    laws against ghost components."""

    zero = 0
    one = 1

    def of_int(self, k):
        return k

    def inv(self, a):
        if a in (1, -1):
            return a
        raise ZeroDivisionError(f"{a} is not a unit in Z")

    def __repr__(self):
        return "Z"


class QRing(OperatorRing):
    """Rationals viewed inside Q_p."""

    zero = Fraction(0)
    one = Fraction(1)

    def __init__(self, p: int):
        self.p = p

    def of_int(self, k):
        return Fraction(k)

    def vp(self, a: Fraction):
        if a == 0:
            return None
        return vp(a.numerator, self.p) - vp(a.denominator, self.p)

    def inv(self, a):
        return 1 / a

    def __repr__(self):
        return f"Q(p={self.p})"

    def __eq__(self, other):
        return isinstance(other, QRing) and self.p == other.p

    def __hash__(self):
        return hash(("QRing", self.p))


class FFRing(OperatorRing):
    char_p = True

    def __init__(self, field: GF):
        self.field = field
        self.p = field.p
        self.zero = field.zero
        self.one = field.one

    def of_int(self, k):
        return self.field.el(k)

    def frob(self, a: FFElt):
        return self.field.frob_p(a)

    def __repr__(self):
        return f"FF({self.field.tag})"

    def __eq__(self, other):
        return isinstance(other, FFRing) and self.field is other.field

    def __hash__(self):
        return hash(("FFRing", id(self.field)))
