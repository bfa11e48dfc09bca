"""The truncated series kernel: series in u over Z/p^n, F_q or Q, with
their sums, products, inverses and packed digits.  Its calculus (Newton
polygons, Weierstrass preparation, Eisenstein data, lambda, N_nabla and
the series coefficient ring of Witt vectors) is padiclab.calculus, so a
process that only multiplies series, as the mod-p functor does, loads
neither that module nor fractions.

Every series carries a precision: coefficients of u^k are tracked for
k < prec and unknown beyond.  Products and inverses propagate precision
honestly; equality means equality at the shared precision.

SparseSeries is the shared kernel of the three truncated rings: this
module's TruncSeries (integer exponents), perfseries.PerfSeries
(exponents in a lattice (1/L) Z) and taumod.BivarSeries (exponents
(i, j) truncated by total degree i + j).  It holds the coefficient
dict, keyed by integer exponent codes, the precision as a code on the
same scale, sums, the product loop, scaling, truncation, equality
and the inverse over a field by the coefficient recurrence (Knuth,
TAOCP vol. 2, 4.7), one product's work; each subclass keeps its
exponent model and code, its construction checks and its own
operators.  The kernel is Fraction-free: codes and precision codes are
ints, save a PerfSeries precision off its lattice, an exact Fraction.

Sums and differences of TruncSeries over F_q skip the kernel's
coefficient sums: each shared term is one pass on the two digit tuples,
(a + k b) mod p with k = 1 or p - 1, zeros dropped and every term cut
at the lower precision (_ff_sum); no negated series is built and no
coefficient coerced.  The kernel's difference is one pass too, each
shared coefficient a - b, with no negated series.  A product with an
operand zero at its precision is the empty series at the product's
precision code, with no loop.

This module owns a series' digits (a matrix's are gf.GF.digits'), one
block per coefficient of u^v, u^(v+1), ...: a residue over Zmod, the f
F_p coordinates over F_(p^f) (TruncSeries.digits; from_digits back).
Three kernels skip the loops for a TruncSeries whose coefficients are
int residues mod m (over Zmod, or FFRing of a prime field), each with
the loop's coefficients and precision:
- a sum of products sum u_i v_i (TruncSeries.dot, which matrix.dot
  hands series rows to) is one packed sum: each product one Kronecker
  substitution on its digits, one int product for the whole series,
  shifted to the least valuation of all, and the sum unpacked once; a
  product is its one-pair case;
- over a prime field, an inverse is Newton doubling on packed digits,
  two int products per doubling and one unpacking at the end; over
  Z/p^n the inverse mod p starts the p-adic lift.
The loops stay for the rest: a coefficient of F_q, f > 1, is f digits
whose product reduces mod the field's modulus, not digit by digit; Q
and the operator rings have no residues; and a PerfSeries or
BivarSeries keys its terms by codes that do not pack as one run of
digits (exponents on a lattice, pairs (i, j) truncated by total degree).
"""

from __future__ import annotations

from functools import reduce
from heapq import heappop, heappush
from operator import add, mul

from . import gf
from .rings import FFRing, QRing, Zmod


class SparseSeries:
    """A dict exponent code -> nonzero coefficient, below a precision code.

    An exponent's code, and its degree, is the exponent itself unless a
    subclass says otherwise (PerfSeries: e*L for e in (1/L) Z; BivarSeries:
    the total degree i + j of (i, j)).  The precision code pc bounds the
    degree; prec reads the precision back from it (pc itself by default).
    Subclasses define _like (same model, new data keyed by codes, a
    precision code) and _model (what two series must share to combine),
    and may override prec, valuation, _veff (the least degree, or pc),
    terms and _codes.  shift and truncate take codes.
    """

    __slots__ = ("coeffs", "pc")

    # --- structure ---

    @property
    def prec(self):
        return self.pc

    def valuation(self):
        """Least degree of a term; None when zero at this precision."""
        if not self.coeffs:
            return None
        return min(self.coeffs)

    def _veff(self):
        """The least degree of a term, or pc when zero at this precision."""
        v = self.valuation()
        return self.pc if v is None else v

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero series has no leading coefficient")
        return self.valuation(), self.coeffs[min(self.coeffs)]

    def terms(self):
        """The (exponent, coefficient) pairs in increasing order."""
        return sorted(self.coeffs.items())

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def _check(self, other):
        if type(other) is not type(self) or other._model() != self._model():
            raise ValueError("series from different models")

    # --- arithmetic ---

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return self._like(out, min(self.pc, other.pc))

    def __neg__(self):
        return self._like({e: -c for e, c in self.coeffs.items()}, self.pc)

    def __sub__(self, other):
        """self + (-other) in one pass: no negated series is built."""
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] - c if e in out else -c
        return self._like(out, min(self.pc, other.pc))

    def _codes(self, other, pc):
        """The operands' coefficient dicts keyed by product codes, the
        bound on those codes, and the decoder back to the keys of coeffs.

        Product codes add as exponents do, and one is below the bound
        exactly when its degree is below pc.  By default they are the
        codes of coeffs (decoder None).
        """
        return self.coeffs, other.coeffs, pc, None

    def _product_pc(self, other):
        """A product's precision code: each operand's own, shifted by the
        other's least degree, whichever is lower."""
        return min(self.pc + other._veff(), other.pc + self._veff())

    def __mul__(self, other):
        """The product loop.  Coefficients combine with Python
        operators; the constructor then normalises each finished
        coefficient and drops the zeros.  An operand with no terms
        gives the empty series at once."""
        if not isinstance(other, SparseSeries):
            return self.scale(other)
        self._check(other)
        pc = self._product_pc(other)
        if not self.coeffs or not other.coeffs:
            return self._like({}, pc)
        left, right, bound, decode = self._codes(other, pc)
        right = right.items()
        out: dict = {}
        for k1, c1 in left.items():
            for k2, c2 in right:
                k = k1 + k2
                if k < bound:
                    t = c1 * c2
                    out[k] = out[k] + t if k in out else t
        if decode is not None:
            out = {decode(k): c for k, c in out.items()}
        return self._like(out, pc)

    def scale(self, c):
        """Multiply by a coefficient (or int)."""
        return self._like({e: v * c for e, v in self.coeffs.items()}, self.pc)

    def times_int(self, k, p, pc):
        """(k + O(u^pc)) * self over a field of characteristic p, with no
        product: the product's coefficients and precision code,
        min(pc + v, self.pc) (v the least degree), or pc + v when k = 0."""
        k, pc = k % p, pc + self._veff()
        if not k:
            return self._like({}, pc)
        return SparseSeries.truncate(self if k == 1 else self.scale(k), pc)

    def shift(self, k):
        """Multiply by u^k."""
        return self._like({e + k: c for e, c in self.coeffs.items()}, self.pc + k)

    def truncate(self, pc):
        if pc >= self.pc:
            return self
        return self._like(self.coeffs, pc)

    # with __eq__ and no __hash__, a series is unhashable: equality is
    # precision-relative
    def __eq__(self, other):
        if type(other) is not type(self) or other._model() != self._model():
            return NotImplemented
        low, high = (self, other) if self.pc <= other.pc else (other, self)
        return low.coeffs == SparseSeries.truncate(high, low.pc).coeffs

    def __repr__(self):
        terms = self.terms()
        body = " + ".join(f"{c!r}*u^{e}" for e, c in terms[:6]) + " + ..." * (len(terms) > 6)
        return f"<{body or '0'} + O(u^{self.prec})>"

    def _field_inverse(self, inv):
        """Inverse of a unit over a field; inv inverts a coefficient.

        1/f = u^-v sum_n g_n u^n, v the leading code: g_0 = f_v^-1 and
        g_n = -f_v^-1 sum_(k > 0) f_(v+k) g_(n-k), over the codes n below
        pc - v.  A heap gives them in increasing order, each reached from
        f's support by a nonzero g_n, so the work is one product's.  The
        precision code is pc - 2v.
        """
        linv = inv(self.leading()[1])
        v = min(self.coeffs)
        bound = self.pc - v
        tail = sorted((k - v, c) for k, c in self.coeffs.items() if k != v)
        out, sums, heap = {}, {}, [0]
        while heap:
            n = heappop(heap)
            g = -sums.pop(n) * linv if n else linv
            if not g:
                continue
            out[n - v] = g
            for k, c in tail:
                m = n + k
                if m >= bound:
                    break
                if m in sums:
                    sums[m] = sums[m] + c * g
                else:
                    sums[m] = c * g
                    heappush(heap, m)
        return self._like(out, self.pc - 2 * v)


class TruncSeries(SparseSeries):
    """Series in u with integer exponents over a ring adapter; each
    coefficient is stored as the ring's reduced representative."""

    __slots__ = ("ring",)

    def __init__(self, ring, coeffs: dict, prec: int):
        self.ring = ring
        self.pc = prec
        self.coeffs = {e: r for e, c in coeffs.items() if e < prec and (r := ring.reduce(c))}

    def _like(self, coeffs, prec):
        return TruncSeries(self.ring, coeffs, prec)

    def _model(self):
        return (self.ring,)

    @staticmethod
    def _reduced(ring, coeffs, prec):
        """The series of coeffs already reduced, nonzero and below prec."""
        s = object.__new__(TruncSeries)
        s.ring, s.coeffs, s.pc = ring, coeffs, prec
        return s

    # --- constructors ---

    @staticmethod
    def zero(ring, prec):
        return TruncSeries(ring, {}, prec)

    @staticmethod
    def one(ring, prec):
        return TruncSeries(ring, {0: ring.one}, prec)

    @staticmethod
    def monomial(ring, exp, coeff, prec):
        return TruncSeries(ring, {exp: coeff}, prec)

    @staticmethod
    def from_int_coeffs(ring, coeffs, prec):
        """Polynomial from integer coefficients, low degree first."""
        return TruncSeries(ring, {i: ring.of_int(c) for i, c in enumerate(coeffs)}, prec)

    # --- arithmetic: the shared kernel, bound here by name so that
    # perfbench's tracer, which looks methods up in the class itself,
    # counts TruncSeries calls apart from the other series ---

    def _over_one_field(self, other):
        """Whether both are TruncSeries over one FFRing."""
        return isinstance(self.ring, FFRing) and type(other) is TruncSeries \
            and other.ring == self.ring

    def __add__(self, other):
        """Over F_q, one pass on the digit tuples (_ff_sum); else the
        shared kernel."""
        if self._over_one_field(other):
            return _ff_sum(self, other, 1)
        return SparseSeries.__add__(self, other)

    def __sub__(self, other):
        if self._over_one_field(other):
            return _ff_sum(self, other, self.ring.p - 1)
        return SparseSeries.__sub__(self, other)

    def __mul__(self, other):
        """Over residues mod m, ints (Zmod) or one-digit FFElts (FFRing of a
        prime field), the one-pair case of dot's packed sum (_kronecker_sum);
        else the shared loop."""
        ring = self.ring
        m = _residue_modulus(ring)
        if m is None or type(other) is not TruncSeries or other.ring != ring:
            return SparseSeries.__mul__(self, other)
        return _kronecker_sum(ring, m, ((self, other),))

    @staticmethod
    def dot(us, vs):
        """sum u_i v_i, as matrix.dot's fold from the first product gives
        it: over residues mod m, when every entry is a TruncSeries over
        the first's ring, one packed sum (_kronecker_sum); else the fold."""
        ring = us[0].ring
        m = _residue_modulus(ring)
        if m is None or any(type(x) is not TruncSeries or x.ring != ring
                            for x in (*us, *vs)):
            return reduce(add, map(mul, us, vs))
        return _kronecker_sum(ring, m, zip(us, vs))

    def digits(self, v, n) -> list:
        """The digit blocks of u^v ... u^(v+n-1), zeros where there is no
        term: a residue each over Zmod, f F_p coordinates over F_(p^f)."""
        ints, top = isinstance(self.ring, Zmod), v + n
        f = 1 if ints else self.ring.field.fp_degree
        out = [0] * (n * f)
        for e, c in self.coeffs.items():
            if v <= e < top:
                if f > 1:
                    out[(e - v) * f:(e - v + 1) * f] = c.coeffs
                else:
                    out[e - v] = c if ints else c.coeffs[0]
        return out

    @staticmethod
    def from_digits(ring, digits, v, prec):
        """The series at precision prec, u^(v+i) from block i of reduced
        digits laid out as digits(), built from the nonzero blocks below prec."""
        n = max(prec - v, 0)
        if isinstance(ring, Zmod):
            coeffs = {v + i: c for i, c in enumerate(digits[:n]) if c}
        elif (F := ring.field).fp_degree == 1:
            coeffs = {v + i: gf.FFElt(F, (c,)) for i, c in enumerate(digits[:n]) if c}
        else:
            f, zero = F.fp_degree, F.zero.coeffs
            blocks = zip(*[iter(digits[:n * f])] * f)
            coeffs = {v + i: gf.FFElt(F, c) for i, c in enumerate(blocks) if c != zero}
        return TruncSeries._reduced(ring, coeffs, prec)

    # --- calculus ---

    def derivative(self):
        ring = self.ring
        out = {}
        for e, c in self.coeffs.items():
            if e != 0:
                out[e - 1] = ring.of_int(e) * c
        return TruncSeries(ring, out, self.prec - 1)

    def frobenius(self):
        """u -> u^p with the coefficient Frobenius; exact, so the
        precision multiplies by p."""
        p = self.ring.p
        return TruncSeries(self.ring, {p * e: self.ring.frob(c) for e, c in self.coeffs.items()},
                           p * self.prec)

    def inverse(self):
        """Inverse of a unit in the truncated Laurent ring.

        Over a prime field: Newton doubling on packed digits
        (_prime_field_inverse).  Over F_q, f > 1, or Q: the coefficient
        recurrence of the shared kernel, one product's work.  Over Z/p^n:
        the mod-p reduction must be nonzero; Newton iteration then lifts
        its inverse in the p-adic direction.
        """
        ring = self.ring
        if isinstance(ring, FFRing) and ring.field.fp_degree == 1:
            return self._prime_field_inverse(ring.p)
        if isinstance(ring, (FFRing, QRing)):
            return self._field_inverse(ring.inv)
        if isinstance(ring, Zmod):
            fbar = self.reduce_mod_p()
            if fbar.is_zero():
                raise ZeroDivisionError("not a unit: zero mod p")
            y = lift_mod_p(fbar.inverse(), ring)
            # Newton doubling in the p-adic direction
            steps = max(1, (ring.n - 1).bit_length())
            two = TruncSeries(ring, {0: ring.of_int(2)}, y.prec)
            for _ in range(steps):
                y = y * (two - self * y)
            return y
        raise ValueError(f"no inversion over {ring!r}")

    def _prime_field_inverse(self, p):
        """Inverse of a unit over F_p, the recurrence's coefficients and
        precision code pc - 2v (v the valuation), by Newton doubling on
        gf's packed codec: with f = u^-v self cut to its n = pc - v digits
        and g = f^-1 mod u^k, f g = 1 + t u^k mod u^2k, so g (1 - f g) =
        (p - 1) t g u^k extends g to 2k digits.  Two products per
        doubling, each digit below 256^w: a digit sums at most
        n (p - 1)^3."""
        lead = self.leading()[1].coeffs[0]
        v = min(self.coeffs)
        n = self.pc - v
        w = gf.fp_width(n * (p - 1) ** 3)
        b = 8 * w
        f = gf.fp_pack(self.digits(v, n), w)
        g, k = pow(lead, -1, p), 1
        while k < n:
            k2 = min(2 * k, n)
            high = (1 << b * (k2 - k)) - 1
            t = gf.fp_reduce((f & (1 << b * k2) - 1) * g >> b * k & high, k2 - k, w, p)
            g += gf.fp_reduce(g * t * (p - 1) & high, k2 - k, w, p) << b * k
            k = k2
        return TruncSeries.from_digits(self.ring, gf.fp_unpack(g, n, w, p), -v, self.pc - 2 * v)

    def reduce_mod_p(self) -> "TruncSeries":
        """Reduction to F_p (ring must be Zmod)."""
        if not isinstance(self.ring, Zmod):
            raise ValueError("reduce_mod_p needs a Zmod coefficient ring")
        return _divide_out_p(self, 0)


def _residue_modulus(ring):
    """m when the coefficients over ring are int residues mod m: the
    modulus of Zmod, p for the FFRing of a prime field; else None."""
    if isinstance(ring, Zmod):
        return ring.modulus
    if isinstance(ring, FFRing) and ring.field.fp_degree == 1:
        return ring.p
    return None


def _kronecker_sum(ring, m, pairs):
    """sum a b over the pairs (a, b) of TruncSeries over ring, whose
    coefficients are int residues mod m, with the fold's coefficients and
    precision code, the least _product_pc.  Each product is one Kronecker
    product on gf's packed codec: each operand one int of w-byte digits
    from its valuation up, cut where it can no longer reach below the
    precision, the product shifted to the least valuation of all and
    added, and the sum unpacked once.  w holds the largest digit sum,
    the sum over the pairs of min(len a, len b) (m - 1)^2 (Harvey,
    "Faster polynomial multiplication via multipoint Kronecker
    substitution", 2009)."""
    pc = low = None
    live, width = [], 0
    for a, b in pairs:
        x, y = a.coeffs, b.coeffs
        if x and y:
            va, vb = min(x), min(y)
            here = a.pc + vb if a.pc + vb < b.pc + va else b.pc + va
            live.append((a, b, va, vb))
            width += len(x) if len(x) < len(y) else len(y)
            if low is None or va + vb < low:
                low = va + vb
        else:
            here = a._product_pc(b)
        if pc is None or here < pc:
            pc = here
    if not live:
        return TruncSeries._reduced(ring, {}, pc)
    w = gf.fp_width(width * (m - 1) ** 2)
    acc = top = 0
    for a, b, va, vb in live:
        n = pc - va - vb                    # product digits below the precision
        if n > 0:
            da = a.digits(va, min(max(a.coeffs) - va + 1, n))
            db = b.digits(vb, min(max(b.coeffs) - vb + 1, n))
            n, at = min(n, len(da) + len(db) - 1), va + vb - low
            acc += (gf.fp_pack(da, w) * gf.fp_pack(db, w) & (1 << 8 * w * n) - 1) << 8 * w * at
            if at + n > top:
                top = at + n
    return TruncSeries.from_digits(ring, gf.fp_unpack(acc, top, w, m), low, pc)


def _ff_sum(a, b, k):
    """a + k b over F_q, k = 1 or p - 1 (a - b), on the coefficients'
    digit tuples: each shared term is one tuple of (x + k y) mod p, kept
    when nonzero, and every term is cut at the lower precision."""
    F = a.ring.field
    p, pc = F.p, min(a.pc, b.pc)
    out = {e: c for e, c in a.coeffs.items() if e < pc}
    for e, c in b.coeffs.items():
        if e >= pc:
            continue
        if e in out:
            t = tuple([(x + k * y) % p for x, y in zip(out[e].coeffs, c.coeffs)])
            if any(t):
                out[e] = gf.FFElt(F, t)
            else:
                del out[e]
        else:
            out[e] = c if k == 1 else gf.FFElt(F, tuple([k * y % p for y in c.coeffs]))
    return TruncSeries._reduced(a.ring, out, pc)


def lift_mod_p(f: TruncSeries, target: Zmod) -> TruncSeries:
    """Lift an F_p-coefficient series into Z/p^n by coefficient codes."""
    fld = f.ring.field
    return TruncSeries(target, {e: target.of_int(fld.code(c)) for e, c in f.coeffs.items()},
                       f.prec)


def _divide_out_p(f: TruncSeries, k: int) -> TruncSeries:
    """(f / p^k) mod p for a Zmod series with all coefficients in p^k Z."""
    ring: Zmod = f.ring
    q = ring.p ** k
    target = FFRing(gf.field(ring.p))
    out = {}
    for e, c in f.coeffs.items():
        if c % q:
            raise ArithmeticError("series not divisible by p^k")
        out[e] = target.of_int(c // q)
    return TruncSeries(target, out, f.prec)
