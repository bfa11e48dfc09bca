"""Finite fields F_{p^f} and their extensions, with F_p-linear algebra.

Every field is one representation: F_p[x]/(m) for a monic modulus m of
degree f, its elements tuples of f ints in [0, p).  extension() builds
F_{q^s} the same way and registers the inclusion of F_q, found
deterministically inside the Frobenius-fixed subfield.  Moduli are the
first monic irreducible in lexicographic coefficient order, found by
Ben-Or's irreducibility test, which keeps every computation
reproducible: the test asks only whether a gcd is 1, by a remainder
sequence (_coprime).  Products mod (p, m) are the module-level kernel
_mulmod, shared by GF and the modulus search, and an inverse in F_q is
x^(q-2), powered by those products.  In F_p, a sum, difference,
negation or product of elements is one int operation mod p (pow(c, -1,
p) an inverse), with no coercion and no tuple built digit by digit.
From degree 2 on, a product is one Kronecker substitution: both
operands packed as below, one int product, and its top d - 1 digits,
reduced, folded back onto the low d through the packed columns of
x^d ... x^(2d-2) mod m, the folding each field builds once (_folding).

An F_p vector packs into one int, a w-byte digit per entry (fp_pack),
w a power of two (fp_width): an F_p-combination of packed vectors, such
as the image sum a_i col_i of a map with packed columns (fp_combine), is
then a few int multiply-adds, exact while no digit sum reaches 256^w,
and fp_unpack reads the digits back reduced mod p: bytes.translate at
w = 1, struct words at w = 2, 4 and 8, one by one above (fp_reduce
reduces in place, by one translate at w = 1).  Every F_p-linear map is
stored so, as packed columns acting on digits (a matrix's are
GF.digits', read back by entry by GF.entries; a series' are
series.TruncSeries'): the Frobenius x -> x^p, one column
set whose powers give sigma^k at any k (frob_p), each registered
embedding F_q -> F_(q^s) (coerce), and each right multiplication
X -> X H of square matrices over the field (right_columns, from
shift-and-reduce columns built once per distinct entry of H).  The
last gives the order of a matrix, one packed sum a power
(matrix_order).  One builder gives the int rows over F_p of
x -> x^(p^k) - a x (_frobenius_rows): their kernel at k = f, a = 1 is
the subfield of order p^f (register_embedding), and x^p - a x = b,
which covers the (p-1)-st roots y^(p-1) = c as y^p = c y, is one
fp_solve and one fp_kernel on them at k = 1 (frobenius_solutions), so
no field is enumerated to solve one.  fp_rref row-reduces rows packed
with w = fp_width(p (p-1)), a row operation one multiply-add and one
fp_reduce.  The same packing multiplies series over Zmod or a prime
field by Kronecker substitution (series.TruncSeries.__mul__ and dot), and
inverts series over a prime field by Newton doubling.  The
field of each (p, f) is built once, up to order MAX_ORDER (field).
"""

from __future__ import annotations

import functools
import math
import operator
import struct
from itertools import accumulate, product

from .errors import ExtensionCapExceeded
from .padic import check_odd_prime, power


def _mulmod(u, v, fold, p):
    """u v in F_p[x]/(m), d = len(u), m monic of degree d; coefficient
    tuples, low degree first, fold m's folding (_folding; None at d = 1);
    from degree 2 on by Kronecker substitution (module docstring)."""
    d = len(u)
    if d == 1:
        return ((u[0] * v[0]) % p,)
    w, reduce_low, cols = fold
    shift = 8 * w * d
    prod = fp_pack(u, w) * fp_pack(v, w)
    low = prod & (1 << shift) - 1
    if reduce_low:
        low = fp_reduce(low, d, w, p)
    return fp_unpack(low + fp_combine(fp_unpack(prod >> shift, d - 1, w, p), cols), d, w, p)


def _folding(mod, p):
    """(w, reduce_low, cols) for Kronecker products mod x^d + mod(x) over
    F_p: a digit of the product sums at most d (p-1)^2 < 256^w, and the
    fold adds at most (d-1) (p-1)^2 to a low digit.  Where that sum could
    carry, one-byte digits are reduced first (reduce_low: one translate),
    wider ones widened (cheaper than fp_reduce's unpack and pack there).
    cols packs x^d ... x^(2d-2) mod the modulus, each x times the one
    before by one shift and one reduce.  Each GF builds its own once, and
    the modulus search one per candidate."""
    d, bound = len(mod), (2 * len(mod) - 1) * (p - 1) ** 2
    w = fp_width(d * (p - 1) ** 2)
    w = w if w == 1 else fp_width(bound)
    neg, bits = fp_pack([-c % p for c in mod], w), 8 * w * d
    cols = [neg]                                    # x^d = -mod(x)
    for _ in range(d - 2):
        col = cols[-1] << 8 * w
        cols.append(fp_reduce((col & (1 << bits) - 1) + (col >> bits) * neg, d, w, p))
    return w, bound >= 256 ** w, cols


def _coprime(u, mod, p):
    """Whether gcd(u, x^d + mod(x)) = 1 over F_p, d = len(mod), by the
    remainder sequence alone (no cofactor): each remainder kept without
    zero top coefficients, so its degree is its length less one, until
    one is a nonzero constant (coprime) or 0 (not; u = 0 included)."""
    a, b = list(mod) + [1], list(u)
    while b and not b[-1]:
        b.pop()
    while len(b) > 1:
        inv, n = pow(b[-1], -1, p), len(b) - 1
        while len(a) > n:
            c, shift = a.pop() * inv % p, len(a) - n
            a[shift:] = [(x - c * y) % p for x, y in zip(a[shift:], b)]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(b) == 1


class FFElt:
    """Element of a GF field: its coefficient tuple over F_p."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "GF", coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def __add__(self, other):
        f = self.field
        if f.fp_degree == 1 and type(other) is FFElt and other.field is f:
            return FFElt(f, ((self.coeffs[0] + other.coeffs[0]) % f.p,))
        other = f.coerce(other)
        p = f.p
        return FFElt(f, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        f, p = self.field, self.field.p
        if f.fp_degree == 1:
            return FFElt(f, (-self.coeffs[0] % p,))
        return FFElt(f, tuple(-a % p for a in self.coeffs))

    def __sub__(self, other):
        f = self.field
        if f.fp_degree == 1 and type(other) is FFElt and other.field is f:
            return FFElt(f, ((self.coeffs[0] - other.coeffs[0]) % f.p,))
        return self + (-f.coerce(other))

    def __mul__(self, other):
        f = self.field
        if f.fp_degree == 1 and type(other) is FFElt and other.field is f:
            return FFElt(f, (self.coeffs[0] * other.coeffs[0] % f.p,))
        if isinstance(other, int):
            return FFElt(f, tuple(a * other % f.p for a in self.coeffs))
        if not isinstance(other, FFElt):
            return NotImplemented
        other = f.coerce(other)         # an element of a subfield, as + takes it
        return FFElt(f, _mulmod(self.coeffs, other.coeffs, f._fold, f.p))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, operator.mul, self.field.one)

    def inverse(self) -> "FFElt":
        """self^(q-2) in a field of order q; pow(c, -1, p) in F_p."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        f = self.field
        if f.fp_degree == 1:
            return FFElt(f, (pow(self.coeffs[0], -1, f.p),))
        return self ** (f.order - 2)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.el(other)
        if not isinstance(other, FFElt) or other.field is not self.field:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __repr__(self):
        return f"ff({self.field.tag}:{self.field.code(self)})"


class GF:
    """F_{p^degree} realized as F_p[x]/(modulus), by the first
    irreducible modulus."""

    def __init__(self, p: int, degree: int = 1):
        self.p = p
        self.fp_degree = degree
        self.order = p ** degree
        self.modulus = None if degree == 1 else _find_modulus_prime(p, degree)
        self._fold = None if degree == 1 else _folding(self.modulus, p)
        self.zero = FFElt(self, (0,) * degree)
        self.one = FFElt(self, (1,) + (0,) * (degree - 1))
        self.tag = f"F{self.order}"
        # packed columns of the Frobenius and the embeddings: a digit sums
        # at most degree (p-1)^2
        self._w = fp_width(degree * (p - 1) ** 2)
        self._embeddings = {}

    def __repr__(self):
        return self.tag

    # --- construction of elements ---

    def coerce(self, x) -> FFElt:
        if isinstance(x, FFElt):
            if x.field is self:
                return x
            if x.field.p == self.p and x.field.order == self.p:
                return self.el(x.coeffs[0])
            cols = self._embeddings.get(id(x.field))
            if cols is not None:
                return self._apply(cols, x)
            raise ValueError(f"cannot coerce element of {x.field.tag} into {self.tag}")
        if isinstance(x, int):
            return self.el(x)
        raise TypeError(f"cannot coerce {x!r} into {self.tag}")

    def el(self, k: int) -> FFElt:
        return FFElt(self, (k % self.p,) + (0,) * (self.fp_degree - 1))

    @property
    def gen(self) -> FFElt:
        if self.fp_degree == 1:
            return self.one
        return FFElt(self, (0, 1) + (0,) * (self.fp_degree - 2))

    def from_code(self, code: int) -> FFElt:
        """Element from its integer code in [0, order); base-p digits."""
        return FFElt(self, _base_p(code, self.p, self.fp_degree))

    def code(self, x: FFElt) -> int:
        c = 0
        for a in reversed(x.coeffs):
            c = c * self.p + a
        return c

    def random(self, rng) -> FFElt:
        return self.from_code(rng.randrange(self.order))

    def random_nonzero(self, rng) -> FFElt:
        return self.from_code(rng.randrange(1, self.order))

    # --- F_p-linear structure ---

    def from_fp(self, vec) -> FFElt:
        return FFElt(self, tuple(v % self.p for v in vec))

    def _apply(self, cols, x: FFElt) -> FFElt:
        """The F_p-linear map with packed columns cols, applied to x."""
        return FFElt(self, fp_unpack(fp_combine(x.coeffs, cols), self.fp_degree, self._w, self.p))

    def _powers(self, y: FFElt, k: int) -> list:
        """1, y, ..., y^(k-1): the images of 1, x, ..., x^(k-1) under the
        ring map fixing F_p that sends x to y."""
        return list(accumulate([y] * (k - 1), operator.mul, initial=self.one))

    @functools.cached_property
    def _frob_cols(self) -> list:
        """sigma's packed columns: the images (x^k)^p, k < degree."""
        return [fp_pack(v.coeffs, self._w)
                for v in self._powers(self.gen ** self.p, self.fp_degree)]

    def frob_p(self, x: FFElt, k: int = 1) -> FFElt:
        """sigma^k(x) = x^(p^k) for any int k, taken mod the degree: the
        packed Frobenius columns applied (k mod degree) times."""
        for _ in range(k % self.fp_degree):
            x = self._apply(self._frob_cols, x)
        return x

    def register_embedding(self, small: "GF"):
        """Record an embedding of the degree-f field ``small`` into this
        field: the image of its generator is the first root of its
        modulus inside the fixed field of Frob^f, stored as the packed
        columns of the images of 1, x, ..., x^(f-1)."""
        if id(small) in self._embeddings or small.fp_degree == 1:
            return
        p, n, f = self.p, self.fp_degree, small.fp_degree
        if n % f:
            raise ValueError("no embedding: degree does not divide")
        basis = fp_kernel(self._frobenius_rows(f, 1), p)
        # the fixed field of sigma^f in F_(p^n), f | n, is F_(p^f): the
        # roots of x^(p^f) - x, of dimension f over F_p
        if len(basis) != f:
            raise ArithmeticError("subfield has wrong dimension")
        for codes in product(range(p), repeat=f):
            x = self.from_fp([sum(c * b[i] for c, b in zip(codes, basis)) for i in range(n)])
            acc = self.one  # Horner on the monic modulus
            for c in reversed(small.modulus):
                acc = acc * x + c
            if not acc:
                break
        else:
            # a monic irreducible of degree f | n splits in F_(p^n): its
            # roots lie in F_(p^f), the fixed field searched above
            raise ArithmeticError("modulus has no root in the big field")
        self._embeddings[id(small)] = [fp_pack(v.coeffs, self._w) for v in self._powers(x, f)]

    def _times_columns(self, y: tuple) -> list:
        """Multiplication by y (a coefficient tuple) as columns x^k y, k <
        degree, by shift-and-reduce: x^degree = -modulus(x)."""
        cols = [list(y)]
        for _ in range(self.fp_degree - 1):
            col = cols[-1]
            cols.append([(a - col[-1] * c) % self.p
                         for a, c in zip([0] + col[:-1], self.modulus)])
        return cols

    def digits(self, A) -> tuple:
        """The F_p digits of a matrix (or a row, [x]), entries coerced (ints
        mod p): entry (i, k) of a d-column matrix at (i d + k) f ... + f - 1."""
        return tuple(c for row in A for a in row for c in self.coerce(a).coeffs)

    def entries(self, D) -> list:
        """A square matrix laid out as GF.digits lays it out, read back as
        rows of entries, each the slice of its f items: D may hold the
        digits or one item per digit, such as a map's columns."""
        f = self.fp_degree
        d = math.isqrt(len(D) // f)
        return [[D[e:e + f] for e in range(r, r + d * f, f)] for r in range(0, d * d * f, d * f)]

    def right_columns(self, H, w: int) -> list:
        """X -> X H on d x d matrices, H d x d by its digits (GF.digits),
        as packed columns of w-byte digits below p, one per digit of X:
        x^t in entry (i, k) goes to row i as x^t H[k][l], l < d, by
        _times_columns, once per distinct entry."""
        times = functools.cache(self._times_columns)
        prods = [[times(tuple(a)) for a in row] for row in self.entries(H)]
        d, f = len(prods), self.fp_degree
        cols = [fp_pack([c for l in range(d) for c in prods[k][l][t]], w)
                for k in range(d) for t in range(f)]
        return [col << 8 * w * d * f * i for i in range(d) for col in cols]

    def matrix_order(self, A, bound: int):
        """The least k <= bound with A^k = I, or None, A a d x d matrix over
        this field (ints read mod p), on digits: P -> P A is one packed
        sum of the columns of X -> X A (right_columns), at most
        d f (p-1)^2 in a digit, and one unpack."""
        from .matrix import scalar      # its callers, galrep and taumod, load it
        d, f, p = len(A), self.fp_degree, self.p
        power, ident = self.digits(A), self.digits(scalar(d, 1, 0))
        n, w = d * d * f, fp_width(d * f * (p - 1) ** 2)
        times = self.right_columns(power, w)
        for k in range(1, bound + 1):
            if power == ident:
                return k
            power = fp_unpack(fp_combine(power, times), n, w, p)
        return None

    def _frobenius_rows(self, k: int, a) -> list:
        """x -> x^(p^k) - a x on this field, a coerced into it, as int rows
        over F_p: column j, the image of x^j, is sigma^k(x^j) less x^j a
        (_times_columns), sigma^k(x^j) being sigma^(k-1) applied to column
        j of sigma (_frob_cols), so no product at k = 1."""
        n, p = self.fp_degree, self.p
        images = [self.frob_p(FFElt(self, fp_unpack(col, n, self._w, p)), k - 1).coeffs
                  for col in self._frob_cols]
        times = self._times_columns(self.coerce(a).coeffs)
        return [[(y[i] - t[i]) % p for y, t in zip(images, times)] for i in range(n)]

    def frobenius_solutions(self, a, b=0) -> list:
        """Every x with x^p - a x = b (b = 0 by default), least code first;
        a and b are coerced into this field.  The map is F_p-linear, so
        they are one solution plus its kernel, of dimension at most 1 as
        x^p - a x has degree p: at most p solutions.  For b = 0 the
        nonzero ones are the y with y^(p-1) = a."""
        rows = self._frobenius_rows(1, a)
        x0 = fp_solve(rows, self.coerce(b).coeffs, self.p)
        if x0 is None:
            return []
        sols = [x0] + [[u + t * v for u, v in zip(x0, k)]
                       for k in fp_kernel(rows, self.p) for t in range(1, self.p)]
        return sorted(map(self.from_fp, sols), key=self.code)


def _base_p(code: int, p: int, n: int) -> tuple:
    """The n lowest base-p digits of code, least significant first."""
    return tuple(code // p ** i % p for i in range(n))


def _find_modulus_prime(p: int, s: int) -> tuple:
    """First monic irreducible of degree s over F_p in lexicographic
    coefficient order, by Ben-Or's test (FOCS 1981): f is irreducible iff
    gcd(x^(p^k) - x, f) = 1 for k = 1 .. s/2, since a reducible f has a
    factor of degree k <= s/2, which divides x^(p^k) - x.  The test
    (_coprime) stops at the first k with a common factor."""
    x, one = (0, 1) + (0,) * (s - 2), (1,) + (0,) * (s - 1)
    for code in range(p ** s):
        if s > 1 and code % p == 0:
            continue                      # x divides it
        mod = _base_p(code, p, s)
        g = x
        fold = _folding(mod, p)
        for _ in range(s // 2):
            g = power(g, p, lambda u, v: _mulmod(u, v, fold, p), one)     # g^p mod f
            if not _coprime([(a - b) % p for a, b in zip(g, x)], mod, p):
                break
        else:
            return mod
    # Gauss: the monic irreducibles of degree s over F_p number
    # (1/s) sum_(d | s) mu(d) p^(s/d) >= 1, and the loop tries every monic
    raise ArithmeticError("no irreducible polynomial found")


# --- module-level field cache ---

_cache: dict = {}

# The largest field order built: cold builds up to it measured 1.6 s or
# less (grid in CHANGES.md), and it admits F_(3^52), the largest in use.
MAX_ORDER = 2 ** 128


def field(p: int, f: int = 1) -> GF:
    """F_{p^f} over the prime field, built once per (p, f): the only
    place a GF is made.  ExtensionCapExceeded past MAX_ORDER."""
    if (p, f) not in _cache:
        check_odd_prime(p)
        if p ** f > MAX_ORDER:
            raise ExtensionCapExceeded(f"F_({p}^{f}) has order above gf.MAX_ORDER = 2^128")
        _cache[p, f] = GF(p, f)
    return _cache[p, f]


def extension(base: GF, s: int) -> GF:
    """F_{q^s} containing the field base (order q) with a registered
    embedding, found deterministically inside the Frobenius-fixed
    subfield."""
    if s == 1:
        return base
    big = field(base.p, base.fp_degree * s)
    big.register_embedding(base)
    return big


# --- F_p vectors packed into ints ---

def fp_width(bound: int) -> int:
    """The least power of two w with bound < 256^w, a digit width in
    bytes: digits that sum to at most bound never carry into the next."""
    return 1 << ((bound.bit_length() + 7) // 8 - 1).bit_length()


def fp_pack(vec, w: int) -> int:
    """The ints of vec, each below 256^w, as one int of w-byte digits."""
    if w == 1:
        return int.from_bytes(bytes(vec), "little")
    if w in _WORDS:
        return int.from_bytes(struct.pack(f"<{len(vec)}{_WORDS[w]}", *vec), "little")
    return int.from_bytes(b"".join(a.to_bytes(w, "little") for a in vec), "little")


def fp_combine(digits, cols) -> int:
    """sum_i a_i col_i: the digits a_i under the map with packed columns, unreduced."""
    return sum(a * col for a, col in zip(digits, cols) if a)


@functools.cache
def _mod_table(p: int) -> bytes:
    """Each byte value reduced mod p, for bytes.translate."""
    return bytes(b % p for b in range(256))


_WORDS = {2: "H", 4: "I", 8: "Q"}   # struct codes of little-endian machine-word digits


def fp_unpack(acc: int, n: int, w: int, p: int) -> tuple:
    """The n w-byte digits of acc, each reduced mod p."""
    raw = acc.to_bytes(n * w, "little")
    if w == 1:
        return tuple(raw.translate(_mod_table(p)))
    if w in _WORDS:
        return tuple(a % p for a in struct.unpack(f"<{n}{_WORDS[w]}", raw))
    return tuple(int.from_bytes(raw[i:i + w], "little") % p for i in range(0, n * w, w))


def fp_reduce(acc: int, n: int, w: int, p: int) -> int:
    """acc with each of its n w-byte digits reduced mod p: one translate
    of its bytes at w = 1, fp_unpack and fp_pack at any wider w."""
    if w == 1:
        return int.from_bytes(acc.to_bytes(n, "little").translate(_mod_table(p)), "little")
    return fp_pack(fp_unpack(acc, n, w, p), w)


# --- exact linear algebra over F_p ---

def fp_rref(rows, p: int):
    """Row-reduce mod p.  Returns (rref rows, pivot column list).  Each
    row is held as one int of w-byte digits, column c at digit c, with
    w = fp_width(p (p-1)): a row operation a + (p - k) b leaves every
    digit at most p (p-1), and fp_reduce brings it back below p."""
    ncols = len(rows[0]) if rows else 0
    w = fp_width(p * (p - 1))
    bits, mask = 8 * w, (1 << 8 * w) - 1
    m = [fp_pack([a % p for a in row], w) for row in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        shift = c * bits
        pivot = next((i for i in range(r, nrows) if m[i] >> shift & mask), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r] = fp_reduce(pow(m[r] >> shift & mask, -1, p) * m[r], ncols, w, p)
        for i in range(nrows):
            k = m[i] >> shift & mask
            if k and i != r:
                m[i] = fp_reduce(m[i] + (p - k) * top, ncols, w, p)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [list(fp_unpack(row, ncols, w, p)) for row in m], pivots


def fp_kernel(rows, p: int) -> list:
    """Basis of the right kernel of the matrix over F_p (int lists)."""
    m, pivots = fp_rref(rows, p)
    cols = len(m[0])
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc] % p
        basis.append(v)
    return basis


def fp_solve(rows, rhs, p: int):
    """One solution x of rows x = rhs over F_p (an int list), or None;
    ValueError unless rhs has one entry per row."""
    cols = len(rows[0])
    m, pivots = fp_rref([list(row) + [b] for row, b in zip(rows, rhs, strict=True)], p)
    if cols in pivots:
        return None
    x = [0] * cols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][cols]
    return x

