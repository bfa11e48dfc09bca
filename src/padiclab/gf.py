"""Finite fields F_{p^f} and their extensions, with F_p-linear algebra.

Every field is one representation: F_p[x]/(m) for a monic modulus m of
degree f, its elements tuples of f ints in [0, p).  extension() builds
F_{q^s} the same way and registers the inclusion of F_q, found
deterministically inside the Frobenius-fixed subfield.  Moduli are the
first monic irreducible in lexicographic coefficient order, found by
Ben-Or's irreducibility test, which keeps every computation
reproducible.  Products and inverses mod (p, m) are the module-level
kernels _mulmod and _invmod, shared by GF and the modulus search.

An F_p vector packs into one int, a w-byte digit per entry (fp_pack),
w = 1, 2, 4 or 8 (fp_width): an F_p-combination of packed vectors, such
as the image sum a_i col_i of a map with packed columns (fp_combine), is
then a few int multiply-adds, exact while no digit sum reaches 256^w,
and fp_unpack reads the digits back reduced mod p.  At w = 1 the codec
is bytes() and one bytes.translate against a mod-p table; fp_reduce
also reduces two-byte digits by translating their byte planes, and 4-
and 8-byte digits are machine words read through struct.  The Frobenius
x -> x^p and its inverse are stored so, as packed matrix columns.
fp_rref row-reduces rows packed so, with w = fp_width(p (p-1)): a row
operation is one int multiply-add and one digit reduction (fp_reduce).
fp_kernel, fp_solve and fp_inverse take and return lists of int rows.
The field of each (p, f) is built once (field).

Every residue equation the library meets is F_p-linear in x: the rows
of x -> x^p - x A on F^d come from the Frobenius and from
multiplication columns made by shift-and-reduce (frobenius_minus), and
x^p - a x = b, which covers the (p-1)-st roots y^(p-1) = c as y^p = c y,
is one fp_solve and one fp_kernel on the d = 1 rows
(frobenius_solutions).  No field is ever enumerated to solve one.
"""

from __future__ import annotations

import functools
import struct
from itertools import product

from .padic import check_odd_prime, vp


def _mulmod(u, v, mod, p):
    """u v in F_p[x]/(x^d + mod(x)), d = len(u); coefficient tuples,
    low degree first, mod the d non-leading coefficients."""
    d = len(u)
    if d == 1:
        return ((u[0] * v[0]) % p,)
    raw = [0] * (2 * d - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                raw[i + j] += a * b
    for k in range(2 * d - 2, d - 1, -1):
        c = raw[k] % p
        if c:
            for j in range(d):
                raw[k - d + j] -= c * mod[j]
    return tuple(x % p for x in raw[:d])


def _invmod(u, mod, p):
    """u^-1 in F_p[x]/(x^d + mod(x)) by the extended Euclidean algorithm;
    ZeroDivisionError when u and the modulus are not coprime."""
    d = len(u)
    if d == 1:
        return (pow(u[0], -1, p),)
    r0 = list(mod) + [1]
    r1 = list(u)
    s0 = [0]
    s1 = [1]

    def deg(poly):
        for k in range(len(poly) - 1, -1, -1):
            if poly[k]:
                return k
        return -1

    while True:
        d1 = deg(r1)
        if d1 < 0:
            raise ZeroDivisionError("element not invertible")
        if d1 == 0:
            break
        d0 = deg(r0)
        if d0 < d1:
            r0, r1 = r1, r0
            s0, s1 = s1, s0
            continue
        q_coef = r0[d0] * pow(r1[d1], -1, p) % p
        shift = d0 - d1
        for j in range(d1 + 1):
            r0[j + shift] = (r0[j + shift] - q_coef * r1[j]) % p
        need = shift + len(s1)
        if len(s0) < need:
            s0 = s0 + [0] * (need - len(s0))
        for j in range(len(s1)):
            s0[j + shift] = (s0[j + shift] - q_coef * s1[j]) % p
    c_inv = pow(r1[0], -1, p)
    out = [c * c_inv % p for c in s1]
    out += [0] * (d - len(out))
    return tuple(out[:d])


class FFElt:
    """Element of a GF field: its coefficient tuple over F_p."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "GF", coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def __add__(self, other):
        other = self.field.coerce(other)
        p = self.field.p
        return FFElt(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FFElt(self.field, tuple(-a % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self.field.coerce(other))

    def __rsub__(self, other):
        return (-self) + self.field.coerce(other)

    def __mul__(self, other):
        f = self.field
        if isinstance(other, int):
            return FFElt(f, tuple(a * other % f.p for a in self.coeffs))
        if not isinstance(other, FFElt) or other.field is not f:
            return NotImplemented
        return FFElt(f, _mulmod(self.coeffs, other.coeffs, f.modulus, f.p))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.field.coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field.coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "FFElt":
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        f = self.field
        return FFElt(f, _invmod(self.coeffs, f.modulus, f.p))

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
    irreducible modulus unless one is given."""

    def __init__(self, p: int, degree: int = 1, modulus: tuple | None = None):
        check_odd_prime(p)
        self.p = p
        self.fp_degree = degree
        self.order = p ** degree
        if degree == 1:
            self.modulus = None
        else:
            self.modulus = modulus if modulus is not None else _find_modulus_prime(p, degree)
        self.zero = FFElt(self, (0,) * degree)
        self.one = FFElt(self, (1,) + (0,) * (degree - 1))
        self.tag = f"F{self.order}"
        # packed Frobenius columns: a digit sums at most degree (p-1)^2
        self._w = fp_width(degree * (p - 1) ** 2)
        self._frob_cols = None
        self._frob_inv_cols = None
        self._embeddings = {}

    # --- construction of elements ---

    def coerce(self, x) -> FFElt:
        if isinstance(x, FFElt):
            if x.field is self:
                return x
            if x.field.p == self.p and x.field.order == self.p:
                return self.el(x.coeffs[0])
            powers = self._embeddings.get(id(x.field))
            if powers is not None:
                acc = self.zero
                for c, img in zip(x.coeffs, powers):
                    if c:
                        acc = acc + img * c
                return acc
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

    def elements(self):
        for code in range(self.order):
            yield self.from_code(code)

    def random(self, rng) -> FFElt:
        return self.from_code(rng.randrange(self.order))

    def random_nonzero(self, rng) -> FFElt:
        return self.from_code(rng.randrange(1, self.order))

    # --- F_p-linear structure ---

    def to_fp(self, x: FFElt) -> tuple:
        return x.coeffs

    def from_fp(self, vec) -> FFElt:
        return FFElt(self, tuple(v % self.p for v in vec))

    def _apply(self, cols, x: FFElt) -> FFElt:
        """The F_p-linear map with packed columns cols, applied to x."""
        return FFElt(self, fp_unpack(fp_combine(x.coeffs, cols), self.fp_degree, self._w, self.p))

    def _powers(self, y: FFElt, k: int) -> list:
        """1, y, ..., y^(k-1): the images of 1, x, ..., x^(k-1) under the
        ring map fixing F_p that sends x to y."""
        out = [self.one]
        for _ in range(k - 1):
            out.append(out[-1] * y)
        return out

    def frob_p(self, x: FFElt) -> FFElt:
        """x^p, via the packed Frobenius columns."""
        if self._frob_cols is None:
            self._frob_cols = [fp_pack(v.coeffs, self._w) for v in
                               self._powers(self.gen ** self.p, self.fp_degree)]
        return self._apply(self._frob_cols, x)

    def pth_root(self, x: FFElt) -> FFElt:
        """The unique y with y^p = x: Frobenius^(degree-1), packed."""
        if self._frob_inv_cols is None:
            y = self.gen
            for _ in range(self.fp_degree - 1):
                y = self.frob_p(y)
            self._frob_inv_cols = [fp_pack(v.coeffs, self._w)
                                   for v in self._powers(y, self.fp_degree)]
        return self._apply(self._frob_inv_cols, x)

    def register_embedding(self, small: "GF"):
        """Record an embedding of the degree-f field ``small`` into this
        field: the image of its generator is the first root of its
        modulus inside the fixed field of Frob^f."""
        if id(small) in self._embeddings or small.fp_degree == 1:
            return
        p, n, f = self.p, self.fp_degree, small.fp_degree
        if n % f:
            raise ValueError("no embedding: degree does not divide")
        y = self.gen
        for _ in range(f):
            y = self.frob_p(y)
        images = self._powers(y, n)  # Frob^f - 1 sends x^j to y^j - x^j
        basis = fp_kernel([[v.coeffs[i] - (i == j) for j, v in enumerate(images)]
                           for i in range(n)], p)
        if len(basis) != f:
            raise RuntimeError("subfield has wrong dimension")  # impossible
        for codes in product(range(p), repeat=f):
            x = self.from_fp([sum(c * b[i] for c, b in zip(codes, basis)) for i in range(n)])
            acc = self.one  # Horner on the monic modulus
            for c in reversed(small.modulus):
                acc = acc * x + c
            if not acc:
                break
        else:
            raise RuntimeError("modulus has no root in the big field")  # impossible
        self._embeddings[id(small)] = self._powers(x, f)

    def _times_columns(self, y: FFElt) -> list:
        """Multiplication by y as columns x^k y, k < degree, by
        shift-and-reduce: x^degree = -modulus(x), O(degree) a column."""
        cols = [list(y.coeffs)]
        for _ in range(self.fp_degree - 1):
            col = cols[-1]
            cols.append([(a - col[-1] * c) % self.p
                         for a, c in zip([0] + col[:-1], self.modulus)])
        return cols

    def frobenius_minus(self, A) -> list:
        """x -> x^p - x A on F^d, A a d x d matrix over this field, as int
        rows over F_p, unreduced: column (j, k), the image of x^k in
        slot j, is (x^k)^p in slot j less x^k A[j][i] in slot i."""
        m = self.fp_degree
        frob = [self.frob_p(self.from_fp([int(i == k) for i in range(m)])).coeffs
                for k in range(m)]
        times = functools.cache(self._times_columns)    # once per distinct entry
        cols = []
        for j, row in enumerate(A):
            prods = [times(a) for a in row]
            cols += [[a * (i == j) - b for i, Mi in enumerate(prods)
                      for a, b in zip(frob[k], Mi[k])] for k in range(m)]
        return [list(r) for r in zip(*cols)]

    def frobenius_solutions(self, a: FFElt, b: FFElt | None = None) -> list:
        """Every x with x^p - a x = b (b = 0 by default), least code first.
        The map is F_p-linear, so they are one solution plus its kernel,
        of dimension at most 1 as x^p - a x has degree p: at most p
        solutions.  For b = 0 the nonzero ones are the y with y^(p-1) = a."""
        rows = self.frobenius_minus([[a]])
        x0 = fp_solve(rows, (self.zero if b is None else b).coeffs, self.p)
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
    factor of degree k <= s/2, which divides x^(p^k) - x.  The gcd is 1
    exactly when x^(p^k) - x is invertible mod f.  The test stops at the
    first k with a common factor."""
    x = (0, 1) + (0,) * (s - 2)
    for code in range(p ** s):
        if s > 1 and code % p == 0:
            continue                      # x divides it
        mod = _base_p(code, p, s)
        g = x
        for _ in range(s // 2):
            result, acc, n = (1,) + (0,) * (s - 1), g, p
            while n:                      # g = g^p mod f
                if n & 1:
                    result = _mulmod(result, acc, mod, p)
                acc = _mulmod(acc, acc, mod, p)
                n >>= 1
            g = result
            try:
                _invmod(tuple((a - b) % p for a, b in zip(g, x)), mod, p)
            except ZeroDivisionError:
                break
        else:
            return mod
    raise RuntimeError("no irreducible polynomial found")


# --- module-level field cache ---

_cache: dict = {}


def degree(q: int, p: int) -> int:
    """The f >= 1 with q = p^f; ValueError when q is not such a power."""
    if p < 2 or q < p or q != p ** vp(q, p):
        raise ValueError("q must be a power of p")
    return vp(q, p)


def field(p: int, f: int = 1) -> GF:
    """F_{p^f} over the prime field, built once per (p, f)."""
    if (p, f) not in _cache:
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
def _mod_table(p: int, scale: int = 1) -> bytes:
    """Each byte value times scale, reduced mod p, for bytes.translate."""
    return bytes(b * scale % p for b in range(256))


_TOP_BIT = bytes(b >> 7 for b in range(256))
_WORDS = {4: "I", 8: "Q"}   # struct codes of 4- and 8-byte little-endian digits


def fp_unpack(acc: int, n: int, w: int, p: int) -> tuple:
    """The n w-byte digits of acc, each reduced mod p."""
    raw = acc.to_bytes(n * w, "little")
    if w == 1:
        return tuple(raw.translate(_mod_table(p)))
    if w in _WORDS:
        return tuple(a % p for a in struct.unpack(f"<{n}{_WORDS[w]}", raw))
    return tuple(int.from_bytes(raw[i:i + w], "little") % p for i in range(0, n * w, w))


def fp_reduce(acc: int, n: int, w: int, p: int) -> int:
    """acc with each of its n w-byte digits reduced mod p.  A two-byte
    digit lo + 256 hi is congruent to s = (lo mod p) + (256 hi mod p),
    each term one translate of its byte plane; s < 2p < 2^15, so bit 15
    of s + 2^15 - p flags the digits where s - p is the residue.  Wider
    digits (4 or 8 bytes from fp_width) go through struct as machine words."""
    if w == 1:
        return int.from_bytes(acc.to_bytes(n, "little").translate(_mod_table(p)), "little")
    if w == 2:
        raw, plane = acc.to_bytes(2 * n, "little"), bytearray(2 * n)
        plane[0::2] = raw[0::2].translate(_mod_table(p))
        s = int.from_bytes(plane, "little")
        plane[0::2] = raw[1::2].translate(_mod_table(p, 256))
        s += int.from_bytes(plane, "little")
        bias = int.from_bytes((2 ** 15 - p).to_bytes(2, "little") * n, "little")
        plane[0::2] = (s + bias).to_bytes(2 * n, "little")[1::2].translate(_TOP_BIT)
        return s - p * int.from_bytes(plane, "little")
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
    """One solution x of rows x = rhs over F_p (an int list), or None."""
    cols = len(rows[0])
    m, pivots = fp_rref([list(row) + [b] for row, b in zip(rows, rhs)], p)
    if cols in pivots:
        return None
    x = [0] * cols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][cols]
    return x


def fp_inverse(rows, p: int) -> list:
    """The inverse of a square matrix over F_p, as int rows;
    ZeroDivisionError when it is singular."""
    n = len(rows)
    m, pivots = fp_rref([list(row) + [int(i == j) for j in range(n)]
                         for i, row in enumerate(rows)], p)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix not invertible mod p")
    return [row[n:] for row in m]
