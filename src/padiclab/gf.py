"""Finite fields F_{p^f} and their extensions, with F_p-linear algebra.

Fields are built as quotients base[x]/(m) where the base is either the
prime field or another field constructed here, so F_q sits inside
F_{q^s} by construction (constants) and no root-finding embeddings are
ever needed.  Moduli are found deterministically (first monic
irreducible in lexicographic coefficient order), which keeps every
computation reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import ExtensionTooSmall

_ENUM_CAP = 1_000_000  # refuse to iterate fields bigger than this


class FFElt:
    """Element of a GF field: a coefficient tuple over the base."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "GF", coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def __add__(self, other):
        other = self.field.coerce(other)
        return FFElt(self.field, self.field._padd(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return FFElt(self.field, tuple(self.field._bneg(c) for c in self.coeffs))

    def __sub__(self, other):
        return self + (-self.field.coerce(other))

    def __rsub__(self, other):
        return (-self) + self.field.coerce(other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.field.el(other)
        elif not isinstance(other, FFElt) or other.field is not self.field:
            return NotImplemented
        return FFElt(self.field, self.field._pmulmod(self.coeffs, other.coeffs))

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
        return FFElt(self.field, self.field._pinvmod(self.coeffs))

    def __bool__(self):
        return any(not self.field._biszero(c) for c in self.coeffs)

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
    """F_{p^(fp_degree)} realized as base[x]/(modulus).

    base=None gives the prime field F_p (degree must be 1 then);
    otherwise the field is an extension of ``base`` of the given degree.
    """

    def __init__(self, p: int, degree: int = 1, base: "GF | None" = None,
                 modulus: tuple | None = None):
        if p < 3 or any(p % k == 0 for k in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"p must be an odd prime, got {p}")
        self.p = p
        self.degree = degree
        self.base = base
        if base is None:
            self.fp_degree = degree
            self.order = p ** degree
            if degree == 1:
                self.modulus = None
            else:
                self.modulus = modulus if modulus is not None else _find_modulus_prime(p, degree)
        else:
            if base.p != p:
                raise ValueError("characteristic mismatch")
            if degree < 2:
                raise ValueError("extension degree must be >= 2")
            self.fp_degree = base.fp_degree * degree
            self.order = base.order ** degree
            self.modulus = modulus if modulus is not None else self._find_modulus()
        self.zero = FFElt(self, tuple(self._bzero() for _ in range(degree)))
        one = [self._bzero() for _ in range(degree)]
        one[0] = self._bone()
        self.one = FFElt(self, tuple(one))
        self.tag = f"F{self.order}"
        self._frob_mat = None
        self._frob_inv_mat = None
        self._embeddings = {}

    # --- base-coefficient arithmetic (ints for the prime field) ---

    def _bzero(self):
        return 0 if self.base is None else self.base.zero

    def _bone(self):
        return 1 if self.base is None else self.base.one

    def _badd(self, a, b):
        return (a + b) % self.p if self.base is None else a + b

    def _bneg(self, a):
        return (-a) % self.p if self.base is None else -a

    def _bmul(self, a, b):
        return (a * b) % self.p if self.base is None else a * b

    def _binv(self, a):
        return pow(a, -1, self.p) if self.base is None else a.inverse()

    def _biszero(self, a):
        return a == 0 if self.base is None else not a

    # --- coefficient-tuple arithmetic ---

    def _padd(self, u, v):
        return tuple(self._badd(a, b) for a, b in zip(u, v))

    def _pmulmod(self, u, v):
        d = self.degree
        if self.base is None:
            p = self.p
            if d == 1:
                return ((u[0] * v[0]) % p,)
            raw = [0] * (2 * d - 1)
            for i, a in enumerate(u):
                if a:
                    for j, b in enumerate(v):
                        raw[i + j] += a * b
            mod = self.modulus
            for k in range(2 * d - 2, d - 1, -1):
                c = raw[k] % p
                if c:
                    for j in range(d):
                        raw[k - d + j] -= c * mod[j]
            return tuple(x % p for x in raw[:d])
        raw = [self._bzero() for _ in range(2 * d - 1)]
        for i, a in enumerate(u):
            if self._biszero(a):
                continue
            for j, b in enumerate(v):
                raw[i + j] = self._badd(raw[i + j], self._bmul(a, b))
        # reduce modulo the monic modulus
        for k in range(2 * d - 2, d - 1, -1):
            c = raw[k]
            if self._biszero(c):
                continue
            for j in range(d):
                raw[k - d + j] = self._badd(raw[k - d + j],
                                            self._bneg(self._bmul(c, self.modulus[j])))
        return tuple(raw[:d])

    def _pinvmod(self, u):
        # extended Euclid in base[x] against the full monic modulus
        if self.base is None and self.degree == 1:
            return (pow(u[0], -1, self.p),)
        zero, one = self._bzero(), self._bone()
        r0 = list(self.modulus) + [one]
        r1 = list(u)
        s0 = [zero]
        s1 = [one]

        def deg(poly):
            for k in range(len(poly) - 1, -1, -1):
                if not self._biszero(poly[k]):
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
            lc1_inv = self._binv(r1[d1])
            q_coef = self._bmul(r0[d0], lc1_inv)
            shift = d0 - d1
            for j in range(d1 + 1):
                r0[j + shift] = self._badd(r0[j + shift],
                                           self._bneg(self._bmul(q_coef, r1[j])))
            need = shift + len(s1)
            if len(s0) < need:
                s0 = s0 + [zero] * (need - len(s0))
            for j in range(len(s1)):
                s0[j + shift] = self._badd(s0[j + shift],
                                           self._bneg(self._bmul(q_coef, s1[j])))
        c_inv = self._binv(r1[0])
        out = [self._bmul(c, c_inv) for c in s1]
        out += [zero] * (self.degree - len(out))
        return tuple(out[:self.degree])

    # --- construction of elements ---

    def coerce(self, x) -> FFElt:
        if isinstance(x, FFElt):
            if x.field is self:
                return x
            if x.field is self.base:
                return self.embed(x)
            if x.field.p == self.p and x.field.order == self.p:
                return self.el(x.field.code(x))
            powers = self._embeddings.get(id(x.field))
            if powers is not None:
                acc = self.zero
                for c, img in zip(x.coeffs, powers):
                    if c:
                        acc = acc + img * int(c)
                return acc
            raise ValueError(f"cannot coerce element of {x.field.tag} into {self.tag}")
        if isinstance(x, int):
            return self.el(x)
        raise TypeError(f"cannot coerce {x!r} into {self.tag}")

    def el(self, k: int) -> FFElt:
        if self.base is None:
            return FFElt(self, (k % self.p,) + (0,) * (self.degree - 1))
        return self.embed(self.base.el(k))

    def embed(self, c) -> FFElt:
        """Embed a base-field element as a constant."""
        if self.base is None:
            raise ValueError("prime field has no base")
        c = self.base.coerce(c)
        coeffs = [c] + [self.base.zero] * (self.degree - 1)
        return FFElt(self, tuple(coeffs))

    @property
    def gen(self) -> FFElt:
        if self.degree == 1:
            return self.one
        coeffs = [self._bzero()] * self.degree
        coeffs[1] = self._bone()
        return FFElt(self, tuple(coeffs))

    def from_code(self, code: int) -> FFElt:
        """Element from its integer code in [0, order); base-order digits."""
        if self.base is None:
            coeffs = []
            for _ in range(self.degree):
                coeffs.append(code % self.p)
                code //= self.p
            return FFElt(self, tuple(coeffs))
        coeffs = []
        for _ in range(self.degree):
            coeffs.append(self.base.from_code(code % self.base.order))
            code //= self.base.order
        return FFElt(self, tuple(coeffs))

    def code(self, x: FFElt) -> int:
        if self.base is None:
            c = 0
            for a in reversed(x.coeffs):
                c = c * self.p + a
            return c
        c = 0
        for a in reversed(x.coeffs):
            c = c * self.base.order + self.base.code(a)
        return c

    def elements(self):
        if self.order > _ENUM_CAP:
            raise ValueError(f"refusing to enumerate {self.tag}")
        for code in range(self.order):
            yield self.from_code(code)

    def random(self, rng) -> FFElt:
        return self.from_code(rng.randrange(self.order))

    def random_nonzero(self, rng) -> FFElt:
        return self.from_code(rng.randrange(1, self.order))

    # --- F_p-linear structure ---

    def to_fp(self, x: FFElt) -> tuple:
        if self.base is None:
            return x.coeffs
        out = []
        for c in x.coeffs:
            out.extend(self.base.to_fp(c))
        return tuple(out)

    def from_fp(self, vec) -> FFElt:
        if self.base is None:
            return FFElt(self, tuple(int(v) % self.p for v in vec))
        d = self.base.fp_degree
        coeffs = tuple(self.base.from_fp(vec[i * d:(i + 1) * d])
                       for i in range(self.degree))
        return FFElt(self, coeffs)

    def _frobenius_matrix(self):
        if self._frob_mat is None:
            n = self.fp_degree
            cols = []
            for i in range(n):
                e = [0] * n
                e[i] = 1
                cols.append(self.to_fp(self.from_fp(e) ** self.p))
            self._frob_mat = np.array(cols, dtype=np.int64).T % self.p
            self._frob_inv_mat = fp_inverse(self._frob_mat, self.p)
        return self._frob_mat

    def frob_p(self, x: FFElt) -> FFElt:
        """x^p, via the precomputed F_p-linear matrix."""
        m = self._frobenius_matrix()
        v = np.array(self.to_fp(x), dtype=np.int64)
        return self.from_fp((m @ v) % self.p)

    def pth_root(self, x: FFElt) -> FFElt:
        """The unique y with y^p = x."""
        self._frobenius_matrix()
        v = np.array(self.to_fp(x), dtype=np.int64)
        return self.from_fp((self._frob_inv_mat @ v) % self.p)

    def register_embedding(self, small: "GF"):
        """Record an embedding of the degree-f field ``small`` (flattened)
        into this flattened field: the image of its generator is the
        first root of its modulus inside the fixed field of Frob^f."""
        if id(small) in self._embeddings or small.degree == 1:
            return
        if self.base is not None or small.base is not None:
            raise ValueError("embeddings are registered between flattened fields")
        p, f = self.p, small.degree
        if self.fp_degree % f:
            raise ValueError("no embedding: degree does not divide")
        M = self._frobenius_matrix()
        A = np.eye(self.fp_degree, dtype=np.int64)
        for _ in range(f):
            A = (M @ A) % p
        A = (A - np.eye(self.fp_degree, dtype=np.int64)) % p
        basis = fp_kernel(A, p)
        if len(basis) != f:
            raise RuntimeError("subfield has wrong dimension")  # impossible
        modulus = list(small.modulus) + [1]
        found = None
        from itertools import product as _product
        for codes in _product(range(p), repeat=f):
            vec = sum((c * b for c, b in zip(codes, basis)),
                      start=np.zeros(self.fp_degree, dtype=np.int64)) % p
            x = self.from_fp(vec)
            acc = self.zero
            xp = self.one
            for c in modulus:
                if c:
                    acc = acc + xp * int(c)
                xp = xp * x
            if not acc:
                found = x
                break
        if found is None:
            raise RuntimeError("modulus has no root in the big field")  # impossible
        powers = [self.one]
        for _ in range(f - 1):
            powers.append(powers[-1] * found)
        self._embeddings[id(small)] = powers

    def nth_root(self, x: FFElt, n: int):
        """Some y with y^n = x, or None.  Enumerates; small fields only."""
        if not x:
            return self.zero
        for y in self.elements():
            if y and y ** n == x:
                return y
        return None

    def nth_root_or_raise(self, x: FFElt, n: int) -> FFElt:
        y = self.nth_root(x, n)
        if y is None:
            raise ExtensionTooSmall(f"no {n}-th root of {x!r} in {self.tag}")
        return y

    # --- modulus search ---

    def _find_modulus(self) -> tuple:
        base, s = self.base, self.degree
        for code in range(base.order ** s):
            coeffs = []
            c = code
            for _ in range(s):
                coeffs.append(base.from_code(c % base.order))
                c //= base.order
            if self._is_irreducible(coeffs):
                return tuple(coeffs)
        raise RuntimeError("no irreducible polynomial found")  # impossible

    def _is_irreducible(self, coeffs) -> bool:
        """Rabin test for x^s + sum coeffs[i] x^i over the base field."""
        base, s = self.base, self.degree
        full = list(coeffs) + [base.one]

        def pmulmod(u, v):
            raw = [base.zero] * (len(u) + len(v) - 1)
            for i, a in enumerate(u):
                if not a:
                    continue
                for j, b in enumerate(v):
                    raw[i + j] = raw[i + j] + a * b
            for k in range(len(raw) - 1, s - 1, -1):
                c = raw[k]
                if not c:
                    continue
                for j in range(s):
                    raw[k - s + j] = raw[k - s + j] - c * full[j]
            out = raw[:s]
            out += [base.zero] * (s - len(out))
            return out

        def ppow_q(u):
            # u^(base.order) by square and multiply
            result = [base.one] + [base.zero] * (s - 1)
            acc = u
            n = base.order
            while n:
                if n & 1:
                    result = pmulmod(result, acc)
                acc = pmulmod(acc, acc)
                n >>= 1
            return result

        if s == 1:
            return True
        x = [base.zero, base.one] + [base.zero] * (s - 2)
        # x^(q^k) mod f for k = 1..s
        g = x[:]
        powers = {}
        for k in range(1, s + 1):
            g = ppow_q(g)
            powers[k] = g[:]
        if powers[s] != x:
            return False
        for r in _prime_divisors(s):
            h = powers[s // r]
            diff = [h[i] - x[i] for i in range(s)]
            if not _poly_coprime(diff, full, base):
                return False
        return True


def _find_modulus_prime(p: int, s: int) -> tuple:
    """First monic irreducible of degree s over F_p in lexicographic
    coefficient order; pure int arithmetic."""

    def pmulmod(u, v, full):
        raw = [0] * (2 * s - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    raw[i + j] += a * b
        for k in range(2 * s - 2, s - 1, -1):
            c = raw[k] % p
            if c:
                for j in range(s):
                    raw[k - s + j] -= c * full[j]
        return [x % p for x in raw[:s]]

    def ppow_p(u, full):
        result = [1] + [0] * (s - 1)
        acc = u[:]
        n = p
        while n:
            if n & 1:
                result = pmulmod(result, acc, full)
            acc = pmulmod(acc, acc, full)
            n >>= 1
        return result

    def int_coprime(a, b):
        a, b = a[:], b[:]

        def deg(u):
            for k in range(len(u) - 1, -1, -1):
                if u[k] % p:
                    return k
            return -1

        while True:
            da, db = deg(a), deg(b)
            if db < 0:
                return da <= 0
            if da < db:
                a, b = b, a
                continue
            lc = a[da] * pow(b[db], -1, p)
            for j in range(db + 1):
                a[da - db + j] = (a[da - db + j] - lc * b[j]) % p

    x = [0, 1] + [0] * (s - 2)
    for code in range(p ** s):
        coeffs = []
        c = code
        for _ in range(s):
            coeffs.append(c % p)
            c //= p
        full = coeffs
        g = x[:s]
        powers = {}
        for k in range(1, s + 1):
            g = ppow_p(g, full)
            powers[k] = g[:]
        if powers[s] != x[:s]:
            continue
        ok = True
        for r in _prime_divisors(s):
            diff = [(powers[s // r][i] - x[i]) % p for i in range(s)]
            if not int_coprime(diff, full + [1]):
                ok = False
                break
        if ok:
            return tuple(coeffs)
    raise RuntimeError("no irreducible polynomial found")


def _prime_divisors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_coprime(a, b, base) -> bool:
    """gcd(a, b) constant, for polynomials over a GF base field."""

    def deg(u):
        for k in range(len(u) - 1, -1, -1):
            if u[k]:
                return k
        return -1

    a, b = list(a), list(b)
    while True:
        da, db = deg(a), deg(b)
        if db < 0:
            return da <= 0
        if da < db:
            a, b = b, a
            continue
        lc = a[da] / b[db]
        for j in range(db + 1):
            a[da - db + j] = a[da - db + j] - lc * b[j]


# --- module-level field cache ---

_cache: dict = {}


def prime_field(p: int) -> GF:
    key = ("prime", p)
    if key not in _cache:
        _cache[key] = GF(p)
    return _cache[key]


def degree(q: int, p: int) -> int:
    """The f >= 1 with q = p^f; ValueError when q is not such a power."""
    if p < 2 or q < p:
        raise ValueError("q must be a power of p")
    f = 0
    while q % p == 0:
        q //= p
        f += 1
    if q != 1:
        raise ValueError("q must be a power of p")
    return f


def field(p: int, f: int = 1) -> GF:
    """F_{p^f}, flattened over the prime field (int arithmetic)."""
    if f == 1:
        return prime_field(p)
    key = ("ext", p, f)
    if key not in _cache:
        _cache[key] = GF(p, f)
    return _cache[key]


def extension(base: GF, s: int) -> GF:
    """F_{q^s} containing base (order q) with a registered embedding.

    Extensions of flattened fields are flattened to single-level int
    arithmetic; the inclusion of the base is found deterministically
    inside the Frobenius-fixed subfield."""
    if s == 1:
        return base
    if base.base is None:
        big = field(base.p, base.degree * s)
        big.register_embedding(base)
        return big
    key = ("tower", id(base), s)
    if key not in _cache:
        _cache[key] = GF(base.p, s, base=base)
    return _cache[key]


# --- exact linear algebra over F_p (numpy int64, entries reduced mod p) ---

def fp_rref(mat: np.ndarray, p: int):
    """Row-reduce mod p.  Returns (rref matrix, pivot column list)."""
    m = mat.copy() % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i, c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m % p, pivots


def fp_kernel(mat: np.ndarray, p: int) -> list:
    """Basis of the right kernel of mat over F_p (list of int64 vectors)."""
    m, pivots = fp_rref(np.asarray(mat, dtype=np.int64), p)
    cols = m.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = np.zeros(cols, dtype=np.int64)
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-m[r, fc]) % p
        basis.append(v % p)
    return basis


def fp_solve(mat: np.ndarray, rhs: np.ndarray, p: int):
    """One solution of mat @ x = rhs over F_p, or None."""
    mat = np.asarray(mat, dtype=np.int64) % p
    rhs = np.asarray(rhs, dtype=np.int64) % p
    aug = np.concatenate([mat, rhs.reshape(-1, 1)], axis=1)
    m, pivots = fp_rref(aug, p)
    cols = mat.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for r, pc in enumerate(pivots):
        x[pc] = m[r, cols]
    return x % p


def fp_inverse(mat: np.ndarray, p: int) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.int64) % p
    n = mat.shape[0]
    aug = np.concatenate([mat, np.eye(n, dtype=np.int64)], axis=1)
    m, pivots = fp_rref(aug, p)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix not invertible mod p")
    return m[:, n:] % p
