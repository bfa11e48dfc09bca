"""Truncated p-typical Witt vectors with laws generated over Z.

The sum/product polynomials are produced once per (p, n) by lifting
through ghost components: S_k is the unique integer polynomial with
w_k(S_0..S_k) = w_k(x) + w_k(y), and similarly for products.
Integrality of the division by p^k is a theorem; we assert it rather
than trust it.

The Witt Frobenius is taken over rings of characteristic p only, where
it is the coordinatewise p-th power, which is what the series rings use.

Coordinates compute with Python's + - * ==; the ring adapter
(padiclab.rings) gives the constants and reduces each coordinate once,
when a vector is built.  A law's integer coefficients enter through
times_int(k, a) = of_int(k) * a, no product over the series rings.
eval_law evaluates one law: the powers of a variable are built when a
monomial first reads them, a coefficient 1 takes its power as it is,
and the terms are summed from the first, cut once to the ring zero's
precision at the end.  No sum or product law is empty or has a
constant term, so every monomial reads a variable.
"""

from __future__ import annotations

import operator
from functools import lru_cache, reduce

from . import Frozen
from .errors import NotDivisible, Unsupported
from .padic import power

# ---------------------------------------------------------------------------
# sparse integer polynomials: dict[exponent tuple -> int]


def _p_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        c2 = out.get(m, 0) + c
        if c2:
            out[m] = c2
        elif m in out:
            del out[m]
    return out


def _p_scale(a: dict, k: int) -> dict:
    return {m: c * k for m, c in a.items()}


def _p_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _p_divexact(a: dict, k: int) -> dict:
    # a self-check: exact for targets Phi(w_k(X), w_k(Y)), Phi over Z (Serre, Local
    # Fields, II.6, Thm 6): w_k(X) = w_(k-1)(X^p) and L_i(X^p) = L_i(X)^p mod p give
    # p^i L_i(X^p)^(p^(k-1-i)) = p^i L_i^(p^(k-i)) mod p^k, so p^k | rhs
    if any(c % k for c in a.values()):
        raise ArithmeticError("ghost lift produced a non-integral law")
    return {m: c // k for m, c in a.items()}


def _var(idx: int, nvars: int, e: int = 1) -> dict:
    """The monomial X_idx^e."""
    m = [0] * nvars
    m[idx] = e
    return {tuple(m): 1}


def _ghost(p: int, k: int, offset: int, nvars: int) -> dict:
    """w_k = sum p^i X_{offset+i}^(p^(k-i))."""
    return reduce(_p_add, (_p_scale(_var(offset + i, nvars, p ** (k - i)), p ** i)
                           for i in range(k + 1)), {})


def _solve_laws(p: int, n: int, targets) -> list:
    """Find polynomials L_0..L_{n-1} with w_k(L) = targets[k] for all k."""
    laws: list = []
    for k in range(n):
        rhs = dict(targets[k])
        for i in range(k):
            rhs = _p_add(rhs, _p_scale(power(laws[i], p ** (k - i), _p_mul, None), -(p ** i)))
        laws.append(_p_divexact(rhs, p ** k))
    return laws


class WittLawTable(Frozen):
    _fields = ("p", "n", "sum_polys", "prod_polys")


# generate_laws(p, n) takes about p^(n^2 - 1) ns, measured from (3, 4) to
# (5, 4) (the grid is in CHANGES.md): up to this bound, 1.3 s or less.
MAX_LAW_COST = 2 ** 31


@lru_cache(maxsize=None)
def generate_laws(p: int, n: int) -> WittLawTable:
    """The laws of W_n over Z; ValueError, before any law is generated,
    when p^(n^2 - 1) > MAX_LAW_COST, as at every n > 4."""
    if n > 1 and (n > 4 or p ** (n * n - 1) > MAX_LAW_COST):
        raise ValueError(f"W_{n} laws at p = {p} cost p^(n^2 - 1) > 2^31: too large to generate")
    nv = 2 * n
    sum_targets = [_p_add(_ghost(p, k, 0, nv), _ghost(p, k, n, nv)) for k in range(n)]
    prod_targets = [_p_mul(_ghost(p, k, 0, nv), _ghost(p, k, n, nv)) for k in range(n)]
    sums = _solve_laws(p, n, sum_targets)
    prods = _solve_laws(p, n, prod_targets)
    return WittLawTable(p, n, tuple(map(_freeze, sums)), tuple(map(_freeze, prods)))


def _freeze(poly: dict):
    return tuple(sorted(poly.items()))


def eval_law(poly, values, ring):
    """Evaluate a frozen integer polynomial on ring elements: each
    monomial c X^e Y^f ... as (times_int(c, X^e) * Y^f) * ..., the powers
    built up from X^1 = times_int(1, X) by products with X, a variable's
    only when a monomial reads it.  At c = 1 the power is taken as it is:
    over the series rings pc(X^e) <= pc(X^1) + (e - 1) v(X) <= one.pc +
    e v(X), so times_int(1, X^e) would cut nothing.  The sum starts at
    the first term and is cut once, at the end, to the ring zero's
    precision code, as ring.zero + sum does.  poly has a term, and each
    term reads a variable (module docstring)."""
    caches = [None] * len(values)
    acc = None
    for mono, coeff in poly:
        term = None
        for idx, e in enumerate(mono):
            if not e:
                continue
            cache = caches[idx]
            if cache is None:
                cache = caches[idx] = {1: ring.times_int(1, values[idx])}
            if e not in cache:
                v = values[idx]
                best = max(k for k in cache if k <= e)
                cur = cache[best]
                for _ in range(e - best):
                    cur = cur * v
                cache[e] = cur
            if term is not None:
                term = term * cache[e]
            else:
                term = cache[e] if coeff == 1 else ring.times_int(coeff, cache[e])
        acc = term if acc is None else acc + term
    zero = ring.zero
    # a series at or below the zero's precision code is zero + acc already
    return acc if getattr(acc, "pc", None) is not None and acc.pc <= zero.pc else zero + acc


def ghost_components(x: "WittVector"):
    """Ghost vector (w_0,..,w_{n-1}); meaningful over torsion-free rings."""
    ring, p = x.ring, x.p
    return tuple(sum((ring.of_int(p ** i) * power(c, p ** (k - i), operator.mul, ring.one)
                      for i, c in enumerate(x.coords[:k + 1])), ring.zero) for k in range(x.n))


# ---------------------------------------------------------------------------


class WittVector:
    __slots__ = ("p", "n", "ring", "coords")

    def __init__(self, p: int, ring, coords):
        self.p = p
        self.ring = ring
        self.coords = tuple(map(ring.reduce, coords))
        self.n = len(self.coords)

    def _check(self, other):
        if not isinstance(other, WittVector) or (other.p, other.n) != (self.p, self.n) \
                or other.ring != self.ring:
            raise ValueError("Witt vectors live in different rings")

    def _law(self, name, other):
        """The laws `name` of generate_laws(p, n) on the 2n slots (self, other)."""
        self._check(other)
        vals, laws = self.coords + other.coords, getattr(generate_laws(self.p, self.n), name)
        return WittVector(self.p, self.ring, [eval_law(f, vals, self.ring) for f in laws])

    def __add__(self, other):
        return self._law("sum_polys", other)

    def __mul__(self, other):
        return self._law("prod_polys", other)

    def __eq__(self, other):
        if not isinstance(other, WittVector):
            return NotImplemented
        return (self.p, self.n) == (other.p, other.n) and self.coords == other.coords

    def __hash__(self):
        return hash((self.p, self.n, self.coords))

    def is_zero(self):
        return not any(self.coords)

    def __repr__(self):
        return "W(" + ", ".join(repr(c) for c in self.coords) + ")"


def from_int(k: int, p: int, n: int, ring) -> WittVector:
    """Image of the integer k under Z -> W_n(A), A of characteristic p:
    through W_n(F_p) = Z/p^n."""
    if not ring.char_p:
        raise Unsupported("from_int takes a ring of characteristic p")
    return from_zmod(k, p, n, ring)


def teichmuller(a, p: int, n: int, ring) -> WittVector:
    return WittVector(p, ring, [a] + [ring.zero] * (n - 1))


def verschiebung(x: WittVector) -> WittVector:
    return WittVector(x.p, x.ring, (x.ring.zero,) + x.coords[:-1])


def frobenius_w(x: WittVector) -> WittVector:
    """Witt Frobenius over a ring of characteristic p: the ring's
    Frobenius on each coordinate."""
    ring = x.ring
    if not ring.char_p:
        raise Unsupported("the Witt Frobenius is taken in characteristic p only")
    return WittVector(x.p, ring, [ring.frob(c) for c in x.coords])


def mul_by_p(x: WittVector) -> WittVector:
    return from_int(x.p, x.p, x.n, x.ring) * x


# --- W_n(F_p) <-> Z/p^n ---


def _coords_to_zmod(coords, p, n) -> int:
    mod = p ** n
    return sum(p ** i * pow(int(c), p ** (n - 1 - i), mod) for i, c in enumerate(coords)) % mod


def zmod_to_coords(c: int, p: int, n: int) -> list:
    """The coordinates in W_n(F_p), ints in [0, p), of c in [0, p^n)."""
    coords = []
    for level in range(n, 0, -1):
        mod = p ** level
        c %= mod
        a = c % p
        coords.append(a)
        c = (c - pow(a, p ** (level - 1), mod)) // p
    return coords


def to_zmod(x: WittVector) -> int:
    """Ring isomorphism W_n(F_p) -> Z/p^n (as an int in [0, p^n))."""
    return _coords_to_zmod([_ff_lift(c, x.p) for c in x.coords], x.p, x.n)


def from_zmod(c: int, p: int, n: int, ring) -> WittVector:
    coords = zmod_to_coords(c % p ** n, p, n)
    return WittVector(p, ring, [ring.of_int(a) for a in coords])


def _ff_lift(c, p) -> int:
    fld = getattr(c, "field", None)
    if fld is None or fld.order != p:
        raise ValueError("to_zmod needs coordinates in F_p")
    return fld.code(c)


# --- constructive division (the engine behind the W_n ideal inclusion) ---


def witt_divide(x: WittVector, z: WittVector) -> WittVector:
    """y with z*y = x, solving coordinate by coordinate.

    Works over coefficient rings with division and a valuation
    (PerfSeries).  The k-th coordinate of z*y is z_0^(p^k) * y_k plus
    terms in y_{<k}, so each step is one exact division by z_0^(p^k).
    Raises NotDivisible if a quotient coordinate leaves the integral
    model (negative exponents).
    """
    x._check(z)
    ring, p, n = x.ring, x.p, x.n
    z0 = z.coords[0]
    if not z0:
        raise NotDivisible("leading coordinate of divisor vanishes")
    ycoords = []
    for k in range(n):
        partial = WittVector(p, ring, list(ycoords) + [ring.zero] * (n - k))
        cur = (z * partial).coords[k]
        defect = x.coords[k] - cur
        denom = power(z0, p ** k, operator.mul, ring.one)
        q = defect / denom
        v = q.valuation()
        if v is not None and v < 0:
            raise NotDivisible(f"coordinate {k} quotient has valuation {v} < 0")
        ycoords.append(q)
    return WittVector(p, ring, ycoords)


def in_maximal_ideal(x: WittVector) -> bool:
    """All coordinates of strictly positive valuation (W_n of the
    maximal ideal)."""
    for c in x.coords:
        v = c.valuation()
        if v is not None and v <= 0:
            return False
    return True
