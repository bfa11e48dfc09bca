"""The mod-p functor's digit-level paths against the code they replaced,
kept here as references.

galrep._unpack builds each solution reduced, through
TruncSeries.from_digits, from its nonzero digit blocks; the reference
builds it through TruncSeries.__init__, which filters every coefficient
again.  TruncSeries sums and differences over
F_q combine digit tuples in one pass; the reference is the shared
kernel's dict sum, a difference being the sum with the negated series.
gf.GF.matrix_order finds the order of a matrix on packed digits, and
galrep._splitting_degree through it; the reference is the power loop on
FFElt matrices that matrix.order was, with the same bound and the same
two refusals.  gf.GF._frobenius_rows builds the rows of
x -> x^(p^k) - a x from sigma's packed columns and the
multiplication columns of a; the references are the column loops of
x -> x^p - x A on F^d and sigma^k applied to each x^j, over F_3, F_9,
F_27 and F_(3^26), and the builder that formed sigma^k(x)^j by field
products, over F_(3^n), n <= 52, and F_(23^22).
"""

import functools
import operator
import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padiclab import galrep, gf, matrix, padic
from padiclab.errors import ExtensionCapExceeded
from padiclab.rings import FFRing
from padiclab.series import SparseSeries, TruncSeries

FIELDS = [gf.field(3), gf.field(3, 2), gf.field(3, 3), gf.field(3, 26)]
fields = st.sampled_from(FIELDS)


def reference_series(digits, ext, prec):
    """galrep._unpack's series through TruncSeries.__init__, every block kept."""
    ring, n = FFRing(ext), ext.fp_degree
    return tuple(TruncSeries(ring, {m: gf.FFElt(ext, digits[i + m * n:i + m * n + n])
                                    for m in range(prec)}, prec)
                 for i in range(0, len(digits), prec * n))


def reference_sum(a, b, op):
    """a + b or a - b by the shared kernel: FFElt sums, through a negated
    series for a difference."""
    return SparseSeries.__add__(a, b if op is operator.add else SparseSeries.__neg__(b))


def reference_order(A, one, zero, bound):
    """The least k in [1, bound] with A^k = I, or None: the power loop,
    over a ring whose elements compare by ==."""
    ident = matrix.scalar(len(A), one, zero)
    power = A
    for k in range(1, bound + 1):
        if power == ident:
            return k
        power = matrix.mul(power, A)
    return None


def reference_frobenius_minus(F, A) -> list:
    """x -> x^p - x A on F^d as int rows over F_p, unreduced, by the
    column loops: column (j, k), the image of x^k in slot j, is (x^k)^p
    in slot j less x^k A[j][i] in slot i."""
    m = F.fp_degree
    frob = [F.frob_p(F.gen ** k).coeffs for k in range(m)]
    times = functools.cache(lambda y: F._times_columns(y.coeffs))
    cols = []
    for j, row in enumerate(A):
        prods = [times(a) for a in row]
        cols += [[a * (i == j) - b for i, Mi in enumerate(prods)
                  for a, b in zip(frob[k], Mi[k])] for k in range(m)]
    return [list(r) for r in zip(*cols)]


def reference_rows_of_sigma_k_minus_one(F, k) -> list:
    """x -> x^(p^k) - x as int rows over F_p, unreduced: column j is
    sigma^k(x^j) less x^j."""
    n = F.fp_degree
    cols = [[a - (i == j) for i, a in enumerate(F.frob_p(F.gen ** j, k).coeffs)]
            for j in range(n)]
    return [list(r) for r in zip(*cols)]


def reference_frobenius_rows(F, k, a) -> list:
    """gf.GF._frobenius_rows as it was before it read sigma's packed
    columns: column j is sigma^k(x)^j, by n - 1 field products, less
    x^j a."""
    n, p = F.fp_degree, F.p
    images = F._powers(F.frob_p(F.gen, k), n)
    times = F._times_columns(F.coerce(a).coeffs)
    return [[(y.coeffs[i] - t[i]) % p for y, t in zip(images, times)] for i in range(n)]


def reference_splitting_degree(G0, base):
    """galrep._splitting_degree by the FFElt power loop."""
    d, q = len(G0), base.order
    lang, fits = base.p ** d - 1, padic.ndigits(gf.MAX_ORDER, q) - 1
    s = reference_order(galrep._frobenius_norm(G0, base), base.one, base.zero, min(lang, fits))
    if s is not None:
        return s
    if fits >= lang:
        raise ArithmeticError(f"N has order above p^d - 1 = {lang} in GL_{d}(F_{q})")
    raise ExtensionCapExceeded(f"N has order > {fits} in GL_{d}(F_{q}): the residue equation "
                               f"needs F_({q}^s), s > {fits}, of order above gf.MAX_ORDER")


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, ExtensionCapExceeded) as exc:
        return type(exc), str(exc)


def assert_same(got, ref):
    """Equal coefficients and precision, no zero coefficient stored and
    none at or above the precision."""
    assert (got.coeffs, got.pc, type(got.pc)) == (ref.coeffs, ref.pc, type(ref.pc))
    assert all(c and e < got.pc for e, c in got.coeffs.items())


def codes(F):
    """Element codes, zero a third of the time."""
    return st.one_of(st.just(0), st.integers(0, F.order - 1), st.integers(1, F.order - 1))


@settings(max_examples=150)
@given(fields, st.integers(1, 8), st.integers(1, 3), st.data())
def test_series_match_the_filtering_constructor(F, prec, count, data):
    blocks = data.draw(st.lists(codes(F), min_size=prec * count, max_size=prec * count))
    digits = tuple(c for code in blocks for c in F.from_code(code).coeffs)
    got = galrep._unpack(gf.fp_pack(digits, 1), F, count, prec, 1)
    ref = reference_series(digits, F, prec)
    assert len(got) == len(ref) == count
    for x, y in zip(got, ref):
        assert x.ring == y.ring
        assert_same(x, y)


@st.composite
def summands(draw):
    """Two series over one field at precisions 1..10, exponents -3..12 (so
    terms at or above the other operand's precision), b's terms on a's
    exponents drawn to cancel a's, to equal them, to be b's own or absent."""
    F, op = draw(fields), draw(st.sampled_from([operator.add, operator.sub]))
    ring = FFRing(F)
    exps = st.integers(-3, 12)
    ta = {e: F.from_code(c) for e, c in
          draw(st.dictionaries(exps, codes(F), max_size=10)).items()}
    tb = {e: F.from_code(c) for e, c in
          draw(st.dictionaries(exps, codes(F), max_size=6)).items()}
    for e, c in ta.items():
        how = draw(st.sampled_from(["cancel", "same", "own", "absent"]))
        if how == "cancel":
            tb[e] = c if op is operator.sub else -c
        elif how == "same":
            tb[e] = c
        elif how == "absent":
            tb.pop(e, None)
    pa, pb = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    return TruncSeries(ring, ta, pa), TruncSeries(ring, tb, pb), op


@settings(max_examples=400)
@given(summands())
def test_sums_match_the_kernel(args):
    a, b, op = args
    assert_same(op(a, b), reference_sum(a, b, op))
    assert_same(op(b, a), reference_sum(b, a, op))


@settings(max_examples=60)
@given(fields, st.integers(1, 10), st.data())
def test_full_cancellation_leaves_the_empty_series(F, prec, data):
    ring = FFRing(F)
    t = {e: F.from_code(c) for e, c in
         data.draw(st.dictionaries(st.integers(-3, 12), codes(F), max_size=10)).items()}
    a, other = TruncSeries(ring, t, prec), data.draw(st.integers(1, 10))
    b = TruncSeries(ring, t, other)
    for got, ref in ((a - b, reference_sum(a, b, operator.sub)),
                     (a + (-b), reference_sum(a, -b, operator.add))):
        assert_same(got, ref)
        assert not got.coeffs and got.pc == min(prec, other)


def test_coefficients_are_stored_as_elements_of_the_field():
    """The digit sums read each coefficient's tuple, so the constructor
    stores ints and prime-field elements as elements of the ring's field
    and refuses an element of a field it does not embed."""
    F3, F9, F27 = FIELDS[:3]
    ring = FFRing(F9)
    a = TruncSeries(ring, {0: 1, 1: 3, 2: -1, 3: F3.el(2)}, 5)
    assert a.coeffs == {0: F9.one, 2: F9.el(2), 3: F9.el(2)}
    b = TruncSeries(ring, {0: F9.gen, 2: F9.one}, 4)
    for op in (operator.add, operator.sub):
        assert_same(op(a, b), reference_sum(a, b, op))
    with pytest.raises(ValueError, match="cannot coerce"):
        TruncSeries(ring, {0: F27.one}, 5)


def test_sums_of_different_fields_still_raise():
    a = TruncSeries.one(FFRing(FIELDS[0]), 5)
    b = TruncSeries.one(FFRing(FIELDS[1]), 5)
    for op in (operator.add, operator.sub):
        with pytest.raises(ValueError, match="different models"):
            op(a, b)


@settings(max_examples=150)
@given(fields, st.data())
def test_splitting_degree_matches_the_power_loop(F, data):
    d = data.draw(st.integers(1, 2 if F.fp_degree > 3 else 3))
    G0 = [[F.from_code(data.draw(st.integers(0, F.order - 1))) for _ in range(d)]
          for _ in range(d)]
    assume(matrix.det(G0))
    assert outcome(galrep._splitting_degree, G0, F) == \
        outcome(reference_splitting_degree, G0, F)


@pytest.mark.parametrize("f, d", [(1, 1), (1, 2), (2, 1), (3, 1)])
def test_splitting_degree_on_every_small_group(f, d):
    """All of GL_1(F_3), GL_2(F_3), GL_1(F_9) and GL_1(F_27): every order,
    the bound p^d - 1 itself among them."""
    F = gf.field(3, f)
    seen = set()
    for entries in product(range(F.order), repeat=d * d):
        G0 = [[F.from_code(c) for c in entries[i * d:i * d + d]] for i in range(d)]
        if matrix.det(G0):
            s = galrep._splitting_degree(G0, F)
            assert s == reference_splitting_degree(G0, F)
            seen.add(s)
    assert max(seen) == 3 ** d - 1


def test_splitting_degree_keeps_both_refusals(monkeypatch):
    """Past p^d - 1 (not met by any N, by Lang's theorem, so N is set
    here to an element of order 8 in F_9 at d = 1) and past the largest
    field gf builds: over F_(3^26) at d = 2, s <= 3.  There G0 from
    GL_2(F_3) gives N = G0^26, of order 3 for a unipotent G0 (admitted,
    the bound itself) and 4 for an element of order 8 (refused)."""
    F3, F9, big = FIELDS[0], FIELDS[1], FIELDS[3]
    monkeypatch.setattr(galrep, "_frobenius_norm", lambda G0, base: G0)
    wild = [[next(x for x in map(F9.from_code, range(F9.order)) if x ** 4 != F9.one and x ** 4)]]
    got = outcome(galrep._splitting_degree, wild, F9)
    assert got == outcome(reference_splitting_degree, wild, F9)
    assert got[0] is ArithmeticError
    monkeypatch.undo()
    small = [[[F3.from_code(c) for c in cs[i:i + 2]] for i in (0, 2)]
             for cs in product(range(3), repeat=4)]
    unipotent = [[F3.one, F3.one], [F3.zero, F3.one]]
    singer = next(A for A in small if matrix.det(A) and outcome(
        reference_splitting_degree, A, F3) == 8)
    lift = [[[big.coerce(a) for a in row] for row in A] for A in (unipotent, singer)]
    assert outcome(galrep._splitting_degree, lift[0], big) == 3
    got = outcome(galrep._splitting_degree, lift[1], big)
    assert got == outcome(reference_splitting_degree, lift[1], big)
    assert got[0] is ExtensionCapExceeded
    G0 = [[big.gen, big.one], [big.one, big.zero]]
    assert outcome(galrep._splitting_degree, G0, big) == \
        outcome(reference_splitting_degree, G0, big)


def conjugate_of_small_order(F, d, rng):
    """P C P^-1 for C a random d x d matrix over F_3 and P a random
    invertible matrix over F: C's order, at most 3^d - 1, or none when
    C is singular."""
    C = [[F.el(rng.randrange(3)) for _ in range(d)] for _ in range(d)]
    while True:
        P = [[F.random(rng) for _ in range(d)] for _ in range(d)]
        if matrix.det(P):
            return matrix.mul(matrix.mul(P, C), matrix.inverse(P, F.one))


@settings(max_examples=120)
@given(fields, st.integers(1, 3), st.integers(0, 2 ** 32), st.sampled_from(["small", "any"]))
def test_matrix_order_matches_the_power_loop(F, d, seed, kind):
    """Conjugates of F_3 matrices (orders up to 26, singular ones with
    none) and arbitrary matrices, zero entries favoured; every bound up
    to 3^d - 1 and, when the order k is found, the bounds k and k - 1."""
    rng = random.Random(seed)
    if kind == "small":
        A = conjugate_of_small_order(F, d, rng)
    else:
        A = [[F.random(rng) if rng.random() < 0.6 else F.zero for _ in range(d)]
             for _ in range(d)]
    for bound in range(1, 3 ** d):
        assert F.matrix_order(A, bound) == reference_order(A, F.one, F.zero, bound)
    k = reference_order(A, F.one, F.zero, 3 ** d - 1)
    if k is not None:
        assert F.matrix_order(A, k) == k
        assert F.matrix_order(A, k - 1) is None
    if not matrix.det(A):
        assert F.matrix_order(A, 3 ** d) is None


@settings(max_examples=100)
@given(st.sampled_from(FIELDS + [gf.field(17), gf.field(17, 2), gf.field(5, 3)]),
       st.integers(0, 2 ** 32))
def test_frobenius_minus_matches_the_column_loops(F, seed):
    """_frobenius_rows at k = 1 (frobenius_solutions) against the column
    loops at d = 1, a zero, one or random, and at k = f, a = 1
    (register_embedding), f a divisor of the degree, against sigma^f
    applied to each x^j."""
    rng = random.Random(seed)
    n = F.fp_degree
    a = rng.choice([F.zero, F.one, F.random(rng)])
    f = rng.choice([f for f in range(1, n + 1) if n % f == 0])
    for (k, b), ref in [((1, a), reference_frobenius_minus(F, [[a]])),
                        ((f, 1), reference_rows_of_sigma_k_minus_one(F, f))]:
        got = F._frobenius_rows(k, b)
        assert len(got) == len(ref) == n
        assert got == [[c % F.p for c in row] for row in ref]


@pytest.mark.parametrize("p, n", [(3, n) for n in range(1, 53)] + [(23, 22)])
def test_frobenius_rows_match_the_products(p, n):
    """_frobenius_rows against the product-built reference over F_(3^n),
    n <= 52, and F_(23^22): at k = 1 with a zero, one and random
    (frobenius_solutions), and at each divisor k > 1 of the degree with
    a = 1 (register_embedding)."""
    F = gf.field(p, n)
    rng = random.Random(n)
    cases = [(1, a) for a in (F.zero, F.one, F.random(rng))]
    cases += [(k, 1) for k in range(2, n + 1) if n % k == 0]
    for k, a in cases:
        assert F._frobenius_rows(k, a) == reference_frobenius_rows(F, k, a), (k, a)


@pytest.mark.parametrize("p", [13, 17])
def test_matrix_order_at_the_largest_digit_sums(p):
    """I - J (J all ones) over F_p at d = 3: off the diagonal p - 1, so
    the first product sums 2 (p-1)^2 in a digit, more than one byte at
    p = 13.  Its order is that of -2 mod p (eigenvalues -2, 1, 1)."""
    F = gf.field(p)
    A = [[F.el(int(i == j) - 1) for j in range(3)] for i in range(3)]
    k = next(k for k in range(1, p) if pow(-2, k, p) == 1)
    assert F.matrix_order(A, p ** 3 - 1) == k == reference_order(A, F.one, F.zero, k)
    assert F.matrix_order(A, k - 1) is None
