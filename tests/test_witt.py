import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclab import gf, witt
from padiclab.errors import NotDivisible
from padiclab.padic import power
from padiclab.perfseries import PerfRing, PerfSeries
from padiclab.rings import FFRing, IntRing, Zmod
from padiclab.series import SparseSeries, TruncSeries, TruncSeriesRing
from padiclab.suites import incwitt_fixture
from padiclab.witt import (WittVector, from_zmod, frobenius_w, generate_laws,
                           ghost_components, mul_by_p, teichmuller, to_zmod,
                           verschiebung, witt_divide)

F3R = FFRing(gf.field(3))


def lift_ghost(poly, p, n, k):
    import padiclab.witt as W
    acc = {}
    for i in range(k + 1):
        acc = W._p_add(acc, W._p_scale(W._var(i, 2 * n, p ** (k - i)), p ** i))
    return acc


def test_law_examples():
    T = generate_laws(3, 2)
    assert dict(T.sum_polys[0]) == {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1}
    assert dict(T.prod_polys[0]) == {(1, 0, 1, 0): 1}
    # S1 integral and ghost-correct: w1(S0, S1) = w1(x) + w1(y)
    import padiclab.witt as W
    S0, S1 = dict(T.sum_polys[0]), dict(T.sum_polys[1])
    lhs = W._p_add(power(S0, 3, W._p_mul, None), W._p_scale(S1, 3))
    rhs = W._p_add(W._ghost(3, 1, 0, 4), W._ghost(3, 1, 2, 4))
    assert lhs == rhs


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2), (5, 3)])
def test_ghost_identities_symbolic(p, n):
    import padiclab.witt as W
    T = generate_laws(p, n)
    for k in range(n):
        acc = {}
        for i in range(k + 1):
            acc = W._p_add(acc, W._p_scale(power(dict(T.sum_polys[i]), p ** (k - i),
                                                 W._p_mul, None), p ** i))
        want = W._p_add(W._ghost(p, k, 0, 2 * n), W._ghost(p, k, n, 2 * n))
        assert acc == want


def test_w2f3_addition_example():
    x = teichmuller(F3R.one, 3, 2, F3R)
    s = x + x
    assert [F3R.field.code(c) for c in s.coords] == [2, 1]
    zero = witt.zero(3, 2, F3R)
    assert x + zero == x


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2)])
def test_zmod_iso_exhaustive(p, n):
    ring = FFRing(gf.field(p))
    mod = p ** n
    for a in range(mod):
        wa = from_zmod(a, p, n, ring)
        assert to_zmod(wa) == a
    for a in range(0, mod, max(1, mod // 40)):
        for b in range(0, mod, max(1, mod // 40)):
            wa, wb = from_zmod(a, p, n, ring), from_zmod(b, p, n, ring)
            assert to_zmod(wa + wb) == (a + b) % mod
            assert to_zmod(wa * wb) == (a * b) % mod


def test_zmod_iso_values():
    assert to_zmod(teichmuller(F3R.one, 3, 2, F3R)) == 1
    assert to_zmod(WittVector(3, F3R, [F3R.zero, F3R.one])) == 3


def test_teichmuller_multiplicative():
    rng = random.Random(12)
    F9 = FFRing(gf.field(3, 2))
    for _ in range(100):
        a, b = F9.field.random(rng), F9.field.random(rng)
        assert teichmuller(a, 3, 2, F9) * teichmuller(b, 3, 2, F9) == \
            teichmuller(a * b, 3, 2, F9)
    # multiplicative group has order 8: [a^8] = [1], i.e. [a][a^7] = [1]
    a = F9.field.gen
    assert teichmuller(a ** 8, 3, 2, F9) == teichmuller(F9.field.one, 3, 2, F9)
    assert teichmuller(a, 3, 2, F9) * teichmuller(a ** 7, 3, 2, F9) == \
        teichmuller(F9.field.one, 3, 2, F9)


def test_verschiebung_frobenius():
    v = verschiebung(teichmuller(F3R.one, 3, 2, F3R))
    assert [F3R.field.code(c) for c in v.coords] == [0, 1]
    rng = random.Random(13)
    F9 = FFRing(gf.field(3, 2))
    for _ in range(200):
        x = WittVector(3, F9, [F9.field.random(rng) for _ in range(3)])
        assert frobenius_w(verschiebung(x)) == mul_by_p(x)


def from_int_by_doubling(k, p, n, ring):
    """witt.from_int's own double-and-add before padic.power: the reference."""
    acc, unit = witt.zero(p, n, ring), witt.one(p, n, ring)
    for bit in bin(abs(k))[2:] if k else "":
        acc = acc + acc
        if bit == "1":
            acc = acc + unit
    return -acc if k < 0 else acc


@pytest.mark.parametrize("p, n, ring", [(3, 3, IntRing()), (5, 2, IntRing()),
                                        (3, 2, Zmod(3, 4)), (7, 2, Zmod(7, 3))])
def test_from_int_matches_double_and_add(p, n, ring):
    for k in range(-30, 31):
        assert witt.from_int(k, p, n, ring) == from_int_by_doubling(k, p, n, ring)


def test_ghost_functoriality():
    rng = random.Random(14)
    Z = IntRing()
    for _ in range(200):
        x = WittVector(3, Z, [rng.randrange(-50, 50) for _ in range(3)])
        y = WittVector(3, Z, [rng.randrange(-50, 50) for _ in range(3)])
        gx, gy = ghost_components(x), ghost_components(y)
        assert ghost_components(x + y) == tuple(a + b for a, b in zip(gx, gy))
        assert ghost_components(x * y) == tuple(a * b for a, b in zip(gx, gy))


def test_witt_divide_teichmuller():
    field, ring, Z = incwitt_fixture()
    u = witt.teichmuller(
        __import__("padiclab.perfseries", fromlist=["monomial"]).monomial(
            field, 2, ring.jmax, 1, field.one, ring.prec), 3, 2, ring)
    u2 = u * u
    assert witt_divide(u2, u) == u


def test_witt_divide_round_trip():
    from padiclab.perfseries import PerfSeries
    rng = random.Random(15)
    field, ring, Z = incwitt_fixture()
    for _ in range(25):
        coords = [PerfSeries(field, 2, ring.jmax,
                             {Fraction(rng.randrange(1, 40), 6): field.random(rng)
                              for _ in range(4)}, ring.prec) for _ in range(2)]
        y = WittVector(3, ring, coords)
        x = Z * y
        assert (Z * witt_divide(x, Z)) == x


def test_witt_divide_rejects_shallow():
    from padiclab.perfseries import PerfSeries
    field, ring, Z = incwitt_fixture()
    # coordinate valuations far below the ideal threshold
    bad = WittVector(3, ring, [
        PerfSeries(field, 2, ring.jmax, {Fraction(1, 2): field.one}, ring.prec),
        PerfSeries(field, 2, ring.jmax, {Fraction(1, 2): field.one}, ring.prec)])
    try:
        y = witt_divide(bad, Z)
        assert not witt.in_maximal_ideal(y)
    except NotDivisible:
        pass


def test_ghost_frobenius_shifts_components():
    # over a torsion-free ring, w_k(F(x)) = w_(k+1)(x)
    rng = random.Random(44)
    Z = IntRing()
    for _ in range(100):
        x = WittVector(3, Z, [rng.randrange(-30, 30) for _ in range(3)])
        assert ghost_components(frobenius_w(x)) == ghost_components(x)[1:]


@pytest.mark.parametrize("p,n,h", [(3, 1, 1), (5, 1, 2)])
def test_witt_ideal_inclusion_other_parameters(p, n, h):
    """Vectors with coordinate valuations above h p^n/(p-1) divide by
    UV; a shallow leading coordinate breaks divisibility."""
    from padiclab.perfseries import (PerfRing, PerfSeries, solve_frobenius_fixed,
                                     zmod_series_to_witt)
    from padiclab.rings import Zmod
    from padiclab.series import TruncSeries

    rng = random.Random(45 + p)
    field = gf.field(p)
    U = TruncSeries(Zmod(p, n), {h: 1, h + 1: 1}, 12)
    jm = 3
    V = solve_frobenius_fixed(U, field, n, jmax=jm, prec=Fraction(12))
    ring = PerfRing(field, p - 1, jm, Fraction(12))
    Z = zmod_series_to_witt(U, ring, n) * V
    m = Fraction(h * p ** n, p - 1)
    assert Z.coords[0].valuation() == Fraction(h, 1) + Fraction(h, p - 1)
    lat = (p - 1) * p ** jm
    for _ in range(25):
        coords = [PerfSeries(field, p - 1, jm,
                             {Fraction(rng.randrange(int(m * lat) + 1,
                                                     int((m + 4) * lat)), lat):
                              field.random(rng) for _ in range(5)},
                             Fraction(12)) for _ in range(n)]
        x = WittVector(p, ring, coords)
        y = witt_divide(x, Z)
        assert (Z * y) == x and witt.in_maximal_ideal(y)
    for _ in range(25):
        lo = rng.randrange(1, max(2, int((m - 1) * lat) - 1))
        coords = [PerfSeries(field, p - 1, jm, {Fraction(lo, lat):
                                                field.random_nonzero(rng)},
                             Fraction(12)) for _ in range(n)]
        x = WittVector(p, ring, coords)
        try:
            assert not witt.in_maximal_ideal(witt_divide(x, Z))
        except NotDivisible:
            pass


def test_witt_over_imperfect_series():
    """Witt vectors with truncated-series coordinates; the Frobenius is
    coefficientwise with u -> u^p."""
    rng = random.Random(47)
    ring = TruncSeriesRing(F3R, 9)

    def rs():
        return TruncSeries(F3R, {e: F3R.field.random(rng) for e in range(5)}, 9)

    for _ in range(20):
        x = WittVector(3, ring, [rs(), rs()])
        y = WittVector(3, ring, [rs(), rs()])
        assert (x + y) - y == x
        assert x * witt.one(3, 2, ring) == x
    # Frobenius is a ring map on the coordinates
    x = WittVector(3, ring, [rs(), rs()])
    y = WittVector(3, ring, [rs(), rs()])
    assert frobenius_w(x * y) == frobenius_w(x) * frobenius_w(y)
    assert frobenius_w(x + y) == frobenius_w(x) + frobenius_w(y)
    # u itself maps to u^p
    u = TruncSeries.monomial(F3R, 1, F3R.one, 9)
    tu = teichmuller(u, 3, 2, ring)
    assert frobenius_w(tu).coords[0] == TruncSeries.monomial(F3R, 3, F3R.one, 9)


def frobenius_by_products(x):
    """The reference for frobenius_w in characteristic p: each
    coordinate's p-th power by p - 1 products."""
    coords = []
    for c in x.coords:
        acc = c
        for _ in range(x.p - 1):
            acc = acc * c
        coords.append(acc)
    return WittVector(x.p, x.ring, coords)


F3, F9 = gf.field(3), gf.field(3, 2)
F3_CODES = st.integers(0, 2).map(F3.from_code)
# (p, ring, coordinate) for the four characteristic-p adapters; series
# coordinates at their own precisions, with positive valuations too
CHAR_P = {
    "Z/5": (5, Zmod(5, 1), st.integers(-30, 30)),
    "F_9": (3, FFRing(F9), st.integers(0, 8).map(F9.from_code)),
    "Perf(F_3)": (3, PerfRing(F3, 2, 2, Fraction(4)), st.builds(
        lambda t, prec: PerfSeries(F3, 2, 2, t, prec),
        st.dictionaries(st.integers(-4, 60).map(lambda k: Fraction(k, 18)), F3_CODES,
                        max_size=5),
        st.integers(1, 72).map(lambda k: Fraction(k, 18)))),
    "F_3[[u]]/u^9": (3, TruncSeriesRing(F3R, 9), st.builds(
        lambda t, prec: TruncSeries(F3R, t, prec),
        st.dictionaries(st.integers(0, 8), F3_CODES, max_size=5), st.integers(1, 9))),
}


@pytest.mark.parametrize("name", list(CHAR_P))
@settings(max_examples=40)
@given(data=st.data())
def test_frobenius_is_the_rings_frobenius(name, data):
    # equal to the p - 1 products at their precision, never less precise;
    # a Witt product gives coordinates above the ring's own truncation
    p, ring, coords = CHAR_P[name]
    x = WittVector(p, ring, data.draw(st.lists(coords, min_size=1, max_size=2)))
    for v in (x, x * x):
        for got, want in zip(frobenius_w(v).coords, frobenius_by_products(v).coords):
            if isinstance(want, SparseSeries):
                assert got.prec >= want.prec
                got = got.truncate(want.prec)
            assert got == want


@pytest.mark.parametrize("p, n", [(3, 5), (17, 3), (5, 4), (7, 4), (23, 3), (1291, 2), (3, 10 ** 6)])
def test_law_generation_past_the_cost_bound_is_refused_before_any_law(p, n):
    with mock.patch.object(witt, "_solve_laws") as solve:
        with pytest.raises(ValueError, match="too large to generate"):
            generate_laws.__wrapped__(p, n)
    solve.assert_not_called()


@pytest.mark.parametrize("p, n", [(3, 4), (5, 3), (7, 3)])
def test_the_laws_in_use_generate(p, n):
    # (3, 3), (5, 3) and (7, 3) are the largest the suites, demos and tests
    # meet; 13^8 and 1289^3 are the largest costs admitted at n = 3 and 2
    assert 13 ** 8 <= witt.MAX_LAW_COST < 17 ** 8
    assert 1289 ** 3 <= witt.MAX_LAW_COST < 1291 ** 3
    T = generate_laws(p, n)
    assert len(T.sum_polys) == len(T.prod_polys) == n


def eval_law_by_constants(poly, values, ring):
    """The reference for eval_law: every power built from X^0 = one,
    every coefficient a product by the constant of_int(c)."""
    caches = [{0: ring.one} for _ in values]
    acc = ring.zero
    for mono, coeff in poly:
        term = ring.of_int(coeff)
        for idx, e in enumerate(mono):
            if not e:
                continue
            cache = caches[idx]
            if e not in cache:
                v = values[idx]
                best = max(k for k in cache if k <= e)
                cur = cache[best]
                for _ in range(e - best):
                    cur = cur * v
                cache[e] = cur
            term = term * cache[e]
        acc = acc + term
    return acc


@st.composite
def perf_coordinate(draw, field, D, jmax):
    """A PerfSeries with Laurent terms, possibly none; its p-th root
    (precision code off the lattice) or p-th power (above the ring's)."""
    p, L = field.p, D * field.p ** jmax
    shape = draw(st.sampled_from(["plain", "root", "power"]))
    step = p if shape == "root" else 1
    codes = st.integers(-2, 3 * L // step).map(lambda k: Fraction(k * step, L))
    terms = draw(st.dictionaries(codes, st.integers(0, field.order - 1).map(field.from_code),
                                 max_size=3))
    x = PerfSeries(field, D, jmax, terms, Fraction(draw(st.integers(1, 4 * L)), L))
    return x.pth_root() if shape == "root" else x.pth_power() if shape == "power" else x


@st.composite
def trunc_coordinate(draw, base, prec):
    """A TruncSeries with Laurent terms, possibly none, or its Frobenius
    (precision above the ring's)."""
    F = base.field
    terms = draw(st.dictionaries(st.integers(-2, prec + 1), st.integers(0, F.order - 1)
                                 .map(F.from_code), max_size=3))
    x = TruncSeries(base, terms, draw(st.integers(-1, prec + 2)))
    return x.frobenius() if draw(st.booleans()) else x


# (field, D, jmax) of each PerfRing, whose precision is drawn on the
# lattice or off it (29/11), and the base of each TruncSeriesRing
LAW_RINGS = {"Perf(F_3)": (F3, 2, 2), "Perf(F_9)": (F9, 2, 1), "Perf(F_5)": (gf.field(5), 4, 1),
             "Perf(F_7)": (gf.field(7), 6, 1), "F_3[[u]]": F3R, "F_9[[u]]": FFRing(F9)}
LAW_CASES = [(name, n) for name in ("Perf(F_3)", "Perf(F_9)", "F_3[[u]]", "F_9[[u]]")
             for n in (1, 2, 3)] + [("Perf(F_5)", 1), ("Perf(F_5)", 2), ("Perf(F_7)", 2)]


@pytest.mark.parametrize("name, n", LAW_CASES)
@settings(max_examples=40)
@given(data=st.data())
def test_laws_match_the_products_by_constants(name, n, data):
    """Every sum and product law of W_n, evaluated by times_int, gives the
    coefficients and precision code (value and type) of the products by
    of_int(c) and one."""
    model = LAW_RINGS[name]
    if isinstance(model, tuple):
        ring = PerfRing(*model, data.draw(st.sampled_from([Fraction(2), Fraction(29, 11)])))
        coord = perf_coordinate(*model)
    else:
        ring = TruncSeriesRing(model, data.draw(st.integers(1, 6)))
        coord = trunc_coordinate(model, ring.prec)
    values = data.draw(st.lists(coord, min_size=2 * n, max_size=2 * n))
    T = generate_laws(ring.p, n)
    for law in T.sum_polys + T.prod_polys:
        got, want = witt.eval_law(law, values, ring), eval_law_by_constants(law, values, ring)
        assert got.coeffs == want.coeffs
        assert type(got.pc) is type(want.pc) and got.pc == want.pc


def _gr_mul(u, v, mod, N):
    """u v in (Z/N)[x]/(x^f + mod(x)), coefficient tuples low degree first."""
    f = len(u)
    raw = [0] * (2 * f - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            raw[i + j] += a * b
    for k in range(2 * f - 2, f - 1, -1):
        for j in range(f):
            raw[k - f + j] -= raw[k] * mod[j]
    return tuple(c % N for c in raw[:f])


def galois_ring_image(x):
    """x = (a_0, a_1, ...) in W_n(F_q) as sum_i p^i [a_i^(1/p^i)] in the
    Galois ring (Z/p^n)[x]/(m~), m~ the lift of F_q's modulus with digits
    in [0, p) and [a] = a~^(q^(n-1)) mod p^n for any lift a~ of a: the
    Teichmuller lift, as a~^q = a~ mod p.  V = p sigma^-1 on W(F_q), so
    V^i [a] = p^i [a^(1/p^i)]."""
    F, n = x.ring.field, x.n
    p, f, N = F.p, F.fp_degree, F.p ** n
    one = (1,) + (0,) * (f - 1)
    acc = [0] * f
    for i, a in enumerate(x.coords):
        t = power(F.frob_p(a, -i).coeffs, F.order ** (n - 1),
                  lambda u, v: _gr_mul(u, v, F.modulus, N), one)
        acc = [(c + p ** i * e) % N for c, e in zip(acc, t)]
    return tuple(acc)


@pytest.mark.parametrize("p, f", [(3, 2), (5, 2), (3, 3), (7, 2)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_witt_vectors_over_Fq_match_the_galois_ring(p, f, n):
    """W_n(F_q) is the Galois ring (Z/p^n)[x]/(m~), the map
    galois_ring_image an isomorphism: + and * agree with it on random
    vectors, zero coordinates favoured, and it is injective on them."""
    F = gf.field(p, f)
    ring, rng = FFRing(F), random.Random(p * 100 + f * 10 + n)
    mod, N = F.modulus, p ** n

    def vector():
        return WittVector(p, ring, [F.random(rng) if rng.random() < 0.8 else F.zero
                                    for _ in range(n)])

    seen = {}
    for _ in range(25):
        x, y = vector(), vector()
        gx, gy = galois_ring_image(x), galois_ring_image(y)
        assert galois_ring_image(x + y) == tuple((a + b) % N for a, b in zip(gx, gy))
        assert galois_ring_image(x * y) == _gr_mul(gx, gy, mod, N)
        for v, g in ((x, gx), (y, gy)):
            assert seen.setdefault(g, v) == v
