import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclab import gf, perfseries, witt
from padiclab.errors import ExtensionTooSmall, LatticeTooCoarse, PrecisionError
from padiclab.perfseries import (PerfRing, PerfSeries, frobenius_fixed_residual,
                                 monomial, one_like, root_p_minus_1, solve_additive,
                                 solve_frobenius_fixed)
from padiclab.rings import Zmod
from padiclab.series import TruncSeries
import test_fixed_point_kernels
from test_fixed_point_kernels import zmod_series_to_witt

F3 = gf.field(3)


def test_lattice_enforced():
    with pytest.raises(LatticeTooCoarse):
        PerfSeries(F3, 2, 1, {F(1, 12): F3.one}, F(4))


def test_ring_basics():
    u = monomial(F3, 2, 3, 1, F3.one, F(8))
    uh = monomial(F3, 2, 3, F(1, 2), F3.one, F(8))
    assert uh * uh == u
    assert u * u.inverse() == one_like(u)
    assert u.pth_power().pth_root() == u
    with pytest.raises(LatticeTooCoarse):
        monomial(F3, 2, 0, F(1, 2), F3.one, F(4)).pth_root()


def test_lattice_errors_name_the_least_offending_exponent():
    """Not the first in the coefficient dict's order."""
    f = PerfSeries(F3, 2, 1, {F(5, 6): F3.one, F(1, 6): F3.one, F(1, 2): F3.one}, F(4))
    with pytest.raises(LatticeTooCoarse, match=r"^p-th root of u\^1/6 leaves the lattice$"):
        f.pth_root()
    with pytest.raises(LatticeTooCoarse, match=r"^exponent 1/4 outside lattice 1/6 Z$"):
        f.shift(F(1, 12))


def test_valuation_multiplicative():
    rng = random.Random(22)
    for _ in range(300):
        f = PerfSeries(F3, 2, 2, {F(e, 6): F3.random(rng) for e in range(1, 18)}, F(8))
        g = PerfSeries(F3, 2, 2, {F(e, 6): F3.random(rng) for e in range(1, 18)}, F(8))
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).valuation() == f.valuation() + g.valuation()


def test_binomial_power():
    u = monomial(F3, 2, 2, 1, F3.one, F(8))
    f = one_like(u) + u
    half = f.binomial_power(F(1, 2))
    assert half * half == f
    third_inv = f.binomial_power(F(-1, 1))
    assert third_inv * f == one_like(u)
    with pytest.raises(ValueError):
        f.binomial_power(F(1, 3))  # not a 3-adic integer


def test_root_p_minus_1():
    u = monomial(F3, 2, 3, 1, F3.one, F(8))
    V = root_p_minus_1(u)
    assert V * V == u
    assert V.pth_power() == u * V
    U2 = u * (one_like(u) + u)
    V2 = root_p_minus_1(U2)
    assert V2.pth_power() == (U2 * V2).truncate(V2.pth_power().prec)
    # leading coefficient without a (p-1)-st root
    with pytest.raises(ExtensionTooSmall):
        root_p_minus_1(u.scale(2))  # 2 is not a square in F_3


def test_solve_additive_round_trip():
    rng = random.Random(23)
    u = monomial(F3, 2, 3, 1, F3.one, F(6))
    for _ in range(40):
        U = u * (one_like(u) + u.scale(rng.randrange(3)))
        xs = PerfSeries(F3, 2, 3, {F(e, 2): F3.random(rng) for e in range(1, 10)}, F(6))
        a = xs.pth_power() - U * xs
        x = solve_additive(U, a)
        assert (x.pth_power() - U * x - a).is_zero()


def test_existv_rank1_residue():
    # n = 1, U = u: V = zeta u^(1/2)
    Us = TruncSeries(Zmod(3, 1), {1: 1}, 8)
    V = solve_frobenius_fixed(Us, F3, 1, jmax=2, prec=F(8))
    ring = PerfRing(F3, 2, 2, F(8))
    assert all(c.is_zero() for c in
               frobenius_fixed_residual(Us, V, ring, 1).coords)
    assert V.coords[0].valuation() == F(1, 2)


SOLVE_ERRORS = (ExtensionTooSmall, LatticeTooCoarse, PrecisionError)


@settings(max_examples=150)
@given(st.sampled_from([(3, 2), (3, 3), (5, 2)]), st.integers(3, 8), st.data())
def test_fixed_point_claims_only_digits_every_completion_shares(pn, M, data):
    """Perturbation oracle: V with phi(V) = U V for U at precision M
    agrees with V for two completions of U to precision 3M wherever both
    claim digits.  U mod p has leading coefficient 1, so every
    completion picks the same (p-1)-st root; an input or completion the
    field or lattice cannot solve is passed over.  A coordinate whose
    residual is zero at its precision still spends precision."""
    p, n = pn
    R, Fp = Zmod(p, n), gf.field(p)
    d = data.draw(st.integers(0, M - 1))
    cs = data.draw(st.lists(st.integers(0, p ** n - 1), min_size=M, max_size=M))
    cs = [c - c % p for c in cs[:d]] + [cs[d] - cs[d] % p + 1] + cs[d + 1:]
    try:
        V = solve_frobenius_fixed(TruncSeries(R, dict(enumerate(cs)), M), Fp, n,
                                  jmax=n + 1, prec=F(M))
    except SOLVE_ERRORS:
        return
    for _ in range(2):
        tail = data.draw(st.lists(st.integers(0, p ** n - 1), min_size=2 * M, max_size=2 * M))
        try:
            W = solve_frobenius_fixed(TruncSeries(R, dict(enumerate(cs + tail)), 3 * M), Fp, n,
                                      jmax=n + 1, prec=F(3 * M))
        except SOLVE_ERRORS:
            continue
        assert V.coords == W.coords


def test_existv_unit_type_full_precision():
    # U = u(1+u): corrections stay shallow, full precision retained
    Z9 = Zmod(3, 2)
    U = TruncSeries(Z9, {1: 1, 2: 1}, 12)
    V = solve_frobenius_fixed(U, F3, 2, jmax=4, prec=F(12))
    ring = PerfRing(F3, 2, 4, F(12))
    res = frobenius_fixed_residual(U, V, ring, 2)
    assert all(c.is_zero() for c in res.coords)
    assert V.coords[1].prec >= 6


def test_existv_eisenstein_certified_ceiling():
    # honest Eisenstein U: the second coordinate's certified precision
    # approaches ep/(p-1) from below and the residual vanishes there
    Z9 = Zmod(3, 2)
    U = TruncSeries(Z9, {0: 3, 1: 1}, 10)
    V = solve_frobenius_fixed(U, F3, 2, jmax=6, prec=F(10))
    ring = PerfRing(F3, 2, 6, F(10))
    res = frobenius_fixed_residual(U, V, ring, 2)
    assert all(c.is_zero() for c in res.coords)
    ceiling = F(3, 2)
    assert ceiling - F(1, 4) < V.coords[1].prec <= F(10)


def test_existv_scaling_and_vbar():
    Z9 = Zmod(3, 2)
    U = TruncSeries(Z9, {1: 1, 2: 1}, 10)
    V = solve_frobenius_fixed(U, F3, 2, jmax=4, prec=F(10))
    ring = PerfRing(F3, 2, 4, F(10))
    V2 = witt.from_int(2, 3, 2, ring) * V
    assert all(c.is_zero() for c in frobenius_fixed_residual(U, V2, ring, 2).coords)
    # V^(p-1) = U mod p
    Ubar = PerfSeries(F3, 2, 4, {F(e): F3.el(c % 3) for e, c in U.coeffs.items()}, F(10))
    sq = V.coords[0] * V.coords[0]
    assert sq == Ubar.truncate(sq.prec)


def test_tbar_valuation():
    # the solver for x^p = u^e x has valuation e/(p-1)
    for e in (1, 2):
        Ue = monomial(F3, 2, 2, e, F3.one, F(8))
        t = root_p_minus_1(Ue)
        assert t.valuation() == F(e, 2)


def test_existv_length_three():
    # the coordinate-correction loop is uniform in n; a shallow U keeps
    # every coordinate exact at depth three as well
    U = TruncSeries(Zmod(3, 3), {1: 1, 2: 1}, 12)
    V = solve_frobenius_fixed(U, F3, 3, jmax=4, prec=F(12))
    ring = PerfRing(F3, 2, 4, F(12))
    res = frobenius_fixed_residual(U, V, ring, 3)
    assert all(c.is_zero() for c in res.coords)


def test_solve_additive_residue_branch():
    # U = u, a = c u^(3/2) over F_9: v(a) = p v(U)/(p-1), so the leading
    # term is gamma u^(1/2) with gamma^3 - gamma = c, solvable iff
    # Tr(c) = c + c^3 = 0; gamma is the least-coded root
    F9 = gf.field(3, 2)
    u = monomial(F9, 2, 2, 1, F9.one, F(6))
    solvable = 0
    for c in map(F9.from_code, range(1, F9.order)):
        a = monomial(F9, 2, 2, F(3, 2), c, F(6))
        roots = [g for g in map(F9.from_code, range(F9.order)) if g ** 3 - g == c]
        if c + c ** 3 == F9.zero:
            x = solve_additive(u, a)
            assert x == monomial(F9, 2, 2, F(1, 2), roots[0], x.prec)
            assert (x.pth_power() - u * x - a).is_zero()
            solvable += 1
        else:
            assert not roots
            with pytest.raises(ExtensionTooSmall):
                solve_additive(u, a)
    assert solvable == 2


def test_solve_additive_refuses_mixed_lattices():
    """U and a from different models raise as any mixed sum or product
    does.  The first pair meets the balance point: v(U) = 1/3 on the
    lattice 1/3 Z, v(a) = 1/2 = p v(U)/(p-1) on 1/2 Z, whose p-th part
    1/6 lies on neither; there the solver once returned 0 + O(u^(1/6))."""
    F27 = gf.field(3, 3)
    U = PerfSeries(F27, 1, 1, {F(1, 3): F27.one}, F(4))
    for a in (PerfSeries(F27, 2, 0, {F(1, 2): F27.one}, F(4)),
              PerfSeries(F27, 1, 2, {F(1, 3): F27.one}, F(4)),
              PerfSeries(gf.field(3), 1, 1, {F(1, 3): F3.one}, F(4))):
        with pytest.raises(ValueError, match="^series from different models$"):
            solve_additive(U, a)
    assert solve_additive(U, PerfSeries(F27, 1, 1, {}, F(4))).is_zero()


def test_perf_ring_needs_a_positive_denominator():
    for D in (0, -2):
        with pytest.raises(ValueError):
            PerfRing(F3, D, 2, F(8))


def test_witt_vectors_over_rings_of_different_precision_do_not_combine():
    """Rings of one lattice at precisions 4 and 8 differ, so neither order
    of a sum or a product may take the left ring's precision."""
    R4, R8 = PerfRing(F3, 2, 1, F(4)), PerfRing(F3, 2, 1, F(8))
    assert R4 != R8 and R4 == PerfRing(F3, 2, 1, 4)
    coords = [monomial(F3, 2, 1, F(1, 2), F3.one, F(8)), monomial(F3, 2, 1, 1, F3.one, F(8))]
    x, y = witt.WittVector(3, R4, coords), witt.WittVector(3, R8, coords)
    for a, b in ((x, y), (y, x)):
        for op in (operator.add, operator.mul):
            with pytest.raises(ValueError, match="^Witt vectors live in different rings$"):
                op(a, b)


def test_root_p_minus_1_takes_the_least_coded_root():
    # V0 = zeta u^(1/(p-1)) with zeta the least-coded zeta^(p-1) = c
    for fld in (gf.field(5), gf.field(3, 2), gf.field(7, 2)):
        p = fld.p
        for c in map(fld.from_code, range(1, fld.order)):
            U = monomial(fld, p - 1, 1, 1, c, F(4))
            roots = [g for g in map(fld.from_code, range(fld.order)) if g and g ** (p - 1) == c]
            if roots:
                assert root_p_minus_1(U).leading() == (F(1, p - 1), roots[0])
            else:
                with pytest.raises(ExtensionTooSmall):
                    root_p_minus_1(U)


def zmod_series_to_witt_by_products(U_out, ring, n):
    """The embedding by Witt products, the reference for the closed form:
    [u]^e as a running product of [u], then from_int(c) [u]^e per term."""
    p = ring.p
    acc = witt.WittVector(p, ring, [ring.zero] * n)
    tu = witt.teichmuller(monomial(ring.field, ring.D, ring.jmax, 1, ring.field.one,
                                   ring.prec), p, n, ring)
    tu_pow = witt.teichmuller(ring.one, p, n, ring)
    last = 0
    for e in sorted(U_out.coeffs):
        c = U_out.coeffs[e]
        if e < 0:
            raise ValueError("nonnegative exponents only")
        for _ in range(e - last):
            tu_pow = tu_pow * tu
        last = e
        acc = acc + witt.from_int(int(c), p, n, ring) * tu_pow
    return acc


@st.composite
def zmod_series_inputs(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, 3))
    jmax = draw(st.integers(0, 6))
    # precisions on the lattice (1/(D p^jmax)) Z and off it
    prec = draw(st.sampled_from([F(10), F(7, 2), F(24), F(1, 3), F(29, 11), F(1, p ** 7)]))
    q = p ** n
    coeff = st.sampled_from([0, p, q - p, 1, q - 1]) | st.integers(0, q - 1)
    coeffs = draw(st.lists(coeff, max_size=7))
    U = TruncSeries(Zmod(p, n), dict(enumerate(coeffs)), 30)
    return PerfRing(gf.field(p), p - 1, jmax, prec), n, U


@settings(max_examples=60)
@given(zmod_series_inputs())
def test_witt_image_matches_the_products(inputs):
    ring, n, U = inputs
    got = zmod_series_to_witt(U, ring, n)
    want = zmod_series_to_witt_by_products(U, ring, n)
    assert got.coords == want.coords
    assert [(type(c.pc), c.pc) for c in got.coords] == [(type(c.pc), c.pc) for c in want.coords]


def zmod_series_to_witt_from_zero(U_out, ring, n):
    """The reference for the closed form's first term: the Witt sum from
    zero, one term at a time."""
    p = ring.p
    acc = witt.WittVector(p, ring, [ring.zero] * n)
    for e, c in U_out.coeffs.items():
        if e < 0:
            raise ValueError("nonnegative exponents only")
        digits = witt.from_zmod(int(c), p, n, ring).coords
        acc = acc + witt.WittVector(p, ring, [a.shift(e * p ** i) for i, a in enumerate(digits)])
    return acc


@settings(max_examples=150)
@given(zmod_series_inputs())
def test_witt_image_matches_the_sum_from_zero(inputs):
    ring, n, U = inputs
    got = zmod_series_to_witt(U, ring, n)
    want = zmod_series_to_witt_from_zero(U, ring, n)
    for g, w in zip(got.coords, want.coords):
        assert g.coeffs == w.coeffs
        assert type(g.pc) is type(w.pc) and g.pc == w.pc


@pytest.mark.parametrize("coeffs", [{0: 1}, {1: 1, 2: 1}, {0: 3, 1: 1, 2: 25, 4: 9, 5: 80},
                                    {0: 80, 2: 3, 3: 27, 7: 1}])
def test_witt_image_matches_both_references_at_length_four(coeffs):
    ring = PerfRing(F3, 2, 2, F(9))
    U = TruncSeries(Zmod(3, 4), coeffs, 30)
    got = zmod_series_to_witt(U, ring, 4)
    for want in (zmod_series_to_witt_by_products(U, ring, 4),
                 zmod_series_to_witt_from_zero(U, ring, 4)):
        assert [(c.coeffs, type(c.pc), c.pc) for c in got.coords] == \
            [(c.coeffs, type(c.pc), c.pc) for c in want.coords]


def test_fixed_point_does_not_read_the_order_of_u_terms():
    """U with its coefficient dict in reverse insertion order gives the
    same V, coordinate by coordinate, in coefficients, pc and pc type."""
    for p, n, coeffs in ((3, 2, {0: 3, 1: 1, 2: 4, 3: 7}), (3, 3, {1: 1, 2: 1, 5: 9}),
                         (5, 1, {0: 5, 1: 1, 4: 3}), (5, 2, {1: 1, 2: 10, 3: 24})):
        R, Fp = Zmod(p, n), gf.field(p)
        V = solve_frobenius_fixed(TruncSeries(R, coeffs, 10), Fp, n, jmax=4, prec=F(10))
        backwards = dict(reversed(list(coeffs.items())))
        W = solve_frobenius_fixed(TruncSeries(R, backwards, 10), Fp, n, jmax=4, prec=F(10))
        assert [(c.coeffs, type(c.pc), c.pc) for c in V.coords] == \
            [(c.coeffs, type(c.pc), c.pc) for c in W.coords]


def test_witt_image_makes_no_witt_product(monkeypatch):
    calls, laws = [], []
    product, law = witt.WittVector.__mul__, witt.eval_law

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    def counted_law(*args):
        laws.append(1)
        return law(*args)

    monkeypatch.setattr(witt.WittVector, "__mul__", counted)
    monkeypatch.setattr(witt, "eval_law", counted_law)
    ring = PerfRing(F3, 2, 4, F(12))
    U = TruncSeries(Zmod(3, 3), {0: 3, 1: 1, 2: 25, 4: 9, 5: 2}, 12)
    image = zmod_series_to_witt(U, ring, 3)
    assert not calls and not laws
    assert zmod_series_to_witt_by_products(U, ring, 3) == image
    assert len(calls) >= len(U.coeffs) and laws


@settings(max_examples=150)
@given(st.sampled_from([(3, 1), (3, 2), (3, 3), (5, 2), (7, 2)]), st.integers(1, 6), st.data())
def test_witt_image_claims_only_digits_every_completion_shares(pn, M, data):
    """Completion oracle: the image of U known to u^M agrees with the
    image of any completion of U, to three times its precision, in every
    digit both claim, though the ring's precision is above M."""
    p, n = pn
    R, ring = Zmod(p, n), PerfRing(gf.field(p), p - 1, 2, F(3 * M))
    coeffs = st.lists(st.integers(0, p ** n - 1), min_size=M, max_size=M)
    cs = data.draw(coeffs)
    image = zmod_series_to_witt(TruncSeries(R, dict(enumerate(cs)), M), ring, n)
    assert all(c.prec == M for c in image.coords)
    whole = cs + data.draw(coeffs) + data.draw(coeffs)
    assert image == zmod_series_to_witt(TruncSeries(R, dict(enumerate(whole)), 3 * M), ring, n)


def test_fixed_point_claims_no_digit_past_u():
    """U = 3 + u + O(u^2) over Z/9 at a ring precision of 10: the image
    and V claim only digits that the completion 3 + u + u^2 shares."""
    U = TruncSeries(Zmod(3, 2), {0: 3, 1: 1}, 2)
    whole = TruncSeries(Zmod(3, 2), {0: 3, 1: 1, 2: 1}, 10)
    ring = PerfRing(F3, 2, 4, F(10))
    image = zmod_series_to_witt(U, ring, 2)
    assert [c.prec for c in image.coords] == [2, 2]
    assert image == zmod_series_to_witt(whole, ring, 2)
    V = solve_frobenius_fixed(U, F3, 2, jmax=4, prec=F(10))
    assert all(c.prec <= 2 for c in V.coords)
    assert V.coords == solve_frobenius_fixed(whole, F3, 2, jmax=4, prec=F(10)).coords


def test_fixed_point_refuses_a_u_it_cannot_read():
    """U's ring must be Z/p^m for the field's p with m >= n: Z/25 under
    F_3 and Z/3 at n = 2 are refused by name."""
    for U in (TruncSeries(Zmod(5, 2), {0: 5, 1: 1}, 6), TruncSeries(Zmod(3, 1), {1: 1}, 6)):
        R = U.ring
        with pytest.raises(ValueError, match=rf"^U over Zmod\(p={R.p}, n={R.n}\) has no image "
                                             rf"in W_2: it needs Z/3\^m, m >= 2$"):
            solve_frobenius_fixed(U, F3, 2, jmax=3, prec=F(6))
    assert solve_frobenius_fixed(TruncSeries(Zmod(3, 3), {1: 1}, 6), F3, 2,
                                 jmax=3, prec=F(6)).coords[0]


@pytest.mark.parametrize("p, n, coeffs, D, jmaxes, prec, a0", [
    (3, 4, {0: 28, 1: 1}, 2, (1, 2, 3, 4), 8, 1),
    (3, 2, {1: 7, 2: 8}, 4, (0, 1, 2, 4), 6, 2)])
def test_fixed_point_refuses_on_every_lattice(p, n, coeffs, D, jmaxes, prec, a0):
    """A residue equation with no root in F_3 is read on every lattice:
    no root of a residual caps a coordinate before its leading term is
    solved (U = 28 + u at jmax 2 gave V_3 = 0 + O(u^0), U = 7u + 8u^2 at
    jmax 0 gave V_1 = 0 + O(u^(3/2)))."""
    U = TruncSeries(Zmod(p, n), coeffs, 6)
    message = rf"^residue equation x\^3 - ff\(F3:1\) x = ff\(F3:{a0}\) has no root in F3$"
    for jmax in jmaxes:
        with pytest.raises(ExtensionTooSmall, match=message):
            solve_frobenius_fixed(U, F3, n, D=D, jmax=jmax, prec=F(prec))


def test_witt_image_asserts_each_division_by_p_k(monkeypatch):
    """x_0^9 off by 3 at step 2 (right mod 3, wrong mod 9): ghost
    component 2 less its lower terms is in 3 Z but not 9 Z, so the
    image (the reference in test_fixed_point_kernels) raises rather than
    read a digit."""
    calls, power = [], test_fixed_point_kernels.power

    def off_by_3(y, k, mul, one):
        calls.append(k)
        out = power(y, k, mul, one)
        return out + TruncSeries(y.ring, {0: 3}, out.pc) if len(calls) == 2 else out

    monkeypatch.setattr(test_fixed_point_kernels, "power", off_by_3)
    U = TruncSeries(Zmod(3, 3), {0: 1, 1: 1}, 6)
    message = r"^ghost component 2 less its lower terms is not p\^2 Z$"
    with pytest.raises(ArithmeticError, match=message):
        zmod_series_to_witt(U, PerfRing(F3, 2, 2, F(6)), 3)


def test_fixed_point_asserts_its_ghost_division(monkeypatch):
    """V_0^3 off by 1 at step 1: the residual's ghost component 1 is then
    not in 3 Z, and the solver raises rather than read a coordinate."""
    power = perfseries.power

    def off_by_1(y, k, mul, one):
        out = power(y, k, mul, one)
        return out + TruncSeries(out.ring, {0: 1}, out.pc)

    monkeypatch.setattr(perfseries, "power", off_by_1)
    U = TruncSeries(Zmod(3, 2), {0: 1, 1: 1}, 6)
    with pytest.raises(ArithmeticError, match=r"^ghost component 1 of the residual is not p\^1 Z$"):
        solve_frobenius_fixed(U, F3, 2, jmax=2, prec=F(6))


def test_additive_solve_asserts_its_progress(monkeypatch):
    """With x^p made x, a peel below the balance point leaves a remainder
    of lower valuation, and with x^p made 0 one of the same valuation (U x0
    lies above it): the self-check refuses both, rather than run the loop
    to its count."""
    U, a = monomial(F3, 2, 2, 1, F3.one, F(6)), monomial(F3, 2, 2, F(1, 3), F3.one, F(6))
    for pth_power in (lambda self: self, lambda self: self._like({}, self.pc * self.field.p)):
        monkeypatch.setattr(PerfSeries, "pth_power", pth_power)
        with pytest.raises(ArithmeticError, match="^no progress in semilinear solve$"):
            solve_additive(U, a)


def test_witt_image_refuses_negative_exponents():
    U = TruncSeries(Zmod(3, 2), {-1: 1, 0: 1}, 6)
    with pytest.raises(ValueError, match="nonnegative"):
        zmod_series_to_witt(U, PerfRing(F3, 2, 2, F(6)), 2)



def _draw_terms(data, field, L, low, high, nterms):
    """Terms at exponents k / L, k in [low, high), the one at low nonzero;
    none when high <= low."""
    if high <= low:
        return {}
    codes = data.draw(st.lists(st.integers(low, high - 1), max_size=nterms))
    terms = {F(k, L): field.from_code(data.draw(st.integers(0, field.order - 1)))
             for k in codes}
    terms[F(low, L)] = field.from_code(data.draw(st.integers(1, field.order - 1)))
    return terms


@settings(max_examples=200)
@given(st.sampled_from([(3, 1), (3, 2), (5, 1)]), st.integers(1, 2), st.integers(0, 2),
       st.data())
def test_additive_solve_claims_only_digits_every_completion_shares(pf, D, jmax, data):
    """Perturbation oracle: x with x^p - U x = a, for U and a at their
    own precisions, agrees with the solution for two completions of U
    and a, each to three times its precision, wherever both claim
    digits.  A completion adds terms at and above the precision only.
    An input or completion the field or lattice cannot solve is passed
    over."""
    p, f = pf
    field = gf.field(p, f)
    L = D * p ** jmax

    def series(terms, pc):
        return PerfSeries(field, D, jmax, terms, F(pc, L))

    pcU, pca = (data.draw(st.integers(1, 4 * L)) for _ in range(2))
    vU = data.draw(st.integers(0, pcU - 1))
    # v(a) often at the balance point p v(U)/(p-1), where the residue
    # equation is solved, when that lies on the lattice
    va = data.draw(st.integers(0, pca) | st.just(-(-p * vU // (p - 1))))
    Ut = _draw_terms(data, field, L, vU, pcU, 4)
    at = _draw_terms(data, field, L, va, pca, 4)
    U, a = series(Ut, pcU), series(at, pca)
    try:
        x = solve_additive(U, a)
    except SOLVE_ERRORS:
        return
    for _ in range(2):
        U2 = series({**Ut, **_draw_terms(data, field, L, pcU, 3 * pcU, 6)}, 3 * pcU)
        a2 = series({**at, **_draw_terms(data, field, L, pca, 3 * pca, 6)}, 3 * pca)
        try:
            x2 = solve_additive(U2, a2)
        except SOLVE_ERRORS:
            continue
        assert x == x2, (U, a, x, x2)
