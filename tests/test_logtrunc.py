import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padiclab import logtrunc, padic
from padiclab.errors import PrecisionError
from padiclab.logtrunc import (BoundedOp, ScaledMatrix, congruent_mod, entry_valuation,
                               is_bounded, log_m, madd, mident, mmul, mpow, msub, mscale,
                               rdc_valuation_check)
from padiclab.padic import PadicInt, exp_unit, log_unit, vp

SETTINGS = settings(max_examples=300)


def log_m_terms(A, m):
    """Reference for log_m: the term loop over the p^m - 1 matrix powers
    (1-A)^i, each scaled by p^(m - v_p(i)) (i / p^(v_p(i)))^-1."""
    p, N, d = A.p, A.prec, len(A.mat)
    mod = p ** (N + m)
    one_minus = msub(mident(d), A.mat, mod)
    acc = tuple(tuple(0 for _ in range(d)) for _ in range(d))
    power = mident(d)
    for i in range(1, p ** m):
        power = mmul(power, one_minus, mod)
        v = vp(i, p)
        coef = p ** (m - v) * pow(i // p ** v, -1, mod) % mod
        acc = madd(acc, mscale(power, coef, mod), mod)
    return ScaledMatrix(p, acc, m, N - (m - 1) if m > 1 else N)


@st.composite
def log_m_cases(draw):
    """A uniform (e = 0) or A = I + p^e R with e in {1, 2, N - 1, N}, where
    1 - A = 0 mod p^e and log_m stops its sum early; at e = N, A reduces
    to I and 1 - A = 0 mod p^(N+m)."""
    p = draw(st.sampled_from([3, 5, 7]))
    d, N = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    m = draw(st.integers(0, min(N, 4)))
    e = draw(st.sampled_from([0, 1, 2, N - 1, N]))
    rows = [[(e > 0 and i == j) + p ** e * draw(st.integers(0, p ** N - 1))
             for j in range(d)] for i in range(d)]
    return BoundedOp.of(p, N, rows), m


@settings(max_examples=800)
@given(log_m_cases())
# v = 1 at p = 3, N = 8: term 9 survives (9 - v_p(9) < 8) past 9 v >= N,
# so only the floor(log_p i) in the cut keeps it
@example((BoundedOp.of(3, 8, [[4]]), 3))
@example((BoundedOp.of(3, 8, [[4, 3], [0, 1]]), 4))
def test_log_m_matches_term_loop(case):
    # the sum reduced mod the characteristic polynomial is the same
    # matrix, and the terms past the cut are zero mod p^(N+m)
    A, m = case
    assert log_m(A, m) == log_m_terms(A, m)


def log_m_step_loop(A, m):
    """Reference for log_m's reduction: the loop that steps x^i mod chi_B
    from i = 1 up to p^m - 1, computing each c_i and adding c_i x^i."""
    from padiclab.matrix import charpoly
    if m > A.prec:
        raise PrecisionError(f"log_m of order {m} certifies no digit at precision {A.prec}")
    p, N, d = A.p, A.prec, len(A.mat)
    mod = p ** (N + m)
    one_minus = msub(mident(d), A.mat, mod)
    chi = [c % mod for c in charpoly(one_minus)]
    rem = [1] + [0] * (d - 1)
    acc = [0] * d
    for i in range(1, p ** m):
        top = rem[-1]
        rem = [(a - top * c) % mod for a, c in zip([0] + rem[:-1], chi)]
        v = vp(i, p)
        coef = p ** (m - v) * pow(i // p ** v, -1, mod) % mod
        acc = [(a + coef * r) % mod for a, r in zip(acc, rem)]
    ident = mident(d)
    out = mscale(ident, acc[-1], mod)
    for c in reversed(acc[:-1]):
        out = madd(mmul(out, one_minus, mod), mscale(ident, c, mod), mod)
    return ScaledMatrix(p, out, m, N - (m - 1) if m > 1 else N)


@st.composite
def step_loop_cases(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    d, N, m = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(0, 3))
    rows = draw(st.lists(st.lists(st.integers(0, p ** N - 1), min_size=d, max_size=d),
                         min_size=d, max_size=d))
    return BoundedOp.of(p, N, rows), m


@SETTINGS
@given(step_loop_cases())
def test_log_m_horner_pass_matches_the_step_loop(case):
    # the remainder mod chi_B is unique: one Horner pass from the top
    # gives the step loop's matrix, and both refuse m > N
    A, m = case
    if m > A.prec:
        for f in (log_m, log_m_step_loop):
            with pytest.raises(PrecisionError, match="certifies no digit"):
                f(A, m)
    else:
        assert log_m(A, m) == log_m_step_loop(A, m)


def evaluate_by_matrix_charpoly(coeffs, X, mod):
    """Reference for logtrunc._evaluate, the code it replaced: chi_X from
    matrix.charpoly reduced mod mod, the Horner pass on a list rebuilt
    per coefficient, and the remainder evaluated at X by Horner, d - 1
    products, from the scaled identity."""
    from padiclab.matrix import charpoly
    d = len(X)
    chi = [c % mod for c in charpoly(X)]
    low, high = chi[0], chi[1:]
    acc = [0] * d
    for c in reversed(coeffs):
        top = acc[-1] % mod
        acc = [c - top * low] + [a - top * h for a, h in zip(acc, high)]
    acc = [a % mod for a in acc]
    out = mscale(mident(d), acc[-1], mod)
    for c in reversed(acc[:-1]):
        out = tuple(tuple((a + c) % mod if i == j else a for j, a in enumerate(row))
                    for i, row in enumerate(mmul(out, X, mod)))
    return out


def log_m_by_matrix_charpoly(A, m):
    """log_m as it was computed before its int Berkowitz and packed Horner
    pass: the same refusals, cut and coefficients, evaluated by the
    reference above."""
    if m > A.prec:
        raise PrecisionError(f"log_m of order {m} certifies no digit at precision {A.prec}")
    logtrunc._check_order(A.p, m)
    p, N, d = A.p, A.prec, len(A.mat)
    mod = p ** (N + m)
    X = msub(mident(d), A.mat, mod)
    last = p ** m - 1
    v = entry_valuation(X, p, N + m)
    if v:
        last = min(last, padic._series_cutoff_log(p, N, v))
    out = evaluate_by_matrix_charpoly(padic._log_coeffs(p, last, m, N + m), X, mod)
    return ScaledMatrix(p, out, m, N - (m - 1) if m > 1 else N)


def _log_outcome(fn, A, m):
    try:
        L = fn(A, m)
    except (PrecisionError, ValueError) as e:
        return type(e), str(e)
    assert type(L.mat) is tuple and all(type(row) is tuple for row in L.mat)
    return L


def test_log_m_matches_the_matrix_charpoly_evaluation(monkeypatch):
    """Seeded differential run, d <= 4, p in {3, 5, 7}, N <= 10, m <= 3
    and at the term bound: the same ScaledMatrix, or the same refusal,
    as the evaluation through matrix.charpoly; A uniform or 1 mod p^e,
    entries given off their residues."""
    monkeypatch.setattr(logtrunc, "MAX_LOG_TERMS", 7 ** 3)
    rng = random.Random("log_m-by-matrix-charpoly")
    refused = 0
    for _ in range(3000):
        p, d, N = rng.choice([3, 5, 7]), rng.randint(1, 4), rng.randint(1, 10)
        m, e = rng.randint(0, 4), rng.choice([0, 0, 1, 2])
        A = BoundedOp.of(p, N, [[(e > 0 and i == j) + p ** e * rng.randrange(-p ** N, 2 * p ** N)
                                 for j in range(d)] for i in range(d)])
        got = _log_outcome(log_m, A, m)
        assert got == _log_outcome(log_m_by_matrix_charpoly, A, m), (A, m)
        refused += type(got) is tuple
    assert refused > 100


@SETTINGS
@given(st.sampled_from([3, 5, 7]), st.integers(1, 12), st.integers(0, 5), st.data())
def test_int_berkowitz_is_the_matrix_charpoly(p, k, d, data):
    """logtrunc._charpoly(X, p^k) is matrix.charpoly(X) reduced mod p^k,
    on int rows of any sign and size, d = 0 included."""
    from padiclab.matrix import charpoly
    X = [[data.draw(st.integers(-10 ** 12, 10 ** 12)) for _ in range(d)] for _ in range(d)]
    assert logtrunc._charpoly(X, p ** k) == [c % p ** k for c in charpoly(X)]


def rand_unipotent(rng, p, N, d):
    return BoundedOp.of(p, N, [[(1 if i == j else 0) + p * rng.randrange(p ** (N - 1))
                                for j in range(d)] for i in range(d)])


def test_log_m_hand_value():
    # (1-4) + (1-4)^2/2 = -3 + 9/2 = 15 mod 27
    L = log_m(BoundedOp.of(3, 3, [[4]]), 1)
    assert L.value_mod(L.certified) == ((15,),)


def test_log_m_refuses_to_certify_no_digit():
    A = BoundedOp.of(3, 3, [[4]])
    assert log_m(A, 3).certified == 1
    for m in (4, 5, 9):
        with pytest.raises(PrecisionError, match="certifies no digit"):
            log_m(A, m)


def test_orders_past_the_term_bound_are_refused(monkeypatch):
    """p^m terms at most MAX_LOG_TERMS: at the bound both run, one order
    above it both raise ValueError, and m > N keeps its PrecisionError."""
    monkeypatch.setattr(logtrunc, "MAX_LOG_TERMS", 27)
    A = BoundedOp.of(3, 6, [[4, 3], [0, 1]])
    assert log_m(A, 3) == log_m_terms(A, 3)
    assert is_bounded(A, 3) in (True, False)
    for fn in (log_m, is_bounded):
        with pytest.raises(ValueError, match="MAX_LOG_TERMS"):
            fn(A, 4)
    with pytest.raises(PrecisionError, match="certifies no digit"):
        log_m(A, 7)


def test_scaled_matrix_refuses_negative_k():
    # p^k at k < 0 is a float: the value would come back as 8.3e-16
    L = log_m(BoundedOp.of(3, 3, [[4]]), 1)
    with pytest.raises(ValueError, match="nonnegative"):
        L.value_mod(-1)
    with pytest.raises(ValueError, match="nonnegative"):
        L.is_zero_mod(-2)
    assert L.value_mod(0) == ((0,),) and L.is_zero_mod(0)


def test_scaled_matrices_of_unequal_scales_add_and_subtract_exactly():
    # each operand brought to the larger scale by p^(s - scale): the
    # result agrees with the exact rational sum mod p^certified
    p = 3
    a = ScaledMatrix(p, ((5, 7), (2, 10)), 1, 4)
    b = ScaledMatrix(p, ((4, 1), (11, 8)), 3, 3)

    def value(M):
        return [[Fraction(x, p ** M.scale) for x in row] for row in M.mat]

    def agree(M, exact):
        for row, erow in zip(value(M), exact):
            for x, y in zip(row, erow):
                diff = x - y
                assert diff == 0 or (vp(diff.numerator, p) - vp(diff.denominator, p)
                                     >= M.certified)

    va, vb = value(a), value(b)
    for x, y, vx, vy in ((a, b, va, vb), (b, a, vb, va)):
        s, t = x.add(y), x.sub(y)
        assert (s.scale, s.certified, t.scale, t.certified) == (3, 3, 3, 3)
        agree(s, [[u + w for u, w in zip(r, q)] for r, q in zip(vx, vy)])
        agree(t, [[u - w for u, w in zip(r, q)] for r, q in zip(vx, vy)])


def test_log_m_identity():
    L = log_m(BoundedOp.of(3, 4, [[1, 0], [0, 1]]), 2)
    assert L.is_zero_mod(L.certified)


def test_log_m_agrees_with_convergent_series():
    # A = 1 + pB: the order-m truncation matches the full sum of
    # (1-A)^i/i (computed here as an independent oracle); that sum is
    # the negative of the classical logarithm
    rng = random.Random(37)
    p, N = 3, 8
    mod = p ** (N + 6)
    for _ in range(20):
        A = rand_unipotent(rng, p, N, 2)
        one_minus = mident(2)
        one_minus = tuple(tuple((i == j) - A.mat[i][j] for j in range(2))
                          for i in range(2))
        acc = ((0, 0), (0, 0))
        power = mident(2)
        for i in range(1, 40):
            power = mmul(power, one_minus, mod)
            v = 0
            k = i
            while k % p == 0:
                k //= p
                v += 1
            term = tuple(tuple(a // p ** v * pow(k, -1, mod) % mod for a in row)
                         for row in power)
            acc = madd(acc, term, mod)
        Lm = log_m(A, 3)
        got = Lm.value_mod(4)
        want = tuple(tuple(a % p ** 4 for a in row) for row in acc)
        assert got == want
        # and it is minus the classical log
        assert congruent_mod(Lm, classical_log(A).scale_int(-1), 4)


def test_is_bounded():
    assert is_bounded(rand_unipotent(random.Random(38), 3, 6, 2), 2, 0)
    assert not is_bounded(BoundedOp.of(5, 6, [[0]]), 1, 0)
    U = BoundedOp.of(3, 8, [[1, 1, 0], [0, 1, 2], [0, 0, 1]])
    assert is_bounded(U, 3, 0)
    # scale parameter c relaxes the requirement
    A = BoundedOp.of(3, 6, [[1 + 1 * 3 ** 0]])  # A = 2: (1-A) = -1, not small
    assert not is_bounded(A, 1, 0)
    assert is_bounded(A, 1, 1)


def is_bounded_loop(A, m, c=0):
    """Reference for is_bounded: the loop over every power (1-A)^i, i <=
    p^m, that it ran before it stepped by p^(c+1)."""
    p, N, d = A.p, A.prec, len(A.mat)
    mod = p ** N
    one_minus = msub(mident(d), A.mat, mod)
    power = mident(d)
    for i in range(1, p ** m + 1):
        power = mmul(power, one_minus, mod)
        need = vp(i, p) - c
        if need <= 0:
            continue
        if need > N:
            raise PrecisionError("budget too small to decide boundedness")
        if entry_valuation(power, p, N) < need:
            return False
    return True


def _bounded_outcome(fn, A, m, c):
    try:
        return fn(A, m, c)
    except PrecisionError as e:
        return str(e)


def _bounded_case(rng, p, N, d, m, c, e):
    A = BoundedOp.of(p, N, [[(e > 0 and i == j) + p ** e * rng.randrange(p ** N)
                             for j in range(d)] for i in range(d)])
    return A, m, c


def _check_reads(A, m, c, got, read):
    """The valuations is_bounded read: none at c >= m; else 1 - A's, then
    the powers (1-A)^i for the multiples i of p^(c+1), in increasing i,
    each below the point where the answer is known.  The powers stop
    only there: at a False, at the refusal (v_p(i) - c > N), or where i v
    - floor(log_p i) >= -c makes every later power pass (v >= 1 the
    least valuation of 1 - A).  Returns whether that bound stopped them."""
    p, N = A.p, A.prec
    tested = [i for i in range(1, p ** m + 1) if vp(i, p) > c]
    if c >= m:
        assert not read
        return False
    one_minus = msub(mident(len(A.mat)), A.mat, p ** N)
    assert read[0] == one_minus
    powers, v = read[1:], entry_valuation(one_minus, p, N)

    def decided(i):
        return v >= 1 and i * v - (padic.ndigits(i, p) - 1) >= -c

    assert powers == [mpow(one_minus, i, p ** N) for i in tested[:len(powers)]]
    assert not any(decided(i) for i in tested[:len(powers)])
    if got is False or len(powers) == len(tested):
        return False
    nxt = tested[len(powers)]
    assert decided(nxt) or vp(nxt, p) - c > N
    return decided(nxt)


def test_is_bounded_matches_the_loop_over_every_power(monkeypatch):
    """Seeded differential run against the loop: the same answers and
    refusals, and the valuations read are 1 - A's and those of the
    powers up to where the answer is known (_check_reads).  The second
    run takes A = 1 mod p^e, e >= 1, and c < 0, down to c < -N, where
    every i is tested and the bound stops the powers early."""
    read = []
    monkeypatch.setattr(logtrunc, "entry_valuation",
                        lambda X, p, cap: read.append(X) or entry_valuation(X, p, cap))
    rng, seen = random.Random(39), set()
    cases = []
    for _ in range(1500):
        p, N, d = rng.choice([3, 5, 7]), rng.randint(1, 8), rng.randint(1, 3)
        m, c, e = rng.randint(0, 4 if p == 3 else 3), rng.randint(-2, 4), rng.choice([0, 1, 2])
        cases.append(_bounded_case(rng, p, N, d, m, c, e))
    for _ in range(1500):
        p, N, d = rng.choice([3, 5, 7]), rng.randint(1, 8), rng.randint(1, 3)
        m, c, e = rng.randint(0, 5 if p == 3 else 3), rng.randint(-N - 2, -1), rng.randint(1, 3)
        cases.append(_bounded_case(rng, p, N, d, m, c, e))
    early = set()
    for A, m, c in cases:
        read.clear()
        got = _bounded_outcome(is_bounded, A, m, c)
        assert got == _bounded_outcome(is_bounded_loop, A, m, c), (A, m, c)
        outcome = got if isinstance(got, bool) else "refused"
        if _check_reads(A, m, c, got, read):
            early.add((outcome, c < 0))
        seen.add((outcome, c < 0, c >= m))
    assert seen >= {(True, True, False), (False, True, False), ("refused", True, False),
                    (True, False, False), (False, False, False), ("refused", False, False),
                    (True, False, True)}
    assert early >= {(True, True), ("refused", True), (True, False), ("refused", False)}


def test_is_bounded_stops_its_powers_where_the_bound_decides(monkeypatch):
    """At p = 7, N = 9, d = 3, A = 1 + 7R and m = 5 the loop formed 16806
    powers at c = -1 and 2400 at c = 0.  The bound decides at the first
    tested i, so is_bounded forms none and answers True: no tested i
    reaches v_p(i) - c > N.  With 1 - A = 0 mod 7^5 and c = -5, i = 7^5
    does, and both refuse there, is_bounded with no power formed."""
    rng = random.Random(84)

    def unipotent(e):
        return BoundedOp.of(7, 9, [[int(i == j) + 7 ** e * rng.randrange(7 ** 9)
                                    for j in range(3)] for i in range(3)])

    A, A5 = unipotent(1), unipotent(5)
    refusal = "budget too small to decide boundedness"
    assert _bounded_outcome(is_bounded_loop, A5, 5, -5) == refusal
    with monkeypatch.context() as patch:
        patch.setattr(logtrunc, "mmul", None)
        patch.setattr(logtrunc, "mpow", None)
        assert is_bounded(A, 5, -1) is True and is_bounded(A, 5, 0) is True
        with pytest.raises(PrecisionError, match=f"^{refusal}$"):
            is_bounded(A5, 5, -5)


def test_is_bounded_forms_no_power_when_no_i_is_tested(monkeypatch):
    # p^(c+1) > p^m: the answer is True before 1 - A is raised to any power
    monkeypatch.setattr(logtrunc, "mpow", None)
    A = BoundedOp.of(3, 6, [[0]])
    assert is_bounded(A, 2, 2) and is_bounded(A, 2, 10 ** 18)


def classical_log(A):
    """The convergent log of A = id mod p as the term loop sum
    (-1)^(i+1) (A-1)^i / i up to padic's cutoff, each power divided on a
    lift with ndigits(cutoff) spare digits: the classical log that log_m
    is minus of."""
    p, N, d = A.p, A.prec, len(A.mat)
    t = msub(A.mat, mident(d), p ** N)
    if entry_valuation(t, p, N) < 1:
        raise ValueError("the log needs A = id mod p")
    cutoff = padic._series_cutoff_log(p, N, 1)
    mod = p ** (N + padic.ndigits(cutoff, p))
    acc = tuple(tuple(0 for _ in range(d)) for _ in range(d))
    power = mident(d)
    for i in range(1, cutoff + 1):
        power = mmul(power, t, mod)
        v = vp(i, p)
        coef = pow(i // p ** v, -1, mod)
        term = tuple(tuple(a // p ** v * coef % mod for a in row) for row in power)
        acc = madd(acc, term if i % 2 else mscale(term, -1, mod), mod)
    return ScaledMatrix(p, tuple(tuple(a % p ** N for a in r) for r in acc), 0, N)


@settings(max_examples=300)
@given(st.sampled_from([3, 5, 7]), st.integers(1, 3), st.integers(1, 5), st.data())
def test_logs_and_exp_claim_only_what_every_completion_shares(p, d, N, data):
    """Perturbation oracle for log_m and for the log_unit and exp_unit
    that share padic's coefficients with it: an input known mod p^N is
    completed to 3N digits, once by zero digits and once by random ones.
    Each result agrees with the completion's mod p^certified (log_m's,
    not p-integral in general, through congruent_mod; the scalars claim
    all N digits)."""
    def digits(step):
        return step * data.draw(st.integers(0, p ** N - 1))

    A = BoundedOp.of(p, N, [[digits(1) for _ in range(d)] for _ in range(d)])
    x, y = 1 + digits(p), digits(p)
    m = data.draw(st.integers(0, min(N, 3)))
    low = log_m(A, m), log_unit(PadicInt(p, N, x)), exp_unit(PadicInt(p, N, y))
    for tail in (lambda: 0, lambda: data.draw(st.integers(0, p ** (2 * N)))):
        high = (log_m(BoundedOp.of(p, 3 * N, [[a + p ** N * tail() for a in row]
                                              for row in A.mat]), m),
                log_unit(PadicInt(p, 3 * N, x + p ** N * tail())),
                exp_unit(PadicInt(p, 3 * N, y + p ** N * tail())))
        assert congruent_mod(low[0], high[0], low[0].certified)
        for lo, hi in zip(low[1:], high[1:]):
            assert (lo.prec, lo.residue) == (N, hi.residue % p ** N)


def test_log_of_powers():
    base = BoundedOp.of(3, 8, [[1 + 3, 3], [9, 1]])
    lb = classical_log(base)
    for k in range(1, 11):
        Ak = BoundedOp.of(3, 8, mpow(base.mat, k, 3 ** 8))
        assert congruent_mod(classical_log(Ak), lb.scale_int(k), 8)


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 2)])
def test_logm_multiplicative(p, m):
    rng = random.Random(39 + p + m)
    N = m + 6
    mod = p ** N
    for _ in range(40):
        d = rng.choice([1, 2, 3])
        base = rand_unipotent(rng, p, N, d)
        a = BoundedOp.of(p, N, mpow(base.mat, rng.randrange(1, 6), mod))
        b = BoundedOp.of(p, N, mpow(base.mat, rng.randrange(1, 6), mod))
        ab = BoundedOp.of(p, N, mmul(a.mat, b.mat, mod))
        assert is_bounded(a, m) and is_bounded(ab, m)
        assert congruent_mod(log_m(ab, m), log_m(a, m).add(log_m(b, m)), m - 1)


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 3)])
def test_logm_continuity(p, m):
    rng = random.Random(40 + p + m)
    N = m + 6
    mod = p ** N
    for _ in range(30):
        d = rng.choice([1, 2, 3])
        a = rand_unipotent(rng, p, N, d)
        pert = mscale(mpow(a.mat, rng.randrange(3), mod), p ** m * rng.randrange(p), mod)
        b = BoundedOp.of(p, N, madd(a.mat, pert, mod))
        assert congruent_mod(log_m(a, m), log_m(b, m), m - 1)


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2)])
def test_logm_powers(p, m):
    rng = random.Random(41 + p + m)
    N = m + 7
    mod = p ** N
    a = rand_unipotent(rng, p, N, 2)
    la = log_m(a, m)
    for n in list(range(p ** m + 1)) + [1 + p ** 2]:
        an = BoundedOp.of(p, N, mpow(a.mat, n, mod))
        assert congruent_mod(log_m(an, m), la.scale_int(n), m - 1)


def test_rdc():
    f = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    for i in range(1, 7):
        assert rdc_valuation_check(f, 3, 8, 1, i)
    assert rdc_valuation_check(mident(3), 3, 8, 1, 4)
    with pytest.raises(ValueError):
        rdc_valuation_check([[1]], 3, 8, 1, 1)  # d < p^(t-1)(p-1)
    with pytest.raises(ValueError):
        rdc_valuation_check([[2, 0, 0], [0, 2, 0], [0, 0, 2]], 3, 8, 1, 1)
    with pytest.raises(PrecisionError):
        rdc_valuation_check(f, 3, 3, 1, 40)


def exact_power(A, k):
    """A^k over Z, no reduction: the direct computation for rdc."""
    d = len(A)
    out = [[int(r == c) for c in range(d)] for r in range(d)]
    for _ in range(k):
        out = [[sum(out[r][m] * A[m][c] for m in range(d)) for c in range(d)]
               for r in range(d)]
    return out


def test_rdc_matches_the_exact_valuations():
    """rdc_valuation_check against (id - f^(p^t))^i over Z, on f = id +
    (strictly upper) + p R: each answer is the exact one, which the
    theorem makes True, i = 0 included (the identity), and d exactly
    p^(t-1)(p-1) is accepted while one less is refused."""
    rng = random.Random(36)
    decided = {"i=0": 0, "d=least": 0, "all": 0}
    for _ in range(600):
        p = rng.choice((3, 5))
        t = rng.randrange(3 if p == 3 else 2)
        least = p ** (t - 1) * (p - 1) if t else 1
        d = rng.choice([least - 1, least, least, least + 1][least == 1:])
        i, prec = rng.randrange(7), rng.randrange(4, 13)
        f = [[int(r == c) + (rng.randrange(p) if c > r else 0) + p * rng.randrange(-2, 3)
              for c in range(d)] for r in range(d)]
        if d < least:
            with pytest.raises(ValueError, match="need d >="):
                rdc_valuation_check(f, p, prec, t, i)
            continue
        bound = (p ** t * i + d - 1) // d - 1          # ceil(p^t i / d) - 1
        if bound >= prec:
            with pytest.raises(PrecisionError):
                rdc_valuation_check(f, p, prec, t, i)
            continue
        top = exact_power(f, p ** t)
        top = [[int(r == c) - top[r][c] for c in range(d)] for r in range(d)]
        want = all(a == 0 or vp(a, p) >= bound for row in exact_power(top, i) for a in row)
        assert rdc_valuation_check(f, p, prec, t, i) is want, (f, p, prec, t, i)
        decided["all"] += 1
        decided["i=0"] += i == 0
        decided["d=least"] += t >= 1 and d == least
    assert min(decided.values()) > 40, decided


def test_mpow_reduces_its_input():
    # at d = 1 the nilpotency test is mpow(f - id, 1, p): 4 - 1 = 3 is 0 mod 3
    assert mpow(((4, 9), (3, 1)), 1, 3) == ((1, 0), (0, 1))
    assert mpow(((4,),), 0, 3) == ((1,),)
    assert rdc_valuation_check([[4]], 3, 8, 0, 2)
