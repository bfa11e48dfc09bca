import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclab import padic
from padiclab.errors import PrecisionError
from padiclab.padic import (INFINITY, PadicInt, PadicUnit, chi_tau, exp_unit,
                            log_unit, q_analogue, q_analogue_inverse, valuation)


def vp_q(a: Fraction, p: int):
    """The p-adic valuation of a rational, None at 0."""
    if a == 0:
        return None
    return padic.vp(a.numerator, p) - padic.vp(a.denominator, p)


def test_valuation_examples():
    assert valuation(PadicInt(3, 4, 9)) == 2
    assert valuation(PadicInt(3, 4, 0)) == INFINITY
    assert valuation(PadicInt(5, 3, 7)) == 0


def test_p_two_rejected():
    with pytest.raises(ValueError):
        PadicInt(2, 4, 1)


# --- the integer helpers against the loops they replaced ---

SETTINGS = settings(max_examples=300)
PRIMES = st.sampled_from([3, 5, 7, 31, 257])


def _qring_vp_loop(a, p):
    """The valuation of a rational by dividing out p: vp_q's reference."""
    if a == 0:
        return None
    v = 0
    num, den = a.numerator, a.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _digits_loop(k, p):
    """binom_power's count of base-p digits before padic.ndigits."""
    digits = 1
    while k >= p:
        k //= p
        digits += 1
    return digits


def _cutoff_loop(p, n, v):
    """padic._series_cutoff_log before it called ndigits, from i = 0 and
    with the valuation v: the reference."""
    i = 0
    while True:
        logp = 0
        k = i
        while k >= p:
            k //= p
            logp += 1
        if i * v - logp >= n:
            return i
        i += 1


@SETTINGS
@given(PRIMES, st.integers(0, 12), st.integers(-10 ** 6, 10 ** 6).filter(bool))
def test_vp_matches_the_rational_loop(p, e, k):
    a = Fraction(k * p ** e, p ** (abs(k) % 5) * (1 + abs(k) % 4 * p))
    assert vp_q(a, p) == _qring_vp_loop(a, p)
    assert padic.vp(k * p ** e, p) == _qring_vp_loop(Fraction(k * p ** e), p)
    assert vp_q(Fraction(0), p) is None


@SETTINGS
@given(PRIMES, st.integers(1, 10 ** 9), st.integers(1, 60), st.integers(1, 70))
def test_ndigits_matches_the_digit_loops(p, k, n, v):
    assert padic.ndigits(k, p) == _digits_loop(k, p)
    assert p ** (padic.ndigits(k, p) - 1) <= k < p ** padic.ndigits(k, p)
    assert padic._series_cutoff_log(p, n, 1) == _cutoff_loop(p, n, 1)
    assert padic._series_cutoff_log(p, n, v) == _cutoff_loop(p, n, v)


def _ceil_logp_bracketing(x, p):
    """ramif._ceil_logp before padic.ceil_logp: the reference."""
    k = 0
    while Fraction(p) ** k < x:
        k += 1
    while k > 0 and Fraction(p) ** (k - 1) >= x:
        k -= 1
    return k


def _lambda_factor_loop(e, p, M):
    """calculus.lambda_factor_count's loop: the least K with e p^K >= M."""
    K = 0
    while e * p ** K < M:
        K += 1
    return K


def _alpha_loop(r, p):
    """bound_semistable's loop: the least alpha with r/((p-1) p^alpha) <= 1."""
    alpha = 0
    while Fraction(r, (p - 1) * p ** alpha) > 1:
        alpha += 1
    return alpha


@SETTINGS
@given(PRIMES, st.integers(1, 10 ** 12), st.integers(1, 10 ** 6), st.integers(1, 9))
def test_ceil_logp_matches_the_loops(p, num, den, e):
    x = Fraction(num, den)
    assert padic.ceil_logp(x, p) == _ceil_logp_bracketing(x, p)
    assert padic.ceil_logp(num, p) == _ceil_logp_bracketing(num, p)
    assert padic.ceil_logp(p ** (num % 40), p) == num % 40
    assert padic.ceil_logp(Fraction(den, e), p) == _lambda_factor_loop(e, p, den)
    assert padic.ceil_logp(Fraction(num, p - 1), p) == _alpha_loop(num, p)


def _is_odd_prime_by_division(p):
    return p >= 3 and all(p % k for k in range(2, math.isqrt(p) + 1))


def _accepts(p):
    try:
        padic.check_odd_prime(p)
    except ValueError:
        return False
    return True


def test_odd_prime_check_agrees_with_trial_division():
    assert all(_accepts(p) == _is_odd_prime_by_division(p) for p in range(-3, 10 ** 5))


@pytest.mark.parametrize("n", [
    56052361,                   # 211 * 421 * 631, a Carmichael number prime to every base
    3215031751,                 # strong pseudoprime to the bases 2, 3, 5, 7
    3825123056546413051,        # ... to the primes up to 31
    318665857834031151167461,   # ... to the primes up to 37
])
def test_odd_prime_check_refuses_strong_pseudoprimes(n):
    with pytest.raises(ValueError, match=f"p must be an odd prime, got {n}$"):
        padic.check_odd_prime(n)


def test_odd_prime_check_refuses_at_the_proven_bound():
    # the bound is proven for the first 13 primes as bases, and no others
    assert padic.MR_BASES == (2, *filter(_is_odd_prime_by_division, range(42)))
    # psi_13 is a strong pseudoprime to all 13 bases: only the bound refuses it
    assert not any(padic._witness(a, padic.PSI_13) for a in padic.MR_BASES)
    with pytest.raises(ValueError, match=f"not below {padic.PSI_13}"):
        padic.check_odd_prime(padic.PSI_13)


def test_odd_prime_check_has_one_message():
    for p in (-3, 0, 1, 2, 4, 9, 15, 49):
        with pytest.raises(ValueError, match=f"p must be an odd prime, got {p}"):
            padic.check_odd_prime(p)
    for p in (3, 5, 7, 65521):
        padic.check_odd_prime(p)


def test_degree_of_prime_power():
    assert [padic.degree(q, 3) for q in (3, 9, 27)] == [1, 2, 3]
    for q, p in [(1, 3), (0, 3), (6, 3), (2, 3), (-3, 3), (4, 1)]:
        with pytest.raises(ValueError):
            padic.degree(q, p)


def _degree_loop(q, p):
    """The division loop degree ran before it called vp: the
    reference for it."""
    if p < 2 or q < p:
        raise ValueError("q must be a power of p")
    f = 0
    while q % p == 0:
        q //= p
        f += 1
    if q != 1:
        raise ValueError("q must be a power of p")
    return f


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300)
@given(st.integers(-5, 3 ** 12), st.sampled_from([1, 2, 3, 5, 7, 31]))
def test_degree_matches_the_division_loop(q, p):
    assert _outcome(padic.degree, q, p) == _outcome(_degree_loop, q, p)
    assert _outcome(padic.degree, p ** (q % 9), p) == _outcome(_degree_loop, p ** (q % 9), p)


def test_odd_prime_check_raises_on_every_call():
    # memoised per p; a raise is not cached
    for _ in range(3):
        with pytest.raises(ValueError, match="p must be an odd prime, got 9"):
            padic.check_odd_prime(9)
        with pytest.raises(ValueError, match="p must be an odd prime, got 9"):
            PadicInt(9, 2, 1)


def test_log_examples():
    assert log_unit(PadicInt(3, 5, 1)) == 0
    x = PadicInt(3, 3, 4)
    assert exp_unit(log_unit(x)) == x
    # homomorphism: log((1+3)^2) = 2 log(1+3) mod 3^4
    assert log_unit(PadicInt(3, 4, 16)) == 2 * log_unit(PadicInt(3, 4, 4))
    with pytest.raises(ValueError):
        log_unit(PadicInt(3, 4, 2))


def test_exp_examples():
    assert exp_unit(PadicInt(3, 4, 0)) == 1
    y = PadicInt(3, 3, 3)
    assert log_unit(exp_unit(y)) == y
    # direct series sum: 1 + 5 + 25/2 = 6 mod 25
    assert exp_unit(PadicInt(5, 2, 5)) == 6
    with pytest.raises(ValueError):
        exp_unit(PadicInt(3, 4, 1))


def test_log_result_valuation():
    rng = random.Random(0)
    for _ in range(200):
        p = rng.choice([3, 5, 7])
        w = rng.choice([1, 2, 3])
        x = PadicInt(p, 8, 1 + p ** w * (1 + p * rng.randrange(p ** 4)))
        assert valuation(log_unit(x)) == w


# --- log_unit, exp_unit and the coefficient loops as they summed before
# padic's coefficients and one Horner evaluation: the references


def _log_unit_loop(x):
    """log_unit as the term loop sum (-1)^(i+1) (x-1)^i / i up to the
    cutoff, each term divided on the exact power of the lift."""
    p, n = x.p, x.prec
    t = (x - 1).residue
    if t % p != 0:
        raise ValueError("log_unit needs x = 1 mod p")
    mod = p ** n
    acc, tpow = 0, 1
    for i in range(1, padic._series_cutoff_log(p, n, 1) + 1):
        tpow = tpow * t
        vi = padic.vp(i, p)
        term = (tpow // p ** vi) * pow(i // p ** vi, -1, mod)
        acc = (acc + (term if i % 2 else -term)) % mod
    return PadicInt(p, n, acc)


def _exp_unit_loop(y):
    """exp_unit as the term loop sum t^i / i! for i <= 2n + 4, each i!'s
    unit part inverted on its own."""
    p, n = y.p, y.prec
    t = y.residue
    if t % p != 0:
        raise ValueError("exp_unit needs v(y) >= 1")
    mod = p ** n
    acc, term_num, fact_v, fact_u = 1, 1, 0, 1
    big = p ** (2 * n + 4)
    for i in range(1, 2 * n + 5):
        term_num *= t
        iv = padic.vp(i, p)
        fact_v += iv
        fact_u = (fact_u * (i // p ** iv)) % big
        acc = (acc + (term_num // p ** fact_v) * pow(fact_u, -1, mod)) % mod
    return PadicInt(p, n, acc)


def _log_m_coeffs_loop(p, m, N):
    """logtrunc._log_coeffs(p, m, N) before it moved: p^m / i mod p^(N+m)
    for 0 < i < p^m, c_0 = 0."""
    mod = p ** (N + m)
    out = [0]
    for i in range(1, p ** m):
        v = padic.vp(i, p)
        out.append(p ** (m - v) * pow(i // p ** v, -1, mod) % mod)
    return tuple(out)


def _exp_coeffs_inverting_each(p, last, n):
    """(s, p^s / i! mod p^(n+s)) with each i!'s unit part inverted."""
    s = padic.vp(math.factorial(last), p)
    mod = p ** (n + s)
    out = []
    for i in range(last + 1):
        v = padic.vp(math.factorial(i), p)
        out.append(p ** (s - v) * pow(math.factorial(i) // p ** v, -1, mod) % mod)
    return s, tuple(out)


def _same(a, b):
    return (a.p, a.prec, a.residue) == (b.p, b.prec, b.residue)


def test_log_and_exp_match_the_term_loops():
    rng = random.Random(30)
    for _ in range(4000):
        p, n = rng.choice([3, 5, 7, 101]), rng.randrange(1, 30)
        t = p * rng.randrange(p ** (n - 1))
        assert _same(log_unit(PadicInt(p, n, 1 + t)), _log_unit_loop(PadicInt(p, n, 1 + t)))
        assert _same(exp_unit(PadicInt(p, n, t)), _exp_unit_loop(PadicInt(p, n, t)))
    for f, g, x in [(log_unit, _log_unit_loop, PadicInt(3, 4, 2)),
                    (exp_unit, _exp_unit_loop, PadicInt(3, 4, 1))]:
        for fn in (f, g):
            with pytest.raises(ValueError, match="needs"):
                fn(x)


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_coefficients_match_their_loops(p):
    for m in range(0, 4 if p < 101 else 2):
        for N in (1, 2, 8):
            assert padic._log_coeffs(p, p ** m - 1, m, N + m) == _log_m_coeffs_loop(p, m, N)
    for last in range(0, 40):
        for n in (1, 3, 30):
            assert padic._exp_coeffs(p, last, n) == _exp_coeffs_inverting_each(p, last, n)


def test_q_analogue_and_its_inverse_share_the_q_rules():
    # an int is lifted to q's precision; q = 1 + O(p^N) gives a itself at
    # the lesser precision; q != 1 mod p is refused
    q = PadicInt(3, 6, 4)
    for f in (q_analogue, q_analogue_inverse):
        assert _same(f(5, q), f(PadicInt(3, 6, 5), q))
        assert _same(f(PadicInt(3, 8, 7), PadicInt(3, 4, 1 + 3 ** 4)), PadicInt(3, 4, 7))
        assert _same(f(7, PadicInt(3, 4, 1)), PadicInt(3, 4, 7))
        with pytest.raises(ValueError, match="q must be 1 mod p"):
            f(PadicInt(3, 6, 5), PadicInt(3, 6, 2))


def test_q_analogue_values():
    q = PadicInt(3, 6, 4)
    assert q_analogue(PadicInt(3, 6, 2), q) == 5  # 1 + q
    assert q_analogue(PadicInt(3, 6, 7), PadicInt(3, 6, 1)) == 7  # q = 1 case
    # [-1]_4 = (4^-1 - 1)/3 carries precision 6 - 1 = 5
    m1 = q_analogue(PadicInt(3, 6, -1), q)
    assert m1.prec == 5
    inv4 = pow(4, -1, 3 ** 6)
    assert m1 == PadicInt(3, 5, (inv4 - 1) // 3)


def test_q_analogue_integer_crosscheck():
    # geometric sum oracle for integer exponents
    rng = random.Random(1)
    for _ in range(100):
        p = rng.choice([3, 5])
        q = PadicInt(p, 8, 1 + p * rng.randrange(1, p ** 6))
        a = rng.randrange(0, 40)
        geo = sum(pow(q.residue, i, p ** 8) for i in range(a))
        assert q_analogue(PadicInt(p, 8, a), q) == PadicInt(p, 8, geo).lower_precision(
            q_analogue(PadicInt(p, 8, a), q).prec)


def test_q_inverse_examples():
    q = PadicInt(3, 6, 4)
    assert q_analogue_inverse(PadicInt(3, 6, 0), q) == 0
    assert q_analogue_inverse(PadicInt(3, 6, 5), q) == 2


def test_round_trip_sweep():
    rng = random.Random(2)
    for _ in range(500):
        p = rng.choice([3, 5, 7])
        n = 8
        w = rng.choice([1, 1, 2])
        unit = rng.randrange(1, p ** (n - w))
        if unit % p == 0:
            unit += 1
        q = PadicInt(p, n, 1 + p ** w * unit)
        a = PadicInt(p, n, rng.randrange(p ** n))
        qa = q_analogue(a, q)
        back = q_analogue_inverse(qa, q)
        assert back == a.lower_precision(back.prec)


def test_cocycle_identity():
    rng = random.Random(3)
    for _ in range(300):
        p = rng.choice([3, 5, 7])
        q = PadicInt(p, 8, 1 + p * (1 + p * rng.randrange(p ** 5)))
        a = PadicInt(p, 8, rng.randrange(p ** 8))
        b = PadicInt(p, 8, rng.randrange(p ** 8))
        lhs = q_analogue(a + b, q)
        rhs = q_analogue(a, q) + padic.pow_unit(q, a) * q_analogue(b, q)
        assert lhs == rhs


def test_congruence_and_valuation_match():
    rng = random.Random(4)
    for _ in range(300):
        p = rng.choice([3, 5, 7])
        q = PadicInt(p, 8, 1 + p * (1 + p * rng.randrange(p ** 5)))
        a = PadicInt(p, 8, rng.randrange(p ** 8))
        qa = q_analogue(a, q)
        assert (qa - a).residue % p == 0
        assert (a - 1).lower_precision(qa.prec).valuation() == (qa - 1).valuation()


def test_chi_tau():
    base = PadicInt(3, 6, 4)
    assert chi_tau(PadicInt(3, 6, 5), base) == 2
    assert chi_tau(PadicInt(3, 6, 1), base) == 1
    # chi(tau) = 1: identity analogue
    assert chi_tau(PadicInt(3, 6, 7), PadicInt(3, 6, 1)) == 7
    with pytest.raises(ValueError):
        chi_tau(PadicInt(3, 6, 3), base)


def test_precision_model():
    a = PadicInt(3, 6, 10)
    b = PadicInt(3, 4, 1)
    assert (a + b).prec == 4
    assert (a * b).prec == 4
    # deep ramification exhausts the inverse bijection's precision
    q = PadicInt(3, 8, 1 + 3 ** 5)
    qa = q_analogue(PadicInt(3, 8, 2), q)
    with pytest.raises(PrecisionError):
        q_analogue_inverse(qa, q)
    with pytest.raises(ValueError):
        PadicUnit(3, 4, 6)


# --- padic.power, the one square-and-multiply, against repeated products ---

def _repeated(x, k, mul, one):
    acc = one
    for _ in range(k):
        acc = mul(acc, x)
    return acc


def _power_cases():
    from padiclab import gf, witt
    F9 = gf.field(3, 2)
    poly = {(1, 0): 1, (0, 1): 2, (0, 0): -1}             # x + 2y - 1 over Z
    return [
        (lambda a, b: a * b % 35, 3, 1),
        (lambda a, b: a * b % 81, 5, 1),
        (lambda a, b: a * b, F9.from_code(7), F9.one),
        (lambda a, b: a * b, F9.from_code(3), F9.one),
        (witt._p_mul, poly, {(0, 0): 1}),
    ]


@pytest.mark.parametrize("case", range(5))
def test_power_matches_repeated_products(case):
    mul, x, one = _power_cases()[case]
    for k in range(41):
        assert padic.power(x, k, mul, one) == _repeated(x, k, mul, one)


def test_power_never_multiplies_by_one():
    one = object()

    def mul(a, b):
        assert a is not one and b is not one
        calls.append(1)
        return a + b

    for k in range(1, 41):
        calls = []
        assert padic.power(1, k, mul, one) == k
        assert len(calls) <= 2 * k.bit_length() - 2
    assert padic.power(1, 0, mul, one) is one


# --- perturbation oracle: a division claims only digits every completion shares


def _decision(thunk):
    """The result, ValueError (the class) for a decided refusal, or None
    when the precision cannot decide."""
    try:
        return thunk()
    except ValueError:
        return ValueError
    except (PrecisionError, ZeroDivisionError):
        return None


@settings(max_examples=400)
@given(st.sampled_from([3, 5, 7]), st.integers(1, 6), st.data())
def test_divisions_claim_only_what_every_completion_shares(p, N, data):
    """Perturbation oracle for PadicInt.divide, q_analogue and
    q_analogue_inverse: operands each known to its own precision in
    [1, N], with a drawn valuation (at the precision: zero there), are
    completed to 3N, once by zero digits and once by random ones.  A
    result at the low precision agrees with each completion's result to
    the lesser precision, and a refusal (ValueError) is refused again."""
    def operand(least_v):
        prec = data.draw(st.integers(1, N))
        v = data.draw(st.integers(min(least_v, prec), prec))
        return PadicInt(p, prec, p ** v * data.draw(st.integers(1, p ** N)))

    def complete(x, tail):
        return PadicInt(p, 3 * N, x.residue + p ** x.prec * tail)

    x, y, b = operand(0), operand(0), operand(0)
    q = operand(1) + 1

    def answers(x, y, b, q):
        return [_decision(lambda: x.divide(y)), _decision(lambda: q_analogue(x, q)),
                _decision(lambda: q_analogue_inverse(b, q))]

    low = answers(x, y, b, q)
    ops = (x, y, b, q)
    for tails in ([0] * 4, [data.draw(st.integers(0, p ** (2 * N))) for _ in ops]):
        high = answers(*(complete(z, t) for z, t in zip(ops, tails)))
        for a, h in zip(low, high):
            if isinstance(a, PadicInt):
                assert isinstance(h, PadicInt) and a == h
            elif a is ValueError:
                assert h is ValueError
