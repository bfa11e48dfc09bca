import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclab import padic
from padiclab.errors import PrecisionError
from padiclab.padic import (INFINITY, PadicInt, PadicUnit, chi_tau, exp_unit,
                            log_unit, q_analogue, q_analogue_inverse, valuation)
from padiclab.rings import QRing


def test_valuation_examples():
    assert valuation(PadicInt(3, 4, 9)) == 2
    assert valuation(PadicInt(3, 4, 0)) == INFINITY
    assert valuation(PadicInt(5, 3, 7)) == 0


def test_p_two_rejected():
    with pytest.raises(ValueError):
        PadicInt(2, 4, 1)


# --- the integer helpers against the loops they replaced ---

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
PRIMES = st.sampled_from([3, 5, 7, 31, 257])


def _qring_vp_loop(a, p):
    """QRing.vp's own loops before padic.vp: the reference."""
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


def _cutoff_loop(p, n):
    """padic._series_cutoff_log before it called ndigits: the reference."""
    i = n
    while True:
        logp = 0
        k = i
        while k >= p:
            k //= p
            logp += 1
        if i - logp >= n:
            return i
        i += 1


@SETTINGS
@given(PRIMES, st.integers(0, 12), st.integers(-10 ** 6, 10 ** 6).filter(bool))
def test_vp_matches_the_rational_loop(p, e, k):
    a = Fraction(k * p ** e, p ** (abs(k) % 5) * (1 + abs(k) % 4 * p))
    assert QRing(p).vp(a) == _qring_vp_loop(a, p)
    assert padic.vp(k * p ** e, p) == _qring_vp_loop(Fraction(k * p ** e), p)
    assert QRing(p).vp(Fraction(0)) is None


@SETTINGS
@given(PRIMES, st.integers(1, 10 ** 9), st.integers(1, 60))
def test_ndigits_matches_the_digit_loops(p, k, n):
    assert padic.ndigits(k, p) == _digits_loop(k, p)
    assert p ** (padic.ndigits(k, p) - 1) <= k < p ** padic.ndigits(k, p)
    assert padic._series_cutoff_log(p, n) == _cutoff_loop(p, n)


def test_odd_prime_check_has_one_message():
    for p in (-3, 0, 1, 2, 4, 9, 15, 49):
        with pytest.raises(ValueError, match=f"p must be an odd prime, got {p}"):
            padic.check_odd_prime(p)
    for p in (3, 5, 7, 65521):
        padic.check_odd_prime(p)


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
