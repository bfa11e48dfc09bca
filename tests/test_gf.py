import random

import numpy as np
import pytest

from padiclab import gf


def test_prime_field():
    F3 = gf.field(3)
    assert F3.order == 3
    assert list(F3.elements())[2] == F3.el(2)
    assert F3.el(2) * F3.el(2) == F3.one


def test_f9():
    F9 = gf.field(3, 2)
    assert len(list(F9.elements())) == 9
    a = F9.gen
    assert a ** 8 == F9.one
    for x in F9.elements():
        assert F9.frob_p(x) == x ** 3
        if x:
            assert x * x.inverse() == F9.one
        assert F9.pth_root(x) ** 3 == x


def test_field_axioms_random():
    rng = random.Random(10)
    for fld in (gf.field(3, 2), gf.field(5, 2), gf.field(3, 3)):
        for _ in range(100):
            a, b, c = (fld.random(rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)


def test_extension_and_embedding():
    rng = random.Random(11)
    F9 = gf.field(3, 2)
    big = gf.extension(F9, 4)
    assert big.order == 3 ** 8
    for _ in range(100):
        x, y = F9.random(rng), F9.random(rng)
        assert big.coerce(x * y) == big.coerce(x) * big.coerce(y)
        assert big.coerce(x + y) == big.coerce(x) + big.coerce(y)
    assert big.coerce(F9.gen) ** 8 == big.one


def test_codes_roundtrip():
    fld = gf.field(5, 2)
    for c in range(fld.order):
        assert fld.code(fld.from_code(c)) == c


def test_nth_root():
    F3 = gf.field(3)
    assert F3.nth_root(F3.el(2), 2) is None  # 2 is not a square mod 3
    F9 = gf.field(3, 2)
    r = F9.nth_root_or_raise(F9.el(2), 2)
    assert r * r == F9.el(2)
    from padiclab.errors import ExtensionTooSmall
    with pytest.raises(ExtensionTooSmall):
        F3.nth_root_or_raise(F3.el(2), 2)


def test_fp_linear_algebra():
    ker = gf.fp_kernel(np.array([[1, 2], [2, 1]]), 3)
    assert len(ker) == 1
    M = np.array([[1, 1], [0, 1]])
    x = gf.fp_solve(M, np.array([0, 2]), 3)
    assert x is not None and tuple((M @ x) % 3) == (0, 2)
    inv = gf.fp_inverse(M, 3)
    assert ((M @ inv) % 3 == np.eye(2, dtype=int)).all()
    with pytest.raises(ZeroDivisionError):
        gf.fp_inverse(np.array([[1, 1], [2, 2]]), 3)


def test_degree_of_prime_power():
    assert [gf.degree(q, 3) for q in (3, 9, 27)] == [1, 2, 3]
    for q, p in [(1, 3), (0, 3), (6, 3), (2, 3), (-3, 3), (4, 1)]:
        with pytest.raises(ValueError):
            gf.degree(q, p)
