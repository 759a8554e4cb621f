import math

import pytest

from oracles import int_val, pascal_binom
from spechtex.padic import (
    InvalidModulusError,
    _lucas_range,
    binom_mod_p,
    digit_p,
    len_p,
    val_p,
    validate_prime,
)

PRIMES = (2, 3, 5, 7)


def test_digit_accessor_beyond_length_is_zero():
    assert digit_p(8, 5, 3) == 0


def test_nonprime_modulus_rejected():
    for bad in (0, 1, 4, 6, 9, 15, 1 << 15):
        with pytest.raises(InvalidModulusError):
            validate_prime(bad)
        with pytest.raises(InvalidModulusError):
            binom_mod_p(5, 2, bad)


def test_len_p_examples():
    assert len_p(8, 3) == 1
    assert len_p(26, 3) == 2
    for p in PRIMES:
        assert len_p(1, p) == 0


def test_len_p_rejects_zero():
    with pytest.raises(ValueError):
        len_p(0, 3)


def test_val_p_examples():
    assert val_p(9, 3) == 2
    assert val_p(10, 3) == 0
    assert val_p(54, 3) == 3


def test_val_p_rejects_zero():
    with pytest.raises(ValueError):
        val_p(0, 5)


def test_binom_b_zero_is_one():
    for a in (0, 1, 7, 100):
        for p in PRIMES:
            assert binom_mod_p(a, 0, p) == 1


def test_binom_examples_against_exact():
    assert binom_mod_p(5, 2, 3) == pascal_binom(5, 2) % 3 == 1
    assert binom_mod_p(9, 1, 3) == pascal_binom(9, 1) % 3 == 0


def test_binom_matches_exact_exhaustively():
    for p in PRIMES:
        for a in range(61):
            for b in range(a + 1):
                assert binom_mod_p(a, b, p) == pascal_binom(a, b) % p


def test_binom_symmetry():
    for p in PRIMES:
        for a in range(61):
            for b in range(a + 1):
                assert binom_mod_p(a, b, p) == binom_mod_p(a, a - b, p)


def test_binom_diagonal_nonzero():
    for p in PRIMES:
        for a in (0, 1, 5, 26, 1000):
            assert binom_mod_p(a, a, p) == 1


def test_binom_rejects_negative():
    with pytest.raises(ValueError):
        binom_mod_p(-1, 0, 3)


def test_james_pair_valuation_identity_small():
    # For a James pair (a, b): val_p C(a+b, b) = val_p(a+1) - val_p(b).
    for p in (2, 3, 5):
        for a in range(1, 41):
            v = val_p(a + 1, p)
            for b in range(1, min(a, p**v - 1) + 1):
                expected = v - val_p(b, p)
                assert int_val(pascal_binom(a + b, b), p) == expected


def brute_lucas_range(n, lo, hi, p, carry_free):
    if carry_free:
        return [h for h in range(lo, hi + 1) if math.comb(n + h, h) % p]
    return [h for h in range(lo, hi + 1) if math.comb(n, h) % p]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 127, 32749])
def test_lucas_range_matches_brute_force(p):
    ns = {0, 1, p - 1, p, p * p - 1, p**3 + 1, 123_456, 10**6, 10**30 + 7, 10**30 + 7 + p**2}
    his = {0, 1, p - 2, p - 1, p, p + 1, 2 * p + 3, p * p - 1, p * p, 150}
    for n in sorted(ns):
        for carry_free in (False, True):
            for hi in sorted(h for h in his if 0 <= h <= 150):
                nonzero = brute_lucas_range(n, 0, hi, p, carry_free)
                for lo in sorted({0, 1, hi // 3, hi // 2, hi, hi + 1, hi + 5}):
                    got = _lucas_range(n, lo, hi, p, carry_free)
                    assert list(got) == [h for h in nonzero if h >= lo], (n, lo, hi, p, carry_free)
                    if hi < p:
                        assert isinstance(got, range)


def test_lucas_range_beyond_one_digit_at_the_largest_prime():
    # Windows across p and 2p, where h has a second digit.
    p = 32749
    for n in (5, p + 3):
        for lo, hi in ((0, 6), (p - 2, p + 1), (2 * p - 1, 2 * p), (p + 2, p + 1)):
            for carry_free in (False, True):
                assert list(_lucas_range(n, lo, hi, p, carry_free)) == brute_lucas_range(
                    n, lo, hi, p, carry_free
                ), (n, lo, hi, carry_free)


def test_lucas_range_examples():
    # 10 = 101_3: h digit-wise under it; 10 + h without a carry.
    assert list(_lucas_range(10, 0, 12, 3)) == [0, 1, 9, 10]
    assert list(_lucas_range(10, 0, 12, 3, carry_free=True)) == [0, 1, 3, 4, 6, 7, 9, 10, 12]
    assert list(_lucas_range(10, 2, 8, 3)) == []
    assert list(_lucas_range(10, 5, 4, 3)) == []
    assert _lucas_range(4, 0, 4, 5) == range(0, 5)
