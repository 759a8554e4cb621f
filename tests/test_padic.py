import pytest

from oracles import int_val, pascal_binom
from spechtex.padic import (
    InvalidModulusError,
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
