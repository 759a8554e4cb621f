"""Base-p digit arithmetic and binomial coefficients modulo a prime.

Everything downstream (James predicates, segment combinatorics, the
relation-system coefficients) reduces to the functions in this module.
Field elements are represented canonically as ints in ``[0, p-1]`` and
all arithmetic reduces eagerly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from functools import lru_cache


class InvalidModulusError(ValueError):
    """The modulus is not a prime in the supported range."""


#: Primes up to this bound are accepted; larger moduli are rejected.
MAX_PRIME = 1 << 15


def validate_prime(p: int) -> int:
    """Return ``p`` unchanged if it is a prime in [2, 2**15), else raise."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise InvalidModulusError(f"modulus must be an int, got {p!r}")
    return _check_prime(p)


@lru_cache(maxsize=None)
def _check_prime(p: int) -> int:
    """``validate_prime`` after its type check, cached per int."""
    if p < 2 or p >= MAX_PRIME:
        raise InvalidModulusError(f"modulus must be a prime in [2, {MAX_PRIME}), got {p}")
    if p in (2, 3):
        return p
    if p % 2 == 0:
        raise InvalidModulusError(f"modulus {p} is not prime")
    d = 3
    while d * d <= p:
        if p % d == 0:
            raise InvalidModulusError(f"modulus {p} is not prime")
        d += 2
    return p


def digit_p(a: int, i: int, p: int) -> int:
    """The ``i``-th base-p digit of ``a >= 0``."""
    validate_prime(p)
    if a < 0 or i < 0:
        raise ValueError("digit_p requires a >= 0 and i >= 0")
    return (a // p**i) % p


def len_p(a: int, p: int) -> int:
    """Index of the top nonzero base-p digit of ``a >= 1``."""
    validate_prime(p)
    if a < 1:
        raise ValueError(f"len_p undefined for {a}; argument must be positive")
    l = 0
    while a >= p:
        a //= p
        l += 1
    return l


def val_p(a: int, p: int) -> int:
    """Largest v with ``p**v`` dividing ``a >= 1``."""
    validate_prime(p)
    if a < 1:
        raise ValueError(f"val_p undefined for {a}; argument must be positive")
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


@lru_cache(maxsize=None)
def _factorial_tables(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # fact[i] = i! mod p and invfact[i] = (i!)^{-1} mod p for 0 <= i < p
    fact = [1] * p
    for i in range(1, p):
        fact[i] = fact[i - 1] * i % p
    invfact = [1] * p
    invfact[p - 1] = pow(fact[p - 1], p - 2, p)
    for i in range(p - 1, 0, -1):
        invfact[i - 1] = invfact[i] * i % p
    return tuple(fact), tuple(invfact)


def binom_mod_p(a: int, b: int, p: int) -> int:
    """C(a, b) mod p by the digit-wise product of small binomials.

    Returns 0 as soon as some digit of ``b`` exceeds the matching digit
    of ``a`` (this covers b > a), and 1 for b = 0.
    """
    validate_prime(p)
    if a < 0 or b < 0:
        raise ValueError("binom_mod_p requires non-negative arguments")
    return _binom_mod_p(a, b, p)


def _binom_mod_p(a: int, b: int, p: int) -> int:
    """``binom_mod_p`` without argument checks: p prime, a and b non-negative.

    For hot loops whose caller has validated ``p`` once and whose
    arguments are non-negative by construction.
    """
    fact, invfact = _factorial_tables(p)
    result = 1
    while b:
        ad = a % p
        bd = b % p
        if bd > ad:
            return 0
        result = result * fact[ad] % p * invfact[bd] % p * invfact[ad - bd] % p
        a //= p
        b //= p
    return result


@lru_cache(maxsize=None)
def _digit_rows(p: int) -> tuple[int, list[tuple[int, ...]] | None]:
    """(size, rows), the digit table of ``_lucas_range`` for the prime p.

    ``rows[b]`` lists, ascending, the h < size whose base-p digits are each
    at most the matching digit of b, for every b < size.  ``size`` is the
    largest power of p up to 2**7, so the rows hold a few thousand entries
    in all.  For p > 2**7, ``size`` is p, ``rows[b]`` would be
    ``range(b + 1)``, and ``rows`` is None.
    """
    size = p
    while size * p <= 1 << 7:
        size *= p
    if p > 1 << 7:
        return size, None
    rows = [(0,)]
    scale = 1
    while scale < size:
        # The bound d * scale + b has the rows of b shifted by t * scale, t <= d.
        rows = [
            tuple(t * scale + h for t in range(d + 1) for h in row)
            for d in range(p)
            for row in rows
        ]
        scale *= p
    return size, rows


def _lucas_range(n: int, lo: int, hi: int, p: int, carry_free: bool = False) -> Sequence[int]:
    """The h in [lo, hi], ascending, with C(n, h) not divisible by p.

    By Lucas's theorem C(n, h) is nonzero mod p iff every base-p digit of
    h is at most the matching digit of n.  With ``carry_free`` the test is
    on C(n + h, h) instead, nonzero mod p iff h adds to n without a carry
    (Kummer), i.e. each digit of h is at most p - 1 minus that of n.
    Returns a ``range`` when hi < p, where h is a single digit, and a
    sequence otherwise.  Like ``_binom_mod_p`` it skips argument checks:
    p prime, n >= 0 and lo >= 0.
    """
    if hi < p:
        top = p - 1 - n % p if carry_free else n % p
        return range(lo, (hi if hi < top else top) + 1)
    size, rows = _digit_rows(p)
    if hi < size:
        row = rows[size - 1 - n % size if carry_free else n % size]
        return row[bisect_left(row, lo) : bisect_right(row, hi)]
    # The same over chunks of digits below ``size``, from the top: ``found``
    # stays ascending, and the prefixes that can still land in [lo, hi]
    # form one slice of it.
    scale = size
    while scale <= hi:
        scale *= size
    bound = scale - 1 - n % scale if carry_free else n % scale
    found = [0]
    while scale > 1:
        scale //= size
        chunk = bound // scale % size
        row = rows[chunk] if rows else range(chunk + 1)
        if chunk:
            found = [base + h * scale for base in found for h in row]
        # The lower chunks add at most bound % scale.
        found = found[bisect_left(found, lo - bound % scale) : bisect_right(found, hi)]
    return found
