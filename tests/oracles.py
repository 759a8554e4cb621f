"""Independent brute-force oracles the tests freeze expected values against.

Nothing here imports from the package's computation paths under test:
binomials come from the Pascal recurrence on exact big integers, the
partition function from the pentagonal-number recurrence, and row
reduction over F_p is plain Python on lists, without numpy.
"""

from __future__ import annotations

import math

_triangle: list[list[int]] = [[1]]


def pascal_binom(a: int, b: int) -> int:
    """Exact C(a, b) from the Pascal triangle recurrence (big integers)."""
    if b < 0 or b > a:
        return 0
    while len(_triangle) <= a:
        last = _triangle[-1]
        n = len(_triangle)
        _triangle.append([1] + [last[k - 1] + last[k] for k in range(1, n)] + [1])
    value = _triangle[a][b]
    assert value == math.comb(a, b)
    return value


def int_val(x: int, p: int) -> int:
    """p-adic valuation of a positive integer."""
    assert x > 0
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def partition_counts(nmax: int) -> list[int]:
    """p(0..nmax) by the pentagonal-number recurrence."""
    counts = [1] + [0] * nmax
    for n in range(1, nmax + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * counts[n - g1]
            if g2 <= n:
                total += sign * counts[n - g2]
            k += 1
        counts[n] = total
    return counts


def james_index_by_divisibility(parts: tuple[int, ...], p: int) -> int:
    """Largest k with p**k dividing every C(part_r + j, j), j <= part_{r+1}."""
    vals = [
        int_val(pascal_binom(parts[r] + j, j), p)
        for r in range(len(parts) - 1)
        for j in range(1, parts[r + 1] + 1)
    ]
    return min(vals)


def rref_mod_p(rows, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p of integer rows: (rref rows, pivots).

    Rows are taken one at a time.  Each is reduced against the echelon
    rows kept so far (every one has a 1 on its pivot and 0 on the other
    pivots), normalised to lead with 1, and then cleared from the earlier
    rows, so the kept rows are always in reduced form.  The result is
    sorted by pivot column.
    """
    echelon: dict[int, list[int]] = {}
    for row in rows:
        vec = [x % p for x in row]
        for col, prow in echelon.items():
            f = vec[col]
            if f:
                vec = [(x - f * y) % p for x, y in zip(vec, prow)]
        lead = next((c for c, x in enumerate(vec) if x), None)
        if lead is None:
            continue
        inv = pow(vec[lead], p - 2, p)
        vec = [x * inv % p for x in vec]
        for col, prow in echelon.items():
            f = prow[lead]
            if f:
                echelon[col] = [(x - f * y) % p for x, y in zip(prow, vec)]
        echelon[lead] = vec
    pivots = sorted(echelon)
    return [echelon[c] for c in pivots], pivots


def nullspace_from_rref(
    rref: list[list[int]], pivots: list[int], ncols: int, p: int
) -> list[tuple[int, ...]]:
    """Nullspace basis read off an RREF: one vector per free column, ascending.

    The vector for free column f has 1 on f and -rref[k][f] on pivot k.
    """
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[free] = 1
        for row, col in zip(rref, pivots):
            vec[col] = -row[free] % p
        basis.append(tuple(vec))
    return basis
