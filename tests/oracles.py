"""Independent brute-force oracles the tests freeze expected values against.

Nothing here imports from the package's computation paths under test:
binomials come from the Pascal recurrence on exact big integers, the
partition function from the pentagonal-number recurrence, the relation
rows from a literal transcription of the six families, and row
reduction over F_p is plain Python on lists, without numpy.
"""

from __future__ import annotations

import math

_triangle: list[list[int]] = [[1]]

#: Rows of Pascal's triangle below this are stored whole; deeper rows are
#: built one prefix at a time by ``pascal_row``.
TRIANGLE_ROWS = 1000

_deep_rows: dict[int, list[int]] = {}

#: The least width of a deep row built by ``pascal_row``.
DEEP_WIDTH = 64


def pascal_row(a: int, width: int) -> list[int]:
    """The first ``width`` entries C(a, 0), ..., C(a, width - 1), exact.

    Row a of Pascal's triangle is the coefficient list of (1 + X)**a.
    Going one row down (Pascal's rule) multiplies by 1 + X, and row 2m is
    row m times itself (Vandermonde's identity), so row a takes about
    log2(a) truncated squarings, with a of any size.
    """
    row = [1] + [0] * (width - 1)
    for bit in bin(a)[2:]:
        row = [sum(row[k] * row[n - k] for k in range(n + 1)) for n in range(width)]
        if bit == "1":
            row = [row[0]] + [row[n] + row[n - 1] for n in range(1, width)]
    return row


def pascal_binom(a: int, b: int) -> int:
    """Exact C(a, b) from the Pascal triangle recurrence (big integers).

    Rows up to ``TRIANGLE_ROWS`` come from the stored triangle.  A deeper
    row comes from the one above it by Pascal's rule when that is stored
    wide enough, else from ``pascal_row``, at least ``DEEP_WIDTH`` wide;
    so the rows a, a + 1, ... of a deep top part cost one ``pascal_row``.
    Either way the value is checked against ``math.comb``.
    """
    if b < 0 or b > a:
        return 0
    if a >= TRIANGLE_ROWS:
        row = _deep_rows.get(a, [])
        if len(row) <= b:
            above = _deep_rows.get(a - 1, [])
            if len(above) > b:
                row = [1] + [above[n] + above[n - 1] for n in range(1, len(above))]
            else:
                row = pascal_row(a, max(b + 1, 2 * len(row), DEEP_WIDTH))
            _deep_rows[a] = row
        value = row[b]
        assert value == math.comb(a, b)
        return value
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


def transcribed_slots(parts: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """Slots (r, s, i), 1 <= r < s <= n and 1 <= i <= part_s, in (r, s, i) order."""
    n = len(parts)
    return [
        (r, s, i)
        for r in range(1, n + 1)
        for s in range(r + 1, n + 1)
        for i in range(1, parts[s - 1] + 1)
    ]


def transcribed_relations(parts: tuple[int, ...]):
    """Every candidate relation row as (tag, {(r, s, i): exact coefficient}).

    A literal transcription of the six families over exact Pascal
    binomials, with the package's tags: (E) per pair, then (T1), (T2),
    (T3a), (T3b) per triple, then (C) per ordered pair of disjoint pairs.
    The package's stream lists its rows slot by slot instead, so the
    tests compare the two without their order.
    With rows r < s < t of lengths a, b, c, x = y(r,s), y = y(s,t) and
    z = y(r,t):

    * (E)   C(a+i+j, j) y(r,s)_i - C(i+j, i) y(r,s)_{i+j},  i + j <= b;
    * (T1)  C(a+i+k, k) x_i - C(a+i+k, i) z_k,  i <= b, k <= c;
    * (T2)  C(a+k, k) y_j - C(b+j, j) z_k,  j + k <= c;
    * (T3a) C(a+i, i) y_j - sum_{0 <= h < i} C(b+j-i, j-h) C(a+i, h) x_{i-h}
            - C(b+j-i, j-i) z_i,  i <= j <= c;
    * (T3b) C(a+i, i) y_j - sum_{0 <= h <= j} C(b+j-i, j-h) C(a+i, h) x_{i-h},
            j <= c, j < i <= b + j, where x_m = 0 unless 1 <= m <= b;
    * (C)   C(part_s + i, i) y(q,r)_j - C(part_q + j, j) y(s,t)_i for
            disjoint pairs (q, r), (s, t), i <= part_t, j <= part_r.
    """
    C = pascal_binom
    n = len(parts)
    part = (0,) + tuple(parts)
    pairs = [(r, s) for r in range(1, n + 1) for s in range(r + 1, n + 1)]
    triples = [(r, s, t) for r, s in pairs for t in range(s + 1, n + 1)]

    def row(*terms):
        coefs: dict[tuple[int, int, int], int] = {}
        for coef, slot in terms:
            coefs[slot] = coefs.get(slot, 0) + coef
        return coefs

    for r, s in pairs:
        a, b = part[r], part[s]
        for i in range(1, b + 1):
            for j in range(1, b - i + 1):
                yield ("E", r, s, i, j), row(
                    (C(a + i + j, j), (r, s, i)), (-C(i + j, i), (r, s, i + j))
                )
    for r, s, t in triples:
        a, b, c = part[r], part[s], part[t]
        for i in range(1, b + 1):
            for k in range(1, c + 1):
                yield ("T1", r, s, t, i, k), row(
                    (C(a + i + k, k), (r, s, i)), (-C(a + i + k, i), (r, t, k))
                )
        for j in range(1, c + 1):
            for k in range(1, c - j + 1):
                yield ("T2", r, s, t, j, k), row(
                    (C(a + k, k), (s, t, j)), (-C(b + j, j), (r, t, k))
                )
        for j in range(1, c + 1):
            for i in range(1, j + 1):
                terms = [(C(a + i, i), (s, t, j))]
                for h in range(i):
                    terms.append((-C(b + j - i, j - h) * C(a + i, h), (r, s, i - h)))
                terms.append((-C(b + j - i, j - i), (r, t, i)))
                yield ("T3a", r, s, t, i, j), row(*terms)
        for j in range(1, c + 1):
            for i in range(j + 1, b + j + 1):
                terms = [(C(a + i, i), (s, t, j))]
                for h in range(j + 1):
                    if 1 <= i - h <= b:
                        terms.append((-C(b + j - i, j - h) * C(a + i, h), (r, s, i - h)))
                yield ("T3b", r, s, t, j, i), row(*terms)
    for q, r in pairs:
        for s, t in pairs:
            if {q, r} & {s, t}:
                continue
            for i in range(1, part[t] + 1):
                for j in range(1, part[r] + 1):
                    yield ("C", q, r, s, t, i, j), row(
                        (C(part[s] + i, i), (q, r, j)), (-C(part[q] + j, j), (s, t, i))
                    )
