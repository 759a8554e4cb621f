"""Seeded inputs for the three benchmark workloads.

Every generator takes the seed as an argument and returns plain tuples of
parts, so the same seed always yields the same inputs and the library under
test never takes part in choosing them.  The digit helpers below repeat the
two p-adic definitions the generators need instead of importing them from
``spechtex``.

``classify-deep`` and ``oracle-large`` have heavy-tailed costs: one input can
cost a hundred times another, and the cost is set by the lower rows.  So each
pass is a fixed list of templates (a shape family at one prime, lower rows
drawn once from a seed-independent stream), and the seed draws the top part
of every template that has one, keeping val_p(top + 1) and with it the
James/pointed/split kind of the head pair, then shuffles the order inside
each block.  Work per pass then moves little from seed to seed, and a run
that stops part way through a pass still sees every template about equally
often.
"""

from __future__ import annotations

import random

PRIMES = (2, 3, 5, 7)
FAMILIES = ("E", "T1", "T2", "T3a", "T3b", "C")

# sweep-acceptance: the README's acceptance range.
SWEEP_DEGREE = 14
SWEEP_PASSES = 64

# classify-deep: second row at most DEEP_LOW, rows below it at most
# DEEP_LOW // 4 (the witness check grows with b * c**2).
DEEP_LOW = 100
DEEP_BLOCKS = 13
DEEP_KINDS = ("james-2", "james-3", "james-4", "pointed-2", "pointed-3", "split")

# oracle-large: tall shapes (1^k, 2^a 1^b) and wide shapes with 3-4 rows.
LARGE_BLOCKS = 7
LARGE_KINDS = ("tall-1", "tall-2", "wide-3", "wide-4")
LARGE_MAX_CELLS = 6_000_000  # candidate rows x slots, about 48 MB of int64
# A seed-independent system larger than every drawn one, first in each pass:
# it sets the workload's peak memory, which would otherwise follow the kept
# rows of whichever wide system the seed's top parts make largest.
LARGE_ANCHOR = (5, (1,) * 16)

TOP = 10**6


def val(a: int, p: int) -> int:
    """Largest v with p**v dividing a >= 1."""
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def length(a: int, p: int) -> int:
    """Index of the top base-p digit of a >= 1."""
    l = 0
    while a >= p:
        a //= p
        l += 1
    return l


def two_part_kind(a: int, b: int, p: int) -> str:
    """james / pointed / split for a >= b >= 1, by the digit conditions."""
    pv = p ** val(a + 1, p)
    if b < pv:
        return "james"
    beta = length(b, p)
    if b - p**beta < pv < p**beta:
        return "pointed"
    return "split"


def candidate_rows(parts: tuple[int, ...]) -> dict[str, int]:
    """Relation rows per family before zero rows are dropped.

    Closed forms of the index ranges the oracle instantiates: (E) over
    ordered (i, j) with i + j <= b per row pair, the four triple families per
    row triple, and (C) over ordered pairs of disjoint row pairs.
    """
    n = len(parts)
    counts = dict.fromkeys(FAMILIES, 0)
    for r in range(n):
        for s in range(r + 1, n):
            b = parts[s]
            counts["E"] += b * (b - 1) // 2
    for r in range(n):
        for s in range(r + 1, n):
            for t in range(s + 1, n):
                b, c = parts[s], parts[t]
                counts["T1"] += b * c
                counts["T2"] += c * (c - 1) // 2
                counts["T3a"] += c * (c + 1) // 2
                counts["T3b"] += b * c
    pairs = [(r, s) for r in range(n) for s in range(r + 1, n)]
    for q, r in pairs:
        for s, t in pairs:
            if len({q, r, s, t}) == 4:
                counts["C"] += parts[t] * parts[r]
    return counts


def slot_count(parts: tuple[int, ...]) -> int:
    n = len(parts)
    return sum(parts[s] for r in range(n) for s in range(r + 1, n))


def all_partitions(d_max: int) -> list[tuple[int, ...]]:
    """Every partition of degree 0..d_max, as tuples of parts."""

    def gen(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return [lam for d in range(d_max + 1) for lam in gen(d, d)]


def sweep_orders(seed: int, count: int, passes: int = SWEEP_PASSES) -> list[list[int]]:
    """One seeded permutation of range(count) per pass.

    Index k stands for prime PRIMES[k // per_prime] and the (k % per_prime)-th
    partition the sweep enumerates, so primes interleave and a pass cut short
    is a fair sample of the whole range.
    """
    rng = random.Random(f"sweep-acceptance/{seed}")
    orders = []
    for _ in range(passes):
        order = list(range(count))
        rng.shuffle(order)
        orders.append(order)
    return orders


def _james_above(rng: random.Random, below: int, p: int, cap: int) -> int | None:
    """A row m * p**v - 1 <= cap with p**v > below, so (row, below) is James."""
    vs = [v for v in range(length(below, p) + 1, 64) if p**v - 1 <= cap]
    if not vs:
        return None
    pv = p ** rng.choice(vs)
    return rng.randint(1, (cap + 1) // pv) * pv - 1


def _draw_james(rng: random.Random, p: int, rows: int) -> tuple[int, ...]:
    """A James chain built bottom-up: each row is m * p**v - 1 above the next."""
    chain = [rng.randint(1, DEEP_LOW if rows == 2 else DEEP_LOW // 4)]
    while len(chain) < rows - 1:
        cap = DEEP_LOW if len(chain) == rows - 2 else DEEP_LOW // 4
        above = _james_above(rng, chain[-1], p, cap)
        if above is None:
            break
        chain.append(above)
    chain.append(_james_above(rng, chain[-1], p, TOP))
    return tuple(reversed(chain))


def _draw_pointed(rng: random.Random, p: int, rows: int, james_tail: bool) -> tuple[int, ...]:
    """A pointed head b = p**beta + b_hat with b_hat < p**v < p**beta."""
    while True:
        betas = [beta for beta in range(1, 64) if p**beta <= DEEP_LOW]
        beta = rng.choice(betas)
        v = rng.randint(0, beta - 1)
        pv, pb = p**v, p**beta
        b = pb + rng.randint(0, min(pv - 1, DEEP_LOW - pb))
        m = rng.randint(1, (TOP + 1) // pv)
        if m % p == 0:
            continue
        a = m * pv - 1
        if a < b:
            continue
        if rows == 2:
            return (a, b)
        tail_james = p ** val(b + 1, p)
        if james_tail:
            if tail_james < 2:
                continue
            return (a, b, rng.randint(1, min(b, tail_james - 1)))
        if tail_james > b:
            continue
        return (a, b, rng.randint(tail_james, b))


def _draw_split(rng: random.Random, p: int) -> tuple[int, ...]:
    while True:
        b = rng.randint(2, DEEP_LOW)
        a = rng.randint(b, TOP)
        if two_part_kind(a, b, p) != "split":
            continue
        if rng.random() < 0.5:
            return (a, b)
        return (a, b, rng.randint(1, b))


def _draw_deep(rng: random.Random, p: int, kind: str, block: int) -> tuple[int, ...]:
    if kind.startswith("james"):
        return _draw_james(rng, p, int(kind[-1]))
    if kind == "pointed-2":
        return _draw_pointed(rng, p, 2, james_tail=False)
    if kind == "pointed-3":
        # Alternate the tail: a James tail makes a pointed pair, a
        # non-James tail sends the three rows to the triple case table.
        return _draw_pointed(rng, p, 3, james_tail=block % 2 == 0)
    return _draw_split(rng, p)


def _draw_large(rng: random.Random, p: int, kind: str) -> tuple[int, ...]:
    while True:
        if kind == "tall-1":
            parts = (1,) * rng.randint(10, 13)
        elif kind == "tall-2":
            parts = (2,) * rng.randint(2, 5) + (1,) * rng.randint(4, 7)
        elif kind == "wide-3":
            b = rng.randint(40, 60)
            c = rng.randint(20, b)
            parts = (rng.randint(b, TOP), b, c)
        else:
            b = rng.randint(20, 35)
            c = rng.randint(10, b)
            d = rng.randint(5, c)
            parts = (rng.randint(b, TOP), b, c, d)
        if sum(candidate_rows(parts).values()) * slot_count(parts) <= LARGE_MAX_CELLS:
            return parts


def _seeded_top(rng: random.Random, parts: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Redraw a free top part below TOP with the same val_p(top + 1)."""
    if len(parts) < 2 or parts[0] == parts[1]:
        return parts
    pv = p ** val(parts[0] + 1, p)
    lo, hi = -(-(parts[1] + 1) // pv), (TOP + 1) // pv
    for _ in range(64):
        m = rng.randint(lo, hi)
        if m % p:
            return (m * pv - 1,) + parts[1:]
    return parts


def _blocks(workload: str, seed: int, blocks: int, kinds, template) -> list[tuple[int, tuple[int, ...]]]:
    rng = random.Random(f"{workload}/{seed}")
    items = []
    for block in range(blocks):
        chunk = []
        for p in PRIMES:
            for kind in kinds:
                ref = random.Random(f"{workload}/template/{block}/{p}/{kind}")
                chunk.append((p, _seeded_top(rng, template(ref, p, kind, block), p)))
        rng.shuffle(chunk)
        items.extend(chunk)
    return items


def classify_deep_inputs(seed: int) -> list[tuple[int, tuple[int, ...]]]:
    """(p, parts) pairs: half James chains, a third pointed heads, the rest split."""
    return _blocks("classify-deep", seed, DEEP_BLOCKS, DEEP_KINDS, _draw_deep)


def oracle_large_inputs(seed: int) -> list[tuple[int, tuple[int, ...]]]:
    """(p, parts) pairs whose relation systems are thousands of rows deep."""
    return [LARGE_ANCHOR] + _blocks(
        "oracle-large",
        seed,
        LARGE_BLOCKS,
        LARGE_KINDS,
        lambda rng, p, kind, block: _draw_large(rng, p, kind),
    )

