"""Brute-force oracle: the coherence relations as a linear system over F_p.

A candidate extension multi-sequence for a partition with rows
``part_1 >= ... >= part_n`` assigns a value y(r,s)_i in F_p to every slot
(r, s, i) with 1 <= r < s <= n and 1 <= i <= part_s.  The space of
coherent multi-sequences is exactly the nullspace of the system built
here, whose row families are:

* (E)    pair relations within one slot row-pair,
* (T1), (T2), (T3a), (T3b)   triple relations tying y(r,s), y(s,t), y(r,t),
* (C)    commuting relations between disjoint row-pairs.

The standard multi-sequence y(r,s)_i = C(part_r + i, i) always lies in
the nullspace; it is zero exactly for James partitions.  The dimension
of the first extension group is the nullspace dimension, minus one when
the standard multi-sequence is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple

from .padic import _binom_mod_p, _lucas_range, digit_p, validate_prime
from .partitions import Partition, is_james_partition, james_index, row_len, row_val


class SlotIndex(NamedTuple):
    """One slot y(r,s)_i of a multi-sequence: rows r < s, 1 <= i <= part_s."""

    r: int
    s: int
    i: int


def canonical_slot_order(lam: Partition) -> list[SlotIndex]:
    """Slots in ascending (r, s) lexicographic order, then ascending i."""
    return [
        SlotIndex(r, s, i)
        for r in range(1, lam.n + 1)
        for s in range(r + 1, lam.n + 1)
        for i in range(1, lam.part(s) + 1)
    ]


def slot_count(lam: Partition) -> int:
    """Total number of slots V = sum over pairs r < s of part_s."""
    return sum(
        lam.part(s) for r in range(1, lam.n + 1) for s in range(r + 1, lam.n + 1)
    )


def _pair_offsets(lam: Partition) -> list[list[int]]:
    """``offsets[r][s]``: canonical position of slot (r, s, 1), for r < s.

    Slot (r, s, i) then sits at ``offsets[r][s] + i - 1``.
    """
    n = lam.n
    offsets = [[0] * (n + 1) for _ in range(n + 1)]
    pos = 0
    for r in range(1, n + 1):
        for s in range(r + 1, n + 1):
            offsets[r][s] = pos
            pos += lam.parts[s - 1]
    return offsets


@dataclass(frozen=True)
class MultiSequence:
    """The nonzero slot values of a multi-sequence; every other slot is 0.

    ``entries`` holds one (SlotIndex, value) pair per nonzero slot, in
    canonical slot order, with values in [1, p).  The constructor rejects
    a slot that ``lam`` does not have, a value outside [1, p), and slots
    that repeat or are out of order, so equal vectors compare equal.
    """

    lam: Partition
    p: int
    entries: tuple[tuple[SlotIndex, int], ...]

    def __post_init__(self) -> None:
        validate_prime(self.p)
        parts = self.lam.parts
        previous = (0, 0, 0)
        for slot, value in self.entries:
            r, s, i = slot
            if not (1 <= r < s <= len(parts) and 1 <= i <= parts[s - 1]):
                raise ValueError(f"slot {tuple(slot)} does not exist for {self.lam}")
            if not 1 <= value < self.p:
                raise ValueError(f"slot value {value} at {tuple(slot)} is not in [1, {self.p})")
            if (r, s, i) <= previous:
                raise ValueError(f"slot {tuple(slot)} repeats or is out of canonical order")
            previous = (r, s, i)

    def is_zero(self) -> bool:
        return not self.entries

    def nonzero_slots(self) -> list[tuple[SlotIndex, int]]:
        return list(self.entries)


def multisequence_from_slots(
    lam: Partition, p: int, entries: Mapping[SlotIndex | tuple[int, int, int], int]
) -> MultiSequence:
    """Build a MultiSequence from a sparse {(r, s, i): value} mapping."""
    validate_prime(p)
    nonzero = sorted(
        (SlotIndex(*slot), value % p) for slot, value in entries.items() if value % p
    )
    return MultiSequence(lam, p, tuple(nonzero))


def standard_multisequence(lam: Partition, p: int) -> MultiSequence:
    """Slot (r, s, i) holds C(part_r + i, i) mod p; zero iff lam is James."""
    validate_prime(p)
    entries = []
    for slot in canonical_slot_order(lam):
        value = _binom_mod_p(lam.part(slot.r) + slot.i, slot.i, p)
        if value:
            entries.append((slot, value))
    return MultiSequence(lam, p, tuple(entries))


def canonical_multisequence(lam: Partition, p: int) -> MultiSequence:
    """The nonzero coherent multi-sequence carried by every James partition.

    Obtained from the integer standard multi-sequence by dividing out the
    James index power p**JI before reducing mod p.  In closed form the
    slot (r, s, i) is ((part_r)_{v_r} + 1) / t when v_r - l_s equals the
    James index and i = t * p**l_s, and 0 otherwise; t <= part_s // p**l_s
    < p, so every such slot is nonzero.
    """
    validate_prime(p)
    if lam.n < 2:
        raise ValueError("canonical_multisequence requires at least two rows")
    ji = james_index(lam, p)  # also rejects non-James input
    entries = []
    for r in range(1, lam.n):
        vr = row_val(lam, r, p)
        num = digit_p(lam.part(r), vr, p) + 1
        for s in range(r + 1, lam.n + 1):
            ls = row_len(lam, s, p)
            if vr - ls != ji:
                continue
            step = p**ls
            for t in range(1, lam.part(s) // step + 1):
                entries.append((SlotIndex(r, s, t * step), num * pow(t, p - 2, p) % p))
    return MultiSequence(lam, p, tuple(entries))


RowTag = tuple


#: Largest system ``build_relation_system`` accepts, in candidate rows x slots.
MAX_CELLS = 2**25


class SystemTooLargeError(ValueError):
    """The relation system would exceed ``MAX_CELLS`` candidate rows x slots."""


@dataclass(frozen=True, eq=False)
class RelationSystem:
    """F_p matrix whose nullspace is the coherent multi-sequence space.

    The rows span the same space as the paper's relations but are not all
    of them.  The (C) rows come first and are the spanning set of
    ``_commuting_rows``, at most one row per slot; their tags have
    ``tag[0] == "C"`` and name a zero, ratio or link row.  ``is_coherent``
    checks (C) against the same rows.  The (E), (T1), (T2), (T3a) and
    (T3b) rows follow: the paper's relations, with the zero rows
    (relations that instantiate to 0 = 0) dropped and tags (family,
    indices) as in ``_relation_tags``.  ``sparse_rows`` holds each row as
    {slot position: coefficient}, coefficients in [1, p); ``rows``
    expands them on demand.
    """

    lam: Partition
    p: int
    num_slots: int
    sparse_rows: tuple[dict[int, int], ...]
    row_tags: tuple[RowTag, ...]

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The kept rows as dense tuples of ints, in ``row_tags`` order."""
        zero = [0] * self.num_slots
        dense = []
        for sparse in self.sparse_rows:
            row = zero.copy()
            for col, coef in sparse.items():
                row[col] = coef
            dense.append(tuple(row))
        return tuple(dense)


def _relation_tags(lam: Partition) -> Iterator[RowTag]:
    """Tags (family, indices) of every candidate (E), (T1), (T2), (T3a) and (T3b) row.

    (E) for every pair, then (T1), (T2), (T3a), (T3b) for every triple,
    with pairs, triples and row indices in ascending lexicographic order,
    so the row order is deterministic.  The library reads the (C) rows
    from ``_commuting_rows``; ``_iter_relation_rows`` lists both orders.
    """
    n = lam.n
    part = (0,) + lam.parts  # part[r] = part_r
    pairs = [(r, s) for r in range(1, n + 1) for s in range(r + 1, n + 1)]

    for r, s in pairs:
        b = part[s]
        for i in range(1, b):
            for j in range(1, b - i + 1):
                yield ("E", r, s, i, j)

    for r, s in pairs:
        for t in range(s + 1, n + 1):
            b, c = part[s], part[t]
            for i in range(1, b + 1):
                for k in range(1, c + 1):
                    yield ("T1", r, s, t, i, k)
            for j in range(1, c + 1):
                for k in range(1, c - j + 1):
                    yield ("T2", r, s, t, j, k)
            for j in range(1, c + 1):
                for i in range(1, j + 1):
                    yield ("T3a", r, s, t, i, j)
            for j in range(1, c + 1):
                for i in range(j + 1, b + j + 1):
                    yield ("T3b", r, s, t, j, i)


def _row_terms(lam: Partition, tag: RowTag, p: int) -> Iterator[tuple[int, ...]]:
    """The terms of one row of ``_relation_tags`` as (r, s, i, sign, a1, b1, a2, b2).

    The term's coefficient on slot (r, s, i) is sign * C(a1, b1) * C(a2, b2)
    mod p; ``_coefficient`` evaluates it, so a caller pays for binomials
    only on the terms it needs.  Single-binomial terms carry b2 = 0, as
    C(a2, 0) = 1.  No row has two terms on the same slot.  The sums of
    (T3a) and (T3b) run only over the h with C(a+i, h) nonzero mod p,
    which by Lucas's theorem are the h whose base-p digits are at most
    those of a+i; the terms left out have coefficient 0.
    """
    family = tag[0]
    parts = lam.parts
    if family == "E":
        # C(a+i+j, j) y(r,s)_i - C(i+j, i) y(r,s)_{i+j} = 0 over ordered (i, j).
        _, r, s, i, j = tag
        yield r, s, i, 1, parts[r - 1] + i + j, j, 0, 0
        yield r, s, i + j, -1, i + j, i, 0, 0
        return
    # Triple relations tie x = y(r,s), y = y(s,t) and z = y(r,t), with
    # a = part_r and b = part_s.
    if family == "T1":
        # C(a+i+k, k) x_i - C(a+i+k, i) z_k = 0.
        _, r, s, t, i, k = tag
        top = parts[r - 1] + i + k
        yield r, s, i, 1, top, k, 0, 0
        yield r, t, k, -1, top, i, 0, 0
    elif family == "T2":
        # C(a+k, k) y_j - C(b+j, j) z_k = 0 for j + k <= c.
        _, r, s, t, j, k = tag
        yield s, t, j, 1, parts[r - 1] + k, k, 0, 0
        yield r, t, k, -1, parts[s - 1] + j, j, 0, 0
    elif family == "T3a":
        # C(a+i, i) y_j = sum_{h<i} C(b+j-i, j-h) C(a+i, h) x_{i-h}
        #                 + C(b+j-i, j-i) z_i, for 1 <= i <= j <= c.
        _, r, s, t, i, j = tag
        ai, bji = parts[r - 1] + i, parts[s - 1] + j - i
        yield s, t, j, 1, ai, i, 0, 0
        for h in _lucas_range(ai, 0, i - 1, p):
            yield r, s, i - h, -1, bji, j - h, ai, h
        yield r, t, i, -1, bji, j - i, 0, 0
    else:
        # (T3b): C(a+i, i) y_j = sum_{h<=j} C(b+j-i, j-h) C(a+i, h) x_{i-h},
        # for 1 <= j <= c, j < i <= b + j; x_m vanishes outside [1, b].
        _, r, s, t, j, i = tag
        b = parts[s - 1]
        ai, bji = parts[r - 1] + i, b + j - i
        yield s, t, j, 1, ai, i, 0, 0
        for h in _lucas_range(ai, i - b if i > b else 0, j, p):
            yield r, s, i - h, -1, bji, j - h, ai, h


def _coefficient(p: int, sign: int, a1: int, b1: int, a2: int, b2: int) -> int:
    """sign * C(a1, b1) * C(a2, b2) mod p, for a term of ``_row_terms``."""
    coef = _binom_mod_p(a1, b1, p)
    if coef and b2:
        coef *= _binom_mod_p(a2, b2, p)
    return sign * coef % p


def _tags_touching(lam: Partition, slot: tuple[int, int, int], p: int) -> Iterator[RowTag]:
    """Tags of the rows of ``_relation_tags`` with a term on ``slot`` = (x, y, m).

    Each family's index ranges in ``_relation_tags``, solved for the
    indices that put (x, y, m) into one term position of ``_row_terms``.
    As x_m = x_{i-h} in the sums of (T3a) and (T3b), with coefficient
    C(b+j-i, j-h) C(a+m+h, h), only the rows whose h adds to a+m without
    a base-p carry are yielded: by Lucas's theorem the others have no term
    on the slot in ``_row_terms``.  Every row whose ``_row_terms`` hold the
    slot is yielded once; the order is unspecified.
    """
    x, y, m = slot
    n = lam.n
    part = lam.part
    width = part(y)  # slots on pair (x, y)

    # (E) on pair (x, y): the slot is y_i with i = m, or y_{i+j} with i + j = m.
    for j in range(1, width - m + 1):
        yield ("E", x, y, m, j)
    for i in range(1, m):
        yield ("E", x, y, i, m - i)

    # Triples (x, y, t): the slot is x_i = y(r,s)_i in (T1), x_{i-h} with
    # i = m + h in (T3a) (i <= j <= c) and in (T3b) (h <= j < i).
    for t in range(y + 1, n + 1):
        c = part(t)
        for k in range(1, c + 1):
            yield ("T1", x, y, t, m, k)
        shifts = _lucas_range(part(x) + m, 0, c, p, carry_free=True)
        for h in shifts:
            for j in range(m + h, c + 1):
                yield ("T3a", x, y, t, m + h, j)
        for h in shifts:
            for j in range(max(1, h), min(c, m + h - 1) + 1):
                yield ("T3b", x, y, t, j, m + h)

    # Triples (x, s, y): the slot is z_k = y(r,t)_k.
    for s in range(x + 1, y):
        for i in range(1, part(s) + 1):
            yield ("T1", x, s, y, i, m)
        for j in range(1, width - m + 1):
            yield ("T2", x, s, y, j, m)
        for j in range(m, width + 1):
            yield ("T3a", x, s, y, m, j)

    # Triples (r, x, y): the slot is y_j = y(s,t)_j.
    for r in range(1, x):
        for k in range(1, width - m + 1):
            yield ("T2", r, x, y, m, k)
        for i in range(1, m + 1):
            yield ("T3a", r, x, y, i, m)
        for i in range(m + 1, part(x) + m + 1):
            yield ("T3b", r, x, y, m, i)


def _tagged_rows(lam: Partition, p: int) -> Iterator[tuple[RowTag, dict[int, int]]]:
    """Rows of ``_relation_tags`` as (tag, {slot position: coefficient}), zeros omitted."""
    offsets = _pair_offsets(lam)
    binom: dict[tuple[int, int], int] = {}  # (a, b) -> C(a, b) mod p
    cached = binom.get
    for tag in _relation_tags(lam):
        row = {}
        for r, s, i, sign, a1, b1, a2, b2 in _row_terms(lam, tag, p):
            coef = cached((a1, b1))
            if coef is None:
                coef = binom[a1, b1] = _binom_mod_p(a1, b1, p)
            if not coef:
                continue
            if b2:
                coef2 = cached((a2, b2))
                if coef2 is None:
                    coef2 = binom[a2, b2] = _binom_mod_p(a2, b2, p)
                if not coef2:
                    continue
                coef *= coef2
            row[offsets[r][s] + i - 1] = sign * coef % p
        yield tag, row


def _iter_relation_rows(lam: Partition, p: int) -> Iterator[tuple[RowTag, dict[int, int]]]:
    """Every candidate row of the paper: the rows ``_candidate_row_count`` counts.

    ``_tagged_rows``, then both orders ("C", q, r, s, t, i, j) of every (C)
    row std_Q(i) y(P)_j - std_P(j) y(Q)_i, P = (q, r) and Q = (s, t)
    disjoint.  The library reads (C) from ``_commuting_rows``, which spans
    these; the stream is for callers that count rows per family.
    """
    yield from _tagged_rows(lam, p)
    offsets, std, n = _pair_offsets(lam), _commuting_std(lam, p), lam.n
    pairs = [(q, r) for q in range(1, n + 1) for r in range(q + 1, n + 1)]
    for q, r in pairs:
        for s, t in pairs:
            if s in (q, r) or t in (q, r):
                continue
            for i in range(1, lam.parts[t - 1] + 1):
                for j in range(1, lam.parts[r - 1] + 1):
                    row = {offsets[q][r] + j - 1: std[s - 1][i - 1]}
                    row[offsets[s][t] + i - 1] = -std[q - 1][j - 1] % p
                    yield ("C", q, r, s, t, i, j), {pos: c for pos, c in row.items() if c}


def _candidate_row_count(lam: Partition) -> int:
    """Rows ``_iter_relation_rows`` yields, in closed form over the parts.

    With c = part_t: (E) gives c(c-1)/2 for each of the t-1 pairs (r, t);
    each triple (r, s, t) gives part_s c for (T1) and for (T3b) and c**2
    for (T2) and (T3a) together; (C) gives part_s c for each ordered pair
    of disjoint pairs (q, s), (u, t) or (u, t), (q, s) with s < t, of
    which there are (s-1)(t-3) each.  Summing over r < s leaves the
    prefix sums of (s-1) and (s-1) part_s.
    """
    total = 0
    below = 0  # sum of (s-1) over s < t
    weighted = 0  # sum of (s-1) part_s over s < t
    for t, c in enumerate(lam.parts, start=1):
        total += (t - 1) * c * (c - 1) // 2 + c * c * below + 2 * (t - 2) * c * weighted
        below += t - 1
        weighted += (t - 1) * c
    return total


def _commuting_std(lam: Partition, p: int) -> list[list[int]]:
    """std[q - 1][j - 1] = std_P(j) = C(part_q + j, j) mod p, P = (q, r), j <= part_{q+1}."""
    parts = lam.parts
    return [
        [_binom_mod_p(parts[q] + j, j, p) for j in range(1, parts[q + 1] + 1)]
        for q in range(lam.n - 1)
    ]


def _commuting_rows(lam: Partition, p: int) -> Iterator[tuple[RowTag, dict[int, int]]]:
    """A spanning set of the (C) rows of both orders of every block.

    For a pair P = (q, r) let std_P(j) = C(part_q + j, j) mod p for
    1 <= j <= part_r, S_P the j with std_P(j) nonzero, and N the pairs
    with S_P nonempty.  The (C) row (P, Q, i, j) for disjoint pairs P and
    Q = (s, t) is std_Q(i) y(P)_j - std_P(j) y(Q)_i, and the row (Q, P,
    j, i) is its negative, so one order spans both.  In the block (P, Q):

    * a row with i in S_Q and j not in S_P is a nonzero multiple of
      y(P)_j, so the block holds y(P)_j = 0 for every j not in S_P when
      S_Q is nonempty, and by symmetry y(Q)_i = 0 for i not in S_Q when
      S_P is nonempty; a row with i not in S_Q and j not in S_P is zero;
    * with f_{P,j} = y(P)_j / std_P(j), a row with i in S_Q and j in S_P
      is std_Q(i) std_P(j) (f_{P,j} - f_{Q,i}).  These are the edge
      vectors of the complete bipartite graph on S_P and S_Q, which is
      connected, so they span the same space as the edge vectors of any
      spanning tree: f_{P,j} - f_{P,j0} for j in S_P, f_{Q,i} - f_{Q,i0}
      for i in S_Q, and f_{P,j0} - f_{Q,i0}, with j0 = min S_P and
      i0 = min S_Q.

    Over all blocks, the (C) rows therefore span exactly

    * zero rows y(P)_j = 0 for j not in S_P, for every P with a disjoint
      partner in N;
    * ratio rows std_P(j0) y(P)_j - std_P(j) y(P)_{j0} for j in S_P other
      than j0, for every P in N with a disjoint partner in N;
    * link rows std_Q(i0) y(P)_{j0} - std_P(j0) y(Q)_{i0} for every edge
      {P, Q} of the disjointness graph on N.  The edge vectors of a graph
      span the same space as those of a spanning forest, so one link per
      forest edge is enough.  The forest is grown by union-find over the
      edges in lexicographic pair order, so the rows are deterministic.

    A pair P contributes at most part_r zero and ratio rows, and at most
    part_r - 1 when P is in N; the forest has fewer than |N| edges.  So
    there are at most ``slot_count(lam)`` rows in all.  Each std_P is a
    prefix of C(part_q + j, j) over j <= part_{q+1}, computed once per q.
    Tags are ("C", "zero", q, r, j) and ("C", "ratio", q, r, j), pair by
    pair in ascending order, then ("C", "link", q, r, s, t).
    """
    n = lam.n
    if n < 4:
        return  # no two disjoint pairs
    parts = lam.parts
    offsets = _pair_offsets(lam)
    std = _commuting_std(lam, p)
    pairs = [(q, r) for q in range(1, n + 1) for r in range(q + 1, n + 1)]
    lead = {}  # P in N -> j0 = min S_P
    for q, r in pairs:
        values = std[q - 1]
        j0 = next((j for j in range(1, parts[r - 1] + 1) if values[j - 1]), 0)
        if j0:
            lead[q, r] = j0

    for q, r in pairs:
        if all(q in Q or r in Q for Q in lead):
            continue  # no disjoint partner in N
        base = offsets[q][r] - 1
        values = std[q - 1]
        j0 = lead.get((q, r))
        for j in range(1, parts[r - 1] + 1):
            if not values[j - 1]:
                yield ("C", "zero", q, r, j), {base + j: 1}
            elif j0 is not None and j > j0:
                yield ("C", "ratio", q, r, j), {
                    base + j0: -values[j - 1] % p,
                    base + j: values[j0 - 1],
                }

    # The spanning forest: label[P] names P's tree.
    label = {P: P for P in lead}
    heads = list(lead)
    for k, (q, r) in enumerate(heads):
        for s, t in heads[k + 1 :]:
            if s in (q, r) or t in (q, r):
                continue
            keep, gone = label[q, r], label[s, t]
            if keep == gone:
                continue
            j0, i0 = lead[q, r], lead[s, t]
            yield ("C", "link", q, r, s, t), {
                offsets[q][r] + j0 - 1: std[s - 1][i0 - 1],
                offsets[s][t] + i0 - 1: -std[q - 1][j0 - 1] % p,
            }
            for P in label:
                if label[P] == gone:
                    label[P] = keep


def build_relation_system(lam: Partition, p: int) -> RelationSystem:
    """The (C) spanning rows, then the nonzero rows of the other families.

    The (C) rows are those of ``_commuting_rows``; the (E), (T1), (T2),
    (T3a) and (T3b) rows those of ``_tagged_rows``.  The rows span
    the same space as every candidate relation row; the (C) rows come
    first so that elimination meets the many two-term and unit rows
    before the long (T3) sums.  Raises ``SystemTooLargeError`` before
    generating any row when the candidate rows times the slots exceed
    ``MAX_CELLS``.
    """
    validate_prime(p)
    vdim = slot_count(lam)
    cells = _candidate_row_count(lam) * vdim
    if cells > MAX_CELLS:
        raise SystemTooLargeError(
            f"relation system for {lam} has {cells} candidate cells "
            f"(rows x slots), above the budget of {MAX_CELLS}"
        )
    rows: list[dict[int, int]] = []
    tags: list[RowTag] = []
    for tag, sparse in _commuting_rows(lam, p):
        rows.append(sparse)
        tags.append(tag)
    for tag, sparse in _tagged_rows(lam, p):
        if sparse:
            rows.append(sparse)
            tags.append(tag)
    return RelationSystem(lam, p, vdim, tuple(rows), tuple(tags))


def _echelon(system: RelationSystem) -> dict[int, dict[int, int]]:
    """The RREF of the system's rows as {pivot column: {free column: coef}}.

    Exact sparse Gauss-Jordan over F_p.  Each row in turn has the running
    RREF substituted for its pivot columns; a surviving row becomes the
    pivot row of its smallest column, scaled so that column holds 1 (kept
    implicit), and that column is cleared from the earlier pivot rows.  A
    pivot row thus never has an entry on another pivot column, and the
    result is the unique RREF of the row space.  Keys are in the order the
    pivots were found; memory is at most one sparse row per slot.
    """
    p = system.p
    rref: dict[int, dict[int, int]] = {}
    for sparse in system.sparse_rows:
        row = sparse.copy()
        for col in [col for col in sparse if col in rref]:
            _subtract(row, row.pop(col), rref[col], p)
        if not row:
            continue
        lead = min(row)
        inv = pow(row.pop(lead), p - 2, p)
        pivot_row = {col: coef * inv % p for col, coef in row.items()}
        for earlier in rref.values():
            factor = earlier.pop(lead, 0)
            if factor:
                _subtract(earlier, factor, pivot_row, p)
        rref[lead] = pivot_row
        if len(rref) == system.num_slots:
            break
    return rref


def _subtract(row: dict[int, int], factor: int, pivot_row: dict[int, int], p: int) -> None:
    """row -= factor * pivot_row over F_p in place, dropping zero entries."""
    for col, coef in pivot_row.items():
        value = (row.get(col, 0) - factor * coef) % p
        if value:
            row[col] = value
        else:
            del row[col]


def nullspace(system: RelationSystem) -> list[MultiSequence]:
    """Basis of the solution space, read off the unique RREF.

    Basis vectors correspond to free columns in ascending order: the
    vector for free column f has 1 there and -rref[c][f] on every pivot
    column c, so identical inputs always produce identical bases.
    """
    p = system.p
    rref = _echelon(system)
    basis = {col: {col: 1} for col in range(system.num_slots) if col not in rref}
    for pivot, row in rref.items():
        for col, coef in row.items():
            basis[col][pivot] = -coef % p
    slots = canonical_slot_order(system.lam)
    return [
        MultiSequence(system.lam, p, tuple((slots[col], vec[col]) for col in sorted(vec)))
        for vec in basis.values()
    ]


def dim_E(lam: Partition, p: int) -> int:
    """Dimension of the space of coherent multi-sequences."""
    system = build_relation_system(lam, p)
    return system.num_slots - len(_echelon(system))


def ext1_dim_oracle(lam: Partition, p: int) -> int:
    """dim of the first extension group: dim_E, minus 1 when non-James."""
    dim = dim_E(lam, p)
    if is_james_partition(lam, p):
        return dim
    return dim - 1


def is_coherent(ms: MultiSequence, lam: Partition, p: int) -> bool:
    """True iff the multi-sequence satisfies every relation row.

    Of the (E), (T1), (T2), (T3a) and (T3b) rows, only those with a term
    on a nonzero slot of ``ms`` are evaluated (``_tags_touching``).  This
    is the full check: every other row sums zero values and instantiates
    to 0 = 0, whatever its coefficients.  A (T3a) or (T3b) row whose
    binomial C(a+i, h) on a slot is 0 mod p (by Lucas's theorem, some
    digit of h exceeds that of a+i) has no term on that slot, so the slot
    does not bring the row in.  Each evaluated row walks all of its
    ``_row_terms`` and sums those on nonzero slots.  This walk costs in
    proportion to the rows touching the nonzero slots and their terms, not
    to the whole system.  (C) is then checked on every row of
    ``_commuting_rows``, which span both orders of every (C) row: at most
    ``slot_count(lam)`` rows and the binomials std_P(j), whatever the
    support.  Raises ``ValueError`` unless ``ms`` is a multi-sequence of
    ``lam`` at ``p``.
    """
    validate_prime(p)
    if (ms.lam, ms.p) != (lam, p):
        raise ValueError(
            f"multi-sequence of {ms.lam} at p={ms.p} checked against {lam} at p={p}"
        )
    offsets = _pair_offsets(lam)
    support = {offsets[r][s] + i - 1: value for (r, s, i), value in ms.entries}
    seen: set[RowTag] = set()
    for slot, _value in ms.entries:
        for tag in _tags_touching(lam, slot, p):
            if tag in seen:
                continue
            seen.add(tag)
            total = 0
            for r, s, i, sign, a1, b1, a2, b2 in _row_terms(lam, tag, p):
                pos = offsets[r][s] + i - 1
                if pos in support:
                    total += support[pos] * _coefficient(p, sign, a1, b1, a2, b2)
            if total % p:
                return False
    for _tag, row in _commuting_rows(lam, p):
        if sum(coef * support[pos] for pos, coef in row.items() if pos in support) % p:
            return False
    return True
