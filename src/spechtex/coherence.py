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
the nullspace; ``_h0`` reads from base-p carries whether it is zero.
The dimension of the first extension group is the nullspace dimension,
minus one when the standard multi-sequence is nonzero.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, repeat
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .padic import _binom_mod_p, _factorial_tables, _lucas_range, validate_prime
from .partitions import Partition


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
    return sum((s - 1) * part for s, part in enumerate(lam.parts, start=1))


def _pair_offsets(lam: Partition) -> list[list[int]]:
    """``offsets[r][s]``: canonical position of slot (r, s, 1), for r < s.

    Slot (r, s, i) then sits at ``offsets[r][s] + i - 1``.
    """
    parts = lam.parts
    n = len(parts)
    offsets = [[0] * (n + 1)]
    pos = 0
    for r in range(1, n + 1):
        row = [0] * (n + 1)
        for s in range(r + 1, n + 1):
            row[s] = pos
            pos += parts[s - 1]
        offsets.append(row)
    return offsets


@dataclass(frozen=True)
class MultiSequence:
    """The nonzero slot values of a multi-sequence; every other slot is 0.

    ``entries`` holds one (SlotIndex, value) pair per nonzero slot, in
    canonical slot order, with values in [1, p).  The constructor rejects
    a slot that is not an (r, s, i) triple, a slot index or value that is
    not an int, a bool included (as ``Partition`` does a part), a slot
    that ``lam`` does not have, a value outside [1, p), and slots that
    repeat or are out of order, so equal vectors compare equal.
    """

    lam: Partition
    p: int
    entries: tuple[tuple[SlotIndex, int], ...]

    def __post_init__(self) -> None:
        validate_prime(self.p)
        _check_slots(self.lam, self.entries)
        previous = (0, 0, 0)
        for slot, value in self.entries:
            if not 1 <= value < self.p:
                raise ValueError(f"slot value {value} at {tuple(slot)} is not in [1, {self.p})")
            if slot <= previous:  # a 3-tuple, checked above
                raise ValueError(f"slot {tuple(slot)} repeats or is out of canonical order")
            previous = slot

    def is_zero(self) -> bool:
        return not self.entries

    def nonzero_slots(self) -> list[tuple[SlotIndex, int]]:
        return list(self.entries)


def _check_slots(lam: Partition, entries: Iterable[tuple[tuple[int, int, int], int]]) -> None:
    """``ValueError`` unless each (slot, value) is a slot of ``lam`` and the two hold ints only."""
    parts = lam.parts
    for slot, value in entries:
        if not (isinstance(slot, tuple) and len(slot) == 3):
            raise ValueError(f"slot {slot!r} is not an (r, s, i) triple")
        r, s, i = slot
        if not type(r) is type(s) is type(i) is type(value) is int:  # no bool, no float
            raise ValueError(f"slot {tuple(slot)!r} or its value {value!r} is not an int")
        if not (1 <= r < s <= len(parts) and 1 <= i <= parts[s - 1]):
            raise ValueError(f"slot {tuple(slot)} does not exist for {lam}")


def multisequence_from_slots(
    lam: Partition, p: int, entries: Mapping[SlotIndex | tuple[int, int, int], int]
) -> MultiSequence:
    """Build a MultiSequence from a sparse {(r, s, i): value} mapping.

    Every entry is checked as ``MultiSequence`` checks its own before the
    values are reduced mod p and the zeros dropped, so an entry that is 0
    mod p, or a bool that reduces to 1, does not go unchecked.
    """
    validate_prime(p)
    _check_slots(lam, entries.items())
    nonzero = sorted((SlotIndex(*slot), value % p) for slot, value in entries.items() if value % p)
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


def _kummer_listings(lam: Partition, p: int) -> Iterator[Sequence[int]]:
    """L_q for q = 1, ..., n - 1, lazily: the i <= part_{q+1} with C(part_q + i, i) nonzero mod p.

    By Kummer's theorem those are the i that add to part_q without a
    base-p carry, which a carry-free ``_lucas_range`` lists with no
    binomial.
    """
    parts = lam.parts
    return map(_lucas_range, parts, repeat(1), parts[1:], repeat(p), repeat(True))


def _h0(lam: Partition, p: int) -> int:
    """dim H^0: 1 if the standard multi-sequence is zero mod p, else 0.

    Its slot (r, s, i) is C(part_r + i, i), i <= part_s <= part_{r+1},
    so it is nonzero on some slot iff some L_r of ``_kummer_listings`` is
    nonempty.  ``ext1_dim_oracle`` reads the listings the (C) plan holds.
    """
    return int(not any(_kummer_listings(lam, p)))


RowTag = tuple


#: Largest system ``build_relation_system`` accepts, in candidate rows x slots.
MAX_CELLS = 2**25


class SystemTooLargeError(ValueError):
    """The relation system would exceed ``MAX_CELLS`` candidate rows x slots."""


@dataclass(frozen=True, eq=False)
class RelationSystem:
    """F_p rows whose nullspace is the coherent multi-sequence space.

    ``rows`` holds each row as {slot position: coefficient}, coefficients
    in [1, p), in a dict of its own, and ``row_tags`` its tag.  The rows
    span the same space as the paper's relations but are not all of them:
    they are what ``_slot_rows`` writes of the gain graph that ``_settle``
    leaves of the relations fed to it.  First come the long rows, on the
    roots of its trees, each tagged by the row it came from: a (T3a) or
    (T3b) relation with at most three rows, tagged as in ``_row_terms``,
    a row ("B", r, s, t, local pivot) of the ``_triple_block`` of rows
    r < s < t with four or more ((C) is written into the trees before any
    row is fed, so no long row comes from it).  Then, slot by slot,
    ("zero", r, s, i) for y(r,s)_i = 0 and ("link", r, s, i) for
    y(r,s)_i = g * y_root.
    There may be no long rows once the build reaches rank V - 1.
    Which zero, link and long rows are kept follows the order the gain
    graph is fed in; their span does not.  Why the rows span the paper's
    rows is in ``_settle``, and how ``_echelon`` reads their RREF off
    this form is in ``_echelon``.
    ``dim_E`` and ``ext1_dim_oracle`` build none: they count the rank on
    the settled forest.
    """

    lam: Partition
    p: int
    num_slots: int
    rows: tuple[dict[int, int], ...]
    row_tags: tuple[RowTag, ...]


def _row_terms(lam: Partition, tag: RowTag, p: int) -> list[tuple[int, ...]]:
    """The terms of the paper's row ``tag`` as (r, s, i, sign, a1, b1, a2, b2).

    The paper's (E), (T1), (T2), (T3a) and (T3b) rows are, for each pair
    r < s with b = part_s, ("E", r, s, i, j) with i, j >= 1 and i + j <= b,
    and for each triple r < s < t with b = part_s and c = part_t:

    * ("T1", r, s, t, i, k) with 1 <= i <= b and 1 <= k <= c;
    * ("T2", r, s, t, j, k) with j, k >= 1 and j + k <= c;
    * ("T3a", r, s, t, i, j) with 1 <= i <= j <= c;
    * ("T3b", r, s, t, j, i) with 1 <= j <= c and j < i <= b + j.

    ``_tags_touching`` lists them slot by slot.  The term's coefficient
    on slot (r, s, i) is sign * C(a1, b1) * C(a2, b2) mod p;
    ``_coefficient`` evaluates it, so a caller pays for binomials only on
    the terms it needs.  Single-binomial terms carry b2 = 0, as
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
        return [(r, s, i, 1, parts[r - 1] + i + j, j, 0, 0), (r, s, i + j, -1, i + j, i, 0, 0)]
    # Triple relations tie x = y(r,s), y = y(s,t) and z = y(r,t), with
    # a = part_r and b = part_s.
    if family == "T1":
        # C(a+i+k, k) x_i - C(a+i+k, i) z_k = 0.
        _, r, s, t, i, k = tag
        top = parts[r - 1] + i + k
        return [(r, s, i, 1, top, k, 0, 0), (r, t, k, -1, top, i, 0, 0)]
    if family == "T2":
        # C(a+k, k) y_j - C(b+j, j) z_k = 0 for j + k <= c.
        _, r, s, t, j, k = tag
        return [(s, t, j, 1, parts[r - 1] + k, k, 0, 0), (r, t, k, -1, parts[s - 1] + j, j, 0, 0)]
    if family == "T3a":
        # C(a+i, i) y_j = sum_{h<i} C(b+j-i, j-h) C(a+i, h) x_{i-h}
        #                 + C(b+j-i, j-i) z_i, for 1 <= i <= j <= c.
        _, r, s, t, i, j = tag
        ai, bji = parts[r - 1] + i, parts[s - 1] + j - i
        terms = [(s, t, j, 1, ai, i, 0, 0)]
        for h in _lucas_range(ai, 0, i - 1, p):
            terms.append((r, s, i - h, -1, bji, j - h, ai, h))
        terms.append((r, t, i, -1, bji, j - i, 0, 0))
        return terms
    # (T3b): C(a+i, i) y_j = sum_{h<=j} C(b+j-i, j-h) C(a+i, h) x_{i-h},
    # for 1 <= j <= c, j < i <= b + j; x_m vanishes outside [1, b].
    _, r, s, t, j, i = tag
    b = parts[s - 1]
    ai, bji = parts[r - 1] + i, b + j - i
    terms = [(s, t, j, 1, ai, i, 0, 0)]
    for h in _lucas_range(ai, i - b if i > b else 0, j, p):
        terms.append((r, s, i - h, -1, bji, j - h, ai, h))
    return terms


class _GainForest:
    """Weighted union-find over F_p^x: y_v = gain * y_root on every tree.

    ``parent[v]`` and ``gain[v]`` say y_v = gain[v] * y_parent[v]; a root
    is its own parent, with gain 1.  ``zero[root]`` marks a tree whose
    nodes are all forced to 0.  A root is always the largest node of its
    tree.  The nodes are the slot positions of ``_settle``, whose
    three-row join loop moves only ``parent`` and leaves every gain at 1
    until its gain pass sets them.
    """

    __slots__ = ("p", "parent", "gain", "zero")

    def __init__(self, size: int, p: int) -> None:
        self.p = p
        self.parent = list(range(size))
        self.gain = [1] * size
        self.zero = [False] * size

    def find(self, v: int) -> tuple[int, int]:
        """(root, g) with y_v = g * y_root, by path halving.

        Every other node on the path is re-hung on its grandparent, with
        the product of the two gains, in the one walk up.
        """
        parent, gain, p = self.parent, self.gain, self.p
        g = 1
        u = parent[v]
        while u != v:
            w = parent[u]
            if w == u:
                return u, g * gain[v] % p
            gain[v] = gv = gain[v] * gain[u] % p
            parent[v] = w
            g = g * gv % p
            v, u = w, parent[w]
        return v, g

    def join(self, x: int, cx: int, y: int, cy: int) -> None:
        """Impose cx * y_x + cy * y_y = 0 on two distinct roots, cx and cy nonzero.

        Neither root may be marked zero: a term on a zero tree is dropped
        before its row reaches the forest.
        """
        if x > y:
            x, cx, y, cy = y, cy, x, cx
        self.parent[x] = y
        self.gain[x] = -cy * pow(cx, self.p - 2, self.p) % self.p

    def move(self, terms: Iterable[tuple[int, int]]) -> dict[int, int]:
        """The row sum coef * y_u over (u, coef) ``terms``, coefficients nonzero mod p, on the roots.

        Each term becomes coef * g * y_root (y_u = g * y_root); terms on
        zero trees are dropped and those on one root summed, and a root
        whose sum is 0 mod p is left out.
        """
        parent, gain, zero, p = self.parent, self.gain, self.zero, self.p
        moved: dict[int, int] = {}
        for u, coef in terms:
            x = parent[u]
            if parent[x] == x:  # u is a root or hangs on one
                g = gain[u]
            else:
                x, g = self.find(u)
            if zero[x]:
                continue
            coef = (moved.get(x, 0) + coef * g) % p
            if coef:
                moved[x] = coef
            else:
                del moved[x]
        return moved

    def settle(self, terms: Sequence[tuple[int, int]]) -> dict[int, int] | None:
        """Impose the row sum coef * y_u = 0 over (u, coef) ``terms`` on the forest.

        The terms, one or more, are on distinct slots, with coefficients
        nonzero mod p.  The row is moved onto the roots as by ``move``.  If
        that leaves nothing, the row already holds and {} is returned; one
        term marks its tree zero and two join their trees, and None is
        returned; three or more leave the forest as it is and are
        returned, the row moved.  A row of one or two terms is settled
        without a dict.
        """
        if len(terms) > 2:
            moved = self.move(terms)
            if not 0 < len(moved) <= 2:
                return moved
            terms = tuple(moved.items())  # on distinct live roots
        parent, gain, zero = self.parent, self.gain, self.zero
        u, cu = terms[0]
        x = parent[u]
        if parent[x] == x:
            gx = gain[u]
        else:
            x, gx = self.find(u)
        if len(terms) == 1:
            if zero[x]:
                return {}
            zero[x] = True
            return None
        v, cv = terms[1]
        y = parent[v]
        if parent[y] == y:
            gy = gain[v]
        else:
            y, gy = self.find(v)
        if zero[x]:
            if zero[y]:
                return {}
            zero[y] = True
        elif zero[y]:
            zero[x] = True
        elif x != y:
            self.join(x, cu * gx % self.p, y, cv * gy % self.p)
        elif (cu * gx + cv * gy) % self.p:
            zero[x] = True
        else:
            return {}
        return None


def _coefficient(p: int, sign: int, a1: int, b1: int, a2: int, b2: int) -> int:
    """sign * C(a1, b1) * C(a2, b2) mod p, for a term of ``_row_terms``."""
    coef = _binom_mod_p(a1, b1, p)
    if coef and b2:
        coef *= _binom_mod_p(a2, b2, p)
    return sign * coef % p


def _tags_touching(lam: Partition, slot: tuple[int, int, int], p: int) -> Iterator[RowTag]:
    """Tags of the paper's rows with a term on ``slot`` = (x, y, m).

    Each family's index ranges, as ``_row_terms`` lists them, solved for
    the indices that put (x, y, m) into one term position of its terms.
    As x_m = x_{i-h} in the sums of (T3a) and (T3b), with coefficient
    C(b+j-i, j-h) C(a+m+h, h), only the rows whose h adds to a+m without
    a base-p carry are yielded: by Lucas's theorem the others have no term
    on the slot in ``_row_terms``.  Every row whose ``_row_terms`` hold the
    slot is yielded once; the order is unspecified.  In particular each
    row is yielded at the slot of its first term, whatever p, so
    ``_iter_relation_rows`` reads the paper's rows off here slot by slot.
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


def _iter_relation_rows(lam: Partition, p: int) -> Iterator[tuple[RowTag, dict[int, int]]]:
    """Every candidate row of the paper: the rows ``_candidate_row_count`` counts.

    Each (E), (T1), (T2), (T3a) and (T3b) row as (tag, {slot position:
    coefficient}), zeros omitted, read off ``_tags_touching`` slot by slot
    in canonical order, once, the first time a slot lists it: every row
    is listed at the slot of its first term, so none is left out.  Within
    a slot the order is ``_tags_touching``'s, so a caller compares the
    stream as a multiset.  Then both orders ("C", q, r, s, t, i, j) of
    every (C) row std_Q(i) y(P)_j - std_P(j) y(Q)_i, P = (q, r) and
    Q = (s, t) disjoint, with std_P(j) = C(part_q + j, j) mod p.  The
    library reads (C) from the per-pair label of ``_commuting_labels``,
    which says what these rows say; the stream is for callers that count
    rows per family.
    """
    offsets, parts, n = _pair_offsets(lam), lam.parts, lam.n
    # std[q - 1][j - 1] = std_P(j) for j <= part_{q+1}.
    std = [[_binom_mod_p(a + j, j, p) for j in range(1, b + 1)] for a, b in zip(parts, parts[1:])]
    listed: set[RowTag] = set()
    for slot in canonical_slot_order(lam):
        for tag in _tags_touching(lam, slot, p):
            if tag in listed:
                continue
            listed.add(tag)
            row = {}
            for r, s, i, sign, a1, b1, a2, b2 in _row_terms(lam, tag, p):
                coef = _coefficient(p, sign, a1, b1, a2, b2)
                if coef:
                    row[offsets[r][s] + i - 1] = coef
            yield tag, row
    pairs = [(q, r) for q in range(1, n + 1) for r in range(q + 1, n + 1)]
    for q, r in pairs:
        for s, t in pairs:
            if s in (q, r) or t in (q, r):
                continue
            for i in range(1, parts[t - 1] + 1):
                for j in range(1, parts[r - 1] + 1):
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


#: ``_commuting_classes``: (rank, listings, reach, degree, classes).
_Plan = tuple[int, list[Sequence[int]], list[int], list[int], list[Sequence[tuple[int, int]]]]


def _commuting_classes(lam: Partition, p: int) -> _Plan:
    """The heads pass of the (C) plan: the rank and classes of the (C) relations of ``lam``.

    For a pair P = (q, r) let std_P(j) = C(part_q + j, j) mod p for
    1 <= j <= part_r, S_P the j with std_P(j) nonzero, and call P a head
    when S_P is nonempty.  The (C) row (P, Q, i, j) for disjoint pairs P
    and Q = (s, t) is std_Q(i) y(P)_j - std_P(j) y(Q)_i, and the row (Q,
    P, j, i) is its negative.  In the block (P, Q), a row with i in S_Q
    and j not in S_P is a nonzero multiple of y(P)_j (and symmetrically),
    and one with i not in S_Q and j not in S_P is zero.  With f_v = y_v /
    std_P(j) on the slot v = (P, j), a row with i in S_Q and j in S_P is
    std_Q(i) std_P(j) (f_{P,j} - f_{Q,i}): an edge vector of the complete
    bipartite graph on the slots of S_P and S_Q.  Over all blocks these
    edges connect the slots of S_P over the heads P of each component of
    two heads or more of the disjointness graph on the heads, and the
    edge vectors of a connected graph span the differences of its nodes.
    So the (C) rows say exactly:

    * y_v = 0 on each zero slot: (P, j), j not in S_P, for every pair P
      disjoint from some head;
    * f_v = f_w for all slots v, w of one class: the slots (P, j), j in
      S_P, of the heads P of one such component.

    With the largest slot of each class K as its root, the relations y_v
    = 0 on the zero slots and y_v std_root - y_root std_v = 0 on the other
    slots v of each class span these, as f_v - f_w = (f_v - f_root) - (f_w
    - f_root).  They are independent: each has a term on its own slot v,
    which no other one has, as zero slots and classes are disjoint and a
    root has no relation of its own.  So they are #zeros + sum(|K| - 1)
    independent relations in the span of the paper's rows.

    All of it is read per pair from one Kummer listing per row: S_P is
    the prefix up to part_r of L_q, the j <= part_{q+1} with std_P(j)
    nonzero (a carry-free ``_lucas_range``), as part_r <= part_{q+1} and
    std_P(j) depends on q alone.  So P is a head iff L_q[0] <= part_r,
    and as parts never increase, the heads of row q are the pairs (q, r)
    for r up to some bound.  P has a disjoint head
    exactly when fewer heads than all meet it: degree[q] + degree[r],
    with degree[x] the heads that hold row x, less one when P is a head.
    A head with a disjoint head lies in a component of two heads or more,
    and every head of such a component has one, so each pair with a
    disjoint head is either a zero pair, all of whose part_r slots are
    zero slots, or a head of a class, whose |S_P| live j are class slots
    and whose other part_r - |S_P| are zero slots.  So the rank is the
    number of slots on pairs with a disjoint head, less one per class.

    The components themselves follow from a closed rule on the heads
    with a disjoint head, those of the classes.  If they hold five rows
    or more, they form one class.  Otherwise they hold exactly four,
    a < b < c < d, as two disjoint pairs take four rows, and each class
    is one of the perfect matchings {(a, b), (c, d)}, {(a, c), (b, d)}
    and {(a, d), (b, c)} whose two heads are both present.  Proof: let
    a class C1 hold disjoint heads {a, b} and {c, d}, and let some head
    lie in another class C2.  It is disjoint from no head of C1, so it
    meets both {a, b} and {c, d} and lies in {a, b, c, d}.  Symmetrically
    every head of C1 lies in the four rows of two disjoint heads of C2,
    which are in {a, b, c, d}, so the class heads hold four rows.  On
    four rows a pair is disjoint only from its complement, so there the
    components are the matchings.

    Returns (rank, listings, reach, degree, classes), which
    ``_commuting_labels`` turns into the per-pair label and the class
    sizes; no table and no size is built here.  ``listings[q - 1]`` is
    L_q; ``reach[q]`` is the last r with (q, r) a head, else q, and
    ``degree`` is as above, both indexed by row from 1; ``classes[k]``
    holds the heads of class k in lexicographic order, the classes in
    the order of their first head.  With fewer than four rows there are
    no two disjoint pairs, and nothing is listed.
    """
    parts = lam.parts
    n = len(parts)
    if n < 4:
        return 0, [], [], [], []  # no two disjoint pairs
    listings = list(_kummer_listings(lam, p))
    size = 0  # heads
    reach = list(range(n + 1))  # reach[q]: the last r with (q, r) a head, else q
    degree = [0] * (n + 1)  # row x -> heads that hold it
    for q, listing in enumerate(listings, start=1):
        if listing:
            least, r = listing[0], q
            while r < n and parts[r] >= least:
                r += 1
                degree[r] += 1
            degree[q] += r - q
            reach[q] = r
            size += r - q
    if not size:
        return 0, listings, reach, degree, []
    heads = []  # with a disjoint head, in lexicographic order
    rank = 0
    for q in range(1, n + 1):
        # (q, r) has a disjoint head iff degree[r] < short, or <= short for a head.
        last, short = reach[q], size - degree[q]
        for r in range(q + 1, n + 1):
            if r <= last:
                if degree[r] <= short:
                    heads.append((q, r))
                    rank += parts[r - 1]
            elif degree[r] < short:
                rank += parts[r - 1]
    held = {x for head in heads for x in head}
    if len(held) > 4:
        classes = [heads]
    elif held:
        a, b, c, d = sorted(held)
        matchings = (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))
        classes = [pairs for pairs in matchings if pairs[0] in heads and pairs[1] in heads]
    else:
        classes = []
    return rank - len(classes), listings, reach, degree, classes


def _commuting_labels(lam: Partition, plan: _Plan) -> tuple[list[list[int]], list[int]]:
    """The labelling of the (C) plan: ``_commuting_classes`` as a label per pair of rows.

    ``plan`` is ``_commuting_classes`` of ``lam``, where what the pairs
    mean is proved.  Returns (label, sizes).  ``label[q][r]``, for q < r,
    is 1 << k for a head of class k, 0 for a zero pair, and -1 for a pair
    the (C) relations say nothing of.  A zero pair is a pair past
    reach[q], so no head, with a disjoint head: one that fewer heads than
    all meet, degree[q] + degree[r] < the number of heads, which is half
    the sum of the degrees.  With rank 0 no pair has a label, as each
    zero pair and each class carries rank, and the table is empty.
    ``sizes[k]`` is |K| for class k, the sum of |S_P| =
    bisect_right(L_q, part_r) over its heads P = (q, r).
    """
    rank, listings, reach, degree, classes = plan
    if not rank:
        return [], []
    parts = lam.parts
    size = sum(degree) // 2  # each head holds two rows
    label = [[-1] * len(degree)]
    for q in range(1, len(degree)):
        last, short = reach[q], size - degree[q]
        row = [-1] * (last + 1)
        for d in degree[last + 1 :]:
            row.append(0 if d < short else -1)
        label.append(row)
    sizes = []
    bit = 1
    for heads in classes:
        total = 0
        for q, r in heads:
            label[q][r] = bit
            total += bisect_right(listings[q - 1], parts[r - 1])
        sizes.append(total)
        bit <<= 1
    return label, sizes


def _pair_feed(lam: Partition, p: int, lone: list[int]) -> Iterator[tuple[int, int]]:
    """A spanning set of the (E), (T1) and (T2) joins, for at most three rows.

    A join is a row C(a1, b1) y_u - C(a2, b2) y_v = 0 of these families
    with both coefficients nonzero mod p.  Each join listed comes as its
    slot positions (u, v), in either order; no binomial is computed.  Not
    every join is listed, but the listed ones connect the same slots: two
    slots are linked by a path of listed joins whenever they are by a path
    of joins, which is all ``_settle`` reads of them (why is there).  A
    row with one nonzero coefficient, c y_u = 0, says only y_u = 0, so
    such rows span exactly the unit vectors of their slots: each family
    appends a slot u to ``lone`` once, when some row of it has its one
    nonzero coefficient there.  By Kummer's theorem C(m + h, h) is nonzero
    mod p exactly when h adds to m without a base-p carry, and then each
    digit of m + h is m_d + h_d; by Lucas's C(n, h) is exactly when every
    digit h_d <= n_d.  Per family:

    * (E) on pair (r, s), A = part_r, w = part_s: C(A+i+j, j) y_i -
      C(i+j, i) y_{i+j}, 1 <= i < i + j <= w, a join iff j adds without a
      carry to A + i and to i, i.e. to their digit-wise maximum M_i (a
      number adds to M_i without a carry iff it adds without one to both).
      Listed: the unit steps j = p**d with (M_i)_d < p - 1 and i + p**d
      <= w.  A join (i, i+j) is a path of them: add the digits of j one
      unit at a time.  Each partial sum u = i + j', j'_d <= j_d
      throughout, has u_d = i_d + j'_d and (A+u)_d = (A+i)_d + j'_d, as j'
      adds to both without a carry.  At a digit d where j'_d < j_d both
      are at most (M_i)_d + j_d - 1 <= p - 2, and u + p**d <= i + j <= w,
      so the next step (u, u + p**d) is listed.  Lone on y_m, with n = A
      + m: as y_i, y_m's coefficient is nonzero iff j adds to n, and the
      other is 0 iff j then has a carry with m: the least such j is (p -
      m_d) p**d at a digit with m_d > n_d.  As y_{i+j}, j = m - i, y_m's
      C(m, j) is nonzero iff j_d <= m_d throughout, and C(n, j) is 0 iff
      some j_d > n_d: the least such j is (n_d + 1) p**d at a digit with
      m_d > n_d.  A term at digit d is below p**(d+1), so the lowest such
      digit gives both least j; the rows need j <= w - m and j <= m - 1.
      One walk over the digits of m and n reads the steps and that digit.
    * (T1) C(a+i+k, k) x_i - C(a+i+k, i) z_k, i <= b, k <= c, x = y(1,2)
      and z = y(1,3).  The row is symmetric under i <-> k, x <-> z, b <->
      c, so one loop reads the side of each k and of each i; on the side
      of k, write m = a + k.  The second coefficient is nonzero iff i adds
      to m without a carry, and then the first iff k_d <= m_d + i_d
      throughout.  So the i joined to k are those in [1, b] whose every
      digit lies in [max(0, k_d - m_d), p - 1 - m_d], a box whose least
      element is lo_k = M - m, M the digit-wise maximum of m and k; lo_k +
      p**d is in it iff M_d < p - 1.  Listed: for each k, lo_k and each
      lo_k + p**d in the box and in [1, b]; for each i, the same with k.  A
      join (i, k) listed from neither side has i - lo_k and k - lo_i of
      digit sum 2 or more.  Take a digit d of i - lo_k and a digit e of k -
      lo_i, and by symmetry d <= e.  Then i' = i - p**d and k' = k - p**e
      are at least 1, (i', k) and (i, k') are joins, one digit lowered in a
      box, and so is (i', k'): i is in the box of k', and i' differs from i
      only at digit d, where it needs i_d - 1 >= k'_d - m'_d, m' = a + k'.
      There i_d - 1 >= (lo_k)_d >= k_d - m_d, and k'_d - m'_d <= k_d -
      m_d: if d < e, k' and m' agree with k and m below digit e; if d = e,
      k'_d = k_d - 1 and m'_d >= m_d - 1 (p - 1 after a borrow).  So x_i,
      z_k', x_i' and z_k are linked by joins of smaller i + k, and by
      induction on i + k every join is a path of listed ones.  Lone on z_k:
      its coefficient is nonzero and x_i's 0 iff i adds to m without a
      carry and some digit has k_d > m_d + i_d.  For one digit d with k_d >
      m_d the i that do both are a box, i_d <= k_d - m_d - 1 and i_e <= p
      - 1 - m_e at every other digit, whose least element other than 0 is
      p**e, e the lowest digit with a bound of 1 or more.  The least over
      every such d is p**e for the lowest e at which some d allows 1 or
      more: p - 1 - m_e, unless e is the only such d, when it is k_e - m_e
      - 1; z_k is lone iff that p**e <= b.  Each k takes two walks over its
      digits: one over those of k for lo_k and for whether one digit d or
      more has k_d > m_d (two are as good as more), one up to b for the
      steps and e.
    * (T2) C(a+k, k) y_j - C(b+j, j) z_k, j + k <= c: the first
      coefficient is nonzero iff k is in K, the k < c that add to a without
      a carry, and the second iff j is in J, the j < c that add to b
      without one.  With j0 and k0 the least of J and K, a join (j, k) has
      (j, k0), (j0, k0) and (j0, k) joins too, as j + k0 and j0 + k are at
      most j + k <= c.  Listed: (j, k0) for each j and (j0, k) for each
      other k.  Lone: y_j for each j <= c - k0 not in J, and z_k for each k
      <= c - j0 not in K.

    Each slot lists a few joins per base-p digit of its row's length, and
    ``lone`` gets each slot at most once per family: at most 3V slot
    numbers, no more than the forest of ``_settle`` holds.  Besides it,
    what is held at a time is at most as long as a row of ``lam``.
    """
    parts, n = lam.parts, lam.n
    base = -1  # slot (r, s, i) is at base + i
    for r in range(1, n + 1):
        top = parts[r - 1]
        for width in parts[r:]:
            for m in range(1, width + 1):
                x, y, scale, room, seek = m, top + m, 1, width - m, True
                while scale <= room or seek and x:
                    dx, dy = x % p, y % p
                    if scale <= room and dx < p - 1 and dy < p - 1:
                        yield base + m, base + m + scale
                    if seek and dx > dy:  # the lowest digit of m above top + m's
                        seek = False
                        if (p - dx) * scale <= room or (dy + 1) * scale < m:
                            lone.append(base + m)
                    x, y, scale = x // p, y // p, scale * p
            base += width
    if n < 3:
        return
    a, b, c = parts
    x0, z0, y0 = -1, b - 1, b + c - 1  # slot (1, 2, i) is at x0 + i
    # (T1) from the side of each k, then of each i: h is the index, and
    # its partner runs up to limit.
    for own, other, count, limit in ((z0, x0, c, b), (x0, z0, b, c)):
        for h in range(1, count + 1):
            # low = lo_h, and alone the scale of the one digit of h above
            # that of a + h, or -1 if there are more.
            x, y, scale, low, alone = h, a + h, 1, 0, 0
            while x:
                dx, dy = x % p, y % p
                if dx > dy:
                    alone = -1 if low else scale
                    low += (dx - dy) * scale
                x, y, scale = x // p, y // p, scale * p
            if 0 < low <= limit:
                yield own + h, other + low
            x, y, scale, seek = h, a + h, 1, low > 0
            while scale <= (limit if seek else limit - low):
                dx, dy = x % p, y % p
                if scale <= limit - low and dx < p - 1 and dy < p - 1:
                    yield own + h, other + low + scale
                if seek and (dx if scale == alone else p) - dy > 1:
                    seek = False
                    lone.append(own + h)
                x, y, scale = x // p, y // p, scale * p
    ks = _lucas_range(a, 1, c - 1, p, carry_free=True)
    js = _lucas_range(b, 1, c - 1, p, carry_free=True)
    for own, mine, theirs in ((y0, js, ks), (z0, ks, js)):
        if theirs:
            live = set(mine)
            lone.extend(own + h for h in range(1, c - theirs[0] + 1) if h not in live)
    if not (ks and js):
        return
    j0, k0 = js[0], ks[0]
    for j in js:
        if j + k0 > c:
            break
        yield y0 + j, z0 + k0
    for k in ks[1:]:
        if j0 + k > c:
            break
        yield y0 + j0, z0 + k


def _std_units(lam: Partition, p: int) -> list[int]:
    """std / p**v mod p on every slot, in canonical order: the unit part of std.

    std on slot (r, s, i) is C(part_r + i, i) and v its p-adic valuation.
    With U(x) the part of x prime to p, taken mod p, C(a + i, i) =
    C(a + i - 1, i - 1) (a + i) / i and valuations add, so unit_i =
    unit_(i-1) U(a + i) U(i)**-1 from unit_0 = 1.  The units of pair
    (r, s) are the first part_s of row r's, so one running product per row
    serves all its pairs.  An inverse is read off ``_factorial_tables``:
    1 / x = (x - 1)! / x! mod p.
    """
    fact, invfact = _factorial_tables(p)
    parts = lam.parts
    units: list[int] = []
    for r, (a, width) in enumerate(zip(parts, parts[1:]), start=1):
        row, unit = [], 1
        for i in range(1, width + 1):
            x, y = a + i, i
            while not x % p:
                x //= p
            while not y % p:
                y //= p
            y %= p
            unit = unit * (x % p) * fact[y - 1] * invfact[y] % p
            row.append(unit)
        for part in parts[r:]:
            units += row[:part]
    return units


def _t3_rows(
    lam: Partition, p: int, forest: _GainForest
) -> Iterator[tuple[RowTag, list[tuple[int, int]]]]:
    """The (T3a) and (T3b) rows of a three-row ``lam``, read from the live slots.

    The slots are visited from the last in canonical order, and every
    (T3a) and (T3b) row with a term on a visited slot (``_tags_touching``)
    is read once, unless the slot is in a zero tree of ``forest`` when
    visited, and yielded as (tag, [(slot position, coefficient), ...])
    unless it has no term left.  A row holds only its nonzero terms
    outside zero trees, as ``_GainForest.move`` drops the others, so their
    binomials are never computed.  Every such row has
    a term on one of the last slots, y(2,3)_j, so once all of those have
    been visited outside a zero tree every row has been yielded and the
    other slots are not visited.  The forest is read between rows, so the
    zero trees the caller marks on the way count.
    """
    offsets = _pair_offsets(lam)
    parent, zero = forest.parent, forest.zero

    def dead(pos: int) -> bool:
        root = parent[pos]
        if parent[root] != root:
            root = forest.find(pos)[0]
        return zero[root]

    fed: set[RowTag] = set()
    skipped = False  # some y(2,3)_j was in a zero tree when visited
    for r, s in ((2, 3), (1, 3), (1, 2)):
        for i in reversed(range(1, lam.parts[s - 1] + 1)):
            if dead(offsets[r][s] + i - 1):
                skipped = True
                continue
            for tag in _tags_touching(lam, (r, s, i), p):
                if tag[0] not in ("T3a", "T3b") or tag in fed:
                    continue
                fed.add(tag)
                row = []
                for x, y, m, sign, a1, b1, a2, b2 in _row_terms(lam, tag, p):
                    pos = offsets[x][y] + m - 1
                    if not dead(pos):
                        coef = _coefficient(p, sign, a1, b1, a2, b2)
                        if coef:
                            row.append((pos, coef))
                if row:
                    yield tag, row
        if not skipped:
            break


def _unsettled_triples(lam: Partition, label: list[list[int]]) -> Iterator[tuple[int, int, int]]:
    """The triples r < s < t of ``lam`` whose blocks ``_settle`` feeds, in lexicographic order.

    Every triple but those the (C) relations already settle: the triples
    whose three pairs (r, s), (r, t) and (s, t) have labels in ``label``,
    the per-pair table of ``_commuting_labels``, whose union has at most
    one bit, so each is a zero pair (0) or a head of one and the same
    class (1 << k); a free pair's -1 has every bit.  On the forest
    ``_commuting_forest`` starts from, every row of such a triple's block
    moves onto nothing, whatever has been fed to the forest since:

    * the standard multi-sequence std, C(part_q + j, j) mod p on slot
      (q, r, j), solves every block row: the block spans the triple's
      paper rows mod p (``_settle``), moved onto its pairs, and std
      solves those;
    * std is 0 mod p on every slot of a zero pair (it has no live j) and
      on every dead j of a head, and those slots are zero trees, which
      stay zero, so their terms are dropped;
    * the class's slots start as one tree with y_v = (std_v / std_root)
      y_root, std_root nonzero mod p.  A later join hangs a whole tree
      below another root and a mark zeroes a whole tree, so on any later
      forest either every class slot is in one zero tree or y_v = g
      (std_v / std_root) y_R on every class slot v, for one root R and
      one g.  The row's sum on R is then g / std_root times its sum on
      std, which is 0.

    So feeding such a block changes nothing, and skipping it leaves the
    forest, the long rows and ``live`` as they were.
    """
    rows = range(1, lam.n + 1)
    if not label:
        yield from combinations(rows, 3)
        return
    for r, s, t in combinations(rows, 3):
        held = label[r][s] | label[r][t] | label[s][t]
        if held < 0 or held & (held - 1):
            yield r, s, t


def _commuting_forest(
    lam: Partition, p: int, size: int, listings: list[Sequence[int]], label: list[list[int]]
) -> _GainForest:
    """A ``_GainForest`` on the V = ``size`` slots holding the (C) relations.

    ``listings`` are those of ``_commuting_classes`` and ``label`` the
    table ``_commuting_labels`` makes of them.  The table is expanded
    pair by pair, from the last pair in slot order: every slot of a
    labelled pair is marked zero, then a class's head unmarks its live j,
    the j of L_q up to part_r, and hangs them on the class's root with
    gain std_v / std_root.  The root is the class's largest slot: the
    last live j of its last head, which is the first of its heads met.
    Binomials are computed on class slots only.
    """
    forest = _GainForest(size, p)
    parent, gain, zero, parts = forest.parent, forest.gain, forest.zero, lam.parts
    roots: dict[int, tuple[int, int]] = {}  # class bit -> (root, 1 / std_root)
    start = size  # of slot (q, r, 1), from the last pair
    for q in reversed(range(1, len(label))):
        for r in reversed(range(q + 1, len(label))):
            width = parts[r - 1]
            start -= width
            bit = label[q][r]
            if bit < 0:
                continue
            zero[start : start + width] = [True] * width
            if bit:
                a, listing = parts[q - 1], listings[q - 1]
                if bit not in roots:
                    top = listing[bisect_right(listing, width) - 1]
                    roots[bit] = start + top - 1, pow(_binom_mod_p(a + top, top, p), p - 2, p)
                root, inv = roots[bit]
                for j in listing:
                    if j > width:
                        break
                    v = start + j - 1
                    zero[v] = False
                    parent[v] = root
                    gain[v] = _binom_mod_p(a + j, j, p) * inv % p
    return forest


def _settle(
    lam: Partition, p: int, size: int, plan: _Plan, label: list[list[int]]
) -> tuple[_GainForest, list[tuple[RowTag, dict[int, int]]], int]:
    """The gain graph of the paper's relations of ``lam``: (forest, long rows, live).

    ``size`` is V, the slot count, ``plan`` is ``_commuting_classes`` of
    ``lam`` and p, whose rank and listings are read, and ``label`` the
    per-pair table ``_commuting_labels`` makes of it.
    Relations are fed in turn to a ``_GainForest`` over the slot
    positions, which moves each onto the roots of its slots (y_v = g *
    y_root; ``_GainForest.settle``): terms on slots of zero trees are
    dropped, the others summed per root.  Of what is left,
    nothing means the relation already holds; one term marks its tree
    zero; two join the trees; three or more are kept as a long row,
    (tag, row) with the row as moved.  ``live`` counts the roots not marked
    zero: it starts at V, and each join, zero mark or (C) relation lowers
    it by one.  What is fed depends on the shape:

    * With at most three rows, first the joins, the (E), (T1) and (T2)
      rows with both coefficients nonzero mod p: ``_pair_feed`` lists a
      set of them that links the same slots as all of them.  They
      are settled as plain connectivity, with no binomial and no row dict
      (most rows are of this kind, and small systems pay for every dict):
      a join whose slots share a root is skipped, and otherwise the
      smaller root is hung on the larger.  So the trees are the components
      of the joins, each rooted at its largest slot, with live their
      count, whatever the order and whichever spanning set is listed.
      Then one gain pass sets y_u = (unit[u] / unit[root]) y_root on every
      slot u that is not a root, with unit = std / p**v mod p, v the
      p-adic valuation of std on the slot (``_std_units``).  These are the
      gains that feeding the joins as relations would leave, and every
      join, listed or not, holds on them.  Over Z std satisfies each join,
      C1 std_u = +-C2 std_v, and std is nonzero on every slot.  Both
      coefficients are units mod p, so a join ties slots of equal
      valuation, all slots of a tree share one valuation v, and dividing
      by p**v, unit satisfies the join mod p.  So unit, nonzero on every
      slot, solves every join of a tree, and the joins along a tree's
      paths leave one solution up to scale: y_u / y_root = unit[u] /
      unit[root].  At p = 2 every unit is 1, so is every gain, and the
      pass is skipped.  Then the rows with exactly one, c y_u = 0, which
      say only y_u = 0: ``_pair_feed`` collects the slots u that carry
      such a coefficient in the same scan, and after the gain pass u's
      tree is marked zero unless it already is.  These rows span exactly
      the unit vectors of the slots listed, and each mark adds one of
      them, so feeding the marks is feeding the rows.  Then the (T3a) and (T3b) rows of
      ``_t3_rows``, read from the slots outside zero trees.
    * With four rows or more, the forest starts from the independent
      (C) relations, the plan's label expanded pair by pair
      (``_commuting_forest``); the plan's rank is the number of these
      relations.  Then, for each triple r < s < t of ``_unsettled_triples``,
      in lexicographic order, the rows of ``_triple_block(part_r, part_s,
      part_t, p)`` are moved onto the pairs (r, s), (r, t) and (s, t) and
      fed, tagged ("B", r, s, t, local pivot), with no dict for a row of
      one or two entries.  A block row is defined only mod p, with no
      integer row behind it for the gain pass's argument, so its sum on
      the tree is always computed.  The blocks span the paper's (E),
      (T1), (T2), (T3a) and (T3b) rows: each such row lies in one triple
      (r, s, t), as the (T) rows of that triple or the (E) rows of one of
      its pairs, and its coefficients read only part_r, part_s and part_t
      (``_row_terms``), so moved onto local rows 1, 2, 3 it is a row of
      the three-row system of (part_r, part_s, part_t), and every row of
      that system is such a row of ``lam``, moved.  Moving the slots of a
      triple is injective and linear, so the moved block spans the moved
      three-row system; every pair lies in some triple, so every (E) row
      is in some block.  The triples ``_unsettled_triples`` leaves out are
      those whose every block row moves onto nothing on any forest grown
      from the (C) relations (the proof is there).
    * The rank ceiling V - 1 ends the feed: no row is fed once one live
      root is left.  The paper's rows have rank at most V - 1 for every
      ``lam``: with m the least p-adic valuation of C(part_r + i, i) over
      the slots, std / p**m is an integer vector, nonzero mod p, that
      satisfies the integer (E) and (T) rows as std does over Z; if m > 0
      every (C) coefficient std_P(j) is 0 mod p, so the (C) rows are
      zero, and if m = 0 the vector is std, which solves (C).  So rows in
      the span of the paper's rows that reach rank V - 1 span them all,
      and the rows not yet fed add nothing.

    ``_slot_rows`` writes the settled forest out as rows: each long row
    moved onto the final roots, then y_v = 0 for every slot v of a zero
    tree and y_v - g_v * y_root for every other slot that is not a root.
    Write W for the span of those zero and link rows.  They span exactly
    the paper's rows:

    * Every row written is a combination of the paper's rows.  Every row
      fed is one: a paper row, or a moved triple block row, which span
      the paper's (E) and (T) rows (the proof is above), and so are the
      (C) relations the forest starts with and the zero marks.  A join, a
      zero mark or a long row is its relation minus multiples of the zero
      and link relations the forest held before it, so by induction every
      zero and link relation the forest ever holds, and every long row,
      lies in the span of the (C) relations and the relations fed so far.
    * If the ceiling did not end the feed, every paper row lies in W plus
      the span of the long rows.  The forest only gains joins and zero
      marks, so what it held at any time lies in W.  A relation fed to it
      is therefore in W, or, for a long row, the final long row plus an
      element of W.  With four rows or more the forest started with
      relations spanning the (C) rows, and every moved block row,
      spanning the others, was fed, or moves onto nothing on the final
      forest (``_unsettled_triples``), so lies in W.  With at most
      three, every (E), (T1) and (T2) row with two coefficients nonzero
      mod p was fed or, left out of the listing, has both slots on one
      tree, where it holds, so lies in W; every one with one lies in the
      span of the marks, and the others are zero rows.  If some (T3a) or
      (T3b) row is never fed, some y(2,3)_j was in a zero tree when
      visited, so every slot was visited, each term of that row was on a
      slot of a zero tree, and the row lies in W.
    * If the ceiling ended the feed, the zero and link rows alone, one
      pivot per slot that is not the live root, reach rank V - 1 inside
      the span of the paper's rows, so they span it (the proof is above).
      So every long row moved onto the final roots is left empty: on the
      one live root a nonzero sum would raise the rank past V - 1.

    So the unique RREF, which ``_echelon`` reads off the written rows,
    and with it ``nullspace`` and ``dim_E``, are those of the paper's
    rows.  No step reads the order in which the rows are fed, so any
    order gives this RREF; only which zero, link and long rows are kept
    can change with it:

    * below the ceiling every live row is fed, in whatever order, and
      once the ceiling is reached the rows not fed add nothing (the proof
      is above); a row with both coefficients 0 mod p is the zero row,
      and a block row of a triple the plan settles moves onto nothing, so
      leaving either out changes nothing;
    * the skip of a join whose slots share a root holds in any order, as
      every join holds on the gains the gain pass sets (above).

    Up to the (T3) rows, nothing kept depends on the order or on which
    spanning set of the joins is listed: the forest after the gain pass
    is fixed by their components (above), and the lone slots mark the
    same trees in any order: once the ceiling stops the marks, a further
    mark would raise the rank past V - 1.  So the system built is the one that feeding
    every join would build, bit for bit.
    """
    live = size
    long_rows: list[tuple[RowTag, dict[int, int]]] = []
    if lam.n >= 4:
        rank, listings = plan[:2]
        forest = _commuting_forest(lam, p, size, listings, label)
        settle, parts, offsets = forest.settle, lam.parts, _pair_offsets(lam)
        live -= rank
        for r, s, t in _unsettled_triples(lam, label) if live > 1 else ():
            base = (offsets[r][s], offsets[r][t], offsets[s][t])
            b = parts[s - 1]
            for terms in _triple_block(parts[r - 1], b, parts[t - 1], p):
                row = settle([(base[k] + i, coef) for k, i, coef in terms])
                if row is None:
                    live -= 1
                    if live <= 1:
                        break
                elif row:
                    k, i, _one = terms[0]
                    pivot = i + (0, b, b + parts[t - 1])[k]
                    long_rows.append((("B", r, s, t, pivot), row))
            if live <= 1:
                break
        return forest, long_rows, live

    forest = _GainForest(size, p)
    find, parent, gain, zero = forest.find, forest.parent, forest.gain, forest.zero
    lone: list[int] = []
    for u, v in _pair_feed(lam, p, lone):
        while parent[u] != u:  # path halving
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u == v:
            continue  # the join holds on that tree (the gain pass)
        if u < v:
            parent[u] = v
        else:
            parent[v] = u
        live -= 1
        if live <= 1:
            break
    if p > 2:  # the gain pass; at p = 2 every unit and gain is 1
        fact, invfact = _factorial_tables(p)
        unit = _std_units(lam, p)
        for u in reversed(range(size)):
            # parent[u] > u unless u is a root, so it was settled first.
            root = parent[parent[u]]
            if root == u:  # before the rest of its tree: keep 1 / unit
                unit[u] = fact[unit[u] - 1] * invfact[unit[u]] % p
            else:
                parent[u] = root
                gain[u] = unit[u] * unit[root] % p
    for u in lone if live > 1 else ():
        x = parent[u]
        if parent[x] != x:
            x = find(u)[0]
        if not zero[x]:
            zero[x] = True
            live -= 1
            if live <= 1:
                break
    # Below three rows there are no (T3) rows.
    for tag, terms in _t3_rows(lam, p, forest) if lam.n == 3 and live > 1 else ():
        row = forest.settle(terms)
        if row is None:
            live -= 1
            if live <= 1:
                break
        elif row:
            long_rows.append((tag, row))
    return forest, long_rows, live


def _slot_rows(
    lam: Partition, forest: _GainForest, long_rows: list[tuple[RowTag, dict[int, int]]]
) -> tuple[list[dict[int, int]], list[RowTag]]:
    """The rows of a ``_settle``d forest and their tags, in this order.

    Each long row moved onto the final roots, with its terms on zero trees
    dropped and those on one root summed (a row left empty is dropped),
    tagged as its relation; then, slot by slot, ("zero", r, s, i): y_v = 0
    for every slot v of a zero tree, and ("link", r, s, i): y_v - g_v *
    y_root for every other slot v that is not a root.  A root is the
    largest slot of its tree, so a link row's pivot is its own slot.
    There may be no long rows: once the ceiling ends the feed, every long
    row moved onto the final roots is left empty.  Why these rows span the
    paper's rows is in ``_settle``.
    """
    p, parent, gain, zero = forest.p, forest.parent, forest.gain, forest.zero
    rows: list[dict[int, int]] = []
    tags: list[RowTag] = []
    for tag, row in long_rows:
        row = forest.move(row.items())
        if row:
            rows.append(row)
            tags.append(tag)
    parts = lam.parts
    pos = -1  # canonical position of slot (r, s, i)
    for r in range(1, lam.n + 1):
        for s in range(r + 1, lam.n + 1):
            for i in range(1, parts[s - 1] + 1):
                pos += 1
                root = parent[pos]
                if parent[root] == root:
                    g = gain[pos]
                else:
                    root, g = forest.find(pos)
                if zero[root]:
                    rows.append({pos: 1})
                    tags.append(("zero", r, s, i))
                elif root != pos:
                    rows.append({pos: 1, root: -g % p})
                    tags.append(("link", r, s, i))
    return rows, tags


def build_relation_system(lam: Partition, p: int) -> RelationSystem:
    """A system of rows spanning every relation row of ``lam`` at ``p``.

    The relations are fed to a weighted union-find over the slots as they
    are generated (``_settle``), until the rows reach rank V - 1, the most
    with V >= 1 slots, and ``_slot_rows`` writes what is left: a few long
    rows on the roots of its trees and one zero or link row per slot that
    is not a root (the proof of both is in ``_settle``).  With at most
    three rows the relations fed are the paper's: a set of the (E), (T1)
    and (T2) rows with two coefficients nonzero mod p that links the same
    slots as all of them (``_pair_feed``), which leaves the same forest,
    then the slots of the rows with one, then the (T3a) and (T3b)
    rows from the slots not forced to 0.
    With four or more the forest starts with the (C) relations of the
    per-pair label of ``_commuting_labels``, and then, triple by triple,
    the rows of each triple's three-row RREF (``_triple_block``) moved
    onto its pairs are fed, but for the triples whose rows the plan
    already settles (``_unsettled_triples``), so the unique RREF,
    ``nullspace``, ``dim_E`` and every basis are those of the paper's
    rows.

    Raises ``SystemTooLargeError`` before generating any row or block
    (``check_budget``).  A triple's three-row system has no more candidate
    rows and slots than ``lam``'s, so no block is ever refused.
    """
    validate_prime(p)
    size = check_budget(lam)
    plan = _commuting_classes(lam, p)
    forest, long_rows, _live = _settle(lam, p, size, plan, _commuting_labels(lam, plan)[0])
    rows, tags = _slot_rows(lam, forest, long_rows)
    return RelationSystem(lam, p, size, tuple(rows), tuple(tags))


def check_budget(lam: Partition) -> int:
    """The slot count V of ``lam``; ``SystemTooLargeError`` past ``MAX_CELLS`` rows x slots."""
    size = slot_count(lam)
    cells = _candidate_row_count(lam) * size
    if cells > MAX_CELLS:
        raise SystemTooLargeError(
            f"relation system for {lam} has {cells} candidate cells "
            f"(rows x slots), above the budget of {MAX_CELLS}"
        )
    return size


@lru_cache(maxsize=1024)
def _triple_block(a: int, b: int, c: int, p: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The RREF of the three-row system of (a, b, c) at p, one row per pivot, split by pair.

    ``_echelon(build_relation_system(Partition((a, b, c)), p))`` in
    ascending pivot order, each row as its entries: the pivot first with
    coefficient 1, then its free columns in ascending order; ``_echelon``
    reduces the long rows alone and reads the zero and link rows off.
    Columns are the three-row system's slot positions: pair (1, 2) at
    0..b-1, (1, 3) at b..b+c-1 and (2, 3) at b+c..b+2c-1.  Each entry is
    split into (pair, index, coefficient), with pair 0, 1 or 2 for (1, 2),
    (1, 3) and (2, 3) and index its column less that pair's first, so a
    caller moves it onto the slot of its pair's first plus index.
    Memoised per process, at most 1024 blocks; a block has at most b + 2c
    rows, and a row's entries other than its pivot lie on the block's free
    columns.
    """
    echelon = _echelon(build_relation_system(Partition((a, b, c)), p))

    def split(col: int, coef: int) -> tuple[int, int, int]:
        if col < b:
            return 0, col, coef
        return (1, col - b, coef) if col < b + c else (2, col - b - c, coef)

    return tuple(
        (split(pivot, 1), *(split(col, coef) for col, coef in sorted(echelon[pivot].items())))
        for pivot in sorted(echelon)
    )


def _echelon(system: RelationSystem) -> dict[int, dict[int, int]]:
    """The RREF of the system's rows as {pivot column: {free column: coef}}.

    A ``build_relation_system`` result is nearly one (``_slot_rows``): a
    few long rows, then one zero or link row per slot v that is not a
    live root (the root of a tree not marked zero).  Only the long rows,
    those before the first "zero" or "link" tag, are reduced, to R
    (``_reduce``).  Each other row is then its own pivot row: y_v = 0
    gives {}, and y_v + c * y_root gives {root: c}, or, when the root is a
    pivot of R, {f: -c * R[root][f]} over R's row of the root.  This is
    the unique RREF of all the rows:

    * Each zero or link row has a term on its own slot v, which is not a
      live root: it lies in a zero tree, or it is not a root.
    * No other row has a term on v.  Each slot has at most one zero or
      link row; a link row's other term is on a live root; and the long
      rows, moved onto the final roots with their terms on zero trees
      dropped, lie on live roots only, and so do the rows of R.
    * So in a combination of the rows that sums to 0, the coefficient of
      v's row is the entry of the sum on v, which is 0, and what is left
      combines the long rows alone.  Hence the rank is the number of zero
      and link rows plus the rank of the long rows, which ``dim_E``
      counts on the settled forest without writing a row.
    * Each row above has 1 on its pivot and 0 on every other pivot.  A
      short row's pivot v is its smallest column, as a root is the largest
      slot of its tree and R's rows lie after their pivots; its other
      entries are on live roots that are not pivots of R; and R's rows lie
      on live roots, so on no short pivot.  The rows span the system's
      rows, and a row space has one RREF.

    Precondition: a ``build_relation_system`` result, or a system with no
    zero or link row, like the paper's rows, which is reduced whole.
    """
    p, rows, tags = system.p, system.rows, system.row_tags
    long = next((k for k, tag in enumerate(tags) if tag[0] in ("zero", "link")), len(tags))
    rref = _reduce(rows[:long], p)
    for row in rows[long:]:
        v, root = min(row), max(row)
        if root == v:
            rref[v] = {}
        elif root in rref:
            c = row[root]
            rref[v] = {f: -c * coef % p for f, coef in rref[root].items()}
        else:
            rref[v] = {root: row[root]}
    return rref


def _reduce(rows: tuple[dict[int, int], ...], p: int) -> dict[int, dict[int, int]]:
    """The RREF of ``rows`` over F_p as {pivot column: {free column: coef}}.

    Exact sparse Gauss-Jordan over F_p.  Each row in turn has the running
    RREF substituted for its pivot columns; a surviving row becomes the
    pivot row of its smallest column, scaled so that column holds 1 (kept
    implicit), and that column is cleared from the earlier pivot rows that
    hold it.  A pivot row thus never has an entry on another pivot column,
    and the result is the unique RREF of the row space.  Keys are in the
    order the pivots were found.  Memory is at most one sparse row per
    column.
    """
    rref: dict[int, dict[int, int]] = {}
    for sparse in rows:
        row = sparse.copy()
        for col in [col for col in sparse if col in rref]:
            _subtract(row, row.pop(col), rref[col], p)
        if not row:
            continue
        lead = min(row)
        scale = row.pop(lead)
        if scale != 1:
            inv = pow(scale, p - 2, p)
            row = {col: coef * inv % p for col, coef in row.items()}
        for earlier in rref.values():
            if lead in earlier:
                _subtract(earlier, earlier.pop(lead), row, p)
        rref[lead] = row
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
    column c, so identical inputs always produce identical bases.  Only
    the columns the basis holds are named, in one walk over the pairs
    along those columns, ascending.
    """
    p, lam = system.p, system.lam
    rref = _echelon(system)
    basis = {col: {col: 1} for col in range(system.num_slots) if col not in rref}
    for pivot, row in rref.items():
        for col, coef in row.items():
            basis[col][pivot] = -coef % p
    cols = sorted(set().union(*basis.values()))
    names = {}
    k = start = 0  # slot (r, s, i) is at start + i - 1
    for r in range(1, lam.n + 1):
        for s in range(r + 1, lam.n + 1):
            end = start + lam.parts[s - 1]
            while k < len(cols) and cols[k] < end:
                names[cols[k]] = SlotIndex._make((r, s, cols[k] - start + 1))
                k += 1
            start = end
    return [
        MultiSequence(lam, p, tuple((names[col], vec[col]) for col in sorted(vec)))
        for vec in basis.values()
    ]


def dim_E(lam: Partition, p: int) -> int:
    """Dimension of the space of coherent multi-sequences, counted on the gain graph.

    V less the rank of the rows ``build_relation_system`` would write,
    read off the ``_settle``d forest before any row is written.  That
    rank is the number of zero and link rows plus the rank of the long
    rows (``_echelon`` proves it).  Every slot that is not a live root
    gets exactly one zero or link row, so there are V - live of them,
    and the long rows are reduced as ``_slot_rows`` would write them,
    moved onto the final roots.  So this is live less the rank of those
    rows.  When the (C) relations alone leave one live root, V less the
    rank of the heads pass ``_commuting_classes``, ``_settle`` would feed
    no row, so that 1 is returned before any forest is built; the plan's
    label and sizes are not built (``_commuting_labels`` runs only on the
    way to ``_settle``).
    """
    return _dim_E(lam, p)[0]


def _dim_E(lam: Partition, p: int) -> tuple[int, list[Sequence[int]]]:
    """(``dim_E``, the Kummer listings of its ``_commuting_classes``, empty below four rows)."""
    validate_prime(p)
    size = check_budget(lam)
    plan = _commuting_classes(lam, p)
    live = size - plan[0]
    if live > 1:
        forest, long_rows, live = _settle(lam, p, size, plan, _commuting_labels(lam, plan)[0])
        live -= len(_reduce([forest.move(row.items()) for _tag, row in long_rows], p))
    return live, plan[1]


def ext1_dim_oracle(lam: Partition, p: int) -> int:
    """dim of the first extension group: dim_E, less one unless H^0 is 1.

    The standard multi-sequence solves every relation; when it is nonzero
    (``_h0`` is 0) it spans the part of E that is not an extension, so
    this is ``dim_E`` less 1 - ``_h0``.  No ``RelationSystem`` is built.
    ``_h0`` is 1 iff no Kummer listing L_q is nonempty, and from four rows
    on the (C) plan of ``dim_E`` already holds every L_q, so H^0 is read
    off those and the digits of each pair are scanned once; below four
    rows the plan lists nothing and ``_h0`` lists them.
    """
    dim, listings = _dim_E(lam, p)
    return dim - 1 + (_h0(lam, p) if lam.n < 4 else not any(listings))


def _rows_hold(lam: Partition, entries: Sequence[tuple[tuple[int, int, int], int]], p: int) -> bool:
    """True iff every (E), (T1), (T2), (T3a) and (T3b) row of ``lam`` holds on ``entries``.

    ``entries`` are the nonzero slots of a vector, ((r, s, i), value) in
    canonical slot order with values nonzero mod p; every other slot is
    0.  Only the rows with a term on a slot of ``entries`` are evaluated
    (``_tags_touching``): every other row sums zero values and holds,
    whatever its coefficients.  A (T3a) or (T3b) row whose binomial
    C(a+i, h) on a slot is 0 mod p (by Lucas's theorem, some digit of h
    exceeds that of a+i) has no term on that slot, so the slot does not
    bring the row in.  Each evaluated row walks all of its ``_row_terms``
    and sums those on slots of ``entries``.  A row is read at the first
    slot of ``entries`` it has a term on: ``_tags_touching`` yields it
    for every slot of its terms, so a term on an earlier slot means the
    row was read there, and it is skipped without a record of the rows
    read.  So the walk costs in proportion to the rows touching the
    slots and their terms, not to the whole system, and its memory does
    not grow with them.
    """
    offsets = _pair_offsets(lam)
    support = {offsets[r][s] + i: value for (r, s, i), value in entries}  # canonical position + 1
    for (x, y, m), _value in entries:
        here = offsets[x][y] + m
        for tag in _tags_touching(lam, (x, y, m), p):
            total = 0
            for r, s, i, sign, a1, b1, a2, b2 in _row_terms(lam, tag, p):
                pos = offsets[r][s] + i
                if pos in support:
                    if pos < here:
                        break  # read at that earlier slot
                    total += support[pos] * _coefficient(p, sign, a1, b1, a2, b2)
            else:
                if total % p:
                    return False
    return True


def _local_entries(*flats: tuple[int, ...]) -> list[tuple[tuple[int, int, int], int]]:
    """Restrictions (i, value, i, value, ...) on local pairs (1, 2), (1, 3), (2, 3) as entries."""
    return [
        (pair + (flat[k],), flat[k + 1])
        for pair, flat in zip(((1, 2), (1, 3), (2, 3)), flats)
        for k in range(0, len(flat), 2)
    ]


def _local_rows_hold(lam: Partition, entries: Sequence[tuple[SlotIndex, int]], p: int) -> bool:
    """``_rows_hold(lam, entries, p)``, triple by triple once keys repeat.

    Every (E) row lies on one pair r < s, and every (T) row on one triple
    r < s < t, with terms on its pairs (r, s), (r, t) and (s, t) only; a
    row's coefficients read only the parts of its rows (``_row_terms``).
    Moved onto local rows 1, 2, 3, a (T) row of the triple is a row of
    the three-row system of (part_r, part_s, part_t), and an (E) row of a
    pair is an (E) row of that system for each triple that holds the
    pair.  Conversely every row of a triple's three-row system is a row
    of ``lam``, moved, as ``_settle`` argues for its triple blocks.  With
    three rows or more every pair lies in a triple, so the rows of
    ``lam`` hold exactly when, on each triple, the three-row system holds
    on the vector's restriction to the triple's three pairs, moved onto
    the local rows.  A zero restriction satisfies every row, so only the
    triples that meet the support count: every (E) row of a pair of the
    support is a row of each triple that holds the pair, and each such
    triple meets the support and is visited.  Each local verdict is fixed
    by its key, (part_r, part_s, part_t, three restrictions), and each
    distinct key is checked once, by ``_rows_hold`` on the three-row
    partition with every family included.  The keys checked are kept in
    a set that lives for this call.  Triples are streamed: each is
    visited from the first of its pairs in the support, in canonical
    order.

    A local check costs a set-up that the whole walk does not pay, and
    with no key repeated the local checks read the same rows as it.  So
    they run only when the support's pairs outnumber their distinct keys
    by four or more, and ``lam`` is walked whole otherwise.  Measured on
    the witnesses of four rows or more of the acceptance range (best of
    30 calls each, 2-core Xeon), the local checks made those with one or
    two repeats up to 2.2x slower, and those of more than four slots with
    four repeats or more from as fast to 12x faster.  Four repeats need
    five pairs of the support, so ``is_coherent`` sends no vector of four
    slots or fewer here.
    """
    parts, n = lam.parts, lam.n
    flats: dict[tuple[int, int], list[int]] = {}
    for (r, s, i), value in entries:
        flat = flats.get((r, s))
        if flat is None:
            flats[r, s] = flat = []
        flat += (i, value)
    restriction = {pair: tuple(flat) for pair, flat in flats.items()}
    keys = {(parts[r - 1], parts[s - 1], flat) for (r, s), flat in restriction.items()}
    if len(restriction) - len(keys) < 4:
        return _rows_hold(lam, entries, p)
    get = restriction.get
    checked: set[tuple] = set()
    for x, y in restriction:
        # The triples whose first pair in the support is (x, y): every
        # (x, y, t), each (x, s, y) unless (x, s) is in it, and each
        # (r, x, y) unless (r, x) or (r, y) is.
        triples = [(x, y, t) for t in range(y + 1, n + 1)]
        triples += [(x, s, y) for s in range(x + 1, y) if (x, s) not in restriction]
        triples += [
            (r, x, y) for r in range(1, x) if not ((r, x) in restriction or (r, y) in restriction)
        ]
        for r, s, t in triples:
            key = (parts[r - 1], parts[s - 1], parts[t - 1])
            key += (get((r, s), ()), get((r, t), ()), get((s, t), ()))
            if key in checked:
                continue
            checked.add(key)
            if not _rows_hold(Partition(key[:3]), _local_entries(*key[3:]), p):
                return False
    return True


def is_coherent(ms: MultiSequence, lam: Partition, p: int) -> bool:
    """True iff the multi-sequence satisfies every relation row.

    The (E), (T1), (T2), (T3a) and (T3b) rows go first.  With at most
    three rows ``_rows_hold`` walks them whole: only the rows with a term
    on a nonzero slot of ``ms`` are evaluated, each once, at the first
    nonzero slot it has a term on, with no record of the rows read.  That
    is the full check, as every other row sums zero values; it costs in
    proportion to those rows and their terms, and its memory does not
    grow with them.  With four rows or more ``_local_rows_hold`` checks
    the same rows triple by triple, each triple's (E) and (T) rows in its
    three-row system and each distinct local restriction once per call,
    where the support's pairs repeat their keys often enough, and walks
    them whole otherwise; why the two checks agree, and the rule, are
    there.  (C) is then checked on the support alone, as the per-pair
    label of ``_commuting_labels`` states it, one lookup per slot: no
    slot of the support may lie on a pair labelled 0, or on a class's
    head where std is 0; and the support's slots on the heads of one
    class must share one value of y / std and number |K|, the class's
    size, or none.  That is one binomial per slot of the support on a
    class.
    Raises ``ValueError`` unless ``ms`` is a multi-sequence of ``lam`` at
    ``p``.
    """
    validate_prime(p)
    if (ms.lam, ms.p) != (lam, p):
        raise ValueError(
            f"multi-sequence of {ms.lam} at p={ms.p} checked against {lam} at p={p}"
        )
    entries = ms.entries
    walk = _local_rows_hold if len(entries) > 4 and lam.n > 3 else _rows_hold
    if not walk(lam, entries, p):
        return False
    label, sizes = _commuting_labels(lam, _commuting_classes(lam, p))
    held: dict[int, list[int]] = {}  # class bit -> [its support slots, y and std at the first]
    parts = lam.parts
    for (q, r, j), value in entries if label else ():
        bit = label[q][r]
        if bit < 0:
            continue
        std = _binom_mod_p(parts[q - 1] + j, j, p) if bit else 0
        if not std:
            return False  # a zero slot
        record = held.setdefault(bit, [0, value, std])
        if (value * record[2] - record[1] * std) % p:
            return False
        record[0] += 1
    return all(seen == sizes[bit.bit_length() - 1] for bit, (seen, _y, _std) in held.items())
