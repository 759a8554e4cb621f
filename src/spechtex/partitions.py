"""Partitions, James pair predicates, segment combinatorics and enumeration.

A two-part partition ``(a, b)`` is *James* when ``b < p**val_p(a+1)``,
equivalently when every binomial ``C(a+i, i)`` vanishes mod p for
``1 <= i <= b``.  A partition is James when all consecutive pairs are;
length <= 1 counts as James by convention.  Non-James two-part shapes
further split into *pointed* (``b = b_hat + p**beta`` with
``b_hat < p**v < p**beta``) and *split*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .padic import len_p, val_p, validate_prime

JAMES = "james"
POINTED = "pointed"
SPLIT = "split"


class InvalidPartitionError(ValueError):
    """The part list is not weakly decreasing and non-negative."""


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts; the empty partition is allowed."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        for k, part in enumerate(self.parts):
            if part < 1:
                raise InvalidPartitionError(f"part {part} at index {k} is not positive")
            if k and self.parts[k - 1] < part:
                raise InvalidPartitionError(
                    f"parts {self.parts[k - 1]}, {part} are not weakly decreasing"
                )

    @property
    def n(self) -> int:
        """Number of parts."""
        return len(self.parts)

    @property
    def d(self) -> int:
        """Degree, the sum of the parts."""
        return sum(self.parts)

    def part(self, r: int) -> int:
        """The r-th part, 1-indexed."""
        if not 1 <= r <= len(self.parts):
            raise IndexError(f"row {r} out of range for {self}")
        return self.parts[r - 1]

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.parts) + ")"


def new_partition(parts: list[int] | tuple[int, ...]) -> Partition:
    """Canonical Partition from a weakly decreasing list; trailing zeros stripped."""
    cleaned = list(parts)
    while cleaned and cleaned[-1] == 0:
        cleaned.pop()
    return Partition(tuple(cleaned))


def row_val(lam: Partition, r: int, p: int) -> int:
    """v_r = val_p(part_r + 1)."""
    return val_p(lam.part(r) + 1, p)


def row_len(lam: Partition, r: int, p: int) -> int:
    """l_r = len_p(part_r)."""
    return len_p(lam.part(r), p)


def is_james_pair(a: int, b: int, p: int) -> bool:
    """True iff (a, b) is a James pair: b < p**val_p(a+1).

    ``b == 0`` is rejected; callers treat a missing second part as
    vacuously James.
    """
    validate_prime(p)
    if b < 1:
        raise ValueError("is_james_pair requires b >= 1")
    if a < b:
        raise ValueError("is_james_pair requires a >= b")
    return b < p ** val_p(a + 1, p)


def is_james_partition(lam: Partition, p: int) -> bool:
    """True iff every consecutive pair of rows is James (length <= 1: True)."""
    validate_prime(p)
    return all(
        is_james_pair(lam.part(r), lam.part(r + 1), p) for r in range(1, lam.n)
    )


def non_james_pairs(lam: Partition, p: int) -> list[int]:
    """Sorted indices r with (part_r, part_{r+1}) not a James pair."""
    validate_prime(p)
    return [
        r
        for r in range(1, lam.n)
        if not is_james_pair(lam.part(r), lam.part(r + 1), p)
    ]


@dataclass(frozen=True)
class TwoPartClass:
    """Trichotomy of a two-part partition: james, pointed or split.

    For the pointed case ``beta`` is the p-length of b and
    ``b_hat = b - p**beta``; both are None otherwise.
    """

    kind: str
    beta: int | None = None
    b_hat: int | None = None


def classify_two_part(a: int, b: int, p: int) -> TwoPartClass:
    """Classify (a, b) with a >= b >= 1 as james / pointed / split."""
    validate_prime(p)
    if not a >= b >= 1:
        raise ValueError(f"classify_two_part requires a >= b >= 1, got ({a}, {b})")
    v = val_p(a + 1, p)
    if b < p**v:
        return TwoPartClass(JAMES)
    beta = len_p(b, p)
    b_hat = b - p**beta
    if b_hat < p**v and beta > v:
        return TwoPartClass(POINTED, beta=beta, b_hat=b_hat)
    return TwoPartClass(SPLIT)


def james_index(lam: Partition, p: int) -> int:
    """Largest k with p**k dividing every C(part_r + j, j), j <= part_{r+1}.

    Computed as min over consecutive rows of v_r - l_{r+1}; defined for
    James partitions with at least two rows.
    """
    validate_prime(p)
    if lam.n < 2:
        raise ValueError("james_index requires at least two rows")
    if not is_james_partition(lam, p):
        raise ValueError(f"james_index undefined for non-James partition {lam}")
    return min(
        row_val(lam, r, p) - row_len(lam, r + 1, p) for r in range(1, lam.n)
    )


@dataclass(frozen=True)
class PSegments:
    """Row-index classes under equal p-length, and their adjacency closure.

    ``segments`` partitions {1..n} by l_r = l_s; ``p_segments`` is the
    coarsening generated by joining row r+1 to row r when 1 < r < n,
    the segment of r+1 is the singleton {r+1}, and part_r = p**v_{r-1} - 1.
    Classes are ascending tuples sorted by smallest element.
    """

    segments: tuple[tuple[int, ...], ...]
    p_segments: tuple[tuple[int, ...], ...]


def p_segments(lam: Partition, p: int) -> PSegments:
    """Segments and p-segments of a James partition with n >= 1 rows."""
    validate_prime(p)
    if lam.n < 1:
        raise ValueError("p_segments requires at least one row")
    if not is_james_partition(lam, p):
        raise ValueError(f"p_segments undefined for non-James partition {lam}")
    n = lam.n
    lens = [row_len(lam, r, p) for r in range(1, n + 1)]

    # l is weakly decreasing, so equal-length classes are contiguous runs.
    segments: list[list[int]] = [[1]]
    for r in range(2, n + 1):
        if lens[r - 1] == lens[r - 2]:
            segments[-1].append(r)
        else:
            segments.append([r])
    # A join needs the segment of r+1 to be {r+1}, so r ends the segment
    # before it: every join merges two consecutive segments.
    p_segs: list[list[int]] = []
    for seg in segments:
        r = seg[0] - 1
        if len(seg) == 1 and r >= 2 and lam.part(r) == p ** row_val(lam, r - 1, p) - 1:
            p_segs[-1].extend(seg)
        else:
            p_segs.append(list(seg))
    return PSegments(
        segments=tuple(tuple(seg) for seg in segments),
        p_segments=tuple(tuple(cls) for cls in p_segs),
    )


def enumerate_partitions(d: int, max_parts: int) -> Iterator[Partition]:
    """All partitions of d with at most max_parts parts, lex decreasing."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    if max_parts < 1:
        raise ValueError("max_parts must be positive")

    def gen(remaining: int, cap: int, slots: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        lowest = -(-remaining // slots)
        for first in range(min(remaining, cap), lowest - 1, -1):
            for rest in gen(remaining - first, first, slots - 1):
                yield (first,) + rest

    for parts in gen(d, d if d else 1, max_parts):
        yield Partition(parts)
