"""Closed-form dimensions of fixed points and first extension groups.

The fixed-point dimension is 1 exactly for James partitions.  For the
first extension group the classification splits into:

* James partitions: the dimension is the p-segment count, minus one when
  the top two rows have different p-lengths (at most n - 1 overall);
* non-James partitions: the dimension is 0 or 1, decided by a case table
  on the first non-James pair (a, b) and the row c below it, whose half
  is picked by whether the tail pair (b, c) is James, or by one
  four-row case.

Every non-split verdict constructs an explicit witness multi-sequence
and verifies it against the coherence relations before returning.  For
p = 2 the reported extension dimension is a lower bound for the symmetric
group cohomology; for odd p it is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coherence import (
    MultiSequence,
    canonical_multisequence,
    is_coherent,
    multisequence_from_slots,
)
from .padic import digit_p, len_p, val_p, validate_prime
from .partitions import (
    JAMES,
    POINTED,
    SPLIT,
    Partition,
    classify_two_part,
    is_james_pair,
    is_james_partition,
    non_james_pairs,
    p_segments,
    row_len,
    row_val,
)


@dataclass(frozen=True)
class Classification:
    """Full report for one (p, partition) instance.

    ``h1_exact`` records whether the extension dimension equals the
    symmetric group cohomology dimension (true iff p is odd; for p = 2
    it is only a lower bound).
    """

    p: int
    lam: Partition
    h0: int
    ext1_dim: int
    h1_exact: bool
    case_tag: str
    witness: MultiSequence | None


def h0_dim(lam: Partition, p: int) -> int:
    """1 iff the partition is James, else 0."""
    return 1 if is_james_partition(lam, p) else 0


def james_ext_dim(lam: Partition, p: int) -> int:
    """Extension dimension of a James partition via p-segment counting.

    The count of p-segments, lowered by one when l_1 > l_2; partitions
    with fewer than two rows have dimension 0.
    """
    validate_prime(p)
    if not is_james_partition(lam, p):
        raise ValueError(f"james_ext_dim undefined for non-James partition {lam}")
    if lam.n <= 1:
        return 0
    count = len(p_segments(lam, p).p_segments)
    if row_len(lam, 1, p) > row_len(lam, 2, p):
        return count - 1
    return count


def _verified(witness: MultiSequence, lam: Partition, p: int) -> MultiSequence:
    if witness.is_zero():
        raise RuntimeError(f"witness for {lam} at p={p} is zero")
    if not is_coherent(witness, lam, p):
        raise RuntimeError(f"witness for {lam} at p={p} fails the coherence relations")
    return witness


def _split_head_case(a: int, b: int, c: int, p: int):
    """Cases 1, 2, 3, 5 for a split head (a, b) over a non-James tail (b, c).

    Returns (case number, witness slots) or None.  All cases additionally
    require (a + p**v, b) to be James.  With v = val_p(a+1),
    w = val_p(b+1) and gamma = len_p(c), the tail is James iff c < p**w,
    that is iff gamma < w; so here gamma >= w, and case 4 (gamma = v < w)
    lives in ``_split_pair_case``.  Case 2 needs p >= 3: when w = v the
    digits of b + 1 below v are 0 and digit_v(b+1) >= 1, so
    digit_v(b) = digit_v(b+1) - 1 <= p - 2, and at p = 2 its condition
    digit_v(b) != 0 fails.
    """
    v = val_p(a + 1, p)
    w = val_p(b + 1, p)
    gamma = len_p(c, p)
    pv = p**v
    if not is_james_pair(a + pv, b, p):
        return None
    if gamma >= v == w and val_p(b - pv + 1, p) > gamma:
        return 1, {(1, 2, pv): 1}
    if gamma == v == w and digit_p(b, v, p) != 0 and digit_p(c, v, p) == 1:
        return 2, {(1, 2, pv): 1, (1, 3, pv): -digit_p(b, v, p)}
    if (
        gamma > v == w
        and val_p(b - pv + 1, p) == gamma
        and c - p**gamma < pv
        and len_p(b + p**gamma, p) < val_p(a + pv + 1, p)
    ):
        return 3, {(1, 2, pv): 1, (2, 3, p**gamma): -digit_p(b, gamma, p)}
    if (
        gamma == v > w
        and c - pv < p**w
        and len_p(b + pv, p) < val_p(a + pv + 1, p)
    ):
        return 5, {(2, 3, pv): 1, (1, 3, pv): -1}
    return None


def _split_pair_case(a: int, b: int, c: int, p: int):
    """Split case 4, the only one for a split head (a, b) over a James tail.

    Returns the witness slots or None.  The tail is James, so
    gamma = len_p(c) < w = val_p(b+1); cases 1-3 need gamma >= v = w and
    case 5 needs gamma = v > w, so only case 4 (gamma = v < w) can fire.
    """
    v = val_p(a + 1, p)
    gamma = len_p(c, p)
    pv = p**v
    if (
        gamma == v
        and digit_p(c, gamma, p) == 1
        and is_james_pair(a + pv, b, p)
        and len_p(b + pv, p) < val_p(a + pv + 1, p)
    ):
        return {(2, 3, pv): 1, (1, 3, pv): -1}
    return None


def _pointed_head_case(a: int, b: int, c: int, p: int, beta: int):
    """Cases 1, 2, 3, 5 for a pointed head (a, b) over a non-James tail (b, c).

    Returns (case number, witness slots) or None.  A pointed head
    b = b_hat + p**beta with b_hat < p**v < p**beta has w <= v:
    b + 1 = (b_hat + 1) + p**beta with b_hat + 1 <= p**v, so
    val_p(b+1) = val_p(b_hat+1) <= v.  Case 4 (v >= w > gamma, witness
    {(1,2,p**beta): 1}) therefore asks only for a James tail, and over a
    James tail the pair is decided by ``ext1_dim``'s pointed-pair rule,
    which at r = 1 is that case.
    """
    v = val_p(a + 1, p)
    w = val_p(b + 1, p)
    gamma = len_p(c, p)
    pv = p**v
    pb = p**beta
    if beta > gamma >= v == w and val_p(a + pv + 1, p) >= beta:
        return 1, {(1, 2, pv): 1}
    if beta == gamma > v == w and len_p(b + pb, p) < val_p(a + pv + 1, p):
        return 2, {(1, 2, pv): 1, (2, 3, pb): -1}
    if beta == gamma > v == w and len_p(b + pb, p) < val_p(a + pv + pb + 1, p):
        return 3, {(1, 2, pv): 1, (2, 3, pb): -1, (1, 3, pb): 1}
    if gamma == v > w and val_p(a + pv + 1, p) > beta and c - pv < p**w:
        return 5, {(2, 3, pv): 1, (1, 3, pv): -1}
    return None


def triple_verdict(a: int, b: int, c: int, p: int) -> Classification:
    """``ext1_dim`` on the partition (a, b, c), a >= b >= c >= 1.

    The triple is non-split exactly when the result carries a witness.
    """
    return ext1_dim(Partition((a, b, c)), p)


def _quadruple_conditions(lam: Partition, p: int, r: int) -> bool:
    """Digit conditions on rows (r, ..., r+3) for the only four-row case.

    Requires rows r+3..n to form a James partition; the shape forces the
    three pairs starting at r to be the non-James ones.  Never fires for
    p = 2 because the row r+1 digit at v_r must be p - 2 != 0.
    """
    n = lam.n
    if r >= n - 2:
        return False
    if not is_james_partition(lam.tail(r + 3), p):
        return False
    v = row_val(lam, r, p)
    pv = p**v
    top_len = row_len(lam, r + 1, p)
    if (lam.part(r) + pv + 1) % p ** (top_len + 1):
        return False
    if (lam.part(r + 1) + pv + 1) % p ** (v + 1):
        return False
    if digit_p(lam.part(r + 1), v, p) == 0:
        return False
    if lam.part(r + 2) != 2 * pv - 1:
        return False
    return pv <= lam.part(r + 3) < 2 * pv


def ext1_dim(lam: Partition, p: int) -> Classification:
    """Classify (p, lam): fixed points, extension dimension, case, witness.

    Each non-split case yields witness slots relative to the first
    non-James row r; they are shifted onto rows r.. of ``lam``, built and
    verified once.

    The pointed-pair rule (only pair r non-James, pointed) asks that no
    row q < r have v_q = len_p(part_r + p**beta), beta = l_{r+1}.  Rows
    1..r form a James chain, along which v_q weakly decreases, and
    part_r < p**v_{r-1} with p**beta <= part_{r+1} <= part_r, so that
    length is at most v_{r-1}.  The rule is therefore exactly
    r == 1 or v_{r-1} > len_p(part_r + p**beta).
    """
    validate_prime(p)
    h1_exact = p != 2
    if lam.n <= 1:
        return Classification(p, lam, 1, 0, h1_exact, "trivial", None)
    if is_james_partition(lam, p):
        witness = _verified(canonical_multisequence(lam, p), lam, p)
        return Classification(
            p, lam, 1, james_ext_dim(lam, p), h1_exact, "james", witness
        )

    njp = non_james_pairs(lam, p)
    r = njp[0]
    n = lam.n
    rows = lam.parts[r - 1 : r + 2]
    head = classify_two_part(rows[0], rows[1], p)
    case_tag, slots = "split", None
    if njp == [r, r + 1]:
        # Two adjacent non-James pairs and nothing else: the three rows
        # starting at r decide, the tail (r+1, r+2) being non-James.
        if head.kind == SPLIT:
            kind, hit = "split-head", _split_head_case(*rows, p)
        else:
            kind, hit = "pointed-head", _pointed_head_case(*rows, p, head.beta)
        if hit is not None:
            case, slots = hit
            case_tag = f"adjacent-pairs/{kind}-{case}"
    elif njp == [r]:
        if head.kind == SPLIT and r < n - 1:
            case_tag, slots = "split-pair/split-head-4", _split_pair_case(*rows, p)
            if p == 2 and r < n - 2 and row_len(lam, r + 3, p) >= row_len(lam, r + 2, p):
                slots = None
        elif head.kind == POINTED and (
            r == 1 or row_val(lam, r - 1, p) > len_p(lam.part(r) + p**head.beta, p)
        ):
            case_tag, slots = "pointed-pair", {(1, 2, p**head.beta): 1}
    elif _quadruple_conditions(lam, p, r):
        pv = p ** row_val(lam, r, p)
        case_tag = "quadruple"
        slots = {(1, 3, pv): 1, (2, 4, pv): 1, (2, 3, pv): -1, (1, 4, pv): -1}

    if slots is None:
        return Classification(p, lam, 0, 0, h1_exact, "split", None)
    shifted = {(x + r - 1, y + r - 1, i): value for (x, y, i), value in slots.items()}
    witness = _verified(multisequence_from_slots(lam, p, shifted), lam, p)
    return Classification(p, lam, 0, 1, h1_exact, case_tag, witness)


def gl2_ext_dim(r: int, s: int, t: int, u: int, p: int) -> int:
    """Extension dimension between two-row induced modules of equal degree.

    Nonzero exactly when the difference shape (t - s, u - s) is a James
    or pointed two-part partition.
    """
    validate_prime(p)
    if r + s != t + u:
        raise ValueError(f"weights ({r},{s}) and ({t},{u}) differ in degree")
    if r < s or t < u:
        raise ValueError("weights must be weakly decreasing")
    a, b = t - s, u - s
    if b < 1 or a < b:
        return 0
    return 1 if classify_two_part(a, b, p).kind in (JAMES, POINTED) else 0


_SL2_VERDICTS = {
    JAMES: (1, "james-window"),
    POINTED: (1, "pointed-window"),
    SPLIT: (0, "split"),
}


def sl2_verdict(r: int, s: int, p: int) -> tuple[int, str]:
    """(dimension, reason) for extensions between SL2 symmetric powers.

    Nonzero iff r - s = 2m is a positive even number and the two-part
    partition (s + m, m) is James or pointed.
    """
    validate_prime(p)
    if r < 0 or s < 0:
        raise ValueError("sl2 weights must be non-negative")
    diff = r - s
    if diff <= 0:
        return 0, "non-positive-difference"
    if diff % 2:
        return 0, "parity"
    m = diff // 2
    return _SL2_VERDICTS[classify_two_part(s + m, m, p).kind]


def sl2_ext_dim(r: int, s: int, p: int) -> int:
    """0/1 dimension for SL2 symmetric-power extensions."""
    return sl2_verdict(r, s, p)[0]
