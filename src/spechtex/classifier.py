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

from .coherence import MultiSequence, SlotIndex, is_coherent, multisequence_from_slots
from .padic import _len_p, _val_p, digit_p, validate_prime
from .partitions import (
    JAMES,
    POINTED,
    SPLIT,
    Partition,
    _is_james_pair,
    classify_two_part,
    is_james_partition,
    james_index,
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


def canonical_multisequence(lam: Partition, p: int) -> MultiSequence:
    """The nonzero coherent multi-sequence carried by every James partition.

    Obtained from the integer standard multi-sequence by dividing out the
    James index power p**JI before reducing mod p.  In closed form the
    slot (r, s, i) is ((part_r)_{v_r} + 1) / t when v_r - l_s equals the
    James index and i = t * p**l_s, and 0 otherwise; t <= part_s // p**l_s
    < p, so every such slot is nonzero.
    """
    ji = james_index(lam, p)  # validates p, rejects short or non-James input
    lens = [row_len(lam, s, p) for s in range(1, lam.n + 1)]
    entries = []
    for r in range(1, lam.n):
        vr = row_val(lam, r, p)
        num = lam.part(r) // p**vr % p + 1  # digit v_r of part_r, plus one
        for s in range(r + 1, lam.n + 1):
            ls = lens[s - 1]
            if vr - ls != ji:
                continue
            step = p**ls
            for t in range(1, lam.part(s) // step + 1):
                entries.append((SlotIndex(r, s, t * step), num * pow(t, p - 2, p) % p))
    return MultiSequence(lam, p, tuple(entries))


def _verified(witness: MultiSequence, lam: Partition, p: int) -> MultiSequence:
    if witness.is_zero():
        raise RuntimeError(f"witness for {lam} at p={p} is zero")
    if not is_coherent(witness, lam, p):
        raise RuntimeError(f"witness for {lam} at p={p} fails the coherence relations")
    return witness


def _rule_3(a: int, b: int, c: int, p: int):
    """Rule R3: split case 3 and pointed case 2.  Witness slots or None.

    With v = val_p(a+1) and gamma = len_p(c): gamma > v,
    val_p(b+1-p**v) = gamma, c - p**gamma < p**v and
    len_p(b + p**gamma) < val_p(a+p**v+1).  Split case 3 also asks
    v = w, which val_p(b+1-p**v) = gamma > v forces.  Pointed case 2
    (beta = gamma > v = w and len_p(b+p**beta) < val_p(a+p**v+1)) is this
    rule: for b = b_hat + p**beta either side forces b_hat = p**v - 1 and
    gamma = beta, and digit_beta(b) = 1.
    """
    v = _val_p(a + 1, p)
    gamma = _len_p(c, p)
    pv, pg = p**v, p**gamma
    if (
        gamma > v
        and _val_p(b + 1 - pv, p) == gamma
        and c - pg < pv
        and _len_p(b + pg, p) < _val_p(a + pv + 1, p)
    ):
        return {(1, 2, pv): 1, (2, 3, pg): -digit_p(b, gamma, p)}
    return None


def _rule_5(a: int, b: int, c: int, p: int):
    """Rule R5: split cases 4 and 5 and pointed case 5.  Witness slots or None.

    With v = val_p(a+1), w = val_p(b+1) and gamma = len_p(c): gamma = v,
    c - p**v < p**min(v, w) and len_p(b + p**v) < val_p(a+p**v+1).
    Implied, so not tested:
    * split case 5's v > w: when v = w, split case 2 fires first, since
      c < 2 p**v gives digit_v(c) = 1;
    * split case 4's is_james_pair(a + p**v, b): len_p(x) < V gives
      x < p**V; and its digit_gamma(c) = 1 is the p**min(v, w) bound, as
      gamma = v < w there;
    * pointed case 5's v > w: when v = w, pointed case 1 fires first; and
      its val_p(a+p**v+1) > beta is the length test, as
      len_p(b + p**v) = beta when b_hat + p**v < p**beta.
    """
    v = _val_p(a + 1, p)
    pv = p**v
    if (
        _len_p(c, p) == v
        and c - pv < p ** min(v, _val_p(b + 1, p))
        and _len_p(b + pv, p) < _val_p(a + pv + 1, p)
    ):
        return {(2, 3, pv): 1, (1, 3, pv): -1}
    return None


def _split_head_case(a: int, b: int, c: int, p: int):
    """Cases 1, 2, 3 (R3) and 5 (R5) for a split head (a, b) over a non-James tail.

    Returns (case number, witness slots) or None.  Every case requires
    (a + p**v, b) to be James; R3 and R5 imply it.  With v = val_p(a+1),
    w = val_p(b+1) and gamma = len_p(c), the tail is James iff
    c < p**w, that is iff gamma < w; so here gamma >= w.  Implied, so
    not tested:
    * case 1's gamma >= v = w: if v != w then
      val_p(b+1-p**v) = min(v, w) <= w <= gamma;
    * case 2's digit_v(b) != 0: when v = w and that digit is 0,
      val_p(b+1-p**v) > v = gamma, so case 1 already fired.  At p = 2,
      v = w forces digit_v(b) = 0, so case 2 never fires there.
    """
    v = _val_p(a + 1, p)
    pv = p**v
    if not _is_james_pair(a + pv, b, p):
        return None
    gamma = _len_p(c, p)
    if _val_p(b - pv + 1, p) > gamma:
        return 1, {(1, 2, pv): 1}
    if gamma == v == _val_p(b + 1, p) and digit_p(c, v, p) == 1:
        return 2, {(1, 2, pv): 1, (1, 3, pv): -digit_p(b, v, p)}
    if (slots := _rule_3(a, b, c, p)) is not None:
        return 3, slots
    if (slots := _rule_5(a, b, c, p)) is not None:
        return 5, slots
    return None


def _pointed_head_case(a: int, b: int, c: int, p: int, beta: int):
    """Cases 1, 2 (R3), 3 and 5 (R5) for a pointed head (a, b) over a non-James tail.

    Returns (case number, witness slots) or None.  A pointed head
    b = b_hat + p**beta with b_hat < p**v < p**beta has w <= v:
    b + 1 = (b_hat + 1) + p**beta with b_hat + 1 <= p**v, so
    val_p(b+1) = val_p(b_hat+1) <= v.  Case 4 (v >= w > gamma, witness
    {(1,2,p**beta): 1}) therefore asks only for a James tail, and over a
    James tail the pair is decided by ``ext1_dim``'s pointed-pair rule,
    which at r = 1 is that case.  Implied, so not tested:
    * case 1's gamma >= v: gamma >= w (non-James tail) and w = v;
    * case 3's beta = gamma > v: beta > v by definition, and beta > gamma
      with v = w means case 1 failed, so
      val_p(a+p**v+p**beta+1) < beta <= len_p(b + p**beta).
    """
    v = _val_p(a + 1, p)
    v_is_w = v == _val_p(b + 1, p)
    pv, pb = p**v, p**beta
    if v_is_w and beta > _len_p(c, p) and _val_p(a + pv + 1, p) >= beta:
        return 1, {(1, 2, pv): 1}
    if (slots := _rule_3(a, b, c, p)) is not None:
        return 2, slots
    if v_is_w and _len_p(b + pb, p) < _val_p(a + pv + pb + 1, p):
        return 3, {(1, 2, pv): 1, (2, 3, pb): -1, (1, 3, pb): 1}
    if (slots := _rule_5(a, b, c, p)) is not None:
        return 5, slots
    return None


def triple_verdict(a: int, b: int, c: int, p: int) -> Classification:
    """``ext1_dim`` on the partition (a, b, c), a >= b >= c >= 1.

    The triple is non-split exactly when the result carries a witness.
    """
    return ext1_dim(Partition((a, b, c)), p)


def _quadruple_conditions(lam: Partition, p: int, r: int) -> bool:
    """Digit conditions on rows (r, r+1, r+2) for the only four-row case.

    ``ext1_dim`` asks this only when rows r+3..n form a James partition
    and the non-James pairs are neither [r] nor [r, r+1], so pair r+2 is
    non-James; the conditions make pair r+1 non-James too.  Implied, so
    not tested: r < n - 2, as pair r+2 exists; digit_v(part_{r+1}) != 0,
    which is p - 2 for odd p; and p**v <= part_{r+3} < 2 p**v, since
    part_{r+3} <= part_{r+2} = 2 p**v - 1 and, pair r+2 being non-James,
    part_{r+3} >= p**val_p(2 p**v), which is p**v for odd p.  At p = 2 the
    case never fires: (2 p**v - 1, part_{r+3}) is always James.
    """
    v = row_val(lam, r, p)
    pv = p**v
    top_len = row_len(lam, r + 1, p)
    if (lam.part(r) + pv + 1) % p ** (top_len + 1):
        return False
    if (lam.part(r + 1) + pv + 1) % p ** (v + 1):
        return False
    return lam.part(r + 2) == 2 * pv - 1


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

    The split-pair rule (only pair r non-James, split) is R5, refused when
    l_{r+3} >= l_{r+2}.  That refusal can only matter at p = 2: for odd p,
    R5 gives c = part_{r+2} < 2 p**gamma, but a James pair (c, part_{r+3})
    with l_{r+3} >= gamma needs c >= p**(gamma+1) - 1.
    """
    validate_prime(p)
    h1_exact = p != 2
    if lam.n <= 1:
        return Classification(p, lam, 1, 0, h1_exact, "trivial", None)
    njp = non_james_pairs(lam, p)
    if not njp:
        witness = _verified(canonical_multisequence(lam, p), lam, p)
        return Classification(
            p, lam, 1, james_ext_dim(lam, p), h1_exact, "james", witness
        )

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
            case_tag, slots = "split-pair/split-head-4", _rule_5(*rows, p)
            if r < n - 2 and row_len(lam, r + 3, p) >= row_len(lam, r + 2, p):
                slots = None
        elif head.kind == POINTED and (
            r == 1 or row_val(lam, r - 1, p) > _len_p(lam.part(r) + p**head.beta, p)
        ):
            case_tag, slots = "pointed-pair", {(1, 2, p**head.beta): 1}
    elif njp[-1] <= r + 2 and _quadruple_conditions(lam, p, r):
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
    or pointed two-part partition.  The weights must be ints, not bools.
    """
    validate_prime(p)
    if not type(r) is type(s) is type(t) is type(u) is int:  # no bool, no float
        raise ValueError(f"weights must be ints, got ({r!r}, {s!r}) and ({t!r}, {u!r})")
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
    partition (s + m, m) is James or pointed.  The weights must be ints,
    not bools.
    """
    validate_prime(p)
    if not (type(r) is type(s) is int and r >= 0 and s >= 0):  # no bool, no float
        raise ValueError(f"sl2 weights must be non-negative ints, got ({r!r}, {s!r})")
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
