import random
from collections import Counter

import pytest

import spechtex.classifier
import spechtex.padic
from oracles import rref_mod_p
from spechtex.classifier import (
    ext1_dim,
    gl2_ext_dim,
    h0_dim,
    james_ext_dim,
    sl2_ext_dim,
    sl2_verdict,
    triple_verdict,
)
from spechtex.coherence import (
    MultiSequence,
    SlotIndex,
    SystemTooLargeError,
    canonical_slot_order,
    ext1_dim_oracle,
    is_coherent,
    multisequence_from_slots,
    standard_multisequence,
)
from spechtex.partitions import (
    JAMES,
    POINTED,
    SPLIT,
    Partition,
    classify_two_part,
    enumerate_partitions,
    is_james_pair,
    is_james_partition,
    non_james_pairs,
)


def test_james_chains_check_the_prime_a_fixed_number_of_times(monkeypatch):
    # p is checked at the entry points; the per-row helpers below them
    # (row_val, row_len and canonical_multisequence's loops) do not check
    # it again, so a chain twice as long makes no more checks.
    check = spechtex.padic._check_prime
    counts = []
    for n in (12, 24):
        calls = []
        monkeypatch.setattr(spechtex.padic, "_check_prime", lambda p: calls.append(p) or check(p))
        assert ext1_dim(Partition((1,) * n), 2).case_tag == "james"
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_h0_examples():
    assert h0_dim(Partition((2, 1)), 3) == 1
    assert h0_dim(Partition((3, 1)), 3) == 0
    assert h0_dim(Partition((7,)), 5) == 1
    assert h0_dim(Partition(()), 2) == 1


def test_james_ext_dim_examples():
    assert james_ext_dim(Partition((8, 1)), 3) == 1
    assert james_ext_dim(Partition((26, 8, 1)), 3) == 2
    assert james_ext_dim(Partition((2, 2, 2)), 3) == 1
    assert james_ext_dim(Partition((8, 8, 2)), 3) == 1
    assert james_ext_dim(Partition((5,)), 3) == 0


def test_james_ext_dim_rejects_non_james():
    with pytest.raises(ValueError):
        james_ext_dim(Partition((3, 1)), 3)


def test_triple_verdict_all_ones_p3():
    tv = triple_verdict(1, 1, 1, 3)
    assert tv.witness is not None and tv.case_tag == "adjacent-pairs/split-head-2"
    # Witness x_1 = 1, z_1 = -b_0 = -1; y = 0.
    assert dict(tv.witness.nonzero_slots()) == {(1, 2, 1): 1, (1, 3, 1): 2}
    assert is_coherent(tv.witness, Partition((1, 1, 1)), 3)


def test_triple_verdict_2_1_1_p2():
    tv = triple_verdict(2, 1, 1, 2)
    assert tv.witness is not None and tv.case_tag == "split-pair/split-head-4"
    assert ext1_dim_oracle(Partition((2, 1, 1)), 2) == 1


def test_triple_verdict_8_1_1_p3_splits():
    # (8,1) is James but (1,1) is not at p=3, and (1,1) is a split pair,
    # so the triple splits; the oracle agrees.
    assert is_james_pair(8, 1, 3)
    tv = triple_verdict(8, 1, 1, 3)
    assert tv.witness is None
    assert tv.case_tag == "split"
    assert ext1_dim_oracle(Partition((8, 1, 1)), 3) == 0


def test_triple_verdict_james_triple_always_nonsplit():
    tv = triple_verdict(2, 2, 2, 3)
    assert tv.witness is not None and tv.case_tag == "james"
    assert is_coherent(tv.witness, Partition((2, 2, 2)), 3)


def test_triple_verdict_james_head_pointed_tail():
    # (26,11) is James at p=3 and (11,11) = 2 + 9 is pointed; v(27) = 3
    # exceeds len_3(11 + 9) = 2, so the tail's point carries the witness.
    tv = triple_verdict(26, 11, 11, 3)
    assert tv.witness is not None and tv.case_tag == "pointed-pair"
    assert dict(tv.witness.nonzero_slots()) == {(2, 3, 9): 1}
    assert ext1_dim_oracle(Partition((26, 11, 11)), 3) == 1


def test_triple_verdict_rejects_bad_order():
    with pytest.raises(ValueError):
        triple_verdict(1, 2, 1, 3)
    with pytest.raises(ValueError):
        triple_verdict(3, 2, 0, 3)


def test_triple_verdict_matches_oracle_small():
    for p in (2, 3):
        for a in range(1, 9):
            for b in range(1, a + 1):
                for c in range(1, b + 1):
                    if a + b + c > 15:
                        continue
                    tv = triple_verdict(a, b, c, p)
                    oracle = ext1_dim_oracle(Partition((a, b, c)), p)
                    assert (tv.witness is not None) == (oracle >= 1), (p, a, b, c)


def test_ext1_dim_examples():
    c = ext1_dim(Partition((1, 1, 1, 1)), 3)
    assert c.ext1_dim == 1 and c.case_tag == "quadruple" and c.h0 == 0
    assert c.h1_exact

    c = ext1_dim(Partition((2, 1, 1, 1)), 2)
    assert c.ext1_dim == 0 and not c.h1_exact

    c = ext1_dim(Partition((6, 6, 6)), 3)
    assert c.ext1_dim == 0 and c.case_tag == "split"

    c = ext1_dim(Partition((9, 3)), 3)
    assert c.ext1_dim == 1 and c.case_tag == "pointed-pair"


def _pointed_second_pair_with_rows_below(p, top_max):
    # Four rows: (a, b) James, (b, c) pointed, (c, e) James.
    for a in range(1, top_max + 1):
        for b in range(1, a + 1):
            if not is_james_pair(a, b, p):
                continue
            for c in range(1, b + 1):
                if classify_two_part(b, c, p).kind != POINTED:
                    continue
                for e in range(1, c + 1):
                    if is_james_pair(c, e, p):
                        yield Partition((a, b, c, e))


@pytest.mark.parametrize(
    "p, top_max, extra",
    [
        (2, 16, []),
        (3, 27, []),
        # At p = 5 the shape first needs a top row of 124; one instance.
        (5, 0, [(124, 29, 29, 1)]),
    ],
)
def test_pointed_pair_above_james_rows_matches_oracle(p, top_max, extra):
    # The pointed pair at r = 2 with a James row below it (r < n - 1),
    # which the acceptance sweep never reaches; e.g. (15,5,5,1) at p=2 and
    # (26,11,11,1) at p=3 are pointed-pair, (7,5,5,1) at p=2 splits.
    lams = list(_pointed_second_pair_with_rows_below(p, top_max))
    lams += [Partition(parts) for parts in extra]
    tags = set()
    for lam in lams:
        assert non_james_pairs(lam, p) == [2]
        c = ext1_dim(lam, p)
        assert c.ext1_dim == ext1_dim_oracle(lam, p), (p, lam.parts)
        tags.add(c.case_tag)
    assert tags == ({"pointed-pair"} if p == 5 else {"pointed-pair", "split"})


# Every tag ext1_dim can return at p = 2, 3, 5, 7.  Neither split case 2 nor
# the quadruple fires at p = 2: split case 2 asks v = w, which forces
# digit_v(b) = 0 there, so case 1 fires first; and the quadruple's pair
# (2 p**v - 1, part_{r+3}) is always James at p = 2.
REACHABLE_AT_EVERY_P = {
    *(f"adjacent-pairs/{head}-head-{k}" for head in ("split", "pointed") for k in (1, 2, 3, 5)),
    "split-pair/split-head-4",
    "pointed-pair",
    "james",
    "split",
    "trivial",
}
REACHABLE = {
    2: REACHABLE_AT_EVERY_P - {"adjacent-pairs/split-head-2"},
    **{p: REACHABLE_AT_EVERY_P | {"quadruple"} for p in (3, 5, 7)},
}

# One instance per tag at each prime of CASE_PRIMES (None where the tag
# cannot fire).
CASE_PRIMES = (2, 3, 5, 7)
CASE_INSTANCES = {
    "adjacent-pairs/pointed-head-1": ((2, 2, 1), (4, 3, 1), (8, 5, 1), (12, 7, 1)),
    "adjacent-pairs/pointed-head-2": ((6, 2, 2), (7, 3, 3), (23, 5, 5), (47, 7, 7)),
    "adjacent-pairs/pointed-head-3": ((4, 2, 2), (4, 3, 3), (18, 5, 5), (40, 7, 7)),
    "adjacent-pairs/pointed-head-5": ((5, 4, 2), (23, 9, 3), (119, 25, 5), (335, 49, 7)),
    "adjacent-pairs/split-head-1": ((6, 6, 1), (7, 6, 1), (23, 10, 1), (47, 14, 1)),
    "adjacent-pairs/split-head-2": (None, (1, 1, 1), (3, 1, 1), (5, 1, 1)),
    "adjacent-pairs/split-head-3": ((14, 6, 2), (25, 6, 3), (23, 10, 5), (47, 14, 7)),
    "adjacent-pairs/split-head-5": ((5, 2, 2), (5, 3, 3), (19, 5, 5), (41, 7, 7)),
    "split-pair/split-head-4": ((2, 1, 1), (7, 2, 1), (23, 4, 1), (47, 6, 1)),
    "pointed-pair": ((7, 2, 2), (8, 3, 3), (24, 5, 5), (48, 7, 7)),
    "quadruple": (None, (1, 1, 1, 1), (3, 3, 1, 1), (5, 5, 1, 1)),
    "james": ((1, 1), (2, 1), (4, 1), (6, 1)),
    "split": ((2, 1), (3, 1), (5, 1), (7, 1)),
    "trivial": ((2,), (3,), (5,), (7,)),
}


@pytest.mark.parametrize("p", CASE_PRIMES)
def test_every_reachable_case_tag_is_hit_and_matches_oracle(p):
    column = CASE_PRIMES.index(p)
    pinned = {tag: row[column] for tag, row in CASE_INSTANCES.items() if row[column]}
    assert set(pinned) == REACHABLE[p]
    for tag, parts in pinned.items():
        lam = Partition(parts)
        c = ext1_dim(lam, p)
        assert c.case_tag == tag, (p, parts)
        assert c.ext1_dim == ext1_dim_oracle(lam, p), (p, parts)


# One (p, lambda) per condition the case table keeps, where dropping that
# condition changes the verdict: the witness check raises, or the
# dimension goes wrong.
KEPT_CONDITION_INSTANCES = {
    "R3-c-bound": (2, (14, 6, 3)),  # c - p**gamma < p**v
    "R3-val": (2, (6, 5, 2)),  # val_p(b+1-p**v) = gamma
    "R5-gamma": (2, (5, 2, 1)),  # gamma = v
    "R5-c-bound": (5, (3, 2, 2)),  # c - p**v < p**min(v, w)
    "R5-len": (2, (4, 1, 1)),  # len_p(b+p**v) < val_p(a+p**v+1)
    "pointed-1-v-w": (2, (5, 4, 1)),  # v = w
    "pointed-3-v-w": (2, (9, 4, 4)),  # v = w
    "split-2-gamma": (3, (7, 4, 4)),  # gamma = v
    "split-pair-guard": (2, (2, 1, 1, 1)),  # refused: l_{r+3} >= l_{r+2}
    "split-pair-guard-len": (2, (5, 3, 3, 1)),  # kept: l_{r+3} < l_{r+2}
    "quadruple-b": (5, (3, 1, 1, 1)),  # part_{r+1} + p**v + 1 = 0 mod p**(v+1)
}


@pytest.mark.parametrize(
    "p, parts", KEPT_CONDITION_INSTANCES.values(), ids=KEPT_CONDITION_INSTANCES
)
def test_kept_condition_instance_matches_oracle(p, parts):
    lam = Partition(parts)
    assert ext1_dim(lam, p).ext1_dim == ext1_dim_oracle(lam, p)


LOW = 64


def _shared_rule_contexts(p, K):
    """(tag, parts) for R3 and R5 in every context each serves.

    The top row a = t p**K - p**v - 1 has val_p(a+1) = v and
    a + p**v + 1 = t p**K, so the length test of either rule holds for
    every lower row below p**(K-1).  Lower rows stay at most LOW.
    """
    s = 3 if p == 2 else 2
    for t in {1, p - 1}:
        for v in range(3):
            a, pv = t * p**K - p**v - 1, p**v
            cases = [
                # R5, split head over a James tail: gamma = v < w = v + 1.
                ("split-pair/split-head-4", (a, p * pv - 1, pv)),
                ("split-pair/split-head-4", (a, p * pv - 1, 2 * pv - 1)),
            ]
            if v >= 1:
                # R5 over a non-James tail, w = 0 < v = gamma: split head
                # (len_p(b) = v), then pointed head b = b_hat + p**(v+1).
                for b in {pv, p * pv - 2}:
                    cases.append(("adjacent-pairs/split-head-5", (a, b, pv)))
                for b_hat in {0, pv - 2}:
                    cases.append(("adjacent-pairs/pointed-head-5", (a, p * pv + b_hat, pv)))
            for pg in (p * pv, p * p * pv):
                # R3, gamma > v = w: b + 1 - p**v = s p**gamma with s = 1
                # for a pointed head (b_hat = p**v - 1), s = 2 or 3 for a
                # split one; c - p**gamma < p**v.
                for c in {pg, pg + pv - 1}:
                    cases.append(("adjacent-pairs/split-head-3", (a, s * pg + pv - 1, c)))
                    cases.append(("adjacent-pairs/pointed-head-2", (a, pg + pv - 1, c)))
            yield from ((tag, parts) for tag, parts in cases if parts[1] <= LOW)


@pytest.mark.parametrize("p", CASE_PRIMES)
def test_shared_rules_fire_in_every_context_and_match_oracle(p):
    tags = set()
    for tag, parts in _shared_rule_contexts(p, 12):
        lam = Partition(parts)
        c = ext1_dim(lam, p)
        assert c.case_tag == tag, (p, parts)
        assert c.ext1_dim == ext1_dim_oracle(lam, p) == 1, (p, parts)
        tags.add(tag)
    assert len(tags) == 5


def test_ext1_dim_trivial_rows():
    assert ext1_dim(Partition((7,)), 3).case_tag == "trivial"
    assert ext1_dim(Partition(()), 3).ext1_dim == 0


def test_witness_examples():
    w = ext1_dim(Partition((9, 3)), 3).witness
    assert dict(w.nonzero_slots()) == {(1, 2, 3): 1}

    w = ext1_dim(Partition((1, 1, 1, 1)), 3).witness
    assert dict(w.nonzero_slots()) == {
        (1, 3, 1): 1,
        (2, 4, 1): 1,
        (2, 3, 1): 2,
        (1, 4, 1): 2,
    }

    assert ext1_dim(Partition((3, 1)), 3).witness is None


def test_witness_independent_of_standard():
    # The witness stays nonzero after projecting out the standard
    # multi-sequence: the 2 x V stack has rank 2.
    for p, parts in ((3, (9, 3)), (3, (1, 1, 1, 1)), (2, (2, 1, 1)), (2, (4, 2))):
        lam = Partition(parts)
        c = ext1_dim(lam, p)
        if c.ext1_dim == 0 or is_james_partition(lam, p):
            continue
        slots = canonical_slot_order(lam)
        std, wit = (
            [values.get(slot, 0) for slot in slots]
            for values in (dict(standard_multisequence(lam, p).nonzero_slots()), dict(c.witness.nonzero_slots()))
        )
        _, pivots = rref_mod_p([std, wit], p)
        assert len(pivots) == 2, f"witness for {lam} at p={p} is a standard multiple"


def test_a_witness_that_is_zero_or_incoherent_is_refused(monkeypatch):
    # ``ext1_dim`` checks each witness before it returns it: the canonical
    # one of a James shape, (2, 1) at p = 3, and the slots of a rule, here
    # the pointed pair (3, 3).
    with monkeypatch.context() as patch:
        patch.setattr(
            spechtex.classifier, "canonical_multisequence", lambda lam, p: MultiSequence(lam, p, ())
        )
        with pytest.raises(RuntimeError, match=r"witness for \(2,1\) at p=3 is zero"):
            ext1_dim(Partition((2, 1)), 3)
    monkeypatch.setattr(spechtex.classifier, "is_coherent", lambda ms, lam, p: False)
    for parts in ((2, 1), (3, 3)):
        with pytest.raises(RuntimeError, match="fails the coherence relations"):
            ext1_dim(Partition(parts), 3)


@pytest.mark.parametrize(
    "parts, p", [((2186, 728, 242), 3), ((6560, 2186, 728), 3), ((4095, 2047, 1023), 2)]
)
def test_deep_james_witness_is_verified(parts, p):
    # Rows 3**k - 1 and 2**k - 1: the (T3a)/(T3b) sums run over hundreds of
    # h, of which Lucas's theorem leaves few.
    lam = Partition(parts)
    c = ext1_dim(lam, p)
    assert c.case_tag == "james"
    assert c.ext1_dim == james_ext_dim(lam, p)
    assert is_coherent(c.witness, lam, p)
    entries = dict(c.witness.nonzero_slots())
    for r, s, i in (min(entries), max(entries)):
        changed = dict(entries)
        changed[SlotIndex(r, s, i + 1)] = 1
        assert not is_coherent(multisequence_from_slots(lam, p, changed), lam, p)
        if p > 2:
            changed = dict(entries)
            changed[SlotIndex(r, s, i)] += 1
            assert not is_coherent(multisequence_from_slots(lam, p, changed), lam, p)


def test_classifier_matches_oracle_small_sweep():
    for p in (2, 3, 5):
        for d in range(0, 12):
            for lam in enumerate_partitions(d, max(d, 1)):
                c = ext1_dim(lam, p)
                assert c.ext1_dim == ext1_dim_oracle(lam, p), (p, lam.parts)
                assert c.h0 == h0_dim(lam, p)
                if not is_james_partition(lam, p):
                    assert c.ext1_dim in (0, 1)


def test_classifier_matches_oracle_on_every_residue_of_a_deep_top_part():
    # Every binomial of the oracle that reads part_1 has a lower index of
    # at most part_2 + part_3 < p**L, so by Lucas's theorem it reads only
    # part_1 mod p**L.  One deep top part per residue class mod p**L puts
    # val_p(part_1 + 1) anywhere below L, which the small sweeps, with
    # part_1 <= 14, barely reach.  3,038 classes in all.
    classes = 0
    for p in (2, 3, 5, 7):
        for d in range(1, 9):
            for mu in enumerate_partitions(d, d):
                lower = mu.parts[0] + (mu.parts[1] if mu.n > 1 else 0)
                modulus = p
                while modulus <= lower:
                    modulus *= p
                lift = modulus * (p**40 + 1)
                for residue in range(modulus):
                    lam = Partition((residue + lift, *mu.parts))
                    assert ext1_dim(lam, p).ext1_dim == ext1_dim_oracle(lam, p), (p, lam.parts)
                classes += modulus
    assert classes == 3038


def tall_james_chain(rng, p, rows):
    """A James partition with ``rows`` rows, drawn bottom-up: each lower row
    James over the one below, of at most max(3, p - 1) where that row
    allows it, else the least that is, and a top part below 10**6."""
    low = max(3, p - 1)
    chain = [rng.randint(1, low)]
    while len(chain) < rows - 1:
        below = chain[-1]
        options = [a for a in range(below, low + 1) if is_james_pair(a, below, p)]
        a = below
        while not options:
            a += 1
            if is_james_pair(a, below, p):
                options = [a]
        chain.append(rng.choice(options))
    step = p
    while step <= chain[-1]:
        step *= p
    chain.append(rng.randint(1, 10**6 // step) * step - 1)
    return tuple(reversed(chain))


def one_row_perturbation(rng, parts):
    """``parts`` with one row one longer or shorter, still a partition."""
    moves = []
    for k in range(len(parts)):
        for delta in (-1, 1):
            moved = list(parts)
            moved[k] += delta
            if moved[k] >= 1 and moved == sorted(moved, reverse=True):
                moves.append(tuple(moved))
    return rng.choice(moves)


def test_classifier_matches_oracle_on_seeded_tall_shapes():
    # James chains of 8-16 rows and one-row perturbations of them, which
    # the sweeps (d <= 14, so at most 14 rows of 1) barely reach.  Draws
    # above the oracle's size budget are skipped.
    rng = random.Random(17)
    verdicts = Counter()
    for p in (2, 3, 5, 7):
        for _ in range(10):
            chain = tall_james_chain(rng, p, rng.randint(8, 16))
            for parts in (chain, one_row_perturbation(rng, chain)):
                lam = Partition(parts)
                try:
                    oracle = ext1_dim_oracle(lam, p)
                except SystemTooLargeError:
                    verdicts["refused"] += 1
                    continue
                assert ext1_dim(lam, p).ext1_dim == oracle, (p, parts)
                verdicts[is_james_partition(lam, p), oracle] += 1
    assert verdicts[True, 1] and verdicts[True, 2] and verdicts[False, 0], verdicts
    assert sum(verdicts.values()) - verdicts["refused"] >= 50, verdicts


def test_gl2_examples():
    # (t-s, u-s) = (9, 3) pointed at p=3.
    assert gl2_ext_dim(12, 0, 9, 3, 3) == 1
    # (3, 1) split at p=3.
    assert gl2_ext_dim(4, 0, 3, 1, 3) == 0
    # (2, 1) James at p=3.
    assert gl2_ext_dim(3, 0, 2, 1, 3) == 1
    # Equal weights: u - s = 0.
    assert gl2_ext_dim(5, 2, 5, 2, 3) == 0


def test_gl2_shift_invariance():
    assert gl2_ext_dim(14, 2, 11, 5, 3) == gl2_ext_dim(12, 0, 9, 3, 3) == 1


def test_gl2_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        gl2_ext_dim(5, 0, 3, 1, 3)
    with pytest.raises(ValueError):
        gl2_ext_dim(1, 2, 2, 1, 3)


def test_gl2_matches_oracle_two_part():
    for p in (2, 3, 5):
        for a in range(1, 11):
            for b in range(1, a + 1):
                assert gl2_ext_dim(a + b, 0, a, b, p) == ext1_dim_oracle(
                    Partition((a, b)), p
                )


def test_sl2_trivial_cases():
    assert sl2_ext_dim(4, 4, 3) == 0
    assert sl2_verdict(5, 2, 3) == (0, "parity")
    assert sl2_verdict(2, 4, 3) == (0, "non-positive-difference")


def test_sl2_example():
    assert sl2_ext_dim(4, 0, 2) == 1
    assert sl2_verdict(4, 0, 2)[1] == "pointed-window"


SL2_REASONS = {JAMES: "james-window", POINTED: "pointed-window", SPLIT: "split"}


def test_sl2_equals_gl2_reduction():
    for p in (2, 3, 5):
        for r in range(0, 25):
            for s in range(r % 2, r, 2):
                m = (r - s) // 2
                assert sl2_ext_dim(r, s, p) == gl2_ext_dim(r, 0, s + m, m, p)
                kind = classify_two_part(s + m, m, p).kind
                assert sl2_verdict(r, s, p)[1] == SL2_REASONS[kind]
