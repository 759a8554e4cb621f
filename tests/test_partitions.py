import pytest

from oracles import james_index_by_divisibility, partition_counts, pascal_binom
from spechtex.classifier import gl2_ext_dim, sl2_ext_dim, sl2_verdict
from spechtex.padic import binom_mod_p, digit_p, len_p, val_p
from spechtex.partitions import (
    InvalidPartitionError,
    Partition,
    classify_two_part,
    enumerate_partitions,
    is_james_pair,
    is_james_partition,
    james_index,
    new_partition,
    non_james_pairs,
    p_segments,
)


def test_new_partition_strips_trailing_zeros():
    lam = new_partition([4, 2, 1, 0, 0])
    assert lam.parts == (4, 2, 1)
    assert lam.n == 3 and lam.d == 7


def test_new_partition_empty():
    lam = new_partition([])
    assert lam.parts == () and lam.n == 0 and lam.d == 0


def test_new_partition_rejects_increasing():
    with pytest.raises(InvalidPartitionError):
        new_partition([1, 2])


def test_new_partition_rejects_negative():
    with pytest.raises(InvalidPartitionError):
        new_partition([3, -1])


def test_new_partition_rejects_interior_zero():
    with pytest.raises(InvalidPartitionError):
        new_partition([3, 0, 1])


@pytest.mark.parametrize("parts", [(3.5, 2), (8.0, 2), (True, True)])
def test_partition_rejects_a_part_that_is_not_an_int(parts):
    # ext1_dim read (3.5, 2) as split with ext^1 = 0 and failed on (8.0, 2)
    # with a TypeError; a bool is an int in Python but no part.
    with pytest.raises(InvalidPartitionError, match="is not an int"):
        Partition(parts)


def test_is_james_pair_examples():
    assert is_james_pair(8, 1, 3)
    assert not is_james_pair(3, 1, 3)
    assert is_james_pair(2, 1, 3)


def test_is_james_pair_rejects_zero_b():
    with pytest.raises(ValueError):
        is_james_pair(4, 0, 3)


def test_james_pair_agrees_with_binomial_definition():
    # b < p**val_p(a+1) iff C(a+i, i) = 0 mod p for all 1 <= i <= b.
    for p in (2, 3, 5):
        for a in range(1, 60):
            for b in range(1, min(a, 59 - a) + 1):
                direct = all(pascal_binom(a + i, i) % p == 0 for i in range(1, b + 1))
                assert is_james_pair(a, b, p) == direct


def test_is_james_partition_examples():
    assert is_james_partition(Partition((8, 1)), 3)
    assert not is_james_partition(Partition((1, 1)), 3)
    for d in (1, 5, 12):
        assert is_james_partition(Partition((d,)), 3)
    assert is_james_partition(Partition(()), 2)


def test_classify_two_part_examples():
    pointed = classify_two_part(9, 3, 3)
    assert pointed.kind == "pointed" and pointed.beta == 1 and pointed.b_hat == 0
    assert classify_two_part(3, 1, 3).kind == "split"
    assert classify_two_part(2, 1, 3).kind == "james"


def test_classify_two_part_trichotomy_invariants():
    from spechtex.padic import len_p, val_p

    for p in (2, 3, 5):
        for a in range(1, 41):
            for b in range(1, a + 1):
                cls = classify_two_part(a, b, p)
                assert cls.kind in ("james", "pointed", "split")
                v = val_p(a + 1, p)
                if cls.kind == "james":
                    assert b < p**v
                elif cls.kind == "pointed":
                    assert cls.beta == len_p(b, p)
                    assert b == cls.b_hat + p**cls.beta
                    assert cls.b_hat < p**v < p**cls.beta
                else:
                    assert b >= p**v


def test_non_james_pairs_examples():
    assert non_james_pairs(Partition((1, 1, 1, 1)), 3) == [1, 2, 3]
    assert non_james_pairs(Partition((8, 1)), 3) == []
    assert non_james_pairs(Partition((9,)), 5) == []


def test_james_index_examples():
    assert james_index(Partition((8, 1)), 3) == 2
    assert james_index(Partition((2, 1)), 3) == 1
    # Fixed by the divisibility oracle: min(v1-l2, v2-l3) = min(2, 2).
    assert james_index(Partition((26, 8, 1)), 3) == 2
    assert james_index_by_divisibility((26, 8, 1), 3) == 2


def test_james_index_rejects_bad_inputs():
    with pytest.raises(ValueError):
        james_index(Partition((7,)), 3)
    with pytest.raises(ValueError):
        james_index(Partition((1, 1)), 3)


def test_james_index_matches_divisibility_oracle():
    for p in (2, 3, 5):
        for d in range(2, 21):
            for lam in enumerate_partitions(d, d):
                if lam.n >= 2 and is_james_partition(lam, p):
                    assert james_index(lam, p) == james_index_by_divisibility(
                        lam.parts, p
                    )


def test_p_segments_examples():
    segs = p_segments(Partition((8, 1)), 3)
    assert segs.segments == ((1,), (2,))
    assert segs.p_segments == ((1,), (2,))

    segs = p_segments(Partition((2, 2, 2)), 3)
    assert segs.segments == ((1, 2, 3),)
    assert segs.p_segments == ((1, 2, 3),)

    segs = p_segments(Partition((26, 8, 1)), 3)
    assert segs.segments == ((1,), (2,), (3,))
    # No join: 8 != 3**val_3(27) - 1 and 1 != 3**val_3(9) - 1.
    assert segs.p_segments == ((1,), (2,), (3,))


def test_p_segments_join_fires():
    # (8, 8, 2) at p=3: row 2 has part 8 = 3**val_3(9) - 1 and row 3 is a
    # singleton segment, so rows {1,2} and {3} merge into one p-segment.
    segs = p_segments(Partition((8, 8, 2)), 3)
    assert segs.segments == ((1, 2), (3,))
    assert segs.p_segments == ((1, 2, 3),)


def test_p_segments_rejects_non_james():
    with pytest.raises(ValueError):
        p_segments(Partition((3, 1)), 3)


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: digit_p(-1, 0, 3), ValueError, id="digit_p-negative-a"),
        pytest.param(lambda: digit_p(5, -1, 3), ValueError, id="digit_p-negative-i"),
        pytest.param(lambda: Partition((2, 1)).part(0), IndexError, id="part-row-0"),
        pytest.param(lambda: Partition((2, 1)).part(3), IndexError, id="part-past-the-end"),
        pytest.param(lambda: is_james_pair(1, 2, 3), ValueError, id="is_james_pair-a-lt-b"),
        pytest.param(lambda: classify_two_part(1, 2, 3), ValueError, id="classify_two_part-a-lt-b"),
        pytest.param(lambda: classify_two_part(2, 0, 3), ValueError, id="classify_two_part-b-0"),
        pytest.param(lambda: p_segments(Partition(()), 3), ValueError, id="p_segments-no-rows"),
        pytest.param(lambda: list(enumerate_partitions(-1, 2)), ValueError, id="enumerate-d-lt-0"),
        pytest.param(lambda: list(enumerate_partitions(3, 0)), ValueError, id="enumerate-no-rows"),
        pytest.param(lambda: sl2_verdict(-1, 0, 3), ValueError, id="sl2_verdict-negative-r"),
        pytest.param(lambda: sl2_verdict(4, -2, 3), ValueError, id="sl2_verdict-negative-s"),
        # Parts held in a list compared unequal to their tuple and did not
        # hash; None and 5 raised TypeError.
        pytest.param(lambda: Partition([3, 2]), InvalidPartitionError, id="partition-list"),
        pytest.param(lambda: Partition(None), InvalidPartitionError, id="partition-none"),
        pytest.param(lambda: Partition(5), InvalidPartitionError, id="partition-int"),
        pytest.param(lambda: Partition(range(2)), InvalidPartitionError, id="partition-range"),
    ],
)
def test_arguments_out_of_range_are_refused(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "call",
    [
        # Floats past 2**53 lose their low digits, so these four gave a
        # wrong answer instead of an error: the ints give False, "split",
        # 0 and 1.
        pytest.param(lambda: is_james_pair(float(2**60), 1, 2), id="is_james_pair-float"),
        pytest.param(lambda: classify_two_part(float(2**60), 1, 2), id="classify_two_part-float"),
        pytest.param(lambda: val_p(float(2**60) + 1, 2), id="val_p-float"),
        pytest.param(lambda: sl2_ext_dim(float(2**61 + 2), 2, 2), id="sl2_ext_dim-float"),
        pytest.param(lambda: binom_mod_p(5.0, 2, 3), id="binom_mod_p-float"),
        pytest.param(lambda: binom_mod_p(5, True, 3), id="binom_mod_p-bool"),
        pytest.param(lambda: list(enumerate_partitions(True, 3)), id="enumerate-bool-d"),
        pytest.param(lambda: list(enumerate_partitions(3, 2.0)), id="enumerate-float-max-parts"),
        pytest.param(lambda: len_p(True, 3), id="len_p-bool"),
        pytest.param(lambda: len_p(9.0, 3), id="len_p-float"),
        pytest.param(lambda: digit_p(8.0, 1, 3), id="digit_p-float-a"),
        pytest.param(lambda: digit_p(8, True, 3), id="digit_p-bool-i"),
        pytest.param(lambda: is_james_pair(2, True, 3), id="is_james_pair-bool"),
        pytest.param(lambda: classify_two_part(True, True, 3), id="classify_two_part-bool"),
        pytest.param(lambda: gl2_ext_dim(12.0, 0, 9, 3, 3), id="gl2_ext_dim-float"),
        pytest.param(lambda: gl2_ext_dim(4, 0, 3, True, 3), id="gl2_ext_dim-bool"),
        pytest.param(lambda: sl2_verdict(4, 0.0, 2), id="sl2_verdict-float"),
        pytest.param(lambda: sl2_verdict(True, 0, 2), id="sl2_verdict-bool"),
    ],
)
def test_arguments_that_are_not_ints_are_refused(call):
    # The rule ``Partition`` applies to its parts: an int, and not a bool.
    with pytest.raises(ValueError):
        call()


def test_p_segments_cover_and_coarsen():
    for p in (2, 3, 5):
        for d in range(1, 15):
            for lam in enumerate_partitions(d, d):
                if not is_james_partition(lam, p):
                    continue
                segs = p_segments(lam, p)
                rows = set(range(1, lam.n + 1))
                assert sorted(r for seg in segs.segments for r in seg) == sorted(rows)
                assert sorted(r for seg in segs.p_segments for r in seg) == sorted(rows)
                # Every segment sits inside a single p-segment.
                holder = {r: k for k, cls in enumerate(segs.p_segments) for r in cls}
                for seg in segs.segments:
                    assert len({holder[r] for r in seg}) == 1


def test_enumerate_partitions_examples():
    got = [lam.parts for lam in enumerate_partitions(5, 3)]
    assert got == [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1)]
    assert [lam.parts for lam in enumerate_partitions(0, 4)] == [()]
    assert [lam.parts for lam in enumerate_partitions(4, 1)] == [(4,)]


def test_enumerate_partitions_lex_decreasing_and_unique():
    for d in range(0, 13):
        seen = [lam.parts for lam in enumerate_partitions(d, d if d else 1)]
        assert len(set(seen)) == len(seen)
        assert seen == sorted(seen, reverse=True)
        for parts in seen:
            assert sum(parts) == d


def test_enumerate_partitions_counts():
    counts = partition_counts(30)
    for d in range(0, 31):
        assert sum(1 for _ in enumerate_partitions(d, max(d, 1))) == counts[d]


def test_enumerate_partitions_respects_max_parts():
    for d in range(1, 12):
        for cap in range(1, d + 1):
            for lam in enumerate_partitions(d, cap):
                assert lam.n <= cap
