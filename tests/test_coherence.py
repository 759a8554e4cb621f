import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spechtex
from oracles import (
    int_val,
    nullspace_from_rref,
    pascal_binom,
    rref_mod_p,
    transcribed_relations,
    transcribed_slots,
)
from spechtex.classifier import ext1_dim
from spechtex.coherence import (
    MAX_CELLS,
    MultiSequence,
    SlotIndex,
    SystemTooLargeError,
    _candidate_row_count,
    _echelon,
    _iter_relation_rows,
    _row_terms,
    _tagged_rows,
    _tags_touching,
    build_relation_system,
    canonical_multisequence,
    canonical_slot_order,
    dim_E,
    ext1_dim_oracle,
    is_coherent,
    multisequence_from_slots,
    nullspace,
    slot_count,
    standard_multisequence,
)
from spechtex.partitions import (
    Partition,
    enumerate_partitions,
    is_james_partition,
    james_index,
)


def test_canonical_slot_order_examples():
    assert canonical_slot_order(Partition((1, 1, 1))) == [
        SlotIndex(1, 2, 1),
        SlotIndex(1, 3, 1),
        SlotIndex(2, 3, 1),
    ]
    assert canonical_slot_order(Partition((7,))) == []
    assert canonical_slot_order(Partition((2, 2))) == [
        SlotIndex(1, 2, 1),
        SlotIndex(1, 2, 2),
    ]
    assert slot_count(Partition((1, 1, 1))) == 3


def dense(ms):
    """The vector's value on every slot, in `canonical_slot_order`."""
    values = dict(ms.nonzero_slots())
    return tuple(values.get(slot, 0) for slot in canonical_slot_order(ms.lam))


def from_dense(lam, p, values):
    """The multi-sequence with the given value on each slot in canonical order."""
    return multisequence_from_slots(lam, p, dict(zip(canonical_slot_order(lam), values)))


def test_standard_multisequence_examples():
    assert dense(standard_multisequence(Partition((1, 1, 1)), 3)) == (2, 2, 2)
    assert standard_multisequence(Partition((8, 1)), 3).is_zero()
    assert dense(standard_multisequence(Partition((9,)), 5)) == ()


def test_standard_zero_iff_james():
    for p in (2, 3, 5):
        for d in range(0, 15):
            for lam in enumerate_partitions(d, max(d, 1)):
                assert standard_multisequence(lam, p).is_zero() == is_james_partition(
                    lam, p
                )


def test_canonical_multisequence_examples():
    assert dense(canonical_multisequence(Partition((8, 1)), 3)) == (1,)
    # C(3,1)/3 = 1 for the pair (2,1).
    assert dense(canonical_multisequence(Partition((2, 1)), 3)) == (1,)


def test_canonical_multisequence_rejects_non_james_and_short():
    with pytest.raises(ValueError):
        canonical_multisequence(Partition((3, 1)), 3)
    with pytest.raises(ValueError):
        canonical_multisequence(Partition((7,)), 3)


def test_canonical_matches_integer_division_recipe():
    # Slot (r, s, i) is C(part_r + i, i) / p**JI reduced mod p.
    for p in (2, 3):
        for d in range(2, 13):
            for lam in enumerate_partitions(d, d):
                if lam.n < 2 or not is_james_partition(lam, p):
                    continue
                ji = james_index(lam, p)
                got = canonical_multisequence(lam, p)
                for slot, value in zip(canonical_slot_order(lam), dense(got)):
                    exact = pascal_binom(lam.part(slot.r) + slot.i, slot.i)
                    assert int_val(exact, p) >= ji
                    assert value == (exact // p**ji) % p


def test_canonical_is_coherent_and_nonzero():
    for p in (2, 3):
        for d in range(2, 13):
            for lam in enumerate_partitions(d, d):
                if lam.n < 2 or not is_james_partition(lam, p):
                    continue
                can = canonical_multisequence(lam, p)
                assert not can.is_zero()
                assert is_coherent(can, lam, p)


def test_relation_system_single_row_example():
    # For three rows of size one at p=3, everything collapses to the single
    # relation x + z - 2y = 0 (up to scaling).
    system = build_relation_system(Partition((1, 1, 1)), 3)
    assert system.num_slots == 3
    assert len(system.rows) == 1
    assert system.row_tags == (("T3a", 1, 2, 3, 1, 1),)
    assert system.rows[0] == (2, 2, 2)


def test_relation_system_empty_cases():
    assert build_relation_system(Partition((9,)), 3).rows == ()
    system = build_relation_system(Partition((2, 1)), 3)
    assert system.num_slots == 1
    assert system.rows == ()


def test_import_does_not_load_numpy():
    src = str(Path(spechtex.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = "import sys, spechtex; print(spechtex.__file__); print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    imported_from, numpy_loaded = result.stdout.splitlines()
    assert Path(imported_from).resolve() == Path(spechtex.__file__).resolve()
    assert numpy_loaded == "False"


def test_nullspace_dimensions():
    assert dim_E(Partition((1, 1, 1)), 3) == 2
    assert dim_E(Partition((8, 1)), 3) == 1
    assert dim_E(Partition((9, 3)), 3) == 2
    assert dim_E(Partition((1, 1, 1, 1)), 3) == 2
    assert dim_E(Partition((5,)), 3) == 0


def test_nullspace_of_empty_system_is_full():
    system = build_relation_system(Partition((2, 1)), 3)
    basis = nullspace(system)
    assert len(basis) == 1
    assert dense(basis[0]) == (1,)


def test_nullspace_vectors_satisfy_system():
    for p in (2, 3, 5):
        for parts in ((3, 2, 1), (4, 4, 2), (2, 2, 1, 1), (9, 3)):
            lam = Partition(parts)
            system = build_relation_system(lam, p)
            for vec in nullspace(system):
                assert is_coherent(vec, lam, p)


def test_nullspace_deterministic():
    lam = Partition((3, 2, 2, 1))
    for p in (2, 3):
        s1 = build_relation_system(lam, p)
        s2 = build_relation_system(lam, p)
        assert s1.rows == s2.rows and s1.row_tags == s2.row_tags
        assert [dense(v) for v in nullspace(s1)] == [dense(v) for v in nullspace(s2)]


def dense_echelon(system):
    """`_echelon`'s sparse RREF as dense rows sorted by pivot, and the pivots."""
    echelon = _echelon(system)
    pivots = sorted(echelon)
    rows = []
    for pivot in pivots:
        row = [0] * system.num_slots
        row[pivot] = 1
        for col, coef in echelon[pivot].items():
            row[col] = coef
        rows.append(row)
    return rows, pivots


def assert_matches_python_rref(lam, p):
    """The RREF, nullspace and dim_E agree with the pure-Python elimination."""
    system = build_relation_system(lam, p)
    rref, pivots = rref_mod_p(system.rows, p)
    assert dense_echelon(system) == (rref, pivots), (p, lam.parts)
    expected = nullspace_from_rref(rref, pivots, system.num_slots, p)
    assert [dense(v) for v in nullspace(system)] == expected, (p, lam.parts)
    assert dim_E(lam, p) == len(expected), (p, lam.parts)
    return system, pivots


def test_nullspace_matches_independent_elimination():
    for p in (2, 3, 5, 7):
        for d in range(11):
            for lam in enumerate_partitions(d, max(d, 1)):
                assert_matches_python_rref(lam, p)
    # Pivots keep arriving after the first 64 rows, so new pivot columns
    # are cleared from a running RREF that already has many rows.
    system, pivots = assert_matches_python_rref(Partition((1,) * 9), 2)
    assert len(rref_mod_p(system.rows[:64], 2)[1]) < len(pivots)


def test_nullspace_matches_independent_elimination_across_blocks():
    # 454 rows into a running RREF of up to 91 pivot rows.
    system, pivots = assert_matches_python_rref(Partition((1,) * 14), 3)
    assert (len(system.sparse_rows), system.num_slots) == (454, 91)
    assert len(system.sparse_rows) > len(pivots)


@pytest.mark.parametrize("parts", [(3, 2, 1), (1,) * 7, (1,) * 9, (40000, 6, 3)])
def test_nullspace_matches_independent_elimination_at_the_largest_prime(parts):
    # Products of entries below 32749 come near 2**30.
    assert_matches_python_rref(Partition(parts), 32749)


def test_nullspace_with_a_top_part_beyond_int64():
    lam = Partition((10**30 + 7, 4, 2, 1))
    for p in (2, 3, 5, 7):
        assert ext1_dim_oracle(lam, p) == ext1_dim(lam, p).ext1_dim
        system = build_relation_system(lam, p)
        assert all(1 <= coef < p for row in system.sparse_rows for coef in row.values())
        assert_matches_python_rref(lam, p)


TRANSCRIPTION_PRIMES = (2, 3, 5, 7, 32749)


def transcribed_rows_mod_p(parts, p):
    """The transcribed rows that do not vanish mod p, as {tag: {slot: coef}}.

    Both orders of every (C) block are kept: their tags differ.
    """
    rows = {}
    for tag, row in transcribed_relations(parts):
        reduced = {slot: coef % p for slot, coef in row.items() if coef % p}
        if reduced:
            rows[tag] = reduced
    return rows


def without_rows(system, dropped):
    """The system without the rows whose tag ``dropped`` accepts."""
    kept = [k for k, tag in enumerate(system.row_tags) if not dropped(tag)]
    return replace(
        system,
        sparse_rows=tuple(system.sparse_rows[k] for k in kept),
        row_tags=tuple(system.row_tags[k] for k in kept),
    )


def assert_rref_matches_transcription(parts, p, literal=None):
    """``_echelon``'s RREF equals ``rref_mod_p`` of every transcribed row,
    both orders of the (C) rows included; so does the RREF of the (C) rows
    alone against the transcribed (C) rows, and the (C) rows are linearly
    independent.  Returns the system."""
    if literal is None:
        literal = transcribed_rows_mod_p(parts, p)
    position = {slot: k for k, slot in enumerate(transcribed_slots(parts))}

    def dense_rows(rows):
        vectors = []
        for row in rows:
            vec = [0] * len(position)
            for slot, coef in row.items():
                vec[position[slot]] = coef
            vectors.append(vec)
        return vectors

    system = build_relation_system(Partition(parts), p)
    assert dense_echelon(system) == rref_mod_p(dense_rows(literal.values()), p), (p, parts)
    spanning = without_rows(system, lambda tag: tag[0] != "C")
    expected = rref_mod_p(dense_rows(row for tag, row in literal.items() if tag[0] == "C"), p)
    assert dense_echelon(spanning) == expected, (p, parts)
    assert len(expected[1]) == len(spanning.row_tags), (p, parts)
    return system


def assert_rows_match_transcription(parts):
    """At every prime of ``TRANSCRIPTION_PRIMES``: the nonzero rows of
    ``_iter_relation_rows``, tag by tag and in order, are the transcribed
    rows that do not vanish mod p, (C) rows of both orders included; so
    are the system's (E), (T1), (T2), (T3a) and (T3b) rows for those
    families; and the RREF is that of every transcribed row."""
    slots = transcribed_slots(parts)
    for p in TRANSCRIPTION_PRIMES:
        literal = transcribed_rows_mod_p(parts, p)
        candidates = {
            tag: {slots[pos]: coef for pos, coef in sparse.items()}
            for tag, sparse in _iter_relation_rows(Partition(parts), p)
            if sparse
        }
        assert list(candidates.items()) == list(literal.items()), (p, parts)
        system = assert_rref_matches_transcription(parts, p, literal)
        expected = {tag: row for tag, row in literal.items() if tag[0] != "C"}
        kept = [
            (tag, sparse)
            for tag, sparse in zip(system.row_tags, system.sparse_rows)
            if tag[0] != "C"
        ]
        assert [tag for tag, _sparse in kept] == list(expected), (p, parts)
        for tag, sparse in kept:
            got = {slots[pos]: coef for pos, coef in sparse.items()}
            assert got == expected[tag], (p, parts, tag)


def test_relation_rows_match_the_literal_transcription():
    for d in range(11):
        for lam in enumerate_partitions(d, max(d, 1)):
            assert_rows_match_transcription(lam.parts)


@pytest.mark.parametrize("top", [10**6, 10**30 + 7])
def test_relation_rows_match_the_literal_transcription_with_a_deep_top_part(top):
    lower = [
        lam.parts for d in range(2, 19) for lam in enumerate_partitions(d, 3)
        if lam.n >= 2 and lam.parts[0] <= 6
    ]
    for parts in lower:
        assert_rows_match_transcription((top, *parts))


def test_commuting_rows_come_first_and_are_at_most_one_per_slot():
    for p in (2, 3, 5, 7):
        for d in range(15):
            for lam in enumerate_partitions(d, max(d, 1)):
                system = build_relation_system(lam, p)
                commuting = [tag[0] == "C" for tag in system.row_tags]
                assert commuting == sorted(commuting, reverse=True), (p, lam.parts)
                assert sum(commuting) <= system.num_slots, (p, lam.parts)
                kinds = {tag[1] for tag in system.row_tags if tag[0] == "C"}
                assert kinds <= {"zero", "ratio", "link"}, (p, lam.parts)


#: Four to six rows, long enough that most pairs have several (C) slots.
SPANNING_SHAPES = [
    (4, 4, 3, 3),
    (6, 5, 4, 2),
    (5, 3, 3, 2, 1),
    (4, 4, 4, 4, 4),
    (3, 3, 2, 2, 1, 1),
    (2, 2, 2, 2, 2, 2),
]


@pytest.mark.parametrize("parts", SPANNING_SHAPES)
def test_commuting_rows_span_the_transcription(parts):
    assert_rref_matches_transcription(parts, 32749)
    for p in TRANSCRIPTION_PRIMES:
        assert_rref_matches_transcription((10**30 + 7, *parts), p)


@settings(max_examples=40, deadline=None)
@given(
    parts=st.lists(st.integers(1, 8), min_size=1, max_size=6),
    p=st.sampled_from((2, 3, 5, 7, 11)),
)
def test_commuting_rows_span_the_transcription_property(parts, p):
    assert_rref_matches_transcription(tuple(sorted(parts, reverse=True)), p)


def test_candidate_row_count_matches_the_tags():
    # The transcription has every candidate row, both (C) orders included.
    shapes = [lam.parts for d in range(13) for lam in enumerate_partitions(d, max(d, 1))]
    shapes += [(50, 20, 7, 3, 1), (9, 9, 9, 9, 9), (100, 1, 1, 1, 1, 1, 1)]
    for parts in shapes:
        count = sum(1 for _ in transcribed_relations(parts))
        assert _candidate_row_count(Partition(parts)) == count, parts


def test_oversized_system_is_refused_up_front():
    # 4,498,500 candidate rows x 3000 slots; the largest system in the
    # tests, (1^16), has 1.5M cells.
    lam = Partition((1000, 1000, 1000))
    assert _candidate_row_count(lam) * slot_count(lam) > MAX_CELLS
    with pytest.raises(SystemTooLargeError):
        build_relation_system(lam, 3)
    with pytest.raises(SystemTooLargeError):
        dim_E(lam, 3)
    assert issubclass(SystemTooLargeError, ValueError)


def test_ext1_dim_oracle_examples():
    assert ext1_dim_oracle(Partition((1, 1, 1, 1)), 3) == 1
    assert ext1_dim_oracle(Partition((2, 1, 1, 1)), 2) == 0
    assert ext1_dim_oracle(Partition((8, 1)), 3) == 1
    assert ext1_dim_oracle(Partition(()), 3) == 0
    assert ext1_dim_oracle(Partition((6,)), 3) == 0


def test_is_coherent_examples():
    lam = Partition((1, 1, 1))
    assert is_coherent(standard_multisequence(lam, 3), lam, 3)
    unit = multisequence_from_slots(lam, 3, {(1, 2, 1): 1})
    assert not is_coherent(unit, lam, 3)


def test_is_coherent_rejects_length_mismatch():
    lam = Partition((1, 1, 1))
    other = standard_multisequence(Partition((2, 2)), 3)
    with pytest.raises(ValueError):
        is_coherent(other, lam, 3)


def test_is_coherent_rejects_a_vector_of_another_partition_or_prime():
    # Same slot count, other partition; same partition, other prime.
    with pytest.raises(ValueError):
        is_coherent(standard_multisequence(Partition((2, 1, 1)), 3), Partition((1, 1, 1)), 3)
    with pytest.raises(ValueError):
        is_coherent(canonical_multisequence(Partition((8, 1)), 3), Partition((8, 1)), 5)


def test_multisequence_rejects_bad_entries():
    lam = Partition((2, 2))
    a, b = SlotIndex(1, 2, 1), SlotIndex(1, 2, 2)
    for entries in (
        ((SlotIndex(1, 3, 1), 1),),  # no third row
        ((SlotIndex(1, 2, 3), 1),),  # part_2 = 2
        ((a, 0),),
        ((a, 3),),
        ((a, -1),),
        ((a, 1), (a, 2)),
        ((b, 1), (a, 1)),
    ):
        with pytest.raises(ValueError):
            MultiSequence(lam, 3, entries)
    with pytest.raises(ValueError):
        MultiSequence(Partition((2, 1)), 3, ((SlotIndex(1, 2, 1), 7),))


def test_multisequences_are_equal_iff_their_slot_values_are():
    lam = Partition((2, 2))
    ms = MultiSequence(lam, 3, ((SlotIndex(1, 2, 1), 1), (SlotIndex(1, 2, 2), 2)))
    same = multisequence_from_slots(lam, 3, {(1, 2, 2): -1, (1, 2, 1): 4})
    assert ms == same and hash(ms) == hash(same)
    assert multisequence_from_slots(lam, 3, {(1, 2, 1): 3}).is_zero()
    assert ms != multisequence_from_slots(lam, 3, {(1, 2, 1): 1})
    assert ms != MultiSequence(lam, 5, ms.entries)


def test_multisequence_from_slots_validates():
    lam = Partition((2, 1))
    with pytest.raises(ValueError):
        multisequence_from_slots(lam, 3, {(1, 2, 2): 1})
    ms = multisequence_from_slots(lam, 3, {(1, 2, 1): -1})
    assert dense(ms) == (2,)
    with pytest.raises(ValueError):
        MultiSequence(lam, 3, ((SlotIndex(1, 2, 2), 1),))


def test_standard_in_kernel_small_range():
    for p in (2, 3, 5):
        for d in range(0, 11):
            for lam in enumerate_partitions(d, max(d, 1)):
                assert is_coherent(standard_multisequence(lam, p), lam, p)


def dense_is_coherent(ms, lam, p):
    """The full check: every row of the relation system against the values.

    The rows span the same space as every relation, so this is the check
    against every relation.  Its (C) rows are the spanning rows that
    ``is_coherent`` reads too; ``transcribed_is_coherent`` checks (C)
    independently."""
    rows = build_relation_system(lam, p).rows
    values = dense(ms)
    return all(sum(c * v for c, v in zip(row, values)) % p == 0 for row in rows)


def transcribed_is_coherent(ms, literal=None):
    """The check against every row of ``transcribed_rows_mod_p``, both
    orders of every (C) row included; it shares no code with
    ``is_coherent``."""
    if literal is None:
        literal = transcribed_rows_mod_p(ms.lam.parts, ms.p)
    values = {tuple(slot): value for slot, value in ms.entries}
    return all(
        sum(coef * values.get(slot, 0) for slot, coef in row.items()) % ms.p == 0
        for row in literal.values()
    )


def dense_row(lam, p, tag):
    """One row from its `_row_terms`, with exact binomials from the Pascal triangle."""
    position = {slot: k for k, slot in enumerate(canonical_slot_order(lam))}
    row = [0] * len(position)
    for r, s, i, sign, a1, b1, a2, b2 in _row_terms(lam, tag, p):
        row[position[(r, s, i)]] += sign * pascal_binom(a1, b1) * pascal_binom(a2, b2)
    return tuple(c % p for c in row)


#: A top part of 10**6 or 10**30 + 7 over every one to three lower rows of
#: at most 5; their (T3a) and (T3b) sums reach past one base-p digit.
DEEP_TOP_SHAPES = [
    (top, *lower.parts)
    for top in (10**6, 10**30 + 7)
    for d in range(1, 16)
    for lower in enumerate_partitions(d, 3)
    if lower.parts[0] <= 5
]


def test_tags_touching_cover_every_kept_row_on_a_slot():
    groups = [enumerate_partitions(d, max(d, 1)) for d in range(10)]
    groups.append([Partition(parts) for parts in DEEP_TOP_SHAPES])
    for p in (2, 3, 5, 7):
        for group in groups:
            for lam in group:
                rows = list(_tagged_rows(lam, p))
                candidates = {tag for tag, _row in rows}
                zero = (0,) * slot_count(lam)
                kept = {
                    tag: tuple(row.get(pos, 0) for pos in range(len(zero)))
                    for tag, row in rows
                    if row
                }
                for pos, slot in enumerate(canonical_slot_order(lam)):
                    touching = list(_tags_touching(lam, slot, p))
                    assert len(set(touching)) == len(touching), (lam.parts, slot)
                    assert set(touching) <= candidates, (lam.parts, slot)
                    for tag in touching:
                        term_slots = [term[:3] for term in _row_terms(lam, tag, p)]
                        assert tuple(slot) in term_slots, tag
                        assert len(set(term_slots)) == len(term_slots), tag
                        assert dense_row(lam, p, tag) == kept.get(tag, zero), tag
                    on_slot = {tag for tag, row in kept.items() if row[pos]}
                    assert on_slot <= set(touching), (p, lam.parts, slot)


def test_is_coherent_matches_dense_check_on_every_witness():
    witnesses = 0
    for p in (2, 3, 5, 7):
        for d in range(15):
            for lam in enumerate_partitions(d, max(d, 1)):
                witness = ext1_dim(lam, p).witness
                if witness is None:
                    continue
                witnesses += 1
                assert is_coherent(witness, lam, p)
                assert dense_is_coherent(witness, lam, p), (p, lam.parts)
                assert transcribed_is_coherent(witness), (p, lam.parts)
    # Every non-split instance of the acceptance range carries one.
    assert witnesses == 335


def test_is_coherent_matches_dense_check_on_sparse_random_vectors():
    rng = random.Random(2)
    verdicts = []
    for p in (2, 3, 5, 7):
        for d in range(2, 12):
            for lam in enumerate_partitions(d, d):
                vdim = slot_count(lam)
                if not vdim:
                    continue
                values = [0] * vdim
                for k in rng.sample(range(vdim), min(vdim, rng.randint(1, 4))):
                    values[k] = rng.randrange(1, p)
                ms = from_dense(lam, p, values)
                verdict = is_coherent(ms, lam, p)
                assert verdict == dense_is_coherent(ms, lam, p), (p, lam.parts, values)
                verdicts.append(verdict)
    assert verdicts.count(False) > 100 and verdicts.count(True) > 10


@settings(max_examples=60, deadline=None)
@given(
    top=st.integers(1, 10**6),
    lower=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    p=st.sampled_from((2, 3, 5, 7)),
    data=st.data(),
)
def test_is_coherent_matches_dense_check_with_a_deep_top_part(top, lower, p, data):
    lower.sort(reverse=True)
    lam = Partition((max(top, lower[0]), *lower))
    entries = data.draw(
        st.dictionaries(
            st.integers(0, slot_count(lam) - 1), st.integers(1, p - 1), min_size=1, max_size=4
        )
    )
    values = [0] * slot_count(lam)
    for k, v in entries.items():
        values[k] = v
    vectors = [from_dense(lam, p, values), standard_multisequence(lam, p)]
    witness = ext1_dim(lam, p).witness
    if witness is not None:
        vectors.append(witness)
    for ms in vectors:
        assert is_coherent(ms, lam, p) == dense_is_coherent(ms, lam, p)


def test_is_coherent_matches_the_transcribed_commuting_rows():
    """``is_coherent`` against the transcription, per (C) row kind, on the
    nullspace of the system without the rows of that kind, for every
    partition with at least 4 rows and d <= 10 at p in {2, 3, 5}.

    The vectors that break a (C) relation all break a link row.  A check
    that skipped the zero or ratio rows would pass here: for every
    partition with d <= 13 at p in {2, 3, 5, 7}, those rows add no rank
    over the other rows.  The witnesses are checked against the
    transcription in ``test_is_coherent_matches_dense_check_on_every_witness``."""
    incoherent = Counter()
    vectors = 0
    for p in (2, 3, 5):
        for d in range(4, 11):
            for lam in enumerate_partitions(d, d):
                if lam.n < 4:
                    continue
                system = build_relation_system(lam, p)
                literal = transcribed_rows_mod_p(lam.parts, p)
                for kind in ("zero", "ratio", "link"):
                    reduced = without_rows(system, lambda tag: tag[1:2] == (kind,))
                    for ms in nullspace(reduced):
                        verdict = is_coherent(ms, lam, p)
                        assert verdict == transcribed_is_coherent(ms, literal), (p, lam.parts)
                        incoherent[kind] += not verdict
                        vectors += 1
    assert vectors == 754
    assert incoherent == Counter(link=14)
