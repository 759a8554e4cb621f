import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter, deque
from dataclasses import replace
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
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
from spechtex.classifier import canonical_multisequence, ext1_dim
from spechtex.coherence import (
    MAX_CELLS,
    MultiSequence,
    RelationSystem,
    SlotIndex,
    SystemTooLargeError,
    _candidate_row_count,
    _commuting_classes,
    _commuting_forest,
    _commuting_labels,
    _echelon,
    _h0,
    _iter_relation_rows,
    _pair_feed,
    _reduce,
    _row_terms,
    _settle,
    _std_units,
    _tags_touching,
    _triple_block,
    _unsettled_triples,
    build_relation_system,
    canonical_slot_order,
    dim_E,
    ext1_dim_oracle,
    is_coherent,
    multisequence_from_slots,
    nullspace,
    slot_count,
    standard_multisequence,
)
from spechtex.padic import binom_mod_p
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


def dense_rows(system):
    """The system's rows as dense tuples over its slots, in ``row_tags`` order."""
    dense = []
    for sparse in system.rows:
        row = [0] * system.num_slots
        for col, coef in sparse.items():
            row[col] = coef
        dense.append(tuple(row))
    return dense


def test_standard_multisequence_examples():
    assert dense(standard_multisequence(Partition((1, 1, 1)), 3)) == (2, 2, 2)
    assert standard_multisequence(Partition((8, 1)), 3).is_zero()
    assert dense(standard_multisequence(Partition((9,)), 5)) == ()


def test_standard_zero_iff_james():
    # The oracle's H^0 reads carries, not the James test, and says the same.
    for p in (2, 3, 5, 7, 11):
        for d in range(0, 15):
            for lam in enumerate_partitions(d, max(d, 1)):
                james = is_james_partition(lam, p)
                assert standard_multisequence(lam, p).is_zero() == james
                assert _h0(lam, p) == int(james), (lam.parts, p)


def test_oracle_reads_none_of_the_classifiers_digit_formulas():
    names = ("is_james_partition", "james_index", "row_val", "row_len", "digit_p")
    assert not [name for name in names if hasattr(spechtex.coherence, name)]


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
    # Three rows of size one, slots x = y(1,2)_1, z = y(1,3)_1, y = y(2,3)_1.
    # At p=3 the (T1) row C(3,1) x - C(3,1) z vanishes and the (T3b) row
    # C(3,2) y - C(3,1) x vanishes, so the gain graph has no edge and the
    # (T3a) row 2y - x - z = 0 is kept as a long row on the three roots.
    system = build_relation_system(Partition((1, 1, 1)), 3)
    assert system.num_slots == 3
    assert len(system.rows) == 1
    assert system.row_tags == (("T3a", 1, 2, 3, 1, 1),)
    assert dense_rows(system) == [(2, 2, 2)]
    # At p=2 the (T1) row links x to z, the (T3a) row x + z sums to 0 on
    # their tree, and the (T3b) row y - x links that tree to y, the largest
    # slot and so the root.  The build stops after that join, the last
    # (T3) row.  One link row per slot other than the root.
    system = build_relation_system(Partition((1, 1, 1)), 2)
    assert system.row_tags == (("link", 1, 2, 1), ("link", 1, 3, 1))
    assert dense_rows(system) == [(1, 0, 1), (0, 1, 1)]
    assert [dense(v) for v in nullspace(system)] == [(1, 1, 1)]


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


def system_of(lam, p, rows):
    """A `RelationSystem` of the (tag, {slot position: coefficient}) rows."""
    return RelationSystem(
        lam,
        p,
        slot_count(lam),
        tuple(sparse for _tag, sparse in rows),
        tuple(tag for tag, _sparse in rows),
    )


def commuting_slots(lam, p):
    """The per-pair table of ``_commuting_classes`` expanded slot by slot:
    the zero slots, ascending, and the classes in the order of their
    bits, each as (slot position, std_P(j)) pairs in ascending position.
    A pair labelled 0 gives all its slots to the zeros; a pair labelled
    1 << k, a head of class k, gives its listed j up to part_r to class k
    and its other slots to the zeros; a pair labelled -1 gives nothing.
    Every label is one of these, for one of the classes ``sizes`` counts,
    and the table is empty or has a row and a column per row of ``lam``
    and one more."""
    plan = _commuting_classes(lam, p)
    listings = plan[1]
    label, sizes = _commuting_labels(lam, plan)
    parts = lam.parts
    assert label == [] or [len(row) for row in label] == [lam.n + 1] * (lam.n + 1), (p, parts)
    position = {slot: k for k, slot in enumerate(canonical_slot_order(lam))}
    zeros, classes = [], [[] for _ in sizes]
    for q, r in combinations(range(1, len(label)), 2):
        bit = label[q][r]
        assert bit in [-1, 0] + [1 << k for k in range(len(sizes))], (p, parts, bit)
        if bit < 0:
            continue
        live = [j for j in listings[q - 1] if j <= parts[r - 1]] if bit else []
        zeros += [position[q, r, j] for j in range(1, parts[r - 1] + 1) if j not in live]
        if bit:
            k = bit.bit_length() - 1
            classes[k] += [(position[q, r, j], binom_mod_p(parts[q - 1] + j, j, p)) for j in live]
    return sorted(zeros), classes


def commuting_rows(lam, p):
    """The (C) relations of ``commuting_slots`` as tagged rows.

    ("C", "zero", q, r, j): y_v = 0 for each zero slot v = (q, r, j).
    Within each class, y_v std_w - y_w std_v for the first slot w of v's
    pair and every other slot v = (q, r, j) of that pair, tagged ("C",
    "ratio", q, r, j); and for the first slot v of every later pair (s, t)
    and the class's first slot w, on the pair (q, r), tagged ("C", "link",
    q, r, s, t).  One row per slot of the relations the build writes into
    its forest, spanning the same space."""
    slots = canonical_slot_order(lam)
    zeros, classes = commuting_slots(lam, p)
    rows = [(("C", "zero", *slots[v]), {v: 1}) for v in zeros]
    for cls in classes:
        first, std_first = cls[0]
        leads = {}  # pair -> (its first slot, std there)
        for v, std in cls:
            q, r, j = slots[v]
            if (q, r) not in leads:
                leads[q, r] = v, std
                if v != first:
                    tag = ("C", "link", *slots[first][:2], q, r)
                    rows.append((tag, {v: std_first, first: -std % p}))
            else:
                w, std_w = leads[q, r]
                rows.append((("C", "ratio", q, r, j), {v: std_w, w: -std % p}))
    return rows


def paper_rows(lam, p):
    """The (E), (T1), (T2), (T3a) and (T3b) rows of `_iter_relation_rows`,
    as (tag, {slot position: coefficient}), zeros omitted."""
    return [(tag, sparse) for tag, sparse in _iter_relation_rows(lam, p) if tag[0] != "C"]


def paper_system(lam, p):
    """A `RelationSystem` of the (C) rows of `commuting_rows` and then the
    paper's nonzero (E), (T1), (T2), (T3a) and (T3b) rows, with no triple
    blocks."""
    rows = commuting_rows(lam, p)
    rows += [(tag, sparse) for tag, sparse in paper_rows(lam, p) if sparse]
    return system_of(lam, p, rows)


def spanning_rows(lam, p):
    """Every triple block of ``lam`` with four rows or more, moved onto its
    pairs: for each triple r < s < t in lexicographic order, the rows of
    ``_triple_block(part_r, part_s, part_t, p)`` on the pairs (r, s),
    (r, t) and (s, t), tagged ("B", r, s, t, local pivot), each as
    {slot position: coefficient}.  The build reads these rows, but not
    those of the triples the (C) plan settles (``_unsettled_triples``)."""
    position = {slot: k for k, slot in enumerate(canonical_slot_order(lam))}
    parts, rows = lam.parts, []
    for r, s, t in combinations(range(1, lam.n + 1), 3):
        pairs = ((r, s), (r, t), (s, t))
        for terms in _triple_block(parts[r - 1], parts[s - 1], parts[t - 1], p):
            row = {position[(*pairs[k], i + 1)]: coef for k, i, coef in terms}
            k, i, _one = terms[0]
            pivot = i + (0, parts[s - 1], parts[s - 1] + parts[t - 1])[k]
            rows.append((("B", r, s, t, pivot), row))
    return rows


def stream_system(lam, p):
    """A `RelationSystem` of every relation `build_relation_system` may
    settle in its gain graph from four rows on, none of them reduced: the
    (C) rows of `commuting_rows`, then every triple block moved onto its
    pairs (`spanning_rows`)."""
    return system_of(lam, p, commuting_rows(lam, p) + spanning_rows(lam, p))


def assert_matches_python_rref(lam, p, system=None):
    """The RREF, nullspace and dim_E agree with the pure-Python elimination.

    ``system`` defaults to ``build_relation_system(lam, p)``."""
    if system is None:
        system = build_relation_system(lam, p)
    rref, pivots = rref_mod_p(dense_rows(system), p)
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
    # Over the paper's rows, pivots keep arriving after the first 64 rows,
    # so new pivot columns are cleared from a running RREF that already has
    # many rows.  (The built system has one row per pivot.)
    lam = Partition((1,) * 9)
    system, pivots = assert_matches_python_rref(lam, 2, paper_system(lam, 2))
    assert len(rref_mod_p(dense_rows(system)[:64], 2)[1]) < len(pivots)


def test_nullspace_matches_independent_elimination_across_blocks():
    # 454 rows into a running RREF of up to 91 pivot rows: 90 (C) rows,
    # then one row per triple, a triple block of the stream the build
    # feeds or the paper's single (T3a) row.
    lam = Partition((1,) * 14)
    streamed = stream_system(lam, 3)
    for system in (streamed, paper_system(lam, 3)):
        system, pivots = assert_matches_python_rref(lam, 3, system)
        assert (len(system.rows), system.num_slots) == (454, 91)
        assert len(system.rows) > len(pivots)
    # The gain graph reduces the stream to one zero or link row per pivot.
    built, pivots = assert_matches_python_rref(lam, 3)
    assert len(built.rows) == len(pivots) == 90
    assert {tag[0] for tag in built.row_tags} <= {"zero", "link"}
    assert dense_echelon(built) == dense_echelon(streamed)


@pytest.mark.parametrize("parts", [(3, 2, 1), (1,) * 7, (1,) * 9, (40000, 6, 3)])
def test_nullspace_matches_independent_elimination_at_the_largest_prime(parts):
    # Products of entries below 32749 come near 2**30.
    assert_matches_python_rref(Partition(parts), 32749)


def test_nullspace_with_a_top_part_beyond_int64():
    lam = Partition((10**30 + 7, 4, 2, 1))
    for p in (2, 3, 5, 7):
        assert ext1_dim_oracle(lam, p) == ext1_dim(lam, p).ext1_dim
        system = build_relation_system(lam, p)
        assert all(1 <= coef < p for row in system.rows for coef in row.values())
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
        rows=tuple(system.rows[k] for k in kept),
        row_tags=tuple(system.row_tags[k] for k in kept),
    )


def assert_rref_matches_transcription(parts, p, literal=None):
    """``_echelon``'s RREF of the built system equals ``rref_mod_p`` of
    every transcribed row, both orders of the (C) rows included, and so
    does that of ``stream_system`` from four rows on; the RREF of the
    stream's (C) rows alone equals that of the transcribed (C) rows, and
    the (C) rows are linearly independent.  Returns the built system and
    the stream."""
    if literal is None:
        literal = transcribed_rows_mod_p(parts, p)
    position = {slot: k for k, slot in enumerate(transcribed_slots(parts))}

    def dense_literal(rows):
        vectors = []
        for row in rows:
            vec = [0] * len(position)
            for slot, coef in row.items():
                vec[position[slot]] = coef
            vectors.append(vec)
        return vectors

    lam = Partition(parts)
    system = build_relation_system(lam, p)
    full = rref_mod_p(dense_literal(literal.values()), p)
    assert dense_echelon(system) == full, (p, parts)
    streamed = stream_system(lam, p)
    if lam.n >= 4:
        assert dense_echelon(streamed) == full, (p, parts)
    spanning = without_rows(streamed, lambda tag: tag[0] != "C")
    expected = rref_mod_p(dense_literal(row for tag, row in literal.items() if tag[0] == "C"), p)
    assert dense_echelon(spanning) == expected, (p, parts)
    assert len(expected[1]) == len(spanning.row_tags), (p, parts)
    return system, streamed


@lru_cache(maxsize=None)
def transcribed_block(triple, p):
    """``rref_mod_p`` of every transcribed row of a three-row partition."""
    position = {slot: k for k, slot in enumerate(transcribed_slots(triple))}
    vectors = []
    for row in transcribed_rows_mod_p(triple, p).values():
        vec = [0] * len(position)
        for slot, coef in row.items():
            vec[position[slot]] = coef
        vectors.append(vec)
    return rref_mod_p(vectors, p)


def assert_blocks_match_transcription(system):
    """The rows after the (C) rows are, tag by tag and in order, the RREF
    rows of the transcription of each triple (part_r, part_s, part_t),
    triples in lexicographic order, rows by pivot, moved onto the pairs
    (r, s), (r, t) and (s, t)."""
    parts, p = system.lam.parts, system.p
    slots = transcribed_slots(parts)
    got = [
        (tag, {slots[pos]: coef for pos, coef in sparse.items()})
        for tag, sparse in zip(system.row_tags, system.rows)
        if tag[0] != "C"
    ]
    expected = []
    for r, s, t in combinations(range(1, len(parts) + 1), 3):
        triple = (parts[r - 1], parts[s - 1], parts[t - 1])
        local = transcribed_slots(triple)
        move = {1: r, 2: s, 3: t}
        for row, pivot in zip(*transcribed_block(triple, p)):
            moved = {(move[x], move[y], i): c for (x, y, i), c in zip(local, row) if c}
            expected.append((("B", r, s, t, pivot), moved))
    assert got == expected, (p, parts)


def assert_gain_graph_rows(system, origins):
    """The rows of a built system, as the gain graph leaves them: first the
    long rows, each tagged by the row it came from, a tag of ``origins``:
    a (T3a) or (T3b) relation with at most three rows, a "B" row of the
    stream with four or more (a (C) row has at most two terms); then, slot
    by slot in canonical order, a zero row {v: 1} or a link row {v: 1,
    root: c} for every slot v that is not a root.  A root is a slot
    without such a row, so a link row's other entry is a larger slot, and
    the long rows lie on roots only."""
    p, slots = system.p, transcribed_slots(system.lam.parts)
    families = ("T3a", "T3b") if system.lam.n < 4 else ("B",)
    rows = list(zip(system.row_tags, system.rows))
    long_rows = [(tag, row) for tag, row in rows if tag[0] not in ("zero", "link")]
    assert rows[: len(long_rows)] == long_rows, (p, system.row_tags)
    slot_rows = rows[len(long_rows) :]
    pivots = [slots.index(tag[1:]) for tag, _row in slot_rows]
    assert pivots == sorted(set(pivots)), (p, system.row_tags)
    roots = set(range(system.num_slots)) - set(pivots)
    for (tag, row), pos in zip(slot_rows, pivots):
        if tag[0] == "zero":
            assert row == {pos: 1}, (p, tag, row)
        else:
            assert tag[0] == "link", (p, tag)
            (first, one), (root, coef) = sorted(row.items())
            assert (first, one) == (pos, 1) and root in roots and 1 <= coef < p, (p, tag, row)
    for tag, row in long_rows:
        assert tag[0] in families and tag in origins, (p, tag)
        assert row and set(row) <= roots, (p, tag, row)
        assert all(1 <= coef < p for coef in row.values()), (p, tag, row)


def assert_rows_match_transcription(parts):
    """At every prime of ``TRANSCRIPTION_PRIMES``: the nonzero rows of
    ``_iter_relation_rows``, no tag twice, are as a multiset the
    transcribed rows that do not vanish mod p, (C) rows of both orders
    included; so are its nonzero rows of the (E), (T1), (T2), (T3a) and
    (T3b) families (``paper_rows``).  The stream reads these off
    ``_tags_touching`` slot by slot, so it is compared without its order,
    and this checks the very listing ``is_coherent`` reads.  The RREF of
    the built system is that of every transcribed row; the system holds
    the gain-graph rows of ``assert_gain_graph_rows``; and from four rows
    on the stream it is reduced from holds the transcribed triple blocks
    after its (C) rows."""
    lam = Partition(parts)
    slots = transcribed_slots(parts)
    for p in TRANSCRIPTION_PRIMES:
        literal = transcribed_rows_mod_p(parts, p)
        candidates = [
            (tag, {slots[pos]: coef for pos, coef in sparse.items()})
            for tag, sparse in _iter_relation_rows(lam, p)
            if sparse
        ]
        listed = dict(candidates)
        assert len(listed) == len(candidates), (p, parts)  # no tag repeats
        assert listed == literal, (p, parts)
        system, streamed = assert_rref_matches_transcription(parts, p, literal)
        expected = {tag: row for tag, row in literal.items() if tag[0] != "C"}
        tagged = [(tag, sparse) for tag, sparse in paper_rows(lam, p) if sparse]
        assert sorted(tag for tag, _sparse in tagged) == sorted(expected), (p, parts)
        for tag, sparse in tagged:
            got = {slots[pos]: coef for pos, coef in sparse.items()}
            assert got == expected[tag], (p, parts, tag)
        if lam.n < 4:
            assert_gain_graph_rows(system, literal)
        else:
            assert_blocks_match_transcription(streamed)
            assert_gain_graph_rows(system, set(streamed.row_tags))


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


def test_commuting_relations_are_at_most_one_per_slot():
    # Zero slots and classes are disjoint and a class has two slots or
    # more, so the (C) relations number at most one per slot; from four
    # rows on, the rows the build feeds after writing them are all blocks.
    for p in (2, 3, 5, 7):
        for d in range(15):
            for lam in enumerate_partitions(d, max(d, 1)):
                zeros, classes = commuting_slots(lam, p)
                members = [v for cls in classes for v, _std in cls]
                assert all(len(cls) >= 2 for cls in classes), (p, lam.parts)
                assert len(set(zeros + members)) == len(zeros) + len(members), (p, lam.parts)
                rows = commuting_rows(lam, p)
                assert len(rows) == len(zeros) + len(members) - len(classes), (p, lam.parts)
                assert len(rows) <= slot_count(lam), (p, lam.parts)
                kinds = {tag[1] for tag, _row in rows}
                assert kinds <= {"zero", "ratio", "link"}, (p, lam.parts)
                if lam.n >= 4:
                    assert {tag[0] for tag, _row in spanning_rows(lam, p)} == {"B"}


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


def test_echelon_rank_matches_the_dense_rank_at_the_ceiling():
    # A shape with a slot has rank V - 1 at most, James or not, and the
    # gain graph stops feeding rows there; `_echelon`'s rank of the
    # built system and of the paper's rows must be that of every row.
    seen = set()
    for p in (2, 3, 5, 7):
        for parts in SPANNING_SHAPES:
            lam = Partition((10**30 + 7, *parts))
            for system in (build_relation_system(lam, p), paper_system(lam, p)):
                rank = len(_echelon(system))
                assert rank == len(rref_mod_p(dense_rows(system), p)[1]), (p, parts)
                seen.add((is_james_partition(lam, p), system.num_slots - rank))
    assert {(False, 1), (False, 2), (True, 1)} <= seen


def test_rank_from_the_slot_rows_matches_the_echelon():
    # `_echelon` reduces only the long rows and reads every zero or link
    # row off as its own pivot row; `dim_E` counts the zero and link rows
    # and the pivots of the long rows on the settled forest, before any
    # row is written.  Both must agree with a plain reduction of every row
    # of the system.  A link row whose root is a
    # pivot of the long rows takes that pivot's row in, which 16 of the 63
    # systems with long rows need.
    cases = [
        (lam, p)
        for p in (2, 3, 5, 7)
        for d in range(13)
        for lam in enumerate_partitions(d, max(d, 1))
    ]
    cases += [(Partition((1,) * 14), 3), (Partition((999999, 35, 30, 20)), 7)]
    long_rows = {}
    substituted = set()
    for lam, p in cases:
        system = build_relation_system(lam, p)
        rref = _reduce(system.rows, p)
        assert _echelon(system) == rref, (p, lam.parts)
        assert dim_E(lam, p) == system.num_slots - len(rref), (p, lam.parts)
        tagged = list(zip(system.row_tags, system.rows))
        long = [row for tag, row in tagged if tag[0] not in ("zero", "link")]
        long_rows[lam.parts, p] = len(long)
        pivots = _reduce(long, p)
        if any(tag[0] == "link" and max(row) in pivots for tag, row in tagged):
            substituted.add((lam.parts, p))
    assert long_rows[(1, 1, 1, 1), 3] == long_rows[(4, 1, 1, 1), 3] == 4
    assert long_rows[(3, 3, 1, 1), 5] == 4
    assert sum(count > 0 for count in long_rows.values()) == 63
    assert len(substituted) == 16
    assert {((4, 2, 2), 2), ((1, 1, 1, 1), 3)} <= substituted


@settings(max_examples=40, deadline=None)
@given(
    parts=st.lists(st.integers(1, 6), min_size=1, max_size=6),
    p=st.sampled_from((2, 3, 5, 7, 11)),
    seed=st.integers(0, 2**32 - 1),
)
def test_echelon_matches_the_dense_rref_in_any_row_order(parts, p, seed):
    # Shuffled, the paper's rows find their pivots in many orders, so a new
    # pivot column is cleared from earlier pivot rows that gained or lost
    # entries in different orders; a pivot column left uncleared in some
    # row would show against the dense RREF.
    lam = Partition(tuple(sorted(parts, reverse=True)))
    system = paper_system(lam, p)
    order = list(range(len(system.rows)))
    random.Random(seed).shuffle(order)
    shuffled = replace(
        system,
        rows=tuple(system.rows[k] for k in order),
        row_tags=tuple(system.row_tags[k] for k in order),
    )
    assert dense_echelon(shuffled) == rref_mod_p(dense_rows(shuffled), p), (lam.parts, p)


@settings(max_examples=40, deadline=None)
@given(
    parts=st.lists(st.integers(1, 8), min_size=1, max_size=6),
    p=st.sampled_from((2, 3, 5, 7, 11)),
)
def test_commuting_rows_span_the_transcription_property(parts, p):
    assert_rref_matches_transcription(tuple(sorted(parts, reverse=True)), p)


def test_built_system_has_the_rref_of_the_paper_rows():
    # Triple blocks replace the paper's rows only from four rows on, in the
    # stream the build feeds its gain graph; the built system is in the
    # gain graph's form and has the RREF of the paper's rows too.
    shapes = [
        lam.parts for d in range(4, 13) for lam in enumerate_partitions(d, d) if lam.n >= 4
    ]
    deep = [(10**30 + 7, *parts) for parts in SPANNING_SHAPES]
    cases = [(parts, p) for p in (2, 3, 5, 7) for parts in shapes + deep]
    cases += [(parts, 32749) for parts in deep]
    for parts, p in cases:
        lam = Partition(parts)
        streamed = stream_system(lam, p)
        assert any(tag[0] == "B" for tag in streamed.row_tags), (p, parts)
        paper = dense_echelon(paper_system(lam, p))
        assert dense_echelon(streamed) == paper, (p, parts)
        built = build_relation_system(lam, p)
        assert_gain_graph_rows(built, set(streamed.row_tags))
        assert dense_echelon(built) == paper, (p, parts)


@pytest.mark.parametrize(
    "parts, p",
    [
        ((974026, 46, 31), 3),
        ((733347, 47, 46), 2),
        ((61300, 59, 23), 5),
        ((975597, 56, 31), 7),
        ((406, 406), 2),
    ],
)
def test_gain_graph_system_has_the_rref_of_the_paper_rows_on_wide_shapes(
    parts, p, monkeypatch
):
    # Wide shapes of the benchmark's oracle-large workload, none of them
    # James.  The (E), (T1) and (T2) rows alone reach the rank ceiling,
    # V - 1, so no slot is visited for the (T3a) and (T3b) rows and only
    # zero and link rows are left.
    visited = []

    def touching(lam, slot, p):
        visited.append(slot)
        return _tags_touching(lam, slot, p)

    monkeypatch.setattr("spechtex.coherence._tags_touching", touching)
    lam = Partition(parts)
    built = build_relation_system(lam, p)
    assert visited == []
    assert {tag[0] for tag in built.row_tags} <= {"zero", "link"}
    assert len(built.row_tags) == built.num_slots - 1
    assert dense_echelon(built) == dense_echelon(paper_system(lam, p)), (p, parts)


@pytest.mark.parametrize(
    "parts, p",
    [
        ((109, 38, 11), 11),
        ((14640, 54, 9), 11),
        ((1330, 121, 120), 11),
        ((999999, 60, 45), 131),
        ((131, 30, 20), 131),
        ((10**30 + 7, 24, 20), 131),
    ],
)
def test_gain_graph_system_has_the_rref_of_the_paper_rows_at_large_primes(parts, p):
    # Above 7 most units differ from +-1, so link rows carry gains other
    # than +-1, which the gain pass of ``_settle`` reads off the unit parts
    # of std: 2, 10, 0, 135, 68 and 63 of them here.  The first two have
    # dim_E = 2, and the first keeps a (T3a) long row.
    lam = Partition(parts)
    built = build_relation_system(lam, p)
    assert dense_echelon(built) == dense_echelon(paper_system(lam, p)), (p, parts)


@pytest.mark.parametrize("parts, p", [((59048, 107, 96), 3), ((4095, 127, 127), 2)])
def test_gain_graph_expands_few_of_the_t3_rows_on_wide_shapes(parts, p, monkeypatch):
    # The (T3a) and (T3b) rows are read from the slots outside zero trees,
    # y(2,3)_j first, not family by family: on these shapes the
    # build expands 483 of 14,928 and 191 of 24,257 of them.  Feeding them
    # all in tag order gave the same bases but made such shapes up to four
    # times slower (ROADMAP, "Dropped").
    expanded = []

    def row_terms(lam, tag, p):
        if tag[0] in ("T3a", "T3b"):
            expanded.append(tag)
        return _row_terms(lam, tag, p)

    monkeypatch.setattr("spechtex.coherence._row_terms", row_terms)
    lam = Partition(parts)
    build_relation_system(lam, p)
    # Each triple (r, s, t) has c(c+1)/2 (T3a) and bc (T3b) rows, b = part_s, c = part_t.
    t3_rows = sum(c * (c + 1) // 2 + b * c for _a, b, c in combinations(parts, 3))
    assert 0 < len(expanded) < t3_rows / 10, (len(expanded), t3_rows)


@pytest.mark.parametrize(
    "parts, p, james, dim",
    [
        ((80999, 26, 26), 3, True, 1),
        ((528200, 26, 7), 3, True, 2),
        ((603683, 39, 9), 3, False, 2),
    ],
)
def test_gain_graph_system_has_the_rref_of_the_paper_rows_below_the_ceiling(
    parts, p, james, dim
):
    # The first is James with dim_E = 1, so its build stops at rank V - 1
    # before every (T3) row is fed.  The rank ceiling never fires on the
    # other two, each with two live roots left: a James shape, and a
    # non-James one which keeps a (T3a) long row.  There every row is fed.
    # Either way the system has the paper's RREF.
    lam = Partition(parts)
    built = build_relation_system(lam, p)
    assert is_james_partition(lam, p) == james
    assert dim_E(lam, p) == dim
    assert dense_echelon(built) == dense_echelon(paper_system(lam, p)), (p, parts)
    if not james:
        assert any(tag[0] == "T3a" for tag in built.row_tags)


#: Shapes of at most three rows for the two-term feed: 131 and 32749 are
#: above the digit table of ``_lucas_range``; at p = 7, lower rows above 49
#: reach its chunk path.
two_term_shapes = given(
    top=st.one_of(st.integers(1, 90), st.sampled_from((10**6, 10**30 + 7))),
    lower=st.lists(st.integers(1, 60), max_size=2),
    p=st.sampled_from((2, 3, 5, 7, 11, 131, 32749)),
)


def transcribed_two_term_rows(lam, p):
    """The transcribed (E), (T1) and (T2) rows of ``lam``, at most three
    rows, mod p, as {slot position: coefficient} with zeros dropped."""
    index = {slot: pos for pos, slot in enumerate(transcribed_slots(lam.parts))}
    rows = []
    for tag, row in transcribed_relations(lam.parts):
        if tag[0] == "T3a":
            break  # with at most three rows, the two-term rows come first
        rows.append({index[slot]: coef % p for slot, coef in row.items() if coef % p})
    return rows


def two_term_shape(top, lower):
    lower = sorted(lower, reverse=True)
    return Partition((max([top, *lower]), *lower))


def slot_components(edges, size):
    """The least slot of each slot's component in the graph on ``size``
    slots whose edges are the slot pairs ``edges``."""
    parent = list(range(size))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        parent[find(u)] = find(v)
    least = {}
    return [least.setdefault(find(v), v) for v in range(size)]


def two_term_family(slots, u, v):
    """The family of a two-term row on slot positions u and v of ``slots``:
    (E) on one pair, (T1) on (1, 2) and (1, 3), (T2) on (2, 3) and (1, 3)."""
    pairs = {slots[u][:2], slots[v][:2]}
    return "E" if len(pairs) == 1 else "T1" if (1, 2) in pairs else "T2"


@settings(max_examples=60, deadline=None)
@two_term_shapes
@example(top=4, lower=[4, 3], p=2)  # needs the (T2) joins (j0, k), k > k0
@example(top=8, lower=[4, 4], p=2)  # needs the (T1) joins listed for each i
def test_pair_feed_spans_the_transcribed_two_coefficient_rows(top, lower, p):
    # Every listed join is the slot pair, in either order, of a transcribed
    # row with both coefficients nonzero mod p; what those coefficients say
    # is checked by ``test_std_units_solve_every_transcribed_two_coefficient_row``.
    # Not every such row is listed, but in each family the listed ones
    # connect the same slots, which is all the gain graph reads of them
    # (``_settle``).
    lam = two_term_shape(top, lower)
    listed = [tuple(sorted(join)) for join in _pair_feed(lam, p, [])]
    transcribed = [tuple(sorted(row)) for row in transcribed_two_term_rows(lam, p) if len(row) == 2]
    assert set(listed) <= set(transcribed), (lam.parts, p)
    slots = canonical_slot_order(lam)
    for family in ("E", "T1", "T2"):
        edges = [
            [(u, v) for u, v in rows if two_term_family(slots, u, v) == family]
            for rows in (listed, transcribed)
        ]
        assert slot_components(edges[0], len(slots)) == slot_components(edges[1], len(slots)), (
            lam.parts,
            p,
            family,
        )


def exact_std_units(lam, p):
    """std / p**v mod p on every slot, in canonical order, from the exact
    C(part_r + i, i) and its p-adic valuation v."""
    units = []
    for r, _s, i in transcribed_slots(lam.parts):
        std = math.comb(lam.parts[r - 1] + i, i)
        units.append(std // p ** int_val(std, p) % p)
    return units


@settings(max_examples=60, deadline=None)
@two_term_shapes
def test_std_units_are_the_unit_parts_of_the_exact_binomials(top, lower, p):
    lam = two_term_shape(top, lower)
    assert _std_units(lam, p) == exact_std_units(lam, p), (lam.parts, p)


@settings(max_examples=60, deadline=None)
@two_term_shapes
@example(top=4, lower=[4, 3], p=3)
@example(top=26, lower=[25, 24], p=5)
def test_std_units_solve_every_transcribed_two_coefficient_row(top, lower, p):
    # The fact the gain pass of ``_settle`` rests on: each row with two
    # unit coefficients, c_u y_u + c_v y_v, holds for the unit parts of
    # std, so the gains of a tree of such rows are unit[u] / unit[root].
    lam = two_term_shape(top, lower)
    unit = exact_std_units(lam, p)
    for row in transcribed_two_term_rows(lam, p):
        if len(row) == 2:
            (u, cu), (v, cv) = row.items()
            assert (cu * unit[u] + cv * unit[v]) % p == 0, (lam.parts, p, u, v)


def every_two_term_join(lam, p, lone):
    """Every (E), (T1) and (T2) row with both coefficients nonzero mod p,
    as ``_pair_feed`` lists a join: its slot pair.  The slot of every such
    row with one nonzero coefficient goes into ``lone``, once per row.
    The rows are read off ``_tags_touching`` slot by slot, each at the
    slot of its first term."""
    position = {slot: pos for pos, slot in enumerate(canonical_slot_order(lam))}
    for slot in position:
        for tag in _tags_touching(lam, slot, p):
            if tag[0] not in ("E", "T1", "T2"):
                continue
            (r, s, i, _, a1, b1, _, _), (q, t, k, _, a2, b2, _, _) = _row_terms(lam, tag, p)
            if (r, s, i) != slot:
                continue  # read at its first term's slot
            u, v = position[(r, s, i)], position[(q, t, k)]
            c1, c2 = binom_mod_p(a1, b1, p), binom_mod_p(a2, b2, p)
            if c1 and c2:
                yield u, v
            elif c1 or c2:
                lone.append(u if c1 else v)


def assert_built_as_if_fed_every_join(lam, p):
    built = build_relation_system(lam, p)
    dim = dim_E(lam, p)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("spechtex.coherence._pair_feed", every_two_term_join)
        full = build_relation_system(lam, p)
        assert dim_E(lam, p) == dim, (lam.parts, p)
    assert [list(row.items()) for row in built.rows] == [
        list(row.items()) for row in full.rows
    ], (lam.parts, p)
    assert built.row_tags == full.row_tags, (lam.parts, p)


@settings(max_examples=40, deadline=None)
@two_term_shapes
def test_build_is_bit_identical_to_one_fed_every_two_term_join(top, lower, p):
    # Each join has two unit coefficients, so the gains of a tree are fixed
    # by std / p**v (``_settle``): listings with the same components leave
    # the same forest, and so the same rows, in the same order, and tags.
    assert_built_as_if_fed_every_join(two_term_shape(top, lower), p)


@pytest.mark.parametrize(
    "parts, p",
    [
        ((974026, 46, 31), 3),
        ((733347, 47, 46), 2),
        ((61300, 59, 23), 5),
        ((975597, 56, 31), 7),
        ((59048, 107, 96), 3),
        ((4095, 127, 127), 2),
        ((603683, 39, 9), 3),
        ((80999, 26, 26), 3),
        ((406, 406), 2),
    ],
)
def test_build_is_bit_identical_to_one_fed_every_two_term_join_on_wide_shapes(parts, p):
    # The benchmark's wide shapes, those that go on to the (T3) rows, and
    # shapes below the rank ceiling (``test_gain_graph_*_below_the_ceiling``).
    assert_built_as_if_fed_every_join(Partition(parts), p)


def test_pair_feed_lists_few_joins_past_the_budget():
    # (3000, 3000, 3000) at p = 3 has 9,000 slots and 305,910 (E),
    # 143,579 (T1) and 571,573 (T2) joins; the listing keeps 32,268, 28,034
    # and 2,055 of them.  Called directly: the budget refuses the build.
    lam = Partition((3000, 3000, 3000))
    slots = canonical_slot_order(lam)
    count = Counter(two_term_family(slots, u, v) for u, v in _pair_feed(lam, 3, []))
    assert count["E"] + count["T2"] < 4 * len(slots), count
    assert count["T1"] < 4 * len(slots), count


@settings(max_examples=60, deadline=None)
@two_term_shapes
def test_pair_feed_lists_the_slots_of_the_transcribed_one_coefficient_rows(top, lower, p):
    # A row with one coefficient nonzero mod p says only that its slot is
    # 0, so the feed marks the slot instead; each of (E), (T1) and (T2)
    # lists a slot at most once.
    lam = two_term_shape(top, lower)
    listed = []
    list(_pair_feed(lam, p, listed))
    expected = {pos for row in transcribed_two_term_rows(lam, p) if len(row) == 1 for pos in row}
    assert set(listed) == expected, (lam.parts, p)
    assert len(listed) <= 3 * slot_count(lam), (lam.parts, p)


def direct_scan(lam, p):
    """(E unit steps, lone flags) of ``lam``, at most three rows, each
    coefficient by ``binom_mod_p``: the joins (y_i, y_{i+p**d}) of every
    (E) row with both coefficients nonzero, sorted, and a Counter of the
    slot positions counted once per family of (E), (T1) and (T2) in which
    some row has its one nonzero coefficient there."""
    position = {slot: pos for pos, slot in enumerate(canonical_slot_order(lam))}
    steps, lone = [], set()

    def row(family, c1, slot1, c2, slot2):
        if c1 and not c2:
            lone.add((family, position[slot1]))
        if c2 and not c1:
            lone.add((family, position[slot2]))

    parts = lam.parts
    for r, s in combinations(range(1, lam.n + 1), 2):
        top, width = parts[r - 1], parts[s - 1]
        for i in range(1, width):
            for j in range(1, width - i + 1):
                c1, c2 = binom_mod_p(top + i + j, j, p), binom_mod_p(i + j, i, p)
                row("E", c1, (r, s, i), c2, (r, s, i + j))
                if c1 and c2 and p ** int_val(j, p) == j:
                    steps.append((position[(r, s, i)], position[(r, s, i + j)]))
    if lam.n == 3:
        a, b, c = parts
        for i in range(1, b + 1):
            for k in range(1, c + 1):
                top = a + i + k
                row("T1", binom_mod_p(top, k, p), (1, 2, i), binom_mod_p(top, i, p), (1, 3, k))
        for j in range(1, c + 1):
            for k in range(1, c - j + 1):
                row("T2", binom_mod_p(a + k, k, p), (2, 3, j), binom_mod_p(b + j, j, p), (1, 3, k))
    return sorted(steps), Counter(pos for _family, pos in lone)


def test_pair_feed_scans_each_index_as_its_binomials_say():
    # One digit walk per (E) index lists its unit steps and its lone flag,
    # and the (T1) sides share one loop: on every shape of at most three
    # rows and d <= 12, each index's (E) unit steps and its lone flag in
    # each family against the binomials themselves.
    for d in range(1, 13):
        for lam in enumerate_partitions(d, 3):
            slots = canonical_slot_order(lam)
            for p in (2, 3, 5, 7):
                lone = []
                joins = list(_pair_feed(lam, p, lone))
                steps = sorted((u, v) for u, v in joins if two_term_family(slots, u, v) == "E")
                assert (steps, Counter(lone)) == direct_scan(lam, p), (lam.parts, p)


@pytest.mark.parametrize(
    "parts, p",
    [
        ((974026, 46, 31), 3),
        ((733347, 47, 46), 2),
        ((61300, 59, 23), 5),
        ((975597, 56, 31), 7),
        ((406, 406), 2),
    ],
)
def test_gain_graph_feeds_fewer_than_half_of_the_two_term_rows_on_wide_shapes(
    parts, p, monkeypatch
):
    # The rows with both coefficients 0 mod p are never listed, a spanning
    # set of those with two nonzero ones comes first, and those with one
    # are listed slot by slot, each slot at most once per family.  So the
    # joins fed and the slots listed for marks are 8.9-13.5% as many as
    # the (E), (T1) and (T2) rows on the three-row shapes, and 1.3% on
    # (406, 406); listing every join it took 8-47% and 1.8%.  Fed row by
    # row, the one-coefficient rows alone on the first two shapes were 449
    # and 2,024, above three per slot.
    fed = {"joins": 0}
    lones = []

    def counted(lam, p, lone):
        lones.append(lone)
        for join in _pair_feed(lam, p, lone):
            fed["joins"] += 1
            yield join

    monkeypatch.setattr("spechtex.coherence._pair_feed", counted)
    lam = Partition(parts)
    build_relation_system(lam, p)
    fed["marks"] = sum(len(lone) for lone in lones)
    # (E) has b(b-1)/2 rows per pair (r, s), b = part_s; each triple
    # (r, s, t) has bc (T1) and c(c-1)/2 (T2) rows, b = part_s, c = part_t.
    two_term = sum(b * (b - 1) // 2 for _a, b in combinations(parts, 2))
    two_term += sum(b * c + c * (c - 1) // 2 for _a, b, c in combinations(parts, 3))
    assert 0 < fed["joins"] + fed["marks"] < two_term / 5, (fed, two_term)
    assert fed["marks"] <= 3 * slot_count(lam), fed


def test_james_build_stops_once_one_live_root_is_left(monkeypatch):
    # (1^12) at p = 2 is James with dim_E = 1: its rows reach rank V - 1,
    # the ceiling of every shape, part way through the triple blocks, and
    # the block rows after that are never read.  At p = 2 no (1^k) has a
    # (C) head, so no triple is skipped.  Each block row is counted as the
    # build reads it.
    read = 0

    def counted(*triple):
        nonlocal read
        for row in _triple_block(*triple):
            read += 1
            yield row

    monkeypatch.setattr("spechtex.coherence._triple_block", counted)
    lam = Partition((1,) * 12)
    assert dim_E(lam, 2) == 1
    assert is_james_partition(lam, 2)
    total = len(spanning_rows(lam, 2))
    assert 0 < read < total / 2, (read, total)


def test_the_triples_the_commuting_plan_settles_add_nothing():
    # ``_settle`` feeds no block of a triple whose three pairs are each a
    # (C) zero pair or a head of one and the same class
    # (``_unsettled_triples``, where the proof is): on the forest the plan
    # leaves, and on the forest the whole feed leaves, every row of such a
    # block moves onto nothing.
    skipped = 0
    for p in (2, 3, 5, 7):
        for d in range(4, 15):
            for lam in enumerate_partitions(d, d):
                if lam.n < 4:
                    continue
                size, plan = slot_count(lam), _commuting_classes(lam, p)
                listings, (label, _sizes) = plan[1], _commuting_labels(lam, plan)
                fed = set(_unsettled_triples(lam, label))
                rows = [row for tag, row in spanning_rows(lam, p) if tag[1:4] not in fed]
                forests = [
                    _commuting_forest(lam, p, size, listings, label),
                    _settle(lam, p, size, plan, label)[0],
                ]
                for forest in forests:
                    for row in rows:
                        assert forest.move(row.items()) == {}, (p, lam.parts, row)
                skipped += math.comb(lam.n, 3) - len(fed)
    assert skipped > 0
    # (2, 2, 1^10) at p = 2: the pairs (1, t) and (2, t), t >= 3, are one
    # class, every pair of rows below the second is a zero pair, and
    # (1, 2) is neither, so only the triples (1, 2, t) are fed.
    lam = Partition((2, 2) + (1,) * 10)
    fed = list(_unsettled_triples(lam, _commuting_labels(lam, _commuting_classes(lam, 2))[0]))
    assert fed == [(1, 2, t) for t in range(3, 13)]
    assert math.comb(12, 3) - len(fed) == 210


@pytest.mark.parametrize("parts, p", [((4, 4, 4, 4), 7), ((974026, 46, 31), 3)])
def test_oracle_counts_the_rank_on_the_forest_without_building_a_system(parts, p, monkeypatch):
    # `dim_E` and `ext1_dim_oracle` read the rank off the settled gain
    # graph, before any row is written.  (4,4,4,4) at p = 7 has (C) zero
    # slots and classes and is fed the block of (4,4,4), which the build
    # below caches, so no three-row system is built for it either.
    lam = Partition(parts)
    rank = len(_echelon(build_relation_system(lam, p)))

    def refuse(*args):
        raise AssertionError(f"a RelationSystem was built for {args[0]}")

    monkeypatch.setattr("spechtex.coherence.RelationSystem", refuse)
    assert dim_E(lam, p) == slot_count(lam) - rank
    assert ext1_dim_oracle(lam, p) == slot_count(lam) - rank - 1 + _h0(lam, p)


def test_gain_graph_system_has_the_rref_of_the_paper_rows_on_random_wide_shapes():
    # The first shape reaches the ceiling; the other two stay below it and
    # feed every live row, then (T3) rows.
    rng = random.Random(16)
    cases = [((80999, 26, 26), 3), ((528200, 26, 7), 3), ((603683, 39, 9), 3)]
    for p in (2, 3, 5, 7) * 8:
        b = rng.randint(20, 60)
        c = rng.randint(20, b)
        cases.append(((rng.randint(b, 10**6), b, c), p))
    for parts, p in cases:
        lam = Partition(parts)
        built = build_relation_system(lam, p)
        assert dense_echelon(built) == dense_echelon(paper_system(lam, p)), (p, parts)


def test_gain_graph_build_memory_stays_small_on_a_wide_two_row_shape():
    # (406, 406) at p=2 has 82,215 (E) rows with 164,430 distinct
    # binomials; once a tree is zero, the rows on it need none of them.
    lam = Partition((406, 406))
    tracemalloc.start()
    try:
        basis = nullspace(build_relation_system(lam, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(basis) == ext1_dim(lam, 2).ext1_dim + 1  # not James at p = 2
    assert peak <= 8 * 2**20, peak


#: Shapes whose (C) heads with a disjoint head hold four rows, so each
#: class is a perfect matching of those rows whose two heads are both
#: present, with the pairs of rows of each class.
SEVERAL_CLASSES = [
    ((3, 2, 2, 1, 1), 2, [[(2, 4), (3, 5)], [(2, 5), (3, 4)]]),  # four of five rows
    ((3, 2, 2, 2, 1), 2, [[(2, 3), (4, 5)], [(2, 4), (3, 5)], [(2, 5), (3, 4)]]),
    ((5, 5, 2, 1, 1), 3, [[(1, 2), (4, 5)]]),  # one matching on four of five rows
    ((2, 2, 1, 1), 2, [[(1, 3), (2, 4)], [(1, 4), (2, 3)]]),
    ((2, 2, 2, 1), 2, [[(1, 2), (3, 4)], [(1, 3), (2, 4)], [(1, 4), (2, 3)]]),
]


def assert_classes_are_the_components(lam, p):
    """The classes of ``_commuting_classes``' table are the components of
    two heads or more of the disjointness graph on the pairs with a (C)
    head, found here by a plain breadth-first search over adjacency
    lists, in the order of their first head: each holds, in slot order,
    the slots (q, r, j) of its heads with std = C(part_q + j, j) nonzero
    mod p, and that std.  The zero slots are the (q, r, j) with std 0 mod
    p on every pair disjoint from some head.  The table is expanded slot
    by slot by ``commuting_slots``; its rank must count the zero slots
    and all but one slot of each class, and the size of each class must
    be its component's live j."""
    parts = lam.parts
    position = {slot: k for k, slot in enumerate(canonical_slot_order(lam))}
    std = {(q, r, j): pascal_binom(parts[q - 1] + j, j) % p for q, r, j in position}
    heads = supported_pairs(lam, p)
    classes = [
        [
            (position[q, r, j], std[q, r, j])
            for q, r in component
            for j in range(1, parts[r - 1] + 1)
            if std[q, r, j]
        ]
        for component in disjointness_components(heads)
        if len(component) > 1
    ]
    zeros = [
        position[q, r, j]
        for q, r, j in position
        if not std[q, r, j] and any(not {q, r} & set(P) for P in heads)
    ]
    assert commuting_slots(lam, p) == (zeros, classes), (p, parts)
    rank = len(zeros) + sum(len(cls) - 1 for cls in classes)
    plan = _commuting_classes(lam, p)
    _label, sizes = _commuting_labels(lam, plan)
    assert plan[0] == rank, (p, parts)
    assert sizes == [len(cls) for cls in classes], (p, parts)


def test_commuting_classes_are_the_components_of_the_disjointness_graph():
    for p in (2, 3, 5, 7):
        for d in range(4, 13):
            for lam in enumerate_partitions(d, d):
                assert_classes_are_the_components(lam, p)
    for parts, p, pairs in SEVERAL_CLASSES:
        lam = Partition(parts)
        assert_classes_are_the_components(lam, p)
        label, sizes = _commuting_labels(lam, _commuting_classes(lam, p))
        heads = [
            [(q, r) for q, r in combinations(range(1, lam.n + 1), 2) if label[q][r] == 1 << k]
            for k in range(len(sizes))
        ]
        assert heads == pairs, (p, parts)


def plan_live_count(lam, p):
    """V less the rank of ``_commuting_classes``, checked to be V less
    the rank of the transcribed (C) rows; ``dim_E``, which returns that
    count when it is 1, must be the nullspace dimension of the built
    system.  Of each (C) block only the order with (q, r) < (s, t) is
    reduced: the other order's rows are their negatives.  The heads
    pass's rank must also be the one its labelled table implies: the
    slots of the pairs labelled 0 or with a class bit, less one per
    class."""
    size = slot_count(lam)
    basis = nullspace(build_relation_system(lam, p))
    assert dim_E(lam, p) == len(basis), (p, lam.parts)
    position = {slot: k for k, slot in enumerate(transcribed_slots(lam.parts))}
    vectors = []
    for tag, row in transcribed_relations(lam.parts):
        if tag[0] == "C" and tag[1:3] < tag[3:5]:
            vec = [0] * size
            for slot, coef in row.items():
                vec[position[slot]] = coef
            vectors.append(vec)
    plan = _commuting_classes(lam, p)
    rank = plan[0]
    live = size - rank
    assert live == size - len(rref_mod_p(vectors, p)[1]), (p, lam.parts)
    label, sizes = _commuting_labels(lam, plan)
    labelled = [(q, r) for q, r in combinations(range(1, len(label)), 2) if label[q][r] >= 0]
    assert rank == sum(lam.parts[r - 1] for _q, r in labelled) - len(sizes), (p, lam.parts)
    return live


def test_commuting_plan_counts_the_rank_of_the_transcribed_commuting_rows():
    # Every partition with d <= 12 at p in {2, 3, 5, 7}, and the shapes of
    # ``SEVERAL_CLASSES``.  The plan alone reaches the ceiling on 326 of
    # the former, all with five rows or more.
    ceiling = 0
    for p in (2, 3, 5, 7):
        for d in range(13):
            for lam in enumerate_partitions(d, max(d, 1)):
                if plan_live_count(lam, p) == 1 and slot_count(lam) > 1:
                    # With four rows the disjointness graph has three
                    # disjoint edges, so (C) alone leaves three roots.
                    assert lam.n >= 5, (p, lam.parts)
                    ceiling += 1
    assert ceiling == 326
    for parts, p, _pairs in SEVERAL_CLASSES:
        plan_live_count(Partition(parts), p)


@pytest.mark.parametrize(
    "parts, p",
    [((1, 1, 1, 1, 1), 3), ((2, 2, 2, 2, 1), 5), ((5, 4, 3, 2, 1), 7), ((100, 10, 10, 10, 10), 7)],
)
def test_dim_e_builds_no_forest_when_the_commuting_relations_reach_the_ceiling(
    parts, p, monkeypatch
):
    # The (C) relations alone leave one live root on these shapes, so
    # ``dim_E`` and ``ext1_dim_oracle`` return before ``_settle`` builds a
    # forest, with the answers of the whole system.
    lam = Partition(parts)
    assert slot_count(lam) - _commuting_classes(lam, p)[0] == 1
    basis = nullspace(build_relation_system(lam, p))

    def refused(*args):
        raise AssertionError("a _GainForest was built")

    monkeypatch.setattr("spechtex.coherence._GainForest", refused)
    with pytest.raises(AssertionError, match="_GainForest"):
        build_relation_system(lam, p)
    assert dim_E(lam, p) == len(basis) == 1
    assert ext1_dim_oracle(lam, p) == ext1_dim(lam, p).ext1_dim

    def unlabelled(*args):
        raise AssertionError("the (C) plan was labelled")

    # Nor is the plan labelled: ``dim_E`` runs the heads pass alone.
    monkeypatch.setattr("spechtex.coherence._commuting_labels", unlabelled)
    assert dim_E(lam, p) == len(basis) == 1
    assert ext1_dim_oracle(lam, p) == ext1_dim(lam, p).ext1_dim


@pytest.mark.parametrize("parts, p", [((1, 1, 1, 1), 3), ((4, 4, 4, 4), 7)])
def test_dim_e_labels_the_plan_when_the_commuting_relations_leave_roots_to_feed(
    parts, p, monkeypatch
):
    # On these shapes the (C) relations alone leave more than one live
    # root, so ``dim_E`` labels the plan and goes on to ``_settle``.
    lam = Partition(parts)
    assert slot_count(lam) - _commuting_classes(lam, p)[0] > 1
    labelled = []

    def counted(lam, plan):
        labelled.append(lam)
        return _commuting_labels(lam, plan)

    monkeypatch.setattr("spechtex.coherence._commuting_labels", counted)
    assert dim_E(lam, p) == len(nullspace(build_relation_system(lam, p)))
    assert labelled == [lam, lam]


def test_oracle_h0_is_whether_the_standard_multisequence_is_zero():
    # From four rows on ``ext1_dim_oracle`` reads H^0 off the Kummer
    # listings of its (C) plan, and below four off ``_h0``.  At p = 131
    # ``_lucas_range`` has no digit table.
    for p in (2, 3, 5, 7, 131):
        for d in range(13):
            for lam in enumerate_partitions(d, max(d, 1)):
                h0 = int(standard_multisequence(lam, p).is_zero())
                assert ext1_dim_oracle(lam, p) - dim_E(lam, p) + 1 == h0, (p, lam.parts)
                assert _h0(lam, p) == h0, (p, lam.parts)


def disjointness_components(heads):
    """The components of the disjointness graph on ``heads``, each sorted,
    in the order of their first pair in ``heads``."""
    neighbours = {P: [Q for Q in heads if not set(P) & set(Q)] for P in heads}
    seen, components = set(), []
    for start in heads:
        if start in seen:
            continue
        seen.add(start)
        component, queue = [start], deque([start])
        while queue:
            for Q in neighbours[queue.popleft()]:
                if Q not in seen:
                    seen.add(Q)
                    component.append(Q)
                    queue.append(Q)
        components.append(sorted(component))
    return components


def supported_pairs(lam, p):
    """The pairs (q, r) with C(part_q + j, j) nonzero mod p for some j <= part_r."""
    parts = lam.parts
    return [
        (q, r)
        for q, r in combinations(range(1, lam.n + 1), 2)
        if any(pascal_binom(parts[q - 1] + j, j) % p for j in range(1, parts[r - 1] + 1))
    ]


def built_outputs(shapes, p):
    """Tags, rows (key order included) and basis of every shape, as built now."""
    outputs = {}
    for parts in shapes:
        system = build_relation_system(Partition(parts), p)
        rows = [list(sparse.items()) for sparse in system.rows]
        basis = [ms.entries for ms in nullspace(system)]
        outputs[parts] = (system.row_tags, rows, basis)
    return outputs


def test_systems_do_not_depend_on_the_block_cache():
    shapes = [lam.parts for d in range(4, 11) for lam in enumerate_partitions(d, d) if lam.n >= 4]
    shapes += [(10**30 + 7, *parts) for parts in SPANNING_SHAPES[:3]]
    _triple_block.cache_clear()
    cold = built_outputs(shapes, 3)
    _triple_block.cache_clear()
    for p in (2, 5, 7):
        built_outputs(shapes, p)
    assert built_outputs(shapes, 3) == cold
    _triple_block.cache_clear()
    assert built_outputs(shapes[::-1], 3) == cold


def test_changing_a_built_system_leaves_later_builds_alone():
    lam = Partition((5, 4, 3, 3, 1))
    first = build_relation_system(lam, 3)
    expected = built_outputs([lam.parts], 3)
    for k, sparse in enumerate(first.rows):
        for col in sparse:
            sparse[col] = k % 2 + 1
        sparse[k % first.num_slots] = 2
    assert built_outputs([lam.parts], 3) == expected
    _triple_block.cache_clear()
    assert built_outputs([lam.parts], 3) == expected


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
    # Slots given as plain (r, s, i) tuples: the vectors equal their
    # SlotIndex forms, and the check gives the same verdicts.
    plain = MultiSequence(lam, 3, (((1, 2, 1), 1),))
    assert plain == unit and not is_coherent(plain, lam, 3)
    standard = MultiSequence(lam, 3, (((1, 2, 1), 2), ((1, 3, 1), 2), ((2, 3, 1), 2)))
    assert standard == standard_multisequence(lam, 3) and is_coherent(standard, lam, 3)


def test_is_coherent_memory_does_not_grow_with_the_rows_it_reads():
    # (1^30) is James at p = 2, and its canonical witness is nonzero on
    # all 435 slots, each touching dozens of rows; every row is read once,
    # at its first nonzero slot, with no record of the rows read.
    lam = Partition((1,) * 30)
    witness = canonical_multisequence(lam, 2)
    assert len(witness.entries) == slot_count(lam) == 435
    tracemalloc.start()
    try:
        assert is_coherent(witness, lam, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * len(witness.entries), peak


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
        # Not ints, or bools, as ``Partition`` refuses a part.
        ((a, 1.5),),
        ((a, True),),
        ((SlotIndex(1, 2, 1.5), 1),),
        ((SlotIndex(1.0, 2, 1), 1),),
        ((SlotIndex(1, 2.0, 1), 1),),
        ((SlotIndex(True, 2, 1), 1),),
        # Not an (r, s, i) triple.
        ((5, 1),),
        (((1, 2, 1, 1), 1),),
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
    for bad in ({(1, 2, 2): 1}, {(1, 2, 1): 1.5}, {(1, 2, 1.5): 1}):
        with pytest.raises(ValueError):
            multisequence_from_slots(lam, 3, bad)
    ms = multisequence_from_slots(lam, 3, {(1, 2, 1): -1})
    assert dense(ms) == (2,)
    with pytest.raises(ValueError):
        MultiSequence(lam, 3, ((SlotIndex(1, 2, 2), 1),))


@pytest.mark.parametrize(
    "entries",
    [
        {(1, 2, 5): 3},
        {(1, 2, 1): 3.0},
        {(1, 2, 1): True},
        {(1, 2): 1},
        {5: 1},
        {(1, 2, 1, 1): 1},
    ],
    ids=["slot-it-does-not-have", "float", "bool", "two-index-slot", "int-slot", "four-index-slot"],
)
def test_multisequence_from_slots_checks_an_entry_before_reducing_it(entries):
    # The first three values are 0 mod 3, or a bool that reduces to 1:
    # reduced before they were checked, they gave the zero vector or a
    # witness of value 1.  The two-index slot gave a TypeError, where the
    # same slot with a value 0 mod 3 gave a ValueError, and the int slot
    # a TypeError; a slot that is not an (r, s, i) triple is refused.
    with pytest.raises(ValueError):
        multisequence_from_slots(Partition((3, 2)), 3, entries)


def test_standard_in_kernel_small_range():
    for p in (2, 3, 5):
        for d in range(0, 11):
            for lam in enumerate_partitions(d, max(d, 1)):
                assert is_coherent(standard_multisequence(lam, p), lam, p)


def dense_is_coherent(ms, lam, p, rows=None):
    """The full check: every row of the relation system against the values.

    The rows span the same space as every relation, so this is the check
    against every relation.  They are reduced from the (C) relations
    that ``is_coherent`` reads too; ``transcribed_is_coherent`` checks (C)
    independently.  ``rows``, if given, are ``dense_rows`` of the built
    system, for a caller that checks several vectors of one shape."""
    if rows is None:
        rows = dense_rows(build_relation_system(lam, p))
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
    # ``_tags_touching`` yields, once each, exactly the rows whose
    # ``_row_terms`` hold the slot, whatever the term's coefficient:
    # ``is_coherent`` reads a row only at its first nonzero slot, and that
    # is sound only if every slot of its terms yields it.
    groups = [enumerate_partitions(d, max(d, 1)) for d in range(10)]
    groups.append([Partition(parts) for parts in DEEP_TOP_SHAPES])
    for p in (2, 3, 5, 7):
        for group in groups:
            for lam in group:
                rows = paper_rows(lam, p)
                zero = (0,) * slot_count(lam)
                kept = {
                    tag: tuple(row.get(pos, 0) for pos in range(len(zero)))
                    for tag, row in rows
                    if row
                }
                holding = {slot: set() for slot in canonical_slot_order(lam)}
                for tag, _row in rows:
                    term_slots = [term[:3] for term in _row_terms(lam, tag, p)]
                    assert len(set(term_slots)) == len(term_slots), tag
                    for slot in term_slots:
                        holding[slot].add(tag)
                for pos, (slot, tags) in enumerate(holding.items()):
                    touching = list(_tags_touching(lam, slot, p))
                    assert len(set(touching)) == len(touching), (lam.parts, slot)
                    assert set(touching) == tags, (p, lam.parts, slot)
                    for tag in touching:
                        assert dense_row(lam, p, tag) == kept.get(tag, zero), tag
                    on_slot = {tag for tag, row in kept.items() if row[pos]}
                    assert on_slot <= tags, (p, lam.parts, slot)


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


#: Tall chains of equal rows, each within the oracle's size budget: James
#: at p = 2 for (1^k), at p = 3 for (2^k), and for ((p-1)^k) at p = 5 and 7;
#: the others are not James and carry no dense witness.
TALL_CHAINS = (
    [((1,) * k, p) for p in (2, 3) for k in range(2, 27)]
    + [((v,) * k, p) for v, top in ((2, 18), (3, 15)) for p in (3, 5) for k in range(2, top + 1)]
    + [((v,) * k, p) for p, top in ((5, 12), (7, 10)) for v in (p - 1, p) for k in range(2, top + 1)]
)


@pytest.fixture
def walks(monkeypatch):
    """The partitions ``_rows_hold`` is called on: lam itself when it is
    walked whole, the three-row partitions of a local check."""
    seen = []
    real = spechtex.coherence._rows_hold
    monkeypatch.setattr(
        spechtex.coherence, "_rows_hold", lambda lam, *args, **kw: seen.append(lam) or real(lam, *args, **kw)
    )
    return seen


def test_is_coherent_matches_dense_check_on_tall_chains(walks):
    """Dense vectors on tall chains, and one slot dropped or changed: the
    James witness where the chain is James, else the standard vector,
    nonzero on every slot.  From four rows on, a dense vector repeats its
    pairs' keys and is checked triple by triple, and a vector of fewer
    rows or repeats is walked whole; both sides of the rule are counted
    here, by the three-row walks a local check makes."""
    sides, verdicts = Counter(), Counter()
    for parts, p in TALL_CHAINS:
        lam = Partition(parts)
        rows = dense_rows(build_relation_system(lam, p))
        dense_vector = (
            canonical_multisequence(lam, p) if is_james_partition(lam, p) else standard_multisequence(lam, p)
        )
        values = dict(dense_vector.entries)
        slots = list(values)
        vectors = [dense_vector]
        for slot in (slots[0], slots[len(slots) // 2], slots[-1]):
            vectors.append(multisequence_from_slots(lam, p, {k: v for k, v in values.items() if k != slot}))
        middle = slots[len(slots) // 2]
        vectors.append(multisequence_from_slots(lam, p, {**values, middle: values[middle] + 1}))
        free = [slot for slot in canonical_slot_order(lam) if slot not in values]
        if free:
            vectors.append(multisequence_from_slots(lam, p, {**values, free[0]: 1}))
        for ms in vectors:
            walks.clear()
            verdict = is_coherent(ms, lam, p)
            assert verdict == dense_is_coherent(ms, lam, p, rows), (p, parts, len(ms.entries))
            sides[any(walked != lam for walked in walks)] += 1
            verdicts[verdict] += 1
    assert verdicts[True] >= len(TALL_CHAINS) and verdicts[False] > len(TALL_CHAINS)
    assert sides[True] > 300 and sides[False] > 50, sides


def test_is_coherent_checks_each_pairs_own_rows_on_the_local_path(walks):
    # On (4, 4, 1, 1, 1) at p = 2 this vector holds every (T) row and (C)
    # but not the (E) rows of pair (1, 2), which the (T) rows do not
    # imply.  Its six pairs (r, s), r <= 2 < s, share one key, so it is
    # checked triple by triple, and the (E) rows of pair (1, 2) are read
    # in the three-row systems of the triples (1, 2, t).
    lam = Partition((4, 4, 1, 1, 1))
    values = {(1, 2, 2): 1, **{(r, s, 1): 1 for r in (1, 2) for s in (3, 4, 5)}}
    ms = multisequence_from_slots(lam, 2, values)
    literal = transcribed_rows_mod_p(lam.parts, 2)
    assert transcribed_is_coherent(ms, {tag: row for tag, row in literal.items() if tag[0] != "E"})
    assert not transcribed_is_coherent(ms, literal)
    walks.clear()
    assert not is_coherent(ms, lam, 2)
    assert not dense_is_coherent(ms, lam, 2)
    assert walks and all(walked.n == 3 for walked in walks)


#: Coherent vectors of four rows whose support repeats exactly three or
#: four pair keys (part_r, part_s, restriction), each over more than four
#: slots: nullspace vectors, and sums of two, of these shapes.
BOUNDARY_WITNESSES = [
    ((2, 2, 1, 1), 2, {(1, 2, 1): 1, (1, 3, 1): 1, (1, 4, 1): 1, (2, 3, 1): 1, (2, 4, 1): 1}),
    ((2, 2, 2, 1), 2, {(r, s, 1): 1 for r, s in combinations(range(1, 5), 2)}),
    (
        (3, 3, 1, 1),
        3,
        {(1, 2, 1): 2, (1, 2, 2): 2, (1, 2, 3): 1, (1, 3, 1): 2}
        | {(1, 4, 1): 2, (2, 3, 1): 2, (2, 4, 1): 2, (3, 4, 1): 1},
    ),
    (
        (2, 2, 2, 1),
        3,
        {(r, s, 1): 1 for r, s in combinations(range(1, 5), 2)}
        | {(r, s, 2): 2 for r, s in combinations(range(1, 4), 2)},
    ),
    (
        (2, 2, 1, 1),
        5,
        {(1, 2, 1): 4, (1, 2, 2): 3, (1, 3, 1): 4, (1, 4, 1): 4}
        | {(2, 3, 1): 4, (2, 4, 1): 4, (3, 4, 1): 1},
    ),
    (
        (2, 1, 1, 1),
        5,
        {(1, 2, 1): 4, (1, 3, 1): 4, (1, 4, 1): 4, (2, 3, 1): 1, (2, 4, 1): 1, (3, 4, 1): 1},
    ),
    (
        (4, 4, 1, 1),
        7,
        {(1, 2, 1): 6, (1, 2, 2): 4, (1, 3, 1): 6, (1, 4, 1): 6}
        | {(2, 3, 1): 6, (2, 4, 1): 6, (3, 4, 1): 1},
    ),
    (
        (4, 1, 1, 1),
        7,
        {(1, 2, 1): 6, (1, 3, 1): 6, (1, 4, 1): 6, (2, 3, 1): 1, (2, 4, 1): 1, (3, 4, 1): 1},
    ),
]


def repeated_pair_keys(ms):
    """The support's pairs less their distinct keys (part_r, part_s, restriction)."""
    restriction = {}
    for (r, s, i), value in ms.entries:
        restriction.setdefault((r, s), []).extend((i, value))
    parts = ms.lam.parts
    keys = {(parts[r - 1], parts[s - 1], tuple(flat)) for (r, s), flat in restriction.items()}
    return len(restriction) - len(keys)


def test_is_coherent_takes_the_local_check_from_four_repeated_keys(walks):
    """Vectors of four rows or more and more than four slots whose support
    repeats exactly three or four pair keys: the first are walked whole,
    the second checked triple by triple, and both agree with the dense
    check.  The coherent ones are ``BOUNDARY_WITNESSES``, each also with
    its last slot changed where more than four slots are left.  Those of
    (2^k) at p = 3 hold one restriction on four or five pairs, and another
    on one more pair or none."""
    vectors = []
    for parts, p, entries in BOUNDARY_WITNESSES:
        lam = Partition(parts)
        last = max(entries)
        vectors.append(multisequence_from_slots(lam, p, entries))
        changed = multisequence_from_slots(lam, p, {**entries, last: entries[last] + 1})
        if len(changed.entries) > 4:  # at p = 2 the slot is dropped
            vectors.append(changed)
    restrictions = (((1, 2), ()), ((1, 2), (2, 1)), ((2, 1), (1, 1)), ((1, 1), (1, 2)))
    for k in (4, 5):
        lam = Partition((2,) * k)
        pairs = list(combinations(range(1, k + 1), 2))
        for m in (4, 5):
            for chosen in (pairs[: m + 1], pairs[-m - 1 :]):
                for first, other in restrictions:
                    entries = {
                        pair + (i,): v
                        for pair, flat in zip(chosen, [first] * m + [other])
                        for i, v in enumerate(flat, 1)
                    }
                    vectors.append(multisequence_from_slots(lam, 3, entries))
    sides = Counter()
    for ms in vectors:
        lam, p = ms.lam, ms.p
        repeats = repeated_pair_keys(ms)
        assert len(ms.entries) > 4 and lam.n >= 4 and repeats in (3, 4), (lam.parts, p, ms.entries)
        walks.clear()
        verdict = is_coherent(ms, lam, p)
        assert verdict == dense_is_coherent(ms, lam, p), (lam.parts, p, ms.entries)
        assert walks == [lam] if repeats == 3 else walks and all(w.n == 3 for w in walks)
        sides[repeats, verdict] += 1
    assert set(sides) == {(3, True), (3, False), (4, True), (4, False)}, sides


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
    nullspace of the relations the build settles (``stream_system``: the
    rows of ``commuting_rows`` and the triple blocks) without the rows of
    that kind, for every partition with at least 4 rows and d <= 10 at p
    in {2, 3, 5}.

    The vectors that break a (C) relation here all break a link row: for
    every partition with d <= 13 at p in {2, 3, 5, 7}, the zero and ratio
    rows add no rank over the other rows.  Zero rows do carry rank on
    deeper top parts (``test_zero_commuting_rows_carry_rank``).  The
    witnesses are checked against the transcription in
    ``test_is_coherent_matches_dense_check_on_every_witness``."""
    incoherent = Counter()
    vectors = 0
    for p in (2, 3, 5):
        for d in range(4, 11):
            for lam in enumerate_partitions(d, d):
                if lam.n < 4:
                    continue
                system = stream_system(lam, p)
                assert dense_echelon(system) == dense_echelon(build_relation_system(lam, p))
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


@pytest.mark.parametrize("top", [3**12 - 1, 10**30 + 7])
@pytest.mark.parametrize(
    "lower, zero_rows, rank",
    [((5, 1, 1), 5, 9), ((5, 2, 1, 1), 9, 15), ((5, 2, 2, 1, 1), 15, 23)],
)
def test_zero_commuting_rows_carry_rank(top, lower, zero_rows, rank):
    """Without its (C) zero rows, the relations the build of a split
    partition settles (``stream_system``) lose one rank at p = 3: their nullspace gains a
    vector that breaks a (C) relation, and the oracle would read ext1 = 1
    where the classifier reads 0.  The built system, reduced from the
    whole stream, holds one row per rank."""
    lam, p = Partition((top, *lower)), 3
    system = stream_system(lam, p)
    built = build_relation_system(lam, p)
    assert dense_echelon(built) == dense_echelon(system)
    assert len(built.rows) == rank
    reduced = without_rows(system, lambda tag: tag[:2] == ("C", "zero"))
    assert len(system.row_tags) - len(reduced.row_tags) == zero_rows
    assert (len(_echelon(system)), len(_echelon(reduced))) == (rank, rank - 1)
    assert (dim_E(lam, p), len(nullspace(reduced))) == (1, 2)
    literal = transcribed_rows_mod_p(lam.parts, p)
    verdicts = [is_coherent(ms, lam, p) for ms in nullspace(reduced)]
    assert verdicts == [transcribed_is_coherent(ms, literal) for ms in nullspace(reduced)]
    assert sorted(verdicts) == [False, True]
    assert ext1_dim(lam, p).case_tag == "split"
    assert ext1_dim(lam, p).ext1_dim == ext1_dim_oracle(lam, p) == 0


@pytest.mark.parametrize(
    "parts, p, ratio_tag, rank",
    [
        ((67, 11, 2, 1), 2, ("C", "ratio", 1, 2, 8), 17),
        ((32, 11, 2, 1, 1), 3, ("C", "ratio", 1, 2, 9), 21),
    ],
)
def test_ratio_commuting_rows_carry_rank(parts, p, ratio_tag, rank):
    """Without one (C) ratio row, the relations the builds of these split
    partitions settle (``stream_system``) lose one rank: the nullspace gains a dimension, and the
    oracle would read ext1 = 1 where the classifier reads 0.  Neither basis
    vector of the smaller system is coherent, and the built system holds
    one row per rank.  No shape with d <= 18 and at most 8 parts was found to need
    a ratio row; these were found by a random search over deeper ones."""
    lam = Partition(parts)
    system = stream_system(lam, p)
    built = build_relation_system(lam, p)
    assert dense_echelon(built) == dense_echelon(system)
    assert len(built.rows) == rank
    reduced = without_rows(system, lambda tag: tag == ratio_tag)
    assert len(system.row_tags) - len(reduced.row_tags) == 1
    assert system.num_slots == rank + 1
    assert (len(_echelon(system)), len(_echelon(reduced))) == (rank, rank - 1)
    assert (dim_E(lam, p), len(nullspace(reduced))) == (1, 2)
    literal = transcribed_rows_mod_p(parts, p)
    for ms in nullspace(reduced):
        assert not is_coherent(ms, lam, p)
        assert not transcribed_is_coherent(ms, literal)
    assert ext1_dim(lam, p).case_tag == "split"
    assert ext1_dim(lam, p).ext1_dim == ext1_dim_oracle(lam, p) == 0


def test_is_coherent_refuses_a_broken_class_or_a_set_zero_slot():
    """From each basis vector of the built system, setting one zero slot
    to 1, adding 1 to the first slot of one class, or, where the vector
    holds every slot of a class, setting the class's last slot to 0,
    breaks exactly that (C) relation, and both ``is_coherent`` and
    ``transcribed_is_coherent`` refuse the vector: for every partition
    with at least 4 rows and d <= 9 at p in {2, 3, 5}, and the split
    shapes whose (C) zero or ratio rows carry rank.  On those shapes some
    of the vectors satisfy every (E) and (T) row, so only the (C) check
    can refuse them.  A class missing one slot other than its first
    shows a check that reads the support alone must count the class's
    slots there, not only compare their values."""
    cases = [
        (lam, p) for p in (2, 3, 5) for d in range(4, 10) for lam in enumerate_partitions(d, d)
        if lam.n >= 4
    ]
    cases += [
        (Partition(parts), p)
        for parts, p in [
            ((3**12 - 1, 5, 1, 1), 3),
            ((10**30 + 7, 5, 2, 2, 1, 1), 3),
            ((67, 11, 2, 1), 2),
            ((32, 11, 2, 1, 1), 3),
        ]
    ]
    refused, only_commuting = Counter(), Counter()
    for lam, p in cases:
        literal = transcribed_rows_mod_p(lam.parts, p)
        others = {tag: row for tag, row in literal.items() if tag[0] != "C"}
        slots = canonical_slot_order(lam)
        zeros, classes = commuting_slots(lam, p)
        for ms in nullspace(build_relation_system(lam, p)):
            values = dict(ms.entries)
            broken = [("zero", slots[v], 1) for v in zeros]
            for (first, _std), *_rest in classes:
                broken.append(("class", slots[first], values.get(slots[first], 0) + 1))
            for cls in classes:
                if all(slots[v] in values for v, _std in cls):
                    broken.append(("missing", slots[cls[-1][0]], 0))
            for kind, slot, value in broken:
                vector = multisequence_from_slots(lam, p, {**values, slot: value})
                assert not is_coherent(vector, lam, p), (p, lam.parts, kind, slot)
                assert not transcribed_is_coherent(vector, literal), (p, lam.parts, kind, slot)
                refused[kind] += 1
                only_commuting[kind] += transcribed_is_coherent(vector, others)
    assert refused == Counter({"zero": 482, "class": 174, "missing": 152})
    assert only_commuting == Counter({"zero": 2, "class": 3, "missing": 2})
