"""The hard shapes that CI checks one CLI process each, and tier-1 in-process.

Each entry is (parts, p, reason).  ``test_corpus.py`` checks every entry:
the closed form against the oracle in ext^1 and in H^0, and for ``BASIS``
also the dimension of the basis that ``spechtex basis`` prints.  CI reads
the same lists, one group at a time, through

    python tests/corpus.py GROUP

which prints one ``parts:p`` per line, for example ``4,2,2:2``.  A new
hard shape goes here, not into the workflow file.
"""

from __future__ import annotations

import sys

#: Wide three-row shapes, run through ``classify --method both``.  On the
#: first four the oracle's gain graph reaches the rank ceiling part way
#: through the slot marks of the rows with one nonzero coefficient.
WIDE_THREE_ROW = [
    ((974026, 46, 31), 3, "benchmark shape; the ceiling falls among the slot marks"),
    ((733347, 47, 46), 2, "benchmark shape at p = 2, where every gain is 1"),
    ((61300, 59, 23), 5, "benchmark shape; the ceiling falls among the slot marks"),
    ((975597, 56, 31), 7, "benchmark shape; the ceiling falls among the slot marks"),
    ((59048, 107, 96), 3, "three live roots after the slot marks, so the (T3) rows are fed"),
    ((4095, 127, 127), 2, "James; two live roots after the slot marks, so the (T3) rows are fed"),
    ((999999, 60, 45), 131, "above the digit table of _lucas_range: Kummer listings without it"),
    ((1330, 121, 120), 11, "a lower row of 11**2: _lucas_range's chunk path, two-digit scans"),
]

#: Shapes with four rows or more, run through ``classify --method both``.
#: The oracle writes the (C) zero slots and classes into its gain graph,
#: then feeds it the triple blocks as they are generated; in a fresh
#: process the block cache starts cold.
FOUR_ROWS_OR_MORE = [
    ((1,) * 16, 5, "tall; one (C) class of every slot reaches the ceiling alone"),
    ((1,) * 13, 2, "tall James shape: no (C) head at p = 2, the blocks carry the rank"),
    ((2,) * 5 + (1,) * 7, 3, "tall split shape; 45 (C) zero pairs and a class carry rank"),
    ((999999, 35, 30, 20), 7, "wide; three (C) classes of two pairs"),
    ((531440, 5, 2, 2, 1, 1), 3, "split shape whose six (C) zero pairs carry rank"),
    ((67, 11, 2, 1), 2, "split shape whose (C) class carries rank at p = 2"),
    ((32, 11, 2, 1, 1), 3, "split shape whose (C) zero pairs and class carry rank"),
    ((600000, 34, 27, 13), 2, "wide at p = 2; three (C) classes of two pairs"),
    ((1, 1, 1, 1), 3, "three (C) classes, one per perfect matching of the rows; quadruple"),
    ((4, 4, 4, 4), 7, "12 (C) zero slots and three classes of four"),
    ((1,) * 26, 2, "James chain: the build stops at rank V - 1 among the triple blocks"),
    ((3,) * 15, 2, "James chain: the build stops at rank V - 1 among the triple blocks"),
    ((2,) * 18, 3, "James chain: the build stops at rank V - 1 among the triple blocks"),
    ((4,) * 13, 5, "James chain: the build stops at rank V - 1 among the triple blocks"),
]

#: Shapes run through ``spechtex basis``, which reads the whole RREF off
#: the built system where ``classify`` reads only its rank.  Its dim E must
#: be ext1_B + 1 - h0 of the closed form: the standard multi-sequence,
#: nonzero exactly when h0 = 0, is the one solution ext^1 leaves out.
BASIS = [
    ((4, 2, 2), 2, "a link row whose root is a pivot of the long rows"),
    ((1, 1, 1, 1), 3, "a link row whose root is a pivot of the long rows"),
    ((2, 2, 2, 1, 1, 1, 1), 3, "a link row whose root is a pivot of the long rows"),
    ((3, 3, 1, 1), 5, "a link row whose root is a pivot of the long rows"),
    ((5, 5, 1, 1), 7, "a link row whose root is a pivot of the long rows"),
    ((603683, 39, 9), 3, "wide; keeps a (T3a) long row"),
    ((80999, 26, 26), 3, "wide James shape; the build stops at the ceiling"),
    ((1, 1, 1, 1, 1), 3, "classify stops at the (C) plan; basis builds the whole forest"),
    ((5, 4, 3, 2, 1), 7, "classify stops at the (C) plan; basis builds the whole forest"),
    ((100, 10, 10, 10, 10), 7, "classify stops at the (C) plan; basis builds the whole forest"),
    ((999999, 60, 45), 131, "135 of 143 link gains, read off std's unit parts, are not +-1"),
    ((1330, 121, 120), 11, "wide at p = 11; link gains read off std's unit parts"),
]

GROUPS = {
    "wide-three-row": WIDE_THREE_ROW,
    "four-rows-or-more": FOUR_ROWS_OR_MORE,
    "basis": BASIS,
}


if __name__ == "__main__":
    for parts, p, _reason in GROUPS[sys.argv[1]]:
        print(",".join(map(str, parts)) + f":{p}")
