import pytest

from corpus import GROUPS
from spechtex.classifier import ext1_dim
from spechtex.coherence import _oracle, _triple_block, build_relation_system, nullspace
from spechtex.partitions import Partition

CASES = [(group, parts, p) for group, entries in GROUPS.items() for parts, p, _reason in entries]


@pytest.mark.parametrize(
    "group, parts, p", CASES, ids=[f"{g}-{','.join(map(str, parts))}:{p}" for g, parts, p in CASES]
)
def test_corpus_shape_closed_form_matches_oracle(group, parts, p):
    # As CI's fresh CLI process would: a cold block cache, then ext^1 and
    # H^0 from both sides.  For the basis group, also the dimension
    # `spechtex basis` prints, against ext1_B + 1 - h0.
    _triple_block.cache_clear()
    lam = Partition(parts)
    closed = ext1_dim(lam, p)
    assert (closed.ext1_dim, closed.h0) == _oracle(lam, p)[1:]
    if group == "basis":
        _triple_block.cache_clear()
        assert len(nullspace(build_relation_system(lam, p))) == closed.ext1_dim + 1 - closed.h0
