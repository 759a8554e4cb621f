"""Fixed points and first extensions of symmetric powers over a Borel subgroup.

Two independent routes to the same numbers: a closed-form classifier
driven by base-p digit combinatorics, and a brute-force oracle that
solves the coherence relations over F_p.  See the README for the sweep
harness that cross-checks them exhaustively.
"""

from .classifier import (
    Classification,
    canonical_multisequence,
    ext1_dim,
    gl2_ext_dim,
    h0_dim,
    james_ext_dim,
    sl2_ext_dim,
    triple_verdict,
)
from .coherence import (
    MultiSequence,
    RelationSystem,
    SlotIndex,
    SystemTooLargeError,
    build_relation_system,
    canonical_slot_order,
    dim_E,
    ext1_dim_oracle,
    is_coherent,
    multisequence_from_slots,
    nullspace,
    standard_multisequence,
)
from .padic import (
    InvalidModulusError,
    binom_mod_p,
    len_p,
    val_p,
)
from .partitions import (
    InvalidPartitionError,
    Partition,
    PSegments,
    TwoPartClass,
    classify_two_part,
    enumerate_partitions,
    is_james_pair,
    is_james_partition,
    james_index,
    new_partition,
    non_james_pairs,
    p_segments,
)

__all__ = [
    "Classification",
    "InvalidModulusError",
    "InvalidPartitionError",
    "MultiSequence",
    "PSegments",
    "Partition",
    "RelationSystem",
    "SlotIndex",
    "SystemTooLargeError",
    "TwoPartClass",
    "binom_mod_p",
    "build_relation_system",
    "canonical_multisequence",
    "canonical_slot_order",
    "classify_two_part",
    "dim_E",
    "enumerate_partitions",
    "ext1_dim",
    "ext1_dim_oracle",
    "gl2_ext_dim",
    "h0_dim",
    "is_coherent",
    "is_james_pair",
    "is_james_partition",
    "james_ext_dim",
    "james_index",
    "len_p",
    "multisequence_from_slots",
    "new_partition",
    "non_james_pairs",
    "nullspace",
    "p_segments",
    "sl2_ext_dim",
    "standard_multisequence",
    "triple_verdict",
    "val_p",
]
