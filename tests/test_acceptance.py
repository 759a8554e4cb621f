"""Acceptance suite: every criterion at its stated (exact) tolerance.

Each test prints one PASS line on success; a failure raises with the
offending instance in the message.  Everything here is exact integer
equality — no numerical tolerances are involved.
"""

import time

from oracles import int_val, pascal_binom
from spechtex.classifier import (
    canonical_multisequence,
    ext1_dim,
    gl2_ext_dim,
    h0_dim,
    james_ext_dim,
)
from spechtex.coherence import (
    dim_E,
    ext1_dim_oracle,
    is_coherent,
    standard_multisequence,
)
from spechtex.padic import binom_mod_p, val_p
from spechtex.partitions import (
    Partition,
    classify_two_part,
    enumerate_partitions,
    is_james_partition,
    non_james_pairs,
)

SWEEP_PRIMES = (2, 3, 5, 7)
SWEEP_DEGREE = 14


def all_partitions(d_max, parts_cap=None):
    for d in range(d_max + 1):
        cap = parts_cap if parts_cap is not None else max(d, 1)
        yield from enumerate_partitions(d, cap)


def test_criterion_01_master_sweep():
    started = time.monotonic()
    checked = 0
    for p in SWEEP_PRIMES:
        for lam in all_partitions(SWEEP_DEGREE):
            closed = ext1_dim(lam, p).ext1_dim
            oracle = ext1_dim_oracle(lam, p)
            assert closed == oracle, f"p={p} lambda={lam}: closed={closed} oracle={oracle}"
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 600, f"master sweep exceeded 10 minutes: {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 1: PASS - master sweep p in {SWEEP_PRIMES}, d <= {SWEEP_DEGREE}, "
        f"{checked} instances, 0 mismatches, {elapsed:.1f}s"
    )


def test_criterion_02_sign_representation_of_four():
    lam = Partition((1, 1, 1, 1))
    closed = ext1_dim(lam, 3)
    assert closed.ext1_dim == 1
    assert ext1_dim_oracle(lam, 3) == 1
    assert closed.case_tag == "quadruple"
    assert closed.witness is not None and is_coherent(closed.witness, lam, 3)
    print("ACCEPTANCE 2: PASS - (1,1,1,1) at p=3 gives 1 by both methods, witness coherent")


def test_criterion_03_two_core_regression():
    lam3 = Partition((2, 1, 1))
    lam4 = Partition((2, 1, 1, 1))
    assert ext1_dim(lam3, 2).ext1_dim == 1 == ext1_dim_oracle(lam3, 2)
    assert ext1_dim(lam4, 2).ext1_dim == 0 == ext1_dim_oracle(lam4, 2)
    print("ACCEPTANCE 3: PASS - p=2: (2,1,1) gives 1, (2,1,1,1) gives 0, both methods")


def test_criterion_04_nested_james_family():
    for p in (2, 3):
        base = Partition((p**2 - 1, 1))
        grown = Partition((p**3 - 1, p**2 - 1, 1))
        assert ext1_dim(base, p).ext1_dim == 1 == ext1_dim_oracle(base, p)
        assert ext1_dim(grown, p).ext1_dim == 2 == ext1_dim_oracle(grown, p)
        # n = 3 members by classifier.
        assert ext1_dim(Partition((p**3 - 1, p**2 - 1, 1)), p).ext1_dim == 2
        assert ext1_dim(Partition((p**4 - 1, p**3 - 1, p**2 - 1, 1)), p).ext1_dim == 3
    started = time.monotonic()
    assert ext1_dim_oracle(Partition((26, 8, 1)), 3) == 2
    elapsed = time.monotonic() - started
    assert elapsed < 30, f"(26,8,1) oracle took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 4: PASS - nested James family dims n-1 and n for p in (2,3); "
        f"(26,8,1) oracle in {elapsed:.2f}s"
    )


def test_criterion_05_scaled_partitions_split():
    for p in (3, 5):
        for lam in all_partitions(6):
            if lam.n < 3:
                continue
            scaled = Partition(tuple(p * part for part in lam.parts))
            closed = ext1_dim(scaled, p).ext1_dim
            oracle = ext1_dim_oracle(scaled, p)
            assert closed == 0 == oracle, f"p={p} scaled={scaled}"
    lam66 = Partition((6, 6))
    assert ext1_dim(lam66, 3).ext1_dim == 0 == ext1_dim_oracle(lam66, 3)
    print("ACCEPTANCE 5: PASS - p*lambda splits for >= 3 parts (p in 3,5); (6,6) at p=3 gives 0")


def test_criterion_06_two_part_theory():
    expected_dim = {"james": 1, "pointed": 2, "split": 1}
    for p in (2, 3, 5):
        for a in range(1, 30):
            for b in range(1, min(a, 30 - a) + 1):
                lam = Partition((a, b))
                kind = classify_two_part(a, b, p).kind
                assert dim_E(lam, p) == expected_dim[kind], (p, a, b, kind)
                if kind == "split":
                    assert not standard_multisequence(lam, p).is_zero()
                assert gl2_ext_dim(a + b, 0, a, b, p) == ext1_dim_oracle(lam, p)
    print("ACCEPTANCE 6: PASS - two-part dim E is 1/2/1 for james/pointed/split; gl2 matches oracle (a+b <= 30, p in 2,3,5)")


def test_criterion_07_james_theory():
    checked = 0
    for p in (2, 3, 5):
        for lam in all_partitions(16):
            if not is_james_partition(lam, p):
                continue
            closed = james_ext_dim(lam, p)
            assert closed == ext1_dim_oracle(lam, p), (p, lam.parts)
            if lam.n >= 2:
                can = canonical_multisequence(lam, p)
                assert not can.is_zero()
                assert is_coherent(can, lam, p)
                assert closed <= lam.n - 1
            checked += 1
    print(
        f"ACCEPTANCE 7: PASS - {checked} James instances (d <= 16, p in 2,3,5): "
        "segment formula matches oracle, canonical witness coherent, dim <= n-1"
    )


def test_criterion_08_structural_properties():
    for p in (2, 3, 5):
        for lam in all_partitions(SWEEP_DEGREE):
            james = is_james_partition(lam, p)
            standard = standard_multisequence(lam, p)
            assert is_coherent(standard, lam, p), (p, lam.parts)
            assert standard.is_zero() == james
            dim = dim_E(lam, p)
            oracle = ext1_dim_oracle(lam, p)
            assert oracle == (dim if james else dim - 1)
            if not james:
                assert oracle <= 1
            pairs = non_james_pairs(lam, p)
            if any(s > r + 2 for r in pairs for s in pairs):
                assert oracle == 0, (p, lam.parts)
    # Standard-in-kernel extended to d <= 16 per the module invariant.
    for p in (2, 3, 5):
        for lam in all_partitions(16):
            assert is_coherent(standard_multisequence(lam, p), lam, p)
    print(
        "ACCEPTANCE 8: PASS - standard in kernel (d <= 16), zero iff James, "
        "ext1 = dim E - [non-James], non-James cap 1, distant-pair vanishing"
    )


def test_criterion_09_arithmetic_substrate():
    for p in SWEEP_PRIMES:
        for a in range(61):
            for b in range(a + 1):
                assert binom_mod_p(a, b, p) == pascal_binom(a, b) % p
    pairs = 0
    for p in (2, 3, 5, 7):
        for a in range(1, 101):
            v = val_p(a + 1, p)
            for b in range(1, min(a, p**v - 1) + 1):
                assert int_val(pascal_binom(a + b, b), p) == v - val_p(b, p)
                pairs += 1
    print(
        f"ACCEPTANCE 9: PASS - digit binomials match exact values (a <= 60); "
        f"James-pair valuation identity on {pairs} pairs (a <= 100)"
    )


def test_criterion_10_fixed_points():
    for p in SWEEP_PRIMES:
        for lam in all_partitions(SWEEP_DEGREE):
            assert h0_dim(lam, p) == (1 if is_james_partition(lam, p) else 0)
    print("ACCEPTANCE 10: PASS - h0 is the James indicator on the full sweep range")


def test_nightly_extended_sweep():
    for p in SWEEP_PRIMES:
        for lam in all_partitions(18, parts_cap=6):
            closed = ext1_dim(lam, p).ext1_dim
            oracle = ext1_dim_oracle(lam, p)
            assert closed == oracle, f"p={p} lambda={lam}"
    print("NIGHTLY: PASS - extended sweep d <= 18, parts <= 6")
