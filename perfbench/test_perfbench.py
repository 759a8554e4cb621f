"""Self-tests for the benchmark: python3 -m pytest perfbench -q"""

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import hostspeed
import worker
import workloads as wl
from tracer import Tracer
from spechtex import Partition, classify_two_part, ext1_dim, is_james_partition, triple_verdict
from spechtex.coherence import _iter_relation_rows

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "generate",
    [
        lambda seed: wl.sweep_orders(seed, 2032, passes=3),
        wl.classify_deep_inputs,
        wl.oracle_large_inputs,
    ],
)
def test_generators_repeat_for_a_seed(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_workload_sizes():
    assert len(wl.all_partitions(wl.SWEEP_DEGREE)) == 508
    assert len(wl.classify_deep_inputs(1)) >= 300
    assert len(wl.oracle_large_inputs(1)) >= 100


def test_candidate_rows_match_the_oracle_ranges():
    rng = random.Random(0)
    shapes = [(), (1,), (3, 1), (2, 2, 2), (1, 1, 1, 1), (5, 3, 3, 1), (4, 4, 2, 1, 1)]
    shapes += [
        tuple(sorted((rng.randint(1, 6) for _ in range(rng.randint(1, 5))), reverse=True))
        for _ in range(20)
    ]
    for parts in shapes:
        for p in wl.PRIMES:
            brute = Counter(tag[0] for tag, _row in _iter_relation_rows(Partition(parts), p))
            assert wl.candidate_rows(parts) == {f: brute[f] for f in wl.FAMILIES}, parts
            assert wl.slot_count(parts) == sum(parts[s] for r in range(len(parts)) for s in range(r + 1, len(parts)))


def test_deep_inputs_have_their_digit_kinds():
    # Blocks list the templates in a shuffled order, so check by kind counts.
    items = wl.classify_deep_inputs(3)
    kinds = Counter()
    for p, parts in items:
        lam = Partition(parts)
        head = classify_two_part(parts[0], parts[1], p).kind
        assert head == wl.two_part_kind(parts[0], parts[1], p)
        kinds["james" if is_james_partition(lam, p) else head] += 1
        assert max(parts[1:]) <= wl.DEEP_LOW and parts[0] <= wl.TOP
    per_kind = wl.DEEP_BLOCKS * len(wl.PRIMES)
    assert kinds["james"] == 3 * per_kind
    assert kinds["pointed"] == 2 * per_kind
    assert kinds["split"] == per_kind


def test_self_time_skips_replays():
    tr = Tracer()
    with tr.span("bench.call"):
        with tr.span("classifier.ext1_dim") as sp:
            pass
        with tr.span("coherence.is_coherent", parent=sp.id, replay=True):
            pass
    own = tr.self_times()
    call, ext1, replay = tr.spans
    assert own[ext1.id] == pytest.approx(ext1.duration)
    assert own[call.id] == pytest.approx(call.duration - ext1.duration)
    assert own[replay.id] == pytest.approx(replay.duration)


@pytest.mark.parametrize("p, parts, r", [(2, (2, 1, 1), 1), (2, (2, 2, 1), 1), (2, (3, 2, 1, 1), 2), (2, (3, 2, 2, 1), 2)])
def test_triple_cases_replay_both_witness_checks(p, parts, r):
    # adjacent-pairs and split-pair check the three-row witness inside
    # triple_verdict and the embedded one in ext1_dim; both are replayed.
    c = ext1_dim(Partition(parts), p)
    assert c.case_tag.startswith(("adjacent-pairs/", "split-pair/"))
    triple, witness = worker.triple_witness(c)
    assert witness == triple_verdict(*parts[r - 1 : r + 2], p).witness
    tr = Tracer()
    worker.traced_ext1_dim(tr, worker.LayerStats(), Partition(parts), p)
    replays = [sp for sp in tr.spans if sp.replay]
    assert [sp.name for sp in replays] == ["coherence.is_coherent"] * 2


def test_host_clock_scales_by_the_latest_probe(monkeypatch):
    probes = iter([0.004, 0.001])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(probes))
    monkeypatch.setattr(hostspeed, "PROBE_EVERY_S", 0.0)
    clock = hostspeed.HostClock()
    assert clock.factor == pytest.approx(hostspeed.REFERENCE_S / 0.004)
    clock.tick()
    assert clock.factor == pytest.approx(hostspeed.REFERENCE_S / 0.001)
    assert clock.probes == [0.004, 0.001]


class Tiny(worker.ClassifyDeep):
    """A few cheap items covering a James, a pointed and a split head."""

    @staticmethod
    def generate(seed):
        return [(3, (8, 2)), (2, (4, 2, 1)), (5, (9, 5)), (3, (1, 1, 1, 1))]


class TinyLarge(worker.OracleLarge):
    generate = staticmethod(Tiny.generate)


def names(section):
    return {entry["name"] for entry in SPEC[section]}


def test_every_named_metric_is_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "OUT", tmp_path / "out")
    monkeypatch.setattr(worker, "CACHE", tmp_path / "cache")
    untraced = worker.run_untraced(Tiny(1), seconds=0.2)
    assert untraced["failed"] == 0 and untraced["attempted"] >= 4
    # run.py adds the set-up time of a fresh interpreter.
    assert set(untraced["metrics"]) | {"setup_s"} == names("end_to_end")
    for work in (Tiny(1), TinyLarge(1), worker.SweepAcceptance(1)):
        if isinstance(work, worker.SweepAcceptance):
            work.orders = [work.orders[0][:40]]
        traced = worker.run_traced(work, "tiny", 1)
        assert traced["failed"] == 0
        # run.py adds the cold start of the CLI.
        assert set(traced["metrics"]) | {"cli.cold_classify_ms"} == names("per_layer")


def test_counts_repeat_for_a_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "OUT", tmp_path / "out")
    first = worker.run_traced(TinyLarge(1), "tiny", 1)["metrics"]
    second = worker.run_traced(TinyLarge(1), "tiny", 1)["metrics"]
    counts = {k for k, (_v, unit) in first.items() if unit == "count"}
    assert counts and all(first[k] == second[k] for k in counts)


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out", ".cache"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "classify-deep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
