"""Run one workload in this process and print its measurements as JSON.

``run.py`` starts this script in a fresh interpreter per workload, so the
peak resident memory it reports belongs to that workload alone.

Untraced (``--trace 0``): a closed loop, one caller, sequential calls,
cycling over the workload's passes until ``--seconds`` have passed.  Only the
library call is inside each call's timer, and each timed duration is scaled
to a quiet host (hostspeed.py).  The answers are checked after the loop.

Traced (``--trace 1``): exactly one pass with spans around every call into
the library, each call repeated at once untraced to price the tracing, then
the answer checks, also traced.  One fixed pass makes every count repeat
exactly for a given seed.  Span times are scaled like the untraced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spechtex  # noqa: E402
from spechtex import (  # noqa: E402
    build_relation_system,
    enumerate_partitions,
    ext1_dim,
    ext1_dim_oracle,
    is_coherent,
    is_james_partition,
    multisequence_from_slots,
    new_partition,
    non_james_pairs,
    nullspace,
)

import workloads as wl  # noqa: E402
from hostspeed import HostClock  # noqa: E402
from tracer import Tracer  # noqa: E402

CASES = ("trivial", "james", "split", "pointed-pair", "adjacent-pairs", "split-pair", "quadruple")
OUT = HERE / "out"
CACHE = HERE / ".cache"


def _span(tr: Tracer | None, name: str, **attrs):
    return tr.span(name, **attrs) if tr is not None else contextlib.nullcontext()


class LayerStats:
    """Counts recorded next to the spans: cases, witnesses, system sizes."""

    def __init__(self) -> None:
        self.cases: Counter = Counter()
        self.witnesses = 0
        self.rows_candidate = 0
        self.rows_kept: Counter = Counter()
        self.slots = 0
        self.rank = 0
        self.matrix_mb_max = 0.0

    def classification(self, c) -> None:
        self.cases[c.case_tag.split("/", 1)[0]] += 1
        self.witnesses += c.witness is not None

    def system(self, system, basis) -> None:
        self.rows_candidate += sum(wl.candidate_rows(system.lam.parts).values())
        self.rows_kept.update(tag[0] for tag in system.row_tags)
        self.slots += system.num_slots
        self.rank += system.num_slots - len(basis)
        # Computed, not measured: the int64 matrix nullspace allocates.
        self.matrix_mb_max = max(self.matrix_mb_max, len(system.rows) * system.num_slots * 8 / 1e6)


def triple_witness(c):
    """The three-row witness ``triple_verdict`` checked before ext1_dim embedded it.

    The adjacent-pairs and split-pair cases decide on rows r..r+2, r the
    first non-James pair; the embedded witness is that triple's witness with
    its rows shifted by r - 1, so shifting back restores it.
    """
    r = non_james_pairs(c.lam, c.p)[0]
    triple = new_partition(c.lam.parts[r - 1 : r + 2])
    slots = {(s.r - r + 1, s.s - r + 1, s.i): v for s, v in c.witness.nonzero_slots()}
    return triple, multisequence_from_slots(triple, c.p, slots)


def traced_ext1_dim(tr: Tracer, stats: LayerStats, lam, p):
    with tr.span("classifier.ext1_dim") as sp:
        c = ext1_dim(lam, p)
    stats.classification(c)
    if c.witness is not None:
        # Replay of the witness checks ext1_dim ran inside the call: the
        # triple's own check first, where the case came from triple_verdict.
        if c.case_tag.startswith(("adjacent-pairs/", "split-pair/")):
            triple, witness = triple_witness(c)
            with tr.span("coherence.is_coherent", parent=sp.id, replay=True):
                is_coherent(witness, triple, p)
        with tr.span("coherence.is_coherent", parent=sp.id, replay=True):
            is_coherent(c.witness, lam, p)
    return c


def traced_oracle(tr: Tracer, stats: LayerStats, lam, p) -> int:
    with tr.span("coherence.ext1_dim_oracle") as sp:
        dim = ext1_dim_oracle(lam, p)
    # Replay of the build -> reduce path ext1_dim_oracle ran inside the call.
    with tr.span("coherence.build_relation_system", parent=sp.id, replay=True):
        system = build_relation_system(lam, p)
    with tr.span("coherence.nullspace", parent=sp.id, replay=True):
        basis = nullspace(system)
    stats.system(system, basis)
    return dim


class SweepAcceptance:
    """Every partition of d <= 14 at p in {2,3,5,7}: ext1_dim then the oracle."""

    def __init__(self, seed: int) -> None:
        self.universe = wl.all_partitions(wl.SWEEP_DEGREE)
        self.orders = wl.sweep_orders(seed, len(wl.PRIMES) * len(self.universe))
        self.enumerated: dict[int, list[tuple[int, ...]]] = {}

    def pass_items(self, k: int, tr: Tracer | None = None):
        per_prime = len(self.universe)
        lams = {}
        for p in wl.PRIMES:
            # What `spechtex sweep --p` enumerates before it classifies.
            with _span(tr, "partitions.enumerate_partitions"):
                lams[p] = [
                    lam
                    for d in range(wl.SWEEP_DEGREE + 1)
                    for lam in enumerate_partitions(d, max(d, 1))
                ]
            self.enumerated.setdefault(p, [lam.parts for lam in lams[p]])
        order = self.orders[k % len(self.orders)]
        return [(i, wl.PRIMES[i // per_prime], lams[wl.PRIMES[i // per_prime]][i % per_prime]) for i in order]

    @staticmethod
    def call(p, lam):
        c = ext1_dim(lam, p)
        return c.ext1_dim, ext1_dim_oracle(lam, p)

    @staticmethod
    def traced_call(tr, stats, p, lam):
        c = traced_ext1_dim(tr, stats, lam, p)
        return c.ext1_dim, traced_oracle(tr, stats, lam, p)

    def check(self, answers: dict, tr, stats) -> list[str]:
        failures = [
            f"p={p}: enumerate_partitions gave other partitions than d <= {wl.SWEEP_DEGREE} has"
            for p, found in self.enumerated.items()
            if sorted(found) != sorted(self.universe)
        ]
        per_prime = len(self.universe)
        for i, (closed, oracle) in answers.items():
            if closed != oracle:
                p, parts = wl.PRIMES[i // per_prime], self.universe[i % per_prime]
                failures.append(f"p={p} lambda={parts}: classifier={closed} oracle={oracle}")
        return failures


class ItemWorkload:
    """A workload over a fixed seeded list of (p, parts) items."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.items = self.generate(seed)
        self.lams: dict[int, object] = {}

    def pass_items(self, k: int, tr: Tracer | None = None):
        out = []
        for i, (p, parts) in enumerate(self.items):
            with _span(tr, "partitions.new_partition"):
                lam = new_partition(parts)
            self.lams[i] = lam
            out.append((i, p, lam))
        return out


class ClassifyDeep(ItemWorkload):
    """ext1_dim alone on deep closed-form cases; answers checked by the oracle."""

    generate = staticmethod(wl.classify_deep_inputs)

    @staticmethod
    def call(p, lam):
        return ext1_dim(lam, p).ext1_dim

    @staticmethod
    def traced_call(tr, stats, p, lam):
        return traced_ext1_dim(tr, stats, lam, p).ext1_dim

    def _cache_path(self) -> Path:
        """Oracle answers are a function of the inputs and the sources."""
        digest = hashlib.sha256(repr(self.items).encode())
        for path in sorted((ROOT / "src" / "spechtex").glob("*.py")):
            digest.update(path.read_bytes())
        return CACHE / f"classify-deep-{self.seed}-{digest.hexdigest()[:16]}.json"

    def check(self, answers: dict, tr, stats) -> list[str]:
        # An untraced run reuses cached answers; a traced run recomputes
        # them so that the oracle's spans and counts are part of every trace.
        path = self._cache_path()
        cached = {}
        if tr is None and path.exists():
            cached = {int(k): v for k, v in json.loads(path.read_text()).items()}
        failures = []
        for i, closed in sorted(answers.items()):
            p, parts = self.items[i]
            if i not in cached:
                lam = self.lams[i]
                with _span(tr, "bench.check"):
                    cached[i] = (
                        traced_oracle(tr, stats, lam, p) if tr else ext1_dim_oracle(lam, p)
                    )
            if closed != cached[i]:
                failures.append(f"p={p} lambda={parts}: classifier={closed} oracle={cached[i]}")
        CACHE.mkdir(exist_ok=True)
        path.write_text(json.dumps(cached))
        return failures


class OracleLarge(ItemWorkload):
    """The `spechtex basis` path on large relation systems."""

    generate = staticmethod(wl.oracle_large_inputs)

    @staticmethod
    def call(p, lam):
        return len(nullspace(build_relation_system(lam, p)))

    @staticmethod
    def traced_call(tr, stats, p, lam):
        with tr.span("coherence.build_relation_system"):
            system = build_relation_system(lam, p)
        with tr.span("coherence.nullspace"):
            basis = nullspace(system)
        stats.system(system, basis)
        return len(basis)

    def check(self, answers: dict, tr, stats) -> list[str]:
        failures = []
        for i, dim in sorted(answers.items()):
            p, parts = self.items[i]
            lam = self.lams[i]
            with _span(tr, "bench.check"):
                if tr:
                    closed = traced_ext1_dim(tr, stats, lam, p).ext1_dim
                    with tr.span("partitions.is_james_partition"):
                        james = is_james_partition(lam, p)
                else:
                    closed = ext1_dim(lam, p).ext1_dim
                    james = is_james_partition(lam, p)
            # dim E is the extension dimension, plus one for the standard
            # multi-sequence when it is nonzero (lambda not James).
            predicted = closed + (0 if james else 1)
            if dim != predicted:
                failures.append(f"p={p} lambda={parts}: basis has {dim} vectors, closed form predicts {predicted}")
        return failures


WORKLOADS = {
    "sweep-acceptance": SweepAcceptance,
    "classify-deep": ClassifyDeep,
    "oracle-large": OracleLarge,
}


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def run_untraced(work, seconds: float) -> dict:
    """Closed loop over rounds of the workload until ``seconds`` have passed.

    Every call's duration is scaled to a quiet host (see hostspeed.py); an
    input's figure is the median of its scaled calls, and the timing metrics
    are taken over those per-input figures.  The raw figures go to "info".
    """
    answers: dict = {}
    scaled: dict = {}
    raw: dict = {}
    errors: list[str] = []
    calls = rounds = 0
    clock = HostClock()
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        for key, p, lam in work.pass_items(rounds):
            t0 = time.perf_counter()
            try:
                answer = work.call(p, lam)
            except Exception as exc:  # counted as a failed call, loop goes on
                errors.append(f"p={p} lambda={lam}: {type(exc).__name__}: {exc}")
            else:
                elapsed = time.perf_counter() - t0
                if answers.setdefault(key, answer) != answer:
                    errors.append(f"p={p} lambda={lam}: answer changed from {answers[key]} to {answer}")
                scaled.setdefault(key, []).append(elapsed * clock.factor)
                raw.setdefault(key, []).append(elapsed)
            calls += 1
            if time.perf_counter() >= deadline:
                break
            clock.tick()
        rounds += 1
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = errors + work.check(answers, None, None)
    if not scaled:
        raise SystemExit(f"no call succeeded: {failures[:5]}")
    ordered = sorted(statistics.median(v) for v in scaled.values())
    raw_ordered = sorted(statistics.median(v) for v in raw.values())
    p90, beyond = percentile(ordered, 0.9)
    return {
        "attempted": calls,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {
            "throughput_per_s": [len(ordered) / sum(ordered), "1/s"],
            "call_ms_p50": [statistics.median(ordered) * 1e3, "ms"],
            "call_ms_p90": [p90 * 1e3, "ms"],
            "peak_rss_mb": [peak_rss_mb, "MB"],
        },
        "info": {
            "calls": calls,
            "inputs": len(ordered),
            "rounds": rounds,
            "p90_samples_beyond": beyond,
            "loop_s": wall,
            "raw_throughput_per_s": len(raw_ordered) / sum(raw_ordered),
            "raw_call_ms_p50": statistics.median(raw_ordered) * 1e3,
            "raw_call_ms_p90": percentile(raw_ordered, 0.9)[0] * 1e3,
            "host_probe_ms_min": min(clock.probes) * 1e3,
            "host_probe_ms_median": statistics.median(clock.probes) * 1e3,
        },
    }


def untraced_call(work, p, lam) -> float:
    t0 = time.perf_counter()
    with contextlib.suppress(Exception):  # the traced call counts failures
        work.call(p, lam)
    return time.perf_counter() - t0


def run_traced(work, name: str, seed: int) -> dict:
    tr = Tracer(HostClock())
    stats = LayerStats()
    errors: list[str] = []
    answers: dict = {}

    with tr.span("bench.pass"):
        items = work.pass_items(0, tr)
    # Tracing overhead: each call runs traced and at once untraced, so slow
    # drift of the machine's speed hits both sides alike; which side runs
    # first alternates, so warm caches favour neither.
    traced_s = untraced_s = 0.0
    for n, (key, p, lam) in enumerate(items):
        if n % 2:
            untraced = untraced_call(work, p, lam)
        first = len(tr.spans)
        t0 = time.perf_counter()
        try:
            with tr.span("bench.call", p=p):
                answers[key] = work.traced_call(tr, stats, p, lam)
        except Exception as exc:  # counted as a failed call, loop goes on
            errors.append(f"p={p} lambda={lam}: {type(exc).__name__}: {exc}")
        traced = time.perf_counter() - t0 - sum(sp.duration for sp in tr.spans[first:] if sp.replay)
        if not n % 2:
            untraced = untraced_call(work, p, lam)
        factor = tr.spans[first].factor
        traced_s += traced * factor
        untraced_s += untraced * factor

    failures = errors + work.check(answers, tr, stats)
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"trace-{name}-seed{seed}.json")

    own = tr.self_times()
    by_name: Counter = Counter()
    for sp in tr.spans:
        by_name[sp.name] += own[sp.id]
    # Library time of the pass per prime: non-replay spans under each call.
    per_prime: Counter = Counter()
    prime_of = {}
    for sp in tr.spans:
        if sp.name == "bench.call":
            prime_of[sp.id] = sp.attrs["p"]
        elif sp.parent in prime_of:
            prime_of[sp.id] = prime_of[sp.parent]
            if not sp.replay:
                per_prime[prime_of[sp.id]] += own[sp.id]
    ext1 = by_name["classifier.ext1_dim"]
    # The oracle route: ext1_dim_oracle, or build and nullspace called directly.
    oracle = sum(own[sp.id] for sp in tr.spans if sp.layer == "coherence" and not sp.replay)
    verify = by_name["coherence.is_coherent"]
    kept = sum(stats.rows_kept.values())
    m = {
        "partitions.enumerate_s": [
            by_name["partitions.enumerate_partitions"] + by_name["partitions.new_partition"],
            "s",
        ],
        "partitions.count": [len(items), "count"],
        "classifier.ext1_dim_s": [ext1, "s"],
        "classifier.verify_s": [verify, "s"],
        "classifier.dispatch_s": [ext1 - verify, "s"],
        "classifier.witnesses": [stats.witnesses, "count"],
    }
    for case in CASES:
        m[f"classifier.case.{case}"] = [stats.cases[case], "count"]
    m.update(
        {
            "coherence.oracle_s": [oracle, "s"],
            "coherence.build_s": [by_name["coherence.build_relation_system"], "s"],
            "coherence.nullspace_s": [by_name["coherence.nullspace"], "s"],
            "coherence.rows_candidate": [stats.rows_candidate, "count"],
            "coherence.rows_kept": [kept, "count"],
            "coherence.row_keep_ratio": [kept / stats.rows_candidate if stats.rows_candidate else 0.0, "ratio"],
        }
    )
    for family in wl.FAMILIES:
        m[f"coherence.rows_kept.{family}"] = [stats.rows_kept[family], "count"]
    m.update(
        {
            "coherence.slots": [stats.slots, "count"],
            "coherence.rank": [stats.rank, "count"],
            "coherence.rank_ratio": [stats.rank / kept if kept else 0.0, "ratio"],
            # Computed as rows x slots x 8 B, not a measured allocation.
            "coherence.matrix_mb_max": [stats.matrix_mb_max, "MB-computed"],
        }
    )
    for p in wl.PRIMES:
        m[f"sweep.p{p}_s"] = [per_prime[p], "s"]
    m["trace.overhead_s"] = [traced_s - untraced_s, "s"]
    return {
        "attempted": len(items),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": m,
        "info": {
            "spans": len(tr.spans),
            "traced_calls_s": traced_s,
            "untraced_calls_s": untraced_s,
            "matrix_mb_max": "computed as kept rows x slots x 8 B, not measured",
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path(spechtex.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported spechtex from {spechtex.__file__}, not this checkout", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload](args.seed)
    if args.trace:
        result = run_traced(work, args.workload, args.seed)
    else:
        result = run_untraced(work, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
