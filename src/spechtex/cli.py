"""Command-line surface: classify, sweep, basis and sl2 subcommands.

Machine-readable JSON goes to stdout; human-readable progress goes to
stderr.  Exit codes: 0 success/agreement, 1 mismatch found, 2 usage
error, 141 (128 + SIGPIPE) when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .classifier import Classification, ext1_dim, sl2_verdict
from .coherence import _oracle, build_relation_system, check_budget, nullspace
from .padic import InvalidModulusError, validate_prime
from .partitions import (
    InvalidPartitionError,
    Partition,
    enumerate_partitions,
    new_partition,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def _parse_partition(text: str) -> Partition:
    fields = text.split(",")
    if any(not field.strip() for field in fields):
        raise InvalidPartitionError(f"empty part in partition {text!r}")
    try:
        parts = [int(field) for field in fields]
    except ValueError as exc:
        raise InvalidPartitionError(f"cannot parse partition {text!r}") from exc
    return new_partition(parts)


def _witness_json(classification: Classification):
    if classification.witness is None:
        return None
    return [
        {"r": slot.r, "s": slot.s, "i": slot.i, "v": value}
        for slot, value in classification.witness.nonzero_slots()
    ]


def _classification_json(c: Classification) -> dict:
    return {
        "p": c.p,
        "lambda": list(c.lam.parts),
        "h0": c.h0,
        "ext1_B": c.ext1_dim,
        "h1": {"value": c.ext1_dim, "exact": c.h1_exact},
        "case": c.case_tag,
        "witness": _witness_json(c),
    }


def cmd_classify(args: argparse.Namespace) -> int:
    lam = _parse_partition(args.lam)
    p = args.p
    method = args.method
    closed = oracle_dim = oracle_h0 = None
    if method in ("closed", "both"):
        closed = ext1_dim(lam, p)
    if method in ("oracle", "both"):
        _dim, oracle_dim, oracle_h0 = _oracle(lam, p)

    report = closed
    if method == "oracle":
        report = Classification(p, lam, oracle_h0, oracle_dim, p != 2, "oracle", None)
    payload = _classification_json(report)

    if args.json:
        print(json.dumps(payload))
    else:
        rel = "=" if p != 2 else ">="
        print(f"p = {p}")
        print(f"lambda = {lam}")
        print(f"h0 = {payload['h0']}")
        print(f"ext1_B = {payload['ext1_B']}  [{payload['case']}]")
        print(f"h1 {rel} {payload['ext1_B']}")
        if method == "both":
            print(f"oracle ext1_B = {oracle_dim}")
        if payload["witness"]:
            for entry in payload["witness"]:
                print(f"witness: y({entry['r']},{entry['s']})_{entry['i']} = {entry['v']}")

    mismatches = []
    if method == "both" and closed.h0 != oracle_h0:
        mismatches.append(f"classifier h0={closed.h0} oracle h0={oracle_h0}")
    if method == "both" and closed.ext1_dim != oracle_dim:
        mismatches.append(f"classifier={closed.ext1_dim} oracle={oracle_dim}")
    for mismatch in mismatches:
        print(f"MISMATCH: {mismatch} for {lam} at p={p}", file=sys.stderr)
    return EXIT_MISMATCH if mismatches else EXIT_OK


def _sweep_instance(task: tuple[int, tuple[int, ...]]) -> dict:
    p, parts = task
    lam = Partition(parts)
    classification = ext1_dim(lam, p)
    _dim, oracle_dim, oracle_h0 = _oracle(lam, p)
    return {
        "lambda": list(parts),
        "classifier_dim": classification.ext1_dim,
        "oracle_dim": oracle_dim,
        "case_tag": classification.case_tag,
        "classifier_h0": classification.h0,
        "oracle_h0": oracle_h0,
    }


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def cmd_sweep(args: argparse.Namespace) -> int:
    p = args.p
    if args.d_max < 0:
        raise ValueError(f"--d-max must be non-negative, got {args.d_max}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.parts_max is not None and args.parts_max < 1:
        raise ValueError(f"--parts-max must be at least 1, got {args.parts_max}")
    started = time.monotonic()
    tasks = []
    for d in range(args.d_max + 1):
        parts_max = args.parts_max if args.parts_max is not None else max(d, 1)
        for lam in enumerate_partitions(d, parts_max):
            check_budget(lam)  # refuse the range before classifying any of it
            tasks.append((p, lam.parts))

    workers = min(args.jobs, len(tasks), _usable_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_instance, tasks, chunksize=16))
    else:
        results = [_sweep_instance(task) for task in tasks]

    mismatches = [
        r
        for r in results
        if (r["classifier_dim"], r["classifier_h0"]) != (r["oracle_dim"], r["oracle_h0"])
    ]
    for entry in mismatches:
        print(json.dumps(entry))
    report = {
        "p": p,
        "d_max": args.d_max,
        "parts_max": args.parts_max,
        "instances": len(results),
        "mismatches": len(mismatches),
        "elapsed": round(time.monotonic() - started, 3),
    }
    print(json.dumps(report))
    print(
        f"sweep p={p} d<={args.d_max}: {len(results)} instances, "
        f"{len(mismatches)} mismatches, {report['elapsed']}s",
        file=sys.stderr,
    )
    if args.check and mismatches:
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_basis(args: argparse.Namespace) -> int:
    lam = _parse_partition(args.lam)
    system = build_relation_system(lam, args.p)
    basis = nullspace(system)
    print(f"dim E = {len(basis)}")
    for k, vector in enumerate(basis):
        print(f"basis[{k}]:")
        for slot, value in vector.nonzero_slots():
            print(f"  y({slot.r},{slot.s})_{slot.i} = {value}")
    return EXIT_OK


def cmd_sl2(args: argparse.Namespace) -> int:
    dim, reason = sl2_verdict(args.r, args.s, args.p)
    if args.json:
        print(json.dumps({"p": args.p, "r": args.r, "s": args.s, "dim": dim, "reason": reason}))
    else:
        print(f"Ext^1(nabla({args.r}), nabla({args.s})) at p={args.p}: dim = {dim} [{reason}]")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spechtex",
        description=(
            "Fixed points and first extension groups for symmetric powers "
            "over a Borel subgroup, by closed-form classification and by an "
            "exhaustive finite-field oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify a single partition")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--lambda", dest="lam", required=True, help="comma-separated parts")
    c.add_argument("--method", choices=("closed", "oracle", "both"), default="both")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_classify)

    s = sub.add_parser("sweep", help="cross-check classifier against the oracle")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--d-max", type=int, required=True)
    s.add_argument("--parts-max", type=int, default=None)
    s.add_argument("--check", action="store_true")
    s.add_argument("--jobs", type=int, default=1)
    s.set_defaults(func=cmd_sweep)

    b = sub.add_parser("basis", help="print a nullspace basis of the relation system")
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--lambda", dest="lam", required=True)
    b.set_defaults(func=cmd_basis)

    l = sub.add_parser("sl2", help="extensions between SL2 symmetric powers")
    l.add_argument("--p", type=int, required=True)
    l.add_argument("--r", type=int, required=True)
    l.add_argument("--s", type=int, required=True)
    l.add_argument("--json", action="store_true")
    l.set_defaults(func=cmd_sl2)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        validate_prime(args.p)
        code = args.func(args)
        sys.stdout.flush()  # a closed reader raises here, not at exit
        return code
    except (InvalidModulusError, InvalidPartitionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # What is left in the buffer goes nowhere, so exit raises nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
