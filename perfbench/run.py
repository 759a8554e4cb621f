"""spechtex benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sweep-acceptance --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``, so
nothing needs installing.  Workloads (see BENCHMARK.json for why each is in):

* ``sweep-acceptance``  every partition of d <= 14 at p in {2,3,5,7},
  ``ext1_dim`` then ``ext1_dim_oracle`` per call, as ``spechtex sweep`` does;
* ``classify-deep``     ``ext1_dim`` alone on James chains, pointed heads and
  split shapes with a top part up to 10**6;
* ``oracle-large``      ``nullspace(build_relation_system(...))`` on systems
  thousands of rows deep, as ``spechtex basis`` does.

``--trace 0`` prints the end-to-end metrics: throughput, call latency p50 and
p90, peak resident memory of the workload's own process, and the set-up time
of a fresh interpreter importing ``spechtex``.  Times are scaled to a quiet
host by a probe kernel timed next to them (hostspeed.py explains why); the
raw figures are printed on the "samples" line.  ``--trace 1`` prints the
per-layer metrics of one traced pass (see worker.py) and the cold-start time
of one ``classify`` through the CLI.  Either way the last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A wrong
or raised answer makes ``correct`` false and the exit code 1.

Every child process runs alone and is waited for; nothing runs in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-acceptance", "classify-deep", "oracle-large")
BUDGET_S = 170  # every run must end within 180 s
SETUP_RUNS = 11
CLI_RUNS = 5
CLI_ARGS = ["classify", "--p", "3", "--lambda", "1,1,1,1", "--method", "both", "--json"]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_child(args: list[str], timeout: float) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child interpreter to completion; return its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return time.perf_counter() - t0, proc


def median_wall(args: list[str], runs: int, deadline: float, check=None) -> float:
    """Median wall time of ``runs`` sequential children, after one warm-up.

    The warm-up leaves the bytecode cache written, as it is for a user.  Each
    wall time is scaled to a quiet host by a probe taken just before it.
    """
    times = []
    for k in range(runs + 1):
        factor = hostspeed.REFERENCE_S / hostspeed.probe()
        wall, proc = timed_child(args, deadline - time.monotonic())
        if proc.returncode != 0 or (check and not check(proc.stdout)):
            raise RuntimeError(f"{' '.join(args)} failed:\n{proc.stdout}{proc.stderr}")
        if k:
            times.append(wall * factor)
    return statistics.median(times)


def cli_answer_ok(stdout: str) -> bool:
    # Acceptance criterion 2 of the package: (1,1,1,1) at p = 3 is the
    # four-row case with a one-dimensional extension group.
    payload = json.loads(stdout.splitlines()[-1])
    return payload["ext1_B"] == 1 and payload["case"] == "quadruple"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "spechtex" / "__init__.py").is_file():
        print(f"error: no spechtex sources under {ROOT / 'src'}; run from a spechtex checkout", file=sys.stderr)
        return 2

    metrics: dict[str, list] = {}
    try:
        if not args.trace:
            metrics["setup_s"] = [median_wall(["-c", "import spechtex"], SETUP_RUNS, deadline), "s"]
        else:
            cli_s = median_wall(["-m", "spechtex.cli", *CLI_ARGS], CLI_RUNS, deadline, cli_answer_ok)
            metrics["cli.cold_classify_ms"] = [cli_s * 1e3, "ms"]
        _, proc = timed_child(
            [
                str(HERE / "worker.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            deadline - time.monotonic(),
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics.update(result["metrics"])

    for failure in result["failures"]:
        print(f"FAIL {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} error_rate = {result['failed'] / result['attempted']:.6g} ({result['failed']}/{result['attempted']} calls)")
    print(f"{args.workload} samples {json.dumps(result['info'])}")
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
