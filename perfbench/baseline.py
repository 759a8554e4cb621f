"""Record a baseline: every workload on several seeds, one run at a time.

    python3 perfbench/baseline.py --out perfbench/baselines/BENCH_<date>.json

For every workload in BENCHMARK.json this runs ``run.py --trace 0`` once per
seed 1..10 for ``run_seconds`` and ``run.py --trace 1`` once on seed 1, then
writes every value with the median, the quartiles and the quartile spread
(Q3 - Q1 over the median) of each end-to-end metric, plus a description of
the host.  The raw timing figures of each run (unscaled by the host-speed
probe, see hostspeed.py) are summarised the same way under "raw".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


RUNS = 10
RAW = ("raw_throughput_per_s", "raw_call_ms_p50", "raw_call_ms_p90", "host_probe_ms_median")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stdout}{proc.stderr}")
    # run.py prints the worker's info as "<workload> samples {...}".
    samples = next(line for line in lines if line.startswith(f"{workload} samples "))
    result["info"] = json.loads(samples.split(" ", 2)[2])
    return result


def summarise(values: dict[str, list[float]]) -> dict:
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"values": vals, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
    return summary


def host() -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")),
        platform.processor(),
    )
    import numpy

    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "note": "shared 2-core host: other tenants slow single runs by up to 2x for seconds to a minute",
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    report = {"date": time.strftime("%Y-%m-%d"), "host": host(), "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        for seed in range(1, RUNS + 1):
            result = run(workload, seed, seconds, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name in RAW:
                raw.setdefault(name, []).append(result["info"][name])
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in (values | raw).items()), file=sys.stderr)
        traced = run(workload, 1, seconds, 1)
        report["workloads"][workload] = {
            "end_to_end": summarise(values),
            "raw": summarise(raw),
            "per_layer_seed1": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, data in report["workloads"].items():
        for name, s in (data["end_to_end"] | data["raw"]).items():
            print(f"{workload:18} {name:20} median {s['median']:.5g}  spread {s['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
