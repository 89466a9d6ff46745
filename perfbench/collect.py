"""Repeat run.py over seeds and summarise each metric's median and spread.

Usage:
    python3 perfbench/collect.py --seeds 1-10 [--trace 0|1] [--out FILE]

It runs every workload of ``BENCHMARK.json`` at its ``run_seconds``. With
``--seeds 1-1`` it is the one command that prints every end-to-end metric,
with its unit, and the gate verdict for all three workloads.

For every workload and metric it reports the median of the runs and the
spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. With
``--out`` it stores the summary (plus run metadata) under ``trace0`` or
``trace1`` in that JSON file, the form of ``baseline.json``, replacing that
section and keeping the other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = str(spec["run_seconds"])
    summary: dict = {"seeds": args.seeds, "trace": args.trace, "seconds": seconds,
                     "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", seconds, "--trace", str(args.trace)],
                capture_output=True, text=True, check=False)
            if done.returncode != 0:
                print(done.stdout, done.stderr, file=sys.stderr)
                return done.returncode
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            summary.setdefault("metadata", lines[0])
            print(f"{workload} seed={seed} {lines[1]}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        rows = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            rows[name] = {"median": median, "q1": q1, "q3": q3, "unit": units[name],
                          "spread": (q3 - q1) / median if median else 0.0}
            print(f"  {workload:9s} {name:28s} median {median:12.6f} {units[name]:8s} "
                  f"spread {rows[name]['spread']:.3f}", flush=True)
        summary["workloads"][workload] = rows
    if args.out:  # one file holds the --trace 0 and the --trace 1 summary
        merged = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        merged[f"trace{args.trace}"] = summary
        args.out.write_text(json.dumps(merged, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
