#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics: run a workload N times.

    python3 e2ebench/steady.py --workload topo --runs 10 --first-seed 1

Each run is ``e2ebench/run.py`` with its own seed (``first-seed``,
``first-seed + 1``, ...) and ``run_seconds`` from ``BENCHMARK.json``.
For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
``(q3 - q1) / median`` and whether that spread fits the metric's bound
in ``BENCHMARK.json``. Runs are sequential; the figures also go to
``.e2ebench-out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}"
        )
    return json.loads(lines[-1])


def summarise(workload: str, results: "list[dict]", spec: dict) -> dict:
    shares = {result["failed"] / result["attempted"] for result in results}
    summary = {
        "workload": workload,
        "runs": len(results),
        "correct": all(result["correct"] for result in results),
        "failed_shares": sorted(shares),
        "metrics": {},
    }
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [result["metrics"][name]["value"] for result in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        summary["metrics"][name] = {
            "unit": metric["unit"],
            "values": values,
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": spread,
            "bound": metric["bound"],
            "fits": spread <= metric["bound"],
        }
    return summary


def render(summary: dict) -> str:
    lines = [
        f"{summary['workload']}: {summary['runs']} runs, correct={summary['correct']}, "
        f"failed share(s) {summary['failed_shares']}",
        f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  fits",
    ]
    for name, row in summary["metrics"].items():
        lines.append(
            f"  {name:<14} {row['median']:>12.4f} {row['q1']:>12.4f} {row['q3']:>12.4f} "
            f"{100 * row['spread']:>7.2f}% {100 * row['bound']:>5.0f}%  {'yes' if row['fits'] else 'NO'}"
        )
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    fits = True
    out_dir = ROOT / ".e2ebench-out"
    out_dir.mkdir(exist_ok=True)
    for workload in args.workload or names:
        results = []
        for index in range(args.runs):
            seed = args.first_seed + index
            results.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{name}={entry['value']:.4f}" for name, entry in results[-1]["metrics"].items()
            ), flush=True)
        summary = summarise(workload, results, spec)
        (out_dir / f"steady-{workload}.json").write_text(json.dumps(summary, indent=2) + "\n")
        print(render(summary), flush=True)
        fits = fits and summary["correct"] and all(
            row["fits"] for row in summary["metrics"].values()
        )
    return 0 if fits else 1


if __name__ == "__main__":
    sys.exit(main())
