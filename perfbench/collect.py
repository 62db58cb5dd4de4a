"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --runs 10 [--workloads sweep_n8 ...]
        [--first-seed 1] [--trace-runs 0] [--output perfbench/baseline.json]

For every workload and end-to-end metric this prints the median, the
quartiles and the spread (interquartile distance over the median) of
the per-run values, next to the bound BENCHMARK.json fixes, and
optionally writes them to a JSON file. Traced runs add per-layer
medians. Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (result, environment record)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    *_, environment, result = proc.stdout.strip().splitlines()
    return json.loads(result), json.loads(environment)["environment"]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else float("nan")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "runs": len(values), "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace-runs", type=int, default=0)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--output", type=str, default=None)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        results = [result for result, _ in runs]
        report["environment"] = runs[0][1]
        traced = [run_once(workload, seed, args.seconds, 1)[0] for seed in seeds[: args.trace_runs]]
        entry = {
            "seeds": list(seeds),
            "correct": all(r["correct"] for r in results + traced),
            "attempted": sum(r["attempted"] for r in results + traced),
            "failed": sum(r["failed"] for r in results + traced),
            "end_to_end": {},
            "per_layer": {},
        }
        print(f"{workload}: correct={entry['correct']} attempted={entry['attempted']} failed={entry['failed']}")
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            print(
                f"  {name:<12} {stats['median']:>12.5g} {stats['unit']:<5} "
                f"q1 {stats['q1']:.5g} q3 {stats['q3']:.5g} spread {stats['spread']:.4f} "
                f"(bound {bound}, bound/3 {bound / 3:.4f})"
            )
        for name in traced[0]["metrics"] if traced else []:
            stats = summarise([r["metrics"][name]["value"] for r in traced])
            stats["unit"] = traced[0]["metrics"][name]["unit"]
            entry["per_layer"][name] = stats
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
