"""Write the reference outputs the benchmark compares against at seed 0.

    python3 perfbench/make_reference.py [workload ...]

Runs one pass of each workload at workloads.DEFAULT_SEED and stores
every item's output summary, plus the near-threshold pairs of each
percolation graph, in perfbench/reference/<workload>.npz. Regenerate
only when an output is meant to change, and say why in the commit.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy is imported


def main(names: list[str]) -> int:
    workloads = run.import_workloads()
    import numpy as np

    run.REFERENCE.mkdir(exist_ok=True)
    run.OUT.mkdir(parents=True, exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        with tempfile.TemporaryDirectory(dir=run.OUT) as scratch:
            workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, Path(scratch))
            workload.keep_summaries = True
            items = workload.run_pass(None)
            problems = [msg for item in items for msg in item.problems] + workload.final_problems()
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        arrays = {f"{item.key}/{k}": np.asarray(v) for item in items for k, v in item.summary.items()}
        np.savez_compressed(run.REFERENCE / f"{name}.npz", **arrays)
        print(f"{name}: {len(items)} items, {len(arrays)} arrays")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
