"""dtcnet benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload sweep_n8 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ./src.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
environment. Details (per-pass times, problems, edge flips, spans) go
to perfbench/out/. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy is imported anywhere in this
# process or its children; realizations run serially.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
INHERITED_DTCNET_THREADS = os.environ.pop("DTCNET_THREADS", None)
os.environ.update(PINNED)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

SETUP_PROBES = 3
# Module self times must cover the traced wall time to within this share;
# the rest is benchmark glue between spans.
TRACE_SLACK = 0.05
# Below this many items no percentile above the median has ten samples
# beyond it, so item_p90_s reports the median.
P90_MIN_ITEMS = 100


@dataclass
class Pass:
    traced: bool
    items: list

    @property
    def seconds(self) -> float:
        return sum(item.seconds for item in self.items)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep_n8", "ensemble_n8", "single_n10"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time a fresh process from spawn until its inputs are ready
    p.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--scratch", type=str, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def import_workloads():
    """Import the benchmark's workload module against ./src/dtcnet only."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import dtcnet
    import workloads

    if Path(dtcnet.__file__).resolve().parent != SRC / "dtcnet":
        raise ImportError(f"dtcnet imported from {dtcnet.__file__}, not from {SRC}")
    return workloads


def setup_probe(args) -> int:
    workloads = import_workloads()
    workloads.WORKLOADS[args.workload](args.seed, Path(args.scratch))
    print((time.monotonic_ns() - args.setup_probe) / 1e9)
    return 0


def measure_setup(args, scratch: Path) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe", str(start), "--scratch", str(scratch)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dtcnet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "pinned_env": PINNED,
        "DTCNET_THREADS": {"inherited": INHERITED_DTCNET_THREADS, "during_run": os.environ.get("DTCNET_THREADS")},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def load_reference(workloads, name: str, seed: int):
    if seed != workloads.DEFAULT_SEED:
        return None
    import numpy

    with numpy.load(REFERENCE / f"{name}.npz", allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def run_passes(workload, reference, seconds: float, tracer) -> list[Pass]:
    """Repeat the workload's pass until the next one would overrun `seconds`.

    A traced run alternates untraced and traced passes, so both see the
    same machine state and their ratio gives the tracing overhead.
    """
    min_passes = max(workload.min_passes, 2 if tracer else 1)
    passes: list[Pass] = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        started = time.perf_counter()
        if traced:
            tracer.install()
            tracer.start_pass()
        try:
            passes.append(Pass(traced, workload.run_pass(reference)))
        finally:
            if traced:
                tracer.uninstall()
        now = time.perf_counter()
        if len(passes) >= min_passes and (now - begin) + (now - started) > seconds:
            return passes


def end_to_end_metrics(passes: list[Pass], setup: list[float]) -> dict:
    timed = [p for p in passes if not p.traced]
    items = [item.seconds for p in timed for item in p.items]
    p90 = (
        statistics.quantiles(items, n=10, method="inclusive")[8]
        if len(items) >= P90_MIN_ITEMS
        else statistics.median(items)
    )
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p.seconds for p in timed), "s"),
        "item_p50_s": (statistics.median(items), "s"),
        "item_p90_s": (p90, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(passes: list[Pass], tracer, tracing) -> tuple[dict, float]:
    """Per traced pass averages; also the share of traced wall time the spans cover."""
    traced = [p for p in passes if p.traced]
    count = len(traced)
    metrics = {}
    for name in tracing.TRACED:
        metrics[f"{name}.calls"] = (tracer.calls.get(name, 0) / count, "count")
        metrics[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0) / count, "s")
    modules = tracer.module_self_s()
    for module, seconds in modules.items():
        metrics[f"{module}.self_s"] = (seconds / count, "s")
    drives = tracer.calls.get("floquet_core.drive_unitary", 0)
    repeats = tracer.counters["floquet_core.drive_unitary.repeats"]
    metrics["floquet_core.drive_unitary.repeat_frac"] = (repeats / drives if drives else 0.0, "ratio")
    for name in (
        "floquet_core.floquet_spectrum.branch_warnings",
        "percolation_graph.edges",
        "percolation_graph.near_threshold_edges",
        "diagnostics.gap_ratios.excluded_degenerate",
    ):
        metrics[name] = (tracer.counters[name] / count, "count")
    items = [item for p in traced for item in p.items]
    metrics["ensemble.files_written"] = (sum(i.files_written for i in items) / count, "count")
    metrics["ensemble.bytes_written"] = (sum(i.bytes_written for i in items) / count, "bytes")
    metrics["ensemble.runtime_warnings"] = (sum(i.runtime_warnings for i in items) / count, "count")
    traced_wall = statistics.median(p.seconds for p in traced)
    untraced_wall = statistics.median(p.seconds for p in passes if not p.traced)
    metrics["trace_overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")

    return metrics, sum(modules.values()) / sum(p.seconds for p in traced)


def measure(args, scratch: Path) -> int:
    setup = measure_setup(args, scratch)
    workloads = import_workloads()
    import tracing

    env = environment()
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    reference = load_reference(workloads, args.workload, args.seed)
    workload.warm_up()
    tracer = tracing.Tracer() if args.trace else None
    passes = run_passes(workload, reference, args.seconds, tracer)
    run_problems, covered = [], None
    if args.trace:
        metrics, covered = per_layer_metrics(passes, tracer, tracing)
        if abs(1.0 - covered) > TRACE_SLACK:
            run_problems.append(f"module self times cover {covered:.4f} of the traced wall time (slack {TRACE_SLACK})")
    else:
        metrics = end_to_end_metrics(passes, setup)
    # measured after the peak RSS was read, so its matrices do not count
    passes[-1].items[-1].problems += workload.final_problems()

    items = [item for p in passes for item in p.items]
    failed = sum(1 for item in items if item.problems)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_samples_s": setup,
        "passes": [
            {"traced": p.traced, "seconds": p.seconds, "item_seconds": [i.seconds for i in p.items]}
            for p in passes
        ],
        "failed_frac": failed / len(items),
        "trace_covered_frac": covered,
        "problems": run_problems + [msg for item in items for msg in item.problems][:200],
        "edge_flips": sorted({msg for item in items for msg in item.flips}),
        "reference_checked": reference is not None,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1))
    if tracer is not None:
        with open(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", "w") as fh:
            for name, start, end, parent in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")

    for msg in details["problems"][:20] + details["edge_flips"][:20]:
        print(f"perfbench: {msg}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {len(items)} items in {len(passes)} passes, "
        f"failed_frac {details['failed_frac']:.4g}, details in {OUT.name}/{stem}.json",
        file=sys.stderr,
    )
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": failed == 0 and not run_problems,
        "attempted": len(items),
        "failed": failed,
        "metrics": details["metrics"],
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dtcnet" / "__init__.py").is_file():
        print(f"perfbench: no src/dtcnet under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        return setup_probe(args)
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
