"""Benchmark for creditnet: one closed-loop workload per run, in a fresh process.

Usage, from the repository root::

    python3 bench/run.py --workload {ablate,score,ingest} --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the same checkout; the run fails
(exit 2, no result) when that source tree is absent. A run sets up its
inputs from the seed several times (the median is ``setup_s``), makes one
untimed warm-up op, then repeats the workload's op for ``--seconds``.

``--trace 0`` reports the end-to-end metrics, untraced. ``--trace 1`` spends
half the time untraced, then installs the tracer (tracer.py) and makes the
same number of ops traced; it reports the per-layer metrics, normalised per
training step (ablate), per 2048-row batch (score) or per call (ingest), and
writes the spans once, at the end.

Every output check counts as one attempted op. Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Spans and scratch
inputs go to ``.bench_out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracer import (BACKWARD_FLOP_SPANS, COUNTERS, FORWARD_FLOP_SPANS, LABELS, SPANS,
                    TRAIN_VARIANTS, Tracer, op_accounting, span_stats)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3      # at least, and until SETUP_MIN_S has been spent on set-up
SETUP_MIN_S = 1.0
MIN_OPS = 3

# name: (unit, better, bound). Every workload reports every one of these;
# what rows_per_s, report_s and test_auc measure on each is in README.md.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.1),
    "rows_per_s": ("rows/s", "higher", 0.25),
    "report_s": ("s", "lower", 0.25),
    "test_auc": ("1", "higher", 0.15),
}


def per_layer_catalog() -> dict[str, tuple[str, str]]:
    """Per-layer metric name: (unit, better). Metrics of a layer a workload
    does not run read 0 on that workload."""
    cat = {}
    for layer, (_, attrs) in SPANS.items():
        for attr in attrs:
            span = f"{layer}.{attr}"
            if span not in LABELS:
                cat[f"{span}.self_ms"] = ("ms", "lower")
                cat[f"{span}.calls"] = ("count", "lower")
    for layer, (_, attrs) in COUNTERS.items():
        for attr in attrs:
            cat[f"{layer}.{attr}.calls"] = ("count", "lower")
    for v in TRAIN_VARIANTS:
        cat[f"training.train.{v}.rows_per_s"] = ("rows/s", "higher")
    cat["data.load_csv.rows_per_s"] = ("rows/s", "higher")
    cat["importance.permutation_importance.predict_probs_ms"] = ("ms", "lower")
    cat["importance.permutation_importance.auc_ms"] = ("ms", "lower")
    cat["model.flops_per_row"] = ("FLOP", "lower")
    cat["model.flops_per_step"] = ("FLOP", "lower")
    for span in FORWARD_FLOP_SPANS:
        cat[f"{span}.gflops"] = ("GFLOP/s", "higher")
    cat["model.Model.forward.row_p50_ms"] = ("ms", "lower")
    cat["model.Model.forward.row_p99_ms"] = ("ms", "lower")
    cat["proc.minflt_per_step"] = ("count", "lower")
    cat["proc.minflt_per_batch"] = ("count", "lower")
    cat["trace.overhead_pct"] = ("%", "lower")
    return cat


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without starting git."""
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, packed_name = line.partition(" ")
            if packed_name == name:
                return sha
    except OSError:
        pass
    return "unknown"


def environment(seed: int, nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": nproc,
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_ops(workload, seconds: float = 0.0, count: int = 0, tracer=None):
    """Closed loop: make ops until ``seconds`` have passed (at least
    MIN_OPS), or exactly ``count`` ops. Returns ``[(op, wall_s)]``."""
    ops = []
    deadline = perf_counter() + seconds
    while (len(ops) < count) if count else (len(ops) < MIN_OPS or perf_counter() < deadline):
        if tracer is not None:
            tracer.op = len(ops)
        t0 = perf_counter()
        op = workload.op()
        ops.append((op, perf_counter() - t0))
    return ops


def check_digests(checks, ops, reference: str, what: str) -> None:
    for i, (op, _) in enumerate(ops):
        checks.check(op.digest == reference, f"{what} op {i} output differs from the warm-up op")


def layer_metrics(workload, tracer, plain, traced, minflt: int) -> dict[str, float]:
    stats = span_stats(tracer.spans)
    work = tracer.work
    steps = stats["training.adam_step"].calls if "training.adam_step" in stats else 0
    units = workload.traced_units(stats, work)
    expected = len(traced) * workload.units_per_op
    workload.checks.check(units == expected,
                          f"traced run counted {units} {workload.unit}s, expected {expected}")

    m = dict.fromkeys(per_layer_catalog(), 0.0)
    for span, s in stats.items():
        if f"{span}.self_ms" in m:
            m[f"{span}.self_ms"] = s.self_s * 1e3 / units
            m[f"{span}.calls"] = s.calls / units
        elif f"{span}.rows_per_s" in m:
            m[f"{span}.rows_per_s"] = work[span] / s.total_s
    for name, n in tracer.calls.items():
        m[f"{name}.calls"] = n / units
    if "data.load_csv" in stats:
        m["data.load_csv.rows_per_s"] = work["data.load_csv"] / stats["data.load_csv"].total_s

    # time inside permutation_importance spent in its direct children
    parents = {i for i, s in enumerate(tracer.spans)
               if s[0] == "importance.permutation_importance"}
    for name, start, end, parent, _ in tracer.spans:
        if parent in parents:
            child = name.split(".")[-1]
            m[f"importance.permutation_importance.{child}_ms"] += (end - start) * 1e3 / units

    forward = sum(work[s] for s in FORWARD_FLOP_SPANS)
    backward = sum(work[s] for s in BACKWARD_FLOP_SPANS)
    if work["model.Model.forward"]:
        m["model.flops_per_row"] = forward / work["model.Model.forward"]
    if steps:
        m["model.flops_per_step"] = (forward + backward) / steps
    for span in FORWARD_FLOP_SPANS:
        if span in stats:
            m[f"{span}.gflops"] = work[span] / stats[span].self_s / 1e9

    if hasattr(workload, "latencies_ms"):
        p50, p99, _, _ = workload.latencies_ms([op for op, _ in plain])
        m["model.Model.forward.row_p50_ms"] = p50
        m["model.Model.forward.row_p99_ms"] = p99
    if f"proc.minflt_per_{workload.unit}" in m:
        m[f"proc.minflt_per_{workload.unit}"] = minflt / (len(plain) * workload.units_per_op)
    m["trace.overhead_pct"] = 100.0 * (
        statistics.median(w for _, w in traced) / statistics.median(w for _, w in plain) - 1.0)
    return m


def measure(name: str, seed: int, seconds: float, trace: bool, work_dir: Path):
    from workloads import WORKLOADS, Checks

    checks = Checks()
    workload = WORKLOADS[name](seed, work_dir, checks)
    setup_s = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
        t0 = perf_counter()
        workload.setup()
        setup_s.append(perf_counter() - t0)
    reference = workload.op().digest  # warm-up: the first ops in a process run slower

    if not trace:
        ops = run_ops(workload, seconds)
        check_digests(checks, ops, reference, "repeat")
        e2e, named = workload.summary([op for op, _ in ops])
        e2e["setup_s"] = statistics.median(setup_s)
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: (e2e[k], unit) for k, (unit, _, _) in END_TO_END.items()}
        return checks, metrics, named, len(ops)

    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    plain = run_ops(workload, seconds / 2)
    minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
    check_digests(checks, plain, reference, "untraced")

    tracer = Tracer()
    tracer.install()
    try:
        traced = run_ops(workload, count=len(plain), tracer=tracer)
    finally:
        lost = tracer.restore()
    checks.check(not lost, f"attributes not restored after tracing: {lost}")
    check_digests(checks, traced, reference, "traced")
    for op, (span_self, remainder) in op_accounting(
            tracer.spans, {i: wall for i, (_, wall) in enumerate(traced)}).items():
        wall = traced[op][1]
        checks.check(remainder >= 0.0 and abs(span_self + remainder - wall) <= 1e-6 * wall,
                      f"traced op {op}: span self times {span_self} + remainder {remainder} "
                      f"!= wall {wall}")

    layers = layer_metrics(workload, tracer, plain, traced, minflt)
    tracer.dump(OUT / f"spans-{name}-seed{seed}.npz")
    catalog = per_layer_catalog()
    metrics = {k: (v, catalog[k][0]) for k, v in layers.items()}
    return checks, metrics, {}, len(traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ablate", "score", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "creditnet" / "__init__.py").is_file():
        print(f"error: no creditnet source tree at {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:  # before numpy loads BLAS
        os.environ.setdefault(var, str(nproc))
    sys.path.insert(0, str(SRC))
    import creditnet

    if Path(creditnet.__file__).resolve().parent != (SRC / "creditnet").resolve():
        print(f"error: creditnet imported from {creditnet.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        env = environment(args.seed, nproc)
        checks, metrics, named, n_ops = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops {n_ops}")
    print("env " + json.dumps(env, sort_keys=True))
    for key, (value, unit) in {**metrics, **named}.items():
        print(f"  {key:<52} {value:>16.6g} {unit}")
    print(f"  {'error_rate':<52} {checks.failed / checks.attempted:>16.6g} "
          f"failed/attempted (attempted={checks.attempted})")
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
