"""Run one benchmark workload and print its metrics; the last stdout line is JSON.

    python3 bench/run.py --workload pendulum_rejection --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the workload is set up ``setup_reps`` times, then runs
``quality_ops`` operations, and more while they fit in ``--seconds``,
untraced; it reports the end-to-end metrics. With ``--trace 1`` it
is set up once and runs its ``quality_ops`` operations once untraced and once
under the tracer, fails any operation whose traced output differs, and
reports the per-layer metrics. Metric names, units and directions are read
from BENCHMARK.json at the repository root; every result is also written to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program() -> None:
    """Import l1aug from this checkout's src/, whatever the working directory."""
    if not (SRC / "l1aug" / "__init__.py").is_file():
        raise SystemExit(f"error: no l1aug package under {SRC}")
    sys.path.insert(0, str(SRC))
    import l1aug

    if Path(l1aug.__file__).resolve().parent != SRC / "l1aug":
        raise SystemExit(f"error: imported l1aug from {l1aug.__file__}, not {SRC}")


@dataclass
class Done:
    """One attempted operation; ``result`` is None when it raised."""

    k: int
    seconds: float
    result: object
    failures: list[str] = field(default_factory=list)


def run_ops(workload, state, n_min: int, seconds: float, tracer=None) -> list[Done]:
    """Operations k = 0, 1, ...: n_min of them, then more while the next is
    expected, at the mean operation time so far, to end within ``seconds``."""
    done: list[Done] = []
    start = time.perf_counter()
    while len(done) < n_min or (time.perf_counter() - start) * (len(done) + 1) / len(done) <= seconds:
        k = len(done)
        t0 = time.perf_counter()
        try:
            with tracer.operation() if tracer is not None else nullcontext():
                result = workload.op(state, k)
            failures = list(result.failures)
        except Exception as exc:
            traceback.print_exc()
            result, failures = None, [f"{type(exc).__name__}: {exc}"]
        done.append(Done(k, time.perf_counter() - t0, result, failures))
        for failure in failures:
            print(f"check failed: {workload.name} operation {k}: {failure}", file=sys.stderr)
    return done


def _ok(done: list[Done]) -> list[Done]:
    return [d for d in done if not d.failures]


def measure(workload, seed: int, seconds: float, workdir: Path) -> tuple[dict, list[Done]]:
    """Untraced run: the end-to-end metrics."""
    setup_s = []
    for _ in range(workload.setup_reps):
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir)
        setup_s.append(time.perf_counter() - t0)
    done = run_ops(workload, state, workload.quality_ops, seconds)
    ok = _ok(done)
    scored = [d.result for d in ok if d.k < workload.quality_ops]
    metrics = {
        "setup_s": statistics.median(setup_s),
        # The host's speed jumps up in bursts that can cover a whole operation;
        # the slowest operation is the steadiest estimate of sustained speed.
        "work_per_s": min((d.result.work / d.seconds for d in ok), default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality_ratio": workload.quality_ratio(scored) if len(scored) == workload.quality_ops else 0.0,
    }
    return metrics, done


def trace(workload, seed: int, workdir: Path):
    """Traced run: the same operations untraced, then traced; per-layer metrics."""
    from tracer import Tracer, layer_metrics

    state = workload.setup(seed, workdir)
    plain = run_ops(workload, state, workload.quality_ops, 0.0)
    with Tracer() as tracer:
        traced = run_ops(workload, state, workload.quality_ops, 0.0, tracer)
    for p, t in zip(plain, traced):
        if p.result is not None and t.result is not None and p.result.output != t.result.output:
            t.failures.append("traced output differs from untraced output")
            print(f"check failed: {workload.name} operation {t.k}: traced output differs", file=sys.stderr)
    metrics = layer_metrics(tracer, len(traced), sum(d.seconds for d in plain), sum(d.seconds for d in traced))
    return metrics, plain + traced, tracer


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    import_program()
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()

    work_root = BENCH_DIR / "_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        if args.trace:
            metrics, done, tracer = trace(workload, args.seed, Path(tmp))
        else:
            metrics, done = measure(workload, args.seed, args.seconds, Path(tmp))
            tracer = None
    if set(metrics) != set(declared):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(declared))} disagree with BENCHMARK.json")

    failed = len(done) - len(_ok(done))
    result = {
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": declared[name]["unit"]} for name in declared},
    }
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "work_unit": workload.work_unit, "environment": environment(), "result": result,
        "operations": [{"k": d.k, "seconds": d.seconds, "work": d.result.work if d.result else None,
                        "failures": d.failures} for d in done],
    }
    print(f"{workload.name} seed={args.seed} trace={args.trace}: {len(done)} operations, {failed} failed")
    for name, meta in declared.items():
        print(f"  {name:48s} {metrics[name]:14.6g} {meta['unit']:6s} ({meta.get('better', '')} is better)")
    if tracer is not None:
        total = sum(d.seconds for d in done[workload.quality_ops:])
        stats = sorted(tracer.stats().items(), key=lambda item: -item[1].self_s)
        record["spans"] = {name: vars(s) for name, s in stats}
        record["missing_probes"] = tracer.missing
        print("  self time by span:")
        for name, s in stats:
            print(f"    {name:44s} {s.calls:9d} calls {s.self_s:9.3f} s self {s.self_s / total:7.1%}")
    env = record["environment"]
    print(f"  environment: {json.dumps(env, sort_keys=True)}")
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
