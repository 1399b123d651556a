"""Parallel scaling — wall-clock speedup of the fault-sharded runner vs K.

Runs the same deterministic workload single-process and under the
multiprocessing executor for each worker count, records the speedup
curve into a BENCH json, and asserts — always, speed is worthless if the
answer changed — that every merged result's detections are bit-identical
to the single-process run.

Besides wall clock the json records the *work overhead*: each worker
simulates its own good machine, so the summed work counters exceed the
single-process run's; the overhead ratio bounds the achievable speedup
(see ``repro.parallel.merge`` for why this replication is inherent).

Usage::

    python benchmarks/bench_parallel_scaling.py             # s35932 at 0.05, 128 vectors, K=1,2,4
    python benchmarks/bench_parallel_scaling.py --quick     # s35932 at 0.02, 64 vectors, K=1,2
    python benchmarks/bench_parallel_scaling.py --out BENCH_parallel.json

Both workloads give each shard more simulation than a worker process
costs to start: the default takes about 2.3 s single-process on 2 vCPUs
and ran 1.98x faster at K=2, the quick one about 0.4 s and 1.35-1.59x.
(s526 at scale 0.5 with 192 vectors, the old default, ran in 0.15 s and
measured 1.09x: the pool start-up, not the shards.)

On a single-core container the speedup will be ~1/overhead (honest
numbers are the point; ``cpu_count`` is recorded alongside).
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import benchlib

from repro.harness.runner import run_stuck_at, workload_circuit, workload_tests


def measure(circuit, tests, jobs, repeats):
    """Best-of-*repeats* wall seconds plus the (deterministic) result."""
    best = None
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = run_stuck_at(circuit, tests, "csim-MV", jobs=jobs)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuit", default=None, help="workload circuit name")
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--patterns", type=int, default=None, help="random vectors")
    parser.add_argument(
        "--jobs",
        type=int,
        nargs="+",
        default=None,
        metavar="K",
        help="worker counts to measure (default 1 2 4; --quick: 1 2)",
    )
    parser.add_argument("--repeats", type=int, default=2, help="best-of repeats")
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized workload (seconds, not minutes)"
    )
    parser.add_argument(
        "--out",
        default="BENCH_parallel_scaling.json",
        help="BENCH json output path",
    )
    args = parser.parse_args(argv)

    circuit_name = args.circuit or "s35932"
    scale = args.scale if args.scale is not None else (0.02 if args.quick else 0.05)
    patterns = args.patterns or (64 if args.quick else 128)
    worker_counts = args.jobs or ([1, 2] if args.quick else [1, 2, 4])
    repeats = 1 if args.quick else args.repeats

    circuit = workload_circuit(circuit_name, scale)
    tests = workload_tests(circuit_name, scale, "random", length=patterns)

    rows = []
    base_wall = None
    base_result = None
    for jobs in worker_counts:
        wall, result = measure(circuit, tests, jobs, repeats)
        if base_result is None:
            base_wall, base_result = wall, result
        else:
            assert result.detected == base_result.detected, (
                f"jobs={jobs} changed the detections — parallel run is wrong"
            )
        overhead = result.counters.total_work() / base_result.counters.total_work()
        rows.append(
            {
                "jobs": jobs,
                "wall_seconds": round(wall, 4),
                "speedup": round(base_wall / wall, 3),
                "efficiency": round(base_wall / wall / jobs, 3),
                "work_overhead": round(overhead, 3),
                "detected": len(result.detected),
            }
        )
        print(
            f"  jobs={jobs}: {wall:.3f}s  speedup={rows[-1]['speedup']:.2f}x  "
            f"work-overhead={overhead:.2f}x"
        )

    path = benchlib.write_bench_json(
        "parallel_scaling",
        config={
            "circuit": circuit_name,
            "scale": scale,
            "patterns": patterns,
            "cpu_count": multiprocessing.cpu_count(),
        },
        samples=[
            {"label": f"jobs={row['jobs']}", "seconds": row["wall_seconds"]}
            for row in rows
        ],
        detail={
            "coverage_pct": round(100.0 * base_result.coverage, 2),
            "results": rows,
        },
        out=args.out,
    )
    print(f"wrote {path} (cpu_count={multiprocessing.cpu_count()})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
