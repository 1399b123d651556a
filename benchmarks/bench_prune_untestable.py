"""Structural-untestability pruning — reduction, speedup, sanitizer cost.

Measures three things on a deterministic workload and records them into a
BENCH json:

* how much of the collapsed stuck-at universe the structural analysis
  removes (``reduction_pct`` per circuit);
* the end-to-end wall-clock speedup of simulating only the survivors,
  asserting — always — that the survivors' detections are bit-identical
  to the unpruned run restricted to the same faults;
* the overhead of running with ``--sanitize`` (the fault-list invariant
  checker) relative to a plain run.

Usage::

    python benchmarks/bench_prune_untestable.py             # mid-size subset
    python benchmarks/bench_prune_untestable.py --quick     # CI-sized
    python benchmarks/bench_prune_untestable.py --out BENCH_prune.json

Shipped ISCAS'89 benchmarks are mostly fully-testable at the structural
level, so the reduction there is honest but small; the dangling/constant
rich synthetic netlists that motivate pruning show up in the unit tests,
not here.  Timing numbers are best-of-``--repeats`` wall seconds.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import benchlib

from repro.analyze import prune_untestable
from repro.circuit.netlist import CircuitBuilder
from repro.faults.universe import stuck_at_universe
from repro.harness.runner import (
    run_stuck_at,
    sanitized_options,
    workload_circuit,
    workload_tests,
)
from repro.logic.tables import GateType
from repro.patterns.random_gen import random_sequence


def synthetic_prunable(stages: int):
    """An observable chain plus a dangling cone and a constant stem.

    Roughly a third of the collapsed universe is structurally
    untestable, so the pruned-vs-full comparison measures real work
    saved rather than timing noise.
    """
    builder = CircuitBuilder(f"prunable{stages}")
    for index in range(4):
        builder.add_input(f"a{index}")
    previous = "a0"
    for index in range(stages):
        builder.add_gate(f"g{index}", GateType.NAND, [previous, f"a{index % 4}"])
        previous = f"g{index}"
    # Dangling cone: as deep as the observable chain, never reaches an output.
    dangling = "a1"
    for index in range(stages):
        builder.add_gate(f"d{index}", GateType.NOR, [dangling, f"a{(index + 1) % 4}"])
        dangling = f"d{index}"
    # Constant-0 stem with fanout >= 2 so its stuck-at-0 survives collapsing.
    builder.add_gate("c0", GateType.CONST0, [])
    builder.add_gate("y", GateType.OR, [previous, "c0"])
    builder.add_gate("z", GateType.OR, ["a3", "c0"])
    builder.set_output("y")
    builder.set_output("z")
    return builder.build()


def _best_of(repeats, function, *args, **kwargs):
    """Best wall seconds plus the (deterministic) result."""
    function(*args, **kwargs)  # warm-up: caches and code paths
    best = None
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = function(*args, **kwargs)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def measure_circuit(name, scale, patterns, repeats):
    if name.startswith("prunable"):
        circuit = synthetic_prunable(int(name[len("prunable") :]))
        tests = random_sequence(circuit, patterns, seed=7)
    else:
        circuit = workload_circuit(name, scale)
        tests = workload_tests(name, scale, "random", length=patterns)
    universe = stuck_at_universe(circuit)
    report = prune_untestable(circuit, universe)

    full_wall, full = _best_of(repeats, run_stuck_at, circuit, tests, "csim-MV")
    pruned_wall, pruned = _best_of(
        repeats, run_stuck_at, circuit, tests, "csim-MV", faults=report.kept
    )
    kept = set(report.kept)
    expected = {f: c for f, c in full.detected.items() if f in kept}
    assert pruned.detected == expected, (
        f"{name}: pruning changed survivor detections — analysis is unsound"
    )

    sanitized_wall, sanitized = _best_of(
        repeats, run_stuck_at, circuit, tests, "csim-MV",
        options=sanitized_options("csim-MV"),
    )
    assert sanitized.detected == full.detected

    return {
        "circuit": name,
        "faults_total": report.total,
        "faults_pruned": len(report.pruned),
        "reduction_pct": round(100.0 * report.reduction, 2),
        "full_wall_seconds": round(full_wall, 4),
        "pruned_wall_seconds": round(pruned_wall, 4),
        "prune_speedup": round(full_wall / pruned_wall, 3),
        "sanitized_wall_seconds": round(sanitized_wall, 4),
        "sanitizer_overhead": round(sanitized_wall / full_wall, 3),
        "detected": len(full.detected),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--circuits", nargs="+", default=None, help="circuit names to measure"
    )
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--patterns", type=int, default=None, help="random vectors")
    parser.add_argument("--repeats", type=int, default=2, help="best-of repeats")
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized workload (seconds, not minutes)"
    )
    parser.add_argument(
        "--out", default="BENCH_prune_untestable.json", help="BENCH json output path"
    )
    args = parser.parse_args(argv)

    circuits = args.circuits or (
        ["prunable24", "s298", "s386"]
        if args.quick
        else ["prunable96", "s298", "s386", "s526", "s1238"]
    )
    # Full scale by default: rescaled synthetic variants of the shipped
    # netlists are fully testable, which would hide the real reductions.
    scale = args.scale if args.scale is not None else (0.15 if args.quick else 1.0)
    patterns = args.patterns or (32 if args.quick else 128)
    repeats = 1 if args.quick else args.repeats

    rows = []
    for name in circuits:
        row = measure_circuit(name, scale, patterns, repeats)
        rows.append(row)
        print(
            f"  {name}: pruned {row['faults_pruned']}/{row['faults_total']} "
            f"({row['reduction_pct']:.1f}%)  speedup={row['prune_speedup']:.2f}x  "
            f"sanitizer-overhead={row['sanitizer_overhead']:.2f}x"
        )

    path = benchlib.write_bench_json(
        "prune_untestable",
        config={"scale": scale, "patterns": patterns, "engine": "csim-MV"},
        samples=[
            {"label": f"{row['circuit']}:{kind}", "seconds": row[f"{kind}_wall_seconds"]}
            for row in rows
            for kind in ("full", "pruned", "sanitized")
        ],
        detail={"results": rows},
        out=args.out,
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
