"""Structural fault collapsing — collapse ratio and wall-time speedup.

Measures, per circuit and per engine, what the static equivalence
analysis (``repro.analyze.collapse``) buys a campaign over the *full*
stuck-at universe:

* the collapse ratio — what fraction of the full universe the
  representatives replace;
* the end-to-end wall-clock speedup of simulating representatives and
  expanding, asserting — always — that the expanded detections are
  bit-identical to the full-universe run.

Usage::

    python benchmarks/bench_fault_collapse.py             # mid-size subset
    python benchmarks/bench_fault_collapse.py --quick     # CI-sized
    python benchmarks/bench_fault_collapse.py --out BENCH_fault_collapse.json

Timing numbers are best-of-``--repeats`` wall seconds; the expansion step
is included in the collapsed timing (it is part of the campaign).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import benchlib

from repro.analyze import collapse_universe
from repro.faults.universe import all_stuck_at_faults
from repro.harness.runner import run_stuck_at, workload_circuit, workload_tests


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


def _collapsed_run(circuit, tests, engine, collapsed):
    """One collapsed campaign: simulate representatives, expand. The unit
    being timed — expansion is part of the work the analysis trades for."""
    reps = run_stuck_at(
        circuit, tests, engine, faults=list(collapsed.representatives)
    )
    return collapsed.expand(reps)


def measure_circuit(name, scale, patterns, engines, repeats):
    circuit = workload_circuit(name, scale)
    tests = workload_tests(name, scale, "random", length=patterns)
    universe = list(all_stuck_at_faults(circuit))
    equivalence = collapse_universe(circuit, universe)

    rows = []
    for engine in engines:
        full_wall, full = _best_of(
            repeats, run_stuck_at, circuit, tests, engine, faults=universe
        )
        equiv_wall, equiv = _best_of(
            repeats, _collapsed_run, circuit, tests, engine, equivalence
        )
        assert equiv.detected == full.detected, (
            f"{name}/{engine}: equivalence expansion is not bit-identical "
            "— collapsing is unsound"
        )
        assert equiv.potentially_detected == full.potentially_detected

        rows.append(
            {
                "circuit": name,
                "engine": engine,
                "faults_full": equivalence.num_universe,
                "faults_equivalence": equivalence.num_representatives,
                "equivalence_ratio_pct": round(100.0 * equivalence.ratio, 2),
                "full_wall_seconds": round(full_wall, 4),
                "equivalence_wall_seconds": round(equiv_wall, 4),
                "equivalence_speedup": round(full_wall / equiv_wall, 3),
                "detected": len(full.detected),
            }
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--circuits", nargs="+", default=None, help="circuit names to measure"
    )
    parser.add_argument("--engines", nargs="+", default=None)
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--patterns", type=int, default=None, help="random vectors")
    parser.add_argument("--repeats", type=int, default=2, help="best-of repeats")
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized workload (seconds, not minutes)"
    )
    parser.add_argument(
        "--out", default="BENCH_fault_collapse.json", help="BENCH json output path"
    )
    args = parser.parse_args(argv)

    circuits = args.circuits or (
        ["s298", "s386"] if args.quick else ["s298", "s386", "s526", "s641", "s1238"]
    )
    engines = args.engines or (["csim-MV"] if args.quick else ["csim", "csim-MV", "vsim"])
    # Full scale by default: the collapse ratio is a structural property of
    # the real netlists, not of their rescaled synthetic variants.
    scale = args.scale if args.scale is not None else (0.15 if args.quick else 1.0)
    patterns = args.patterns or (32 if args.quick else 128)
    repeats = 1 if args.quick else args.repeats

    rows = []
    for name in circuits:
        for row in measure_circuit(name, scale, patterns, engines, repeats):
            rows.append(row)
            print(
                f"  {row['circuit']}/{row['engine']}: "
                f"equivalence {row['faults_equivalence']}/{row['faults_full']} "
                f"(-{row['equivalence_ratio_pct']:.1f}%) "
                f"speedup={row['equivalence_speedup']:.2f}x"
            )

    path = benchlib.write_bench_json(
        "fault_collapse",
        config={"scale": scale, "patterns": patterns, "engines": engines},
        samples=[
            {
                "label": f"{row['circuit']}:{row['engine']}:{kind}",
                "seconds": row[f"{kind}_wall_seconds"],
            }
            for row in rows
            for kind in ("full", "equivalence")
        ],
        detail={"results": rows},
        out=args.out,
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
