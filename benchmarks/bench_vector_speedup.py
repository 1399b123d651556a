"""Vector-kernel speedup — width sweep, engine comparison, axis ablation.

Measures the pattern-parallel ``vsim`` kernel (:mod:`repro.vector`)
against the per-element ``csim`` baseline and the fault-axis ``PROOFS``
word engine, and records three things into ``BENCH_vector_speedup.json``:

* the speedup curve over word widths 1/32/64/256 per table circuit
  (``vsim`` uses the numpy plane automatically up to width 64, the
  scalar word path above that; every run is asserted bit-identical to
  the ``csim`` reference before its timing counts);
* an axis-choice ablation on a mixed workload — one full-universe job
  (many live faults, where the dense pattern plane wins) plus several
  small targeted-fault-list jobs over deep vectors (where the
  event-driven fault axis wins) — run with the axis fixed to ``fault``,
  fixed to ``pattern``, and under the auto scheduler, which should beat
  both fixed choices on the total;
* the :func:`repro.vector.scheduler.predict_axes` mix for a 16-shard
  partition of the big job, showing the two-dimensional composition
  (big shards start fault-axis, small shards pattern-axis under the
  scalar cost model, and vice versa under the dense one).

Usage::

    python benchmarks/bench_vector_speedup.py             # full table set
    python benchmarks/bench_vector_speedup.py --quick     # CI smoke
    python benchmarks/bench_vector_speedup.py --circuits s1238 s1494

Timing numbers are best-of-``--repeats`` wall seconds.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import benchlib

from repro.faults.universe import stuck_at_universe
from repro.harness.runner import run_stuck_at, workload_circuit
from repro.parallel import plan_shards
from repro.patterns.random_gen import random_sequence
from repro.vector import plane
from repro.vector.scheduler import predict_axes

#: The ISSUE's width sweep: 1 (degenerate, no packing gain), the two
#: machine-word sizes, and one beyond the numpy plane's uint64 limit.
DEFAULT_WIDTHS = (1, 32, 64, 256)


def _best_of(repeats, function, *args, **kwargs):
    """Best wall seconds plus the (deterministic) result."""
    best = None
    result = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        result = function(*args, **kwargs)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _assert_identical(name, label, reference, candidate):
    assert candidate.detected == reference.detected, (
        f"{name}: {label} changed hard detections — kernel is unsound"
    )
    assert candidate.potentially_detected == reference.potentially_detected, (
        f"{name}: {label} changed potential detections — kernel is unsound"
    )


def measure_circuit(name, patterns, widths, repeats):
    """Width sweep on one circuit: csim vs PROOFS vs vsim, bit-checked."""
    circuit = workload_circuit(name)
    tests = random_sequence(circuit, patterns, seed=1992)
    faults = stuck_at_universe(circuit)

    csim_wall, reference = _best_of(
        repeats, run_stuck_at, circuit, tests, "csim", faults
    )
    row = {
        "circuit": name,
        "gates": len(circuit.gates),
        "faults": len(faults),
        "patterns": patterns,
        "detected": len(reference.detected),
        "csim_wall_seconds": round(csim_wall, 4),
        "widths": [],
    }
    for width in widths:
        proofs_wall, proofs = _best_of(
            repeats, run_stuck_at, circuit, tests, "PROOFS", faults,
            word_width=width,
        )
        _assert_identical(name, f"PROOFS w{width}", reference, proofs)
        vsim_wall, vsim = _best_of(
            repeats, run_stuck_at, circuit, tests, "vsim", faults,
            word_width=width,
        )
        _assert_identical(name, f"vsim w{width}", reference, vsim)
        row["widths"].append(
            {
                "width": width,
                "plane": plane.available() and width <= plane.MAX_PLANE_WIDTH,
                "proofs_wall_seconds": round(proofs_wall, 4),
                "vsim_wall_seconds": round(vsim_wall, 4),
                "vsim_speedup_vs_csim": round(csim_wall / vsim_wall, 3),
                "vsim_speedup_vs_proofs": round(proofs_wall / vsim_wall, 3),
                "axis_windows": dict(vsim.axis_windows or {}),
            }
        )
    return row


def _ablation_jobs(quick):
    """The mixed workload: one big full-universe job + small targeted jobs.

    The big job (every fault live, moderate depth) is where the dense
    pattern plane wins; the small jobs (16 live faults, deep vectors on
    a feedback-heavy circuit) are where the event-driven fault axis
    wins.  A fixed axis loses one side or the other; only the scheduler
    can win both.
    """
    if quick:
        big_name, big_patterns = "s344", 96
        small_name, small_patterns, small_jobs, small_sample = "s298", 512, 2, 8
    else:
        big_name, big_patterns = "s1238", 256
        small_name, small_patterns, small_jobs, small_sample = "s526", 2048, 4, 16

    big_circuit = workload_circuit(big_name)
    big = (big_circuit, random_sequence(big_circuit, big_patterns, seed=7),
           stuck_at_universe(big_circuit))

    small_circuit = workload_circuit(small_name)
    small_tests = random_sequence(small_circuit, small_patterns, seed=11)
    small_universe = stuck_at_universe(small_circuit)
    rng = random.Random(42)
    smalls = [
        (small_circuit, small_tests, sorted(rng.sample(small_universe, small_sample)))
        for _ in range(small_jobs)
    ]
    return [big] + smalls


def measure_ablation(quick, repeats):
    """Total mixed-workload wall for fixed-fault, fixed-pattern and auto."""
    jobs = _ablation_jobs(quick)
    width = 64
    totals = {}
    job_walls = {}
    references = None
    for axis in ("fault", "pattern", "auto"):
        walls = []
        results = []
        for circuit, tests, faults in jobs:
            wall, result = _best_of(
                repeats, run_stuck_at, circuit, tests, "vsim", faults,
                word_width=width, axis_mode=axis,
            )
            walls.append(wall)
            results.append(result)
        if references is None:
            references = results
        else:
            for job, (reference, result) in enumerate(zip(references, results)):
                _assert_identical(
                    f"ablation job {job}", f"axis {axis}", reference, result
                )
        totals[axis] = round(sum(walls), 4)
        job_walls[axis] = [round(wall, 4) for wall in walls]

    _, _, big_faults = jobs[0]
    shards = plan_shards(big_faults, 16)
    live_counts = [len(shard) for shard in shards]
    return {
        "word_width": width,
        "jobs": [
            {"circuit": circuit.name, "patterns": len(tests.vectors),
             "faults": len(faults)}
            for circuit, tests, faults in jobs
        ],
        "total_wall_seconds": totals,
        "job_wall_seconds": job_walls,
        "auto_beats_fault": totals["auto"] < totals["fault"],
        "auto_beats_pattern": totals["auto"] < totals["pattern"],
        "shard_live_counts": live_counts,
        "shard_axis_mix": {
            "scalar": predict_axes(live_counts, len(jobs[0][1].vectors), width),
            "dense": predict_axes(
                live_counts, len(jobs[0][1].vectors), width, dense=True
            ),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--circuits", nargs="+", default=None, help="circuit names to measure"
    )
    parser.add_argument("--patterns", type=int, default=None, help="random vectors")
    parser.add_argument(
        "--widths", nargs="+", type=int, default=None, help="word widths to sweep"
    )
    parser.add_argument("--repeats", type=int, default=2, help="best-of repeats")
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized workload (seconds, not minutes)"
    )
    parser.add_argument(
        "--skip-ablation", action="store_true", help="width sweep only"
    )
    parser.add_argument(
        "--out", default="BENCH_vector_speedup.json", help="BENCH json output path"
    )
    args = parser.parse_args(argv)

    circuits = args.circuits or (
        ["s298", "s344"]
        if args.quick
        else ["s298", "s344", "s526", "s820", "s1238", "s1494"]
    )
    patterns = args.patterns or (48 if args.quick else 256)
    widths = tuple(args.widths) if args.widths else (
        (1, 64) if args.quick else DEFAULT_WIDTHS
    )
    repeats = 1 if args.quick else args.repeats

    rows = []
    for name in circuits:
        row = measure_circuit(name, patterns, widths, repeats)
        rows.append(row)
        for sweep in row["widths"]:
            print(
                f"  {name} w{sweep['width']}: csim={row['csim_wall_seconds']:.3f}s "
                f"PROOFS={sweep['proofs_wall_seconds']:.3f}s "
                f"vsim={sweep['vsim_wall_seconds']:.3f}s "
                f"({sweep['vsim_speedup_vs_csim']:.2f}x vs csim, "
                f"{sweep['vsim_speedup_vs_proofs']:.2f}x vs PROOFS)"
            )

    ablation = None
    if not args.skip_ablation:
        ablation = measure_ablation(args.quick, repeats)
        totals = ablation["total_wall_seconds"]
        print(
            f"  axis ablation: fault={totals['fault']:.3f}s "
            f"pattern={totals['pattern']:.3f}s auto={totals['auto']:.3f}s "
            f"(auto beats fault: {ablation['auto_beats_fault']}, "
            f"beats pattern: {ablation['auto_beats_pattern']})"
        )

    samples = [
        {"label": f"{row['circuit']}:csim", "seconds": row["csim_wall_seconds"]}
        for row in rows
    ]
    for row in rows:
        for sweep in row["widths"]:
            samples.append(
                {
                    "label": f"{row['circuit']}:vsim:w{sweep['width']}",
                    "seconds": sweep["vsim_wall_seconds"],
                }
            )
            samples.append(
                {
                    "label": f"{row['circuit']}:PROOFS:w{sweep['width']}",
                    "seconds": sweep["proofs_wall_seconds"],
                }
            )
    if ablation is not None:
        samples.extend(
            {"label": f"ablation:{axis}", "seconds": seconds}
            for axis, seconds in ablation["total_wall_seconds"].items()
        )

    path = benchlib.write_bench_json(
        "vector_speedup",
        config={
            "patterns": patterns,
            "widths": list(widths),
            "repeats": repeats,
            "quick": args.quick,
            "numpy_plane": plane.available(),
        },
        samples=samples,
        detail={"results": rows, "axis_ablation": ablation},
        out=args.out,
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
