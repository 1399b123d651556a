"""Diagnosis subsystem — dictionary build cost and query latency.

Measures the two halves of the diagnosis workflow:

* **build**: wall seconds for the full (no-drop) dictionary build over the
  complete pin-level stuck-at universe, full universe vs equivalence
  representatives, at 1 and 4 shards, plus the collapsed single-process
  build on each dictionary engine (csim-MV, PROOFS and vsim) — asserting,
  always, that every variant encodes to bit-identical ``repro-dict/1``
  artifact bytes;
* **diagnose**: per-query latency of :func:`repro.diagnosis.store.
  diagnosis_report` against a warm (already built and decoded)
  dictionary — two queries per detected fault, its exact signature and
  the first half of it (a truncated failure log), reported together as
  p50/p95.

Usage::

    python benchmarks/bench_diagnosis.py             # mid-size subset
    python benchmarks/bench_diagnosis.py --quick     # CI-sized
    python benchmarks/bench_diagnosis.py --out BENCH_diagnosis.json

Build numbers are best-of-``--repeats`` wall seconds; expansion onto the
full universe is included in the collapsed timings (it is part of the
build), as is artifact encoding.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import benchlib

from repro.diagnosis import assemble_dictionary, build_responses
from repro.diagnosis.store import diagnosis_report, encode_dictionary
from repro.faults.universe import all_stuck_at_faults
from repro.harness.runner import workload_circuit, workload_tests


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


#: Engines timed on the collapsed single-process build.
ENGINES = ("csim-MV", "PROOFS", "vsim")


def _build_artifact(circuit, tests, universe, collapse, jobs, engine="csim-MV"):
    """One dictionary build, end to end: simulate (sharded when jobs > 1),
    expand class members when collapsed, encode the artifact bytes."""
    responses = build_responses(
        circuit, tests, faults=universe, collapse=collapse, jobs=jobs,
        engine=engine,
    )
    blob = encode_dictionary(
        circuit.name, len(tests), responses, "full", collapse=collapse
    )
    return responses, blob


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def measure_circuit(name, scale, patterns, jobs_list, repeats):
    circuit = workload_circuit(name, scale)
    tests = workload_tests(name, scale, "random", length=patterns)
    universe = list(all_stuck_at_faults(circuit))

    builds = [
        (collapse, jobs, "csim-MV")
        for collapse in (None, "equivalence")
        for jobs in jobs_list
    ] + [("equivalence", 1, engine) for engine in ENGINES if engine != "csim-MV"]
    build_rows = []
    reference_responses = None
    reference_blobs = {}
    for collapse, jobs, engine in builds:
        wall, (responses, blob) = _best_of(
            repeats, _build_artifact, circuit, tests, universe, collapse, jobs, engine
        )
        if reference_responses is None:
            reference_responses = responses
        # The manifest records the collapse mode, so whole-artifact bytes
        # differ across modes by that one field; the response maps
        # themselves must agree exactly, and within a mode so must the
        # bytes, whatever the engine and shard count.
        assert responses == reference_responses, (
            f"{name}: collapse={collapse} jobs={jobs} engine={engine} responses "
            "are not bit-identical to the full serial build — the dictionary "
            "builder is unsound"
        )
        reference_blob = reference_blobs.setdefault(collapse, blob)
        assert blob == reference_blob, (
            f"{name}: collapse={collapse} jobs={jobs} engine={engine} artifact "
            "differs from the first build of its mode"
        )
        build_rows.append(
            {
                "circuit": name,
                "mode": "collapsed" if collapse else "full",
                "engine": engine,
                "jobs": jobs,
                "faults": len(universe),
                "wall_seconds": round(wall, 4),
                "artifact_bytes": len(blob),
            }
        )

    dictionary = assemble_dictionary(
        circuit.name, len(tests), reference_responses, "full"
    )
    detected = dictionary.detected_faults()
    latencies = []
    for fault in detected:
        signature = sorted(dictionary.signature(fault))
        for observed in (signature, signature[: (len(signature) + 1) // 2]):
            started = time.perf_counter()
            diagnosis_report(circuit, tests, dictionary, observed, top=10)
            latencies.append(time.perf_counter() - started)
    query_row = {
        "circuit": name,
        "queries": len(latencies),
        "dictionary_faults": len(dictionary),
        "detected_faults": len(detected),
        "p50_seconds": round(_percentile(latencies, 0.50), 6),
        "p95_seconds": round(_percentile(latencies, 0.95), 6),
    }
    return build_rows, query_row


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
        "--out", default="BENCH_diagnosis.json", help="BENCH json output path"
    )
    args = parser.parse_args(argv)

    circuits = args.circuits or (["s27", "s298"] if args.quick else ["s298", "s386", "s526"])
    scale = args.scale if args.scale is not None else (0.15 if args.quick else 1.0)
    patterns = args.patterns or (24 if args.quick else 96)
    jobs_list = [1, 4]
    repeats = 1 if args.quick else args.repeats

    build_rows = []
    query_rows = []
    for name in circuits:
        rows, query = measure_circuit(name, scale, patterns, jobs_list, repeats)
        build_rows.extend(rows)
        query_rows.append(query)
        for row in rows:
            print(
                f"  build {row['circuit']}:{row['mode']}:{row['engine']}:"
                f"jobs{row['jobs']}: "
                f"{row['wall_seconds']:.3f}s over {row['faults']} faults "
                f"({row['artifact_bytes']} bytes)"
            )
        print(
            f"  diagnose {query['circuit']}: {query['queries']} queries, "
            f"p50={query['p50_seconds'] * 1e3:.2f}ms "
            f"p95={query['p95_seconds'] * 1e3:.2f}ms"
        )

    path = benchlib.write_bench_json(
        "diagnosis",
        config={
            "scale": scale, "patterns": patterns, "jobs": jobs_list,
            "engines": list(ENGINES),
        },
        samples=[
            {
                "label": (
                    f"build:{row['circuit']}:{row['mode']}:{row['engine']}:"
                    f"jobs{row['jobs']}"
                ),
                "seconds": row["wall_seconds"],
            }
            for row in build_rows
        ]
        + [
            {
                "label": f"diagnose:{row['circuit']}:p{pct}",
                "seconds": row[f"p{pct}_seconds"],
            }
            for row in query_rows
            for pct in (50, 95)
        ],
        detail={"builds": build_rows, "queries": query_rows},
        out=args.out,
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
