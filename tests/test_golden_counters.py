"""Golden work counters of the concurrent engines, PROOFS and vsim.

The digests in ``golden/results.json`` pin what an engine answers; this
file pins how much work it does to get there.  ``golden/counters.json``
holds ``asdict(result.counters)`` plus ``memory.peak_elements`` of these
runs on s27, s298 and s526, each over 64 random vectors:

* csim, csim-V, csim-M and csim-MV in detect mode (fault dropping);
* csim-MV in record mode (dictionary building, no dropping);
* csim-TV and csim-T (lists not split) on the transition-fault universe;
* PROOFS and vsim in detect and record mode;
* vsim at word width 128 on the pattern axis (``vsim-w128``), detect and
  record mode: the scalar pattern-window path, which the numpy plane
  (width 64 at most) never takes.

The counters are deterministic, so a rewrite of the engine's inner loops
that changes how many gates, fault machines or list elements it touches
shows here even when every detection is still right.

``PYTHONPATH=src python -m tests.test_golden_counters`` rewrites the
file; do that only for an intended change of the engines' work, and say
so.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Any, Dict, Tuple

import pytest

from repro.circuit.library import load
from repro.harness.runner import run_stuck_at, run_transition
from repro.patterns.random_gen import random_sequence

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
COUNTERS_FILE = os.path.join(GOLDEN_DIR, "counters.json")

CIRCUITS = ("s27", "s298", "s526")
NUM_VECTORS = 64
VECTOR_SEED = 5
#: ``(label, engine, mode)`` of every pinned run.  ``csim-T`` is the
#: transition engine without split lists; ``vsim-w128`` is vsim on its
#: scalar pattern windows (see :data:`ENGINE_SETTINGS`).
RUNS = (
    ("csim/detect", "csim", "detect"),
    ("csim-V/detect", "csim-V", "detect"),
    ("csim-M/detect", "csim-M", "detect"),
    ("csim-MV/detect", "csim-MV", "detect"),
    ("csim-MV/record", "csim-MV", "record"),
    ("csim-TV/transition", "csim-TV", "transition"),
    ("csim-T/transition", "csim-T", "transition"),
    ("PROOFS/detect", "PROOFS", "detect"),
    ("PROOFS/record", "PROOFS", "record"),
    ("vsim/detect", "vsim", "detect"),
    ("vsim/record", "vsim", "record"),
    ("vsim-w128/detect", "vsim-w128", "detect"),
    ("vsim-w128/record", "vsim-w128", "record"),
)

#: Runner settings behind the engine names that are not registry names.
ENGINE_SETTINGS: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "csim-T": ("csim-TV", {"split_lists": False}),
    "vsim-w128": ("vsim", {"word_width": 128, "axis_mode": "pattern"}),
}


def run_counters(name: str, engine: str, mode: str) -> Dict[str, int]:
    """The work counters and peak element count of one pinned run."""
    circuit = load(name)
    tests = random_sequence(circuit, NUM_VECTORS, seed=VECTOR_SEED)
    engine, settings = ENGINE_SETTINGS.get(engine, (engine, {}))
    if mode == "transition":
        result = run_transition(circuit, tests, **settings)
    else:
        result = run_stuck_at(
            circuit, tests, engine, record_responses=mode == "record", **settings
        )
    counts = asdict(result.counters)
    counts["peak_elements"] = result.memory.peak_elements
    return counts


def _golden() -> Dict[str, Dict[str, int]]:
    with open(COUNTERS_FILE) as handle:
        return json.load(handle)


@pytest.mark.parametrize("label,engine,mode", RUNS, ids=[run[0] for run in RUNS])
@pytest.mark.parametrize("name", CIRCUITS)
def test_counters_match_golden(name, label, engine, mode):
    assert run_counters(name, engine, mode) == _golden()[f"{name}/{label}"]


def test_golden_covers_every_run():
    expected = {f"{name}/{label}" for name in CIRCUITS for label, _, _ in RUNS}
    assert set(_golden()) == expected


def write_golden() -> None:
    """Compute every pinned run's counters from the current code."""
    golden = {
        f"{name}/{label}": run_counters(name, engine, mode)
        for name in CIRCUITS
        for label, engine, mode in RUNS
    }
    with open(COUNTERS_FILE, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    write_golden()
