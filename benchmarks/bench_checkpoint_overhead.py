"""Checkpointing overhead — what resilience costs an uninterrupted run.

Three configurations of the same deterministic workload:

* ``plain``      — the raw engine loop (``run_stuck_at``), no resilience;
* ``infrequent`` — a checkpointed campaign writing every 64 cycles
                   (the default cadence);
* ``frequent``   — a checkpointed campaign writing every 4 cycles (a
                   paranoid cadence, near the worst case).

The result must be bit-identical in every configuration — checkpointing
observes the campaign, it never changes it — and the default cadence is
expected to stay cheap: snapshot + atomic write amortized over 64 cycles
of pure-Python simulation.  The checkpoint file size is recorded so a
regression in snapshot footprint shows up alongside the timing.
"""

import os

import pytest

from conftest import SCALE, run_once
from repro.campaign import Campaign, execute
from repro.harness.runner import run_stuck_at, workload_circuit, workload_tests

CIRCUITS = ("s298", "s526")

MODES = ("plain", "infrequent", "frequent")

_EVERY = {"infrequent": 64, "frequent": 4}


@pytest.mark.parametrize("name", CIRCUITS)
@pytest.mark.parametrize("mode", MODES)
def test_checkpoint_overhead(benchmark, tmp_path, name, mode):
    circuit = workload_circuit(name, SCALE)
    tests = workload_tests(name, SCALE, "deterministic")
    path = str(tmp_path / "ck.pkl")

    def run():
        if mode == "plain":
            return run_stuck_at(circuit, tests, "csim-MV")
        return execute(
            Campaign(
                circuit,
                tests,
                "csim-MV",
                checkpoint_path=path,
                checkpoint_every=_EVERY[mode],
            )
        )

    result = run_once(benchmark, run)
    extra = dict(
        circuit=name,
        mode=mode,
        total_work=result.counters.total_work(),
        wall_seconds=result.wall_seconds,
    )
    if mode != "plain":
        extra["checkpoint_bytes"] = os.path.getsize(path)
    benchmark.extra_info.update(extra)


@pytest.mark.parametrize("name", CIRCUITS)
def test_checkpointing_never_changes_the_simulation(tmp_path, name):
    circuit = workload_circuit(name, SCALE)
    tests = workload_tests(name, SCALE, "deterministic")
    reference = run_stuck_at(circuit, tests, "csim-MV")
    for mode in ("infrequent", "frequent"):
        checkpointed = execute(
            Campaign(
                circuit,
                tests,
                "csim-MV",
                checkpoint_path=str(tmp_path / f"{mode}.pkl"),
                checkpoint_every=_EVERY[mode],
            )
        )
        assert checkpointed.detected == reference.detected
        assert checkpointed.counters == reference.counters
        assert checkpointed.memory.peak_bytes == reference.memory.peak_bytes
