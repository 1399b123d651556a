"""Golden conformance digests for the bytes an execution path can change.

Every engine must give the same answer on every execution path.  These
tests pin that answer to committed files instead of comparing engines
with each other at test time:

* ``golden/results.json`` holds the sha256 of :func:`repro.serve.cache.
  serialize_result` for csim-MV, PROOFS and vsim on s27 and s298, in
  detect mode and in record mode (dictionary building), on four paths:
  a plain run, a run checkpointed every 16 cycles, a run killed
  mid-campaign and resumed from its checkpoint, and a run sharded over
  two worker processes.
* ``golden/<circuit>.responses.ans`` is the full record-mode response
  map, one line per fault (``<fault> <cycle>:<output> ...``), and
  ``.ans.sha`` its sha256.  Every engine and path above must reproduce it.

The files were written by :func:`write_goldens` and are never edited by
hand; ``PYTHONPATH=src python -m tests.test_golden`` rewrites them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, Tuple

import pytest

from repro.circuit.library import load
from repro.faults.model import fault_name
from repro.faults.universe import stuck_at_universe
from repro.harness.runner import run_stuck_at
from repro.patterns.random_gen import random_sequence
from repro.robust.chaos import step_bomb
from repro.robust.checkpoint import CampaignInterrupted
from repro.robust.runner import run_checkpointed
from repro.serve.cache import serialize_result

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
RESULTS_FILE = os.path.join(GOLDEN_DIR, "results.json")

CIRCUITS = ("s27", "s298")
ENGINES = ("csim-MV", "PROOFS", "vsim")
PATHS = ("plain", "checkpoint", "resume", "jobs=2")
MODES = ("detect", "record")
NUM_VECTORS = 80
VECTOR_SEED = 16
CHECKPOINT_EVERY = 16
#: Cycles a killed run applies before dying on the ``resume`` path.
KILL_AFTER = 37


def _engine_class(engine: str) -> type:
    if engine == "PROOFS":
        from repro.baselines.proofs import ProofsSimulator

        return ProofsSimulator
    if engine == "vsim":
        from repro.vector.kernel import VectorFaultSimulator

        return VectorFaultSimulator
    from repro.concurrent.engine import ConcurrentFaultSimulator

    return ConcurrentFaultSimulator


def workload(name: str):
    circuit = load(name)
    return circuit, random_sequence(circuit, NUM_VECTORS, seed=VECTOR_SEED)


def killed_and_resumed(circuit, tests, engine, path, kill_after, record):
    """Kill a checkpointed run after *kill_after* cycles, then resume it."""
    with step_bomb(_engine_class(engine), after_steps=kill_after) as bomb:
        with pytest.raises(CampaignInterrupted):
            run_checkpointed(
                circuit, tests, engine, faults=stuck_at_universe(circuit),
                checkpoint_path=path, checkpoint_every=CHECKPOINT_EVERY,
                record_responses=record,
            )
    assert bomb["calls"] == kill_after + 1  # died at that cycle, mid-window
    return run_checkpointed(
        circuit, tests, engine, faults=stuck_at_universe(circuit),
        checkpoint_path=path, checkpoint_every=CHECKPOINT_EVERY, resume=True,
        record_responses=record,
    )


def run_path(circuit, tests, engine, path, mode, tmp_dir):
    """One campaign on one execution path; returns its result."""
    record = mode == "record"
    faults = stuck_at_universe(circuit)
    checkpoint = os.path.join(tmp_dir, f"{circuit.name}-{engine}-{mode}.ckpt")
    if path == "plain":
        return run_stuck_at(circuit, tests, engine, faults, record_responses=record)
    if path == "checkpoint":
        return run_checkpointed(
            circuit, tests, engine, faults=faults, checkpoint_path=checkpoint,
            checkpoint_every=CHECKPOINT_EVERY, record_responses=record,
        )
    if path == "resume":
        return killed_and_resumed(circuit, tests, engine, checkpoint, KILL_AFTER, record)
    return run_stuck_at(circuit, tests, engine, faults, jobs=2, record_responses=record)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def render_responses(circuit, responses) -> bytes:
    """The ``.ans`` text of a response map: one line per fault, in order."""
    lines = []
    for fault, failures in sorted(responses.items()):
        cells = [fault_name(circuit, fault)]
        cells.extend(f"{cycle}:{output}" for cycle, output in failures)
        lines.append(" ".join(cells))
    return ("\n".join(lines) + "\n").encode()


def answer_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.responses.ans")


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _golden_results() -> Dict[str, str]:
    with open(RESULTS_FILE) as handle:
        return json.load(handle)


def result_key(name: str, engine: str, path: str, mode: str) -> str:
    return f"{name}/{engine}/{path}/{mode}"


_WORKLOADS: Dict[str, Tuple] = {}


def _cached_workload(name: str):
    if name not in _WORKLOADS:
        _WORKLOADS[name] = workload(name)
    return _WORKLOADS[name]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", CIRCUITS)
def test_result_bytes_match_golden(name, engine, path, mode, tmp_path):
    circuit, tests = _cached_workload(name)
    result = run_path(circuit, tests, engine, path, mode, str(tmp_path))
    digest = sha256(serialize_result(result, circuit))
    assert digest == _golden_results()[result_key(name, engine, path, mode)]
    if mode == "record":
        expected = _read(answer_path(name))
        assert render_responses(circuit, result.responses) == expected


@pytest.mark.parametrize("name", CIRCUITS)
def test_answer_file_matches_its_digest(name):
    digest = _read(answer_path(name) + ".sha").decode().strip()
    assert sha256(_read(answer_path(name))) == digest


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(3))
def test_vsim_killed_at_random_cycle_resumes_to_golden(seed, mode, tmp_path):
    """A kill may land anywhere inside a pattern window; the run resumes
    from the last checkpoint to the golden bytes."""
    circuit, tests = _cached_workload("s298")
    kill_after = random.Random(seed).randrange(CHECKPOINT_EVERY + 1, NUM_VECTORS)
    result = killed_and_resumed(
        circuit, tests, "vsim", str(tmp_path / "kill.ckpt"), kill_after,
        mode == "record",
    )
    key = result_key("s298", "vsim", "plain", mode)
    assert sha256(serialize_result(result, circuit)) == _golden_results()[key]
    if mode == "record":
        assert render_responses(circuit, result.responses) == _read(answer_path("s298"))


def write_goldens(tmp_dir: str) -> None:
    """Compute every golden file from the current code and write it."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    digests: Dict[str, str] = {}
    for name in CIRCUITS:
        circuit, tests = workload(name)
        answers = set()
        for engine in ENGINES:
            for path in PATHS:
                for mode in MODES:
                    result = run_path(circuit, tests, engine, path, mode, tmp_dir)
                    key = result_key(name, engine, path, mode)
                    digests[key] = sha256(serialize_result(result, circuit))
                    if mode == "record":
                        answers.add(render_responses(circuit, result.responses))
        if len(answers) != 1:
            raise SystemExit(f"{name}: engines and paths disagree on the responses")
        answer = answers.pop()
        with open(answer_path(name), "wb") as handle:
            handle.write(answer)
        with open(answer_path(name) + ".sha", "w") as handle:
            handle.write(sha256(answer) + "\n")
    with open(RESULTS_FILE, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp_dir:
        write_goldens(tmp_dir)
