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
* ``golden/<circuit>.rankings.ans`` holds the sha256 of the
  :func:`repro.diagnosis.store.serialize_rankings` bytes of a fixed query
  set, one line per query (``<kind> top=<K> <query> <sha256>``), against
  the full and pass/fail dictionaries folded from that response map;
  ``.ans.sha`` is its sha256.  The queries are every detected fault's
  exact signature, its first half and its signature plus a failure no
  fault predicts, an empty observation and one made only of such
  failures, ranked at ``top`` 1 and 10 (and, on s27, past the universe
  size, which pins the whole order).

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

from repro.campaign import Campaign, execute
from repro.circuit.library import load
from repro.diagnosis import assemble_dictionary, diagnose, serialize_rankings
from repro.faults.model import fault_name
from repro.faults.universe import stuck_at_universe
from repro.harness.runner import run_stuck_at
from repro.patterns.random_gen import random_sequence
from repro.robust.chaos import step_bomb
from repro.robust.checkpoint import CampaignInterrupted
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
RANKING_KINDS = ("full", "passfail")
#: ``top`` values each ranking query runs at; 64 exceeds s27's 36-fault
#: universe, so that line pins the full order, ties across every cut too.
RANKING_TOPS = {"s27": (1, 10, 64), "s298": (1, 10)}


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


def checkpointed(circuit, tests, engine, path, record, resume=False):
    """A run checkpointed every ``CHECKPOINT_EVERY`` cycles to *path*."""
    return execute(
        Campaign(
            circuit, tests, engine, mode="record" if record else "detect",
            faults=stuck_at_universe(circuit), checkpoint_path=path,
            checkpoint_every=CHECKPOINT_EVERY, resume=resume,
        )
    )


def killed_and_resumed(circuit, tests, engine, path, kill_after, record):
    """Kill a checkpointed run after *kill_after* cycles, then resume it."""
    with step_bomb(_engine_class(engine), after_steps=kill_after) as bomb:
        with pytest.raises(CampaignInterrupted):
            checkpointed(circuit, tests, engine, path, record)
    assert bomb["calls"] == kill_after + 1  # died at that cycle, mid-window
    return checkpointed(circuit, tests, engine, path, record, resume=True)


def run_path(circuit, tests, engine, path, mode, tmp_dir):
    """One campaign on one execution path; returns its result."""
    record = mode == "record"
    faults = stuck_at_universe(circuit)
    checkpoint = os.path.join(tmp_dir, f"{circuit.name}-{engine}-{mode}.ckpt")
    if path == "plain":
        return run_stuck_at(circuit, tests, engine, faults, record_responses=record)
    if path == "checkpoint":
        return checkpointed(circuit, tests, engine, checkpoint, record)
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


def ranking_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.rankings.ans")


def parse_responses(circuit, answer: bytes):
    """The response map an ``.ans`` file renders (inverse of
    :func:`render_responses`)."""
    by_name = {fault_name(circuit, fault): fault for fault in stuck_at_universe(circuit)}
    responses = {}
    for line in answer.decode().splitlines():
        name, *cells = line.split()
        responses[by_name[name]] = tuple(
            (int(cycle), int(output))
            for cycle, output in (cell.split(":") for cell in cells)
        )
    return responses


def ranking_queries(circuit, dictionary):
    """``(label, observed)`` for every golden query on *dictionary*.

    Identical observations are ranked once, under the first label that
    produced them.
    """
    past = dictionary.num_vectors + 1  # a cycle no fault can fail at
    if dictionary.kind == "full":
        unknown = [(past, 0), (past + 1, 1)]
    else:
        unknown = [past, past + 1]
    queries = {(): "empty", tuple(unknown): "unknown"}
    for fault in dictionary.detected_faults():
        signature = sorted(dictionary.signature(fault))
        name = fault_name(circuit, fault)
        for label, observed in (
            ("exact", signature),
            ("half", signature[: (len(signature) + 1) // 2]),
            ("plus-unknown", signature + unknown[:1]),
        ):
            queries.setdefault(tuple(observed), f"{label}:{name}")
    return [(label, list(observed)) for observed, label in queries.items()]


def render_rankings(circuit, responses) -> bytes:
    """The ``.rankings.ans`` text: one ranking digest per query line."""
    lines = []
    for kind in RANKING_KINDS:
        dictionary = assemble_dictionary(circuit.name, NUM_VECTORS, responses, kind)
        for top in RANKING_TOPS[circuit.name]:
            for label, observed in ranking_queries(circuit, dictionary):
                result = diagnose(dictionary, observed, top=top)
                body = serialize_rankings(circuit, dictionary, result)
                lines.append(f"{kind} top={top} {label} {sha256(body)}")
    return ("\n".join(lines) + "\n").encode()


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


@pytest.mark.parametrize("name", CIRCUITS)
def test_ranking_bytes_match_golden(name):
    circuit = load(name)
    responses = parse_responses(circuit, _read(answer_path(name)))
    assert render_rankings(circuit, responses) == _read(ranking_path(name))


@pytest.mark.parametrize("name", CIRCUITS)
def test_ranking_file_matches_its_digest(name):
    digest = _read(ranking_path(name) + ".sha").decode().strip()
    assert sha256(_read(ranking_path(name))) == digest


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
        rankings = render_rankings(circuit, parse_responses(circuit, answer))
        for path, text in ((answer_path(name), answer), (ranking_path(name), rankings)):
            with open(path, "wb") as handle:
                handle.write(text)
            with open(path + ".sha", "w") as handle:
                handle.write(sha256(text) + "\n")
    with open(RESULTS_FILE, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp_dir:
        write_goldens(tmp_dir)
