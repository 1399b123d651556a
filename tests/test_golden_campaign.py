"""Golden identities and campaign results for every entry point's pipeline.

Two committed files pin what a campaign's plumbing may not change:

* ``golden/identity.json``: the identities that bind stored state to a
  campaign.
  - ``cache_keys``: the serve result-cache key of a fixed spec list on
    s27 and s298, read from :meth:`FaultSimService.submit`.
  - ``checkpoint_fingerprints``: the fingerprint of every checkpoint file
    that CLI runs stopped by ``--max-cycles`` leave behind (``simulate``
    and ``transition``, plain, collapsed, pruned and over two jobs, plus
    ``build-dictionary`` over two jobs), and of the checkpoints of serve
    jobs killed mid-run.  The key names the file, so a changed checkpoint
    layout shows too.
  - ``collapse_fingerprints``: the ``fingerprint_material()`` digest of
    the full-universe equivalence maps.  Checkpoint fingerprints embed
    it, so a change here orphans every collapsed checkpoint.
* ``golden/campaigns.json``: sha256 digests of
  :func:`repro.serve.cache.serialize_result` bytes (and of rendered
  response maps) for the execution paths ``golden/results.json`` does not
  cover: collapsed runs (csim-MV, PROOFS and vsim), collapsed dictionary
  builds, transition runs (plain, checkpointed every 16 cycles, killed
  and resumed, two jobs), the engine ladders, and served jobs (PROOFS and
  vsim among them).

Both are computed only through entry points whose signatures do not
change (the CLI's ``main``, :class:`FaultSimService`, ``cache_key`` and
the library runners), so this module runs unmodified whatever the
pipeline between them looks like.  ``PYTHONPATH=src python -m
tests.test_golden_campaign`` rewrites the files; do that only for an
intended change of semantics, and say so.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from typing import Dict, List, Tuple

import pytest

from repro.analyze import collapse_universe
from repro.circuit.library import S27_BENCH, load
from repro.cli import main
from repro.concurrent.engine import ConcurrentFaultSimulator
from repro.concurrent.transition_engine import TransitionFaultSimulator
from repro.diagnosis import build_responses
from repro.faults.model import fault_name
from repro.faults.universe import stuck_at_universe
from repro.harness.runner import run_stuck_at, run_transition
from repro.patterns.random_gen import random_sequence
from repro.patterns.vectors import format_vectors
from repro.robust import DEFAULT_LADDER, VECTOR_LADDER, run_with_ladder
from repro.robust.chaos import step_bomb
from repro.robust.checkpoint import read_checkpoint
from repro.serve import FaultSimService, ServeConfig
from repro.serve.cache import serialize_result

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
IDENTITY_FILE = os.path.join(GOLDEN_DIR, "identity.json")
CAMPAIGNS_FILE = os.path.join(GOLDEN_DIR, "campaigns.json")

CIRCUITS = ("s27", "s298")
#: The workload of ``golden/results.json`` (and its ``.ans`` files).
NUM_VECTORS = 80
VECTOR_SEED = 16
CHECKPOINT_EVERY = 16
KILL_AFTER = 37

#: The cache-key spec list; every entry is submitted on each circuit.
BASE_SPEC = {"random_patterns": 24, "seed": 11}
KEY_SPECS: Dict[str, dict] = {
    "csim-MV": {},
    "PROOFS": {"engine": "PROOFS"},
    "vsim/w32": {"engine": "vsim", "word_width": 32},
    "serial": {"engine": "serial"},
    "transition": {"transition": True},
    "collapse": {"collapse": "equivalence"},
    "prune": {"prune_untestable": True},
    "collapse+prune": {"collapse": "equivalence", "prune_untestable": True},
    "dictionary/full": {"dictionary": "full"},
    "dictionary/passfail": {"dictionary": "passfail"},
    "max_cycles": {"max_cycles": 7},
}

#: CLI runs that leave checkpoints: (command, label, extra flags).
CLI_RUNS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("simulate", "plain", ()),
    ("simulate", "collapse", ("--collapse",)),
    ("simulate", "prune", ("--prune-untestable",)),
    ("simulate", "jobs=2", ("--jobs", "2")),
    ("transition", "plain", ()),
    ("transition", "collapse", ("--collapse",)),
    ("transition", "prune", ("--prune-untestable",)),
    ("transition", "jobs=2", ("--jobs", "2")),
    ("build-dictionary", "jobs=2", ("--jobs", "2")),
)
CLI_MAX_CYCLES = 9

#: Served jobs killed mid-run, whose checkpoints are pinned.
KILLED_SPECS: Dict[str, dict] = {
    "dictionary": {"dictionary": "full", "collapse": "equivalence"},
    "plain": {},
}

#: Served jobs whose result bytes are pinned.
SERVED_SPECS: Dict[str, dict] = {
    "plain": {},
    "collapse": {"collapse": "equivalence"},
    "prune": {"prune_untestable": True},
    "transition": {"transition": True},
    "dictionary": {"dictionary": "full", "collapse": "equivalence"},
    "PROOFS": {"engine": "PROOFS"},
    "vsim": {"engine": "vsim"},
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def workload(name: str):
    circuit = load(name)
    return circuit, random_sequence(circuit, NUM_VECTORS, seed=VECTOR_SEED)


def render_responses(circuit, responses) -> bytes:
    """One line per fault (``<fault> <cycle>:<output> ...``), in order."""
    lines = []
    for fault, failures in sorted(responses.items()):
        cells = [fault_name(circuit, fault)]
        cells.extend(f"{cycle}:{output}" for cycle, output in failures)
        lines.append(" ".join(cells))
    return ("\n".join(lines) + "\n").encode()


def _service(state_dir: str, **overrides) -> FaultSimService:
    overrides.setdefault("workers", 0)
    return FaultSimService(ServeConfig(state_dir=state_dir, **overrides))


# ----------------------------------------------------------------------
# identities
# ----------------------------------------------------------------------


def key_specs() -> List[Tuple[str, dict]]:
    specs = [
        (f"{name}/{label}", dict(BASE_SPEC, circuit=name, **extra))
        for name in CIRCUITS
        for label, extra in KEY_SPECS.items()
    ]
    specs.append(("inline/csim-MV", dict(BASE_SPEC, netlist=S27_BENCH)))
    return specs


def cache_keys(state_dir: str) -> Dict[str, str]:
    service = _service(state_dir)
    return {label: service.submit(spec)[0].cache_key for label, spec in key_specs()}


def cli_fingerprints(name: str, command: str, label: str, flags, tmp_dir: str):
    """Run one CLI campaign to its cycle budget; fingerprint every file."""
    base = os.path.join(tmp_dir, f"{command}-{name}-{label}.ckpt")
    argv = [command, name, "--random-patterns", "40", "--seed", "5"]
    if command == "build-dictionary":
        argv += ["-o", os.path.join(tmp_dir, f"{name}-{label}.dict")]
    argv += ["--checkpoint", base, "--max-cycles", str(CLI_MAX_CYCLES), *flags]
    code = main(argv)
    assert code == (130 if command == "build-dictionary" else 0), argv
    paths = sorted(glob.glob(base + "*"))
    assert paths, f"{argv} left no checkpoint"
    return {
        f"{command}/{name}/{label}/{path[len(base):] or '.'}": read_checkpoint(path).fingerprint
        for path in paths
    }


def killed_job_fingerprint(name: str, extra: dict, state_dir: str) -> str:
    """Kill a served job ten cycles in; fingerprint the checkpoint it left."""
    service = _service(state_dir, checkpoint_every=4)
    record, _ = service.submit(dict(BASE_SPEC, circuit=name, **extra))
    with step_bomb(ConcurrentFaultSimulator, after_steps=10):
        with pytest.raises(KeyboardInterrupt):
            service.process_once()
    (path,) = glob.glob(os.path.join(state_dir, "checkpoints", f"{record.job_id}*"))
    assert os.path.basename(path) == f"{record.job_id}.ckpt"
    return read_checkpoint(path).fingerprint


def collapse_fingerprints() -> Dict[str, str]:
    digests = {}
    for name in CIRCUITS:
        for transition in (False, True):
            material = collapse_universe(load(name), transition=transition)
            kind, mode, digest = material.fingerprint_material()
            assert (kind, mode) == ("collapse", "equivalence")
            digests[f"{name}/{'transition' if transition else 'stuck-at'}"] = digest
    return digests


def compute_identities(tmp_dir: str) -> dict:
    fingerprints: Dict[str, str] = {}
    for name in CIRCUITS:
        for command, label, flags in CLI_RUNS:
            fingerprints.update(cli_fingerprints(name, command, label, flags, tmp_dir))
        for label, extra in KILLED_SPECS.items():
            state = os.path.join(tmp_dir, f"killed-{name}-{label}")
            fingerprints[f"serve/{name}/{label}/killed"] = killed_job_fingerprint(
                name, extra, state
            )
    return {
        "cache_keys": cache_keys(os.path.join(tmp_dir, "keys")),
        "checkpoint_fingerprints": fingerprints,
        "collapse_fingerprints": collapse_fingerprints(),
    }


# ----------------------------------------------------------------------
# campaign results
# ----------------------------------------------------------------------


def collapsed_run(circuit, tests, engine: str):
    """Representatives of the full universe, expanded back (``--collapse``)."""
    collapsed = collapse_universe(circuit)
    result = run_stuck_at(circuit, tests, engine, list(collapsed.representatives))
    return collapsed.expand(result)


def served_blob(state_dir: str, spec: dict, **config) -> bytes:
    service = _service(state_dir, **config)
    record, _ = service.submit(spec)
    service.drain()
    finished = service.status(record.job_id)
    assert finished.state == "done", finished.error
    return service.result_bytes(record.job_id)


def killed_and_resumed_transition(circuit, tests, state_dir: str) -> bytes:
    """A served transition job dies mid-run; a restarted service resumes it."""
    spec = {"circuit": circuit.name, "vectors": format_vectors(tests), "transition": True}
    service = _service(state_dir, checkpoint_every=CHECKPOINT_EVERY)
    record, _ = service.submit(spec)
    with step_bomb(TransitionFaultSimulator, after_steps=KILL_AFTER):
        with pytest.raises(KeyboardInterrupt):
            service.process_once()
    restarted = _service(state_dir, checkpoint_every=CHECKPOINT_EVERY)
    assert restarted.recover() == 1
    restarted.drain()
    finished = restarted.status(record.job_id)
    assert finished.state == "done", finished.error
    assert finished.resumed_from_cycle == 32
    return restarted.result_bytes(record.job_id)


def transition_blob(circuit, tests, path: str, tmp_dir: str) -> bytes:
    state = os.path.join(tmp_dir, f"transition-{circuit.name}-{path}")
    if path == "plain":
        return serialize_result(run_transition(circuit, tests), circuit)
    if path == "jobs=2":
        return serialize_result(run_transition(circuit, tests, jobs=2), circuit)
    if path == "checkpoint":
        spec = {"circuit": circuit.name, "vectors": format_vectors(tests), "transition": True}
        return served_blob(state, spec, checkpoint_every=CHECKPOINT_EVERY)
    return killed_and_resumed_transition(circuit, tests, state)


TRANSITION_PATHS = ("plain", "checkpoint", "resume", "jobs=2")
LADDERS = {"default": DEFAULT_LADDER, "vector": VECTOR_LADDER}


def campaign_digest(name: str, entry: str, tmp_dir: str) -> str:
    """The digest of one ``campaigns.json`` entry, computed afresh."""
    circuit, tests = workload(name)
    kind, _, detail = entry.partition("/")
    if kind == "collapse":
        return sha256(serialize_result(collapsed_run(circuit, tests, detail), circuit))
    if kind == "build_responses":
        faults = stuck_at_universe(circuit) if detail == "equivalence" else None
        responses = build_responses(circuit, tests, faults, collapse="equivalence")
        return sha256(render_responses(circuit, responses))
    if kind == "transition":
        return sha256(transition_blob(circuit, tests, detail, tmp_dir))
    if kind == "ladder":
        result = run_with_ladder(circuit, tests, LADDERS[detail])
        assert not result.fallbacks
        return sha256(serialize_result(result, circuit))
    assert kind == "serve"
    spec = dict(SERVED_SPECS[detail], circuit=name, vectors=format_vectors(tests))
    return sha256(served_blob(os.path.join(tmp_dir, f"serve-{name}-{detail}"), spec))


def campaign_entries() -> List[str]:
    return (
        ["collapse/csim-MV", "collapse/PROOFS", "collapse/vsim"]
        + ["build_responses/equivalence", "build_responses/full-universe"]
        + [f"transition/{path}" for path in TRANSITION_PATHS]
        + [f"ladder/{label}" for label in LADDERS]
        + [f"serve/{label}" for label in SERVED_SPECS]
    )


# ----------------------------------------------------------------------
# the tests
# ----------------------------------------------------------------------


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def test_cache_keys_match_golden(tmp_path):
    assert cache_keys(str(tmp_path)) == _load(IDENTITY_FILE)["cache_keys"]


@pytest.mark.parametrize("name", CIRCUITS)
@pytest.mark.parametrize("command,label,flags", CLI_RUNS, ids=lambda v: str(v))
def test_cli_checkpoint_fingerprints_match_golden(name, command, label, flags, tmp_path):
    golden = _load(IDENTITY_FILE)["checkpoint_fingerprints"]
    prefix = f"{command}/{name}/{label}/"
    expected = {key: value for key, value in golden.items() if key.startswith(prefix)}
    assert cli_fingerprints(name, command, label, flags, str(tmp_path)) == expected


@pytest.mark.parametrize("name", CIRCUITS)
@pytest.mark.parametrize("label", sorted(KILLED_SPECS))
def test_killed_serve_job_fingerprint_matches_golden(name, label, tmp_path):
    golden = _load(IDENTITY_FILE)["checkpoint_fingerprints"]
    fingerprint = killed_job_fingerprint(name, KILLED_SPECS[label], str(tmp_path))
    assert fingerprint == golden[f"serve/{name}/{label}/killed"]


def test_collapse_fingerprints_match_golden():
    assert collapse_fingerprints() == _load(IDENTITY_FILE)["collapse_fingerprints"]


@pytest.mark.parametrize("name", CIRCUITS)
@pytest.mark.parametrize("entry", campaign_entries())
def test_campaign_result_matches_golden(name, entry, tmp_path):
    digest = campaign_digest(name, entry, str(tmp_path))
    assert digest == _load(CAMPAIGNS_FILE)[f"{name}/{entry}"]


@pytest.mark.parametrize("name", CIRCUITS)
def test_collapsed_dictionary_build_matches_answer_file(name):
    """A collapsed build over the golden universe reproduces the ``.ans``."""
    circuit, tests = workload(name)
    responses = build_responses(
        circuit, tests, stuck_at_universe(circuit), collapse="equivalence"
    )
    with open(os.path.join(GOLDEN_DIR, f"{name}.responses.ans"), "rb") as handle:
        assert render_responses(circuit, responses) == handle.read()


@pytest.mark.parametrize("name", CIRCUITS)
def test_transition_paths_agree(name):
    """Every transition path pins one digest (and ladders their engine's)."""
    golden = _load(CAMPAIGNS_FILE)
    assert len({golden[f"{name}/transition/{path}"] for path in TRANSITION_PATHS}) == 1


def write_goldens(tmp_dir: str) -> None:
    """Compute both golden files from the current code and write them."""
    identity = compute_identities(tmp_dir)
    results = {
        f"{name}/{entry}": campaign_digest(name, entry, tmp_dir)
        for name in CIRCUITS
        for entry in campaign_entries()
    }
    for path, document in ((IDENTITY_FILE, identity), (CAMPAIGNS_FILE, results)):
        with open(path, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp_dir:
        write_goldens(tmp_dir)
