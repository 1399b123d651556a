"""Reference outputs: canonical digests, second-engine recomputation, and
the references committed for the default seed.

Every workload's outputs are checked against digests computed by a
*second* engine: PROOFS for csim-MV campaigns (and csim-MV for PROOFS
ones), csim-MV for the vsim-built dictionary, PROOFS for the service's
csim-MV dictionary, and csim-T (no list splitting) for csim-TV transition
jobs.  ``--oracle`` additionally confirms the committed service and s820
references against the serial oracle.
References for the default seed and size are committed in
``references.json``; for any other seed or size they are recomputed after
the timed operations, outside timing, and cached in the checkout (see
``run.py``) so the runs that share a seed (``coverage-csim`` and
``coverage-sharded``) compute them once.

Regenerate the committed file with::

    python3 e2ebench/refs.py            # second engines only
    python3 e2ebench/refs.py --oracle   # also confirm against the serial oracle
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, Iterable, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
COMMITTED = os.path.join(HERE, "references.json")


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def response_digest(entries: Iterable[Tuple[Sequence, Sequence[Sequence[int]]]]) -> str:
    """Digest of a response map given as ``(gate, pin, kind)`` -> failures.

    The canonical form sorts by site and keeps each fault's failures in
    cycle order, so a map decoded from an artifact and one built in memory
    digest alike.
    """
    rows = sorted(
        [int(site[0]), int(site[1]), str(site[2]), [[int(c), int(p)] for c, p in failures]]
        for site, failures in entries
    )
    return sha256(json.dumps(rows, separators=(",", ":")).encode())


def responses_digest(responses) -> str:
    """:func:`response_digest` of an in-memory ``Fault -> failures`` map."""
    return response_digest(
        ((fault.gate, fault.pin, fault.kind.value), failures)
        for fault, failures in responses.items()
    )


def artifact_responses(blob: bytes) -> Dict[Tuple[int, int, str], Tuple[Tuple[int, int], ...]]:
    """The response map of a ``repro-dict/1`` artifact, parsed client-side."""
    document = json.loads(blob)
    return {
        (int(g), int(p), str(k)): tuple((int(c), int(o)) for c, o in failures)
        for (g, p, k), failures in zip(document["faults"], document["responses"])
    }


def campaign_digest(result, circuit, engine_label: Optional[str] = None) -> str:
    """Digest of ``serialize_result`` bytes, optionally under another engine label.

    A reference engine reports its own name; relabelling it to the engine
    under test makes the two byte streams comparable.
    """
    from repro.serve.cache import serialize_result

    if engine_label is not None:
        result.engine = engine_label
    return sha256(serialize_result(result, circuit))


def reference_key(family: str, seed: int, seconds: int) -> str:
    return f"{family}-seed{seed}-x{seconds}"


def committed() -> dict:
    try:
        with open(COMMITTED) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def lookup(state_root: str, key: str) -> Optional[dict]:
    """Committed references, else ones cached in this checkout, else None."""
    entry = committed().get("references", {}).get(key)
    if entry is not None:
        return entry
    try:
        with open(os.path.join(state_root, "refs", f"{key}.json")) as handle:
            return json.load(handle)
    except (FileNotFoundError, ValueError):
        return None


def remember(state_root: str, key: str, value: dict) -> None:
    directory = os.path.join(state_root, "refs")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{key}.json")
    temp = f"{path}.{os.getpid()}.tmp"
    with open(temp, "w") as handle:
        json.dump(value, handle, sort_keys=True)
    os.replace(temp, path)


# -- second-engine recomputation ----------------------------------------------

#: Processes that recompute references (outside timing, after the
#: measured operations and the peak-RSS reading).
REFERENCE_WORKERS = 2


def _pool_map(function, items: list) -> list:
    """``map`` over a small process pool; results in item order.

    Forked, not spawned: the benchmark process runs no threads, and a spawn
    pool starts multiprocessing's resource-tracker process, which outlives
    the benchmark by a moment instead of being waited for.
    """
    import multiprocessing

    if len(items) < 2:
        return [function(item) for item in items]
    context = multiprocessing.get_context("fork")
    with context.Pool(processes=min(REFERENCE_WORKERS, len(items))) as pool:
        return pool.map(function, items, chunksize=1)


def _coverage_one(task: Tuple[dict, str]) -> str:
    from repro.circuit.library import load
    from repro.faults.universe import stuck_at_universe
    from repro.harness.runner import run_stuck_at
    from workloads import base_and_tail

    campaign, engine_label = task
    circuit = load(campaign["circuit"], scale=campaign["scale"])
    tests = base_and_tail(circuit, campaign)
    result = run_stuck_at(circuit, tests, "PROOFS", faults=stuck_at_universe(circuit))
    return campaign_digest(result, circuit, engine_label)


def coverage_references(plan: dict) -> Dict[str, str]:
    """PROOFS digests of every campaign, labelled as the csim-MV engine."""
    # Largest circuits first, so the pool's two workers finish together.
    campaigns = sorted(plan["campaigns"], key=lambda c: c["circuit"] == "s820")
    digests = _pool_map(_coverage_one, [(c, plan["engine"]) for c in campaigns])
    return {c["circuit"]: digest for c, digest in zip(campaigns, digests)}


def diagnose_references(plan: dict) -> Dict[str, str]:
    """The dictionary's response-map digest, built by csim-MV."""
    from repro.circuit.library import load
    from repro.diagnosis.dictionary import build_responses
    from workloads import base_and_tail

    circuit = load(plan["circuit"], scale=plan["scale"])
    tests = base_and_tail(circuit, plan)
    responses = build_responses(circuit, tests, engine="csim-MV", collapse="equivalence")
    return {"dictionary": responses_digest(responses)}


def _service_inputs(spec: dict):
    """Circuit, tests and the full (uncollapsed) universe a spec targets.

    Written from the spec's documented meaning, not from the service's
    resolver: a collapsed job must serialize exactly like a run over the
    full pin-level universe.
    """
    from repro.analyze.untestable import prune_untestable
    from repro.circuit.library import load
    from repro.faults.transition import all_transition_faults
    from repro.faults.universe import all_stuck_at_faults, stuck_at_universe
    from repro.patterns.random_gen import random_sequence

    circuit = load(spec["circuit"], scale=spec["scale"])
    tests = random_sequence(circuit, spec["random_patterns"], seed=spec["seed"])
    if spec.get("transition"):
        universe = list(all_transition_faults(circuit))
    elif spec.get("collapse"):
        universe = list(all_stuck_at_faults(circuit))
    else:
        universe = list(stuck_at_universe(circuit))
    if spec.get("prune_untestable"):
        universe = list(prune_untestable(circuit, universe).kept)
    return circuit, tests, universe


def service_job_reference(spec: dict, oracle: bool = False) -> str:
    """Expected result digest of one service job, from a second engine.

    csim-MV and vsim jobs are checked against PROOFS, PROOFS jobs against
    csim-MV, transition jobs (csim-TV) against csim-T, the transition
    engine without list splitting.  With *oracle* every job is checked
    against the serial oracle instead, which takes minutes.
    """
    from repro.baselines.serial import simulate_serial, simulate_serial_transition
    from repro.harness.runner import run_stuck_at, run_transition

    circuit, tests, universe = _service_inputs(spec)
    if spec.get("transition"):
        if oracle:
            result = simulate_serial_transition(circuit, tests.vectors, universe)
        else:
            result = run_transition(circuit, tests, split_lists=False, faults=universe)
        return campaign_digest(result, circuit, "csim-TV")
    engine = spec.get("engine", "csim-MV")
    if oracle:
        result = simulate_serial(circuit, tests.vectors, universe)
    else:
        second = "csim-MV" if engine == "PROOFS" else "PROOFS"
        result = run_stuck_at(circuit, tests, second, faults=universe)
    return campaign_digest(result, circuit, engine)


def service_dictionary_reference(spec: dict, engine: str = "PROOFS") -> str:
    from repro.diagnosis.dictionary import build_responses

    circuit, tests, _ = _service_inputs(spec)
    responses = build_responses(circuit, tests, engine=engine, collapse="equivalence")
    return responses_digest(responses)


def _service_one(task: Tuple[str, str, bool]) -> str:
    kind, key, oracle = task
    if kind == "dictionary":
        return service_dictionary_reference(json.loads(key), "serial" if oracle else "PROOFS")
    return service_job_reference(json.loads(key), oracle=oracle)


def service_references(plan: dict, oracle: bool = False) -> Dict[str, str]:
    """Digest per distinct requested spec, plus the dictionary's."""
    keys = sorted(requested_specs(plan))
    tasks = [("job", key, oracle) for key in keys]
    tasks.append(("dictionary", spec_key(plan["dictionary"]), oracle))
    digests = _pool_map(_service_one, tasks)
    return dict(zip(keys + ["dictionary"], digests))


def requested_specs(plan: dict) -> set:
    """Canonical keys of every spec the plan's bursts submit."""
    keys = set()
    for burst in plan["bursts"]:
        specs = plan["matrix"][burst["circuit"]]
        for index in burst["requests"]:
            keys.add(spec_key(specs[index]))
    return keys


def spec_key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


COMPUTE = {
    "coverage": coverage_references,
    "diagnose": diagnose_references,
    "service": service_references,
}


def _regenerate(argv: Sequence[str]) -> int:
    """Write ``references.json`` for the default seed and size."""
    import argparse
    import time

    parser = argparse.ArgumentParser(description=_regenerate.__doc__)
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="also confirm service jobs and the s820 campaign against the serial oracle",
    )
    args = parser.parse_args(argv)
    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    seed, seconds = workloads.DEFAULT_SEED, workloads.NOMINAL_SECONDS
    document = {
        "seed": seed,
        "seconds": seconds,
        "second_engines": {
            "coverage": "PROOFS",
            "diagnose": "csim-MV",
            "service": "PROOFS for csim-MV/vsim jobs, csim-MV for PROOFS jobs, "
            "csim-T for transition jobs, PROOFS for the dictionary",
        },
        "references": {},
        "oracle_confirmed": [],
    }
    for family, compute in COMPUTE.items():
        plan = workloads.PLANS[family](seed, seconds)
        started = time.perf_counter()
        document["references"][reference_key(family, seed, seconds)] = compute(plan)
        print(f"{family}: {time.perf_counter() - started:.1f} s", file=sys.stderr)
    if args.oracle:
        document["oracle_confirmed"] = _oracle_confirm(workloads, document, seed, seconds)
    with open(COMMITTED, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def _oracle_confirm(workloads, document: dict, seed: int, seconds: int) -> list:
    """Re-derive the cheap references with the serial oracle; raise on mismatch."""
    from repro.baselines.serial import simulate_serial
    from repro.circuit.library import load
    from repro.faults.universe import stuck_at_universe

    confirmed = []
    service = document["references"][reference_key("service", seed, seconds)]
    if service_references(workloads.PLANS["service"](seed, seconds), oracle=True) != service:
        raise SystemExit("serial oracle disagrees with the service references")
    confirmed.append("service: every job and the dictionary")
    coverage = workloads.PLANS["coverage"](seed, seconds)
    campaign = coverage["campaigns"][0]
    circuit = load(campaign["circuit"], scale=campaign["scale"])
    tests = workloads.base_and_tail(circuit, campaign)
    result = simulate_serial(circuit, tests.vectors, stuck_at_universe(circuit))
    digest = campaign_digest(result, circuit, coverage["engine"])
    if digest != document["references"][reference_key("coverage", seed, seconds)][campaign["circuit"]]:
        raise SystemExit(f"serial oracle disagrees on {campaign['circuit']}")
    confirmed.append(f"coverage: {campaign['circuit']}")
    return confirmed


if __name__ == "__main__":
    sys.exit(_regenerate(sys.argv[1:]))
