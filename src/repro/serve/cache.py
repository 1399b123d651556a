"""The content-addressed result cache and canonical result serialization.

A cache key is the SHA-256 of a canonical JSON document covering
everything that determines a simulation's outcome: the netlist (inline
text verbatim, or name + scale + structural fingerprint for library
circuits), the test vectors *in application order* (sequential circuits
make order semantic), the resolved fault universe, and the engine
options.  Anything that cannot change the outcome — worker sharding
(``jobs``), priorities, idempotency keys — is
deliberately excluded, so a duplicate submission hits the cache no matter
how it asks to be scheduled.

Results are serialized by :func:`serialize_result` into canonical JSON
(sorted keys, no whitespace, no wall-clock or host-dependent fields), so
two bit-identical outcomes produce byte-identical documents and a cache
hit returns exactly the bytes the first run stored.

Entries live as ``<key>.json`` files under the service state directory,
written atomically (temp file + ``os.replace``) so a killed worker never
leaves a torn cache entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Iterable, List, Optional

from repro.circuit.netlist import Circuit
from repro.faults.model import Fault, fault_name
from repro.logic.values import value_to_char
from repro.patterns.vectors import TestSequence
from repro.result import FaultSimResult
from repro.robust.checkpoint import circuit_fingerprint
from repro.serve.spec import JobSpec


def _canonical(document: object) -> bytes:
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode()


def cache_key(
    spec: JobSpec,
    circuit: Circuit,
    tests: TestSequence,
    faults: Iterable[Fault],
) -> str:
    """The content address of one resolved job's result."""
    if spec.netlist is not None:
        netlist: object = ["inline", spec.netlist]
    else:
        netlist = ["named", spec.circuit, spec.scale, circuit_fingerprint(circuit)]
    material = {
        "netlist": netlist,
        "vectors": [
            "".join(value_to_char(value) for value in vector) for vector in tests
        ],
        "faults": sorted(
            f"{fault.gate}:{fault.pin}:{fault.kind.value}" for fault in faults
        ),
        # ``collapse`` joins the key even though an expanded result matches
        # a full-universe run: the *faults* field above holds the resolved
        # list (representatives under collapse), so without the option a
        # collapsed and an uncollapsed submission over coincidentally equal
        # lists could alias.  ``word_width`` is deliberately absent: it
        # can never change detections.
        "options": {
            "engine": spec.engine_label(),
            "transition": spec.transition,
            "prune_untestable": spec.prune_untestable,
            "collapse": spec.collapse,
            "max_cycles": spec.max_cycles,
        },
    }
    if spec.dictionary is not None:
        # A dictionary job's blob is a repro-dict/1 artifact, not a
        # detection document; the key joins only when set so plain
        # simulation keys are unchanged.
        material["options"]["dictionary"] = spec.dictionary
    return hashlib.sha256(_canonical(material)).hexdigest()


def serialize_result(result: FaultSimResult, circuit: Circuit) -> bytes:
    """Canonical JSON for one result: deterministic fields only.

    Wall time, memory-model figures and work counters are excluded — they
    vary with the host and with ``jobs`` sharding while the *outcome*
    (detections and their cycles) is guaranteed bit-identical.  Sorting is
    by fault site, the same deterministic order the engines use.
    """

    def detections(mapping: dict) -> List[dict]:
        return [
            {"fault": fault_name(circuit, fault), "cycle": cycle}
            for fault, cycle in sorted(mapping.items())
        ]

    document = {
        "engine": result.engine,
        "circuit": result.circuit_name,
        "num_faults": result.num_faults,
        "num_vectors": result.num_vectors,
        "num_detected": result.num_detected,
        "coverage": result.coverage,
        "detected": detections(result.detected),
        "potentially_detected": detections(result.potentially_detected),
        "truncated": result.truncated,
        "truncation_reason": result.truncation_reason,
    }
    return _canonical(document)


class ResultCache:
    """A directory of atomically written, content-addressed result blobs."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str) -> Optional[bytes]:
        try:
            with open(self._path(key), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def put(self, key: str, blob: bytes) -> None:
        fd, tmp_path = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))
