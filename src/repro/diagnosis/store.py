"""Portable on-disk fault-dictionary artifacts (schema ``repro-dict/1``).

A dictionary artifact is one canonical-JSON blob: a small manifest, the
sorted fault universe as ``[gate, pin, kind]`` triples, and one response
list per fault in the same order.  Canonical encoding (sorted keys, no
whitespace) makes the bytes a pure function of the dictionary content —
two builds that agree produce identical artifacts, so artifacts can live
in the serve result cache under a content address and be compared with
``==``.  Responses are always stored at full (cycle, output) resolution;
the ``kind`` tag says how to fold them on decode, so a pass/fail
dictionary's artifact still carries everything a full-response rebuild
needs.

The content address (:func:`dictionary_fingerprint`) hashes the inputs
that determine the dictionary — netlist, vectors, fault universe, the
collapse map, and the format — not the output bytes, so a cached artifact
can be *looked up* before anyone pays for the build.

:func:`serialize_rankings` is the one serializer for diagnosis rankings;
the CLI and the ``/diagnose`` service both emit its bytes, which is what
makes their outputs byte-identical for the same query.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.diagnosis.dictionary import (
    DICTIONARY_KINDS,
    FaultDictionary,
    assemble_dictionary,
)
from repro.diagnosis.locate import DiagnosisResult
from repro.faults.model import Fault, FaultKind, StuckAtFault, fault_name
from repro.logic.values import value_to_char
from repro.patterns.vectors import TestSequence
from repro.result import Failure
from repro.robust.checkpoint import circuit_fingerprint

#: Artifact schema identifier (bump on any encoding change).
SCHEMA = "repro-dict/1"


def _canonical(document: object) -> bytes:
    return (
        json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("ascii")


class DictionaryDecodeError(ValueError):
    """The artifact bytes are not a valid ``repro-dict/1`` dictionary."""


def dictionary_fingerprint(
    circuit: Circuit,
    vectors: Sequence[Sequence[int]],
    universe: Sequence[Fault],
    kind: str = "full",
    collapse_material: Optional[tuple] = None,
) -> str:
    """Content address of the dictionary these inputs determine.

    sha256 over the netlist fingerprint, the vectors, the sorted fault
    universe, the dictionary format, and the collapse map's own
    fingerprint material (``None`` for an uncollapsed build).  Collapsed
    and uncollapsed builds hash differently even though their dictionaries
    are bit-identical — the address names the *computation*, and a stale
    collapse map must never satisfy a fresh request.
    """
    material = {
        "circuit": circuit_fingerprint(circuit),
        "vectors": [
            "".join(value_to_char(value) for value in vector) for vector in vectors
        ],
        "faults": [list(fault._sort_key()) for fault in sorted(universe)],
        "kind": kind,
        "collapse": list(collapse_material) if collapse_material else None,
    }
    return hashlib.sha256(_canonical(material)).hexdigest()


def encode_dictionary(
    circuit_name: str,
    num_vectors: int,
    responses: Dict[Fault, Tuple[Failure, ...]],
    kind: str = "full",
    collapse: Optional[str] = None,
) -> bytes:
    """Encode a per-fault response map as a ``repro-dict/1`` artifact."""
    if kind not in DICTIONARY_KINDS:
        raise ValueError(f"unknown dictionary kind {kind!r}")
    ordered = sorted(responses.items())
    faults = [[fault.gate, fault.pin, fault.kind.value] for fault, _ in ordered]
    failing = [
        [[cycle, position] for cycle, position in failures] for _, failures in ordered
    ]
    document = {
        "schema": SCHEMA,
        "manifest": {
            "circuit": circuit_name,
            "kind": kind,
            "collapse": collapse,
            "num_vectors": num_vectors,
            "num_faults": len(ordered),
            "num_detected": sum(1 for _, failures in ordered if failures),
        },
        "faults": faults,
        "responses": failing,
    }
    return _canonical(document)


def read_manifest(blob: bytes) -> dict:
    """The artifact's manifest (schema-checked), without building anything."""
    document = _parse(blob)
    return dict(document["manifest"])


def _parse(blob: bytes) -> dict:
    try:
        document = json.loads(blob)
    except (ValueError, UnicodeDecodeError) as exc:
        raise DictionaryDecodeError(f"not a JSON artifact: {exc}") from None
    if not isinstance(document, dict) or document.get("schema") != SCHEMA:
        raise DictionaryDecodeError(
            f"expected a {SCHEMA!r} artifact, got schema "
            f"{document.get('schema') if isinstance(document, dict) else None!r}"
        )
    for field in ("manifest", "faults", "responses"):
        if field not in document:
            raise DictionaryDecodeError(f"artifact missing {field!r}")
    if len(document["faults"]) != len(document["responses"]):
        raise DictionaryDecodeError(
            "artifact corrupt: fault and response counts differ"
        )
    return document


def decode_responses(blob: bytes) -> Dict[Fault, Tuple[Failure, ...]]:
    """The artifact's raw per-fault response map (full resolution)."""
    document = _parse(blob)
    responses: Dict[Fault, Tuple[Failure, ...]] = {}
    for triple, failures in zip(document["faults"], document["responses"]):
        gate, pin, kind_value = triple
        fault = StuckAtFault(int(gate), int(pin), FaultKind(kind_value))
        responses[fault] = tuple(
            (int(cycle), int(position)) for cycle, position in failures
        )
    return responses


def decode_dictionary(blob: bytes, kind: Optional[str] = None) -> FaultDictionary:
    """Rebuild a :class:`FaultDictionary` from artifact bytes.

    ``kind`` overrides the manifest's format tag — responses are stored
    at full resolution, so one artifact can serve either format.  Decoding
    goes through the same :func:`~repro.diagnosis.dictionary.assemble_dictionary`
    path as a fresh build, so decoded and built dictionaries agree
    bit-for-bit.
    """
    document = _parse(blob)
    manifest = document["manifest"]
    return assemble_dictionary(
        manifest["circuit"],
        int(manifest["num_vectors"]),
        decode_responses(blob),
        kind if kind is not None else manifest["kind"],
    )


def serialize_rankings(
    circuit: Circuit,
    dictionary: FaultDictionary,
    result: DiagnosisResult,
) -> bytes:
    """Canonical bytes for a diagnosis ranking (CLI and service alike).

    Scores are rounded to six decimals so the bytes depend only on the
    ranking, never on float formatting drift between code paths.
    """
    document = {
        "schema": "repro-diagnosis/1",
        "circuit": dictionary.circuit_name,
        "kind": dictionary.kind,
        "num_vectors": dictionary.num_vectors,
        "observed": [list(item) if isinstance(item, tuple) else item
                     for item in sorted(result.observed)],
        "summary": result.summary(circuit),
        "candidates": [
            {
                "fault": fault_name(circuit, candidate.fault),
                "site": [
                    candidate.fault.gate,
                    candidate.fault.pin,
                    candidate.fault.kind.value,
                ],
                "score": round(candidate.score, 6),
                "exact": candidate.exact,
                "matched": candidate.matched,
                "missed": candidate.missed,
                "extra": candidate.extra,
            }
            for candidate in result.candidates
        ],
    }
    return _canonical(document)


def parse_observed(kind: str, failures: Sequence) -> List:
    """Validate one query's observed failures for a *kind* dictionary.

    Full-response dictionaries take ``[cycle, output_position]`` pairs
    (1-based cycle, 0-based position); pass/fail ones take failing cycle
    numbers.  Raises ``ValueError`` with a client-worthy message —
    ``/diagnose`` maps it to HTTP 400.
    """
    if kind not in DICTIONARY_KINDS:
        raise ValueError(f"unknown dictionary kind {kind!r}")
    observed: List = []
    for item in failures:
        if kind == "full":
            if (
                not isinstance(item, (list, tuple))
                or len(item) != 2
                or isinstance(item[0], bool)
                or isinstance(item[1], bool)
                or not isinstance(item[0], int)
                or not isinstance(item[1], int)
            ):
                raise ValueError(
                    "each failure must be a [cycle, output_position] pair "
                    f"of integers, got {item!r}"
                )
            observed.append((item[0], item[1]))
        else:
            if isinstance(item, bool) or not isinstance(item, int):
                raise ValueError(
                    f"each failure must be a failing cycle number, got {item!r}"
                )
            observed.append(item)
    return observed


def diagnosis_report(
    circuit: Circuit,
    tests: TestSequence,
    dictionary: FaultDictionary,
    observed: Sequence,
    top: int = 10,
    explain: bool = False,
) -> bytes:
    """Rank *observed* against *dictionary* and serialize canonically.

    The one diagnosis code path: ``repro diagnose`` prints these bytes
    and ``POST /diagnose`` returns them verbatim, so the two answers to
    the same query are byte-identical.  With ``explain``, the top
    candidate's divergence chain (:mod:`repro.diagnosis.explain`) joins
    the document under ``"explain"`` — re-serialized canonically, so
    byte-identity holds for explained queries too.
    """
    from repro.diagnosis.locate import diagnose

    result = diagnose(dictionary, observed, top=top)
    body = serialize_rankings(circuit, dictionary, result)
    if explain and result.candidates:
        from repro.diagnosis.explain import explain_fault

        document = json.loads(body)
        document["explain"] = explain_fault(
            circuit, tests, result.best.fault
        ).to_payload()
        body = _canonical(document)
    return body


def write_dictionary(path: str, blob: bytes) -> None:
    """Write an artifact atomically (the cache-directory convention)."""
    import os
    import tempfile

    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    handle, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(blob)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def read_dictionary(path: str) -> bytes:
    with open(path, "rb") as stream:
        return stream.read()
