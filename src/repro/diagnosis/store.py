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

import gc
import hashlib
import json
from contextlib import contextmanager
from itertools import chain, islice
from operator import itemgetter, lt
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.diagnosis.dictionary import (
    DICTIONARY_KINDS,
    FaultDictionary,
    fold_ordered,
)
from repro.diagnosis.locate import DiagnosisResult
from repro.faults.model import OUTPUT_PIN, Fault, FaultKind, StuckAtFault, fault_name
from repro.logic.values import value_to_char
from repro.patterns.vectors import TestSequence
from repro.result import Failure
from repro.robust.checkpoint import circuit_fingerprint

#: Artifact schema identifier (bump on any encoding change).
SCHEMA = "repro-dict/1"


#: The fault kinds a dictionary holds, by the names artifacts store.
_STUCK_AT_KINDS = {
    kind.value: kind for kind in (FaultKind.STUCK_AT_0, FaultKind.STUCK_AT_1)
}

#: Manifest fields and the JSON types their values must have.
_MANIFEST_FIELDS: Dict[str, tuple] = {
    "circuit": (str,),
    "kind": (str,),
    "collapse": (str, type(None)),
    "num_vectors": (int,),
    "num_faults": (int,),
    "num_detected": (int,),
}


def _canonical(document: object) -> bytes:
    # Documents are built here from fresh lists and tuples, never cyclic.
    return (
        json.dumps(
            document, sort_keys=True, separators=(",", ":"), check_circular=False
        )
        + "\n"
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
    ordered = sorted(responses.items(), key=itemgetter(0))
    # Tuples encode as JSON arrays, so the response tuples go in as they are.
    failing = [failures for _, failures in ordered]
    document = {
        "schema": SCHEMA,
        "manifest": {
            "circuit": circuit_name,
            "kind": kind,
            "collapse": collapse,
            "num_vectors": num_vectors,
            "num_faults": len(ordered),
            "num_detected": sum(map(bool, failing)),
        },
        "faults": [fault._sort_key() for fault, _ in ordered],
        "responses": failing,
    }
    return _canonical(document)


def read_manifest(blob: bytes) -> dict:
    """The artifact's manifest, without building a dictionary.

    The whole artifact is checked as :func:`decode_dictionary` checks it,
    so a malformed one raises :class:`DictionaryDecodeError` here too.
    """
    manifest, _faults, _responses = _decode(blob)
    return manifest


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, then restore its state.

    A decode builds one large acyclic structure (about 100k lists and as
    many tuples for the s1196 dictionary of the ``diagnose-vsim``
    benchmark).  Collector passes over it free nothing, and they took 40 %
    of that decode.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _decode(blob: bytes) -> Tuple[dict, List[Fault], List[Tuple[Failure, ...]]]:
    """Parse and check an artifact: its manifest, faults and responses.

    The one parse behind every reader.  Anything :func:`encode_dictionary`
    could not have written raises :class:`DictionaryDecodeError`: bad JSON,
    another schema, a missing or mistyped manifest field, a fault that is
    not a ``[gate, pin, stuck-at kind]`` triple of ints and a name, faults
    out of order or repeated, a response that is not a list of
    ``[cycle, output_position]`` int pairs with the cycle in
    ``1..num_vectors``, or counts that disagree with the manifest.
    """
    with _collector_paused():
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
        manifest = _checked_manifest(document["manifest"])
        faults = _checked_faults(document["faults"])
        responses = _checked_responses(
            document["responses"], manifest["num_vectors"]
        )
    if not len(faults) == len(responses) == manifest["num_faults"]:
        raise DictionaryDecodeError(
            "artifact corrupt: fault and response counts differ"
        )
    if sum(map(bool, responses)) != manifest["num_detected"]:
        raise DictionaryDecodeError(
            "artifact corrupt: num_detected disagrees with the responses"
        )
    return manifest, faults, responses


def _checked_manifest(manifest: object) -> dict:
    if not isinstance(manifest, dict):
        raise DictionaryDecodeError("artifact corrupt: manifest is not an object")
    for field, types in _MANIFEST_FIELDS.items():
        if field not in manifest:
            raise DictionaryDecodeError(f"artifact manifest missing {field!r}")
        value = manifest[field]
        if isinstance(value, bool) or not isinstance(value, types):
            raise DictionaryDecodeError(
                f"artifact corrupt: manifest {field!r} is {value!r}"
            )
    if manifest["kind"] not in DICTIONARY_KINDS:
        raise DictionaryDecodeError(
            f"artifact corrupt: unknown dictionary kind {manifest['kind']!r}"
        )
    if manifest["num_vectors"] < 0:
        raise DictionaryDecodeError("artifact corrupt: negative num_vectors")
    return manifest


def _checked_faults(triples: object) -> List[Fault]:
    """The artifact's faults, in its (checked) order."""
    if not isinstance(triples, list):
        raise DictionaryDecodeError("artifact corrupt: faults is not a list")
    malformed = DictionaryDecodeError(
        "artifact corrupt: each fault must be a [gate, pin, kind] triple "
        "of a gate index, a pin and a stuck-at kind name"
    )
    kinds = _STUCK_AT_KINDS
    try:
        # Triples of another shape or kind raise; mistyped ones are left out
        # and caught by the count below (``int()`` would accept "1" or 1.5).
        faults: List[Fault] = [
            StuckAtFault(gate, pin, kinds[name])
            for gate, pin, name in triples
            if type(gate) is int
            and type(pin) is int
            and gate >= 0
            and pin >= OUTPUT_PIN
        ]
    except (TypeError, ValueError, KeyError):
        raise malformed from None
    if len(faults) != len(triples):
        raise malformed
    if not all(map(lt, faults, islice(faults, 1, None))):
        raise DictionaryDecodeError(
            "artifact corrupt: faults out of order or repeated"
        )
    return faults


def _checked_responses(
    entries: object, num_vectors: int
) -> List[Tuple[Failure, ...]]:
    """The artifact's response tuples, built straight from the parsed lists."""
    if not isinstance(entries, list):
        raise DictionaryDecodeError("artifact corrupt: responses is not a list")
    malformed = DictionaryDecodeError(
        "artifact corrupt: each response must be a list of "
        f"[cycle, output_position] int pairs with cycles in 1..{num_vectors}"
    )
    try:
        responses: List[Tuple[Failure, ...]] = [
            tuple(map(tuple, entry)) for entry in entries
        ]
    except TypeError:
        raise malformed from None
    # Whole-list checks in C, so a check costs no Python step per failure.
    pairs = list(chain.from_iterable(responses))
    if pairs and not (
        set(map(len, pairs)) == {2}
        and set(map(type, chain.from_iterable(pairs))) == {int}
        and min(map(itemgetter(0), pairs)) >= 1
        and max(map(itemgetter(0), pairs)) <= num_vectors
        and min(map(itemgetter(1), pairs)) >= 0
    ):
        raise malformed
    return responses


def decode_responses(blob: bytes) -> Dict[Fault, Tuple[Failure, ...]]:
    """The artifact's raw per-fault response map (full resolution)."""
    _manifest, faults, responses = _decode(blob)
    return dict(zip(faults, responses))


def decode_dictionary(blob: bytes, kind: Optional[str] = None) -> FaultDictionary:
    """Rebuild a :class:`FaultDictionary` from artifact bytes.

    ``kind`` overrides the manifest's format tag — responses are stored
    at full resolution, so one artifact can serve either format.  The
    blob is parsed once, and its checked faults are in fault order, so
    they go straight into the same
    :func:`~repro.diagnosis.dictionary.fold_ordered` fold as a fresh build
    (:func:`~repro.diagnosis.dictionary.assemble_dictionary`) without a
    second sort: decoded and built dictionaries agree bit-for-bit.
    """
    manifest, faults, responses = _decode(blob)
    return fold_ordered(
        manifest["circuit"],
        manifest["num_vectors"],
        zip(faults, responses),
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

    from repro.robust.checkpoint import write_atomic

    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    write_atomic(path, blob)


def read_dictionary(path: str) -> bytes:
    with open(path, "rb") as stream:
        return stream.read()
