"""Diagnosis subsystem tests: sharded builds, artifacts, ``/diagnose``.

Covers the production promises of :mod:`repro.diagnosis`:

* ranking semantics of :func:`repro.diagnosis.locate.diagnose`;
* dictionary invariance — same signatures whatever the engine, the
  ``--jobs`` shard count, or collapsed-vs-full construction (seeded and
  hypothesis-driven);
* ``repro-dict/1`` artifact round-trips and content addressing;
* mid-build interruption: a budget-truncated build raises instead of
  returning a partial dictionary, and the resumed build is bit-identical
  to an uninterrupted one;
* the serve layer: lazy dictionary builds through the job queue,
  ``/diagnose`` over HTTP, and CLI/service byte-identity;
* causal explanations' divergence chains.
"""

import json
import os
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuit.generate import random_circuit
from repro.circuit.library import load
from repro.diagnosis import (
    DictionaryBuildTruncated,
    build_dictionary,
    build_responses,
    diagnose,
    explain_fault,
)
from repro.diagnosis.dictionary import FullResponseDictionary, PassFailDictionary
from repro.diagnosis.locate import Candidate, DiagnosisResult
from repro.diagnosis.store import (
    DictionaryDecodeError,
    decode_dictionary,
    decode_responses,
    diagnosis_report,
    dictionary_fingerprint,
    encode_dictionary,
    parse_observed,
    read_dictionary,
    read_manifest,
    write_dictionary,
)
from repro.faults.model import StuckAtFault
from repro.faults.universe import all_stuck_at_faults
from repro.patterns.random_gen import random_sequence
from repro.robust.budget import Budget
from repro.serve import FaultSimService, ServeConfig, SpecError
from tests.test_golden import CIRCUITS as GOLDEN_CIRCUITS
from tests.test_golden import NUM_VECTORS, _read, answer_path, parse_responses


@pytest.fixture(scope="module")
def s27():
    circuit = load("s27")
    tests = random_sequence(circuit, 40, seed=3)
    return circuit, tests


@pytest.fixture(scope="module")
def s27_dictionary(s27):
    circuit, tests = s27
    return build_dictionary(circuit, tests)


def make_service(tmp_path, **overrides):
    overrides.setdefault("workers", 0)
    config = ServeConfig(state_dir=str(tmp_path / "state"), **overrides)
    return FaultSimService(config)


DIAGNOSE_QUERY = {
    "circuit": "s27",
    "random_patterns": 40,
    "seed": 3,
    "failures": [[5, 0]],
}


class TestLocate:
    """Unit tests of the ranking math, on a hand-built dictionary."""

    def dictionary(self):
        f1 = StuckAtFault.make(1, -1, 0)
        f2 = StuckAtFault.make(2, -1, 1)
        f3 = StuckAtFault.make(3, 0, 0)
        undetected = StuckAtFault.make(4, -1, 1)
        return FullResponseDictionary(
            circuit_name="toy",
            num_vectors=8,
            signatures={
                f1: frozenset({(1, 0), (2, 0)}),
                f2: frozenset({(1, 0), (2, 0), (3, 1)}),
                f3: frozenset({(7, 1)}),
                undetected: frozenset(),
            },
        )

    def test_exact_match_ranks_first(self):
        result = diagnose(self.dictionary(), [(1, 0), (2, 0)])
        assert result.best.exact
        assert result.best.score == 1.0
        assert result.best.fault == StuckAtFault.make(1, -1, 0)
        assert result.exact_candidates == [StuckAtFault.make(1, -1, 0)]

    def test_partial_observation_tolerated(self):
        # One observed failure out of f2's three: still a candidate, with
        # the unobserved predictions counted as 'extra', not 'missed'.
        result = diagnose(self.dictionary(), [(3, 1)])
        assert result.best.fault == StuckAtFault.make(2, -1, 1)
        assert result.best.matched == 1
        assert result.best.missed == 0
        assert result.best.extra == 2
        assert result.best.score == pytest.approx(1 / 3)

    def test_missed_failures_penalized(self):
        # (9, 9) is observed but predicted by nobody: it lands in 'missed'
        # and drags every score below exact.
        result = diagnose(self.dictionary(), [(1, 0), (2, 0), (9, 9)])
        assert not result.best.exact
        assert result.best.fault == StuckAtFault.make(1, -1, 0)
        assert result.best.missed == 1
        assert result.best.score == pytest.approx(2 / 3)

    def test_disjoint_and_undetected_faults_excluded(self):
        result = diagnose(self.dictionary(), [(7, 1)])
        faults = [c.fault for c in result.candidates]
        assert faults == [StuckAtFault.make(3, 0, 0)]

    def test_top_limits_candidates(self):
        result = diagnose(self.dictionary(), [(1, 0)], top=1)
        assert len(result.candidates) == 1

    @pytest.mark.parametrize("top", [0, -1])
    def test_top_below_one_rejected(self, top):
        with pytest.raises(ValueError, match="top"):
            diagnose(self.dictionary(), [(1, 0)], top=top)

    def test_ordering_is_score_then_fault(self):
        result = diagnose(self.dictionary(), [(1, 0), (2, 0), (3, 1)])
        scores = [c.score for c in result.candidates]
        assert scores == sorted(scores, reverse=True)
        assert result.best.fault == StuckAtFault.make(2, -1, 1)

    def test_no_candidates_summary(self):
        result = diagnose(self.dictionary(), [(42, 0)])
        assert result.candidates == ()
        assert result.summary() == "no candidates"
        with pytest.raises(ValueError):
            result.best

    def test_candidate_fields_frozen(self):
        candidate = Candidate(
            fault=StuckAtFault.make(1, -1, 0),
            score=1.0,
            exact=True,
            matched=1,
            missed=0,
            extra=0,
        )
        with pytest.raises(Exception):
            candidate.score = 0.5


def _similarity(observed, signature):
    """Jaccard similarity plus the matched/missed/extra breakdown, from
    set operations: the ranking math the signature-class index replaced."""
    matched = len(observed & signature)
    missed = len(observed - signature)
    extra = len(signature - observed)
    union = matched + missed + extra
    score = matched / union if union else 0.0
    return score, matched, missed, extra


def reference_diagnose(dictionary, observed_failures, top):
    """The set-based ranking loop, fault by fault: the oracle for
    :func:`repro.diagnosis.diagnose`."""
    observed = frozenset(observed_failures)
    candidates = []
    for fault, signature in dictionary.signatures.items():
        if not signature:
            continue
        score, matched, missed, extra = _similarity(observed, signature)
        if matched == 0:
            continue
        candidates.append(
            Candidate(
                fault=fault,
                score=score,
                exact=(signature == observed),
                matched=matched,
                missed=missed,
                extra=extra,
            )
        )
    candidates.sort(key=lambda c: (-c.score, c.fault))
    return DiagnosisResult(observed=observed, candidates=tuple(candidates[:top]))


def reference_groups(dictionary):
    groups = {}
    for fault, signature in dictionary.signatures.items():
        if signature:
            groups.setdefault(signature, []).append(fault)
    return sorted(
        (sorted(members) for members in groups.values() if len(members) > 1),
        key=lambda members: members[0],
    )


#: Failure domains: a few cycles and outputs, so that random signatures
#: overlap and score alike; cycles 90 and up fail in no signature.
FULL_FAILURES = st.tuples(st.integers(1, 3), st.integers(0, 1))
PASSFAIL_FAILURES = st.integers(1, 6)
UNKNOWN_FAILURES = {
    "full": st.tuples(st.integers(90, 91), st.integers(0, 2)),
    "passfail": st.integers(90, 91),
}


@st.composite
def dictionaries(draw):
    """A hand-built dictionary of either kind whose faults draw from a few
    signatures, so classes are large and ties straddle the ``top`` cut."""
    kind = draw(st.sampled_from(["full", "passfail"]))
    failure = FULL_FAILURES if kind == "full" else PASSFAIL_FAILURES
    detected = st.frozensets(failure, min_size=1, max_size=3)
    pool = draw(st.lists(detected, min_size=1, max_size=4)) + [frozenset()]
    sites = draw(
        st.lists(
            st.tuples(st.integers(0, 10), st.integers(-1, 1), st.integers(0, 1)),
            min_size=1,
            max_size=30,
            unique=True,
        )
    )
    signatures = {
        StuckAtFault.make(*site): draw(st.sampled_from(pool)) for site in sites
    }
    cls = FullResponseDictionary if kind == "full" else PassFailDictionary
    return cls(circuit_name="toy", num_vectors=8, signatures=signatures)


class TestRankingMatchesSetOracle:
    """Per-class popcount ranking equals the fault-by-fault set loop."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), dictionary=dictionaries())
    def test_same_candidates_order_and_summary(self, data, dictionary):
        failure = FULL_FAILURES if dictionary.kind == "full" else PASSFAIL_FAILURES
        detected = sorted(
            {signature for signature in dictionary.signatures.values() if signature},
            key=sorted,
        )
        # Whole signatures (the union of two disjoint ones of one size ties
        # them), overlapping ones (duplicate failures), stray and unknown
        # failures; empty when nothing is drawn.
        picked = data.draw(st.lists(st.sampled_from(detected or [frozenset()]), max_size=3))
        noise = data.draw(
            st.lists(st.one_of(failure, UNKNOWN_FAILURES[dictionary.kind]), max_size=3)
        )
        observed = [item for signature in picked for item in sorted(signature)] + noise
        # Small cuts split classes and tied runs; large ones keep them all.
        top = data.draw(st.one_of(st.integers(1, 4), st.integers(1, len(dictionary) + 3)))
        expected = reference_diagnose(dictionary, observed, top)
        actual = diagnose(dictionary, observed, top=top)
        assert actual.observed == expected.observed
        assert actual.candidates == expected.candidates
        assert actual.summary() == expected.summary()
        assert dictionary.indistinguishable_groups() == reference_groups(dictionary)


class TestDictionaryInvariance:
    """Same dictionary bytes whatever built it (the acceptance criterion)."""

    @pytest.mark.parametrize("engine", ["csim", "PROOFS", "vsim", "serial"])
    def test_engine_invariant(self, s27, s27_dictionary, engine):
        circuit, tests = s27
        other = build_dictionary(circuit, tests, engine=engine)
        assert other.signatures == s27_dictionary.signatures

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_sharded_collapsed_equals_serial_full(self, s27, jobs, tmp_path):
        circuit, tests = s27
        universe = all_stuck_at_faults(circuit)
        serial_full = build_dictionary(
            circuit, tests, universe, engine="serial", collapse=None
        )
        sharded = build_dictionary(
            circuit,
            tests,
            universe,
            jobs=jobs,
            checkpoint_path=str(tmp_path / "build.ckpt"),
        )
        assert sharded.signatures == serial_full.signatures
        blob_a = encode_dictionary(
            circuit.name,
            len(tests),
            build_responses(circuit, tests, universe, collapse=None),
            collapse=None,
        )
        blob_b = encode_dictionary(
            circuit.name,
            len(tests),
            build_responses(circuit, tests, universe, jobs=jobs),
            collapse=None,
        )
        assert blob_a == blob_b

    def test_collapsed_default_covers_full_universe(self, s27, s27_dictionary):
        circuit, _tests = s27
        assert set(s27_dictionary.signatures) == set(all_stuck_at_faults(circuit))

    def test_passfail_folds_full(self, s27, s27_dictionary):
        circuit, tests = s27
        passfail = build_dictionary(circuit, tests, kind="passfail")
        assert isinstance(passfail, PassFailDictionary)
        for fault, signature in s27_dictionary.signatures.items():
            assert passfail.signature(fault) == frozenset(
                cycle for cycle, _ in signature
            )


SMALL = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestHypothesisInvariance:
    @SMALL
    @given(
        seed=st.integers(0, 2**16),
        engine=st.sampled_from(["csim", "csim-MV", "PROOFS", "vsim"]),
        kind=st.sampled_from(["full", "passfail"]),
    )
    def test_engine_and_collapse_invariant(self, seed, engine, kind):
        rng = random.Random(seed)
        circuit = random_circuit(
            rng, num_gates=12, num_dffs=2, name=f"dict{seed}"
        )
        tests = random_sequence(circuit, 12, seed=seed)
        reference = build_dictionary(circuit, tests, kind=kind)
        collapsed = build_dictionary(circuit, tests, kind=kind, engine=engine)
        full = build_dictionary(
            circuit,
            tests,
            all_stuck_at_faults(circuit),
            kind=kind,
            engine=engine,
            collapse=None,
        )
        assert collapsed.signatures == reference.signatures
        assert full.signatures == reference.signatures


def small_artifact() -> dict:
    """A valid two-fault ``repro-dict/1`` document over four vectors."""
    responses = {
        StuckAtFault.make(1, -1, 0): ((1, 0), (2, 0)),
        StuckAtFault.make(2, 0, 1): (),
    }
    return json.loads(encode_dictionary("toy", 4, responses))


def _blob(document: dict) -> bytes:
    return json.dumps(document).encode()


def _put(path, value):
    """A mutation that writes *value* at *path* (keys and indexes)."""

    def mutate(document):
        *parents, last = path
        target = document
        for key in parents:
            target = target[key]
        target[last] = value

    return mutate


def _one_fault_failing_5(document):
    """One fault whose responses are ``[[5]]``: a failure that is no pair."""
    document["faults"] = document["faults"][:1]
    document["responses"] = [[5]]
    document["manifest"].update(num_faults=1, num_detected=1)


def _swap_faults(document):
    for field in ("faults", "responses"):
        document[field].reverse()


#: Artifacts the encoder could not have written, each as a mutation of
#: :func:`small_artifact`; every reader must raise DictionaryDecodeError.
MALFORMED = {
    "responses-[[5]]": _one_fault_failing_5,
    "failure-not-a-pair": _put(("responses", 0), [5]),
    "failure-of-three": _put(("responses", 0, 0), [1, 0, 0]),
    "cycle-as-float": _put(("responses", 0, 0, 0), 1.5),
    "cycle-as-bool": _put(("responses", 0, 0, 0), True),
    "cycle-zero": _put(("responses", 0, 0, 0), 0),
    "cycle-past-vectors": _put(("responses", 0, 0, 0), 5),
    "negative-position": _put(("responses", 0, 0, 1), -1),
    "responses-not-a-list": _put(("responses",), "x"),
    "manifest-empty": _put(("manifest",), {}),
    "manifest-not-an-object": _put(("manifest",), []),
    "manifest-unknown-kind": _put(("manifest", "kind"), "tiny"),
    "manifest-vectors-as-string": _put(("manifest", "num_vectors"), "4"),
    "manifest-num-faults-wrong": _put(("manifest", "num_faults"), 3),
    "manifest-num-detected-wrong": _put(("manifest", "num_detected"), 2),
    "gate-as-string": _put(("faults", 0, 0), "1"),
    "pin-below-output": _put(("faults", 0, 1), -2),
    "fault-pair": _put(("faults", 0), [1, -1]),
    "transition-kind": _put(("faults", 0, 2), "STR"),
    "unknown-kind": _put(("faults", 0, 2), "SAX"),
    "faults-not-a-list": _put(("faults",), {}),
    "faults-out-of-order": _swap_faults,
    "fault-repeated": _put(("faults", 1), [1, -1, "SA0"]),
}


class TestArtifacts:
    def test_round_trip(self, s27):
        circuit, tests = s27
        responses = build_responses(circuit, tests)
        blob = encode_dictionary(
            circuit.name, len(tests), responses, collapse="equivalence"
        )
        assert decode_responses(blob) == responses
        manifest = read_manifest(blob)
        assert manifest["circuit"] == "s27"
        assert manifest["kind"] == "full"
        assert manifest["collapse"] == "equivalence"
        assert manifest["num_faults"] == len(responses)
        decoded = decode_dictionary(blob)
        assert decoded.signatures == build_dictionary(circuit, tests).signatures

    def test_encoding_is_canonical(self, s27):
        circuit, tests = s27
        responses = build_responses(circuit, tests)
        shuffled = dict(reversed(list(responses.items())))
        assert encode_dictionary(
            circuit.name, len(tests), responses
        ) == encode_dictionary(circuit.name, len(tests), shuffled)

    def test_kind_override_on_decode(self, s27):
        circuit, tests = s27
        blob = encode_dictionary(
            circuit.name, len(tests), build_responses(circuit, tests)
        )
        passfail = decode_dictionary(blob, kind="passfail")
        assert passfail.kind == "passfail"
        assert passfail.signatures == build_dictionary(
            circuit, tests, kind="passfail"
        ).signatures

    def test_decode_rejects_garbage(self):
        with pytest.raises(DictionaryDecodeError):
            decode_dictionary(b"not json")
        with pytest.raises(DictionaryDecodeError):
            decode_dictionary(b'{"schema": "other/1"}\n')
        torn = json.dumps(
            {"schema": "repro-dict/1", "manifest": {}, "faults": [[1, -1, "SA0"]],
             "responses": []}
        ).encode()
        with pytest.raises(DictionaryDecodeError):
            decode_dictionary(torn)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_every_reader_classifies_malformed_artifacts(self, case):
        document = small_artifact()
        for reader in (decode_dictionary, decode_responses, read_manifest):
            reader(_blob(document))  # the untouched artifact reads
        MALFORMED[case](document)
        blob = _blob(document)
        for reader in (decode_dictionary, decode_responses, read_manifest):
            with pytest.raises(DictionaryDecodeError):
                reader(blob)

    @pytest.mark.parametrize("name", GOLDEN_CIRCUITS)
    def test_encode_inverts_decode_on_golden_responses(self, name):
        circuit = load(name)
        responses = parse_responses(circuit, _read(answer_path(name)))
        blob = encode_dictionary(
            name, NUM_VECTORS, responses, collapse="equivalence"
        )
        assert decode_responses(blob) == responses
        assert encode_dictionary(
            name, NUM_VECTORS, decode_responses(blob), collapse="equivalence"
        ) == blob

    def test_write_read_atomic(self, s27, tmp_path):
        circuit, tests = s27
        blob = encode_dictionary(
            circuit.name, len(tests), build_responses(circuit, tests)
        )
        path = str(tmp_path / "artifacts" / "s27.dict")
        write_dictionary(path, blob)
        assert read_dictionary(path) == blob
        assert not [p for p in os.listdir(tmp_path / "artifacts") if ".tmp" in p]

    def test_fingerprint_sensitivity(self, s27):
        circuit, tests = s27
        universe = all_stuck_at_faults(circuit)
        base = dictionary_fingerprint(circuit, tests.vectors, universe)
        assert dictionary_fingerprint(circuit, tests.vectors, universe) == base
        assert (
            dictionary_fingerprint(circuit, tests.vectors, universe, kind="passfail")
            != base
        )
        assert (
            dictionary_fingerprint(circuit, tests.vectors[:-1], universe) != base
        )
        assert (
            dictionary_fingerprint(circuit, tests.vectors, universe[:-1]) != base
        )


class TestInterruptedBuild:
    def test_truncated_build_raises_then_resumes_bit_identical(
        self, s27, tmp_path
    ):
        circuit, tests = s27
        checkpoint = str(tmp_path / "dict.ckpt")
        with pytest.raises(DictionaryBuildTruncated):
            build_dictionary(
                circuit,
                tests,
                checkpoint_path=checkpoint,
                checkpoint_every=8,
                budget=Budget(max_cycles=20),
            )
        # The budget struck mid-build: durable shard progress must exist.
        assert [p for p in os.listdir(tmp_path) if p.startswith("dict.ckpt")]
        resumed = build_dictionary(
            circuit,
            tests,
            checkpoint_path=checkpoint,
            checkpoint_every=8,
            resume=True,
        )
        uninterrupted = build_dictionary(circuit, tests)
        assert resumed.signatures == uninterrupted.signatures

    def test_truncated_serial_build_raises(self, s27):
        circuit, tests = s27
        with pytest.raises(DictionaryBuildTruncated):
            build_dictionary(circuit, tests, budget=Budget(max_cycles=10))

    def test_rejects_dominance_collapse(self, s27):
        circuit, tests = s27
        with pytest.raises(ValueError, match="equivalence"):
            build_dictionary(circuit, tests, collapse="dominance")


class TestServeDiagnose:
    def test_miss_builds_then_hit_serves(self, tmp_path):
        service = make_service(tmp_path)
        status, document, raw = service.diagnose(dict(DIAGNOSE_QUERY))
        assert status == 202
        assert document["status"] == "building"
        assert raw is None
        assert service.drain() == 1
        record = service.status(document["job"])
        assert record.state == "done"
        assert record.summary.startswith("dictionary[full]")
        status, document, raw = service.diagnose(dict(DIAGNOSE_QUERY))
        assert status == 200
        report = json.loads(raw)
        assert report["schema"] == "repro-diagnosis/1"
        assert report["candidates"]
        snapshot = service.metrics_snapshot()["diagnosis"]
        assert snapshot == {
            "requests": 2,
            "dictionary_hits": 1,
            "dictionary_misses": 1,
            "dictionaries_built": 1,
        }

    def test_concurrent_misses_share_one_build(self, tmp_path):
        service = make_service(tmp_path)
        _, first, _ = service.diagnose(dict(DIAGNOSE_QUERY))
        _, second, _ = service.diagnose(dict(DIAGNOSE_QUERY, failures=[[9, 0]]))
        assert first["job"] == second["job"]
        assert second["created"] is False

    def test_rankings_match_direct_library_call(self, tmp_path, s27):
        circuit, tests = s27
        service = make_service(tmp_path)
        service.diagnose(dict(DIAGNOSE_QUERY))
        service.drain()
        _, _, raw = service.diagnose(dict(DIAGNOSE_QUERY))
        direct = diagnosis_report(
            circuit,
            tests,
            build_dictionary(circuit, tests),
            parse_observed("full", DIAGNOSE_QUERY["failures"]),
        )
        assert raw == direct

    def test_bad_queries_rejected(self, tmp_path):
        service = make_service(tmp_path)
        for payload in (
            {"circuit": "s27"},  # no failures
            dict(DIAGNOSE_QUERY, failures="5:0"),  # not a list
            dict(DIAGNOSE_QUERY, failures=[[5]]),  # not a pair
            dict(DIAGNOSE_QUERY, failures=[5]),  # full kind needs pairs
            dict(DIAGNOSE_QUERY, top=0),
            dict(DIAGNOSE_QUERY, explain="yes"),
            dict(DIAGNOSE_QUERY, dictionary="tiny"),
            dict(DIAGNOSE_QUERY, collapse="dominance"),
            dict(DIAGNOSE_QUERY, transition=True),
        ):
            with pytest.raises(SpecError):
                service.diagnose(payload)

    def test_dictionary_key_in_cache_key(self, tmp_path):
        # A dictionary build must never collide with a plain detection job
        # over the same inputs — they serialize different documents.
        service = make_service(tmp_path)
        spec = {"circuit": "s27", "random_patterns": 40, "seed": 3}
        record_plain, _ = service.submit(dict(spec))
        record_dict, _ = service.submit(dict(spec, dictionary="full"))
        assert record_plain.cache_key != record_dict.cache_key
        assert service.drain() == 2
        plain = json.loads(service.result_bytes(record_plain.job_id))
        built = json.loads(service.result_bytes(record_dict.job_id))
        assert "engine" in plain
        assert built["schema"] == "repro-dict/1"

    def test_truncated_dictionary_job_retries_then_dead_letters(self, tmp_path):
        service = make_service(
            tmp_path,
            max_attempts=2,
            retry_backoff_base=0.0,
            retry_jitter=0.0,
        )
        record, _ = service.submit(
            {
                "circuit": "s27",
                "random_patterns": 40,
                "seed": 3,
                "dictionary": "full",
                "max_cycles": 15,
            }
        )
        service.drain()
        first = service.status(record.job_id)
        assert first.state == "queued"  # transient: re-queued with backoff
        assert first.error_history
        service.reap()  # pushes the backoff retry
        service.drain()
        final = service.status(record.job_id)
        assert final.state == "dead"
        # The second attempt resumed from the first attempt's checkpoint.
        assert final.resumed_from_cycle is not None

    @staticmethod
    def count_decodes(monkeypatch):
        from repro.diagnosis import store

        calls = []
        real = store.decode_dictionary

        def counting(blob, kind=None):
            calls.append(blob)
            return real(blob, kind)

        monkeypatch.setattr(store, "decode_dictionary", counting)
        return calls

    def test_warm_queries_decode_once(self, tmp_path, monkeypatch):
        service = make_service(tmp_path)
        status, document, _ = service.diagnose(dict(DIAGNOSE_QUERY))
        assert status == 202
        service.drain()
        blob = service.result_bytes(document["job"])
        decodes = self.count_decodes(monkeypatch)
        circuit = load("s27")
        tests = random_sequence(circuit, 40, seed=3)
        for failures in ([[5, 0]], [[5, 0], [9, 0]], [[11, 0], [999, 7]]):
            status, _, raw = service.diagnose(dict(DIAGNOSE_QUERY, failures=failures))
            assert status == 200
            fresh = diagnosis_report(
                circuit,
                tests,
                decode_dictionary(blob),
                parse_observed("full", failures),
            )
            assert raw == fresh
        # The fresh decodes above call this module's own import, which the
        # counter does not see: the count is the service's alone.
        assert len(decodes) == 1

    def test_decoded_dictionaries_evicted_past_capacity(self, tmp_path, monkeypatch):
        service = make_service(tmp_path, resolver_capacity=2)
        queries = [
            dict(DIAGNOSE_QUERY, dictionary=kind, failures=failures)
            for kind, failures in (("full", [[5, 0]]), ("passfail", [5]))
        ] + [dict(DIAGNOSE_QUERY, seed=4)]
        for query in queries:
            service.diagnose(dict(query))
        service.drain()
        decodes = self.count_decodes(monkeypatch)
        for query in queries[:2] * 2:  # two fit: each is decoded once
            assert service.diagnose(dict(query))[0] == 200
        assert len(decodes) == 2
        # A third dictionary evicts the least recently used (the full one).
        for query in (queries[2], queries[1], queries[0]):
            assert service.diagnose(dict(query))[0] == 200
        assert len(decodes) == 4

    def test_concurrent_lookups_keep_the_lru_consistent(self, tmp_path):
        # Capacity 1 and two dictionaries: lookups of one keep evicting the
        # other, from more threads than cores, switching every microsecond.
        service = make_service(tmp_path, resolver_capacity=1)
        keys = []
        for kind, failures in (("full", [[5, 0]]), ("passfail", [5])):
            query = dict(DIAGNOSE_QUERY, dictionary=kind, failures=failures)
            keys.append(service.diagnose(query)[1]["cache_key"])
        service.drain()
        expected = [service._decoded_dictionary(key) for key in keys]
        seen, errors = [], []

        def worker(offset):
            try:
                for step in range(400):
                    which = 1 if (offset + step) % 4 == 0 else 0
                    seen.append((which, service._decoded_dictionary(keys[which])))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(seen) == 4 * 400
        assert all(
            dictionary.signatures == expected[which].signatures
            and dictionary.kind == expected[which].kind
            for which, dictionary in seen
        )
        assert len(service._dictionaries) == 1

    def test_passfail_dictionary_query(self, tmp_path):
        service = make_service(tmp_path)
        query = dict(DIAGNOSE_QUERY, dictionary="passfail", failures=[5, 11])
        status, document, _ = service.diagnose(dict(query))
        assert status == 202
        service.drain()
        status, _, raw = service.diagnose(dict(query))
        assert status == 200
        assert json.loads(raw)["kind"] == "passfail"


class TestEndToEndRoundTrip:
    def test_every_fault_diagnoses_to_itself(self, s27, s27_dictionary):
        """The acceptance round-trip: each fault's own simulated responses
        rank it at the top (exactly, up to equivalence resolution)."""
        for fault in s27_dictionary.detected_faults():
            result = diagnose(
                s27_dictionary,
                s27_dictionary.signature(fault),
                top=len(s27_dictionary),
            )
            assert result.best.exact
            assert result.best.score == 1.0
            assert fault in result.exact_candidates

    def test_cli_and_service_rankings_byte_identical(self, tmp_path):
        service = make_service(tmp_path)
        service.diagnose(dict(DIAGNOSE_QUERY))
        service.drain()
        status, _, service_bytes = service.diagnose(dict(DIAGNOSE_QUERY))
        assert status == 200
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "diagnose",
                "s27",
                "--random-patterns",
                "40",
                "--seed",
                "3",
                "--failures",
                "5:0",
            ],
            capture_output=True,
            env=env,
            check=True,
        )
        assert completed.stdout == service_bytes

    def test_cli_artifact_cache_round_trip(self, tmp_path):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        artifact = str(tmp_path / "s27.dict")
        build = subprocess.run(
            [
                sys.executable, "-m", "repro", "build-dictionary", "s27",
                "--random-patterns", "40", "--seed", "3", "-o", artifact,
            ],
            capture_output=True, env=env, check=True,
        )
        assert b"dictionary[full]" in build.stdout
        args = [
            sys.executable, "-m", "repro", "diagnose", "s27",
            "--random-patterns", "40", "--seed", "3", "--failures", "5:0",
        ]
        fresh = subprocess.run(args, capture_output=True, env=env, check=True)
        cached = subprocess.run(
            args + ["--dictionary", artifact],
            capture_output=True, env=env, check=True,
        )
        assert cached.stdout == fresh.stdout
        assert b"loaded from" in cached.stderr

    def test_cli_rejects_a_malformed_artifact(self, tmp_path, capsys):
        from repro.cli import main

        document = small_artifact()
        MALFORMED["failure-not-a-pair"](document)
        artifact = tmp_path / "bad.dict"
        artifact.write_bytes(_blob(document))
        code = main([
            "diagnose", "s27", "--random-patterns", "40", "--seed", "3",
            "--dictionary", str(artifact), "--failures", "5:0",
        ])
        assert code == 2
        assert "artifact corrupt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "circuit, num_vectors, gate, message",
        [
            ("s298", 40, 1, "is for circuit 's298', not 's27'"),
            ("s27", 64, 1, "covers 64 vectors, the query 40"),
            ("s27", 40, 500, "fault at gate 500 pin -1 lies outside circuit 's27'"),
        ],
        ids=["circuit", "vectors", "site"],
    )
    def test_cli_rejects_an_artifact_for_another_query(
        self, tmp_path, capsys, circuit, num_vectors, gate, message
    ):
        """A well-formed artifact of another circuit, vector count or fault
        site is a one-line error: never a traceback, never a ranking
        against the wrong dictionary."""
        from repro.cli import main

        artifact = tmp_path / "other.dict"
        artifact.write_bytes(
            encode_dictionary(
                circuit, num_vectors, {StuckAtFault.make(gate, -1, 0): ((1, 0),)}
            )
        )
        code = main([
            "diagnose", "s27", "--random-patterns", "40", "--seed", "3",
            "--dictionary", str(artifact), "--failures", "5:0",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if not line.startswith("#")]
        assert errors == [f"error: {artifact}: dictionary {message}"]


class TestExplain:
    def test_chain_reaches_observed_outputs(self, s27, s27_dictionary):
        circuit, tests = s27
        fault = s27_dictionary.detected_faults()[0]
        explanation = explain_fault(circuit, tests, fault)
        assert explanation.fault == fault
        assert explanation.detected_cycle is not None
        assert explanation.steps
        # The chain's failing outputs are exactly the dictionary signature.
        assert frozenset(explanation.responses) == s27_dictionary.signature(
            fault
        )
        failing_cycles = {
            step.cycle for step in explanation.steps if step.failing_outputs
        }
        assert failing_cycles == {c for c, _ in explanation.responses}
        # Divergence precedes (or coincides with) first detection.
        first_active = explanation.steps[0].cycle
        assert first_active <= explanation.detected_cycle

    def test_payload_and_render(self, s27, s27_dictionary):
        circuit, tests = s27
        fault = s27_dictionary.detected_faults()[0]
        explanation = explain_fault(circuit, tests, fault)
        payload = explanation.to_payload()
        assert payload["fault"] == explanation.fault_label
        assert payload["text"] == explanation.render()
        assert "diverges at" in payload["text"]
        assert json.dumps(payload)  # JSON-ready

    def test_rejects_non_concurrent_engines(self, s27):
        circuit, tests = s27
        fault = StuckAtFault.make(5, -1, 1)
        for engine in ("serial", "PROOFS", "vsim"):
            with pytest.raises(ValueError, match="concurrent"):
                explain_fault(circuit, tests, fault, engine=engine)

    def test_explained_report_stays_canonical(self, s27, s27_dictionary):
        circuit, tests = s27
        fault = s27_dictionary.detected_faults()[0]
        observed = sorted(s27_dictionary.signature(fault))
        plain = diagnosis_report(circuit, tests, s27_dictionary, observed)
        explained = diagnosis_report(
            circuit, tests, s27_dictionary, observed, explain=True
        )
        plain_doc = json.loads(plain)
        explained_doc = json.loads(explained)
        assert "explain" not in plain_doc
        explained_doc.pop("explain")
        assert explained_doc == plain_doc
