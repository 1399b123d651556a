"""Property tests for the content-addressed result cache.

The cache key must separate everything that can change a simulation's
outcome — netlist text, vector content *and order* (the circuits are
sequential), the fault universe, the engine options — while ignoring
scheduling knobs that cannot.  Hypothesis drives the separations; the
byte-identity half checks that whatever bytes go into the cache come back
exactly, so a hit returns the first run's document verbatim.
"""

import string

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuit.library import S27_BENCH, load
from repro.faults.universe import stuck_at_universe
from repro.patterns.random_gen import random_sequence
from repro.patterns.vectors import TestSequence
from repro.serve import ResultCache, cache_key
from repro.serve.spec import JobSpec, SpecResolver

RELAXED = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

CIRCUIT = load("s27")
FAULTS = list(stuck_at_universe(CIRCUIT))
NUM_INPUTS = len(CIRCUIT.inputs)


def key_for(spec, tests=None, faults=None):
    if tests is None:
        tests = random_sequence(CIRCUIT, 8, seed=spec.seed)
    return cache_key(spec, CIRCUIT, tests, FAULTS if faults is None else faults)


def sequence_of(rows):
    return TestSequence(NUM_INPUTS, [tuple(row) for row in rows])


values = st.sampled_from((0, 1, 2))  # ZERO, ONE, X
vectors = st.lists(
    st.tuples(*[values] * NUM_INPUTS), min_size=2, max_size=6
)


class TestKeySeparations:
    @RELAXED
    @given(st.text(alphabet=string.printable, min_size=1, max_size=12))
    def test_netlist_text_change_changes_key(self, suffix):
        base = JobSpec.from_payload({"netlist": S27_BENCH})
        changed = JobSpec.from_payload({"netlist": S27_BENCH + "#" + suffix + "\n"})
        tests = random_sequence(CIRCUIT, 8, seed=1)
        assert key_for(base, tests) != key_for(changed, tests)

    @RELAXED
    @given(vectors, st.data())
    def test_vector_order_changes_key(self, rows, data):
        permutation = data.draw(st.permutations(list(range(len(rows)))))
        reordered = [rows[index] for index in permutation]
        spec = JobSpec.from_payload({"circuit": "s27"})
        original_key = key_for(spec, sequence_of(rows))
        reordered_key = key_for(spec, sequence_of(reordered))
        if reordered == list(rows):
            assert reordered_key == original_key
        else:
            assert reordered_key != original_key

    @RELAXED
    @given(vectors, st.tuples(*[values] * NUM_INPUTS))
    def test_vector_content_changes_key(self, rows, extra):
        spec = JobSpec.from_payload({"circuit": "s27"})
        grown = list(rows) + [extra]
        assert key_for(spec, sequence_of(rows)) != key_for(spec, sequence_of(grown))

    @RELAXED
    @given(st.data())
    def test_fault_universe_changes_key(self, data):
        dropped = data.draw(
            st.lists(
                st.sampled_from(range(len(FAULTS))),
                min_size=1,
                max_size=len(FAULTS),
                unique=True,
            )
        )
        subset = [fault for index, fault in enumerate(FAULTS) if index not in set(dropped)]
        spec = JobSpec.from_payload({"circuit": "s27"})
        tests = random_sequence(CIRCUIT, 8, seed=1)
        assert key_for(spec, tests) != key_for(spec, tests, faults=subset)

    @RELAXED
    @given(
        st.sampled_from(("csim", "csim-V", "csim-M", "csim-MV", "PROOFS", "serial")),
        st.sampled_from(("csim", "csim-V", "csim-M", "csim-MV", "PROOFS", "serial")),
    )
    def test_engine_option_separates_iff_different(self, engine_a, engine_b):
        spec_a = JobSpec.from_payload({"circuit": "s27", "engine": engine_a})
        spec_b = JobSpec.from_payload({"circuit": "s27", "engine": engine_b})
        tests = random_sequence(CIRCUIT, 8, seed=1)
        if engine_a == engine_b:
            assert key_for(spec_a, tests) == key_for(spec_b, tests)
        else:
            assert key_for(spec_a, tests) != key_for(spec_b, tests)

    @RELAXED
    @given(st.integers(min_value=1, max_value=64))
    def test_max_cycles_changes_key(self, max_cycles):
        base = JobSpec.from_payload({"circuit": "s27"})
        capped = JobSpec.from_payload({"circuit": "s27", "max_cycles": max_cycles})
        tests = random_sequence(CIRCUIT, 8, seed=1)
        assert key_for(base, tests) != key_for(capped, tests)

    @RELAXED
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=-5, max_value=5),
    )
    def test_scheduling_knobs_never_change_key(self, jobs, priority):
        base = JobSpec.from_payload({"circuit": "s27"})
        scheduled = JobSpec.from_payload(
            {
                "circuit": "s27",
                "jobs": jobs,
                "priority": priority,
                "idempotency_key": "whatever",
            }
        )
        tests = random_sequence(CIRCUIT, 8, seed=1)
        assert key_for(base, tests) == key_for(scheduled, tests)


class TestByteIdentity:
    @RELAXED
    @given(blob=st.binary(min_size=1, max_size=4096))
    def test_cache_roundtrip_is_byte_exact(self, tmp_path_factory, blob):
        cache = ResultCache(str(tmp_path_factory.mktemp("cache")))
        key = "k" * 64
        cache.put(key, blob)
        assert cache.get(key) == blob
        assert key in cache

    @RELAXED
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_duplicate_specs_share_a_key(self, seed):
        resolver = SpecResolver()
        payload = {"circuit": "s27", "random_patterns": 8, "seed": seed}
        keys = set()
        for _ in range(2):
            spec = JobSpec.from_payload(dict(payload))
            resolved = resolver.resolve(spec)
            keys.add(cache_key(spec, resolved.circuit, resolved.tests, resolved.faults))
        assert len(keys) == 1
