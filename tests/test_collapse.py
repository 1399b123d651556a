"""Structural fault collapsing: exactness, composition and serve parity.

The contract under test (see ``repro.analyze.collapse``): simulating only
the equivalence-class representatives of the *full* stuck-at universe and
expanding the detections back through the class map is bit-identical to
simulating the full universe — per engine, per shard count, with and
without untestable-fault pruning, and across a kill/resume.
"""

import json
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analyze import collapse_universe
from repro.campaign import Campaign, execute
from repro.circuit.generate import random_circuit
from repro.circuit.library import available_circuits, load
from repro.faults.transition import all_transition_faults
from repro.faults.universe import all_stuck_at_faults, stuck_at_universe
from repro.harness.runner import run_stuck_at, run_transition
from repro.patterns.random_gen import random_sequence
from repro.robust.budget import Budget

#: ``fingerprint_material()`` digests of the full-universe equivalence
#: maps, pinned in ``golden/identity.json``.  Checkpoint fingerprints
#: embed them, so a change here orphans every collapsed checkpoint.
GOLDEN_FINGERPRINT_KEYS = [
    ("s27", False),
    ("s27", True),
    ("s298", False),
    ("s298", True),
]


def _golden_fingerprint(name, transition):
    path = os.path.join(os.path.dirname(__file__), "golden", "identity.json")
    with open(path, encoding="utf-8") as handle:
        digests = json.load(handle)["collapse_fingerprints"]
    return digests[f"{name}/{'transition' if transition else 'stuck-at'}"]


def _same_detections(left, right):
    assert left.detected == right.detected
    assert left.potentially_detected == right.potentially_detected
    assert left.num_faults == right.num_faults


class TestClasses:
    def test_full_universe_classes_match_legacy_collapse(self):
        """The legacy pre-collapsed universe is exactly the equivalence
        representatives of the full universe (paper Table 2 consistency)."""
        for name in ("s27", "s298", "s641"):
            circuit = load(name)
            collapsed = collapse_universe(circuit)
            assert sorted(collapsed.representatives) == sorted(
                stuck_at_universe(circuit)
            )

    @pytest.mark.parametrize("scale", [0.5, 1.0])
    @pytest.mark.parametrize("name", available_circuits())
    def test_stuck_at_universe_is_collapse_representatives(self, name, scale):
        """Both faces of the one collapser pick the same representatives."""
        circuit = load(name, scale=scale)
        assert stuck_at_universe(circuit) == list(
            collapse_universe(circuit).representatives
        )

    @pytest.mark.parametrize("key", GOLDEN_FINGERPRINT_KEYS)
    def test_fingerprint_material_matches_golden(self, key):
        name, transition = key
        material = collapse_universe(load(name), transition=transition)
        assert material.fingerprint_material() == (
            "collapse",
            "equivalence",
            _golden_fingerprint(name, transition),
        )

    def test_map_covers_universe_and_reps_are_fixed_points(self, s27):
        collapsed = collapse_universe(s27)
        universe = set(all_stuck_at_faults(s27))
        assert set(collapsed.universe) == universe
        assert set(collapsed.member_to_rep) == universe
        reps = set(collapsed.representatives)
        assert reps <= universe
        for member, rep in collapsed.member_to_rep.items():
            assert rep in reps
        for rep in reps:
            assert collapsed.member_to_rep[rep] == rep

    def test_ratio_meets_acceptance_floor(self):
        """>= 30% reduction on at least two library circuits."""
        ratios = {
            name: collapse_universe(load(name)).ratio for name in ("s27", "s298")
        }
        assert all(ratio >= 0.30 for ratio in ratios.values()), ratios

    def test_fingerprints_distinguish_modes(self, s27):
        """Maps over different universes (the full one, or a subset such
        as pruning leaves) never share a fingerprint; the same map always
        reproduces its own."""
        full = collapse_universe(s27)
        partial = collapse_universe(s27, all_stuck_at_faults(s27)[2:])
        assert full.fingerprint_material() != partial.fingerprint_material()
        again = collapse_universe(s27)
        assert again.fingerprint_material() == full.fingerprint_material()

    def test_unknown_mode_rejected(self, s27, s27_tests):
        from repro.diagnosis.dictionary import build_responses

        for mode in ("dominance", "bogus"):
            with pytest.raises(ValueError, match="equivalence"):
                build_responses(s27, s27_tests, collapse=mode)

    def test_transition_collapse_projects_onto_universe(self, s27):
        collapsed = collapse_universe(s27, transition=True)
        universe = set(all_transition_faults(s27))
        assert set(collapsed.universe) == universe
        assert set(collapsed.representatives) <= universe
        assert collapsed.num_representatives <= collapsed.num_universe


class TestBitIdentity:
    @pytest.mark.parametrize("engine", ["csim", "csim-MV", "PROOFS", "vsim"])
    def test_equivalence_expansion_exact_per_engine(self, engine):
        circuit = load("s298")
        tests = random_sequence(circuit, 48, seed=7)
        universe = list(all_stuck_at_faults(circuit))
        reference = run_stuck_at(circuit, tests, engine, faults=universe)
        collapsed = collapse_universe(circuit, universe)
        reps = run_stuck_at(
            circuit, tests, engine, faults=list(collapsed.representatives)
        )
        _same_detections(reference, collapsed.expand(reps))

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_equivalence_composes_with_jobs(self, jobs):
        circuit = load("s298")
        tests = random_sequence(circuit, 40, seed=11)
        universe = list(all_stuck_at_faults(circuit))
        reference = run_stuck_at(circuit, tests, "csim-MV", faults=universe)
        collapsed = collapse_universe(circuit, universe)
        reps = run_stuck_at(
            circuit,
            tests,
            "csim-MV",
            faults=list(collapsed.representatives),
            jobs=jobs,
        )
        _same_detections(reference, collapsed.expand(reps))

    def test_equivalence_composes_with_prune(self):
        from repro.analyze import prune_untestable

        circuit = load("s298")
        tests = random_sequence(circuit, 40, seed=5)
        pruned = list(prune_untestable(circuit, all_stuck_at_faults(circuit)).kept)
        reference = run_stuck_at(circuit, tests, "csim-MV", faults=pruned)
        collapsed = collapse_universe(circuit, pruned)
        reps = run_stuck_at(
            circuit, tests, "csim-MV", faults=list(collapsed.representatives)
        )
        _same_detections(reference, collapsed.expand(reps))

    def test_transition_expansion_exact(self, s27, s27_tests):
        reference = run_transition(s27, s27_tests)
        collapsed = collapse_universe(s27, transition=True)
        reps = run_transition(
            s27, s27_tests, faults=list(collapsed.representatives)
        )
        _same_detections(reference, collapsed.expand(reps))


class TestResume:
    def test_kill_resume_with_collapse_bit_identical(self, tmp_path):
        circuit = load("s298")
        tests = random_sequence(circuit, 48, seed=9)
        universe = list(all_stuck_at_faults(circuit))
        reference = run_stuck_at(circuit, tests, "csim-MV", faults=universe)
        collapsed = collapse_universe(circuit, universe)
        path = str(tmp_path / "ck.pkl")
        partial = execute(
            Campaign(
                circuit,
                tests,
                "csim-MV",
                faults=universe,
                collapse="equivalence",
                budget=Budget(max_cycles=16),
                checkpoint_path=path,
                checkpoint_every=4,
            )
        )
        assert partial.truncated
        resumed = execute(
            Campaign(
                circuit,
                tests,
                "csim-MV",
                faults=universe,
                collapse="equivalence",
                checkpoint_path=path,
                resume=True,
            )
        )
        # execute expands through the same map as collapse_universe's.
        assert len(collapsed.representatives) < resumed.num_faults
        _same_detections(reference, resumed)

    def test_resume_refused_across_collapse_modes(self, tmp_path):
        from repro.robust.checkpoint import CheckpointError

        circuit = load("s27")
        tests = random_sequence(circuit, 30, seed=2)
        collapsed = collapse_universe(circuit)
        path = str(tmp_path / "ck.pkl")
        execute(
            Campaign(
                circuit, tests, "csim-MV", collapse="equivalence", checkpoint_path=path
            )
        )
        with pytest.raises(CheckpointError):
            execute(
                Campaign(
                    circuit,
                    tests,
                    "csim-MV",
                    faults=list(collapsed.universe),
                    checkpoint_path=path,
                    resume=True,
                )
            )


class TestProperty:
    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        seed=st.integers(0, 2**20),
        num_gates=st.integers(5, 16),
        num_dffs=st.integers(0, 3),
        engine=st.sampled_from(["csim", "csim-MV", "vsim"]),
        jobs=st.sampled_from([1, 2]),
        prune=st.booleans(),
    )
    def test_collapse_then_expand_is_identity(
        self, seed, num_gates, num_dffs, engine, jobs, prune
    ):
        circuit = random_circuit(
            random.Random(seed),
            num_inputs=3,
            num_gates=num_gates,
            num_dffs=num_dffs,
            num_outputs=2,
            name=f"col{seed}",
        )
        tests = random_sequence(circuit, 10, seed=seed)
        universe = list(all_stuck_at_faults(circuit))
        if prune:
            from repro.analyze import prune_untestable

            universe = list(prune_untestable(circuit, universe).kept)
        reference = run_stuck_at(circuit, tests, engine, faults=universe, jobs=jobs)
        collapsed = collapse_universe(circuit, universe)
        reps = run_stuck_at(
            circuit,
            tests,
            engine,
            faults=list(collapsed.representatives),
            jobs=jobs,
        )
        _same_detections(reference, collapsed.expand(reps))
        campaign = Campaign(
            circuit, tests, engine, faults=universe, collapse="equivalence", jobs=jobs
        )
        _same_detections(reference, execute(campaign))


class TestCli:
    def test_simulate_collapse_matches_plain_full_universe(self, capsys):
        import re

        from repro.cli import main

        circuit = load("s298")
        plain = run_stuck_at(
            circuit,
            random_sequence(circuit, 30, seed=4),
            faults=all_stuck_at_faults(circuit),
        )
        counts = re.compile(r"\d+/\d+ faults \([0-9.]+%\)")
        expected = counts.search(plain.summary()).group()
        base = ["simulate", "s298", "--random-patterns", "30", "--seed", "4"]
        for extra in ([], ["--jobs", "2"]):
            assert main(base + ["--collapse"] + extra) == 0
            out = capsys.readouterr()
            assert "collapse[equivalence]" in out.err
            assert counts.search(out.out).group() == expected

    def test_removed_collapse_mode_exits_2(self, capsys):
        from repro.cli import main

        base = ["simulate", "s27", "--random-patterns", "10"]
        assert main(base + ["--collapse", "dominance"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_stats_reports_collapse_ratios(self, capsys):
        from repro.cli import main

        assert main(["stats", "s298"]) == 0
        out = capsys.readouterr().out
        assert "equivalence collapse ratio" in out
        assert "dominance" not in out


class TestServeParity:
    def _service(self, tmp_path):
        from repro.serve import FaultSimService, ServeConfig

        return FaultSimService(
            ServeConfig(state_dir=str(tmp_path / "state"), workers=0)
        )

    def test_collapse_job_blob_matches_full_universe_run(self, tmp_path):
        from repro.logic.values import value_to_char
        from repro.serve import serialize_result

        circuit = load("s298")
        tests = random_sequence(circuit, 40, seed=13)
        vectors = (
            "\n".join(
                "".join(value_to_char(v) for v in vector) for vector in tests
            )
            + "\n"
        )
        service = self._service(tmp_path)
        record, _ = service.submit(
            {"circuit": "s298", "vectors": vectors, "collapse": "equivalence"}
        )
        assert service.drain() == 1
        blob = service.result_bytes(record.job_id)
        reference = run_stuck_at(
            circuit, tests, "csim-MV", faults=list(all_stuck_at_faults(circuit))
        )
        assert blob == serialize_result(reference, circuit)

    def test_cache_key_separates_collapse(self, tmp_path):
        service = self._service(tmp_path)
        base = {"circuit": "s27", "random_patterns": 20, "seed": 1}
        plain, _ = service.submit(dict(base))
        equivalence, _ = service.submit(dict(base, collapse="equivalence"))
        keys = {
            service.store.get(record.job_id).cache_key
            for record in (plain, equivalence)
        }
        assert len(keys) == 2

    def test_bad_spec_options_rejected(self, tmp_path):
        from repro.serve import SpecError

        service = self._service(tmp_path)
        for mode in ("bogus", "dominance"):
            with pytest.raises(SpecError, match="collapse"):
                service.submit({"circuit": "s27", "collapse": mode})

    def test_spec_roundtrips_new_options(self):
        from repro.serve.spec import JobSpec

        payload = {"circuit": "s27", "random_patterns": 10, "collapse": "equivalence"}
        spec = JobSpec.from_payload(payload)
        assert spec.collapse == "equivalence"
        again = JobSpec.from_payload(spec.to_payload())
        assert again.collapse == "equivalence"
