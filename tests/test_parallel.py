"""Fault-sharded parallel campaign runner: partition, merge, resilience.

The contract under test (see :mod:`repro.parallel.merge`): the merged
*outcome* — detected faults, detection cycles, potential detections,
coverage — is bit-identical to a single-process run for every shard
count and executor; at K=1 the whole result (work
counters and modelled memory included) is identical; and for K>1 the
aggregate counters are deterministic across executors.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaign import Campaign, execute
from repro.circuit.generate import random_circuit
from repro.circuit.library import load
from repro.faults.universe import stuck_at_universe
from repro.harness.runner import run_stuck_at, run_transition
from repro.obs import RecordingTracer
from repro.parallel import (
    MultiprocessExecutor,
    SequentialExecutor,
    merge_results,
    plan_shards,
    shard_checkpoint_path,
)
from repro.patterns.random_gen import random_sequence
from repro.robust.budget import Budget
from repro.robust.checkpoint import CampaignInterrupted, CheckpointError


@pytest.fixture(scope="module")
def s298():
    return load("s298")


@pytest.fixture(scope="module")
def s298_tests(s298):
    return random_sequence(s298, 40, seed=5)


# ----------------------------------------------------------------------
# the partition
# ----------------------------------------------------------------------


class TestSharding:
    @pytest.mark.parametrize("jobs", [1, 2, 3, 7], ids="{}-round-robin".format)
    def test_partition_is_exact(self, s298, jobs):
        universe = stuck_at_universe(s298)
        shards = plan_shards(reversed(universe), jobs)
        assert len(shards) == jobs
        merged = [fault for shard in shards for fault in shard]
        assert sorted(merged) == sorted(universe)
        assert len(set(merged)) == len(universe)
        # Fault i of the sorted universe lands in shard i mod jobs.
        for position, fault in enumerate(sorted(universe)):
            assert fault in shards[position % jobs]
        assert plan_shards(universe, jobs) == shards

    def test_round_robin_is_deterministic(self, s298):
        universe = stuck_at_universe(s298)
        shuffled = list(universe)
        random.Random(5).shuffle(shuffled)
        assert plan_shards(shuffled, 4) == plan_shards(universe, 4)

    def test_more_jobs_than_faults(self, s298):
        universe = stuck_at_universe(s298)[:3]
        assert plan_shards(universe, 8) == [[fault] for fault in sorted(universe)]

    def test_empty_universe(self, s298):
        assert plan_shards([], 4) == [[]]

    def test_jobs_below_one_rejected(self, s298):
        with pytest.raises(ValueError, match="jobs"):
            plan_shards(stuck_at_universe(s298), 0)


# ----------------------------------------------------------------------
# outcome identity: merged result == single-process result
# ----------------------------------------------------------------------


class TestOutcomeIdentity:
    @pytest.mark.parametrize("jobs", [1, 2, 4, 7], ids="{}-round-robin".format)
    def test_detections_identical_any_sharding(self, s298, s298_tests, jobs):
        base = run_stuck_at(s298, s298_tests, "csim-MV")
        merged = execute(
            Campaign(s298, s298_tests, "csim-MV", jobs=jobs),
            executor=SequentialExecutor(),
        )
        assert merged.detected == base.detected
        assert merged.potentially_detected == base.potentially_detected
        assert merged.num_faults == base.num_faults
        assert merged.coverage == base.coverage

    def test_k1_is_fully_identical(self, s298, s298_tests):
        base = run_stuck_at(s298, s298_tests, "csim-MV")
        merged = execute(
            Campaign(s298, s298_tests, "csim-MV", jobs=1), executor=SequentialExecutor()
        )
        assert merged.detected == base.detected
        assert merged.counters == base.counters
        assert merged.memory == base.memory
        assert not merged.truncated

    @pytest.mark.parametrize("engine", ["csim", "csim-MV", "PROOFS"])
    def test_every_engine_shards(self, s298, s298_tests, engine):
        base = run_stuck_at(s298, s298_tests, engine)
        merged = execute(
            Campaign(s298, s298_tests, engine, jobs=3),
            executor=SequentialExecutor(),
        )
        assert merged.detected == base.detected

    def test_transition_shards(self, s298, s298_tests):
        base = run_transition(s298, s298_tests)
        merged = execute(
            Campaign(s298, s298_tests, mode="transition", jobs=3),
            executor=SequentialExecutor(),
        )
        assert merged.detected == base.detected
        assert merged.potentially_detected == base.potentially_detected

    def test_executors_agree_exactly(self, s298, s298_tests):
        """The multiprocessing pool and its in-process twin must produce
        the same merged result, counters and telemetry included."""
        kwargs = dict(jobs=2, tracer=RecordingTracer())
        seq = execute(
            Campaign(s298, s298_tests, "csim-MV", **kwargs),
            executor=SequentialExecutor(),
        )
        mp = execute(
            Campaign(s298, s298_tests, "csim-MV", **kwargs),
            executor=MultiprocessExecutor(2),
        )
        assert mp.detected == seq.detected
        assert mp.counters == seq.counters
        assert mp.memory == seq.memory
        assert mp.telemetry is not None
        assert mp.telemetry.cycles == seq.telemetry.cycles

    def test_explicit_fault_subset(self, s298, s298_tests):
        subset = stuck_at_universe(s298)[::3]
        base = run_stuck_at(s298, s298_tests, "csim-MV", faults=subset)
        merged = execute(
            Campaign(s298, s298_tests, "csim-MV", faults=subset, jobs=4),
            executor=SequentialExecutor(),
        )
        assert merged.detected == base.detected
        assert merged.num_faults == len(subset)

    def test_merged_telemetry_sums_per_cycle_work(self, s298, s298_tests):
        merged = execute(
            Campaign(s298, s298_tests, "csim-MV", jobs=2, tracer=RecordingTracer()),
            executor=SequentialExecutor(),
        )
        assert merged.telemetry is not None
        rows = merged.telemetry.cycles
        assert len(rows) == len(s298_tests.vectors)
        assert sum(r["fault_evaluations"] for r in rows) == (
            merged.counters.fault_evaluations
        )


class TestMerge:
    def test_merge_of_one_is_identity(self, s298, s298_tests):
        base = run_stuck_at(s298, s298_tests, "csim-MV")
        merged = merge_results([base])
        assert merged.detected == base.detected
        assert merged.counters == base.counters
        assert merged.truncation_reason == base.truncation_reason

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_results([])

    def test_truncation_flag_propagates(self, s298, s298_tests):
        whole = run_stuck_at(s298, s298_tests, "csim-MV")
        clipped = run_stuck_at(
            s298, s298_tests, "csim-MV", budget=Budget(max_cycles=4)
        )
        merged = merge_results([whole, clipped])
        assert merged.truncated
        assert merged.truncation_reason.startswith("shard 1/2:")
        # The shared vector count is the one every shard completed.
        assert merged.num_vectors == clipped.num_vectors


# ----------------------------------------------------------------------
# hypothesis: partition invariance on adversarial circuits
# ----------------------------------------------------------------------


@st.composite
def parallel_case(draw):
    seed = draw(st.integers(0, 2**20))
    circuit = random_circuit(
        random.Random(seed),
        num_inputs=draw(st.integers(2, 4)),
        num_gates=draw(st.integers(5, 16)),
        num_dffs=draw(st.integers(0, 3)),
        num_outputs=2,
        name=f"par{seed}",
    )
    vec_seed = draw(st.integers(0, 2**20))
    tests = random_sequence(circuit, draw(st.integers(2, 10)), seed=vec_seed)
    return circuit, tests


class TestPartitionInvarianceProperty:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=parallel_case())
    def test_any_k_matches_k1(self, case):
        circuit, tests = case
        base = execute(Campaign(circuit, tests, "csim-MV", jobs=1))
        for jobs in (2, 4, 7):
            merged = execute(
                Campaign(circuit, tests, "csim-MV", jobs=jobs),
                executor=SequentialExecutor(),
            )
            assert merged.detected == base.detected
            assert merged.potentially_detected == base.potentially_detected
            assert merged.num_faults == base.num_faults
            assert merged.coverage == base.coverage


# ----------------------------------------------------------------------
# resilience: checkpoints, resume, budgets, interrupts
# ----------------------------------------------------------------------


class TestShardTasks:
    def test_shard_task_carries_only_its_faults_and_scalars(self, s298, s298_tests):
        """No tracer, full universe or collapse map crosses the process boundary."""
        import pickle

        class Capture(SequentialExecutor):
            def run(self, tasks):
                self.tasks = list(tasks)
                return super().run(tasks)

        executor = Capture()
        campaign = Campaign(
            s298, s298_tests, "csim-MV", collapse="equivalence", jobs=2,
            tracer=RecordingTracer(),
        )
        merged = execute(campaign, executor=executor)
        single = execute(Campaign(s298, s298_tests, collapse="equivalence"))
        assert merged.detected == single.detected
        shard_faults = []
        for index, task in enumerate(executor.tasks):
            shard = pickle.loads(pickle.dumps(task)).campaign
            assert (task.index, task.total, task.telemetry) == (index, 2, True)
            assert shard.tracer is None and shard.faults is None
            assert shard.universe.collapsed is None
            assert shard.universe.identity[-4:] == ("shard", "round-robin", index, 2)
            shard_faults.extend(shard.universe.faults)
        assert len(shard_faults) < merged.num_faults  # representatives only
        assert sorted(shard_faults) == sorted(set(shard_faults))


class TestParallelResilience:
    def test_budget_breach_in_one_worker_truncates_merged(self, s298, s298_tests):
        merged = execute(
            Campaign(
                s298,
                s298_tests,
                "csim-MV",
                jobs=2,
                budget=Budget(max_cycles=5),
            ),
            executor=SequentialExecutor(),
        )
        assert merged.truncated
        assert merged.truncation_reason.startswith("shard ")
        assert "cycle budget" in merged.truncation_reason

    def test_kill_resume_bit_identical(self, s298, s298_tests, tmp_path):
        """Interrupt a sharded campaign after one shard, resume it, and
        diff against the uninterrupted run: detections, counters and
        memory must all match."""
        base_path = str(tmp_path / "campaign.ckpt")
        uninterrupted = execute(
            Campaign(s298, s298_tests, "csim-MV", jobs=4),
            executor=SequentialExecutor(),
        )

        def bomb(index, result):
            raise KeyboardInterrupt

        with pytest.raises(CampaignInterrupted) as info:
            execute(
                Campaign(
                    s298,
                    s298_tests,
                    "csim-MV",
                    jobs=4,
                    checkpoint_path=base_path,
                    checkpoint_every=8,
                ),
                executor=SequentialExecutor(on_result=bomb),
            )
        # The resume hint names the campaign base path, not a shard file.
        assert info.value.checkpoint_path == base_path

        resumed = execute(
            Campaign(
                s298,
                s298_tests,
                "csim-MV",
                jobs=4,
                checkpoint_path=base_path,
                resume=True,
            ),
            executor=SequentialExecutor(),
        )
        assert resumed.detected == uninterrupted.detected
        assert resumed.counters == uninterrupted.counters
        assert resumed.memory == uninterrupted.memory

    def test_finished_shards_replay_from_checkpoint(self, s298, s298_tests, tmp_path):
        base_path = str(tmp_path / "campaign.ckpt")
        kwargs = dict(jobs=2, checkpoint_path=base_path, checkpoint_every=8)
        full = execute(
            Campaign(s298, s298_tests, "csim-MV", **kwargs),
            executor=SequentialExecutor(),
        )
        assert (tmp_path / "campaign.ckpt.shard00-of-02").exists()
        replay = execute(
            Campaign(s298, s298_tests, "csim-MV", resume=True, **kwargs),
            executor=SequentialExecutor(),
        )
        assert replay.detected == full.detected
        assert replay.counters == full.counters

    def test_resume_under_different_sharding_refused(
        self, s298, s298_tests, tmp_path
    ):
        """Checkpoints written under one shard count are no resume point
        for another (2 -> 3 shards, single-process -> 2): the resume is
        refused, naming the files it found, instead of silently starting
        every shard fresh."""
        for before, after in ((2, 3), (1, 2)):
            directory = tmp_path / f"{before}-to-{after}"
            directory.mkdir()
            base_path = str(directory / "campaign.ckpt")
            execute(
                Campaign(
                    s298, s298_tests, "csim-MV", jobs=before, checkpoint_path=base_path
                )
            )
            written = sorted(path.name for path in directory.iterdir())
            with pytest.raises(CheckpointError, match="partition") as info:
                execute(
                    Campaign(
                        s298,
                        s298_tests,
                        "csim-MV",
                        jobs=after,
                        checkpoint_path=base_path,
                        resume=True,
                    ),
                    executor=SequentialExecutor(),
                )
            assert all(name in str(info.value) for name in written)
            assert sorted(path.name for path in directory.iterdir()) == written

    def test_resume_without_path_rejected(self, s298, s298_tests):
        with pytest.raises(ValueError, match="checkpoint"):
            execute(Campaign(s298, s298_tests, "csim-MV", jobs=2, resume=True))

    def test_shard_checkpoint_paths_are_distinct(self):
        paths = {shard_checkpoint_path("c.ckpt", i, 12) for i in range(12)}
        assert len(paths) == 12


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------


class TestParallelCli:
    def _coverage(self, text):
        import re

        match = re.search(r"(\d+/\d+ faults \([\d.]+%\) in \d+ vectors)", text)
        assert match, text
        return match.group(1)

    def test_jobs_matches_single_process(self, capsys):
        from repro.cli import main

        argv = ["simulate", "s27", "--random-patterns", "40", "--seed", "9"]
        assert main(argv) == 0
        single = self._coverage(capsys.readouterr().out)
        assert main(argv + ["--jobs", "2"]) == 0
        assert self._coverage(capsys.readouterr().out) == single

    def test_trace_with_jobs_writes_span_trace(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.span import read_spans, stitch_trace, trace_ids

        trace_dir = tmp_path / "trace"
        assert (
            main(
                [
                    "simulate",
                    "s27",
                    "--random-patterns",
                    "10",
                    "--jobs",
                    "2",
                    "--trace",
                    str(trace_dir),
                ]
            )
            == 0
        )
        assert "span trace" in capsys.readouterr().err
        spans = read_spans(str(trace_dir))
        ids = trace_ids(spans)
        assert len(ids) == 1
        roots = stitch_trace(spans, ids[0])
        names = {node.name for root in roots for node, _ in root.walk()}
        assert any(name.startswith("shard ") for name in names)
        assert "merge" in names

    def test_bad_jobs_rejected(self, capsys):
        from repro.cli import main

        assert main(["simulate", "s27", "--jobs", "0"]) == 2

    def test_transition_jobs(self, capsys):
        from repro.cli import main

        argv = ["transition", "s27", "--random-patterns", "20", "--seed", "4"]
        assert main(argv) == 0
        single = self._coverage(capsys.readouterr().out)
        assert main(argv + ["--jobs", "2"]) == 0
        assert self._coverage(capsys.readouterr().out) == single


class TestParallelTables:
    def test_prefilled_report_is_byte_identical(self):
        from repro.harness.tables import all_tables

        serial = all_tables(scale=0.15, quick=True, deterministic=True)
        parallel = all_tables(scale=0.15, quick=True, deterministic=True, jobs=2)
        assert parallel == serial
