"""Unit-level behaviour of the concurrent fault simulator."""

import pytest

from repro.circuit.library import load
from repro.circuit.netlist import CircuitBuilder
from repro.concurrent.engine import ConcurrentFaultSimulator
from repro.concurrent.options import CSIM, CSIM_MV, CSIM_V, SimOptions
from repro.faults.model import OUTPUT_PIN, StuckAtFault
from repro.faults.universe import stuck_at_universe
from repro.logic.tables import GateType
from repro.logic.values import ONE, X, ZERO
from repro.patterns.random_gen import random_sequence


def and_circuit():
    builder = CircuitBuilder("and2")
    builder.add_input("a")
    builder.add_input("b")
    builder.add_gate("g", GateType.AND, ["a", "b"])
    builder.set_output("g")
    return builder.build()


def shift_register():
    builder = CircuitBuilder("shift")
    builder.add_input("a")
    builder.add_gate("buf", GateType.BUF, ["a"])
    builder.add_dff("q1", "buf")
    builder.add_gate("mid", GateType.BUF, ["q1"])
    builder.add_dff("q2", "mid")
    builder.set_output("q2")
    return builder.build()


class TestSingleGateDetection:
    def test_and_input_sa0_detected_by_11(self):
        circuit = and_circuit()
        g = circuit.index_of("g")
        fault = StuckAtFault.make(g, 0, 0)
        sim = ConcurrentFaultSimulator(circuit, [fault])
        assert sim.step((ONE, ONE)) == [fault]
        assert sim.detected[fault] == 1

    def test_and_input_sa0_not_detected_by_masked_vector(self):
        circuit = and_circuit()
        g = circuit.index_of("g")
        fault = StuckAtFault.make(g, 0, 0)
        sim = ConcurrentFaultSimulator(circuit, [fault])
        assert sim.step((ONE, ZERO)) == []  # other input masks
        assert sim.step((ZERO, ONE)) == []  # fault not excited
        assert sim.step((ONE, ONE)) == [fault]
        assert sim.detected[fault] == 3

    def test_x_blocks_detection(self):
        circuit = and_circuit()
        g = circuit.index_of("g")
        fault = StuckAtFault.make(g, OUTPUT_PIN, 0)
        sim = ConcurrentFaultSimulator(circuit, [fault])
        assert sim.step((ONE, X)) == []  # good output is X: no detection
        assert sim.step((ONE, ONE)) == [fault]


class TestSequentialBehaviour:
    def test_latency_through_flip_flops(self):
        circuit = shift_register()
        pi = circuit.index_of("a")
        fault = StuckAtFault.make(pi, OUTPUT_PIN, 0)
        sim = ConcurrentFaultSimulator(circuit, [fault])
        detections = [sim.step((ONE,)) for _ in range(4)]
        # Effect needs two clock edges to reach q2, and the good value must
        # be binary: detection lands exactly at cycle 3.
        assert detections[0] == [] and detections[1] == []
        assert detections[2] == [fault]

    def test_ff_output_stuck_detected_in_first_cycles(self):
        circuit = shift_register()
        q2 = circuit.index_of("q2")
        fault = StuckAtFault.make(q2, OUTPUT_PIN, 1)
        sim = ConcurrentFaultSimulator(circuit, [fault])
        # q2 is observed directly; good is X in cycle 1/2 (no detection),
        # binary 0 at cycle 3.
        results = [sim.step((ZERO,)) for _ in range(3)]
        assert results[2] == [fault]

    def test_fault_effects_persist_in_state(self):
        circuit = shift_register()
        buf = circuit.index_of("buf")
        fault = StuckAtFault.make(buf, OUTPUT_PIN, 1)
        sim = ConcurrentFaultSimulator(circuit, [fault])
        sim.step((ZERO,))
        q1 = circuit.index_of("q1")
        assert sim.vis[q1].get(0) == ONE  # latched fault effect


class TestDropping:
    def test_dropped_fault_elements_removed(self):
        circuit = load("s27")
        faults = stuck_at_universe(circuit)
        sim = ConcurrentFaultSimulator(circuit, faults, CSIM_V)
        for vector in random_sequence(circuit, 60, seed=3):
            sim.step(vector)
        live_fids = set()
        for bucket in sim.vis + sim.invis:
            live_fids.update(bucket.keys())
        detected_fids = {
            d.fid for d in sim.descriptors if d.detected
        }
        assert not (live_fids & detected_fids)

    def test_detection_cycles_equal_with_and_without_dropping(self):
        circuit = load("s27")
        faults = stuck_at_universe(circuit)
        tests = random_sequence(circuit, 40, seed=9)
        with_drop = ConcurrentFaultSimulator(circuit, faults, CSIM).run(tests)
        without = ConcurrentFaultSimulator(
            circuit, faults, CSIM.with_(drop_detected=False)
        ).run(tests)
        assert with_drop.detected == without.detected

    def test_dropping_reduces_work(self):
        circuit = load("s27")
        faults = stuck_at_universe(circuit)
        tests = random_sequence(circuit, 60, seed=9)
        with_drop = ConcurrentFaultSimulator(circuit, faults, CSIM).run(tests)
        without = ConcurrentFaultSimulator(
            circuit, faults, CSIM.with_(drop_detected=False)
        ).run(tests)
        assert (
            with_drop.counters.fault_evaluations
            < without.counters.fault_evaluations
        )


class TestSplitLists:
    def test_split_gives_identical_results(self, s27, s27_tests):
        faults = stuck_at_universe(s27)
        split = ConcurrentFaultSimulator(s27, faults, CSIM_V).run(s27_tests)
        merged = ConcurrentFaultSimulator(s27, faults, CSIM).run(s27_tests)
        assert split.detected == merged.detected

    def test_split_reduces_element_visits(self, s27, s27_tests):
        faults = stuck_at_universe(s27)
        split = ConcurrentFaultSimulator(s27, faults, CSIM_V).run(s27_tests)
        merged = ConcurrentFaultSimulator(s27, faults, CSIM).run(s27_tests)
        assert split.counters.element_visits <= merged.counters.element_visits


class TestWideGates:
    @pytest.mark.parametrize("options", [CSIM, CSIM_V, CSIM_MV], ids=["csim", "csim-V", "csim-MV"])
    def test_gate_wider_than_the_table_bound_matches_serial(self, options):
        """An 8-input gate has no packed table: the engine evaluates its
        unpacked word, with every fault on it, as the serial oracle does."""
        from repro.baselines.serial import simulate_serial
        from repro.faults.universe import all_stuck_at_faults

        builder = CircuitBuilder("wide")
        names = [f"i{index}" for index in range(7)]
        for name in names:
            builder.add_input(name)
        builder.add_dff("q", "w")
        builder.add_gate("w", GateType.NAND, names + ["q"])
        builder.add_gate("o", GateType.XOR, ["w", "i0"])
        builder.set_output("o")
        circuit = builder.build()
        faults = all_stuck_at_faults(circuit)
        tests = random_sequence(circuit, 40, seed=4, x_probability=0.1)
        result = ConcurrentFaultSimulator(circuit, faults, options=options).run(tests)
        assert result.detected == simulate_serial(circuit, tests.vectors, faults).detected
        assert result.detected


class TestMemoryAccounting:
    def test_live_count_matches_lists(self, s27, s27_tests):
        faults = stuck_at_universe(s27)
        sim = ConcurrentFaultSimulator(s27, faults, CSIM_V)
        for vector in s27_tests:
            sim.step(vector)
        actual = sum(len(bucket) for bucket in sim.vis) + sum(
            len(bucket) for bucket in sim.invis
        )
        assert sim._live_elements == actual

    def test_peak_at_least_final(self, s27, s27_tests):
        result = ConcurrentFaultSimulator(
            s27, stuck_at_universe(s27), CSIM_V
        ).run(s27_tests)
        assert result.memory.peak_elements >= result.memory.live_elements
        assert result.memory.peak_megabytes > 0


class TestSnapshotRestore:
    def test_roundtrip_is_exact(self, s27):
        faults = stuck_at_universe(s27)
        sim = ConcurrentFaultSimulator(s27, faults, CSIM_V)
        prefix = random_sequence(s27, 10, seed=1)
        suffix = random_sequence(s27, 10, seed=2)
        for vector in prefix:
            sim.step(vector)
        snap = sim.snapshot()
        for vector in suffix:
            sim.step(vector)
        after_suffix = dict(sim.detected)
        sim.restore(snap)
        for vector in suffix:
            sim.step(vector)
        assert sim.detected == after_suffix

    def test_restore_rolls_back_detections(self, s27):
        sim = ConcurrentFaultSimulator(s27, stuck_at_universe(s27))
        snap = sim.snapshot()
        for vector in random_sequence(s27, 30, seed=4):
            sim.step(vector)
        assert sim.detected
        sim.restore(snap)
        assert not sim.detected
        assert sim.cycle == 0


class TestApiValidation:
    def test_vector_width_checked(self, s27):
        sim = ConcurrentFaultSimulator(s27)
        with pytest.raises(ValueError):
            sim.step((ONE,))

    def test_default_universe_is_collapsed(self, s27):
        sim = ConcurrentFaultSimulator(s27)
        assert sim.faults == stuck_at_universe(s27)

    def test_variant_names(self):
        assert CSIM.variant_name == "csim"
        assert CSIM_V.variant_name == "csim-V"
        assert CSIM_MV.variant_name == "csim-MV"
        assert SimOptions(use_macros=True).variant_name == "csim-M"
        assert "no drop" in CSIM.with_(drop_detected=False).variant_name


class TestSharedCaches:
    """The hot-path caches: per-circuit eval tables and macro transforms
    are built once and shared by every engine instance on that circuit."""

    def test_eval_tables_shared_across_instances(self, s27):
        from repro.concurrent.engine import shared_eval_tables

        first = ConcurrentFaultSimulator(s27, options=CSIM_V)
        second = ConcurrentFaultSimulator(s27, options=CSIM)
        assert first._eval_tables is second._eval_tables
        assert first._eval_tables is shared_eval_tables(s27)

    def test_macro_transform_shared_across_instances(self, s27):
        first = ConcurrentFaultSimulator(s27, options=CSIM_MV)
        second = ConcurrentFaultSimulator(s27, options=CSIM_MV)
        assert first.macro is second.macro
        assert first._eval_tables is second._eval_tables

    def test_distinct_circuits_get_distinct_tables(self, s27):
        from repro.concurrent.engine import shared_eval_tables

        other = load("s298")
        assert shared_eval_tables(s27) is not shared_eval_tables(other)

    def test_descriptors_have_no_dict(self, s27):
        sim = ConcurrentFaultSimulator(s27)
        descriptor = next(d for d in sim.descriptors if d is not None)
        assert not hasattr(descriptor, "__dict__")

    def test_scratch_dict_reused_across_cycles(self, s27):
        sim = ConcurrentFaultSimulator(s27, options=CSIM_MV)
        vectors = random_sequence(s27, 4, seed=2).vectors
        sim.step(vectors[0])
        scratch = sim._scratch_candidates
        for vector in vectors[1:]:
            sim.step(vector)
        assert sim._scratch_candidates is scratch
