"""Test compaction post-processing and VCD export."""

import io

import pytest

from repro.circuit.library import load
from repro.circuit.netlist import CircuitBuilder
from repro.concurrent.engine import ConcurrentFaultSimulator
from repro.concurrent.options import CSIM_V
from repro.faults.universe import stuck_at_universe
from repro.logic.tables import GateType
from repro.logic.values import ONE, ZERO
from repro.patterns.postprocess import (
    compact_tests,
    remove_redundant_blocks,
    trim_to_coverage_prefix,
)
from repro.patterns.random_gen import random_sequence
from repro.sim.delays import DelayModel
from repro.sim.eventsim import EventSimulator
from repro.sim.vcd import write_vcd


class TestPostprocess:
    @pytest.fixture(scope="class")
    def setup(self):
        circuit = load("s27")
        tests = random_sequence(circuit, 120, seed=3)
        faults = stuck_at_universe(circuit)
        return circuit, tests, faults

    def _coverage(self, circuit, tests, faults):
        return ConcurrentFaultSimulator(circuit, faults, CSIM_V).run(tests).coverage

    def test_prefix_trim_preserves_coverage(self, setup):
        circuit, tests, faults = setup
        trimmed = trim_to_coverage_prefix(circuit, tests, faults)
        assert len(trimmed) <= len(tests)
        assert self._coverage(circuit, trimmed, faults) == self._coverage(
            circuit, tests, faults
        )

    def test_prefix_trim_is_tight(self, setup):
        circuit, tests, faults = setup
        trimmed = trim_to_coverage_prefix(circuit, tests, faults)
        if len(trimmed) > 1:
            shorter = trimmed.prefix(len(trimmed) - 1)
            assert self._coverage(circuit, shorter, faults) < self._coverage(
                circuit, trimmed, faults
            )

    def test_block_removal_preserves_coverage(self, setup):
        circuit, tests, faults = setup
        compacted, simulations = remove_redundant_blocks(
            circuit, tests, faults, block_length=16
        )
        assert simulations >= 1
        assert self._coverage(circuit, compacted, faults) >= self._coverage(
            circuit, tests, faults
        )

    def test_compact_pipeline(self, setup):
        circuit, tests, faults = setup
        compacted = compact_tests(circuit, tests, faults, block_length=16)
        assert len(compacted) <= len(tests)
        assert self._coverage(circuit, compacted, faults) == self._coverage(
            circuit, tests, faults
        )

    def test_undetecting_sequence_trims_to_nothing(self):
        circuit = load("s27")
        # One all-X vector detects nothing.
        from repro.logic.values import X
        from repro.patterns.vectors import TestSequence

        tests = TestSequence(4, [(X, X, X, X)])
        trimmed = trim_to_coverage_prefix(circuit, tests)
        assert len(trimmed) == 0


class TestVcd:
    def _hazard_sim(self):
        builder = CircuitBuilder("hazard")
        builder.add_input("a")
        builder.add_gate("n", GateType.NOT, ["a"])
        builder.add_gate("g", GateType.AND, ["a", "n"])
        builder.set_output("g")
        circuit = builder.build()
        delays = DelayModel(circuit, {circuit.index_of("n"): 5, circuit.index_of("g"): 1})
        sim = EventSimulator(circuit, delays, record=True)
        sim.set_input(0, ZERO, at_time=0)
        sim.run()
        sim.set_input(0, ONE, at_time=sim.time + 1)
        sim.run()
        return circuit, sim

    def test_requires_recording(self):
        circuit = load("s27")
        sim = EventSimulator(circuit)
        with pytest.raises(ValueError, match="record=True"):
            write_vcd(sim, io.StringIO())

    def test_header_and_changes(self):
        circuit, sim = self._hazard_sim()
        out = io.StringIO()
        changes = write_vcd(sim, out)
        text = out.getvalue()
        assert "$enddefinitions" in text
        assert "$var wire 1" in text
        assert changes == len(sim.trace)
        # The hazard pulse on g must appear: a 1 then a 0 on g's id.
        g_id = None
        for line in text.splitlines():
            if line.endswith(" g $end"):
                g_id = line.split()[3]
        assert g_id is not None
        assert f"1{g_id}" in text and f"0{g_id}" in text

    def test_signal_filter(self):
        circuit, sim = self._hazard_sim()
        out = io.StringIO()
        write_vcd(sim, out, signals=["g"])
        text = out.getvalue()
        assert " g $end" in text
        assert " n $end" not in text

    def test_time_markers_monotone(self):
        circuit, sim = self._hazard_sim()
        out = io.StringIO()
        write_vcd(sim, out)
        times = [
            int(line[1:])
            for line in out.getvalue().splitlines()
            if line.startswith("#")
        ]
        assert times == sorted(times)
