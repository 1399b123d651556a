"""Fault model, universe enumeration, and equivalence collapsing."""

import random

import pytest

from repro.baselines.serial import simulate_serial
from repro.circuit.generate import random_circuit
from repro.circuit.library import load
from repro.faults.collapse import collapse_stuck_at, representative_map, stuck_at_union
from repro.faults.model import OUTPUT_PIN, FaultKind, StuckAtFault, fault_name
from repro.faults.universe import all_stuck_at_faults, stuck_at_universe
from repro.logic.tables import GateType
from repro.patterns.random_gen import random_sequence


def equivalence_classes(circuit):
    """Representative -> members, over the full stuck-at universe."""
    rep_of = representative_map(stuck_at_union(circuit), all_stuck_at_faults(circuit))
    classes = {}
    for fault, representative in rep_of.items():
        classes.setdefault(representative, []).append(fault)
    return classes


class TestModel:
    def test_make_and_value(self):
        fault = StuckAtFault.make(3, 1, 0)
        assert fault.kind is FaultKind.STUCK_AT_0
        assert fault.value == 0
        assert not fault.on_output

    def test_output_fault(self):
        fault = StuckAtFault.make(3, OUTPUT_PIN, 1)
        assert fault.on_output
        assert fault.site == (3, OUTPUT_PIN)

    def test_ordering_deterministic(self):
        faults = [
            StuckAtFault.make(1, 0, 1),
            StuckAtFault.make(0, OUTPUT_PIN, 0),
            StuckAtFault.make(1, 0, 0),
        ]
        ordered = sorted(faults)
        assert ordered[0].gate == 0
        assert ordered[1].kind is FaultKind.STUCK_AT_0

    def test_fault_name(self):
        circuit = load("s27")
        g9 = circuit.index_of("G9")
        assert fault_name(circuit, StuckAtFault.make(g9, 1, 0)) == "G9/IN1:SA0"
        assert fault_name(circuit, StuckAtFault.make(g9, OUTPUT_PIN, 1)) == "G9:SA1"

    def test_hashable_and_frozen(self):
        fault = StuckAtFault.make(1, 2, 0)
        assert fault in {fault}
        with pytest.raises(Exception):
            fault.gate = 5  # type: ignore[misc]


class TestUniverse:
    def test_full_universe_counts(self):
        circuit = load("s27")
        faults = all_stuck_at_faults(circuit)
        pins = sum(
            gate.arity for gate in circuit.gates if gate.gtype is not GateType.INPUT
        )
        assert len(faults) == 2 * (len(circuit.gates) + pins)

    def test_universe_is_deterministic(self):
        circuit = load("s27")
        assert all_stuck_at_faults(circuit) == all_stuck_at_faults(circuit)

    def test_collapsed_is_subset(self):
        circuit = load("s27")
        full = set(all_stuck_at_faults(circuit))
        collapsed = stuck_at_universe(circuit)
        assert set(collapsed) <= full
        assert len(collapsed) < len(full)

    def test_no_collapse_option(self):
        circuit = load("s27")
        assert len(stuck_at_universe(circuit, collapse=False)) == len(
            all_stuck_at_faults(circuit)
        )


class TestCollapse:
    def test_not_gate_rule(self):
        # NOT: input s-a-0 == output s-a-1.
        from repro.circuit.netlist import CircuitBuilder

        builder = CircuitBuilder("inv")
        builder.add_input("a")
        builder.add_gate("g", GateType.NOT, ["a"])
        builder.set_output("g")
        circuit = builder.build()
        g = circuit.index_of("g")
        classes = equivalence_classes(circuit)
        grouped = {
            frozenset(members) for members in classes.values() if len(members) > 1
        }
        assert any(
            StuckAtFault.make(g, 0, 0) in group
            and StuckAtFault.make(g, OUTPUT_PIN, 1) in group
            for group in grouped
        )

    def test_and_gate_rule_collapses_all_input_sa0(self):
        from repro.circuit.netlist import CircuitBuilder

        builder = CircuitBuilder("and3")
        for name in "abc":
            builder.add_input(name)
        builder.add_gate("g", GateType.AND, ["a", "b", "c"])
        builder.set_output("g")
        circuit = builder.build()
        g = circuit.index_of("g")
        classes = equivalence_classes(circuit)
        for members in classes.values():
            if StuckAtFault.make(g, OUTPUT_PIN, 0) in members:
                for pin in range(3):
                    assert StuckAtFault.make(g, pin, 0) in members

    def test_equivalence_classes_partition(self):
        circuit = load("s27")
        faults = all_stuck_at_faults(circuit)
        classes = equivalence_classes(circuit)
        members = [fault for group in classes.values() for fault in group]
        assert sorted(members) == sorted(faults)
        for representative, group in classes.items():
            assert representative == min(group)

    def test_collapse_unions_through_unlisted_sites(self):
        """Two pin faults equivalent only through the output-line fault the
        list leaves out still collapse to one representative."""
        from repro.circuit.netlist import CircuitBuilder

        builder = CircuitBuilder("and2")
        builder.add_input("a")
        builder.add_input("b")
        builder.add_gate("g", GateType.AND, ["a", "b"])
        builder.set_output("g")
        circuit = builder.build()
        g = circuit.index_of("g")
        pins = [StuckAtFault.make(g, pin, 0) for pin in (1, 0)]
        assert collapse_stuck_at(circuit, pins) == [StuckAtFault.make(g, 0, 0)]

    @pytest.mark.parametrize("seed", range(4))
    def test_collapsed_classes_are_truly_equivalent(self, seed):
        """Faults collapsed together must have identical detection profiles."""
        rng = random.Random(seed)
        circuit = random_circuit(rng, num_inputs=3, num_gates=10, num_dffs=1)
        faults = all_stuck_at_faults(circuit)
        classes = equivalence_classes(circuit)
        tests = random_sequence(circuit, 30, seed=seed + 100)
        result = simulate_serial(circuit, tests.vectors, faults, drop_detected=False)
        for group in classes.values():
            cycles = {result.detected.get(fault) for fault in group}
            assert len(cycles) == 1, f"class {group} split into {cycles}"

    def test_stem_branch_not_collapsed_across_dff(self):
        from repro.circuit.netlist import CircuitBuilder

        builder = CircuitBuilder("ffb")
        builder.add_input("a")
        builder.add_gate("g", GateType.NOT, ["a"])
        builder.add_dff("q", "g")
        builder.set_output("q")
        circuit = builder.build()
        g = circuit.index_of("g")
        q = circuit.index_of("q")
        collapsed = set(collapse_stuck_at(circuit, all_stuck_at_faults(circuit)))
        # g's output faults and q's D-pin faults both survive or map to
        # different representatives (never merged).
        classes = equivalence_classes(circuit)
        rep_of = {}
        for representative, group in classes.items():
            for fault in group:
                rep_of[fault] = representative
        assert rep_of[StuckAtFault.make(g, OUTPUT_PIN, 0)] != rep_of[
            StuckAtFault.make(q, 0, 0)
        ]
        assert collapsed  # sanity
