"""Levelization properties and combinational-cycle detection."""

import random

import pytest

from repro.circuit.generate import random_circuit
from repro.circuit.levelize import LevelizationError, find_cycle, levelize
from repro.circuit.netlist import Circuit, CircuitBuilder, Gate
from repro.logic.tables import GateType


def _two_gate_cycle():
    """``g1 -> g2 -> g1`` with no flip-flop in between."""
    gates = [
        Gate(0, "a", GateType.INPUT, ()),
        Gate(1, "g1", GateType.AND, (0, 2)),
        Gate(2, "g2", GateType.NOT, (1,)),
    ]
    gates[0].fanout = (1,)
    gates[1].fanout = (2,)
    gates[2].fanout = (1,)
    gates[2].is_output = True
    return Circuit("cyclic", gates, [0], [2], [])


def _self_loop():
    """``g`` feeding its own input directly."""
    gates = [
        Gate(0, "a", GateType.INPUT, ()),
        Gate(1, "g", GateType.AND, (0, 1)),
    ]
    gates[0].fanout = (1,)
    gates[1].fanout = (1,)
    gates[1].is_output = True
    return Circuit("selfloop", gates, [0], [1], [])


class TestLevels:
    @pytest.mark.parametrize("seed", range(8))
    def test_levels_respect_fanin(self, seed):
        rng = random.Random(seed)
        circuit = random_circuit(rng, num_gates=25, num_dffs=3)
        for gate in circuit.gates:
            if gate.gtype in (GateType.INPUT, GateType.DFF):
                assert gate.level == 0
            else:
                assert gate.level >= 1
                for source in gate.fanin:
                    assert circuit.gates[source].level < gate.level

    def test_order_is_level_sorted_and_complete(self):
        rng = random.Random(11)
        circuit = random_circuit(rng, num_gates=30, num_dffs=2)
        levels = [circuit.gates[index].level for index in circuit.order]
        assert levels == sorted(levels)
        combinational = {
            gate.index
            for gate in circuit.gates
            if gate.gtype not in (GateType.INPUT, GateType.DFF)
        }
        assert set(circuit.order) == combinational

    def test_num_levels(self):
        builder = CircuitBuilder("chain")
        builder.add_input("a")
        previous = "a"
        for index in range(5):
            builder.add_gate(f"n{index}", GateType.NOT, [previous])
            previous = f"n{index}"
        builder.set_output(previous)
        circuit = builder.build()
        assert circuit.num_levels == 5

    def test_dff_breaks_cycle(self):
        # q feeds g, g feeds q's D input: sequential loop, fine.
        builder = CircuitBuilder("loop")
        builder.add_input("a")
        builder.add_dff("q", "g")
        builder.add_gate("g", GateType.NAND, ["a", "q"])
        builder.set_output("g")
        circuit = builder.build()  # must not raise
        assert circuit.gate("g").level == 1

    def test_combinational_cycle_detected(self):
        with pytest.raises(LevelizationError, match="combinational cycle"):
            levelize(_two_gate_cycle())


class TestCyclePaths:
    """The error must print one concrete offending path, not just names."""

    def test_two_gate_cycle_path_in_message(self):
        with pytest.raises(LevelizationError) as excinfo:
            levelize(_two_gate_cycle())
        message = str(excinfo.value)
        assert "cycle:" in message
        # One rotation of the closed walk g1 -> g2 -> g1.
        assert "g1 -> g2 -> g1" in message or "g2 -> g1 -> g2" in message

    def test_self_loop_path_in_message(self):
        with pytest.raises(LevelizationError) as excinfo:
            levelize(_self_loop())
        assert "g -> g" in str(excinfo.value)

    def test_find_cycle_returns_closed_real_path(self):
        circuit = _two_gate_cycle()
        path = find_cycle([gate.fanin for gate in circuit.gates], [1, 2])
        assert len(path) >= 2
        assert path[0] == path[-1]
        for src, dst in zip(path, path[1:]):
            assert src in circuit.gates[dst].fanin

    def test_find_cycle_empty_on_acyclic_subgraph(self):
        builder = CircuitBuilder("acyclic")
        builder.add_input("a")
        builder.add_gate("m", GateType.NOT, ["a"])
        builder.add_gate("z", GateType.NOT, ["m"])
        builder.set_output("z")
        circuit = builder.build()
        combinational = [g.index for g in circuit.gates if g.gtype is GateType.NOT]
        assert find_cycle([gate.fanin for gate in circuit.gates], combinational) == []

    def test_dff_broken_long_loop_levelizes(self):
        # a three-gate feedback path broken by a flip-flop is legal.
        builder = CircuitBuilder("seqloop")
        builder.add_input("a")
        builder.add_dff("q", "g3")
        builder.add_gate("g1", GateType.NAND, ["a", "q"])
        builder.add_gate("g2", GateType.NOT, ["g1"])
        builder.add_gate("g3", GateType.OR, ["g2", "a"])
        builder.set_output("g3")
        circuit = builder.build()  # levelizes inside build; must not raise
        assert circuit.gate("g3").level == 3
