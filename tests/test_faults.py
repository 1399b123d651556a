"""Fault model, universe enumeration, and equivalence collapsing."""

import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.serial import simulate_serial
from repro.circuit.generate import random_circuit
from repro.circuit.library import load
from repro.faults.collapse import collapse_stuck_at, representative_map, stuck_at_union
from repro.faults.model import OUTPUT_PIN, Fault, FaultKind, StuckAtFault, fault_name
from repro.faults.transition import TransitionFault
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


TRANSITION_KINDS = (FaultKind.SLOW_TO_RISE, FaultKind.SLOW_TO_FALL)


def _fault(gate: int, pin: int, kind: FaultKind) -> Fault:
    cls = TransitionFault if kind in TRANSITION_KINDS else StuckAtFault
    return cls(gate, pin, kind)


faults_strategy = st.builds(
    _fault,
    st.integers(0, 40),
    st.integers(OUTPUT_PIN, 4),
    st.sampled_from(list(FaultKind)),
)

#: ``pickle.dumps(table, protocol=4)`` of the table below, written by the
#: code before faults hashed on ints: checkpoints of that age hold such
#: bytes, and they must still load into working ``Fault``-keyed maps.
OLD_PICKLED_TABLE = (
    b"\x80\x04\x95\x04\x01\x00\x00\x00\x00\x00\x00}\x94(\x8c\x12repro.faults"
    b".model\x94\x8c\x0cStuckAtFault\x94\x93\x94)\x81\x94}\x94(\x8c\x04gate"
    b"\x94K\x03\x8c\x03pin\x94J\xff\xff\xff\xff\x8c\x04kind\x94h\x01\x8c\tFa"
    b"ultKind\x94\x93\x94\x8c\x03SA0\x94\x85\x94R\x94ub\x8c\x01a\x94h\x03)"
    b"\x81\x94}\x94(h\x06K\x03h\x07K\x01h\x08h\n\x8c\x03SA1\x94\x85\x94R\x94"
    b"ub\x8c\x01b\x94\x8c\x17repro.faults.transition\x94\x8c\x0fTransitionF"
    b"ault\x94\x93\x94)\x81\x94}\x94(h\x06K\x07h\x07K\x00h\x08h\n\x8c\x03STR"
    b"\x94\x85\x94R\x94ub\x8c\x01c\x94h\x17)\x81\x94}\x94(h\x06K\x07h\x07K"
    b"\x00h\x08h\n\x8c\x03STF\x94\x85\x94R\x94ub\x8c\x01d\x94u."
)


def old_table():
    return {
        StuckAtFault(3, OUTPUT_PIN, FaultKind.STUCK_AT_0): "a",
        StuckAtFault(3, 1, FaultKind.STUCK_AT_1): "b",
        TransitionFault(7, 0, FaultKind.SLOW_TO_RISE): "c",
        TransitionFault(7, 0, FaultKind.SLOW_TO_FALL): "d",
    }


class TestIdentity:
    """Fault hashing, equality and order: the keys of every fault map."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(faults_strategy, max_size=40))
    def test_sorted_order_is_sort_key_order(self, faults):
        assert [f._sort_key() for f in sorted(faults)] == sorted(
            f._sort_key() for f in faults
        )

    @settings(max_examples=200, deadline=None)
    @given(faults_strategy, faults_strategy)
    def test_comparisons_follow_sort_key(self, a, b):
        ka, kb = a._sort_key(), b._sort_key()
        assert (a < b, a <= b, a > b, a >= b) == (ka < kb, ka <= kb, ka > kb, ka >= kb)
        assert (a == b) == (ka == kb)
        if a == b:
            assert hash(a) == hash(b)

    def test_equality_needs_the_same_class(self):
        assert Fault(1, 0, FaultKind.STUCK_AT_0) != StuckAtFault(1, 0, FaultKind.STUCK_AT_0)
        assert StuckAtFault(1, 0, FaultKind.STUCK_AT_0) == StuckAtFault.make(1, 0, 0)

    def test_hash_is_the_same_in_every_process(self):
        code = (
            "from repro.faults.model import StuckAtFault, OUTPUT_PIN\n"
            "from repro.faults.transition import TransitionFault\n"
            "print(hash(StuckAtFault.make(12, OUTPUT_PIN, 1)),"
            " hash(TransitionFault.make(5, 2, True)))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        printed = []
        for hash_seed in ("1", "2"):
            env["PYTHONHASHSEED"] = hash_seed
            completed = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, env=env, check=True
            )
            printed.append(completed.stdout)
        assert printed[0] == printed[1]
        assert printed[0].split() == [
            str(hash(StuckAtFault.make(12, OUTPUT_PIN, 1))).encode(),
            str(hash(TransitionFault.make(5, 2, True))).encode(),
        ]

    def test_pickle_round_trip(self):
        for fault in old_table():
            copy = pickle.loads(pickle.dumps(fault, protocol=pickle.HIGHEST_PROTOCOL))
            assert type(copy) is type(fault)
            assert copy == fault
            assert hash(copy) == hash(fault)

    def test_map_pickled_before_int_hashing_still_loads(self):
        loaded = pickle.loads(OLD_PICKLED_TABLE)
        table = old_table()
        assert loaded == table
        assert [type(fault) for fault in loaded] == [type(fault) for fault in table]
        for fault, value in table.items():
            assert loaded[fault] == value


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
