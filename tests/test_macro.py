"""Macro extraction: partition invariants, value-exactness, fault tables.

:func:`evaluate_region` is the reference for region tables: it simulates a
region's flat gates one input combination at a time, in the same
three-valued algebra as the flat simulator.  Every good table
:func:`extract_macros` builds and every faulty table
:meth:`MacroCircuit.translate_stuck_at` returns must equal the table this
reference tabulates.  ``PYTHONPATH=src python -m tests.test_macro
[--caps 2,4,6] [--circuits s27,s298]`` runs the comparison on library
circuits (all of them at cap 4 by default).
"""

import argparse
import itertools
import random
import sys
import time
from typing import Dict, Optional, Sequence
from weakref import WeakKeyDictionary

import pytest
from hypothesis import given, settings, strategies as st

import repro.circuit.macro as macro_module
from repro.circuit.generate import random_circuit
from repro.circuit.hierarchy import HierarchicalBuilder, Module
from repro.circuit.library import available_circuits, load
from repro.circuit.macro import Region, RegionTables, extract_macros
from repro.circuit.netlist import Circuit, CircuitBuilder, evaluate_gate
from repro.concurrent.engine import ConcurrentFaultSimulator
from repro.concurrent.options import CSIM_MV
from repro.faults.model import OUTPUT_PIN, StuckAtFault
from repro.faults.universe import all_stuck_at_faults
from repro.logic.tables import GateType, build_table
from repro.logic.values import ONE, VALUES, ZERO
from repro.patterns.random_gen import random_sequence
from repro.sim.logicsim import LogicSimulator


def evaluate_region(
    flat: Circuit,
    region: Region,
    pin_values: Sequence[int],
    injection: Optional[StuckAtFault] = None,
) -> int:
    """Three-valued evaluation of a region, optionally with one stuck fault.

    The injection is a stuck-at fault on a flat gate inside the region
    (input pin or output line); pin forcing is applied when the owning gate
    is evaluated, output forcing right after it.

    Duplicate pins (one source feeding two pins) are written in pin order;
    at run time the macro's fanin reads the same source for both pins, so
    only consistent (equal-valued) combinations are ever looked up and the
    inconsistent table entries this writes are unreachable.
    """
    values: Dict[int, int] = {}
    for pin_index, source in enumerate(region.pins):
        values[source] = pin_values[pin_index]
    for gate_index in region.internal:
        gate = flat.gates[gate_index]
        inputs = [values[source] for source in gate.fanin]
        if (
            injection is not None
            and injection.gate == gate_index
            and injection.pin != OUTPUT_PIN
        ):
            inputs[injection.pin] = injection.value
        value = evaluate_gate(gate, inputs)
        if (
            injection is not None
            and injection.gate == gate_index
            and injection.pin == OUTPUT_PIN
        ):
            value = injection.value
        values[gate_index] = value
    return values[region.root]


def reference_tables(flat: Circuit, region: Region, faults=()):
    """``build_table`` of :func:`evaluate_region` for the good region and
    then each of *faults*, tabulated in one pass over the packed indices."""
    injections = (None,) + tuple(faults)
    rows = build_table(
        lambda inputs: tuple(
            evaluate_region(flat, region, inputs, injection) for injection in injections
        ),
        len(region.pins),
    )
    return [
        tuple(row[column] if isinstance(row, tuple) else row for row in rows)
        for column in range(len(injections))
    ]


def check_region_tables(circuit: Circuit, cap: int, preassigned=()) -> int:
    """Compare every good and faulty table of one extraction against the
    reference; returns how many tables were compared."""
    macro = extract_macros(circuit, cap, preassigned=preassigned)
    tables = RegionTables(circuit)
    faulty: Dict[int, list] = {root: [] for root in macro.regions}
    for fault in all_stuck_at_faults(circuit):
        _, behavior, _, _, table = macro.translate_stuck_at(fault, tables)
        if behavior == "table":
            faulty[macro.owner[fault.gate]].append((fault, table))
    checked = 0
    for root, region in macro.regions.items():
        if root in macro.plain_roots:
            assert not faulty[root]
            continue
        good, *expected = reference_tables(circuit, region, [f for f, _ in faulty[root]])
        assert macro.good_table(root) == good, (
            f"{circuit.name} cap {cap}: good table of {circuit.gates[root].name}"
        )
        for (fault, table), reference in zip(faulty[root], expected):
            assert table == reference, f"{circuit.name} cap {cap}: faulty table of {fault}"
        checked += 1 + len(expected)
    return checked


class TestPartition:
    @pytest.mark.parametrize("seed", range(6))
    def test_every_combinational_gate_owned_once(self, seed):
        rng = random.Random(seed)
        circuit = random_circuit(rng, num_gates=30, num_dffs=3)
        macro = extract_macros(circuit)
        combinational = {
            gate.index
            for gate in circuit.gates
            if gate.gtype not in (GateType.INPUT, GateType.DFF)
        }
        assert set(macro.owner) == combinational
        covered = [
            index for region in macro.regions.values() for index in region.internal
        ]
        assert sorted(covered) == sorted(combinational)

    def test_input_cap_respected(self):
        circuit = load("s27")
        for cap in (1, 2, 3, 4):
            macro = extract_macros(circuit, max_inputs=cap)
            for root, region in macro.regions.items():
                if root not in macro.plain_roots:
                    assert len(region.pins) <= cap

    def test_macro_circuit_preserves_interface(self):
        circuit = load("s27")
        macro = extract_macros(circuit).circuit
        assert len(macro.inputs) == len(circuit.inputs)
        assert len(macro.outputs) == len(circuit.outputs)
        assert len(macro.dffs) == len(circuit.dffs)
        assert {circuit.gates[i].name for i in circuit.outputs} == {
            macro.gates[i].name for i in macro.outputs
        }

    def test_extraction_reduces_gate_count(self):
        circuit = load("s344")
        macro = extract_macros(circuit).circuit
        assert macro.num_combinational < circuit.num_combinational

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError):
            extract_macros(load("s27"), max_inputs=0)

    def test_summary_mentions_counts(self):
        text = extract_macros(load("s27")).summary()
        assert "regions" in text


class TestValueExactness:
    @pytest.mark.parametrize("seed", range(6))
    def test_macro_circuit_simulates_identically(self, seed):
        rng = random.Random(seed + 40)
        circuit = random_circuit(rng, num_gates=25, num_dffs=3)
        macro = extract_macros(circuit).circuit
        flat_sim = LogicSimulator(circuit)
        macro_sim = LogicSimulator(macro)
        for vector in random_sequence(circuit, 15, seed=seed, x_probability=0.1):
            assert flat_sim.step(vector) == macro_sim.step(vector)

    def test_exactness_includes_x_semantics(self):
        # The macro table must reproduce gate-wise X pessimism, not the
        # (more accurate) function over completions: g = OR(a, NOT(a)) is
        # X for a=X gate-wise even though every completion yields 1.
        builder = CircuitBuilder("pess")
        builder.add_input("a")
        builder.add_gate("n", GateType.NOT, ["a"])
        builder.add_gate("g", GateType.OR, ["a", "n"])
        builder.set_output("g")
        circuit = builder.build()
        macro = extract_macros(circuit).circuit
        sim = LogicSimulator(macro)
        sim.settle((VALUES[2],))  # X
        assert sim.values[macro.index_of("g")] == VALUES[2]


class TestFaultTranslation:
    def test_internal_fault_becomes_table(self):
        builder = CircuitBuilder("tree")
        for name in "abcd":
            builder.add_input(name)
        builder.add_gate("l", GateType.AND, ["a", "b"])
        builder.add_gate("r", GateType.OR, ["c", "d"])
        builder.add_gate("g", GateType.NAND, ["l", "r"])
        builder.set_output("g")
        circuit = builder.build()
        macro = extract_macros(circuit, max_inputs=4)
        fault = StuckAtFault.make(circuit.index_of("l"), OUTPUT_PIN, 0)
        site, behavior, pin, value, table = macro.translate_stuck_at(fault)
        assert behavior == "table"
        assert macro.circuit.gates[site].name == "g"
        # With l stuck 0, g = NAND(0, r) = 1 for every input combination.
        good_table = macro.circuit.gates[site].table
        assert table != good_table
        for inputs in itertools.product((ZERO, ONE), repeat=4):
            from repro.logic.tables import pack_inputs

            assert table[pack_inputs(inputs)] == ONE

    def test_pi_fault_stays_structural(self):
        circuit = load("s27")
        macro = extract_macros(circuit)
        pi = circuit.inputs[0]
        site, behavior, pin, value, table = macro.translate_stuck_at(
            StuckAtFault.make(pi, OUTPUT_PIN, 1)
        )
        assert behavior == "force_output"
        assert table is None
        assert macro.circuit.gates[site].gtype is GateType.INPUT

    def test_dff_faults_stay_structural(self):
        circuit = load("s27")
        macro = extract_macros(circuit)
        ff = circuit.dffs[0]
        site, behavior, pin, value, table = macro.translate_stuck_at(
            StuckAtFault.make(ff, 0, 0)
        )
        assert behavior == "force_input"
        assert macro.circuit.gates[site].gtype is GateType.DFF

    @pytest.mark.parametrize("seed", range(3))
    def test_every_fault_translates(self, seed):
        rng = random.Random(seed + 77)
        circuit = random_circuit(rng, num_gates=20, num_dffs=2)
        macro = extract_macros(circuit)
        for fault in all_stuck_at_faults(circuit):
            site, behavior, pin, value, table = macro.translate_stuck_at(fault)
            assert 0 <= site < len(macro.circuit.gates)
            assert behavior in ("force_output", "force_input", "table")
            if behavior == "table":
                assert table is not None


class TestRegionTablesMatchReference:
    @pytest.mark.parametrize("cap", (2, 4, 6))
    @pytest.mark.parametrize("name", ("s27", "s298", "s386", "s526", "s1196"))
    def test_library_circuit(self, name, cap):
        assert check_region_tables(load(name), cap) > 0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        num_gates=st.integers(4, 24),
        cap=st.integers(1, 6),
    )
    def test_generated_circuits(self, seed, num_gates, cap):
        rng = random.Random(seed)
        circuit = random_circuit(rng, num_gates=num_gates, num_dffs=rng.randrange(3))
        check_region_tables(circuit, cap)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_hierarchy_regions_with_internal_fanout(self, data):
        module = data.draw(modules())
        top = HierarchicalBuilder("top")
        signals = [f"i{index}" for index in range(4)]
        for name in signals:
            top.add_input(name)
        for instance in range(3):
            connections = {port: data.draw(st.sampled_from(signals)) for port in module.ports}
            top.add_instance(f"u{instance}", module, connections)
            signals.append(f"u{instance}")
        top.set_output(signals[-1])
        hierarchy = top.build()
        cap = data.draw(st.integers(2, 6))
        regions = hierarchy.instance_regions(cap)
        check_region_tables(hierarchy.flat, cap, preassigned=regions)


@st.composite
def modules(draw):
    """A single-output combinational module whose gates chain into its
    output, each reading any earlier signals too (so internal lines fan
    out inside the module)."""
    builder = CircuitBuilder("blk")
    signals = [f"p{index}" for index in range(draw(st.integers(1, 4)))]
    for name in signals:
        builder.add_input(name)
    previous = None
    for index in range(draw(st.integers(1, 6))):
        gtype = draw(st.sampled_from(
            (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
             GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF)
        ))
        arity = 1 if gtype in (GateType.NOT, GateType.BUF) else draw(st.integers(2, 3))
        fanin = [draw(st.sampled_from(signals)) for _ in range(arity)]
        if previous is not None:
            fanin[0] = previous
        previous = f"g{index}"
        builder.add_gate(previous, gtype, fanin)
        signals.append(previous)
    builder.set_output(previous)
    return Module("blk", builder.build())


def twin_trees() -> Circuit:
    """Two regions of one shape: NAND(AND(a, b), OR(c, d)), twice."""
    builder = CircuitBuilder("twins")
    for name in "abcdefgh":
        builder.add_input(name)
    for prefix, (a, b, c, d) in (("x", "abcd"), ("y", "efgh")):
        builder.add_gate(f"{prefix}l", GateType.AND, [a, b])
        builder.add_gate(f"{prefix}r", GateType.OR, [c, d])
        builder.add_gate(f"{prefix}g", GateType.NAND, [f"{prefix}l", f"{prefix}r"])
        builder.set_output(f"{prefix}g")
    return builder.build()


class TestTableSharing:
    def test_same_shape_shares_one_tuple(self):
        circuit = twin_trees()
        sim = ConcurrentFaultSimulator(
            circuit, all_stuck_at_faults(circuit), options=CSIM_MV
        )
        gates = sim.circuit.gates
        x, y = (gates[sim.circuit.index_of(f"{p}g")] for p in "xy")
        assert x.table is y.table
        by_fault = {d.fault: d for d in sim.descriptors}
        for name in ("l", "r", "g"):
            for pin in (OUTPUT_PIN, 0):
                for value in (0, 1):
                    first, second = (
                        by_fault[StuckAtFault.make(circuit.index_of(p + name), pin, value)]
                        for p in "xy"
                    )
                    assert first.table is second.table

    def test_no_table_cache_outlives_an_engine(self):
        circuit = twin_trees()
        first = ConcurrentFaultSimulator(circuit, options=CSIM_MV)
        second = ConcurrentFaultSimulator(circuit, options=CSIM_MV)
        faulty = [
            (a.table, b.table)
            for a, b in zip(first.descriptors, second.descriptors)
            if a.table is not None
        ]
        assert faulty
        for a, b in faulty:
            assert a == b and a is not b
        assert not any(isinstance(value, RegionTables) for value in vars(first).values())
        caches = [
            name
            for name, value in vars(macro_module).items()
            if not name.startswith("__")
            and (
                isinstance(value, (dict, WeakKeyDictionary))
                or getattr(value, "__module__", None) == macro_module.__name__
                and hasattr(value, "cache_info")
            )
        ]
        assert caches == []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--caps", default="4", help="comma-separated macro input caps")
    parser.add_argument("--circuits", default=",".join(available_circuits()))
    args = parser.parse_args(argv)
    for name in args.circuits.split(","):
        circuit = load(name)
        for cap in (int(cap) for cap in args.caps.split(",")):
            start = time.perf_counter()
            checked = check_region_tables(circuit, cap)
            print(f"{name} cap {cap}: {checked} tables equal the reference "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
