"""Structural equivalence collapsing: the one union-find behind every collapse.

Two faults are equivalent when every test for one detects the other; the
classic structural rules capture the gate-local cases:

* AND: any input ``s-a-0`` ≡ output ``s-a-0`` (NAND: ≡ output ``s-a-1``);
* OR: any input ``s-a-1`` ≡ output ``s-a-1`` (NOR: ≡ output ``s-a-0``);
* NOT: input ``s-a-v`` ≡ output ``s-a-(1-v)``; BUF: input ``s-a-v`` ≡
  output ``s-a-v``;
* stem/branch: when a gate drives exactly one input pin and is not itself a
  primary output, its output faults are equivalent to that pin's faults.

The union runs over every structural site, not just the faults a caller
lists: equivalence is transitive, so two input-pin faults may be
equivalent through an output-line fault nobody asked to simulate.  That
is what lets the transition universe, which has no output-line faults at
all, still collapse through inverter and buffer chains.  Each class is
represented by its smallest member under the fault ordering (gate index,
pin, kind), which makes results deterministic.

Collapsing is pure bookkeeping, but it is what makes the paper's fault
counts (Table 2) and coverage denominators meaningful, and it shrinks
every simulator's workload (:mod:`repro.analyze.collapse` adds the exact
expansion back to the full universe).

Faults are never collapsed across flip-flops: a D-pin fault is observed one
cycle later than the equivalent Q fault, so their detection *times* differ
even though their detection sets coincide, and the paper's simulators report
first-detection times.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.circuit.netlist import Circuit
from repro.faults.model import OUTPUT_PIN, Fault, StuckAtFault
from repro.faults.transition import TransitionFault
from repro.logic.tables import GateType


class _UnionFind:
    """Union-find over arbitrary fault objects, growing on demand."""

    def __init__(self) -> None:
        self._parent: Dict[Fault, Fault] = {}

    def find(self, item: Fault) -> Fault:
        self._parent.setdefault(item, item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, left: Fault, right: Fault) -> None:
        self._parent[self.find(left)] = self.find(right)


#: Controlling input value and the equivalent output value, per gate type.
_EQUIVALENCE_RULES = {
    GateType.AND: (0, 0),
    GateType.NAND: (0, 1),
    GateType.OR: (1, 1),
    GateType.NOR: (1, 0),
}


def _single_loads(circuit: Circuit) -> List[Tuple[int, int, int]]:
    """(stem gate, sink gate, sink pin) for every singly-loaded stem.

    Stems that are primary outputs are skipped (the stem fault is observed
    directly at sampling, the branch fault is not), as are stems feeding a
    flip-flop (never collapse across a clock boundary).
    """
    loads: Dict[int, List[Tuple[int, int]]] = {g.index: [] for g in circuit.gates}
    for gate in circuit.gates:
        for pin, source in enumerate(gate.fanin):
            loads[source].append((gate.index, pin))
    edges: List[Tuple[int, int, int]] = []
    for gate in circuit.gates:
        pins = loads[gate.index]
        if len(pins) != 1 or gate.is_output:
            continue
        sink_gate, sink_pin = pins[0]
        if circuit.gates[sink_gate].gtype is GateType.DFF:
            continue
        edges.append((gate.index, sink_gate, sink_pin))
    return edges


def stuck_at_union(circuit: Circuit) -> _UnionFind:
    """Equivalence union over every structural stuck-at site."""
    uf = _UnionFind()
    for gate in circuit.gates:
        rule = _EQUIVALENCE_RULES.get(gate.gtype)
        if rule is not None:
            controlling, output_value = rule
            out = StuckAtFault.make(gate.index, OUTPUT_PIN, output_value)
            for pin in range(gate.arity):
                uf.union(StuckAtFault.make(gate.index, pin, controlling), out)
        elif gate.gtype is GateType.NOT:
            for value in (0, 1):
                uf.union(
                    StuckAtFault.make(gate.index, 0, value),
                    StuckAtFault.make(gate.index, OUTPUT_PIN, 1 - value),
                )
        elif gate.gtype is GateType.BUF:
            for value in (0, 1):
                uf.union(
                    StuckAtFault.make(gate.index, 0, value),
                    StuckAtFault.make(gate.index, OUTPUT_PIN, value),
                )
    for stem, sink_gate, sink_pin in _single_loads(circuit):
        for value in (0, 1):
            uf.union(
                StuckAtFault.make(stem, OUTPUT_PIN, value),
                StuckAtFault.make(sink_gate, sink_pin, value),
            )
    return uf


def transition_union(circuit: Circuit) -> _UnionFind:
    """Equivalence union over transition-fault sites.

    Only machine-identical rules apply — a slow line is the same slow line
    wherever the model attaches the fault, so inverters swap the direction
    (input ``STR`` ≡ output ``STF``), buffers keep it, and singly-loaded
    stems alias their branch pin.  Controlling-value rules of multi-input
    gates do *not* carry over: a slow input transition and a slow output
    transition gate different vector pairs.
    """
    uf = _UnionFind()
    for gate in circuit.gates:
        if gate.gtype is GateType.NOT:
            for rise in (True, False):
                uf.union(
                    TransitionFault.make(gate.index, 0, rise=rise),
                    TransitionFault.make(gate.index, OUTPUT_PIN, rise=not rise),
                )
        elif gate.gtype is GateType.BUF:
            for rise in (True, False):
                uf.union(
                    TransitionFault.make(gate.index, 0, rise=rise),
                    TransitionFault.make(gate.index, OUTPUT_PIN, rise=rise),
                )
    for stem, sink_gate, sink_pin in _single_loads(circuit):
        for rise in (True, False):
            uf.union(
                TransitionFault.make(stem, OUTPUT_PIN, rise=rise),
                TransitionFault.make(sink_gate, sink_pin, rise=rise),
            )
    return uf


def representative_map(uf: _UnionFind, ordered: Iterable[Fault]) -> Dict[Fault, Fault]:
    """Map every fault of *ordered* to the smallest listed member of its class.

    *ordered* must be sorted and duplicate-free; the first member seen of
    each class is then its smallest, and representatives map to
    themselves.
    """
    first: Dict[Fault, Fault] = {}
    return {fault: first.setdefault(uf.find(fault), fault) for fault in ordered}


def representatives(uf: _UnionFind, ordered: Iterable[Fault]) -> List[Fault]:
    """The smallest member of every class met in sorted *ordered*, in order."""
    seen = set()
    kept: List[Fault] = []
    for fault in ordered:
        root = uf.find(fault)
        if root not in seen:
            seen.add(root)
            kept.append(fault)
    return kept


def collapse_stuck_at(
    circuit: Circuit, faults: Iterable[StuckAtFault]
) -> List[StuckAtFault]:
    """Collapse *faults* by structural equivalence; returns representatives.

    Listed faults merge even when the site linking them is not listed;
    each class keeps its smallest listed member.
    """
    return representatives(stuck_at_union(circuit), sorted(set(faults)))
