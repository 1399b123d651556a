"""Macro extraction: collapsing fanout-free regions into table-driven gates.

Section 2.2's third improvement: "it is advantageous to partition the
circuit into macro modules ... Macro extraction collapses many events into
an event to save computation time [and] reduces the memory requirement
because many fault elements are collapsed into one fault element."  Macros
here are fanout-free regions (as in the paper) capped at a configurable
input count so each macro evaluates through one packed-input lookup table.

Stuck-at faults whose site lies inside a macro are translated into
*functional faults*: a private faulty lookup table obtained by re-simulating
the region's internal gates with the stuck line forced ("stuck at faults may
be translated into functional faults which can be represented by look up
table entries").

Both the good tables and the faulty tables are built by simulating the
internal gates with the same three-valued algebra the flat simulator uses,
so a macro circuit is *value-exact* against the flat circuit — the
cross-validation tests rely on this.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit, CircuitBuilder
from repro.faults.model import OUTPUT_PIN, StuckAtFault
from repro.logic.tables import GateType, MAX_TABLE_ARITY, evaluate, pack_inputs, packed_table
from repro.logic.values import VALUES, X


@dataclass
class Region:
    """One fanout-free region of the flat circuit.

    ``pins`` are the flat gate indices feeding the region, in macro pin
    order (duplicates allowed: a multi-load source can feed two pins).
    ``internal`` are the absorbed flat gates in topological order, ending
    with ``root``.
    """

    root: int
    pins: Tuple[int, ...]
    internal: Tuple[int, ...]

    @property
    def is_trivial(self) -> bool:
        return len(self.internal) == 1


class RegionTables:
    """Good and faulty region lookup tables, built column-wise and shared
    by region shape.

    Each region compiles once into *steps*: its internal gates in order,
    each a primitive gate type plus the labels of its inputs (pin ``i`` is
    label ``i``, step ``j``'s output is label ``pins + j``).  A source
    feeding several pins is read from its last pin, so only consistent
    combinations of those pins are meaningful; run time never looks up
    the others.  A table evaluates every step once over the 3^k legal pin
    combinations, one value column per label, and scatters the root's
    column into the packed 4^k table (``X`` at indices holding the unused
    code).  A stuck input pin reads a constant column; a stuck output
    replaces its step's column.

    Regions with the same shape — pin count, steps and root label — get
    the same tuple, as do faults at the same step, pin and value of one
    shape.  The sharing lasts as long as this object: one per
    :func:`extract_macros` call and one per engine build, so no table
    outlives the engine that needed it.  Regions are known by their root,
    so one instance serves one partition of *flat*.
    """

    def __init__(self, flat: Circuit) -> None:
        self.flat = flat
        self._compiled: Dict[int, Tuple[tuple, Dict[int, int]]] = {}
        self._tables: Dict[tuple, Tuple[int, ...]] = {}
        self._domains: Dict[int, Tuple[List[int], List[List[int]]]] = {}

    def table(self, region: Region, fault: Optional[StuckAtFault] = None) -> Tuple[int, ...]:
        """The region's table, with *fault* (a flat stuck-at fault on one of
        its internal gates) injected when given."""
        compiled = self._compiled.get(region.root)
        if compiled is None:
            compiled = self._compiled[region.root] = self._compile(region)
        shape, label = compiled
        if fault is None:
            key: tuple = (shape, None)
        else:
            key = (shape, (label[fault.gate] - len(region.pins), fault.pin, fault.value))
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = self._evaluate(shape, key[1])
        return table

    def _compile(self, region: Region) -> Tuple[tuple, Dict[int, int]]:
        gates = self.flat.gates
        label = {source: pin for pin, source in enumerate(region.pins)}
        steps = []
        for index in region.internal:
            gate = gates[index]
            steps.append((gate.gtype, tuple(label[source] for source in gate.fanin)))
            label[index] = len(region.pins) + len(steps) - 1
        return (len(region.pins), tuple(steps), label[region.root]), label

    def _evaluate(self, shape: tuple, injection: Optional[Tuple[int, int, int]]) -> Tuple[int, ...]:
        pins, steps, root = shape
        domain = self._domains.get(pins)
        if domain is None:
            combinations = list(itertools.product(VALUES, repeat=pins))
            columns = [list(column) for column in zip(*combinations)]
            domain = self._domains[pins] = ([pack_inputs(c) for c in combinations], columns)
        legal, columns = domain
        size = len(legal)
        columns = list(columns)
        for position, (gtype, labels) in enumerate(steps):
            inputs = [columns[label] for label in labels]
            if injection is not None and injection[0] == position:
                _, pin, value = injection
                if pin == OUTPUT_PIN:
                    columns.append([value] * size)
                    continue
                inputs[pin] = [value] * size
            columns.append(_evaluate_column(gtype, inputs, size))
        table = [X] * (1 << (2 * pins))
        for index, value in zip(legal, columns[root]):
            table[index] = value
        return tuple(table)


def _evaluate_column(gtype: GateType, inputs: List[List[int]], size: int) -> List[int]:
    """One gate over a column of input combinations, through its packed table."""
    if len(inputs) > MAX_TABLE_ARITY:
        return [evaluate(gtype, row) for row in zip(*inputs)]
    table = packed_table(gtype, len(inputs))
    if not inputs:
        return [table[0]] * size
    words = inputs[0]
    for position in range(1, len(inputs)):
        shift = 2 * position
        words = [word | value << shift for word, value in zip(words, inputs[position])]
    return list(map(table.__getitem__, words))


class MacroCircuit:
    """A macro-transformed circuit plus the fault-translation machinery."""

    def __init__(
        self,
        flat: Circuit,
        circuit: Circuit,
        regions: Dict[int, Region],
        owner: Dict[int, int],
        plain_roots: frozenset,
        good_tables: Dict[int, Tuple[int, ...]],
    ) -> None:
        #: The original, flat circuit (faults are defined against it).
        self.flat = flat
        #: The working circuit with MACRO gates.
        self.circuit = circuit
        #: flat root index -> region
        self.regions = regions
        #: flat combinational gate index -> flat root index of its region
        self.owner = owner
        #: flat root indices kept as plain (non-table) gates (too wide)
        self.plain_roots = plain_roots
        self._good_tables = good_tables
        self._new_index: Dict[str, int] = {
            gate.name: gate.index for gate in circuit.gates
        }

    def good_table(self, root: int) -> Tuple[int, ...]:
        """The fault-free lookup table of the region rooted at *root*."""
        return self._good_tables[root]

    def new_index_of(self, flat_index: int) -> int:
        """Index in the macro circuit of a surviving flat gate (by name)."""
        return self._new_index[self.flat.gates[flat_index].name]

    def translate_stuck_at(self, fault: StuckAtFault, tables: Optional[RegionTables] = None):
        """Translate a flat stuck-at fault for the macro circuit.

        Returns ``(site_gate, behavior, pin, value, table)`` matching the
        fields of :class:`repro.concurrent.elements.FaultDescriptor`, with
        *behavior* as a string: ``"force_output"``, ``"force_input"`` or
        ``"table"``.  Faulty tables come from *tables*, so translating a
        whole universe through one :class:`RegionTables` shares them.
        """
        flat = self.flat
        site = flat.gates[fault.gate]
        if site.gtype in (GateType.INPUT, GateType.DFF):
            site_new = self.new_index_of(fault.gate)
            if fault.pin == OUTPUT_PIN:
                return (site_new, "force_output", OUTPUT_PIN, fault.value, None)
            return (site_new, "force_input", fault.pin, fault.value, None)

        root = self.owner[fault.gate]
        if root in self.plain_roots:
            # The region is a single too-wide gate kept structural.
            site_new = self.new_index_of(root)
            if fault.pin == OUTPUT_PIN:
                return (site_new, "force_output", OUTPUT_PIN, fault.value, None)
            return (site_new, "force_input", fault.pin, fault.value, None)

        if tables is None:
            tables = RegionTables(flat)
        table = tables.table(self.regions[root], fault)
        return (self.new_index_of(root), "table", OUTPUT_PIN, fault.value, table)

    def summary(self) -> str:
        macros = sum(1 for root in self.regions if root not in self.plain_roots)
        collapsed = sum(
            len(region.internal)
            for root, region in self.regions.items()
            if root not in self.plain_roots
        )
        return (
            f"{self.flat.name}: {self.flat.num_combinational} gates -> "
            f"{len(self.regions)} regions ({macros} macros covering {collapsed} gates)"
        )


def _primary_roots(circuit: Circuit) -> frozenset:
    """Combinational gates that must head their own region.

    A gate is a primary root when it is observed (primary output), drives a
    flip-flop, or drives anything other than exactly one combinational
    input pin.
    """
    loads: Dict[int, List[Tuple[int, int]]] = {gate.index: [] for gate in circuit.gates}
    for gate in circuit.gates:
        for pin, source in enumerate(gate.fanin):
            loads[source].append((gate.index, pin))
    roots = set()
    for gate in circuit.gates:
        if gate.gtype in (GateType.INPUT, GateType.DFF):
            continue
        pins = loads[gate.index]
        if gate.is_output or len(pins) != 1:
            roots.add(gate.index)
            continue
        sink_gate, _ = pins[0]
        if circuit.gates[sink_gate].gtype is GateType.DFF:
            roots.add(gate.index)
    return frozenset(roots)


def _validate_preassigned(circuit: Circuit, region: Region) -> None:
    """A preassigned region must be a legal macro: single observable
    output (the root), internal gates unobserved and feeding only inside
    the region, pins within the table bound."""
    internal = set(region.internal)
    if region.root not in internal:
        raise ValueError(f"region root {region.root} not among its internal gates")
    if len(region.pins) > MAX_TABLE_ARITY:
        raise ValueError(
            f"region at {circuit.gates[region.root].name!r} has "
            f"{len(region.pins)} pins (> {MAX_TABLE_ARITY})"
        )
    for index in region.internal:
        gate = circuit.gates[index]
        if gate.gtype in (GateType.INPUT, GateType.DFF):
            raise ValueError(f"{gate.name!r}: sources cannot be region-internal")
        if index == region.root:
            continue
        if gate.is_output:
            raise ValueError(f"{gate.name!r} is observed; it cannot be internal")
        for sink in gate.fanout:
            if sink not in internal:
                raise ValueError(
                    f"{gate.name!r} drives outside its region "
                    f"({circuit.gates[sink].name!r})"
                )
    # Region evaluation iterates `internal` in order; normalize to levels.
    region.internal = tuple(sorted(region.internal, key=lambda i: circuit.gates[i].level))


def extract_macros(
    circuit: Circuit,
    max_inputs: int = 4,
    preassigned: Sequence[Region] = (),
) -> MacroCircuit:
    """Partition *circuit* into fanout-free macros of at most *max_inputs* pins.

    Every combinational gate lands in exactly one region.  Regions whose
    root is wider than the cap (or than :data:`MAX_TABLE_ARITY`) stay as
    plain structural gates; everything else becomes a ``MACRO`` gate with a
    packed-input lookup table.

    ``preassigned`` regions — typically module-instance boundaries from a
    hierarchical design (see :mod:`repro.circuit.hierarchy`) — are taken
    as-is before the fanout-free growth claims the rest; this is the
    paper's "hierarchical design information" improving the partition.
    Unlike grown regions, preassigned ones may contain internal fanout
    (any single-output combinational block evaluates through a table).
    """
    max_inputs = min(max_inputs, MAX_TABLE_ARITY)
    if max_inputs < 1:
        raise ValueError("max_inputs must be at least 1")
    primary = _primary_roots(circuit)
    assigned: Dict[int, int] = {}  # flat gate -> its region's root
    regions: Dict[int, Region] = {}

    for region in preassigned:
        _validate_preassigned(circuit, region)
        for index in region.internal:
            if index in assigned:
                raise ValueError(
                    f"gate {circuit.gates[index].name!r} belongs to two "
                    "preassigned regions"
                )
            assigned[index] = region.root
        regions[region.root] = region

    def grow(root: int) -> Region:
        """Greedy breadth-first growth of the region rooted at *root*."""
        gate = circuit.gates[root]
        pins: List[int] = list(gate.fanin)
        internal: List[int] = [root]
        assigned[root] = root
        changed = True
        while changed and len(pins) <= max_inputs:
            changed = False
            for position, source in enumerate(pins):
                source_gate = circuit.gates[source]
                if source_gate.gtype in (GateType.INPUT, GateType.DFF):
                    continue
                if source in primary or source in assigned:
                    continue
                new_count = len(pins) - 1 + source_gate.arity
                if new_count > max_inputs or new_count == 0:
                    continue
                # Absorb: replace this pin by the source's own fanins.
                pins[position : position + 1] = list(source_gate.fanin)
                internal.append(source)
                assigned[source] = root
                changed = True
                break
        internal.sort(key=lambda index: circuit.gates[index].level)
        return Region(root=root, pins=tuple(pins), internal=tuple(internal))

    # Primary roots first, then leftovers from consumers down to sources so
    # each leftover's consumer has already claimed what it can.
    for root in sorted(primary, key=lambda index: -circuit.gates[index].level):
        if root not in assigned:
            regions[root] = grow(root)
    leftovers = [
        gate.index
        for gate in circuit.gates
        if gate.gtype not in (GateType.INPUT, GateType.DFF) and gate.index not in assigned
    ]
    leftovers.sort(key=lambda index: -circuit.gates[index].level)
    for index in leftovers:
        if index not in assigned:
            regions[index] = grow(index)

    # Only trivial (single-gate) regions can stay structural; a multi-gate
    # preassigned region over the cap still fits MAX_TABLE_ARITY (validated)
    # and must become a table.  Zero-pin regions (constants) have no table
    # domain and stay structural too.
    plain_roots = frozenset(
        root
        for root, region in regions.items()
        if len(region.pins) == 0
        or (len(region.pins) > max_inputs and region.is_trivial)
    )

    tables = RegionTables(circuit)
    good_tables = {
        root: tables.table(region)
        for root, region in regions.items()
        if root not in plain_roots
    }

    # Build the macro circuit bottom-up so generated netlists read naturally
    # (CircuitBuilder itself tolerates any declaration order).
    builder = CircuitBuilder(f"{circuit.name}+macros")
    for index in circuit.inputs:
        builder.add_input(circuit.gates[index].name)
    for index in circuit.dffs:
        gate = circuit.gates[index]
        builder.add_dff(gate.name, circuit.gates[gate.fanin[0]].name)
    for region in sorted(regions.values(), key=lambda region: circuit.gates[region.root].level):
        root_gate = circuit.gates[region.root]
        pin_names = [circuit.gates[source].name for source in region.pins]
        if region.root in plain_roots:
            builder.add_gate(root_gate.name, root_gate.gtype, pin_names)
            continue
        absorbed = tuple(circuit.gates[index].name for index in region.internal)
        builder.add_macro(root_gate.name, pin_names, good_tables[region.root], absorbed)
    for index in circuit.outputs:
        builder.set_output(circuit.gates[index].name)

    return MacroCircuit(
        flat=circuit,
        circuit=builder.build(),
        regions=regions,
        owner=dict(assigned),
        plain_roots=plain_roots,
        good_tables=good_tables,
    )
