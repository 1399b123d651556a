"""Gate-level netlist model for synchronous sequential circuits.

The model is the one the paper assumes: a combinational network of primitive
gates between primary inputs, D flip-flop outputs (present state) on one
side and primary outputs, D flip-flop inputs (next state) on the other.
Flip-flops are modelled as gates of type ``DFF`` whose single fanin is the
``D`` signal and whose output is ``Q``; they act as level-0 sources for the
combinational network and are updated only at cycle boundaries.

Circuits are constructed through :class:`CircuitBuilder` and are immutable
once built: every simulator keeps its own state arrays indexed by gate
index, so a frozen structural skeleton shared across engines is both safe
and fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.logic.tables import (
    COMBINATIONAL_TYPES,
    GateType,
    MAX_TABLE_ARITY,
    evaluate,
)


class NetlistError(ValueError):
    """Raised for structurally invalid circuits (bad fanin, cycles, ...).

    ``code`` names the rule the netlist broke, as ``repro lint`` reports
    it; ``line`` is the 1-based source line it concerns (0 for none).
    """

    def __init__(self, message: str, code: str = "netlist", line: int = 0) -> None:
        super().__init__(message)
        self.code = code
        self.line = line


@dataclass
class Gate:
    """One netlist element.

    ``fanin``/``fanout`` hold gate indices.  ``table`` is only populated for
    ``MACRO`` gates: the packed-input truth table produced by macro
    extraction.  ``macro_gates`` records, for a macro, the original gate
    names it absorbed (used to report faults against the flat netlist).
    ``line`` is the 1-based source line of the defining statement when the
    gate came from a parsed netlist file (0 for programmatic construction);
    lint diagnostics and netlist errors cite it.
    """

    index: int
    name: str
    gtype: GateType
    fanin: Tuple[int, ...]
    fanout: Tuple[int, ...] = ()
    is_output: bool = False
    level: int = -1
    table: Optional[Tuple[int, ...]] = None
    macro_gates: Tuple[str, ...] = ()
    line: int = 0

    @property
    def arity(self) -> int:
        return len(self.fanin)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gate({self.index}, {self.name!r}, {self.gtype.name})"


class Circuit:
    """An immutable, levelized synchronous sequential circuit.

    Attributes
    ----------
    gates:
        All gates, indexed by :attr:`Gate.index`.
    inputs / outputs / dffs:
        Gate indices of primary inputs, primary outputs (gates whose value
        is observed each cycle) and flip-flops.
    order:
        Combinational gate indices in non-decreasing level order; evaluating
        gates in this order settles the combinational network in one pass.
    """

    def __init__(
        self,
        name: str,
        gates: List[Gate],
        inputs: List[int],
        outputs: List[int],
        dffs: List[int],
    ) -> None:
        self.name = name
        self.gates: Tuple[Gate, ...] = tuple(gates)
        self.inputs: Tuple[int, ...] = tuple(inputs)
        self.outputs: Tuple[int, ...] = tuple(outputs)
        self.dffs: Tuple[int, ...] = tuple(dffs)
        self._index_of: Dict[str, int] = {gate.name: gate.index for gate in self.gates}
        # Filled by levelize(); stored here so every engine shares it.
        self.order: Tuple[int, ...] = ()
        self.num_levels: int = 0

    # -- lookups ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.gates)

    def gate(self, name: str) -> Gate:
        """Look a gate up by signal name."""
        try:
            return self.gates[self._index_of[name]]
        except KeyError:
            raise NetlistError(f"no gate named {name!r} in circuit {self.name!r}") from None

    def has_gate(self, name: str) -> bool:
        return name in self._index_of

    def index_of(self, name: str) -> int:
        return self.gate(name).index

    # -- derived views ---------------------------------------------------

    @property
    def combinational(self) -> Iterable[Gate]:
        """Gates evaluated by combinational settling, in level order."""
        return (self.gates[index] for index in self.order)

    @property
    def num_combinational(self) -> int:
        return len(self.order)

    def source_indices(self) -> Tuple[int, ...]:
        """Level-0 sources of the combinational network (PIs then DFFs)."""
        return self.inputs + self.dffs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Circuit({self.name!r}: {len(self.inputs)} PI, {len(self.outputs)} PO, "
            f"{len(self.dffs)} DFF, {self.num_combinational} gates)"
        )


class CircuitBuilder:
    """Incremental construction of a :class:`Circuit`.

    Signals may be referenced before they are defined (netlist formats list
    gates in arbitrary order); fanin resolution happens in :meth:`build`.
    A statement that breaks a rule raises at the call; the error's ``code``
    and ``line`` say which rule and where.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        # A ``None`` type marks a rejected statement (see reject()).
        self._gates: List[Tuple[str, Optional[GateType], Tuple[str, ...]]] = []
        self._by_name: Dict[str, int] = {}
        self._lines: List[int] = []
        self._outputs: List[str] = []
        self._output_lines: Dict[str, int] = {}
        self._macro_tables: Dict[str, Tuple[Tuple[int, ...], Tuple[str, ...]]] = {}
        self._rejected = False

    def _define(
        self, name: str, gtype: Optional[GateType], fanin: Sequence[str], line: int = 0
    ) -> None:
        if name in self._by_name:
            first = self._lines[self._by_name[name]]
            where = f" (first defined at line {first})" if first else ""
            raise NetlistError(
                f"signal {name!r} defined twice{where}", "duplicate-definition", line
            )
        self._by_name[name] = len(self._gates)
        self._gates.append((name, gtype, tuple(fanin)))
        self._lines.append(line)

    # -- element constructors -------------------------------------------

    def add_input(self, name: str, line: int = 0) -> None:
        """Declare a primary input."""
        self._define(name, GateType.INPUT, (), line)

    def add_dff(self, name: str, d_signal: str, line: int = 0) -> None:
        """Declare a D flip-flop whose output is *name* and input *d_signal*."""
        self._define(name, GateType.DFF, (d_signal,), line)

    def add_gate(
        self, name: str, gtype: GateType, fanin: Sequence[str], line: int = 0
    ) -> None:
        """Declare a combinational gate driving signal *name*."""
        if gtype not in COMBINATIONAL_TYPES:
            raise NetlistError(f"{gtype} is not a combinational gate type")
        if gtype in (GateType.BUF, GateType.NOT) and len(fanin) != 1:
            raise NetlistError(
                f"{gtype.name} gate {name!r} must have exactly one fanin", "bad-arity", line
            )
        if gtype in (GateType.CONST0, GateType.CONST1) and fanin:
            raise NetlistError(f"constant gate {name!r} must have no fanin", "bad-arity", line)
        if gtype is GateType.MACRO:
            raise NetlistError("use add_macro() for MACRO gates")
        if len(fanin) == 0 and gtype not in (GateType.CONST0, GateType.CONST1):
            raise NetlistError(f"gate {name!r} has no fanin", "bad-arity", line)
        self._define(name, gtype, fanin, line)

    def add_macro(
        self,
        name: str,
        fanin: Sequence[str],
        table: Sequence[int],
        absorbed: Sequence[str] = (),
    ) -> None:
        """Declare a table-driven macro gate (produced by macro extraction)."""
        arity = len(fanin)
        if arity == 0 or arity > MAX_TABLE_ARITY:
            raise NetlistError(f"macro {name!r} arity {arity} out of range")
        if len(table) != 1 << (2 * arity):
            raise NetlistError(f"macro {name!r} table has wrong size")
        self._define(name, GateType.MACRO, fanin)
        self._macro_tables[name] = (tuple(table), tuple(absorbed))

    def set_output(self, name: str, line: int = 0) -> None:
        """Mark an existing or future signal as a primary output.

        Duplicate OUTPUT declarations are rejected: they are always a netlist
        authoring mistake and previously were silently deduplicated.
        """
        if name in self._output_lines:
            first = self._output_lines[name]
            where = f" (first declared at line {first})" if first else ""
            raise NetlistError(
                f"output {name!r} declared twice{where}", "duplicate-output", line
            )
        self._output_lines[name] = line
        self._outputs.append(name)

    def reject(self, name: str, fanin: Sequence[str], line: int = 0) -> None:
        """Name the signal of a statement that broke a rule, without a gate.

        Its readers then resolve and its sources count as read, so a
        netlist reader reports the broken statement once, not a cascade
        of undefined signals.  A builder that rejected a statement does
        not build.
        """
        if name not in self._by_name:
            self._define(name, None, fanin, line)
        self._rejected = True

    # -- finalization ----------------------------------------------------

    def resolve(self) -> Tuple[List[Gate], List[int], List[NetlistError]]:
        """Resolve names without raising.

        Returns the gates, each with the fanin that resolves (a rejected
        statement's gate has no type), the indices of the defined outputs,
        and every problem :meth:`build` raises the first of: each reference
        to an undefined signal, each undefined output, then a missing
        output declaration.
        """
        index_of = self._by_name
        gates: List[Gate] = []
        problems: List[NetlistError] = []
        for index, (name, gtype, fanin_names) in enumerate(self._gates):
            line = self._lines[index]
            fanin: List[int] = []
            for source in fanin_names:
                if source in index_of:
                    fanin.append(index_of[source])
                    continue
                where = f" (line {line})" if line else ""
                problems.append(
                    NetlistError(
                        f"gate {name!r} references undefined signal {source!r}{where}",
                        "undriven-net",
                        line,
                    )
                )
            table, absorbed = self._macro_tables.get(name, (None, ()))
            gates.append(
                Gate(
                    index=index,
                    name=name,
                    gtype=gtype,  # type: ignore[arg-type]  # None: rejected
                    fanin=tuple(fanin),
                    table=table,
                    macro_gates=absorbed,
                    line=line,
                )
            )

        outputs: List[int] = []
        for name in self._outputs:
            if name in index_of:
                outputs.append(index_of[name])
                continue
            decl = self._output_lines[name]
            where = f" (declared at line {decl})" if decl else ""
            problems.append(
                NetlistError(
                    f"output {name!r} is not a defined signal{where}",
                    "undefined-output",
                    decl,
                )
            )
        if not self._outputs:
            problems.append(
                NetlistError(
                    f"circuit {self.name!r} declares no primary outputs", "no-outputs"
                )
            )
        return gates, outputs, problems

    def build(self) -> Circuit:
        """Resolve names, compute fanout, validate, levelize and freeze."""
        from repro.circuit.levelize import levelize  # local import: avoid cycle

        if self._rejected:
            raise NetlistError(f"circuit {self.name!r} has a rejected statement")
        gates, outputs, problems = self.resolve()
        if problems:
            raise problems[0]

        fanout: List[List[int]] = [[] for _ in gates]
        for gate in gates:
            for source in gate.fanin:
                fanout[source].append(gate.index)
        for gate in gates:
            gate.fanout = tuple(fanout[gate.index])
        for index in outputs:
            gates[index].is_output = True

        inputs = [gate.index for gate in gates if gate.gtype is GateType.INPUT]
        dffs = [gate.index for gate in gates if gate.gtype is GateType.DFF]
        circuit = Circuit(self.name, gates, inputs, outputs, dffs)
        levelize(circuit)
        return circuit


def evaluate_gate(gate: Gate, input_values: Sequence[int]) -> int:
    """Evaluate one gate over explicit three-valued input values.

    Reference path used by the simple simulators and by table construction;
    the concurrent engine uses packed-state lookups instead.
    """
    if gate.gtype is GateType.MACRO:
        assert gate.table is not None
        from repro.logic.tables import pack_inputs

        return gate.table[pack_inputs(input_values)]
    return evaluate(gate.gtype, input_values)
