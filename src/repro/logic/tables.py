"""Gate types and table-driven three-valued evaluation.

Concurrent fault simulation evaluates every explicit faulty gate one by one,
so gate evaluation speed dominates (Section 2 of the paper: "Fast evaluation
is extremely important in concurrent fault simulation ... normally this is
achieved through table look up").  This module provides both:

* :func:`evaluate` — a direct three-valued evaluator over an input tuple,
  used by reference simulators and to *construct* lookup tables, and
* :func:`packed_table` / :func:`evaluate_packed` — per-(type, arity) lookup
  tables indexed by a packed input word, 2 bits per pin, used on the hot
  paths of the concurrent engine and by macro gates, and
* :func:`shared_eval_tables` — one such table per gate of a circuit, built
  once per circuit for every engine that settles a good machine by lookup.

Tables are built lazily and memoized; an ``AND`` table of arity 4 has
``1 << 8`` entries and is built once per process.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import Any, Callable, List, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro.logic.values import ONE, VALUES, X, ZERO, invert

#: Widest gate for which a packed lookup table is built.  Wider gates fall
#: back to iterative evaluation; macro extraction (``repro.circuit.macro``)
#: also respects this bound when growing fanout-free regions.
MAX_TABLE_ARITY = 6


class GateType(enum.Enum):
    """Primitive element types of the netlist model.

    ``INPUT`` and ``DFF`` are *sources* for the combinational network: their
    output is set by the test vector or by the clock update, never by
    combinational evaluation.  ``MACRO`` gates (created by macro extraction)
    evaluate through an explicit table attached to the gate rather than
    through this module's per-type tables.
    """

    INPUT = "INPUT"
    DFF = "DFF"
    BUF = "BUF"
    NOT = "NOT"
    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    CONST0 = "CONST0"
    CONST1 = "CONST1"
    MACRO = "MACRO"


#: Gate types whose output is driven by combinational evaluation.
COMBINATIONAL_TYPES = frozenset(
    {
        GateType.BUF,
        GateType.NOT,
        GateType.AND,
        GateType.NAND,
        GateType.OR,
        GateType.NOR,
        GateType.XOR,
        GateType.XNOR,
        GateType.CONST0,
        GateType.CONST1,
        GateType.MACRO,
    }
)

#: Gate types acting as level-0 sources of the combinational network.
SOURCE_TYPES = frozenset({GateType.INPUT, GateType.DFF})

_INVERTED_OF = {
    GateType.NAND: GateType.AND,
    GateType.NOR: GateType.OR,
    GateType.XNOR: GateType.XOR,
    GateType.NOT: GateType.BUF,
}


def _eval_and(inputs: Sequence[int]) -> int:
    result = ONE
    for value in inputs:
        if value == ZERO:
            return ZERO
        if value == X:
            result = X
    return result


def _eval_or(inputs: Sequence[int]) -> int:
    result = ZERO
    for value in inputs:
        if value == ONE:
            return ONE
        if value == X:
            result = X
    return result


def _eval_xor(inputs: Sequence[int]) -> int:
    parity = ZERO
    for value in inputs:
        if value == X:
            return X
        parity ^= value
    return parity


def evaluate(gate_type: GateType, inputs: Sequence[int]) -> int:
    """Evaluate *gate_type* over three-valued *inputs*.

    This is the reference semantics for every primitive type; the packed
    tables are generated from it, so the two can never drift apart.
    """
    if gate_type is GateType.AND:
        return _eval_and(inputs)
    if gate_type is GateType.NAND:
        return invert(_eval_and(inputs))
    if gate_type is GateType.OR:
        return _eval_or(inputs)
    if gate_type is GateType.NOR:
        return invert(_eval_or(inputs))
    if gate_type is GateType.XOR:
        return _eval_xor(inputs)
    if gate_type is GateType.XNOR:
        return invert(_eval_xor(inputs))
    if gate_type is GateType.BUF:
        if len(inputs) != 1:
            raise ValueError("BUF takes exactly one input")
        return inputs[0]
    if gate_type is GateType.NOT:
        if len(inputs) != 1:
            raise ValueError("NOT takes exactly one input")
        return invert(inputs[0])
    if gate_type is GateType.CONST0:
        return ZERO
    if gate_type is GateType.CONST1:
        return ONE
    raise ValueError(f"{gate_type} is not combinationally evaluable here")


def pack_inputs(values: Sequence[int]) -> int:
    """Pack three-valued input values into a word, 2 bits per pin.

    Pin ``i`` occupies bits ``2*i`` and ``2*i + 1``; the codes are the
    values themselves (see :mod:`repro.logic.values`).
    """
    packed = 0
    for position, value in enumerate(values):
        packed |= value << (2 * position)
    return packed


def unpack_inputs(packed: int, arity: int) -> Tuple[int, ...]:
    """Inverse of :func:`pack_inputs` for a gate of the given *arity*."""
    return tuple((packed >> (2 * position)) & 0b11 for position in range(arity))


def build_table(function: Callable[[Tuple[int, ...]], int], arity: int) -> Tuple[int, ...]:
    """Build a packed-input lookup table from an arbitrary evaluator.

    Entries whose packed index contains the unused code ``0b11`` on any pin
    are filled with ``X``; they are unreachable from legal packed states but
    keeping them defined makes the table total and indexing branch-free.
    Used both for the primitive types below and for macro truth tables
    (including the *faulty* tables that represent functional faults).
    """
    if arity > MAX_TABLE_ARITY:
        raise ValueError(f"arity {arity} exceeds MAX_TABLE_ARITY={MAX_TABLE_ARITY}")
    size = 1 << (2 * arity)
    table = [X] * size
    for index in range(size):
        inputs = unpack_inputs(index, arity)
        if any(value not in VALUES for value in inputs):
            continue
        table[index] = function(inputs)
    return tuple(table)


@lru_cache(maxsize=None)
def packed_table(gate_type: GateType, arity: int) -> Tuple[int, ...]:
    """Memoized packed-input lookup table for a primitive gate type."""
    return build_table(lambda inputs: evaluate(gate_type, inputs), arity)


def evaluate_packed(gate_type: GateType, packed: int, arity: int) -> int:
    """Table-lookup evaluation of a primitive gate from a packed input word.

    Falls back to unpack-and-iterate for gates wider than
    :data:`MAX_TABLE_ARITY`.
    """
    if arity <= MAX_TABLE_ARITY:
        return packed_table(gate_type, arity)[packed]
    return evaluate(gate_type, unpack_inputs(packed, arity))


def inverted_base(gate_type: GateType) -> GateType:
    """Return the non-inverting counterpart of an inverting type, if any.

    Useful for fault-equivalence collapsing (a NAND collapses like an AND
    followed by an inverter).
    """
    return _INVERTED_OF.get(gate_type, gate_type)


class _UnpackedTable:
    """Stands in for the table of a gate wider than ``MAX_TABLE_ARITY``:
    indexing unpacks the word and evaluates it."""

    __slots__ = ("gate_type", "arity")

    def __init__(self, gate_type: GateType, arity: int) -> None:
        self.gate_type = gate_type
        self.arity = arity

    def __getitem__(self, packed: int) -> int:
        return evaluate(self.gate_type, unpack_inputs(packed, self.arity))


#: Shared per-circuit evaluation tables.  Every engine instance over the
#: same working circuit uses byte-identical tables, so they are built once
#: and shared (the tables are immutable tuples).  Keyed weakly: dropping
#: the circuit drops its cache entry.  This matters for campaigns that
#: construct many engines over one circuit — ablation sweeps, the engine
#: ladder, and especially the parallel runner's one-engine-per-shard
#: workers, where the tables would otherwise be rebuilt K times.
_EVAL_TABLE_CACHE: "WeakKeyDictionary[Any, Tuple[Any, ...]]" = WeakKeyDictionary()


def shared_eval_tables(circuit: Any) -> Tuple[Any, ...]:
    """Per-gate packed-input lookup tables for *circuit*, memoized.

    Sources get ``None``; gates too wide to tabulate get an
    :class:`_UnpackedTable`; macro gates their own table.
    """
    tables = _EVAL_TABLE_CACHE.get(circuit)
    if tables is None:
        built: List[Any] = []
        for gate in circuit.gates:
            if gate.gtype in (GateType.INPUT, GateType.DFF):
                built.append(None)
            elif gate.gtype is GateType.MACRO:
                built.append(gate.table)
            elif gate.arity <= MAX_TABLE_ARITY:
                built.append(packed_table(gate.gtype, gate.arity))
            else:
                built.append(_UnpackedTable(gate.gtype, gate.arity))
        tables = tuple(built)
        _EVAL_TABLE_CACHE[circuit] = tables
    return tables
