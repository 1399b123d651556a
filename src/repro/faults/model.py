"""Static fault definitions.

A fault lives on a *site*: either the output line of a gate or one of its
input pins.  Fanout-branch faults of classic line-based models map onto
input-pin faults of the fed gates, so (gate, pin) sites cover the full
single-stuck-line universe.

These objects are immutable descriptions.  The per-run state the paper
stores in *fault descriptors* (detected flag, detection time, functional
lookup table for macro faults) lives in the engines'
:class:`repro.concurrent.elements.FaultDescriptor`, keyed by these objects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.circuit.netlist import Circuit

#: Pin number denoting a gate's output line.
OUTPUT_PIN = -1


#: Kind names in sorted order, the order faults of one site sort in.
_KIND_ORDER = ("SA0", "SA1", "STF", "STR")


class FaultKind(enum.Enum):
    STUCK_AT_0 = "SA0"
    STUCK_AT_1 = "SA1"
    SLOW_TO_RISE = "STR"
    SLOW_TO_FALL = "STF"

    def __init__(self, name: str) -> None:
        #: The name's place in name order: faults hash and compare on it.
        self.rank = _KIND_ORDER.index(name)


#: (gate_index, pin) — pin is OUTPUT_PIN for the output line.
FaultSite = Tuple[int, int]


@dataclass(frozen=True, eq=False)
class Fault:
    """Base class for all single-fault definitions.

    Ordering is (gate, pin, kind name), the order of :meth:`_sort_key`:
    deterministic fault ids and deterministic collapse representatives
    depend on it.  Faults are the keys of every per-fault map, so hashing,
    equality and ordering work on ints alone (the kind's
    :attr:`FaultKind.rank`), never on the kind's name; the hash is
    therefore the same in every process.  Two faults are equal when they
    are of one class and agree on all three fields.  Subclasses are
    declared ``eq=False`` so that they keep these methods.
    """

    gate: int
    pin: int
    kind: FaultKind

    def _sort_key(self) -> Tuple[int, int, str]:
        return (self.gate, self.pin, self.kind.value)

    def __hash__(self) -> int:
        return hash((self.gate, self.pin, self.kind.rank))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fault) or other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.gate == other.gate
            and self.pin == other.pin
            and self.kind is other.kind
        )

    def __lt__(self, other: "Fault") -> bool:
        if self.gate != other.gate:
            return self.gate < other.gate
        if self.pin != other.pin:
            return self.pin < other.pin
        return self.kind.rank < other.kind.rank

    def __le__(self, other: "Fault") -> bool:
        return not other.__lt__(self)

    def __gt__(self, other: "Fault") -> bool:
        return other.__lt__(self)

    def __ge__(self, other: "Fault") -> bool:
        return not self.__lt__(other)

    @property
    def site(self) -> FaultSite:
        return (self.gate, self.pin)

    @property
    def on_output(self) -> bool:
        return self.pin == OUTPUT_PIN


@dataclass(frozen=True, eq=False)
class StuckAtFault(Fault):
    """A line permanently stuck at 0 or 1."""

    @property
    def value(self) -> int:
        return 0 if self.kind is FaultKind.STUCK_AT_0 else 1

    @staticmethod
    def make(gate: int, pin: int, value: int) -> "StuckAtFault":
        kind = FaultKind.STUCK_AT_0 if value == 0 else FaultKind.STUCK_AT_1
        return StuckAtFault(gate, pin, kind)


def fault_name(circuit: Circuit, fault: Fault) -> str:
    """Human-readable fault name, e.g. ``G9/IN1:SA0`` or ``G17:STR``."""
    gate = circuit.gates[fault.gate]
    if fault.on_output:
        return f"{gate.name}:{fault.kind.value}"
    return f"{gate.name}/IN{fault.pin}:{fault.kind.value}"
