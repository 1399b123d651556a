"""Enumeration of the single stuck-at fault universe of a circuit.

The full universe places ``s-a-0`` and ``s-a-1`` on every gate output line
and on every gate input pin (input pins subsume fanout-branch faults).
``stuck_at_universe`` optionally collapses it by structural equivalence,
which is what the fault counts in the paper's Table 2 report.
"""

from __future__ import annotations

from typing import List

from repro.circuit.netlist import Circuit
from repro.faults.model import OUTPUT_PIN, StuckAtFault
from repro.logic.tables import GateType


def all_stuck_at_faults(circuit: Circuit) -> List[StuckAtFault]:
    """The uncollapsed stuck-at universe, in deterministic site order.

    Output faults are placed on every gate (including primary inputs and
    flip-flops — a stuck flip-flop output is a classic sequential fault).
    Input-pin faults are placed on every combinational gate pin and on
    flip-flop D pins.
    """
    faults: List[StuckAtFault] = []
    for gate in circuit.gates:
        for value in (0, 1):
            faults.append(StuckAtFault.make(gate.index, OUTPUT_PIN, value))
        if gate.gtype is GateType.INPUT:
            continue
        for pin in range(gate.arity):
            for value in (0, 1):
                faults.append(StuckAtFault.make(gate.index, pin, value))
    return faults


def stuck_at_universe(circuit: Circuit, collapse: bool = True) -> List[StuckAtFault]:
    """The stuck-at fault list a simulator targets.

    With ``collapse`` (the default, matching the paper's fault counts) one
    representative per structural-equivalence class is kept: the smallest
    member of each class of :func:`repro.faults.collapse.stuck_at_union`.
    """
    faults = all_stuck_at_faults(circuit)
    if not collapse:
        return faults
    from repro.faults.collapse import representatives, stuck_at_union

    # The universe is built in fault order, so no sort is needed here.
    return representatives(stuck_at_union(circuit), faults)
