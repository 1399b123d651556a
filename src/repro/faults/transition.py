"""The transition (gross-delay) fault model of Section 3.

A transition fault delays one direction of change on one line by more than
the slack of the sampling clock but less than a full cycle: "any gate delay
fault which delays a gate transition slightly longer than its slack time"
whose extra delay "does not increase the delay at the fault site by more
than one clock cycle".  Consequences, exactly as the paper models them:

* at sampling time the faulty line still holds its *previous* value when
  the faulty transition fired this cycle (Table 1);
* after sampling, the combinational network settles to the correct values,
  so only the values latched into flip-flops (and the sampled primary
  outputs) carry the error forward.

Two faults per line: slow-to-rise (``STR``) delays 0→1, slow-to-fall
(``STF``) delays 1→0.  Following the paper, the universe places them on
gate input pins ("two transition faults are associated with each gate
input"); an option adds output lines for completeness studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.circuit.netlist import Circuit
from repro.faults.model import OUTPUT_PIN, Fault, FaultKind
from repro.logic.tables import GateType
from repro.logic.values import ONE, X, ZERO


@dataclass(frozen=True, eq=False)
class TransitionFault(Fault):
    """A slow-to-rise or slow-to-fall fault on a line."""

    @property
    def slow_to_rise(self) -> bool:
        return self.kind is FaultKind.SLOW_TO_RISE

    @staticmethod
    def make(gate: int, pin: int, rise: bool) -> "TransitionFault":
        kind = FaultKind.SLOW_TO_RISE if rise else FaultKind.SLOW_TO_FALL
        return TransitionFault(gate, pin, kind)


def delayed_value(previous: int, current: int, kind: FaultKind) -> int:
    """Faulty value (FV) at sampling time, per the paper's Table 1.

    ``previous`` (PV) is the line's value before the vector, ``current``
    (CV) the value it would settle to.  A slow-to-rise fault holds the line
    at its old value whenever a rise would have completed:

    * PV = 0: any rise is still in flight at sampling — FV = 0 (this also
      covers CV = 0, where FV = CV trivially, and CV = X, where the value at
      sampling is 0 whether or not a rise began);
    * PV = 1: falls and steady-1 are unaffected — FV = CV;
    * PV = X: the line may or may not have been low; FV = 0 only if CV = 0,
      otherwise unknown.

    Slow-to-fall is the mirror image.
    """
    if kind is FaultKind.SLOW_TO_RISE:
        if previous == ZERO:
            return ZERO
        if previous == ONE:
            return current
        return ZERO if current == ZERO else X
    if kind is FaultKind.SLOW_TO_FALL:
        if previous == ONE:
            return ONE
        if previous == ZERO:
            return current
        return ONE if current == ONE else X
    raise ValueError(f"not a transition fault kind: {kind}")


def all_transition_faults(
    circuit: Circuit, include_outputs: bool = False
) -> List[TransitionFault]:
    """The transition-fault universe of *circuit*.

    Per the paper, faults sit on gate input pins (combinational gates and
    flip-flop D pins).  ``include_outputs`` adds each gate's output line,
    which covers fanout-stem delay defects — except flip-flop outputs: a
    slow Q stem is approximated by the transition faults on the input pins
    it feeds (the simulator models slow data lines, not slow clock-to-Q).
    """
    faults: List[TransitionFault] = []
    for gate in circuit.gates:
        if gate.gtype is not GateType.INPUT:
            for pin in range(gate.arity):
                faults.append(TransitionFault.make(gate.index, pin, rise=True))
                faults.append(TransitionFault.make(gate.index, pin, rise=False))
        if include_outputs and gate.gtype is not GateType.DFF:
            faults.append(TransitionFault.make(gate.index, OUTPUT_PIN, rise=True))
            faults.append(TransitionFault.make(gate.index, OUTPUT_PIN, rise=False))
    return faults
