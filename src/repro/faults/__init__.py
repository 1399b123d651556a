"""Fault models: stuck-at faults, equivalence collapsing, transition faults."""

from repro.faults.model import (
    OUTPUT_PIN,
    Fault,
    FaultKind,
    FaultSite,
    StuckAtFault,
    fault_name,
)
from repro.faults.universe import all_stuck_at_faults, stuck_at_universe
from repro.faults.collapse import collapse_stuck_at
from repro.faults.transition import (
    TransitionFault,
    all_transition_faults,
    delayed_value,
)

__all__ = [
    "OUTPUT_PIN",
    "Fault",
    "FaultKind",
    "FaultSite",
    "StuckAtFault",
    "fault_name",
    "all_stuck_at_faults",
    "stuck_at_universe",
    "collapse_stuck_at",
    "TransitionFault",
    "all_transition_faults",
    "delayed_value",
]
