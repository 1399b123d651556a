"""Configuration of the concurrent engine's variants.

The paper names its simulators by the improvements enabled: ``csim`` (base),
``csim-V`` (split visible/invisible lists), ``csim-M`` (macro extraction)
and ``csim-MV`` (both).  The module-level constants mirror those names; the
benchmark tables iterate over them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SimOptions:
    """Knobs of :class:`repro.concurrent.engine.ConcurrentFaultSimulator`.

    ``split_lists``
        Keep visible and invisible fault elements on separate per-gate
        lists so propagation and detection only scan visible elements
        (Section 2.2, second improvement).
    ``use_macros``
        Collapse fanout-free regions into table-driven macro gates and
        translate internal stuck-at faults into functional faults
        (Section 2.2, third improvement).
    ``macro_max_inputs``
        Input cap for a macro (lookup tables grow as ``4**k``).
    ``drop_detected``
        Event-driven fault dropping (Section 2.2, first improvement).
        Disabling it exists only for the ablation benchmark — every
        practical run wants it on.
    ``sanitize``
        Run the fault-list sanitizer
        (:class:`repro.robust.guards.FaultListSanitizer`) at every
        phase boundary.  Opt-in debugging aid; does not change results or
        the variant name, only adds invariant scans.
    """

    split_lists: bool = False
    use_macros: bool = False
    macro_max_inputs: int = 4
    drop_detected: bool = True
    sanitize: bool = False

    @property
    def variant_name(self) -> str:
        """The paper's name for this configuration."""
        suffix = ""
        if self.use_macros:
            suffix += "M"
        if self.split_lists:
            suffix += "V"
        name = "csim" if not suffix else f"csim-{suffix}"
        if not self.drop_detected:
            name += " (no drop)"
        return name

    def with_(self, **changes) -> "SimOptions":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


#: The four configurations evaluated in the paper's Tables 3-5.
CSIM = SimOptions()
CSIM_V = SimOptions(split_lists=True)
CSIM_M = SimOptions(use_macros=True)
CSIM_MV = SimOptions(split_lists=True, use_macros=True)
