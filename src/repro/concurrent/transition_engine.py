"""Concurrent transition-fault simulation (Section 3 of the paper).

"The concurrent fault simulation method as proposed is ideal to simulate
the transition faults because all previous input values of all the gates
are available.  To simulate the transition faults, the combinational part
of the synchronous sequential circuit is simulated twice."

Per clock cycle:

1. **Sampling pass** — every faulty transition is assumed *not to fire*:
   at a fault's site the delayed value of Table 1 (see
   :func:`repro.faults.transition.delayed_value`) replaces the settled
   value.  The primary outputs are observed (detections) and the flip-flop
   masters latch from these values.
2. **Firing pass** — the network is re-simulated with all transitions
   fired (no forcing), so each faulty machine's combinational part settles
   to the values implied by its own flip-flop state, as the real circuit
   does after the delayed transitions complete.  Then the masters commit
   to the slaves, carrying the sampled (possibly wrong) values forward.

The per-fault "previous value" (PV) each delayed-value computation needs is
held in the fault's descriptor and refreshed after the firing pass: the
delay defect is smaller than one cycle, so every line finishes the cycle at
its fired value.

The engine reuses the stuck-at machinery — fault lists, divergence and
convergence, event-driven dropping, optional visible/invisible splitting —
and only overrides site evaluation and the per-cycle flow.  Macro
extraction is not supported for transition faults (a delayed internal line
cannot be represented by a static functional table); the paper likewise
reports transition results without macros.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Sequence, Set

from repro.circuit.netlist import Circuit
from repro.concurrent.elements import Behavior, FaultDescriptor
from repro.concurrent.engine import ConcurrentFaultSimulator
from repro.concurrent.options import SimOptions
from repro.drive import drive
from repro.faults.model import Fault, OUTPUT_PIN
from repro.faults.transition import TransitionFault, all_transition_faults, delayed_value
from repro.result import FaultSimResult


class TransitionFaultSimulator(ConcurrentFaultSimulator):
    """Two-pass concurrent simulator for the transition-fault model."""

    def __init__(
        self,
        circuit: Circuit,
        faults: Optional[Iterable[TransitionFault]] = None,
        options: SimOptions = SimOptions(),
        tracer=None,
    ) -> None:
        if options.use_macros:
            raise ValueError(
                "macro extraction is not supported for transition faults; "
                "use a flat-circuit SimOptions"
            )
        self._firing = False
        super().__init__(circuit, faults, options, tracer=tracer)

    # -- universe / descriptors -------------------------------------------

    def _default_universe(self, circuit: Circuit) -> List[TransitionFault]:
        return all_transition_faults(circuit)

    def _make_descriptor(self, fid: int, fault: TransitionFault, tables=None) -> FaultDescriptor:
        return FaultDescriptor(
            fid=fid,
            fault=fault,
            site_gate=fault.gate,
            behavior=Behavior.TRANSITION,
            pin=fault.pin,
            kind=fault.kind,
        )

    def _is_inert(self, descriptor: FaultDescriptor) -> bool:
        return False

    # -- site evaluation ----------------------------------------------------

    def _transition_output(self, descriptor, table, packed):
        """Evaluate the site gate's packed state with the transition
        delayed (sampling pass) or completed (firing pass); returns
        ``(output, packed state)``, a delayed input pin's field rewritten."""
        if not self._firing:
            if descriptor.pin == OUTPUT_PIN:
                return self._transition_delay(descriptor, table[packed]), packed
            position = 2 * descriptor.pin
            delayed = self._transition_delay(descriptor, (packed >> position) & 0b11)
            packed = (packed & ~(0b11 << position)) | (delayed << position)
        return table[packed], packed

    def _transition_delay(self, descriptor, value):
        """The value a slow transition at this fault's site holds: the
        line's previous value where it moved this cycle.  A flip-flop's
        D pin latches it (the flip-flop samples before the delayed edge
        arrives); a primary input's output fault drives it during the
        sampling pass."""
        return delayed_value(descriptor.prev_site_value, value, descriptor.kind)

    # -- per-cycle flow -------------------------------------------------------

    def step(self, vector: Sequence[int]) -> List[Fault]:
        circuit = self.circuit
        if len(vector) != len(circuit.inputs):
            raise ValueError(
                f"vector has {len(vector)} values for {len(circuit.inputs)} inputs"
            )
        sanitizer = self._sanitizer
        if sanitizer is not None:
            sanitizer.check("pre-cycle")
        self.cycle += 1
        self.counters.cycles += 1
        trace = self.tracer
        if trace is not None:
            trace.cycle_start(self.cycle)
            t0 = time.perf_counter()

        if self.cycle == 1:
            for gate_index in circuit.order:
                self._schedule(gate_index)
            self._dirty_ffs.update(circuit.dffs)
        else:
            for gate_index in self._next_cycle_gates:
                self._schedule(gate_index)
        self._next_cycle_gates = set()

        # Sampling pass: transitions held back at every fault site.
        self._firing = False
        evaluated: Set[int] = set()
        self._record_evaluated = evaluated
        for position, pi_index in enumerate(circuit.inputs):
            self._apply_source(pi_index, vector[position])
        self._settle()
        self._record_evaluated = None
        if sanitizer is not None:
            sanitizer.check("sample")
        self.memory.note_elements(self._live_elements)
        if trace is not None:
            t1 = time.perf_counter()
            trace.phase_time("sample", t1 - t0)

        newly_detected = self._detect()
        if sanitizer is not None:
            sanitizer.check("detect")
        if trace is not None:
            t2 = time.perf_counter()
            trace.phase_time("detect", t2 - t1)
        # Masters latch from sampled values; slaves commit after pass 2.
        # A flip-flop with a live D-pin transition fault must recompute its
        # latch every boundary: the delayed value depends on the line's
        # previous value, so the outcome can change one cycle after the
        # line last moved, with no event to flag it.
        for ff_index in circuit.dffs:
            if any(
                not self.descriptors[fid].detected
                for fid in self.local_faults[ff_index]
            ):
                self._dirty_ffs.add(ff_index)
        pending = self._compute_ff_updates()
        self._dirty_ffs = set()
        if trace is not None:
            t3 = time.perf_counter()
            trace.phase_time("latch", t3 - t2)

        # Firing pass: remove all forcing and let each machine settle to
        # the values its own state implies.
        self._firing = True
        self._release_pi_forcing()
        for gate_index in evaluated:
            self._schedule(gate_index)
        self._settle()
        if trace is not None:
            trace.phase_time("fire", time.perf_counter() - t3)

        # PV for the next cycle is read *before* the flip-flops commit: a
        # line fed by a flip-flop transitions at the coming clock edge, so
        # its value during this cycle — the old Q — is what a delayed
        # transition holds into the next sampling window.
        self._refresh_previous_values()
        self._commit_ff_updates(pending)
        if sanitizer is not None:
            sanitizer.check("commit")
        self.memory.note_elements(self._live_elements)
        if trace is not None:
            if trace.enabled:
                visible = sum(map(len, self.vis))
                invisible = sum(map(len, self.invis))
            else:
                visible = invisible = 0
            trace.cycle_end(
                self.cycle,
                live=self._live_elements,
                visible=visible,
                invisible=invisible,
            )
        return newly_detected

    def _release_pi_forcing(self) -> None:
        """Drop sampling-pass elements at primary inputs (fired = good)."""
        for pi_index in self.circuit.inputs:
            if not self.local_faults[pi_index]:
                continue
            event = False
            for fid in list(self.vis[pi_index]):
                self._remove(pi_index, fid)
                event = True
            if event:
                self._emit_event(pi_index)

    def _refresh_previous_values(self) -> None:
        """After the firing pass every line holds its completed value; that
        value is next cycle's PV at each fault's site, read in the fault's
        own machine (latched errors make it differ from the good value)."""
        circuit = self.circuit
        good = self.good
        vis = self.vis
        for descriptor in self.descriptors:
            if descriptor.detected:
                continue
            if descriptor.pin == OUTPUT_PIN:
                line = descriptor.site_gate
            else:
                line = circuit.gates[descriptor.site_gate].fanin[descriptor.pin]
            descriptor.prev_site_value = vis[line].get(descriptor.fid, good[line])

    @property
    def engine_name(self) -> str:
        return "csim-TV" if self.options.split_lists else "csim-T"

    def run(self, vectors: Iterable[Sequence[int]], budget=None) -> FaultSimResult:
        return drive(self, vectors, budget)
