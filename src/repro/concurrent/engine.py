"""Zero-delay concurrent fault simulation for synchronous sequential circuits.

This is the paper's simulator.  One good machine and many faulty machines
are simulated together; a faulty machine is explicit only where it differs
from the good machine, as *fault elements* on per-gate lists.  The paper's
structural choices are all here:

* **Deductive-style lists** (Section 2.1): an element is ``fault id ->
  faulty output value`` on the gate's list; everything global about a fault
  lives in its shared :class:`FaultDescriptor`.  A faulty machine's input
  values are read from the fanin gates' lists ("multi-list traversal"),
  falling back to the good value where the fault is not explicit — exactly
  the rule of the paper's Figure 1.
* **Zero-delay levelized scheduling** (Section 2.1): only gate identifiers
  are scheduled, into a per-level queue, whenever *any* machine has an
  event on a fanin; gates evaluate in level order so one sweep settles the
  network.  The first vector schedules every gate (initialization).
* **Divergence/convergence** by comparing the evaluated faulty state with
  the good state: output differs -> visible element; only inputs differ ->
  invisible element; identical -> the element is removed.
* **Event-driven fault dropping** (Section 2.2): detected faults' elements
  are removed while the lists holding them are traversed, never by a
  circuit-wide sweep.  (The paper's terminal-element trick — a sentinel
  whose descriptor is never dropped, removing the end-of-list test — is a
  linked-list micro-optimization; Python dictionaries subsume it.)
* **Visible/invisible list splitting** (Section 2.2, the ``-V`` variants):
  with ``split_lists`` on, propagation and detection scan only visible
  elements; with it off, the single conceptual list is scanned whole,
  reproducing the extra work the paper ablates.
* **Macro extraction** (Section 2.2, the ``-M`` variants): the engine runs
  on the macro-transformed circuit and faults inside macros evaluate
  through private faulty lookup tables (functional faults).

Flip-flops carry their own fault lists: a latched fault effect is an
element on the DFF gate, which is how fault effects persist across clock
cycles.  Flip-flops update two-phase at the cycle boundary from settled D
values, and their events seed the next cycle's queue.
"""

from __future__ import annotations

import time
from typing import (
    Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple,
)
from weakref import WeakKeyDictionary

from repro.circuit.macro import RegionTables, extract_macros
from repro.circuit.netlist import Circuit
from repro.concurrent.elements import Behavior, FaultDescriptor
from repro.concurrent.options import SimOptions
from repro.drive import drive
from repro.faults.model import OUTPUT_PIN, Fault, StuckAtFault
from repro.faults.universe import stuck_at_universe
from repro.logic.tables import GateType, shared_eval_tables
from repro.logic.values import X
from repro.obs.tracer import Tracer, gate_tracer
from repro.result import Failure, FaultSimResult, MemoryStats, WorkCounters

#: Shared macro transforms, keyed weakly by flat circuit then by the macro
#: input cap.  ``extract_macros`` is deterministic and its result is
#: read-only at simulation time, so instances can share one transform —
#: which also makes their *working* circuits the same object, letting the
#: evaluation-table cache above hit across csim-M/-MV instances.
_MACRO_CACHE: "WeakKeyDictionary[Circuit, Dict[int, object]]" = WeakKeyDictionary()


def shared_macro_transform(circuit: Circuit, macro_max_inputs: int):
    """The macro transform of *circuit*, memoized per input cap."""
    by_width = _MACRO_CACHE.get(circuit)
    if by_width is None:
        by_width = {}
        _MACRO_CACHE[circuit] = by_width
    transform = by_width.get(macro_max_inputs)
    if transform is None:
        transform = extract_macros(circuit, macro_max_inputs)
        by_width[macro_max_inputs] = transform
    return transform


class SettlePlan(NamedTuple):
    """A working circuit as the settle kernel reads it, one entry per gate;
    ``fanouts[g]`` is ``(combinational sinks, flip-flop sinks)``.  The
    faults sited at each gate (``local_faults``) are per simulator."""

    fanins: Tuple[Tuple[int, ...], ...]
    tables: Tuple[Any, ...]
    levels: Tuple[int, ...]
    fanouts: Sequence[Tuple[Tuple[int, ...], Tuple[int, ...]]]


#: Shared settle plans, keyed weakly by working circuit.
_PLAN_CACHE: "WeakKeyDictionary[Circuit, SettlePlan]" = WeakKeyDictionary()


def shared_settle_plan(circuit: Circuit) -> SettlePlan:
    """The settle plan of *circuit*, memoized."""
    plan = _PLAN_CACHE.get(circuit)
    if plan is None:
        gates = circuit.gates
        flip_flop = [gate.gtype is GateType.DFF for gate in gates]
        plan = _PLAN_CACHE[circuit] = SettlePlan(
            fanins=tuple(gate.fanin for gate in gates),
            tables=shared_eval_tables(circuit),
            levels=tuple(gate.level for gate in gates),
            fanouts=tuple(
                (
                    tuple(sink for sink in gate.fanout if not flip_flop[sink]),
                    tuple(sink for sink in gate.fanout if flip_flop[sink]),
                )
                for gate in gates
            ),
        )
    return plan


class ConcurrentFaultSimulator:
    """Concurrent stuck-at fault simulator (csim / -V / -M / -MV).

    Parameters
    ----------
    circuit:
        The flat circuit under test.  With ``options.use_macros`` the
        engine internally runs on the macro-transformed circuit; faults
        and detections are always reported against *circuit*.
    faults:
        Stuck-at faults to simulate; defaults to the collapsed universe.
    options:
        Variant selection, see :class:`repro.concurrent.options.SimOptions`.
    tracer:
        Optional :class:`repro.obs.Tracer`.  ``None`` (the default) means
        no tracing: every hook site is a single local None-check, so an
        untraced run does no instrumentation work at all.  The per-gate
        hooks (the ``WorkCounters`` mirror, divergence and convergence)
        go only to a tracer that records (``enabled``); run, cycle, phase
        and detection hooks go to any tracer.
    record_responses:
        Dictionary-building mode: fault dropping is disabled (the
        requested options are kept otherwise) and every binary output
        mismatch is recorded per fault as a ``(cycle, po_position)``
        failure, surfaced on ``result.responses``.  Detection cycles stay
        identical to a dropping run (first detection is still what
        ``detected`` reports).
    """

    def __init__(
        self,
        circuit: Circuit,
        faults: Optional[Iterable[StuckAtFault]] = None,
        options: SimOptions = SimOptions(),
        macro=None,
        tracer: Optional[Tracer] = None,
        record_responses: bool = False,
    ) -> None:
        self.original_circuit = circuit
        self.record_responses = record_responses
        if record_responses and options.drop_detected:
            options = options.with_(drop_detected=False)
        self.options = options
        self.tracer = tracer
        self._gate_tracer = gate_tracer(tracer)
        universe = self._default_universe(circuit) if faults is None else faults
        #: Sorted for deterministic fault ids (and so detection order never
        #: depends on how the caller built the list).
        self.faults: List[StuckAtFault] = sorted(universe)
        if macro is not None:
            # Caller-supplied macro transform (e.g. built along hierarchy
            # boundaries via extract_macros(..., preassigned=...)).
            if macro.flat is not circuit:
                raise ValueError("macro transform was built for a different circuit")
            self.macro = macro
            self.circuit = macro.circuit
        elif options.use_macros:
            self.macro = shared_macro_transform(circuit, options.macro_max_inputs)
            self.circuit = self.macro.circuit
        else:
            self.macro = None
            self.circuit = circuit
        self._plan = shared_settle_plan(self.circuit)
        self._build_descriptors()
        self.reset()
        if options.sanitize:
            from repro.robust.guards import FaultListSanitizer

            self._sanitizer: Optional[FaultListSanitizer] = FaultListSanitizer(self)
        else:
            self._sanitizer = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _default_universe(self, circuit: Circuit) -> List[StuckAtFault]:
        return stuck_at_universe(circuit)

    def _build_descriptors(self) -> None:
        circuit = self.circuit
        self.descriptors: List[FaultDescriptor] = []
        self.local_faults: Dict[int, List[int]] = {
            gate.index: [] for gate in circuit.gates
        }
        # Faults of one region shape share a table for this build only.
        tables = None if self.macro is None else RegionTables(self.macro.flat)
        for fid, fault in enumerate(self.faults):
            descriptor = self._make_descriptor(fid, fault, tables)
            self.descriptors.append(descriptor)
            if not self._is_inert(descriptor):
                self.local_faults[descriptor.site_gate].append(fid)

    def _make_descriptor(
        self, fid: int, fault: StuckAtFault, tables: Optional[RegionTables] = None
    ) -> FaultDescriptor:
        if self.macro is not None:
            site, behavior, pin, value, table = self.macro.translate_stuck_at(fault, tables)
            return FaultDescriptor(
                fid=fid,
                fault=fault,
                site_gate=site,
                behavior=Behavior(behavior),
                pin=pin,
                value=value,
                table=table,
            )
        if fault.pin == OUTPUT_PIN:
            behavior = Behavior.FORCE_OUTPUT
        else:
            behavior = Behavior.FORCE_INPUT
        return FaultDescriptor(
            fid=fid,
            fault=fault,
            site_gate=fault.gate,
            behavior=behavior,
            pin=fault.pin,
            value=fault.value,
        )

    def _is_inert(self, descriptor: FaultDescriptor) -> bool:
        """A functional fault whose table equals the good table never
        diverges; it stays in the universe (denominator) but is skipped."""
        if descriptor.behavior is not Behavior.TABLE:
            return False
        gate = self.circuit.gates[descriptor.site_gate]
        return descriptor.table == gate.table

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Return to the all-X power-up state with no fault explicit."""
        circuit = self.circuit
        count = len(circuit.gates)
        self.good: List[int] = [X] * count
        self.vis: List[Dict[int, int]] = [dict() for _ in range(count)]
        self.invis: List[Dict[int, int]] = [dict() for _ in range(count)]
        self.cycle = 0
        self.detected: Dict[Fault, int] = {}
        self.potentially_detected: Dict[Fault, int] = {}
        #: fid -> recorded failures, populated only in record_responses mode.
        self._responses: Dict[int, List[Failure]] = {}
        self.counters = WorkCounters()
        self.memory = MemoryStats(num_descriptors=len(self.descriptors))
        self._live_elements = 0
        self._next_cycle_gates: Set[int] = set()
        self._dirty_ffs: Set[int] = set(circuit.dffs)
        self._queue: List[List[int]] = [[] for _ in range(circuit.num_levels + 1)]
        self._in_queue: List[bool] = [False] * count
        # When not None, _settle records every gate it evaluates here (the
        # transition engine uses this to seed its second pass).
        self._record_evaluated: Optional[Set[int]] = None
        # Reusable scratch for _settle's fanin merge: one dict and one
        # purge list serve every gate evaluation instead of fresh
        # allocations per gate.  Transient — never snapshotted.
        self._scratch_candidates: Dict[int, int] = {}
        self._scratch_purge: List[Tuple[int, int]] = []
        for descriptor in self.descriptors:
            descriptor.detected = False
            descriptor.detect_cycle = None
            descriptor.prev_site_value = X

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """Capture the full simulation state (for search/compaction loops).

        The returned object is opaque; pass it back to :meth:`restore`.
        Counters and memory statistics are included so a restored run is
        bit-identical to never having simulated the rolled-back vectors.
        """
        import copy

        return {
            "good": list(self.good),
            "vis": [dict(bucket) for bucket in self.vis],
            "invis": [dict(bucket) for bucket in self.invis],
            "cycle": self.cycle,
            "detected": dict(self.detected),
            "potential": dict(self.potentially_detected),
            "descriptor_state": [
                (d.detected, d.detect_cycle, d.prev_site_value)
                for d in self.descriptors
            ],
            "live": self._live_elements,
            "next_gates": set(self._next_cycle_gates),
            "dirty_ffs": set(self._dirty_ffs),
            "counters": copy.copy(self.counters),
            "memory": copy.copy(self.memory),
            "responses": {fid: list(f) for fid, f in self._responses.items()},
        }

    def restore(self, state: dict) -> None:
        """Roll the simulator back to a :meth:`snapshot`."""
        self.good = list(state["good"])
        self.vis = [dict(bucket) for bucket in state["vis"]]
        self.invis = [dict(bucket) for bucket in state["invis"]]
        self.cycle = state["cycle"]
        self.detected = dict(state["detected"])
        self.potentially_detected = dict(state["potential"])
        for descriptor, (det, det_cycle, prev) in zip(
            self.descriptors, state["descriptor_state"]
        ):
            descriptor.detected = det
            descriptor.detect_cycle = det_cycle
            descriptor.prev_site_value = prev
        self._live_elements = state["live"]
        self._next_cycle_gates = set(state["next_gates"])
        self._dirty_ffs = set(state["dirty_ffs"])
        self._responses = {
            fid: [tuple(f) for f in failures]
            for fid, failures in state.get("responses", {}).items()
        }
        import copy

        self.counters = copy.copy(state["counters"])
        self.memory = copy.copy(state["memory"])

    # -- element bookkeeping ----------------------------------------------

    def _store(self, lists: List[Dict[int, int]], gate: int, fid: int, value: int) -> None:
        bucket = lists[gate]
        if fid not in bucket:
            self._live_elements += 1
            trace = self._gate_tracer
            if trace is not None:
                trace.diverge(gate, fid, lists is self.vis)
        bucket[fid] = value

    def _remove(self, gate: int, fid: int) -> None:
        removed = False
        if self.vis[gate].pop(fid, None) is not None:
            self._live_elements -= 1
            removed = True
        if self.invis[gate].pop(fid, None) is not None:
            self._live_elements -= 1
            removed = True
        if removed:
            trace = self._gate_tracer
            if trace is not None:
                trace.converge(gate, fid)

    # Scheduling at the phase boundaries; _settle inlines both.

    def _schedule(self, gate_index: int) -> None:
        if not self._in_queue[gate_index]:
            self._in_queue[gate_index] = True
            level = self._plan.levels[gate_index]
            self._queue[level].append(gate_index)
            self.counters.gates_scheduled += 1
            trace = self._gate_tracer
            if trace is not None:
                trace.scheduled(gate_index, level)

    def _emit_event(self, gate_index: int) -> None:
        """An event on *gate_index*: schedule combinational fanouts now,
        mark flip-flop fanouts for the boundary update."""
        self.counters.events += 1
        trace = self._gate_tracer
        if trace is not None:
            trace.event(gate_index)
        sinks, flip_flops = self._plan.fanouts[gate_index]
        for sink in sinks:
            self._schedule(sink)
        self._dirty_ffs.update(flip_flops)

    # ------------------------------------------------------------------
    # per-cycle simulation
    # ------------------------------------------------------------------

    def step(self, vector: Sequence[int]) -> List[Fault]:
        """Simulate one clock cycle; returns faults first detected in it."""
        circuit = self.circuit
        if len(vector) != len(circuit.inputs):
            raise ValueError(
                f"vector has {len(vector)} values for {len(circuit.inputs)} inputs"
            )
        sanitizer = self._sanitizer
        if sanitizer is not None:
            # Checking *before* the cycle starts pins a corruption seeded
            # between steps (a bad restore, a chaos injection) to this
            # boundary instead of letting it crash mid-settle.
            sanitizer.check("pre-cycle")
        self.cycle += 1
        self.counters.cycles += 1
        trace = self.tracer
        if trace is not None:
            trace.cycle_start(self.cycle)

        if self.cycle == 1:
            # Initialization: evaluate the whole network once so every
            # local fault gets the chance to diverge from the X state, and
            # make output-stuck flip-flop faults explicit from power-up
            # (they force Q before the first clock edge ever fires).
            for gate_index in circuit.order:
                self._schedule(gate_index)
            self._dirty_ffs.update(circuit.dffs)
            for ff_index in circuit.dffs:
                for fid in self.local_faults[ff_index]:
                    descriptor = self.descriptors[fid]
                    if descriptor.behavior is Behavior.FORCE_OUTPUT:
                        self._store(self.vis, ff_index, fid, descriptor.value)
        else:
            for gate_index in self._next_cycle_gates:
                self._schedule(gate_index)
        self._next_cycle_gates = set()

        if trace is not None:
            t0 = time.perf_counter()
        for position, pi_index in enumerate(circuit.inputs):
            self._apply_source(pi_index, vector[position])
        if trace is not None:
            t1 = time.perf_counter()
            trace.phase_time("apply", t1 - t0)
        self._settle()
        if sanitizer is not None:
            sanitizer.check("settle")
        if trace is not None:
            t2 = time.perf_counter()
            trace.phase_time("settle", t2 - t1)
        self.memory.note_elements(self._live_elements)
        newly_detected = self._detect()
        if sanitizer is not None:
            sanitizer.check("detect")
        if trace is not None:
            t3 = time.perf_counter()
            trace.phase_time("detect", t3 - t2)
        self._clock()
        if sanitizer is not None:
            sanitizer.check("clock")
        if trace is not None:
            trace.phase_time("clock", time.perf_counter() - t3)
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

    @property
    def engine_name(self) -> str:
        """The label results and traces carry: the variant's name."""
        return self.options.variant_name

    def advance(self, vectors: Iterator[Sequence[int]], limit: int) -> int:
        """Apply the next vector (see :mod:`repro.drive`)."""
        self.step(next(vectors))
        return 1

    def run(self, vectors: Iterable[Sequence[int]], budget=None) -> FaultSimResult:
        """Simulate a whole sequence, budgeted (see :func:`repro.drive.drive`)."""
        return drive(self, vectors, budget)

    def responses_by_fault(self) -> Dict[Fault, Tuple[Failure, ...]]:
        """The recorded responses keyed by fault, in deterministic fid order.

        Every simulated fault gets a key — an empty tuple means the fault
        never produced a binary output mismatch over the applied vectors.
        """
        return {
            descriptor.fault: tuple(self._responses.get(descriptor.fid, ()))
            for descriptor in self.descriptors
        }

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------

    def _apply_source(self, pi_index: int, value: int) -> None:
        """Drive one primary input and its local (output) faults."""
        old_good = self.good[pi_index]
        self.good[pi_index] = value
        vis = self.vis[pi_index]
        event = value != old_good
        drop = self.options.drop_detected
        evals = 0
        for fid in self.local_faults[pi_index]:
            descriptor = self.descriptors[fid]
            if descriptor.detected and drop:
                self._remove(pi_index, fid)
                continue
            if descriptor.behavior is Behavior.TRANSITION:
                forced = self._transition_delay(descriptor, value)
            else:
                forced = descriptor.value
            self.counters.fault_evaluations += 1
            evals += 1
            before = vis.get(fid, old_good)
            if forced != value:
                self._store(self.vis, pi_index, fid, forced)
            else:
                self._remove(pi_index, fid)
            if before != forced:
                event = True
        if evals:
            trace = self._gate_tracer
            if trace is not None:
                trace.fault_evals(pi_index, evals)
        if event:
            self._emit_event(pi_index)

    def _settle(self) -> None:
        """The settle kernel: evaluate the scheduled gates level by level
        (the zero-delay "second phase" of Section 2.1), one loop body per
        gate on packed state words (DESIGN.md section 5).

        One pass over the fanins packs the good machine's word and walks
        the multi-list traversal: each faulty machine to evaluate maps to
        the XOR of its word against the good one (``good_packed ^
        delta``); only visible fanin elements carry bits, and detected
        faults met on the way are dropped (event-driven dropping).  Each
        candidate is then one table index and one word comparison
        (divergence/convergence); an event schedules the combinational
        fanouts and marks the flip-flop fanouts.  Work counters stay in
        locals and reach ``self.counters`` once per settle.
        """
        fanins, tables, levels, fanouts = self._plan
        local_faults = self.local_faults
        descriptors = self.descriptors
        good, vis, invis = self.good, self.vis, self.invis
        drop = self.options.drop_detected
        split = self.options.split_lists
        queue, in_queue, dirty_ffs = self._queue, self._in_queue, self._dirty_ffs
        evaluated = self._record_evaluated
        trace = self._gate_tracer
        deltas = self._scratch_candidates
        purge = self._scratch_purge
        force_output, force_input = Behavior.FORCE_OUTPUT, Behavior.FORCE_INPUT
        table_behavior = Behavior.TABLE
        live = self._live_elements
        good_evals = fault_evals = visits = events = scheduled = 0
        for level in range(1, len(queue)):
            bucket = queue[level]
            if not bucket:
                continue
            good_evals += len(bucket)
            for gate in bucket:
                in_queue[gate] = False
                if evaluated is not None:
                    evaluated.add(gate)
                if trace is not None:
                    trace.good_evals(gate)
                old_good = good[gate]
                deltas.clear()
                good_packed = 0
                shift = 0
                for source in fanins[gate]:
                    good_value = good[source]
                    good_packed |= good_value << shift
                    elements = vis[source]
                    if elements:
                        visits += len(elements)
                        if trace is not None:
                            trace.element_visits(source, len(elements))
                        for fid, value in elements.items():
                            if drop and descriptors[fid].detected:
                                purge.append((source, fid))
                            elif fid in deltas:
                                deltas[fid] ^= (value ^ good_value) << shift
                            else:
                                deltas[fid] = (value ^ good_value) << shift
                    shift += 2
                    if not split and invis[source]:
                        elements = invis[source]
                        visits += len(elements)
                        if trace is not None:
                            trace.element_visits(source, len(elements))
                        for fid in elements:
                            if drop and descriptors[fid].detected:
                                purge.append((source, fid))
                            elif fid not in deltas:
                                deltas[fid] = 0
                vis_here = vis[gate]
                invis_here = invis[gate]
                for elements in (vis_here, invis_here):
                    if elements:
                        visits += len(elements)
                        if trace is not None:
                            trace.element_visits(gate, len(elements))
                        for fid in elements:
                            if drop and descriptors[fid].detected:
                                purge.append((gate, fid))
                            elif fid not in deltas:
                                deltas[fid] = 0
                for fid in local_faults[gate]:
                    if fid not in deltas and not (drop and descriptors[fid].detected):
                        deltas[fid] = 0
                table = tables[gate]
                new_good = good[gate] = table[good_packed]
                if purge:
                    for source, fid in purge:
                        removed = False
                        if vis[source].pop(fid, None) is not None:
                            live -= 1
                            removed = True
                        if invis[source].pop(fid, None) is not None:
                            live -= 1
                            removed = True
                        if removed and trace is not None:
                            trace.converge(source, fid)
                    purge.clear()

                fault_event = False
                if deltas:
                    fault_evals += len(deltas)
                    if trace is not None:
                        trace.fault_evals(gate, len(deltas))
                for fid, delta in deltas.items():
                    packed = good_packed ^ delta
                    descriptor = descriptors[fid]
                    if descriptor.site_gate != gate:
                        out = table[packed]
                    else:
                        behavior = descriptor.behavior
                        if behavior is force_output:
                            out = descriptor.value
                        elif behavior is force_input:
                            position = 2 * descriptor.pin
                            packed = (packed & ~(0b11 << position)) | (
                                descriptor.value << position
                            )
                            out = table[packed]
                        elif behavior is table_behavior:
                            out = descriptor.table[packed]
                        else:  # TRANSITION: rare site path, via the hook
                            out, packed = self._transition_output(
                                descriptor, table, packed
                            )
                    visible = fid in vis_here
                    before = vis_here[fid] if visible else old_good
                    if out != new_good:
                        if fid in invis_here:
                            del invis_here[fid]
                            live -= 1
                        if not visible:
                            live += 1
                            if trace is not None:
                                trace.diverge(gate, fid, True)
                        vis_here[fid] = out
                    elif packed != good_packed:
                        # Same output, different state: invisible element.
                        if visible:
                            del vis_here[fid]
                            live -= 1
                        if fid not in invis_here:
                            live += 1
                            if trace is not None:
                                trace.diverge(gate, fid, False)
                        invis_here[fid] = out
                    else:
                        removed = visible
                        if visible:
                            del vis_here[fid]
                            live -= 1
                        if fid in invis_here:
                            del invis_here[fid]
                            live -= 1
                            removed = True
                        if removed and trace is not None:
                            trace.converge(gate, fid)
                    if before != out:
                        fault_event = True

                if new_good != old_good or fault_event:
                    events += 1
                    if trace is not None:
                        trace.event(gate)
                    sinks, flip_flops = fanouts[gate]
                    for sink in sinks:
                        if not in_queue[sink]:
                            in_queue[sink] = True
                            sink_level = levels[sink]
                            queue[sink_level].append(sink)
                            scheduled += 1
                            if trace is not None:
                                trace.scheduled(sink, sink_level)
                    if flip_flops:
                        dirty_ffs.update(flip_flops)
            bucket.clear()
        self._live_elements = live
        counters = self.counters
        counters.good_evaluations += good_evals
        counters.fault_evaluations += fault_evals
        counters.element_visits += visits
        counters.events += events
        counters.gates_scheduled += scheduled

    def _transition_output(self, descriptor, table, packed):  # pragma: no cover
        raise NotImplementedError(
            "transition faults require TransitionFaultSimulator"
        )

    def _transition_delay(self, descriptor, value):  # pragma: no cover
        raise NotImplementedError(
            "transition faults require TransitionFaultSimulator"
        )

    def _detect(self) -> List[Fault]:
        """Scan primary-output fault lists for detections.

        A fault is detected when both machines carry known, differing
        values at an observed line.  Without list splitting the invisible
        list is scanned too (and yields nothing) — the cost the paper's
        ``-V`` variants remove.
        """
        newly: List[Fault] = []
        drop = self.options.drop_detected
        counters = self.counters
        gate_trace = self._gate_tracer
        trace = self.tracer
        hard_now: List[int] = []
        potential_now: List[int] = []
        for po_index in self.circuit.outputs:
            good_value = self.good[po_index]
            vis = self.vis[po_index]
            if gate_trace is not None and vis:
                gate_trace.element_visits(po_index, len(vis))
            purge: List[int] = []
            for fid, value in vis.items():
                counters.element_visits += 1
                descriptor = self.descriptors[fid]
                if descriptor.detected:
                    if drop:
                        purge.append(fid)
                    continue
                if good_value == X:
                    continue
                if value != X:
                    hard_now.append(fid)
                else:
                    potential_now.append(fid)
            for fid in purge:
                self._remove(po_index, fid)
            if not self.options.split_lists:
                invis_length = len(self.invis[po_index])
                counters.element_visits += invis_length
                if gate_trace is not None and invis_length:
                    gate_trace.element_visits(po_index, invis_length)
        # Hard and potential detections are judged on the full output
        # vector of the cycle; marking happens after the scan so that a
        # hard detection at one output doesn't hide the same cycle's
        # observations at another (the serial oracle sees all outputs at
        # once, and the engines must agree to the cycle).
        for fid in potential_now:
            fault = self.descriptors[fid].fault
            if fault not in self.potentially_detected:
                self.potentially_detected[fault] = self.cycle
                if trace is not None:
                    trace.detect(fid, self.cycle, potential=True)
        for fid in hard_now:
            descriptor = self.descriptors[fid]
            if descriptor.detected:
                continue  # listed at several outputs this cycle
            descriptor.mark_detected(self.cycle)
            self.detected[descriptor.fault] = self.cycle
            newly.append(descriptor.fault)
            if trace is not None:
                trace.detect(fid, self.cycle)
                if drop:
                    trace.drop(fid, self.cycle)
        if self.record_responses:
            self._record_cycle_responses()
        return newly

    def _record_cycle_responses(self) -> None:
        """Append this cycle's binary output mismatches to the responses.

        A pure observation pass over the visible PO lists — it touches no
        counters and fires no tracer hooks, so the counter/hook
        reconciliation contract is unchanged by recording.
        """
        responses = self._responses
        for po_position, po_index in enumerate(self.circuit.outputs):
            good_value = self.good[po_index]
            if good_value == X:
                continue
            for fid, value in self.vis[po_index].items():
                if value == X or value == good_value:
                    continue
                failures = responses.get(fid)
                if failures is None:
                    failures = responses[fid] = []
                failures.append((self.cycle, po_position))

    def _clock(self) -> None:
        """Two-phase flip-flop update from settled D values.

        Computes every dirty flip-flop's next good and faulty values from
        the pre-commit state, then commits all at once; events seed the
        next cycle's queue.
        """
        pending = self._compute_ff_updates()
        self._dirty_ffs = set()
        self._commit_ff_updates(pending)

    def _compute_ff_updates(
        self,
    ) -> List[Tuple[int, int, List[Tuple[int, int, bool]], bool]]:
        """Latch phase: next good/faulty values per dirty flip-flop, from
        the current settled (pre-commit) network values."""
        fanins = self._plan.fanins
        local_faults = self.local_faults
        descriptors = self.descriptors
        drop = self.options.drop_detected
        split = self.options.split_lists
        good, vis, invis = self.good, self.vis, self.invis
        counters = self.counters
        trace = self._gate_tracer
        pending: List[Tuple[int, int, List[Tuple[int, int, bool]], bool]] = []

        for ff_index in self._dirty_ffs:
            d_source = fanins[ff_index][0]
            old_q = good[ff_index]
            new_q = good[d_source]
            vis_here = vis[ff_index]
            # The latch's own merge: a faulty machine latches its element
            # on D's visible list, or else the good D (the kernel's
            # traversal order, one fanin).
            latched: Dict[int, int] = {}
            purge: List[Tuple[int, int]] = []
            for source, elements, carries in (
                (d_source, vis[d_source], True),
                (d_source, {} if split else invis[d_source], False),
                (ff_index, vis_here, False),
                (ff_index, invis[ff_index], False),
            ):
                if not elements:
                    continue
                counters.element_visits += len(elements)
                if trace is not None:
                    trace.element_visits(source, len(elements))
                for fid, value in elements.items():
                    if drop and descriptors[fid].detected:
                        purge.append((source, fid))
                    elif fid not in latched:
                        latched[fid] = value if carries else new_q
            for fid in local_faults[ff_index]:
                if fid not in latched and not (drop and descriptors[fid].detected):
                    latched[fid] = new_q
            for source, fid in purge:
                self._remove(source, fid)
            updates: List[Tuple[int, int, bool]] = []
            event = new_q != old_q
            if latched:
                counters.fault_evaluations += len(latched)
                if trace is not None:
                    trace.fault_evals(ff_index, len(latched))
            for fid, q_fault in latched.items():
                descriptor = descriptors[fid]
                if descriptor.site_gate == ff_index:
                    behavior = descriptor.behavior
                    if behavior is Behavior.FORCE_OUTPUT or behavior is Behavior.FORCE_INPUT:
                        # Q stuck, or a stuck D pin latching the forced value.
                        q_fault = descriptor.value
                    elif behavior is Behavior.TRANSITION:
                        q_fault = self._transition_delay(descriptor, q_fault)
                before = vis_here.get(fid, old_q)
                updates.append((fid, q_fault, q_fault != new_q))
                if before != q_fault:
                    event = True
            pending.append((ff_index, new_q, updates, event))
        return pending

    def _commit_ff_updates(
        self, pending: List[Tuple[int, int, List[Tuple[int, int, bool]], bool]]
    ) -> None:
        """Commit phase: assign the latched values and seed the next cycle.

        Flip-flop events schedule combinational fanouts for the next
        cycle's queue and mark downstream flip-flops dirty for the next
        boundary.
        """
        fanouts = self._plan.fanouts
        good = self.good
        for ff_index, new_q, updates, event in pending:
            good[ff_index] = new_q
            for fid, q_fault, differs in updates:
                if differs:
                    self._store(self.vis, ff_index, fid, q_fault)
                else:
                    self._remove(ff_index, fid)
            if event:
                self.counters.events += 1
                trace = self._gate_tracer
                if trace is not None:
                    trace.event(ff_index)
                sinks, flip_flops = fanouts[ff_index]
                self._next_cycle_gates.update(sinks)
                self._dirty_ffs.update(flip_flops)
