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
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple
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
from repro.obs.tracer import Tracer
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
        untraced run does no instrumentation work at all.
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
        self._build_eval_tables()
        self._build_descriptors()
        self.reset()
        if options.sanitize:
            from repro.robust.guards import FaultListSanitizer

            self._sanitizer: Optional[FaultListSanitizer] = FaultListSanitizer(self)
        else:
            self._sanitizer = None

    def _build_eval_tables(self) -> None:
        """Attach the (shared, memoized) per-gate lookup tables."""
        self._eval_tables = shared_eval_tables(self.circuit)

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
        # When not None, _evaluate records every gate it touches here (the
        # transition engine uses this to seed its second pass).
        self._record_evaluated: Optional[Set[int]] = None
        # Reusable scratch for _gather: one dict and one purge list serve
        # every gate evaluation instead of fresh allocations per call.
        # Transient — never snapshotted.
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
            trace = self.tracer
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
            trace = self.tracer
            if trace is not None:
                trace.converge(gate, fid)

    def _schedule(self, gate_index: int) -> None:
        if not self._in_queue[gate_index]:
            self._in_queue[gate_index] = True
            level = self.circuit.gates[gate_index].level
            self._queue[level].append(gate_index)
            self.counters.gates_scheduled += 1
            trace = self.tracer
            if trace is not None:
                trace.scheduled(gate_index, level)

    def _emit_event(self, gate_index: int) -> None:
        """An event on *gate_index*: schedule combinational fanouts now,
        mark flip-flop fanouts for the boundary update."""
        self.counters.events += 1
        trace = self.tracer
        if trace is not None:
            trace.event(gate_index)
        gates = self.circuit.gates
        for sink in gates[gate_index].fanout:
            if gates[sink].gtype is GateType.DFF:
                self._dirty_ffs.add(sink)
            else:
                self._schedule(sink)

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
        """Drive one primary input and its local (output-stuck) faults."""
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
            trace = self.tracer
            if trace is not None:
                trace.fault_evals(pi_index, evals)
        if event:
            self._emit_event(pi_index)

    def _settle(self) -> None:
        """Evaluate scheduled gates level by level (the zero-delay 'second
        phase' of Section 2.1)."""
        queue = self._queue
        in_queue = self._in_queue
        for level in range(1, len(queue)):
            bucket = queue[level]
            if not bucket:
                continue
            for gate_index in bucket:
                in_queue[gate_index] = False
                self._evaluate(gate_index)
            bucket.clear()

    def _gather(self, gate_index: int, fanin: Tuple[int, ...]) -> Dict[int, int]:
        """One multi-list traversal: the faulty machines to evaluate at this
        gate, each mapped to the XOR of its packed input word against the
        good machine's, so its state is ``good_packed ^ delta``.

        The traversal walks each fanin's visible list (plus, without list
        splitting, its invisible list — the scan the ``-V`` variants
        avoid), then the gate's own lists (for convergence) and the faults
        whose site is this gate.  Only visible fanin elements carry a value
        that differs from the good machine's.  Detected faults are dropped
        from the lists as they are encountered (event-driven dropping).

        The returned dict is the engine's reusable scratch: it is valid
        until the next ``_gather`` call, which is exactly the lifetime
        every caller needs (iterate once, then move to the next gate).
        """
        descriptors = self.descriptors
        drop = self.options.drop_detected
        split = self.options.split_lists
        good = self.good
        counters = self.counters
        trace = self.tracer
        deltas = self._scratch_candidates
        deltas.clear()
        purge = self._scratch_purge
        purge.clear()
        vis = self.vis
        shift = 0
        for source in fanin:
            bucket = vis[source]
            if bucket:
                counters.element_visits += len(bucket)
                if trace is not None:
                    trace.element_visits(source, len(bucket))
                good_value = good[source]
                for fid, value in bucket.items():
                    if drop and descriptors[fid].detected:
                        purge.append((source, fid))
                    elif fid in deltas:
                        deltas[fid] ^= (value ^ good_value) << shift
                    else:
                        deltas[fid] = (value ^ good_value) << shift
            shift += 2
            if not split and self.invis[source]:
                self._gather_unchanged(source, self.invis[source], purge)
        if vis[gate_index]:
            self._gather_unchanged(gate_index, vis[gate_index], purge)
        if self.invis[gate_index]:
            self._gather_unchanged(gate_index, self.invis[gate_index], purge)
        for fid in self.local_faults[gate_index]:
            if fid not in deltas and not (drop and descriptors[fid].detected):
                deltas[fid] = 0
        for source, fid in purge:
            self._remove(source, fid)
        return deltas

    def _gather_unchanged(self, source: int, bucket: Dict[int, int], purge) -> None:
        """Add one list whose elements leave this gate's inputs as the good
        machine's (detected ones go to *purge*)."""
        self.counters.element_visits += len(bucket)
        trace = self.tracer
        if trace is not None:
            trace.element_visits(source, len(bucket))
        deltas = self._scratch_candidates
        descriptors = self.descriptors
        drop = self.options.drop_detected
        for fid in bucket:
            if drop and descriptors[fid].detected:
                purge.append((source, fid))
            elif fid not in deltas:
                deltas[fid] = 0

    def _transition_output(self, descriptor, table, packed):  # pragma: no cover
        raise NotImplementedError(
            "transition faults require TransitionFaultSimulator"
        )

    def _ff_transition_latch(self, descriptor, q_fault):  # pragma: no cover
        raise NotImplementedError(
            "transition faults require TransitionFaultSimulator"
        )

    def _evaluate(self, gate_index: int) -> None:
        """Re-evaluate the good machine and every candidate faulty machine
        at one gate, diverging/converging elements and emitting events.

        The hot path works on packed state words — the paper's "the state
        of a gate is packed into a word so that the output can be
        efficiently evaluated by table look up": :meth:`_gather` yields
        each faulty machine's word as an XOR against the good one,
        evaluation is one table index, and the divergence test is a single
        word comparison against the good machine's packed state.
        """
        gate = self.circuit.gates[gate_index]
        if self._record_evaluated is not None:
            self._record_evaluated.add(gate_index)
        fanin = gate.fanin
        good = self.good
        old_good = good[gate_index]
        table = self._eval_tables[gate_index]
        self.counters.good_evaluations += 1
        trace = self.tracer
        if trace is not None:
            trace.good_evals(gate_index)

        good_packed = 0
        shift = 0
        for source in fanin:
            good_packed |= good[source] << shift
            shift += 2
        new_good = table[good_packed]
        good[gate_index] = new_good

        candidates = self._gather(gate_index, fanin)
        if candidates:
            self.counters.fault_evaluations += len(candidates)
            if trace is not None:
                trace.fault_evals(gate_index, len(candidates))
        vis_here = self.vis[gate_index]
        invis_here = self.invis[gate_index]
        descriptors = self.descriptors
        live = self._live_elements
        fault_event = False
        for fid, delta in candidates.items():
            packed = good_packed ^ delta
            descriptor = descriptors[fid]
            if descriptor.site_gate != gate_index:
                out = table[packed]
            else:
                behavior = descriptor.behavior
                if behavior is Behavior.FORCE_OUTPUT:
                    out = descriptor.value
                elif behavior is Behavior.FORCE_INPUT:
                    position = 2 * descriptor.pin
                    packed = (packed & ~(0b11 << position)) | (
                        descriptor.value << position
                    )
                    out = table[packed]
                elif behavior is Behavior.TABLE:
                    out = descriptor.table[packed]
                else:  # TRANSITION: rare site path, via the hook
                    out, packed = self._transition_output(descriptor, table, packed)
            visible = fid in vis_here
            before = vis_here[fid] if visible else old_good
            if out != new_good:
                if fid in invis_here:
                    del invis_here[fid]
                    live -= 1
                if not visible:
                    live += 1
                    if trace is not None:
                        trace.diverge(gate_index, fid, True)
                vis_here[fid] = out
            elif packed != good_packed:
                # Same output, different state: invisible element.
                if visible:
                    del vis_here[fid]
                    live -= 1
                if fid not in invis_here:
                    live += 1
                    if trace is not None:
                        trace.diverge(gate_index, fid, False)
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
                    trace.converge(gate_index, fid)
            if before != out:
                fault_event = True
        self._live_elements = live

        if new_good != old_good or fault_event:
            self._emit_event(gate_index)

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
        trace = self.tracer
        hard_now: List[int] = []
        potential_now: List[int] = []
        for po_index in self.circuit.outputs:
            good_value = self.good[po_index]
            vis = self.vis[po_index]
            if trace is not None and vis:
                trace.element_visits(po_index, len(vis))
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
                if trace is not None and invis_length:
                    trace.element_visits(po_index, invis_length)
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
        circuit = self.circuit
        descriptors = self.descriptors
        drop = self.options.drop_detected
        split = self.options.split_lists
        good = self.good
        trace = self.tracer
        pending: List[Tuple[int, int, List[Tuple[int, int, bool]], bool]] = []

        for ff_index in self._dirty_ffs:
            gate = circuit.gates[ff_index]
            d_source = gate.fanin[0]
            old_q = good[ff_index]
            new_q = good[d_source]
            vis_here = self.vis[ff_index]
            candidates = self._gather(ff_index, gate.fanin)
            updates: List[Tuple[int, int, bool]] = []
            event = new_q != old_q
            if candidates:
                self.counters.fault_evaluations += len(candidates)
                if trace is not None:
                    trace.fault_evals(ff_index, len(candidates))
            for fid, delta in candidates.items():
                descriptor = descriptors[fid]
                q_fault = new_q ^ delta
                if descriptor.site_gate == ff_index:
                    if descriptor.behavior is Behavior.FORCE_OUTPUT:
                        q_fault = descriptor.value
                    elif descriptor.behavior is Behavior.FORCE_INPUT:
                        # A stuck D pin latches the forced value.
                        q_fault = descriptor.value
                    elif descriptor.behavior is Behavior.TRANSITION:
                        # A slow D transition latches the stale value.
                        q_fault = self._ff_transition_latch(descriptor, q_fault)
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
        circuit = self.circuit
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
                trace = self.tracer
                if trace is not None:
                    trace.event(ff_index)
                for sink in circuit.gates[ff_index].fanout:
                    if circuit.gates[sink].gtype is GateType.DFF:
                        self._dirty_ffs.add(sink)
                    else:
                        self._next_cycle_gates.add(sink)
