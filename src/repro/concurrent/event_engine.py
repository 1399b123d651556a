"""Concurrent fault simulation under arbitrary gate delays.

The flexibility argument of the paper's Section 2: concurrent simulation
is not tied to zero-delay synchronous operation — "the circuit gates may
have arbitrary but known propagation delays".  The paper sketches exactly
this engine: a two-phase timing queue where "events are posted for all
changing elements after gate evaluation", list events carry a collection
of faulty-machine values maturing together, and "in the first phase of
fault simulation, the matured events are fetched to assign logic values to
gate outputs" while the second phase evaluates the activated gates.

This module implements that general engine for stuck-at faults:

* every machine (good or faulty) propagates its own events through the
  timing wheel; a fault element exists at a gate exactly while the faulty
  machine's output differs from the good machine's *current* output;
* one gate evaluation serves all machines that changed: the good event and
  the accompanying faulty events post together after the gate's delay (the
  paper's "list event" for unit/constant gate delays);
* machines explicit nowhere around a gate share the good machine's inputs
  at all times, hence its output trajectory — they are never stored or
  evaluated, which is the whole point of concurrent simulation;
* within one time step, good events mature before faulty events so
  convergence is judged against the fresh good value;
* primary outputs are strobed once per clock period; flip-flops latch the
  settled (possibly stale — short periods are simulated honestly) values
  at the period boundary, carrying fault effects across cycles.

The serial oracle for this engine is
:class:`repro.sim.eventsim.EventSimulator` with a single injected fault;
the cross-validation tests run both over random delay assignments.
"""

from __future__ import annotations

import time as time_module
import heapq
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.circuit.netlist import Circuit, evaluate_gate
from repro.concurrent.elements import Behavior, FaultDescriptor
from repro.concurrent.options import SimOptions
from repro.drive import drive
from repro.faults.model import Fault, OUTPUT_PIN, StuckAtFault
from repro.faults.universe import stuck_at_universe
from repro.logic.tables import GateType
from repro.logic.values import X
from repro.obs.tracer import Tracer, gate_tracer
from repro.result import FaultSimResult, MemoryStats, WorkCounters
from repro.sim.delays import DelayModel, unit_delays

#: Machine id of the fault-free machine in event records.
GOOD = -1


class ConcurrentEventFaultSimulator:
    """Concurrent stuck-at fault simulation on a transport-delay model."""

    engine_name = "csim-AD"
    record_responses = False
    period = 0  # clock period of the current run(), in delay units

    def __init__(
        self,
        circuit: Circuit,
        faults: Optional[Iterable[StuckAtFault]] = None,
        delays: Optional[DelayModel] = None,
        options: SimOptions = SimOptions(),
        tracer: Optional[Tracer] = None,
    ) -> None:
        if options.use_macros:
            raise ValueError(
                "macro extraction is a zero-delay optimization; the timed "
                "engine runs on the flat circuit"
            )
        self.circuit = circuit
        self.tracer = tracer
        self._gate_tracer = gate_tracer(tracer)
        self.delays = delays or unit_delays(circuit)
        self.options = options
        universe = stuck_at_universe(circuit) if faults is None else faults
        self.faults: List[StuckAtFault] = sorted(universe)
        self.descriptors: List[FaultDescriptor] = []
        self.local_faults: Dict[int, List[int]] = {
            gate.index: [] for gate in circuit.gates
        }
        for fid, fault in enumerate(self.faults):
            behavior = (
                Behavior.FORCE_OUTPUT if fault.pin == OUTPUT_PIN else Behavior.FORCE_INPUT
            )
            descriptor = FaultDescriptor(
                fid=fid,
                fault=fault,
                site_gate=fault.gate,
                behavior=behavior,
                pin=fault.pin,
                value=fault.value,
            )
            self.descriptors.append(descriptor)
            self.local_faults[fault.gate].append(fid)
        #: Per-gate frozen view of the site-anchored fault ids: their
        #: elements survive good-side convergence sweeps (the forcing
        #: persists regardless of the good value).
        self._local_sets: Dict[int, frozenset] = {
            gate_index: frozenset(fids) for gate_index, fids in self.local_faults.items()
        }
        self.reset()

    def reset(self) -> None:
        circuit = self.circuit
        count = len(circuit.gates)
        self.good: List[int] = [X] * count
        self.vis: List[Dict[int, int]] = [dict() for _ in range(count)]
        self.time = 0
        self.cycle = 0
        self.detected: Dict[Fault, int] = {}
        self.potentially_detected: Dict[Fault, int] = {}
        self.counters = WorkCounters()
        self.memory = MemoryStats(num_descriptors=len(self.descriptors))
        self._live = 0
        # Timing wheel: per-time bucket of (gate, machine, value).
        self._bucket: Dict[int, List[Tuple[int, int, int]]] = {}
        self._times: List[int] = []
        self._last_posted: Dict[int, int] = {}
        self._powered_up = False
        for descriptor in self.descriptors:
            descriptor.detected = False
            descriptor.detect_cycle = None

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """Capture the full simulation state, timing wheel included.

        The returned object is opaque; pass it back to :meth:`restore`.
        Counters and memory statistics are included so a restored run is
        bit-identical to one that was never interrupted.
        """
        import copy

        return {
            "good": list(self.good),
            "vis": [dict(bucket) for bucket in self.vis],
            "time": self.time,
            "cycle": self.cycle,
            "detected": dict(self.detected),
            "potential": dict(self.potentially_detected),
            "counters": copy.copy(self.counters),
            "memory": copy.copy(self.memory),
            "live": self._live,
            "bucket": {at: list(events) for at, events in self._bucket.items()},
            "times": list(self._times),
            "last_posted": dict(self._last_posted),
            "powered_up": self._powered_up,
            "descriptor_state": [
                (d.detected, d.detect_cycle) for d in self.descriptors
            ],
        }

    def restore(self, state: dict) -> None:
        """Roll the simulator back to a :meth:`snapshot`."""
        import copy

        self.good = list(state["good"])
        self.vis = [dict(bucket) for bucket in state["vis"]]
        self.time = state["time"]
        self.cycle = state["cycle"]
        self.detected = dict(state["detected"])
        self.potentially_detected = dict(state["potential"])
        self.counters = copy.copy(state["counters"])
        self.memory = copy.copy(state["memory"])
        self._live = state["live"]
        self._bucket = {at: list(events) for at, events in state["bucket"].items()}
        # A copied heap list keeps the heap property; no re-heapify needed.
        self._times = list(state["times"])
        self._last_posted = dict(state["last_posted"])
        self._powered_up = state["powered_up"]
        for descriptor, (det, det_cycle) in zip(
            self.descriptors, state["descriptor_state"]
        ):
            descriptor.detected = det
            descriptor.detect_cycle = det_cycle

    # ------------------------------------------------------------------
    # timing wheel
    # ------------------------------------------------------------------

    def _post(self, at_time: int, gate_index: int, machine: int, value: int) -> None:
        # Only the good machine's posts can be deduplicated: its trajectory
        # is self-contained, so "same value as last posted" means no change.
        # A faulty machine's *effective* value also depends on the good
        # value (absent element = follows good) and on element removals by
        # in-flight good events, so an apparently redundant fault post may
        # be exactly the one that re-creates a needed element.  Fault
        # events always enqueue; maturing to a no-op is cheap and final.
        if machine == GOOD:
            if self._last_posted.get(gate_index) == value:
                return
            self._last_posted[gate_index] = value
        bucket = self._bucket.get(at_time)
        if bucket is None:
            bucket = []
            self._bucket[at_time] = bucket
            heapq.heappush(self._times, at_time)
        bucket.append((gate_index, machine, value))

    # ------------------------------------------------------------------
    # evaluation (phase 2)
    # ------------------------------------------------------------------

    def _candidates(self, gate_index: int, fanin) -> Dict[int, bool]:
        descriptors = self.descriptors
        drop = self.options.drop_detected
        counters = self.counters
        trace = self._gate_tracer
        candidates: Dict[int, bool] = {}
        purge: List[Tuple[int, int]] = []
        for source in list(fanin) + [gate_index]:
            if trace is not None and self.vis[source]:
                trace.element_visits(source, len(self.vis[source]))
            for fid in self.vis[source]:
                counters.element_visits += 1
                if drop and descriptors[fid].detected:
                    purge.append((source, fid))
                    continue
                candidates[fid] = True
        for fid in self.local_faults[gate_index]:
            if drop and descriptors[fid].detected:
                continue
            candidates[fid] = True
        for source, fid in purge:
            if self.vis[source].pop(fid, None) is not None:
                self._live -= 1
                if trace is not None:
                    trace.converge(source, fid)
        return candidates

    def _evaluate_machine(self, descriptor, gate, gate_index: int) -> int:
        vis = self.vis
        good = self.good
        inputs = [
            vis[source].get(descriptor.fid, good[source]) for source in gate.fanin
        ]
        if descriptor.site_gate == gate_index:
            if descriptor.behavior is Behavior.FORCE_OUTPUT:
                return descriptor.value
            inputs[descriptor.pin] = descriptor.value
        return evaluate_gate(gate, inputs)

    def _evaluate(self, gate_index: int, machines: Set[int]) -> None:
        """Evaluate the activated machines at a gate, posting the
        resulting events after the gate's delay.

        ``GOOD`` in *machines* means a good-side activation: the good
        machine plus every machine currently explicit around the gate
        re-evaluates (their implicit inputs just changed with the good
        value).  Machines named explicitly are evaluated regardless — an
        activation can name a machine whose element just converged away,
        in which case the per-gate lists no longer reveal it.
        """
        gate = self.circuit.gates[gate_index]
        due = self.time + self.delays.delay(gate_index)
        trace = self._gate_tracer
        if GOOD in machines:
            self.counters.good_evaluations += 1
            if trace is not None:
                trace.good_evals(gate_index)
            good_inputs = [self.good[source] for source in gate.fanin]
            new_good = evaluate_gate(gate, good_inputs)
            self._post(due, gate_index, GOOD, new_good)
            fault_ids = self._candidates(gate_index, gate.fanin)
        else:
            fault_ids = {}
        for fid in machines:
            if fid != GOOD and not (
                self.options.drop_detected and self.descriptors[fid].detected
            ):
                fault_ids[fid] = True
        if trace is not None and fault_ids:
            trace.fault_evals(gate_index, len(fault_ids))
        for fid in fault_ids:
            descriptor = self.descriptors[fid]
            self.counters.fault_evaluations += 1
            value = self._evaluate_machine(descriptor, gate, gate_index)
            self._post(due, gate_index, fid, value)

    # ------------------------------------------------------------------
    # maturity (phase 1) + main loop
    # ------------------------------------------------------------------

    def _run(self, until: int) -> None:
        circuit = self.circuit
        gates = circuit.gates
        drop = self.options.drop_detected
        trace = self._gate_tracer
        while self._times and self._times[0] <= until:
            now = heapq.heappop(self._times)
            events = self._bucket.pop(now)
            self.time = now

            # Good events first: convergence is judged against the fresh
            # good value within the same time step.
            activated: Dict[int, Set[int]] = {}

            def activate(gate_index: int, machine: int) -> None:
                for sink in gates[gate_index].fanout:
                    if gates[sink].gtype in (GateType.INPUT, GateType.DFF):
                        continue
                    if sink in activated:
                        activated[sink].add(machine)
                    else:
                        activated[sink] = {machine}

            for gate_index, machine, value in events:
                if machine != GOOD:
                    continue
                self.counters.events += 1
                if trace is not None:
                    trace.event(gate_index)
                if self.good[gate_index] == value:
                    continue
                self.good[gate_index] = value
                # Elements equal to the new good value converge silently:
                # their machines' outputs did not change.  Site-anchored
                # elements are exempt — their forcing outlives any
                # momentary equality with the good value, and the event
                # dedup rightly suppresses re-posting the constant.
                bucket = self.vis[gate_index]
                local = self._local_sets[gate_index]
                for fid in [
                    f for f, v in bucket.items() if v == value and f not in local
                ]:
                    del bucket[fid]
                    self._live -= 1
                    if trace is not None:
                        trace.converge(gate_index, fid)
                activate(gate_index, GOOD)

            for gate_index, machine, value in events:
                if machine == GOOD:
                    continue
                self.counters.events += 1
                if trace is not None:
                    trace.event(gate_index)
                descriptor = self.descriptors[machine]
                if drop and descriptor.detected:
                    if self.vis[gate_index].pop(machine, None) is not None:
                        self._live -= 1
                        if trace is not None:
                            trace.converge(gate_index, machine)
                    continue
                bucket = self.vis[gate_index]
                before = bucket.get(machine, self.good[gate_index])
                if (
                    value == self.good[gate_index]
                    and machine not in self._local_sets[gate_index]
                ):
                    if bucket.pop(machine, None) is not None:
                        self._live -= 1
                        if trace is not None:
                            trace.converge(gate_index, machine)
                else:
                    # Stored even when equal to good for site-anchored
                    # machines: the forcing persists and the dedup will
                    # (correctly) never re-post the constant value.
                    if machine not in bucket:
                        self._live += 1
                        if trace is not None:
                            trace.diverge(gate_index, machine)
                    bucket[machine] = value
                if before != value:
                    activate(gate_index, machine)

            for gate_index, machines in activated.items():
                self.counters.gates_scheduled += 1
                if trace is not None:
                    trace.scheduled(gate_index, gates[gate_index].level)
                self._evaluate(gate_index, machines)
        self.time = until

    # ------------------------------------------------------------------
    # synchronous wrapper
    # ------------------------------------------------------------------

    def _power_up(self) -> None:
        """First-cycle initialization: every gate evaluates once (local
        faults get their chance to diverge from the X state) and forced
        source outputs become explicit."""
        if self._powered_up:
            return
        self._powered_up = True
        for gate_index in self.circuit.order:
            self._evaluate(gate_index, {GOOD})
        for source in self.circuit.inputs + self.circuit.dffs:
            for fid in self.local_faults[source]:
                descriptor = self.descriptors[fid]
                if descriptor.behavior is Behavior.FORCE_OUTPUT:
                    self._post(self.time, source, fid, descriptor.value)

    def _apply_vector(self, vector: Sequence[int]) -> None:
        for position, pi_index in enumerate(self.circuit.inputs):
            value = vector[position]
            self._post(self.time, pi_index, GOOD, value)
            for fid in self.local_faults[pi_index]:
                descriptor = self.descriptors[fid]
                if self.options.drop_detected and descriptor.detected:
                    continue
                if descriptor.behavior is Behavior.FORCE_OUTPUT:
                    self._post(self.time, pi_index, fid, descriptor.value)

    def _strobe(self) -> List[Fault]:
        """Sample the primary outputs: hard and potential detections."""
        newly: List[Fault] = []
        hard: List[int] = []
        trace = self.tracer
        for po_index in self.circuit.outputs:
            good_value = self.good[po_index]
            if good_value == X:
                continue
            if self._gate_tracer is not None and self.vis[po_index]:
                self._gate_tracer.element_visits(po_index, len(self.vis[po_index]))
            for fid, value in self.vis[po_index].items():
                self.counters.element_visits += 1
                if value == good_value:
                    continue  # invisible (site-anchored, currently equal)
                descriptor = self.descriptors[fid]
                if descriptor.detected:
                    continue
                if value == X:
                    if descriptor.fault not in self.potentially_detected:
                        self.potentially_detected[descriptor.fault] = self.cycle
                        if trace is not None:
                            trace.detect(fid, self.cycle, potential=True)
                else:
                    hard.append(fid)
        for fid in hard:
            descriptor = self.descriptors[fid]
            if descriptor.detected:
                continue
            descriptor.mark_detected(self.cycle)
            self.detected[descriptor.fault] = self.cycle
            newly.append(descriptor.fault)
            if trace is not None:
                trace.detect(fid, self.cycle)
                if self.options.drop_detected:
                    trace.drop(fid, self.cycle)
        return newly

    def _latch(self) -> None:
        """Latch every flip-flop from the settled D values (good and
        faulty), posting the Q changes as zero-delay events at the
        boundary."""
        circuit = self.circuit
        drop = self.options.drop_detected
        trace = self._gate_tracer
        posts: List[Tuple[int, int, int]] = []
        for ff_index in circuit.dffs:
            gate = circuit.gates[ff_index]
            d_source = gate.fanin[0]
            new_q = self.good[d_source]
            posts.append((ff_index, GOOD, new_q))
            candidates: Dict[int, bool] = {}
            for fid in self.vis[d_source]:
                candidates[fid] = True
            for fid in self.vis[ff_index]:
                candidates[fid] = True
            for fid in self.local_faults[ff_index]:
                candidates[fid] = True
            evals = 0
            for fid in candidates:
                descriptor = self.descriptors[fid]
                if drop and descriptor.detected:
                    continue
                self.counters.fault_evaluations += 1
                evals += 1
                q_fault = self.vis[d_source].get(fid, new_q)
                if descriptor.site_gate == ff_index:
                    q_fault = descriptor.value
                posts.append((ff_index, fid, q_fault))
            if trace is not None and evals:
                trace.fault_evals(ff_index, evals)
        for ff_index, machine, value in posts:
            self._post(self.time, ff_index, machine, value)

    def run_cycle(self, vector: Sequence[int], period: int) -> List[Fault]:
        """One clock period: apply, settle for *period*, strobe, latch."""
        circuit = self.circuit
        if len(vector) != len(circuit.inputs):
            raise ValueError("vector width mismatch")
        self.cycle += 1
        self.counters.cycles += 1
        trace = self.tracer
        if trace is not None:
            trace.cycle_start(self.cycle)
            t0 = time_module.perf_counter()
        self._power_up()
        self._apply_vector(vector)
        if trace is not None:
            t1 = time_module.perf_counter()
            trace.phase_time("apply", t1 - t0)
        self._run(until=self.time + period)
        if trace is not None:
            t2 = time_module.perf_counter()
            trace.phase_time("settle", t2 - t1)
        self.memory.note_elements(self._live)
        newly = self._strobe()
        if trace is not None:
            t3 = time_module.perf_counter()
            trace.phase_time("strobe", t3 - t2)
        self._latch()
        if trace is not None:
            trace.phase_time("latch", time_module.perf_counter() - t3)
            visible = sum(map(len, self.vis)) if trace.enabled else 0
            trace.cycle_end(self.cycle, live=self._live, visible=visible, invisible=0)
        return newly

    def advance(self, vectors: Iterator[Sequence[int]], limit: int) -> int:
        """One clock period of ``self.period`` (see :mod:`repro.drive`)."""
        self.run_cycle(next(vectors), self.period)
        return 1

    def run(
        self, vectors: Sequence[Sequence[int]], period: int, budget=None
    ) -> FaultSimResult:
        """Simulate *vectors* with a clock of *period* time units."""
        self.period = period
        return drive(self, vectors, budget)
