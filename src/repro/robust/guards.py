"""The engine invariant checker and its phase-boundary face.

:func:`invariant_violations` is the one engine invariant checker.  The
engine ladder calls it after a run and degrades to a sturdier engine on
any violation; :class:`FaultListSanitizer` (``SimOptions.sanitize`` /
``--sanitize``) calls it at every phase boundary of every cycle and
raises :class:`SanitizerError` on the first violation, naming the cycle
and boundary.  The three injection classes of :mod:`repro.robust.chaos`
exercise it: dropped events (which break no invariant, so only the
ladder's serial spot-check sees them), a poisoned fault element, and one
seeded violation per invariant class listed below.

The concurrent engines' correctness rests on structural invariants of
their fault lists that no single phase re-checks.  A corruption — a bug,
a bad restore, a chaos injection — that breaks one of them does not
crash; it silently miscounts detections many cycles later.  The list
engines (zero-delay, transition and event-driven) are checked for:

* value domains: every good value and element value is in ``{0, 1, X}``;
* container presence: every gate keeps its visible (and, where the engine
  has them, invisible) list container for the whole run — the dict
  analogue of the paper's terminal elements;
* split consistency: a fault id appears on at most one of a gate's two
  lists; visible elements differ from the good value, invisible elements
  equal it (the event-driven engine, which has no invisible lists, keeps
  site-anchored elements even while they equal the good value);
* reference agreement: element fault ids are in range,
  ``descriptors[fid].fid == fid``, and every local fault's descriptor
  sites it at that gate;
* list ordering: per-gate local fault lists are strictly ascending by
  fault id, and the descriptor array is sorted by fault key — the
  orderings deterministic fault ids rely on;
* counter agreement: the live-element counter equals the element
  population;
* detection agreement: descriptor ``detected``/``detect_cycle`` state and
  the simulator's ``detected`` map tell the same story.

The word-packed engines (PROOFS, vsim) have no fault lists; their only
per-fault state is the faulty flip-flop diff map, checked for legal
values, diffs that actually differ from the good latched value, and no
state carried for dropped faults.

The checker is duck-typed against the engines' attributes and imports
nothing from ``repro.concurrent``, so the engines can import it without a
cycle.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.faults.model import Fault
from repro.logic.values import VALUES


def invariant_violations(simulator: Any) -> List[str]:
    """Every broken invariant of *simulator*'s fault state; empty when sound."""
    if getattr(simulator, "vis", None) is not None:
        return _fault_list_violations(simulator)
    if getattr(simulator, "ff_diffs", None) is not None:
        return _ff_diff_violations(simulator)
    return ["simulator exposes no fault lists to verify"]


def _ff_diff_violations(simulator: Any) -> List[str]:
    """Word-engine invariants, audited at cycle boundaries (post-clock),
    where each carried diff must disagree with the good machine's DFF
    value; ``good`` is a :class:`repro.sim.logicsim.LogicSimulator` and
    ``ff_diffs`` is indexed by fault id."""
    violations: List[str] = []
    good = getattr(simulator, "good", None)
    good_values = good.values if good is not None else []
    detected = getattr(simulator, "detected", {})
    for fault, diffs in zip(simulator.faults, simulator.ff_diffs):
        if diffs and fault in detected:
            violations.append(
                f"dropped fault {fault!r} still carries "
                f"{len(diffs)} flip-flop diffs"
            )
        for ff_index, value in diffs.items():
            if value not in VALUES:
                violations.append(
                    f"flip-flop diff (fault {fault!r}, gate {ff_index}) holds "
                    f"illegal logic value {value!r}"
                )
            elif ff_index < len(good_values) and value == good_values[ff_index]:
                violations.append(
                    f"flip-flop diff (fault {fault!r}, gate {ff_index}) equals "
                    f"the good value {value!r} — not a diff"
                )
    for index, value in enumerate(good_values):
        if value not in VALUES:
            violations.append(
                f"good machine holds illegal logic value {value!r} at gate {index}"
            )
    return violations


def _fault_list_violations(sim: Any) -> List[str]:
    violations: List[str] = []
    count = len(sim.circuit.gates)
    descriptors = sim.descriptors
    num_faults = len(descriptors)
    good = sim.good
    vis = sim.vis
    invis = getattr(sim, "invis", None)

    # Container presence (terminal elements): one list per gate and side,
    # alive for the whole run.  Nothing below can be walked without them.
    sizes = [len(good), len(vis)] + ([len(invis)] if invis is not None else [])
    if any(size != count for size in sizes):
        sized = "/".join(str(size) for size in sizes)
        return [f"state arrays sized {sized} for {count} gates"]

    # Descriptor identity and global ordering.
    previous_key = None
    for fid, descriptor in enumerate(descriptors):
        if descriptor.fid != fid:
            violations.append(
                f"descriptor at position {fid} carries fid {descriptor.fid}"
            )
        key = descriptor.fault._sort_key()
        if previous_key is not None and key < previous_key:
            violations.append(f"descriptor array not sorted by fault key at fid {fid}")
        previous_key = key

    # Per-gate local fault lists: strictly ascending, sited here.
    local_faults = sim.local_faults
    for gate_index, fids in local_faults.items():
        previous = -1
        for fid in fids:
            if not 0 <= fid < num_faults:
                violations.append(
                    f"local fault list of gate {gate_index} holds "
                    f"out-of-range fid {fid}"
                )
                continue
            if fid <= previous:
                violations.append(
                    f"local fault list of gate {gate_index} not strictly "
                    f"ascending at fid {fid}"
                )
            previous = fid
            site = descriptors[fid].site_gate
            if site != gate_index:
                violations.append(
                    f"fid {fid} on local list of gate {gate_index} but "
                    f"sited at gate {site}"
                )

    # Element lists: domains, split consistency, reference agreement.
    live = 0
    for gate_index in range(count):
        good_value = good[gate_index]
        if good_value not in VALUES:
            violations.append(
                f"good machine holds illegal logic value {good_value!r} "
                f"at gate {gate_index}"
            )
        vis_bucket = vis[gate_index]
        invis_bucket = invis[gate_index] if invis is not None else {}
        live += len(vis_bucket) + len(invis_bucket)
        for fid, value in vis_bucket.items():
            where = f"visible element fid {fid} at gate {gate_index}"
            if not 0 <= fid < num_faults:
                violations.append(f"{where} has an out-of-range fid")
            if value not in VALUES:
                violations.append(f"{where} holds illegal logic value {value!r}")
            elif value == good_value and (
                invis is not None or fid not in local_faults[gate_index]
            ):
                violations.append(f"{where} equals the good value {good_value!r}")
            if fid in invis_bucket:
                violations.append(f"fid {fid} on both lists of gate {gate_index}")
        for fid, value in invis_bucket.items():
            where = f"invisible element fid {fid} at gate {gate_index}"
            if not 0 <= fid < num_faults:
                violations.append(f"{where} has an out-of-range fid")
            if value not in VALUES:
                violations.append(f"{where} holds illegal logic value {value!r}")
            elif value != good_value:
                violations.append(
                    f"{where} differs from the good value {good_value!r}"
                )

    counted = getattr(sim, "_live_elements", getattr(sim, "_live", None))
    if counted != live:
        violations.append(
            f"live-element counter {counted} but {live} elements on the lists"
        )

    # Detection agreement, both directions.  Descriptors mark distinct
    # faults, so once every marked one is in the map with its cycle, equal
    # sizes leave no room for a stray map entry.
    detected: Dict[Fault, int] = sim.detected
    marked = 0
    for descriptor in descriptors:
        if not descriptor.detected:
            continue
        marked += 1
        if descriptor.detect_cycle is None:
            violations.append(f"fid {descriptor.fid} detected with no detect_cycle")
        recorded = detected.get(descriptor.fault)
        if recorded != descriptor.detect_cycle:
            violations.append(
                f"fid {descriptor.fid} detected at cycle "
                f"{descriptor.detect_cycle} but the result map says {recorded!r}"
            )
    if len(detected) != marked:
        by_fault = {descriptor.fault: descriptor for descriptor in descriptors}
        for fault in detected:
            descriptor = by_fault.get(fault)
            if descriptor is None:
                violations.append(f"detected map holds unknown fault {fault}")
            elif not descriptor.detected:
                violations.append(
                    f"fault {fault} in the detected map but fid "
                    f"{descriptor.fid} is not marked detected"
                )
    return violations


class SanitizerError(RuntimeError):
    """A fault-list invariant does not hold at a phase boundary."""


class FaultListSanitizer:
    """Phase-boundary face of :func:`invariant_violations` for one engine.

    Engines build one only when ``SimOptions.sanitize`` is set and call
    :meth:`check` at each boundary of every cycle (pre-cycle, post-settle,
    post-detect, post-clock); a full walk per boundary costs O(gates +
    elements + descriptors).
    """

    def __init__(self, simulator: Any) -> None:
        self._sim = simulator
        self.checks = 0

    def check(self, phase: str) -> None:
        """Raise :class:`SanitizerError` on the first violation, naming
        the cycle and the phase boundary it surfaced at."""
        self.checks += 1
        violations = invariant_violations(self._sim)
        if violations:
            raise SanitizerError(
                f"fault-list sanitizer: {violations[0]} "
                f"[cycle {self._sim.cycle}, {phase} boundary]"
            )
