"""Chaos injection for the resilience subsystem's own tests.

Each injection breaks the simulator (or its surroundings) in one
specific, controlled way, so the test suite can assert that the guards
actually guard.  Three injection classes corrupt an engine:

* :class:`EventDropChaos` — silently discards every Nth propagation
  event, the classic lost-update corruption; the engine ladder's serial
  spot-check must notice the wrong detections.
* :class:`ElementCorruptionChaos` — writes an illegal logic value into a
  live fault element at a chosen cycle; either the invariant checker
  flags it or the engine crashes on the poisoned value, and the ladder
  must recover either way.
* :class:`FaultListChaos` — seeds exactly one fault-list invariant
  violation (illegal value, dangling reference, split swap, counter
  drift, order scramble, detected amnesia) between two cycles; the
  fault-list sanitizer (:class:`repro.robust.guards.FaultListSanitizer`,
  armed via ``SimOptions.sanitize``) must flag it at the next phase
  boundary.

Two helpers break an engine's surroundings:

* :func:`truncate_file` — chops the tail off a checkpoint so the
  integrity check in :func:`repro.robust.checkpoint.read_checkpoint`
  must refuse it with a clean diagnostic.
* :func:`step_bomb` — patches an engine's ``advance`` to die after N cycles
  (a ``KeyboardInterrupt`` by default, the shape of a worker kill).  The
  serving layer's kill-and-resume tests arm it to murder a worker
  mid-job and assert the recovered job resumes from its checkpoint with
  bit-identical detections.

None of this is reachable from production paths: the only way to run a
chaotic engine is to pass one of these factories explicitly.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional, Type

from repro.concurrent.engine import ConcurrentFaultSimulator
from repro.concurrent.options import SimOptions


class ChaosError(RuntimeError):
    """Raised by injected failures, so tests can tell chaos from real bugs."""


class EventDropChaos(ConcurrentFaultSimulator):
    """A concurrent engine that loses every Nth fault-propagation event.

    Dropped events mean gates that should have been rescheduled are not,
    so fault effects stall mid-network and the detected-fault map comes
    out wrong — silently.  This is exactly the corruption class the
    engine ladder's serial spot-check exists to catch.
    """

    def __init__(self, *args, drop_every: int = 3, **kwargs) -> None:
        self._drop_every = drop_every
        self._event_count = 0
        super().__init__(*args, **kwargs)

    def _emit_event(self, gate_index: int) -> None:
        self._event_count += 1
        if self._event_count % self._drop_every == 0:
            return  # the event vanishes: no fanout is scheduled
        super()._emit_event(gate_index)


class ElementCorruptionChaos(ConcurrentFaultSimulator):
    """A concurrent engine that poisons one fault element per cycle.

    From ``corrupt_at_cycle`` on, every cycle ends with the first visible
    element found holding an out-of-domain logic value (re-applied each
    cycle: normal list churn may overwrite or converge a single poisoned
    element away, and a corruptor that heals itself tests nothing).
    Depending on circuit activity the poison either sits until
    :func:`repro.robust.guards.invariant_violations` flags it or crashes a
    later table lookup (illegal value used as a packed index); the engine
    ladder must recover from both.
    """

    ILLEGAL_VALUE = 9  # outside {ZERO, ONE, X}

    def __init__(self, *args, corrupt_at_cycle: int = 2, **kwargs) -> None:
        self._corrupt_at_cycle = corrupt_at_cycle
        self.corrupted: Optional[tuple] = None
        super().__init__(*args, **kwargs)

    def step(self, vector):
        newly = super().step(vector)
        if self.cycle >= self._corrupt_at_cycle:
            for gate_index, bucket in enumerate(self.vis):
                if bucket:
                    fid = next(iter(bucket))
                    bucket[fid] = self.ILLEGAL_VALUE
                    self.corrupted = (gate_index, fid)
                    break
        return newly


class FaultListChaos(ConcurrentFaultSimulator):
    """A concurrent engine that corrupts one fault-list invariant.

    After the cycle ``corrupt_at_cycle`` completes (or the first later
    cycle where a suitable target exists), exactly one violation of the
    chosen ``corruption`` class is seeded; ``applied`` records whether it
    landed.  Run with ``SimOptions(sanitize=True)`` the engine's own
    sanitizer must raise :class:`repro.robust.guards.SanitizerError`
    at the next pre-cycle boundary — one chaos class per invariant the
    sanitizer documents:

    ``illegal-value``
        a visible element is overwritten with an out-of-domain value;
    ``dangling-reference``
        an element with an out-of-range fault id appears on a list;
    ``split-swap``
        a visible element is moved to the invisible list unchanged, so
        the invisible side no longer mirrors the good machine;
    ``counter-drift``
        the live-element counter is bumped away from the population;
    ``order-scramble``
        a per-gate local fault list is reversed, breaking the strict
        fault-id ordering;
    ``detected-amnesia``
        a detected descriptor forgets its detection while the result map
        still records it.
    """

    CORRUPTIONS = (
        "illegal-value",
        "dangling-reference",
        "split-swap",
        "counter-drift",
        "order-scramble",
        "detected-amnesia",
    )

    ILLEGAL_VALUE = 9

    def __init__(
        self,
        *args,
        corruption: str = "illegal-value",
        corrupt_at_cycle: int = 1,
        **kwargs,
    ) -> None:
        if corruption not in self.CORRUPTIONS:
            raise ValueError(
                f"unknown corruption {corruption!r}; choose from {self.CORRUPTIONS}"
            )
        self._corruption = corruption
        self._corrupt_at_cycle = corrupt_at_cycle
        self.applied = False
        super().__init__(*args, **kwargs)

    def step(self, vector):
        newly = super().step(vector)
        if not self.applied and self.cycle >= self._corrupt_at_cycle:
            self.applied = self._apply()
        return newly

    def _apply(self) -> bool:
        kind = self._corruption
        if kind == "illegal-value":
            for bucket in self.vis:
                if bucket:
                    bucket[next(iter(bucket))] = self.ILLEGAL_VALUE
                    return True
            return False
        if kind == "dangling-reference":
            self.vis[0][len(self.descriptors) + 7] = self.ILLEGAL_VALUE
            return True
        if kind == "split-swap":
            for gate_index, bucket in enumerate(self.vis):
                if bucket:
                    fid = next(iter(bucket))
                    self.invis[gate_index][fid] = bucket.pop(fid)
                    return True
            return False
        if kind == "counter-drift":
            self._live_elements += 1
            return True
        if kind == "order-scramble":
            for fids in self.local_faults.values():
                if len(fids) >= 2:
                    fids.reverse()
                    return True
            return False
        if kind == "detected-amnesia":
            for descriptor in self.descriptors:
                if descriptor.detected:
                    descriptor.detected = False
                    return True
            return False
        raise AssertionError(f"unhandled corruption {kind!r}")


def chaos_simulator_factory(kind: str, sabotage_engine: str = "csim-MV", **params):
    """A ``simulator_factory`` for :func:`repro.robust.ladder.run_with_ladder`
    that plants a chaotic engine on one rung and leaves the rest honest.

    ``kind`` is ``"drop-events"`` or ``"corrupt-element"``; ``params`` are
    forwarded to the chaos class.  Rungs other than ``sabotage_engine``
    return ``None``, falling through to the default construction.
    """
    classes = {
        "drop-events": EventDropChaos,
        "corrupt-element": ElementCorruptionChaos,
    }
    if kind not in classes:
        raise ValueError(f"unknown chaos kind {kind!r}; choose from {sorted(classes)}")
    chaos_class = classes[kind]

    def factory(engine, circuit, faults, tracer):
        if engine != sabotage_engine:
            return None
        options = SimOptions(
            split_lists="V" in engine, use_macros="M" in engine
        )
        return chaos_class(circuit, faults, options, tracer=tracer, **params)

    return factory


@contextmanager
def step_bomb(
    simulator_class: type,
    after_steps: int,
    exception: Type[BaseException] = KeyboardInterrupt,
    hang_seconds: float = 0.0,
) -> Iterator[dict]:
    """Patch ``simulator_class.advance`` to raise after *after_steps* cycles.

    Models a worker killed mid-job.  Cycles are counted as the drive loop
    applies them, and the advance that reaches the kill point is clipped
    there, so the kill lands at cycle ``after_steps + 1`` even inside a
    ``vsim`` window.  The default ``KeyboardInterrupt`` is what a
    SIGINT/SIGKILL-shaped death looks like from inside, so the resilient
    runners convert it to ``CampaignInterrupted`` and the last periodic
    checkpoint on disk remains the resume point.  A nonzero
    ``hang_seconds`` sleeps that long *before* raising — the shape of a
    hung (not merely dead) worker: heartbeats stop while the thread is
    still alive, so only lease expiry can reclaim the job.  Yields a
    mutable counter dict (``{"calls": N}``, N counting the cycle killed)
    so tests can assert how far the victim got; the patch is always
    removed on exit.
    """
    import time as _time

    real_advance = simulator_class.advance
    state = {"calls": 0}

    def bombed_advance(self, vectors, limit):
        room = after_steps - state["calls"]
        if room <= 0:
            state["calls"] += 1
            if hang_seconds > 0.0:
                _time.sleep(hang_seconds)
            raise exception()
        applied = real_advance(self, vectors, min(limit, room))
        state["calls"] += applied
        return applied

    simulator_class.advance = bombed_advance
    try:
        yield state
    finally:
        simulator_class.advance = real_advance


def truncate_file(path: str, keep_bytes: int) -> None:
    """Chop *path* down to its first ``keep_bytes`` bytes (crash-mid-write
    simulation for checkpoint integrity tests)."""
    size = os.path.getsize(path)
    with open(path, "rb+") as handle:
        handle.truncate(min(keep_bytes, size))
