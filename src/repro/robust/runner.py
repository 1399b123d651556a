"""The resilient campaign runner: checkpointed, budgeted, interruptible.

Two shapes of campaign live here:

* :func:`run_checkpointed` — one built engine over one test sequence,
  with periodic durable checkpoints (engine ``snapshot()`` + cycle index +
  config fingerprint), budgets, and Ctrl-C handling that flushes a final
  checkpoint at a clean advance boundary (see :mod:`repro.drive`) before
  raising :class:`CampaignInterrupted`.  It is the checkpointed backend
  of :func:`repro.campaign.execute`, which builds the engine and the
  fingerprint.  A resumed run is bit-identical to an uninterrupted one:
  the snapshot carries detections, work counters and the memory model,
  so only ``wall_seconds`` differs.
* :class:`TableCampaign` — the paper-table campaign (many circuits ×
  engines).  Progress is durable per completed cell; resuming skips
  finished cells and recomputes nothing.

Both refuse to resume from a checkpoint whose config fingerprint does not
match the requested campaign — silently resuming a *different* campaign
would be worse than starting over.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.circuit.netlist import Circuit
from repro.drive import drive
from repro.patterns.vectors import TestSequence
from repro.result import FaultSimResult
from repro.robust.budget import Budget
from repro.robust.checkpoint import (
    CampaignInterrupted,
    Checkpoint,
    CheckpointError,
    circuit_fingerprint,
    config_fingerprint,
    read_checkpoint,
    write_checkpoint,
)

#: Default cycles between periodic checkpoint writes.
DEFAULT_CHECKPOINT_EVERY = 64


def run_fingerprint(
    circuit: Circuit,
    tests: TestSequence,
    label: str,
    faults,
    transition: bool,
    extra: tuple = (),
) -> str:
    """Fingerprint binding a single-run checkpoint to its configuration.

    ``extra`` is the rest of the campaign's identity (see
    :func:`repro.campaign.run_local`): the dictionary kind, the collapse
    map and a shard's (strategy, index, total), so a checkpoint can never
    be resumed into a differently sharded campaign, even if the fault
    subset happens to coincide.
    """
    return config_fingerprint(
        "run",
        "transition" if transition else "stuck-at",
        label,
        circuit_fingerprint(circuit),
        tuple(tests.vectors),
        tuple(faults),
        *extra,
    )


def run_checkpointed(
    simulator,
    tests: TestSequence,
    *,
    checkpoint_path: str,
    fingerprint: str,
    resume: bool = False,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    budget: Optional[Budget] = None,
) -> FaultSimResult:
    """Drive *simulator* over *tests* with durable progress.

    The engine state is snapshotted to ``checkpoint_path`` every
    ``checkpoint_every`` cycles (atomically; see
    :mod:`repro.robust.checkpoint`) and once more on interrupt or budget
    truncation, under ``fingerprint`` (see :func:`run_fingerprint`).
    With ``resume`` the run restarts from the checkpoint and produces a
    result identical — detections, counters, memory — to a run that was
    never interrupted.  (One exception: after a cycle budget stopped vsim
    between checkpoints, its resumed windows start at that cycle, so its
    work counters and memory figures may differ.)

    Ctrl-C is latched and honoured at the next advance boundary (a cycle,
    or a vsim window), so the final checkpoint always captures a clean
    state; the exception raised is :class:`CampaignInterrupted` (a
    ``KeyboardInterrupt``), carrying the checkpoint path for the caller's
    resume hint.  :func:`repro.campaign.execute` builds the simulator and
    the fingerprint.
    """
    label = simulator.engine_name
    start_cycle = 0
    if resume:
        saved = read_checkpoint(checkpoint_path, expect_fingerprint=fingerprint)
        if saved.kind != "run":
            raise CheckpointError(
                f"checkpoint {checkpoint_path!r} is a {saved.kind!r} checkpoint, "
                "not a single-run checkpoint"
            )
        simulator.restore(saved.payload["state"])
        start_cycle = saved.payload["cycle"]

    def save(cycle: int) -> None:
        write_checkpoint(
            checkpoint_path,
            Checkpoint(
                "run",
                fingerprint,
                {"cycle": cycle, "state": simulator.snapshot(), "engine": label},
            ),
        )

    try:
        return drive(
            simulator,
            tests.vectors,
            budget,
            start=start_cycle,
            every=checkpoint_every,
            save=save,
        )
    except KeyboardInterrupt:
        # Either a latched Ctrl-C, already flushed to a final checkpoint, or
        # an interrupt delivered outside the latch (non-main thread, or
        # raised from inside the engine), where the in-memory state may be
        # mid-window and the last periodic checkpoint stays the resume point.
        raise CampaignInterrupted(checkpoint_path, simulator.cycle) from None


class TableCampaign:
    """Durable progress for a multi-cell campaign (the paper tables).

    Each completed cell — one circuit × table computation — is written to
    the checkpoint as soon as it finishes; a resumed campaign replays
    finished cells from disk and computes only the remainder.  On Ctrl-C
    the cells completed so far are flushed and
    :class:`CampaignInterrupted` carries the resume location.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        resume: bool = False,
        fingerprint: str = "",
    ) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.cells: dict = {}
        if resume:
            if path is None:
                raise CheckpointError("resume requested without a checkpoint path")
            saved = read_checkpoint(path, expect_fingerprint=fingerprint)
            if saved.kind != "tables":
                raise CheckpointError(
                    f"checkpoint {path!r} is a {saved.kind!r} checkpoint, "
                    "not a table campaign"
                )
            self.cells = dict(saved.payload["cells"])

    def save(self) -> None:
        if self.path is not None:
            write_checkpoint(
                self.path,
                Checkpoint("tables", self.fingerprint, {"cells": dict(self.cells)}),
            )

    def cell(self, key, compute: Callable[[], object]):
        """The cached value for *key*, or ``compute()`` recorded durably."""
        if key in self.cells:
            return self.cells[key]
        try:
            value = compute()
        except KeyboardInterrupt:
            self.save()
            raise CampaignInterrupted(self.path, len(self.cells)) from None
        self.cells[key] = value
        self.save()
        return value
