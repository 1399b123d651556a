"""The resilient campaign runner: checkpointed, budgeted, interruptible.

Two shapes of campaign live here:

* :func:`run_checkpointed` — one engine over one test sequence, with
  periodic durable checkpoints (engine ``snapshot()`` + cycle index +
  config fingerprint), budgets, and Ctrl-C handling that flushes a final
  checkpoint at a clean advance boundary (see :mod:`repro.drive`) before
  raising :class:`CampaignInterrupted`.  A resumed run is bit-identical to
  an uninterrupted one: the snapshot carries detections, work counters
  and the memory model, so only ``wall_seconds`` differs.
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
from repro.concurrent.options import SimOptions
from repro.concurrent.transition_engine import TransitionFaultSimulator
from repro.drive import drive
from repro.harness.runner import make_stuck_at_simulator
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

    ``extra`` is additional identity the caller wants the checkpoint bound
    to — the parallel runner passes its (strategy, shard index, shard
    count) so a checkpoint can never be resumed into a differently
    sharded campaign, even if the fault subset happens to coincide.
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


def _build_simulator(
    circuit, engine, transition, faults, options, tracer,
    word_width=None, record_responses=False,
):
    if transition:
        if record_responses:
            raise ValueError(
                "response recording (fault dictionaries) only supports the "
                "stuck-at model"
            )
        return TransitionFaultSimulator(
            circuit, faults, options or SimOptions(split_lists=True), tracer=tracer
        )
    return make_stuck_at_simulator(
        circuit, engine, faults, options=options, tracer=tracer,
        word_width=word_width, record_responses=record_responses,
    )


def run_checkpointed(
    circuit: Circuit,
    tests: TestSequence,
    engine: str = "csim-MV",
    *,
    transition: bool = False,
    faults=None,
    options: Optional[SimOptions] = None,
    tracer=None,
    budget: Optional[Budget] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    fingerprint_extra: tuple = (),
    word_width: Optional[int] = None,
    record_responses: bool = False,
) -> FaultSimResult:
    """Run one fault-simulation campaign with durable progress.

    With ``checkpoint_path`` set, the engine state is snapshotted to disk
    every ``checkpoint_every`` cycles (atomically; see
    :mod:`repro.robust.checkpoint`) and once more on interrupt or budget
    truncation.  With ``resume`` the run restarts from the checkpoint and
    produces a result identical — detections, counters, memory — to a run
    that was never interrupted.  (One exception: after a cycle budget
    stopped vsim between checkpoints, its resumed windows start at that
    cycle, so its work counters and memory figures may differ.)

    Ctrl-C is latched and honoured at the next advance boundary (a cycle,
    or a vsim window), so the final checkpoint always captures a clean
    state; the exception raised
    is :class:`CampaignInterrupted` (a ``KeyboardInterrupt``), carrying
    the checkpoint path for the caller's resume hint.
    """
    simulator = _build_simulator(
        circuit, engine, transition, faults, options, tracer,
        word_width=word_width, record_responses=record_responses,
    )
    label = simulator.engine_name
    fingerprint = run_fingerprint(
        circuit, tests, label, simulator.faults, transition, fingerprint_extra
    )

    start_cycle = 0
    if resume:
        if checkpoint_path is None:
            raise CheckpointError("resume requested without a checkpoint path")
        saved = read_checkpoint(checkpoint_path, expect_fingerprint=fingerprint)
        if saved.kind != "run":
            raise CheckpointError(
                f"checkpoint {checkpoint_path!r} is a {saved.kind!r} checkpoint, "
                "not a single-run checkpoint"
            )
        simulator.restore(saved.payload["state"])
        start_cycle = saved.payload["cycle"]

    def save(cycle: int) -> None:
        if checkpoint_path is None:
            return
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
            every=checkpoint_every if checkpoint_path is not None else 0,
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
