"""One campaign pipeline: describe a fault-simulation run once, run it here.

A :class:`Campaign` describes one run: circuit and tests, engine and
mode, universe policy (explicit faults, prune, collapse), execution
settings (jobs, checkpoint, budget, ladder) and observability settings.
:func:`execute` is the one place that acts on it.  It selects the
universe (:func:`select_universe`, or takes one resolved earlier), binds
checkpoints to the campaign's identity, dispatches to the engine ladder,
the sharded backend (:func:`repro.parallel.runner.run_parallel`), the
checkpointed backend (:func:`repro.robust.runner.run_checkpointed`), the
engine's own run or the serial oracle, and expands the representatives'
detections and responses onto the full universe.  The CLI, the serve
worker, the dictionary builder and the library runners of
:mod:`repro.harness.runner` only construct campaigns.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.baselines.serial import simulate_serial, simulate_serial_transition
from repro.circuit.netlist import Circuit
from repro.concurrent.options import SimOptions
from repro.faults.model import Fault
from repro.faults.transition import all_transition_faults
from repro.faults.universe import all_stuck_at_faults, stuck_at_universe
from repro.patterns.vectors import TestSequence
from repro.result import FaultSimResult
from repro.robust.budget import Budget
from repro.robust.checkpoint import CheckpointError, checkpoint_files
from repro.robust.runner import run_checkpointed, run_fingerprint

if TYPE_CHECKING:
    from repro.analyze.collapse import CollapsedUniverse
    from repro.obs.span import TraceContext
    from repro.obs.tracer import Tracer

#: ``detect`` grades stuck-at faults with dropping, ``record`` keeps every
#: fault live and records its responses (dictionaries), ``transition``
#: grades transition faults.
MODES = ("detect", "record", "transition")


@dataclass(frozen=True)
class Universe:
    """A campaign's resolved fault universe.

    ``faults`` is what the engines simulate (the representatives under
    collapse); ``collapsed`` maps results back onto the full universe and
    ``identity`` binds checkpoints to that map (and, for a shard, to its
    place in the partition).  ``notes`` summarize the analysis passes.
    """

    faults: Tuple[Fault, ...]
    collapsed: Optional["CollapsedUniverse"] = None
    identity: Tuple = ()
    notes: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Campaign:
    """One fault-simulation run, described once.

    ``engine`` names a stuck-at engine; in ``transition`` mode ``serial``
    picks the serial oracle and any other name the concurrent transition
    engine.  ``options`` overrides the concurrent variant (ablations).
    ``dictionary`` names the kind a ``record`` campaign builds; it only
    joins the checkpoint identity.  ``faults`` is an explicit base
    universe, ``universe`` one already resolved.  ``ladder`` runs the
    named engines in order, each audited against the serial oracle.  A
    sharded run cannot carry ``tracer`` across processes: an enabled one
    makes every shard record telemetry instead, and ``trace_dir`` adds
    the cross-process span trace.
    """

    circuit: Circuit
    tests: TestSequence
    engine: str = "csim-MV"
    mode: str = "detect"
    dictionary: Optional[str] = None
    # universe policy
    faults: Optional[Sequence[Fault]] = None
    universe: Optional[Universe] = None
    prune: bool = False
    collapse: Optional[str] = None
    # engine settings
    options: Optional[SimOptions] = None
    sanitize: bool = False
    word_width: Optional[int] = None
    axis_mode: str = "auto"
    ladder: Optional[Tuple[str, ...]] = None
    # execution settings
    jobs: int = 1
    budget: Optional[Budget] = None
    checkpoint_path: Optional[str] = None
    resume: bool = False
    checkpoint_every: int = 64
    # observability
    tracer: Optional["Tracer"] = None
    trace_dir: Optional[str] = None
    trace_ctx: Optional["TraceContext"] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown campaign mode {self.mode!r}; choose from {MODES}")
        if self.collapse not in (None, "equivalence"):
            raise ValueError(
                f"collapse must be 'equivalence' or None, not {self.collapse!r}"
            )
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.resume and self.checkpoint_path is None:
            raise CheckpointError("resume requested without a checkpoint path")
        if self.axis_mode != "auto" and self.jobs > 1:
            raise ValueError(
                f"axis_mode {self.axis_mode!r} needs jobs=1; sharded runs use 'auto'"
            )
        if self.engine == "serial" and self.checkpoint_path is not None:
            raise ValueError("the serial oracle has no incremental simulator object")
        if self.dictionary is not None and self.mode != "record":
            raise ValueError("a dictionary kind needs a record-mode campaign")
        if self.ladder is not None and (
            self.mode != "detect"
            or self.jobs > 1
            or self.checkpoint_path is not None
            or self.options is not None
            or self.sanitize
        ):
            raise ValueError(
                "a ladder audits stuck-at detection by its own engines in one "
                "process: no other mode, jobs, checkpoint, options or sanitize"
            )
        if self.sanitize:
            if self.engine == "serial" and self.mode == "transition":
                raise ValueError(
                    "the serial transition oracle has no fault lists to sanitize"
                )
            _sim_options(self)  # engines without fault lists raise here

    @property
    def transition(self) -> bool:
        return self.mode == "transition"


def _sim_options(campaign: Campaign) -> Optional[SimOptions]:
    """The concurrent engine options a campaign runs with (None: the engine's)."""
    if not campaign.sanitize:
        return campaign.options
    if campaign.options is not None:
        return campaign.options.with_(sanitize=True)
    from repro.harness.runner import sanitized_options

    return sanitized_options(campaign.engine, campaign.transition)


def select_universe(campaign: Campaign) -> Universe:
    """The faults a campaign simulates, and the way back to its universe.

    Pruning comes before collapsing: equivalent faults are untestable
    together, and the collapse targets the pruned universe so the
    expanded result is bit-identical to simulating every survivor.
    Collapsing starts from the full pin-level universe, so every pin
    fault gets its result by exact class inheritance.
    """
    if campaign.universe is not None:
        return campaign.universe
    circuit = campaign.circuit
    if campaign.faults is not None:
        faults = list(campaign.faults)
    elif campaign.transition:
        faults = all_transition_faults(circuit)
    elif campaign.collapse is not None:
        faults = all_stuck_at_faults(circuit)
    else:
        faults = stuck_at_universe(circuit)
    notes: Tuple[str, ...] = ()
    if campaign.prune:
        from repro.analyze import prune_untestable

        report = prune_untestable(circuit, faults)
        faults = list(report.kept)
        notes += (report.summary(),)
    if campaign.collapse is None:
        return Universe(tuple(faults), notes=notes)
    from repro.analyze import collapse_universe

    collapsed = collapse_universe(circuit, faults, transition=campaign.transition)
    return Universe(
        collapsed.representatives,
        collapsed=collapsed,
        identity=collapsed.fingerprint_material(),
        notes=notes + (collapsed.summary(),),
    )


def execute(campaign: Campaign, *, executor=None) -> FaultSimResult:
    """Run *campaign* and return its result on the full universe.

    ``executor`` (a :class:`repro.parallel.SequentialExecutor` or
    :class:`repro.parallel.MultiprocessExecutor`) runs the shards of a
    sharded campaign; passing one shards even a single-job campaign.
    A resume with no checkpoint file on disk, neither the single file nor
    any shard file, raises :class:`CheckpointError` instead of silently
    starting over.
    """
    path = campaign.checkpoint_path
    if campaign.resume and not checkpoint_files(path):  # path is set: see Campaign
        raise CheckpointError(f"no checkpoint file at {path!r} to resume from")
    universe = select_universe(campaign)
    if campaign.ladder is not None:
        from repro.robust.ladder import run_with_ladder

        result = run_with_ladder(
            campaign.circuit,
            campaign.tests,
            campaign.ladder,
            faults=list(universe.faults),
            tracer=campaign.tracer,
            budget=campaign.budget,
            word_width=campaign.word_width,
        )
    elif campaign.jobs > 1 or executor is not None:
        from repro.parallel.runner import run_parallel

        result = run_parallel(campaign, universe, executor=executor)
    else:
        result = _run_local(campaign, universe)
    if universe.collapsed is not None:
        result = universe.collapsed.expand(result)
    return result


def shard_campaign(
    campaign: Campaign,
    universe: Universe,
    faults: Sequence[Fault],
    position: Tuple[int, int],
    checkpoint_path: Optional[str],
) -> Campaign:
    """Shard ``position = (index, total)`` of a sharded campaign.

    It holds the shard's faults and scalar settings only: neither the
    collapse map, the full universe nor the tracer, so it pickles small.
    Its universe's identity extends the campaign's with the shard's
    position in the partition, so its checkpoints stay bound to the
    collapse map and never resume under another partition; the literal
    ``"round-robin"`` names the partition, so the shard fingerprints stay
    those ``tests/golden/identity.json`` pins.  The checkpoint resumes
    only when the file exists; the other shards of a killed campaign
    start fresh.
    """
    identity = universe.identity + ("shard", "round-robin", *position)
    return replace(
        campaign,
        faults=None,
        universe=Universe(tuple(faults), identity=identity),
        jobs=1,
        checkpoint_path=checkpoint_path,
        resume=(
            campaign.resume
            and checkpoint_path is not None
            and os.path.exists(checkpoint_path)
        ),
        tracer=None,
    )


def _run_local(campaign: Campaign, universe: Universe) -> FaultSimResult:
    """Run a campaign's universe in this process (a whole run, or one shard)."""
    circuit, tests, tracer = campaign.circuit, campaign.tests, campaign.tracer
    faults = list(universe.faults)
    if campaign.engine == "serial":
        if campaign.transition:
            return simulate_serial_transition(circuit, tests.vectors, faults)
        return simulate_serial(
            circuit,
            tests.vectors,
            faults,
            budget=campaign.budget,
            tracer=tracer,
            record_responses=campaign.mode == "record",
        )
    from repro.harness.runner import make_stuck_at_simulator

    simulator = make_stuck_at_simulator(
        circuit,
        campaign.engine,
        faults,
        options=_sim_options(campaign),
        tracer=tracer,
        word_width=campaign.word_width,
        axis_mode=campaign.axis_mode,
        record_responses=campaign.mode == "record",
        transition=campaign.transition,
    )
    if campaign.checkpoint_path is None:
        return simulator.run(tests, budget=campaign.budget)
    identity = universe.identity
    if campaign.dictionary is not None:
        # PROOFS/vsim labels do not tell a recording run from a dropping
        # one, so a dictionary build's checkpoints never seed (or get
        # seeded by) a detection run over the same inputs.
        identity = ("diagnosis-dictionary", campaign.dictionary) + identity
    fingerprint = run_fingerprint(
        circuit,
        tests,
        simulator.engine_name,
        simulator.faults,
        campaign.transition,
        identity,
    )
    return run_checkpointed(
        simulator,
        tests,
        checkpoint_path=campaign.checkpoint_path,
        fingerprint=fingerprint,
        resume=campaign.resume,
        checkpoint_every=campaign.checkpoint_every,
        budget=campaign.budget,
    )
