"""Fault-dictionary construction by concurrent fault simulation.

A fault dictionary is the precomputed map from each modelled fault to the
response a tester would observe from a device carrying it.  Building one
needs *full* fault simulation — every fault simulated against every vector
with no fault dropping — which is exactly the workload the paper's engine
makes affordable.  The builder is the standard harness
(:func:`repro.harness.runner.run_stuck_at` /
:func:`repro.parallel.runner.run_parallel`) in ``record_responses`` mode,
so every campaign facility applies uniformly: engine choice across the
ladder (every engine produces bit-identical response maps), fault
sharding over worker processes, budgets, tracers, and per-shard
checkpoints — a build killed mid-flight resumes instead of recomputing.

Construction defaults to the *collapsed* universe: only equivalence-class
representatives are simulated, and every class member inherits its
representative's response tuple exactly
(:meth:`repro.analyze.collapse.CollapsedUniverse.expand_responses`).
Equivalent machines are identical, so the collapsed dictionary is
bit-identical to the full-universe one at a fraction of the cost.

Two classic formats:

* **full-response**: the set of (cycle, output) positions where the faulty
  response differs from the good one — maximal resolution, maximal size;
* **pass/fail**: only the set of failing cycles — far smaller, coarser
  resolution (the usual production compromise).

Signatures contain *definite* mismatches only (good and faulty both known
and different); unknown faulty values never enter a dictionary because a
tester comparison against an X is not reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer
    from repro.robust.budget import Budget

from repro.circuit.netlist import Circuit
from repro.concurrent.options import SimOptions
from repro.faults.model import Fault, StuckAtFault
from repro.faults.universe import all_stuck_at_faults, stuck_at_universe
from repro.patterns.vectors import TestSequence
from repro.result import Failure

#: Recognised dictionary formats.
DICTIONARY_KINDS = ("full", "passfail")


@dataclass(frozen=True)
class FaultDictionary:
    """Base dictionary: fault -> response signature."""

    circuit_name: str
    num_vectors: int
    signatures: Dict[Fault, FrozenSet]

    #: Format tag ("full" or "passfail"); set by the concrete classes.
    kind = ""

    def __len__(self) -> int:
        return len(self.signatures)

    def signature(self, fault: Fault) -> FrozenSet:
        """The signature of *fault* (empty when it never fails)."""
        return self.signatures.get(fault, frozenset())

    def detected_faults(self) -> List[Fault]:
        return sorted(f for f, sig in self.signatures.items() if sig)

    def indistinguishable_groups(self) -> List[List[Fault]]:
        """Faults with identical (non-empty) signatures — the resolution
        limit of this dictionary on this test set."""
        groups: Dict[FrozenSet, List[Fault]] = {}
        for fault, signature in self.signatures.items():
            if signature:
                groups.setdefault(signature, []).append(fault)
        return sorted(
            (sorted(members) for members in groups.values() if len(members) > 1),
            key=lambda members: members[0],
        )


@dataclass(frozen=True)
class FullResponseDictionary(FaultDictionary):
    """Signatures are frozensets of (cycle, output-position) failures."""

    kind = "full"


@dataclass(frozen=True)
class PassFailDictionary(FaultDictionary):
    """Signatures are frozensets of failing cycle numbers."""

    kind = "passfail"


def _signature_of(kind: str, failures: Tuple[Failure, ...]) -> FrozenSet:
    if kind == "full":
        return frozenset(failures)
    return frozenset(cycle for cycle, _ in failures)


def assemble_dictionary(
    circuit_name: str,
    num_vectors: int,
    responses: Dict[Fault, Tuple[Failure, ...]],
    kind: str = "full",
) -> FaultDictionary:
    """Fold a per-fault response map into a dictionary of *kind*.

    The shared final step of :func:`build_dictionary` and the on-disk
    decoder (:mod:`repro.diagnosis.store`) — one code path guarantees a
    decoded dictionary matches a freshly built one bit-for-bit.
    """
    if kind not in DICTIONARY_KINDS:
        raise ValueError(f"unknown dictionary kind {kind!r}")
    signatures = {
        fault: _signature_of(kind, failures)
        for fault, failures in sorted(responses.items())
    }
    cls = FullResponseDictionary if kind == "full" else PassFailDictionary
    return cls(
        circuit_name=circuit_name,
        num_vectors=num_vectors,
        signatures=signatures,
    )


class DictionaryBuildTruncated(RuntimeError):
    """A dictionary build stopped early (budget breach or short shard).

    A truncated response map must never masquerade as a dictionary — a
    fault that would fail on an unsimulated cycle would silently carry the
    wrong signature.  Any per-shard checkpoints remain on disk, so the
    same build invoked again with ``resume=True`` picks up where the
    budget struck instead of recomputing.
    """


def build_responses(
    circuit: Circuit,
    tests: TestSequence,
    faults: Optional[Iterable[StuckAtFault]] = None,
    kind: str = "full",
    options: Optional[SimOptions] = None,
    *,
    engine: str = "csim-MV",
    collapse: Optional[str] = "equivalence",
    jobs: int = 1,
    shard_strategy: str = "round-robin",
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    checkpoint_every: int = 64,
    budget: Optional["Budget"] = None,
    tracer: Optional["Tracer"] = None,
    word_width: Optional[int] = None,
) -> Dict[Fault, Tuple[Failure, ...]]:
    """The full-resolution response map :func:`build_dictionary` folds.

    Same contract and parameters; this is the step before the fold, for
    callers (the CLI's artifact writer, the serve layer) that need the
    raw per-fault responses rather than a signature dictionary.  ``kind``
    only names the build in checkpoint fingerprints here — responses are
    always full resolution.
    """
    if kind not in DICTIONARY_KINDS:
        raise ValueError(f"unknown dictionary kind {kind!r}")
    if collapse is not None and collapse != "equivalence":
        raise ValueError(
            "fault dictionaries require exact response attribution; "
            "collapse must be 'equivalence' or None, not "
            f"{collapse!r}"
        )

    if faults is not None:
        universe = sorted(set(faults))
    elif collapse is not None:
        # Collapsing targets the *full* pin-level universe — the serve
        # layer's convention — so every pin fault gets its response by
        # exact class inheritance at no extra simulation cost.
        universe = all_stuck_at_faults(circuit)
    else:
        universe = stuck_at_universe(circuit)

    collapsed = None
    simulate_faults: List[Fault] = list(universe)
    fingerprint_extra: tuple = ("diagnosis-dictionary", kind)
    if collapse is not None:
        from repro.analyze.collapse import collapse_universe

        collapsed = collapse_universe(circuit, universe)
        simulate_faults = list(collapsed.representatives)
        fingerprint_extra = fingerprint_extra + collapsed.fingerprint_material()

    if checkpoint_path is not None or jobs > 1:
        from repro.parallel.runner import run_parallel

        result = run_parallel(
            circuit,
            tests,
            engine,
            faults=simulate_faults,
            options=options,
            jobs=jobs,
            shard_strategy=shard_strategy,
            budget=budget,
            telemetry=tracer is not None,
            checkpoint_path=checkpoint_path,
            resume=resume,
            checkpoint_every=checkpoint_every,
            word_width=word_width,
            record_responses=True,
            fingerprint_extra=fingerprint_extra,
        )
    else:
        from repro.harness.runner import run_stuck_at

        result = run_stuck_at(
            circuit,
            tests,
            engine,
            faults=simulate_faults,
            options=options,
            tracer=tracer,
            budget=budget,
            word_width=word_width,
            record_responses=True,
        )
    if result.truncated:
        raise DictionaryBuildTruncated(
            f"dictionary build stopped early ({result.truncation_reason}); "
            "checkpoints (if any) remain for resume"
        )
    responses = result.responses
    assert responses is not None
    if collapsed is not None:
        responses = collapsed.expand_responses(responses)
    return responses


def build_dictionary(
    circuit: Circuit,
    tests: TestSequence,
    faults: Optional[Iterable[StuckAtFault]] = None,
    kind: str = "full",
    options: Optional[SimOptions] = None,
    *,
    engine: str = "csim-MV",
    collapse: Optional[str] = "equivalence",
    jobs: int = 1,
    shard_strategy: str = "round-robin",
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    checkpoint_every: int = 64,
    budget: Optional["Budget"] = None,
    tracer: Optional["Tracer"] = None,
    word_width: Optional[int] = None,
) -> FaultDictionary:
    """Simulate the universe without dropping and assemble a dictionary.

    ``kind``: ``"full"`` for (cycle, output) resolution, ``"passfail"``
    for failing-cycle resolution.  ``faults`` defaults to the full
    structural stuck-at universe.

    ``collapse="equivalence"`` (the default) simulates only equivalence
    representatives and expands their responses exactly onto every class
    member; pass ``collapse=None`` to simulate the universe verbatim.
    Both produce bit-identical dictionaries.  ``engine`` is any stuck-at
    engine in the ladder (:data:`repro.harness.runner.ENGINE_NAMES`);
    ``jobs`` shards the build over worker processes; ``checkpoint_path``
    arms durable per-shard progress so a killed build resumes (pass
    ``resume=True`` on the retry).  A budget-truncated build raises
    :class:`DictionaryBuildTruncated` rather than returning a dictionary
    with silently incomplete signatures.
    """
    responses = build_responses(
        circuit,
        tests,
        faults,
        kind,
        options,
        engine=engine,
        collapse=collapse,
        jobs=jobs,
        shard_strategy=shard_strategy,
        checkpoint_path=checkpoint_path,
        resume=resume,
        checkpoint_every=checkpoint_every,
        budget=budget,
        tracer=tracer,
        word_width=word_width,
    )
    return assemble_dictionary(circuit.name, len(tests), responses, kind)
