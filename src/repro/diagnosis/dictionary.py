"""Fault-dictionary construction by concurrent fault simulation.

A fault dictionary is the precomputed map from each modelled fault to the
response a tester would observe from a device carrying it.  Building one
needs *full* fault simulation — every fault simulated against every vector
with no fault dropping — which is exactly the workload the paper's engine
makes affordable.  A build is a ``record``-mode
:class:`repro.campaign.Campaign`, so every campaign facility applies
uniformly: any stuck-at engine (every engine produces bit-identical
response maps), fault sharding over worker processes, budgets, tracers,
and checkpoints — a build killed mid-flight resumes instead of
recomputing.  A single-process build checkpoints to the given path, a
sharded one to ``<path>.shardII-of-NN``.

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
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer
    from repro.robust.budget import Budget

from repro.circuit.netlist import Circuit
from repro.concurrent.options import SimOptions
from repro.faults.model import Fault, StuckAtFault
from repro.patterns.vectors import TestSequence
from repro.result import Failure

#: Recognised dictionary formats.
DICTIONARY_KINDS = ("full", "passfail")


@dataclass(frozen=True)
class SignatureClasses:
    """A dictionary's detected faults grouped by identical signature.

    Every distinct failure owns one bit, so a signature is an int mask and
    the failures two signatures share are the popcount of their ``&``.
    Class ``i`` has signature mask ``masks[i]`` with ``sizes[i]``
    failures, and ``members[i]`` lists its faults; members and classes
    follow the dictionary's ``signatures`` map, so they are in fault order
    (classes by first member) whenever the map is.  Undetected faults
    (empty signatures) belong to no class.
    """

    bits: Dict[object, int]
    masks: Tuple[int, ...]
    sizes: Tuple[int, ...]
    members: Tuple[Tuple[Fault, ...], ...]

    def query_mask(self, failures: Iterable[object]) -> int:
        """The mask of *failures*; failures no signature holds add no bit."""
        mask = 0
        for failure in failures:
            bit = self.bits.get(failure)
            if bit is not None:
                mask |= 1 << bit
        return mask


@dataclass(frozen=True)
class FaultDictionary:
    """Base dictionary: fault -> response signature.

    :func:`assemble_dictionary` and the decoder build ``signatures`` in
    fault order, and :attr:`classes` keeps the map's order rather than
    sorting it again.
    """

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

    @cached_property
    def classes(self) -> SignatureClasses:
        """The signature-class index, built on first use and kept.

        The ranking does not depend on the order of classes or members
        (ties are broken by fault), so a hand-built map in another order
        ranks alike.
        """
        groups: Dict[FrozenSet, List[Fault]] = {}
        for fault, signature in self.signatures.items():
            if signature:
                groups.setdefault(signature, []).append(fault)
        bits = {
            failure: bit
            for bit, failure in enumerate(dict.fromkeys(chain.from_iterable(groups)))
        }
        shift = (1).__lshift__
        return SignatureClasses(
            bits=bits,
            masks=tuple(sum(map(shift, map(bits.__getitem__, sig))) for sig in groups),
            sizes=tuple(map(len, groups)),
            members=tuple(map(tuple, groups.values())),
        )

    def indistinguishable_groups(self) -> List[List[Fault]]:
        """Faults with identical (non-empty) signatures — the resolution
        limit of this dictionary on this test set — each group in fault
        order, groups by their first faults."""
        return sorted(
            (sorted(group) for group in self.classes.members if len(group) > 1),
            key=itemgetter(0),
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

    The final step of :func:`build_dictionary`: it puts the map in fault
    order and folds it with :func:`fold_ordered`, the fold the on-disk
    decoder (:mod:`repro.diagnosis.store`) shares — one code path
    guarantees a decoded dictionary matches a freshly built one
    bit-for-bit.
    """
    ordered = sorted(responses.items(), key=itemgetter(0))
    return fold_ordered(circuit_name, num_vectors, ordered, kind)


def fold_ordered(
    circuit_name: str,
    num_vectors: int,
    ordered: Iterable[Tuple[Fault, Tuple[Failure, ...]]],
    kind: str = "full",
) -> FaultDictionary:
    """Fold ``(fault, failures)`` pairs, already in fault order, into a
    dictionary of *kind* (see :func:`assemble_dictionary`)."""
    if kind not in DICTIONARY_KINDS:
        raise ValueError(f"unknown dictionary kind {kind!r}")
    signatures = {
        fault: _signature_of(kind, failures) for fault, failures in ordered
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
    wrong signature.  Any checkpoints remain on disk, so the same build
    invoked again with ``resume=True`` picks up where the budget struck
    instead of recomputing.
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
    from repro.campaign import Campaign, execute

    result = execute(
        Campaign(
            circuit,
            tests,
            engine,
            mode="record",
            dictionary=kind,
            faults=sorted(set(faults)) if faults is not None else None,
            collapse=collapse,
            options=options,
            word_width=word_width,
            jobs=jobs,
            budget=budget,
            checkpoint_path=checkpoint_path,
            resume=resume,
            checkpoint_every=checkpoint_every,
            tracer=tracer,
        )
    )
    if result.truncated:
        raise DictionaryBuildTruncated(
            f"dictionary build stopped early ({result.truncation_reason}); "
            "checkpoints (if any) remain for resume"
        )
    assert result.responses is not None
    return result.responses


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
    arms durable progress so a killed build resumes (pass
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
        checkpoint_path=checkpoint_path,
        resume=resume,
        checkpoint_every=checkpoint_every,
        budget=budget,
        tracer=tracer,
        word_width=word_width,
    )
    return assemble_dictionary(circuit.name, len(tests), responses, kind)
