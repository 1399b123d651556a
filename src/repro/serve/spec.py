"""Job specifications: the validated description of one simulation request.

A :class:`JobSpec` is the canonical form of what a client submits — a
circuit (named benchmark or inline ``.bench`` text), a test sequence
(explicit vectors or a deterministic random spec), an engine configuration
and scheduling hints (priority, idempotency key).  Validation happens at
submit time so malformed requests are rejected with a
:class:`SpecError` (HTTP 400) instead of failing later inside a worker.

:class:`SpecResolver` materializes specs into
:class:`repro.campaign.Campaign` values.  Circuit loads are memoized in a
small LRU keyed by the circuit *source* (inline text, or name + scale),
which is what the batcher amortizes: jobs sharing a source resolve
against one parsed, levelized circuit object, so the per-circuit
evaluation-LUT and macro caches inside the engines stay warm across the
whole batch.  The fault universes the campaign module selects are
memoized beside them, keyed by circuit source and universe policy.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.campaign import Campaign, Universe, select_universe
from repro.circuit.library import load as load_circuit
from repro.circuit.netlist import Circuit, NetlistError
from repro.circuit.bench import parse_bench
from repro.faults.model import Fault
from repro.harness.runner import ENGINE_NAMES, WORD_ENGINES, sanitized_options
from repro.parallel.sharding import STRATEGIES
from repro.patterns.random_gen import random_sequence
from repro.patterns.vectors import TestSequence, parse_vectors


class SpecError(ValueError):
    """A malformed or inconsistent job specification (HTTP 400)."""


def _opt_str(payload: Mapping[str, object], key: str) -> Optional[str]:
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, str):
        raise SpecError(f"{key!r} must be a string")
    return value


def _opt_int(payload: Mapping[str, object], key: str, default: int = 0) -> int:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{key!r} must be an integer")
    return value


def _opt_bool(payload: Mapping[str, object], key: str) -> bool:
    value = payload.get(key, False)
    if not isinstance(value, bool):
        raise SpecError(f"{key!r} must be a boolean")
    return value


def _opt_float(payload: Mapping[str, object], key: str, default: float) -> float:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{key!r} must be a number")
    return float(value)


_KNOWN_KEYS = frozenset(
    {
        "circuit",
        "scale",
        "netlist",
        "vectors",
        "random_patterns",
        "seed",
        "engine",
        "transition",
        "prune_untestable",
        "collapse",
        "dictionary",
        "sanitize",
        "max_cycles",
        "jobs",
        "shard_strategy",
        "priority",
        "idempotency_key",
        "deadline_seconds",
        "max_attempts",
        "word_width",
    }
)


@dataclass(frozen=True)
class JobSpec:
    """One validated simulation request.

    Exactly one of ``circuit``/``netlist`` names the design; ``vectors``
    (text, one ``0/1/X`` vector per line) and the ``random_patterns`` +
    ``seed`` pair are likewise exclusive, with the random spec as the
    default.  ``jobs``/``shard_strategy`` shard the fault universe through
    the parallel runner but never change the outcome, so they are *not*
    part of the result-cache identity (see :mod:`repro.serve.cache`).
    """

    circuit: Optional[str] = None
    scale: float = 1.0
    netlist: Optional[str] = None
    vectors: Optional[str] = None
    random_patterns: int = 64
    seed: int = 1992
    engine: str = "csim-MV"
    transition: bool = False
    prune_untestable: bool = False
    #: Collapse mode (``"equivalence"``, the only one) or ``None``.  The
    #: job simulates class representatives of the full universe and the
    #: result is expanded back before serialization, so the *blob* matches
    #: an uncollapsed full-universe run — but the option still joins the
    #: cache key (see :mod:`repro.serve.cache`): a collapsed and an
    #: uncollapsed submission resolve different fault lists and must never
    #: alias.
    collapse: Optional[str] = None
    #: Fault-dictionary build (``"full"``/``"passfail"``) or ``None`` for
    #: a plain simulation.  A dictionary job runs in ``record_responses``
    #: mode (no fault dropping, full per-fault failure responses) and its
    #: result blob is a ``repro-dict/1`` artifact instead of a detection
    #: document, so the format *is* part of the cache identity.  Stuck-at
    #: only.
    dictionary: Optional[str] = None
    #: Arm the fault-list invariant sanitizer (concurrent engines only).
    #: Purely a self-check — it never changes detections — so, like
    #: ``word_width``, it is *not* part of the cache identity.
    sanitize: bool = False
    max_cycles: Optional[int] = None
    jobs: int = 1
    shard_strategy: str = "round-robin"
    priority: int = 0
    idempotency_key: Optional[str] = None
    #: Wall-clock budget from submission; past it the job finishes with
    #: the truncated-result contract.  A scheduling knob, not part of the
    #: cache identity (truncated results are never cached anyway).
    deadline_seconds: Optional[float] = None
    #: Per-job override of the service-wide transient-retry cap.
    max_attempts: Optional[int] = None
    #: Word width for the packed engines (PROOFS/vsim): power of two
    #: >= 8.  A performance knob that never changes detections, so — like
    #: ``jobs`` — it is not part of the result-cache identity.
    word_width: Optional[int] = None

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "JobSpec":
        if not isinstance(payload, Mapping):
            raise SpecError("job payload must be a JSON object")
        unknown = sorted(set(payload) - _KNOWN_KEYS)
        if unknown:
            raise SpecError(f"unknown job fields: {', '.join(unknown)}")
        circuit = _opt_str(payload, "circuit")
        netlist = _opt_str(payload, "netlist")
        if (circuit is None) == (netlist is None):
            raise SpecError("exactly one of 'circuit' or 'netlist' is required")
        vectors = _opt_str(payload, "vectors")
        if vectors is not None and "random_patterns" in payload:
            raise SpecError("'vectors' and 'random_patterns' are mutually exclusive")
        engine = _opt_str(payload, "engine") or "csim-MV"
        if engine not in ENGINE_NAMES:
            raise SpecError(f"unknown engine {engine!r}; choose from {ENGINE_NAMES}")
        strategy = _opt_str(payload, "shard_strategy") or "round-robin"
        if strategy not in STRATEGIES:
            raise SpecError(
                f"unknown shard strategy {strategy!r}; choose from {STRATEGIES}"
            )
        jobs = _opt_int(payload, "jobs", 1)
        if jobs < 1:
            raise SpecError("'jobs' must be >= 1")
        transition = _opt_bool(payload, "transition")
        if transition and engine != "csim-MV":
            # csim-MV is the stored default; a transition job runs csim-TV.
            raise SpecError(f"a transition job runs csim-TV, not engine {engine!r}")
        collapse = _opt_str(payload, "collapse")
        if collapse is not None and collapse != "equivalence":
            raise SpecError(f"'collapse' must be 'equivalence', not {collapse!r}")
        dictionary = _opt_str(payload, "dictionary")
        if dictionary is not None:
            from repro.diagnosis.dictionary import DICTIONARY_KINDS

            if dictionary not in DICTIONARY_KINDS:
                raise SpecError(
                    f"'dictionary' must be one of {DICTIONARY_KINDS}"
                )
            if transition:
                raise SpecError(
                    "fault dictionaries only support the stuck-at model"
                )
        sanitize = _opt_bool(payload, "sanitize")
        if sanitize:
            try:
                sanitized_options(engine, transition)
            except ValueError as exc:
                raise SpecError(str(exc)) from None
        random_patterns = _opt_int(payload, "random_patterns", 64)
        if random_patterns < 1:
            raise SpecError("'random_patterns' must be >= 1")
        max_cycles: Optional[int] = None
        if payload.get("max_cycles") is not None:
            max_cycles = _opt_int(payload, "max_cycles")
            if max_cycles < 1:
                raise SpecError("'max_cycles' must be >= 1")
        deadline_seconds: Optional[float] = None
        if payload.get("deadline_seconds") is not None:
            deadline_seconds = _opt_float(payload, "deadline_seconds", 0.0)
            if deadline_seconds < 0:
                raise SpecError("'deadline_seconds' must be >= 0")
        max_attempts: Optional[int] = None
        if payload.get("max_attempts") is not None:
            max_attempts = _opt_int(payload, "max_attempts")
            if max_attempts < 1:
                raise SpecError("'max_attempts' must be >= 1")
        word_width: Optional[int] = None
        if payload.get("word_width") is not None:
            if engine not in WORD_ENGINES:
                raise SpecError(
                    f"'word_width' only applies to the word-packed engines "
                    f"{WORD_ENGINES}, not {engine!r}"
                )
            from repro.vector.packing import validate_word_width

            try:
                word_width = validate_word_width(payload["word_width"])
            except ValueError as exc:
                raise SpecError(str(exc)) from None
        return cls(
            circuit=circuit,
            scale=_opt_float(payload, "scale", 1.0),
            netlist=netlist,
            vectors=vectors,
            random_patterns=random_patterns,
            seed=_opt_int(payload, "seed", 1992),
            engine=engine,
            transition=transition,
            prune_untestable=_opt_bool(payload, "prune_untestable"),
            collapse=collapse,
            dictionary=dictionary,
            sanitize=sanitize,
            max_cycles=max_cycles,
            jobs=jobs,
            shard_strategy=strategy,
            priority=_opt_int(payload, "priority", 0),
            idempotency_key=_opt_str(payload, "idempotency_key"),
            deadline_seconds=deadline_seconds,
            max_attempts=max_attempts,
            word_width=word_width,
        )

    def to_payload(self) -> dict:
        """The normalized JSON form stored in the job record."""
        payload: dict = {
            "scale": self.scale,
            "engine": self.engine,
            "transition": self.transition,
            "prune_untestable": self.prune_untestable,
            "jobs": self.jobs,
            "shard_strategy": self.shard_strategy,
            "priority": self.priority,
        }
        if self.circuit is not None:
            payload["circuit"] = self.circuit
        if self.netlist is not None:
            payload["netlist"] = self.netlist
        if self.vectors is not None:
            payload["vectors"] = self.vectors
        else:
            payload["random_patterns"] = self.random_patterns
            payload["seed"] = self.seed
        if self.collapse is not None:
            payload["collapse"] = self.collapse
        if self.dictionary is not None:
            payload["dictionary"] = self.dictionary
        if self.sanitize:
            payload["sanitize"] = self.sanitize
        if self.max_cycles is not None:
            payload["max_cycles"] = self.max_cycles
        if self.idempotency_key is not None:
            payload["idempotency_key"] = self.idempotency_key
        if self.deadline_seconds is not None:
            payload["deadline_seconds"] = self.deadline_seconds
        if self.max_attempts is not None:
            payload["max_attempts"] = self.max_attempts
        if self.word_width is not None:
            payload["word_width"] = self.word_width
        return payload

    def circuit_source(self) -> Tuple[object, ...]:
        """Hashable identity of the circuit source (the batcher's key base)."""
        if self.netlist is not None:
            return ("inline", self.netlist)
        return ("named", self.circuit, self.scale)

    def group_key(self) -> Tuple[object, ...]:
        """Jobs sharing this key are batched onto one circuit instantiation.

        The key is the circuit source plus the engine configuration —
        everything that determines the parse/levelize/LUT setup a batch
        amortizes — and deliberately not the vectors or fault universe,
        which vary freely within a batch.
        """
        return self.circuit_source() + (self.engine, self.transition)

    def engine_label(self) -> str:
        """The engine name a direct CLI run would report for this spec."""
        return "csim-TV" if self.transition else self.engine


@dataclass
class ResolvedJob:
    """A spec materialized into its campaign, universe resolved.

    The campaign carries no execution settings yet (budget, checkpoint,
    tracing): the worker adds them per attempt.
    """

    spec: JobSpec
    campaign: Campaign

    @property
    def circuit(self) -> Circuit:
        return self.campaign.circuit

    @property
    def tests(self) -> TestSequence:
        return self.campaign.tests

    @property
    def faults(self) -> Tuple[Fault, ...]:
        """The simulated faults: the cache key's fault list."""
        assert self.campaign.universe is not None
        return self.campaign.universe.faults


class SpecResolver:
    """Materializes specs, memoizing circuits in a bounded LRU.

    ``capacity`` bounds how many distinct circuit sources stay resident,
    each with the universes the campaign module selected for it (one per
    universe policy); an interleaved multi-circuit workload with a small
    capacity thrashes the cache, which is exactly what request batching
    exists to prevent.
    """

    def __init__(self, capacity: int = 4) -> None:
        if capacity < 1:
            raise ValueError("resolver capacity must be >= 1")
        self.capacity = capacity
        self._circuits: "OrderedDict[Tuple[object, ...], Circuit]" = OrderedDict()
        self._universes: Dict[Tuple[object, ...], Dict[Tuple[object, ...], Universe]] = {}
        self.loads = 0

    def circuit_for(self, spec: JobSpec) -> Circuit:
        key = spec.circuit_source()
        cached = self._circuits.get(key)
        if cached is not None:
            self._circuits.move_to_end(key)
            return cached
        self.loads += 1
        if spec.netlist is not None:
            try:
                circuit = parse_bench(spec.netlist, name="inline")
            except NetlistError as exc:
                raise SpecError(f"bad inline netlist: {exc}") from None
        else:
            assert spec.circuit is not None
            try:
                circuit = load_circuit(spec.circuit, scale=spec.scale)
            except (NetlistError, FileNotFoundError, ValueError) as exc:
                raise SpecError(str(exc)) from None
        self._circuits[key] = circuit
        self._universes[key] = {}
        while len(self._circuits) > self.capacity:
            evicted, _ = self._circuits.popitem(last=False)
            self._universes.pop(evicted, None)
        return circuit

    def resolve(self, spec: JobSpec) -> ResolvedJob:
        circuit = self.circuit_for(spec)
        if spec.vectors is not None:
            try:
                tests = parse_vectors(spec.vectors, circuit)
            except ValueError as exc:
                raise SpecError(f"bad vectors: {exc}") from None
            if len(tests) == 0:
                raise SpecError("'vectors' contains no vectors")
        else:
            tests = random_sequence(circuit, spec.random_patterns, seed=spec.seed)
        if spec.transition:
            mode = "transition"
        else:
            mode = "detect" if spec.dictionary is None else "record"
        campaign = Campaign(
            circuit,
            tests,
            spec.engine_label(),
            mode=mode,
            dictionary=spec.dictionary,
            prune=spec.prune_untestable,
            collapse=spec.collapse,
            sanitize=spec.sanitize,
            word_width=spec.word_width,
            jobs=spec.jobs,
            shard_strategy=spec.shard_strategy,
        )
        # The universe is a pure function of the circuit source and the
        # universe policy, so jobs sharing a parsed circuit share its
        # universes too: the analysis passes run once per circuit and policy.
        universes = self._universes.setdefault(spec.circuit_source(), {})
        policy = (spec.transition, spec.prune_untestable, spec.collapse)
        universe = universes.get(policy)
        if universe is None:
            universe = universes[policy] = select_universe(campaign)
        return ResolvedJob(spec, replace(campaign, universe=universe))
