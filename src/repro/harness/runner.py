"""Uniform entry points for running any engine on any workload.

Everything the tables, benchmarks and examples do reduces to: pick a
circuit, pick a test sequence, pick an engine, get a
:class:`repro.result.FaultSimResult` back.  This module holds the engine
registry and the simulator factory, the short library forms of a
:class:`repro.campaign.Campaign` (:func:`run_stuck_at`,
:func:`run_transition`, :func:`compare_engines`), which
:func:`repro.campaign.execute` runs, and a cached workload factory so
repeated benchmark invocations reuse the (deterministic) generated
circuits and test sets.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.baselines.proofs import ProofsSimulator
from repro.campaign import Campaign, execute, select_universe
from repro.circuit.library import load as load_circuit
from repro.circuit.netlist import Circuit
from repro.concurrent.engine import ConcurrentFaultSimulator
from repro.concurrent.options import SimOptions
from repro.concurrent.transition_engine import TransitionFaultSimulator
from repro.faults.model import Fault, StuckAtFault
from repro.obs.tracer import Tracer
from repro.patterns.atpg import generate_tests
from repro.patterns.random_gen import random_sequence
from repro.patterns.vectors import TestSequence
from repro.result import FaultSimResult

#: Engine registry: name -> how to run stuck-at simulation with it.
#: ``vsim`` is the pattern-parallel vector kernel (``csim-V`` was already
#: taken by the split-lists concurrent variant).
ENGINE_NAMES = ("csim", "csim-V", "csim-M", "csim-MV", "PROOFS", "vsim", "serial")

#: Engines that take the ``--word-width`` packing knob.
WORD_ENGINES = ("PROOFS", "vsim")

_OPTIONS_BY_NAME = {
    "csim": SimOptions(),
    "csim-V": SimOptions(split_lists=True),
    "csim-M": SimOptions(use_macros=True),
    "csim-MV": SimOptions(split_lists=True, use_macros=True),
}


def engine_options(engine: str) -> Optional[SimOptions]:
    """The :class:`SimOptions` behind a named concurrent variant.

    ``None`` for engines without an options object (``PROOFS``,
    ``vsim``, ``serial``) — callers use this to tell the fault-list
    engines from the rest (see also :func:`sanitized_options`).
    """
    return _OPTIONS_BY_NAME.get(engine)


def sanitized_options(engine: str = "csim-MV", transition: bool = False) -> SimOptions:
    """The options that arm the fault-list sanitizer for one engine.

    Transition runs use the split-lists transition engine whatever
    ``engine`` names.  Engines without fault lists (``PROOFS``, ``vsim``,
    ``serial``) cannot be sanitized: :class:`ValueError`.
    """
    if transition:
        return SimOptions(split_lists=True, sanitize=True)
    base = engine_options(engine)
    if base is None:
        raise ValueError(
            f"sanitize requires a concurrent engine (csim*), not {engine!r}"
        )
    return base.with_(sanitize=True)


def make_stuck_at_simulator(
    circuit: Circuit,
    engine: str = "csim-MV",
    faults: Optional[Iterable[Fault]] = None,
    options: Optional[SimOptions] = None,
    tracer: Optional[Tracer] = None,
    word_width: Optional[int] = None,
    axis_mode: str = "auto",
    record_responses: bool = False,
    transition: bool = False,
):
    """Build the simulator object behind a named engine.

    The checkpointed backend (:mod:`repro.robust.runner`) needs the
    simulator itself — for ``snapshot()``/``restore()`` and invariant
    checks — rather than just a finished result; the ``serial`` oracle has
    no incremental simulator object and is rejected here.  ``word_width``
    and ``axis_mode`` only apply to the word-packed engines
    (:data:`WORD_ENGINES`); other engines ignore them.
    ``record_responses`` puts any stuck-at engine into dictionary-building
    mode (no fault dropping, full per-fault failure responses on the
    result).  ``transition`` builds the concurrent transition engine
    (split lists unless ``options`` says otherwise) whatever ``engine``
    names.
    """
    if engine == "serial":
        raise ValueError("the serial oracle has no incremental simulator object")
    if transition:
        if record_responses:
            raise ValueError(
                "response recording (fault dictionaries) only supports the "
                "stuck-at model"
            )
        return TransitionFaultSimulator(
            circuit, faults, options or SimOptions(split_lists=True), tracer=tracer
        )
    if options is None:
        options = _OPTIONS_BY_NAME.get(engine)
    if options is not None:
        return ConcurrentFaultSimulator(
            circuit, faults, options, tracer=tracer,
            record_responses=record_responses,
        )
    if engine == "vsim":
        from repro.vector.kernel import VectorFaultSimulator

        return VectorFaultSimulator(
            circuit,
            faults,
            word_width=word_width if word_width is not None else 64,
            axis_mode=axis_mode,
            tracer=tracer,
            record_responses=record_responses,
        )
    if engine == "PROOFS":
        return ProofsSimulator(
            circuit,
            faults,
            word_size=word_width if word_width is not None else 64,
            tracer=tracer,
            record_responses=record_responses,
        )
    raise ValueError(f"unknown engine {engine!r}; choose from {ENGINE_NAMES}")


def run_stuck_at(
    circuit: Circuit,
    tests: TestSequence,
    engine: str = "csim-MV",
    faults: Optional[Iterable[StuckAtFault]] = None,
    options: Optional[SimOptions] = None,
    tracer: Optional[Tracer] = None,
    budget=None,
    jobs: int = 1,
    trace_dir: Optional[str] = None,
    trace_ctx=None,
    word_width: Optional[int] = None,
    axis_mode: str = "auto",
    record_responses: bool = False,
) -> FaultSimResult:
    """Run one stuck-at engine over *tests* (a :class:`Campaign` shorthand).

    ``engine`` is one of :data:`ENGINE_NAMES`; an explicit ``options``
    overrides the name lookup for concurrent variants (ablations use this).
    A ``tracer`` (see :mod:`repro.obs`) instruments the run — every
    engine, the serial oracle included, mirrors its work counters through
    the hooks.  A ``budget`` (:class:`repro.robust.budget.Budget`) bounds
    the run; a breached run returns a result flagged ``truncated``
    instead of hanging.  ``jobs > 1`` shards the fault universe over that
    many worker processes with bit-identical detections (see
    :func:`repro.campaign.execute`); ``axis_mode`` other than ``"auto"``
    is refused there.
    """
    return execute(
        Campaign(
            circuit,
            tests,
            engine,
            mode="record" if record_responses else "detect",
            faults=faults if faults is None else list(faults),
            options=options,
            word_width=word_width,
            axis_mode=axis_mode,
            jobs=jobs,
            budget=budget,
            tracer=tracer,
            trace_dir=trace_dir,
            trace_ctx=trace_ctx,
        )
    )


def run_transition(
    circuit: Circuit,
    tests: TestSequence,
    split_lists: bool = True,
    faults=None,
    serial: bool = False,
    tracer: Optional[Tracer] = None,
    budget=None,
    jobs: int = 1,
    sanitize: bool = False,
    trace_dir: Optional[str] = None,
    trace_ctx=None,
) -> FaultSimResult:
    """Run transition-fault simulation (concurrent by default).

    ``serial`` runs the serial oracle instead, in one process.
    """
    return execute(
        Campaign(
            circuit,
            tests,
            "serial" if serial else "csim-TV",
            mode="transition",
            faults=faults if faults is None else list(faults),
            options=SimOptions(split_lists=split_lists),
            sanitize=sanitize,
            jobs=1 if serial else jobs,
            budget=budget,
            tracer=tracer,
            trace_dir=trace_dir,
            trace_ctx=trace_ctx,
        )
    )


def compare_engines(
    circuit: Circuit,
    tests: TestSequence,
    engines: Iterable[str] = ("csim-V", "csim-M", "csim-MV", "PROOFS"),
    faults: Optional[Iterable[StuckAtFault]] = None,
    tracer_factory: Optional[Callable[[str], Optional[Tracer]]] = None,
) -> List[FaultSimResult]:
    """Run several engines on the identical workload (the Tables 3/4 shape).

    Raises if the engines disagree on the detected fault set — a paper
    table with silently inconsistent engines would be meaningless.
    ``tracer_factory`` is called once per engine name to supply a fresh
    tracer (or ``None``); each result then carries its own telemetry.
    """
    base = Campaign(circuit, tests, faults=sorted(faults) if faults is not None else None)
    universe = select_universe(base)
    results = [
        execute(
            replace(
                base,
                engine=engine,
                universe=universe,
                tracer=tracer_factory(engine) if tracer_factory else None,
            )
        )
        for engine in engines
    ]
    reference = results[0].detected
    for result in results[1:]:
        if result.detected != reference:
            raise AssertionError(
                f"engine disagreement on {circuit.name}: "
                f"{results[0].engine} vs {result.engine}"
            )
    return results


# ----------------------------------------------------------------------
# cached deterministic workloads (circuit + tests), shared by benchmarks
# ----------------------------------------------------------------------

_circuit_cache: Dict[Tuple[str, float], Circuit] = {}
_tests_cache: Dict[Tuple[str, float, str, int], Tuple[TestSequence, float]] = {}


def workload_circuit(name: str, scale: float = 1.0) -> Circuit:
    """Benchmark circuit by name, memoized per (name, scale)."""
    key = (name, scale)
    if key not in _circuit_cache:
        _circuit_cache[key] = load_circuit(name, scale=scale)
    return _circuit_cache[key]


def workload_tests(
    name: str,
    scale: float = 1.0,
    kind: str = "deterministic",
    length: int = 256,
    seed: int = 1992,
) -> TestSequence:
    """Deterministic test sequence for a benchmark circuit, memoized.

    ``kind``: ``deterministic`` (Table 3 profile), ``deterministic-high``
    (Table 4 profile) or ``random`` (Table 5; *length* vectors).
    """
    circuit = workload_circuit(name, scale)
    if kind == "random":
        return random_sequence(circuit, length, seed=seed)
    key = (name, scale, kind, seed)
    if key not in _tests_cache:
        effort = "high" if kind == "deterministic-high" else "standard"
        _tests_cache[key] = generate_tests(circuit, effort=effort, seed=seed)
    return _tests_cache[key][0]
