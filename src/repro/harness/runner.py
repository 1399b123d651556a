"""Uniform entry points for running any engine on any workload.

Everything the tables, benchmarks and examples do reduces to: pick a
circuit, pick a test sequence, pick an engine, get a
:class:`repro.result.FaultSimResult` back.  This module is that reduction,
plus a cached workload factory so repeated benchmark invocations reuse the
(deterministic) generated circuits and test sets.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.baselines.proofs import ProofsSimulator
from repro.baselines.serial import simulate_serial, simulate_serial_transition
from repro.circuit.library import load as load_circuit
from repro.circuit.netlist import Circuit
from repro.concurrent.engine import ConcurrentFaultSimulator
from repro.concurrent.options import SimOptions
from repro.concurrent.transition_engine import TransitionFaultSimulator
from repro.faults.model import StuckAtFault
from repro.faults.transition import all_transition_faults
from repro.faults.universe import stuck_at_universe
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
    faults: Optional[Iterable[StuckAtFault]] = None,
    options: Optional[SimOptions] = None,
    tracer: Optional[Tracer] = None,
    word_width: Optional[int] = None,
    axis_mode: str = "auto",
    record_responses: bool = False,
):
    """Build the simulator object behind a named stuck-at engine.

    The resilient runner (:mod:`repro.robust.runner`) needs the simulator
    itself — for ``snapshot()``/``restore()`` and invariant checks — rather
    than just a finished result; the ``serial`` oracle has no incremental
    simulator object and is rejected here.  ``word_width`` and
    ``axis_mode`` only apply to the word-packed engines
    (:data:`WORD_ENGINES`); other engines ignore them.
    ``record_responses`` puts any engine into dictionary-building mode
    (no fault dropping, full per-fault failure responses on the result).
    """
    if engine == "serial":
        raise ValueError("the serial oracle has no incremental simulator object")
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
    shard_strategy: str = "round-robin",
    trace_dir: Optional[str] = None,
    trace_ctx=None,
    record_events: bool = False,
    word_width: Optional[int] = None,
    axis_mode: str = "auto",
    record_responses: bool = False,
) -> FaultSimResult:
    """Run one stuck-at engine over *tests*.

    ``engine`` is one of :data:`ENGINE_NAMES`; an explicit ``options``
    overrides the name lookup for concurrent variants (ablations use this).
    A ``tracer`` (see :mod:`repro.obs`) instruments the run — every
    engine, the serial oracle included, mirrors its work counters through
    the hooks.  A ``budget`` (:class:`repro.robust.budget.Budget`) bounds
    the run; a breached run returns a result flagged ``truncated``
    instead of hanging.

    ``jobs > 1`` shards the fault universe over that many worker
    processes (see :mod:`repro.parallel`); detections are bit-identical
    to the single-process run.  A ``tracer`` object cannot cross the
    process boundary, so parallel runs record telemetry in every worker
    instead and attach the merged telemetry to the result; ``trace_dir``
    (with optional ``record_events``) additionally captures the
    cross-process span trace (see :mod:`repro.obs.span`).  The shard
    workers always pick their own vsim axis, so ``axis_mode`` other than
    ``"auto"`` is refused with ``jobs > 1``.
    """
    if jobs > 1:
        from repro.parallel.runner import run_parallel

        if axis_mode != "auto":
            raise ValueError(
                f"axis_mode {axis_mode!r} needs jobs=1; sharded runs use 'auto'"
            )

        return run_parallel(
            circuit,
            tests,
            engine,
            faults=faults,
            options=options,
            jobs=jobs,
            shard_strategy=shard_strategy,
            budget=budget,
            telemetry=tracer is not None,
            trace_dir=trace_dir,
            trace_ctx=trace_ctx,
            record_events=record_events,
            word_width=word_width,
            record_responses=record_responses,
        )
    if engine == "serial" and options is None:
        return simulate_serial(
            circuit, tests.vectors, faults, budget=budget, tracer=tracer,
            record_responses=record_responses,
        )
    simulator = make_stuck_at_simulator(
        circuit, engine, faults, options, tracer, word_width=word_width,
        axis_mode=axis_mode, record_responses=record_responses,
    )
    return simulator.run(tests, budget=budget)


def run_transition(
    circuit: Circuit,
    tests: TestSequence,
    split_lists: bool = True,
    faults=None,
    serial: bool = False,
    tracer: Optional[Tracer] = None,
    budget=None,
    jobs: int = 1,
    shard_strategy: str = "round-robin",
    sanitize: bool = False,
    trace_dir: Optional[str] = None,
    trace_ctx=None,
    record_events: bool = False,
) -> FaultSimResult:
    """Run transition-fault simulation (concurrent by default)."""
    if serial and sanitize:
        raise ValueError("the serial transition oracle has no fault lists to sanitize")
    if jobs > 1 and not serial:
        from repro.parallel.runner import run_parallel

        return run_parallel(
            circuit,
            tests,
            transition=True,
            faults=faults,
            options=SimOptions(split_lists=split_lists, sanitize=sanitize),
            jobs=jobs,
            shard_strategy=shard_strategy,
            budget=budget,
            telemetry=tracer is not None,
            trace_dir=trace_dir,
            trace_ctx=trace_ctx,
            record_events=record_events,
        )
    if serial:
        return simulate_serial_transition(circuit, tests.vectors, faults)
    options = SimOptions(split_lists=split_lists, sanitize=sanitize)
    simulator = TransitionFaultSimulator(circuit, faults, options, tracer=tracer)
    return simulator.run(tests, budget=budget)


def compare_engines(
    circuit: Circuit,
    tests: TestSequence,
    engines: Iterable[str] = ("csim-V", "csim-M", "csim-MV", "PROOFS"),
    faults: Optional[Iterable[StuckAtFault]] = None,
    tracer_factory: Optional[Callable[[str], Optional[Tracer]]] = None,
    sanitize: bool = False,
) -> List[FaultSimResult]:
    """Run several engines on the identical workload (the Tables 3/4 shape).

    Raises if the engines disagree on the detected fault set — a paper
    table with silently inconsistent engines would be meaningless.
    ``tracer_factory`` is called once per engine name to supply a fresh
    tracer (or ``None``); each result then carries its own telemetry.
    ``sanitize`` arms the fault-list sanitizer on every concurrent engine
    in the lineup (engines without fault lists run unchanged).
    """
    fault_list = sorted(faults) if faults is not None else stuck_at_universe(circuit)
    results = [
        run_stuck_at(
            circuit,
            tests,
            engine,
            fault_list,
            options=(
                sanitized_options(engine)
                if sanitize and engine in _OPTIONS_BY_NAME
                else None
            ),
            tracer=tracer_factory(engine) if tracer_factory else None,
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


def workload_transition_faults(name: str, scale: float = 1.0):
    """Transition fault universe for a benchmark circuit."""
    return all_transition_faults(workload_circuit(name, scale))
