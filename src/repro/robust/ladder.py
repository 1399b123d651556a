"""Engine-ladder execution: graceful degradation toward the serial oracle.

The concurrent engines are fast because they share the good machine and
carry faults as list elements — a subtle representation with subtle
failure modes.  :func:`run_with_ladder` runs the preferred engine first
and *audits* the result: structural invariants on the live simulator
(:func:`repro.robust.guards.invariant_violations`) plus a sampled serial
spot-check against :class:`repro.sim.logicsim.LogicSimulator`, the
one-fault-at-a-time oracle.  On any audit failure, engine crash, or
repeated budget breach, it backs off and retries one rung down the
ladder, recording every fallback in telemetry and on the result, until
the final rung — the serial oracle itself, which needs no audit.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import random

from repro.baselines.serial import simulate_serial
from repro.circuit.netlist import Circuit
from repro.faults.universe import stuck_at_universe
from repro.harness.runner import make_stuck_at_simulator
from repro.logic.values import is_binary
from repro.patterns.vectors import TestSequence
from repro.result import FaultSimResult
from repro.robust.budget import Budget
from repro.robust.guards import invariant_violations
from repro.sim.logicsim import LogicSimulator

#: Fastest first, oracle last.  ``csim-MV`` (split lists + macros) is the
#: paper's flagship configuration; plain ``csim`` drops the two
#: optimisations most entangled with list bookkeeping; ``serial`` cannot
#: be wrong in the ways the ladder guards against.
DEFAULT_LADDER: Tuple[str, ...] = ("csim-MV", "csim", "serial")

#: The ladder with the vector kernel as the fast rung: ``vsim`` (the
#: pattern-parallel word engine, see :mod:`repro.vector`) degrades to
#: ``csim-MV`` — with the same serial-oracle audit every rung gets —
#: before the concurrent rungs degrade as usual.  The CLI uses this
#: ladder when ``--ladder`` is combined with ``--engine vsim``.
VECTOR_LADDER: Tuple[str, ...] = ("vsim", "csim-MV", "csim", "serial")


def oracle_spot_check(
    circuit: Circuit,
    tests: TestSequence,
    result: FaultSimResult,
    faults=None,
    sample_size: int = 8,
    seed: int = 1992,
) -> List[Dict[str, object]]:
    """Re-simulate a seeded fault sample serially; report disagreements.

    For each sampled fault the oracle's first-detection cycle (first cycle
    where a primary output differs binarily from the good machine) must
    match ``result.detected`` exactly — same cycle, or absent from both.
    Returns one record per discrepancy; empty means the sample agrees.
    """
    universe = sorted(faults) if faults is not None else stuck_at_universe(circuit)
    if not universe:
        return []
    rng = random.Random(seed)
    if sample_size >= len(universe):
        sample = list(universe)
    else:
        sample = rng.sample(universe, sample_size)

    good = LogicSimulator(circuit)
    good_outputs = [good.step(vector) for vector in tests.vectors]

    discrepancies: List[Dict[str, object]] = []
    for fault in sample:
        machine = LogicSimulator(circuit, fault)
        expected: Optional[int] = None
        for cycle, vector in enumerate(tests.vectors, start=1):
            outputs = machine.step(vector)
            reference = good_outputs[cycle - 1]
            if any(
                is_binary(g) and is_binary(f) and g != f
                for g, f in zip(reference, outputs)
            ):
                expected = cycle
                break
        got = result.detected.get(fault)
        if got != expected:
            discrepancies.append(
                {"fault": repr(fault), "oracle_cycle": expected, "engine_cycle": got}
            )
    return discrepancies


def _record_fallback(fallbacks, tracer, engine: str, to: str, reason: str) -> None:
    fallbacks.append({"engine": engine, "to": to, "reason": reason})
    if tracer is not None:
        tracer.fallback(engine, to, reason)


def run_with_ladder(
    circuit: Circuit,
    tests: TestSequence,
    ladder: Sequence[str] = DEFAULT_LADDER,
    *,
    faults=None,
    tracer=None,
    budget: Optional[Budget] = None,
    budget_retries: int = 1,
    backoff_seconds: float = 0.0,
    spot_check_sample: int = 8,
    seed: int = 1992,
    simulator_factory: Optional[Callable[[str, Circuit, object, object], object]] = None,
    word_width: Optional[int] = None,
) -> FaultSimResult:
    """Run down the engine ladder until a rung produces an audited result.

    Each non-serial rung runs its engine, then audits: structural
    invariants on the simulator, then the serial spot-check on a seeded
    fault sample.  Failures descend one rung (after ``backoff_seconds`` ×
    number of fallbacks so far); a budget-truncated run is retried on the
    same rung up to ``budget_retries`` times before descending.  The
    ``serial`` rung is terminal — it *is* the oracle, so its result (even
    truncated) is returned as-is.

    ``simulator_factory(engine, circuit, faults, tracer)`` overrides
    simulator construction for a rung (return ``None`` to fall through to
    the default); the chaos harness uses this to plant faulty engines.

    Every fallback is recorded on ``result.fallbacks`` and through the
    tracer's ``fallback`` hook.  Raises the last engine error only if the
    ladder is exhausted without reaching a usable rung.
    """
    if not ladder:
        raise ValueError("empty engine ladder")
    fallbacks: List[Dict[str, str]] = []
    last_error: Optional[BaseException] = None

    def _descend(engine: str, rung_index: int, reason: str) -> None:
        to = ladder[rung_index + 1] if rung_index + 1 < len(ladder) else "<none>"
        _record_fallback(fallbacks, tracer, engine, to, reason)
        if backoff_seconds:
            time.sleep(backoff_seconds * len(fallbacks))

    for rung_index, engine in enumerate(ladder):
        last_rung = rung_index == len(ladder) - 1

        if engine == "serial":
            result = simulate_serial(circuit, tests.vectors, faults, budget=budget)
            result.fallbacks = fallbacks
            return result

        breaches = 0
        while True:
            simulator = None
            if simulator_factory is not None:
                simulator = simulator_factory(engine, circuit, faults, tracer)
            if simulator is None:
                simulator = make_stuck_at_simulator(
                    circuit, engine, faults, tracer=tracer, word_width=word_width
                )
            try:
                result = simulator.run(tests, budget=budget)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                last_error = exc
                _descend(engine, rung_index, f"engine raised {exc!r}")
                break

            if result.truncated:
                breaches += 1
                if breaches <= budget_retries:
                    if backoff_seconds:
                        time.sleep(backoff_seconds * breaches)
                    continue
                _descend(
                    engine,
                    rung_index,
                    f"budget breached {breaches}x: {result.truncation_reason}",
                )
                break

            violations = invariant_violations(simulator)
            if violations:
                _descend(engine, rung_index, f"invariant violated: {violations[0]}")
                break

            discrepancies = oracle_spot_check(
                circuit,
                tests,
                result,
                faults=simulator.faults,
                sample_size=spot_check_sample,
                seed=seed,
            )
            if discrepancies:
                _descend(
                    engine,
                    rung_index,
                    f"oracle disagreement on {len(discrepancies)} of "
                    f"{min(spot_check_sample, len(simulator.faults))} sampled "
                    f"faults, e.g. {discrepancies[0]}",
                )
                break

            result.fallbacks = fallbacks
            return result

        if last_rung:
            break

    if last_error is not None:
        raise last_error
    raise RuntimeError(
        f"engine ladder {tuple(ladder)!r} exhausted: "
        + "; ".join(f["reason"] for f in fallbacks)
    )
