"""Engine-ladder execution: graceful degradation toward the serial oracle.

The concurrent engines are fast because they share the good machine and
carry faults as list elements — a subtle representation with subtle
failure modes.  :func:`run_with_ladder` runs the preferred engine first
and *audits* the result: structural invariants on the live simulator
(:func:`repro.robust.guards.invariant_violations`) plus a sampled
spot-check against :func:`repro.baselines.serial.simulate_serial`, the
one-fault-at-a-time oracle.  On any audit failure, engine crash, or
repeated budget breach, it retries one rung down the ladder, recording
every fallback in telemetry and on the result, until the final rung —
the serial oracle itself, which needs no audit.

Of the three injection classes ``tests/test_chaos.py`` covers
(:mod:`repro.robust.chaos`), two land on a rung: dropped events must fail
the spot-check, and a poisoned fault element must fail the invariant
check or crash its engine.  The third, a truncated checkpoint, is
:func:`repro.robust.checkpoint.read_checkpoint`'s to refuse; a laddered
run writes no checkpoints.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.serial import simulate_serial
from repro.circuit.netlist import Circuit
from repro.faults.universe import stuck_at_universe
from repro.harness.runner import make_stuck_at_simulator
from repro.patterns.vectors import TestSequence
from repro.result import FaultSimResult
from repro.robust.budget import Budget
from repro.robust.guards import invariant_violations

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

#: Seed of the spot-check's fault sample, so an audit is reproducible.
SPOT_CHECK_SEED = 1992

#: Reruns a budget-truncated rung gets before the ladder descends.
BUDGET_RETRIES = 1


def oracle_spot_check(
    circuit: Circuit,
    tests: TestSequence,
    result: FaultSimResult,
    faults=None,
    sample_size: int = 8,
) -> List[Dict[str, object]]:
    """Re-simulate a seeded fault sample serially; report disagreements.

    For each sampled fault the oracle's first-detection cycle
    (:func:`repro.baselines.serial.simulate_serial`: the first cycle where
    a primary output differs binarily from the good machine) must match
    ``result.detected`` exactly — same cycle, or absent from both.
    Returns one record per discrepancy; empty means the sample agrees.
    """
    universe = sorted(faults) if faults is not None else stuck_at_universe(circuit)
    if not universe:
        return []
    if sample_size >= len(universe):
        sample = list(universe)
    else:
        sample = random.Random(SPOT_CHECK_SEED).sample(universe, sample_size)
    oracle = simulate_serial(circuit, tests.vectors, sample).detected
    discrepancies: List[Dict[str, object]] = []
    for fault in sample:
        expected = oracle.get(fault)
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
    spot_check_sample: int = 8,
    simulator_factory: Optional[Callable[[str, Circuit, object, object], object]] = None,
    word_width: Optional[int] = None,
) -> FaultSimResult:
    """Run down the engine ladder until a rung produces an audited result.

    Each non-serial rung runs its engine, then audits: structural
    invariants on the simulator, then the serial spot-check on a seeded
    fault sample.  Failures descend one rung at once; a budget-truncated
    run is retried once on the same rung before descending.  The
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
                if breaches <= BUDGET_RETRIES:
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
