"""Structural-untestability analysis: SCOAP, pruning, bit-identity.

The load-bearing property: dropping pruned faults changes *nothing* about
the surviving faults — detections and potential detections are
bit-identical to a full-universe run, on every engine and under fault
sharding.  Everything else here pins the analyses the pruner rests on.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analyze import (
    INF,
    constant_values,
    observable_gates,
    prune_untestable,
    scoap,
)
from repro.analyze.untestable import CONSTANT_LINE, MASKED, UNOBSERVABLE
from repro.circuit.bench import parse_bench
from repro.circuit.generate import random_circuit
from repro.circuit.library import load
from repro.circuit.netlist import CircuitBuilder
from repro.faults.transition import all_transition_faults
from repro.faults.universe import stuck_at_universe
from repro.harness.runner import run_stuck_at, run_transition
from repro.logic.tables import GateType
from repro.logic.values import ONE, VALUES, X, ZERO
from repro.patterns.random_gen import random_sequence
from repro.patterns.vectors import TestSequence

#: A clean cone to z plus an unobservable cone {u1, u2} (u2 dangles).
DANGLING_BENCH = """
INPUT(a)
INPUT(b)
OUTPUT(z)
z = AND(a, b)
u1 = OR(a, b)
u2 = NOT(u1)
"""


def _constant_circuit():
    """``z = AND(a, c0)`` with a declared constant-0 input: z is constant."""
    builder = CircuitBuilder("const")
    builder.add_input("a")
    builder.add_gate("c0", GateType.CONST0, [])
    builder.add_gate("z", GateType.AND, ["a", "c0"])
    builder.set_output("z")
    return builder.build()


def _constant_fanout_circuit():
    """A constant-0 stem with fanout 2: its stem faults survive collapsing,
    so the same-value stuck-at (and the slow-to-rise) must be pruned."""
    builder = CircuitBuilder("constfan")
    builder.add_input("a")
    builder.add_input("b")
    builder.add_gate("c0", GateType.CONST0, [])
    builder.add_gate("y", GateType.OR, ["a", "c0"])
    builder.add_gate("z", GateType.OR, ["b", "c0"])
    builder.set_output("y")
    builder.set_output("z")
    return builder.build()


class TestScoap:
    def test_primary_inputs_cost_one(self):
        circuit = load("s27")
        result = scoap(circuit)
        for pi in circuit.inputs:
            assert result.cc0[pi] == 1
            assert result.cc1[pi] == 1

    def test_not_gate_swaps_controllabilities(self):
        circuit = parse_bench("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n", name="inv")
        result = scoap(circuit)
        z = circuit.gate("z").index
        a = circuit.gate("a").index
        assert result.cc0[z] == result.cc1[a] + 1
        assert result.cc1[z] == result.cc0[a] + 1

    def test_outputs_observe_free(self):
        circuit = load("s27")
        result = scoap(circuit)
        for out in circuit.outputs:
            assert result.co[out] == 0

    def test_constant_line_unattainable_side_is_inf(self):
        circuit = _constant_circuit()
        result = scoap(circuit)
        c0 = circuit.gate("c0").index
        assert result.cc0[c0] < INF
        assert result.cc1[c0] == INF
        assert result.controllability(c0, ONE) == INF

    def test_inverter_chain_costs_finite(self):
        # Along a pure inverter path nothing needs sensitizing, so every
        # cost is finite and grows by one per stage.
        circuit = parse_bench(
            "INPUT(a)\nOUTPUT(z)\nm = NOT(a)\nz = NOT(m)\n", name="chain"
        )
        result = scoap(circuit)
        a = circuit.gate("a").index
        m = circuit.gate("m").index
        assert result.co[a] == result.co[m] + 1
        assert result.co[a] < INF

    def test_some_internal_lines_finite_on_s27(self):
        # SCOAP is reporting-only; conservative INF is allowed on state
        # loops, but a real benchmark must not collapse to all-INF.
        circuit = load("s27")
        result = scoap(circuit)
        assert any(0 < cost < INF for cost in result.co)
        assert any(cost < INF for cost in result.cc1)


class TestStructuralAnalyses:
    def test_observable_gates_excludes_dangling_cone(self):
        circuit = parse_bench(DANGLING_BENCH, name="dangling")
        observable = observable_gates(circuit)
        assert circuit.gate("z").index in observable
        assert circuit.gate("a").index in observable
        assert circuit.gate("u1").index not in observable
        assert circuit.gate("u2").index not in observable

    def test_constant_values_propagate_declared_constants(self):
        circuit = _constant_circuit()
        constants = constant_values(circuit)
        assert constants[circuit.gate("c0").index] == ZERO
        assert constants[circuit.gate("z").index] == ZERO  # AND with 0
        assert constants[circuit.gate("a").index] == X

    def test_dffs_stay_unknown(self):
        # A DFF fed by a constant still powers up X; the analysis must not
        # assume the settled value (cycle-1 behaviour differs).
        builder = CircuitBuilder("ffconst")
        builder.add_gate("c1", GateType.CONST1, [])
        builder.add_dff("q", "c1")
        builder.add_input("a")
        builder.add_gate("z", GateType.AND, ["a", "q"])
        builder.set_output("z")
        circuit = builder.build()
        constants = constant_values(circuit)
        assert constants[circuit.gate("q").index] == X


class TestPruneReport:
    def test_unobservable_faults_pruned_with_reason(self):
        circuit = parse_bench(DANGLING_BENCH, name="dangling")
        report = prune_untestable(circuit, stuck_at_universe(circuit))
        unobservable = {circuit.gate("u1").index, circuit.gate("u2").index}
        assert report.pruned, "expected pruned faults on the dangling cone"
        for pruned in report.pruned:
            assert pruned.reason in (UNOBSERVABLE, CONSTANT_LINE, MASKED)
        # Collapsing may fold the cone's faults onto one representative
        # site, but every remaining cone fault must be pruned, none kept.
        assert {p.fault.gate for p in report.pruned} <= unobservable
        for fault in report.kept:
            assert fault.gate not in unobservable

    def test_constant_line_faults_pruned(self):
        circuit = _constant_fanout_circuit()
        report = prune_untestable(circuit, stuck_at_universe(circuit))
        reasons = {p.reason for p in report.pruned}
        assert CONSTANT_LINE in reasons
        c0 = circuit.gate("c0").index
        from repro.faults.model import FaultKind

        # Stuck-at-0 on a constant-0 stem is the faulty machine equal to
        # the good one; stuck-at-1 on it is detectable and must be kept.
        assert any(
            p.fault.gate == c0 and p.fault.kind is FaultKind.STUCK_AT_0
            for p in report.pruned
        )
        assert all(
            not (fault.gate == c0 and fault.kind is FaultKind.STUCK_AT_0)
            for fault in report.kept
        )

    def test_survivors_keep_universe_order(self):
        circuit = load("s386")
        universe = stuck_at_universe(circuit)
        report = prune_untestable(circuit, universe)
        positions = {fault: i for i, fault in enumerate(universe)}
        kept_positions = [positions[fault] for fault in report.kept]
        assert kept_positions == sorted(kept_positions)

    def test_report_arithmetic(self):
        circuit = parse_bench(DANGLING_BENCH, name="dangling")
        universe = stuck_at_universe(circuit)
        report = prune_untestable(circuit, universe)
        assert report.total == len(universe)
        assert report.total == len(report.kept) + len(report.pruned)
        assert 0.0 <= report.reduction <= 1.0
        assert "pruned" in report.summary()

    def test_transition_pruning_only_safe_directions(self):
        # STR on a constant-0 line is prunable; STR on a constant-1 line
        # must be KEPT (the X power-up state can still expose it).
        from repro.faults.model import FaultKind

        circuit = _constant_fanout_circuit()
        report = prune_untestable(circuit, all_transition_faults(circuit))
        constant_pruned = [p for p in report.pruned if p.reason == CONSTANT_LINE]
        assert constant_pruned, "expected slow-to-rise faults on the constant-0 stem"
        c0 = circuit.gate("c0").index
        for pruned in constant_pruned:
            gate = circuit.gates[pruned.fault.gate]
            line = (
                pruned.fault.gate
                if pruned.fault.pin < 0
                else gate.fanin[pruned.fault.pin]
            )
            assert line == c0
            assert pruned.fault.kind is FaultKind.SLOW_TO_RISE
        # The mirror direction (slow-to-fall on the constant-0 line) must
        # be kept: the X power-up state can still expose it.
        kept_on_c0 = [
            fault
            for fault in report.kept
            if (
                fault.gate
                if fault.pin < 0
                else circuit.gates[fault.gate].fanin[fault.pin]
            )
            == c0
        ]
        assert any(f.kind is FaultKind.SLOW_TO_FALL for f in kept_on_c0)


class TestBitIdentity:
    """Pruning must not change any surviving fault's outcome."""

    def _assert_identical(self, circuit, tests, engine="csim-MV"):
        universe = stuck_at_universe(circuit)
        report = prune_untestable(circuit, universe)
        full = run_stuck_at(circuit, tests, engine, faults=universe)
        pruned = run_stuck_at(circuit, tests, engine, faults=report.kept)
        kept = set(report.kept)
        assert pruned.detected == {
            fault: cycle for fault, cycle in full.detected.items() if fault in kept
        }
        assert pruned.potentially_detected == {
            fault: cycle
            for fault, cycle in full.potentially_detected.items()
            if fault in kept
        }
        # Soundness: nothing pruned was ever detected, even potentially.
        for entry in report.pruned:
            assert entry.fault not in full.detected
            assert entry.fault not in full.potentially_detected

    def test_s386_stuck_at(self):
        circuit = load("s386")
        tests = random_sequence(circuit, 48, seed=11)
        self._assert_identical(circuit, tests)

    def test_dangling_circuit_every_engine(self):
        circuit = parse_bench(DANGLING_BENCH, name="dangling")
        tests = random_sequence(circuit, 24, seed=5)
        for engine in ("csim", "csim-V", "csim-M", "csim-MV"):
            self._assert_identical(circuit, tests, engine)

    def test_transition_bit_identity(self):
        circuit = load("s386")
        tests = random_sequence(circuit, 32, seed=13)
        universe = all_transition_faults(circuit)
        report = prune_untestable(circuit, universe)
        full = run_transition(circuit, tests, faults=universe)
        pruned = run_transition(circuit, tests, faults=report.kept)
        kept = set(report.kept)
        assert pruned.detected == {
            fault: cycle for fault, cycle in full.detected.items() if fault in kept
        }
        for entry in report.pruned:
            assert entry.fault not in full.detected
            assert entry.fault not in full.potentially_detected

    def test_composes_with_jobs(self):
        circuit = load("s386")
        tests = random_sequence(circuit, 32, seed=17)
        kept = prune_untestable(circuit, stuck_at_universe(circuit)).kept
        serial = run_stuck_at(circuit, tests, "csim-MV", faults=kept)
        sharded = run_stuck_at(circuit, tests, "csim-MV", faults=kept, jobs=2)
        assert sharded.detected == serial.detected

    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        seed=st.integers(0, 2**20),
        num_gates=st.integers(6, 20),
        num_dffs=st.integers(0, 3),
        vectors=st.integers(2, 10),
    )
    def test_random_circuits(self, seed, num_gates, num_dffs, vectors):
        rng = random.Random(seed)
        circuit = random_circuit(
            rng, num_inputs=3, num_gates=num_gates, num_dffs=num_dffs
        )
        values = [
            tuple(rng.choice(VALUES) for _ in circuit.inputs) for _ in range(vectors)
        ]
        tests = TestSequence(len(circuit.inputs), values)
        self._assert_identical(circuit, tests)


class TestPruneResume:
    def test_pruned_checkpoint_resumes_to_straight_result(self, tmp_path):
        from repro.campaign import Campaign, execute
        from repro.robust import Budget

        circuit = load("s386")
        tests = random_sequence(circuit, 40, seed=23)
        kept = prune_untestable(circuit, stuck_at_universe(circuit)).kept
        straight = run_stuck_at(circuit, tests, "csim-MV", faults=kept)
        path = str(tmp_path / "ck.pkl")
        first = execute(
            Campaign(
                circuit,
                tests,
                faults=kept,
                checkpoint_path=path,
                budget=Budget(max_cycles=15),
            )
        )
        assert first.truncated
        resumed = execute(
            Campaign(circuit, tests, faults=kept, checkpoint_path=path, resume=True)
        )
        assert resumed.detected == straight.detected

    def test_pruned_checkpoint_rejects_full_universe_resume(self, tmp_path):
        # The fingerprint covers the fault list, so a checkpoint written
        # with pruned faults must not silently resume an unpruned run.
        from repro.campaign import Campaign, execute
        from repro.robust import Budget
        from repro.robust.checkpoint import CheckpointError

        circuit = load("s386")
        tests = random_sequence(circuit, 40, seed=23)
        universe = stuck_at_universe(circuit)
        kept = prune_untestable(circuit, universe).kept
        path = str(tmp_path / "ck.pkl")
        execute(
            Campaign(
                circuit,
                tests,
                faults=kept,
                checkpoint_path=path,
                budget=Budget(max_cycles=15),
            )
        )
        with pytest.raises(CheckpointError):
            execute(
                Campaign(circuit, tests, faults=universe, checkpoint_path=path, resume=True)
            )
