"""Vector engine (``vsim``) tests: packing, scheduler, cross-validation,
harness integration, checkpointing, and the ladder's fast rung.

The pattern-parallel kernel reuses the serial-oracle cross-validation
discipline of every other engine, plus vector-specific invariants: word
width and axis choice never change detection outcomes, the numpy plane
is bit-identical to the scalar word path (window by window and fault by
fault, its fused dual-rail step gate by gate), and a failing ``vsim``
rung degrades to ``csim-MV`` under the ladder's serial-oracle audit.
"""

import itertools
import random

import pytest

from tests.conftest import make_circuit

from repro.baselines.serial import simulate_serial
from repro.circuit.netlist import CircuitBuilder
from repro.faults.model import OUTPUT_PIN
from repro.faults.universe import stuck_at_universe
from repro.harness.runner import (
    ENGINE_NAMES,
    WORD_ENGINES,
    make_stuck_at_simulator,
    run_stuck_at,
)
from repro.logic.tables import GateType, evaluate
from repro.logic.values import ONE, VALUES, X, ZERO
from repro.patterns.random_gen import random_sequence
from repro.result import WorkCounters
from repro.vector import plane
from repro.vector.core import WordMachine, WordPlan
from repro.vector.kernel import ENGINE_NAME, VectorFaultSimulator
from repro.vector.packing import (
    MIN_WORD_WIDTH,
    broadcast_word,
    evaluate_gate_word,
    get_slot,
    pack_values,
    set_slot,
    unpack_values,
    validate_word_width,
)
from repro.vector.scheduler import (
    AXIS_MODES,
    MIN_PATTERN_DEPTH,
    AxisScheduler,
    predict_axes,
)

needs_numpy = pytest.mark.skipif(
    not plane.available(), reason="numpy not installed"
)


def _instance(seed, x_probability=0.0, **overrides):
    circuit = make_circuit(seed, **overrides)
    rng = random.Random(seed * 13 + 1)
    tests = random_sequence(
        circuit, rng.randint(8, 30), seed=seed * 7 + 1,
        x_probability=x_probability,
    )
    return circuit, stuck_at_universe(circuit), tests


def _run_vsim(circuit, faults, tests, **kwargs):
    return VectorFaultSimulator(circuit, faults, **kwargs).run(tests)


def _assert_identical(reference, candidate, label=""):
    assert candidate.detected == reference.detected, label
    assert candidate.potentially_detected == reference.potentially_detected, label


class TestPacking:
    @pytest.mark.parametrize("width", [0, 1, 3, 8, 64, 256])
    def test_round_trip(self, width):
        rng = random.Random(width)
        values = [rng.choice(VALUES) for _ in range(width)]
        ones, xs = pack_values(values)
        assert ones & xs == 0
        assert unpack_values(ones, xs, width) == values

    def test_x_dense_round_trip(self):
        values = [X] * 200
        values[7] = ONE
        values[150] = ZERO
        ones, xs = pack_values(values)
        assert unpack_values(ones, xs, 200) == values
        assert xs.bit_count() == 198

    def test_pack_rejects_garbage(self):
        with pytest.raises(ValueError, match="slot 1"):
            pack_values([ONE, 7])

    def test_slot_accessors(self):
        ones, xs = pack_values([ZERO, ONE, X])
        assert [get_slot(ones, xs, s) for s in range(3)] == [ZERO, ONE, X]
        ones, xs = set_slot(ones, xs, 0, X)
        ones, xs = set_slot(ones, xs, 1, ZERO)
        assert unpack_values(ones, xs, 3) == [X, ZERO, X]

    @pytest.mark.parametrize("value,expected", [
        (ZERO, (0, 0)), (ONE, (0b1111, 0)), (X, (0, 0b1111)),
    ])
    def test_broadcast_word(self, value, expected):
        assert broadcast_word(value, 0b1111) == expected

    @pytest.mark.parametrize(
        "gtype",
        [GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
         GateType.XOR, GateType.XNOR],
    )
    def test_two_input_gates_match_tables(self, gtype):
        pairs = [(a, b) for a in VALUES for b in VALUES]
        mask = (1 << len(pairs)) - 1
        left = pack_values([a for a, _ in pairs])
        right = pack_values([b for _, b in pairs])
        ones, xs = evaluate_gate_word(gtype, [left, right], mask)
        expected = [evaluate(gtype, pair) for pair in pairs]
        assert unpack_values(ones, xs, len(pairs)) == expected

    @pytest.mark.parametrize("gtype", [GateType.BUF, GateType.NOT])
    def test_unary_gates_match_tables(self, gtype):
        word = pack_values(VALUES)
        ones, xs = evaluate_gate_word(gtype, [word], 0b111)
        assert unpack_values(ones, xs, 3) == [evaluate(gtype, (v,)) for v in VALUES]

    def test_macro_rejected(self):
        with pytest.raises(ValueError, match="MACRO"):
            evaluate_gate_word(GateType.MACRO, [], 1)

    @pytest.mark.parametrize("width", [8, 16, 32, 64, 128, 1024])
    def test_validate_accepts_powers_of_two(self, width):
        assert validate_word_width(width) == width

    @pytest.mark.parametrize(
        "width", [0, -8, 1, 4, MIN_WORD_WIDTH - 1, 12, 24, 96, "64", 64.0,
                  True, None],
    )
    def test_validate_rejects_nonsense(self, width):
        with pytest.raises(ValueError):
            validate_word_width(width)


#: ``(gate type, arity)`` of every word-core algebra case.
CORE_CASES = [
    (gtype, arity)
    for gtype in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
                  GateType.XOR, GateType.XNOR)
    for arity in (1, 2, 3, 4, 8)
] + [(GateType.BUF, 1), (GateType.NOT, 1), (GateType.CONST0, 0), (GateType.CONST1, 0)]


class TestWordCore:
    @pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
    @pytest.mark.parametrize(
        "gtype,arity", CORE_CASES, ids=[f"{g.name}{k}" for g, k in CORE_CASES]
    )
    def test_gate_matches_evaluate_gate_word(self, gtype, arity, forced):
        """One slot per input combination (all 3^k, X included): the core's
        settled output equals evaluate_gate_word over the same operands,
        with input and output forcing applied to some slots."""
        builder = CircuitBuilder("one_gate")
        names = [f"i{pin}" for pin in range(arity)]
        for name in names:
            builder.add_input(name)
        builder.add_gate("g", gtype, names)
        builder.set_output("g")
        circuit = builder.build()
        gate = circuit.index_of("g")
        combos = list(itertools.product(VALUES, repeat=arity)) if arity else [()] * 8
        width = len(combos)
        mask = (1 << width) - 1
        columns = [[combo[pin] for combo in combos] for pin in range(arity)]
        ones = [0] * len(circuit.gates)
        xs = [0] * len(circuit.gates)
        for pin, name in enumerate(names):
            ones[circuit.index_of(name)], xs[circuit.index_of(name)] = pack_values(
                columns[pin]
            )
        counters = WorkCounters()
        machine = WordMachine(WordPlan(circuit), ones, xs, mask, counters, None)
        out_forced = {}
        if forced:
            for pin in range(arity):
                for value, offset in ((ONE, 1), (ZERO, 4)):
                    slots = [s for s in range(width) if s % 6 == (pin + offset) % 6]
                    machine.force(gate, pin, sum(1 << s for s in slots), value)
                    for slot in slots:
                        columns[pin][slot] = value
            for value, offset in ((ONE, 2), (ZERO, 0)):
                slots = [s for s in range(width) if s % 5 == offset]
                machine.force(gate, OUTPUT_PIN, sum(1 << s for s in slots), value)
                out_forced.update((slot, value) for slot in slots)
        machine.touch(gate)
        machine.settle()
        assert counters.fault_evaluations == 1
        operands = [pack_values(column) for column in columns]
        expected = unpack_values(*evaluate_gate_word(gtype, operands, mask), width)
        for slot, value in out_forced.items():
            expected[slot] = value
        assert unpack_values(machine.ones[gate], machine.xs[gate], width) == expected

    @pytest.mark.parametrize("length", [3, 5])
    @pytest.mark.parametrize("engine,axis", [
        ("PROOFS", "auto"), ("vsim", "fault"), ("vsim", "pattern"),
    ])
    def test_wrong_vector_length_rejected(self, s27, engine, axis, length):
        """A vector that does not match the inputs fails loudly, never
        truncated or padded into the good machine."""
        simulator = make_stuck_at_simulator(s27, engine, axis_mode=axis)
        vectors = [(ZERO,) * len(s27.inputs)] * 3 + [(ONE,) * length]
        with pytest.raises(ValueError, match="vector has"):
            simulator.run(vectors)


class TestScheduler:
    def test_fixed_modes_never_deviate(self):
        for mode in ("fault", "pattern"):
            scheduler = AxisScheduler(64, mode=mode)
            for live in (0, 1, 1000):
                assert scheduler.choose(1, live, 500).axis == mode

    def test_scalar_crossover(self):
        scheduler = AxisScheduler(64)
        assert scheduler.choose(1, 31, 500).axis == "pattern"
        assert scheduler.choose(1, 32, 500).axis == "fault"

    def test_dense_crossover_flips(self):
        scheduler = AxisScheduler(64, dense=True)
        assert scheduler.choose(1, 32, 500).axis == "pattern"
        assert scheduler.choose(1, 31, 500).axis == "fault"

    def test_shallow_tail_stays_fault_axis(self):
        scheduler = AxisScheduler(64, dense=True)
        assert scheduler.choose(1, 1000, MIN_PATTERN_DEPTH - 1).axis == "fault"

    def test_no_live_faults_is_fault_axis(self):
        assert AxisScheduler(64).choose(1, 0, 500).axis == "fault"

    def test_explicit_crossover_override(self):
        scheduler = AxisScheduler(64, crossover=5)
        assert scheduler.choose(1, 4, 500).axis == "pattern"
        assert scheduler.choose(1, 5, 500).axis == "fault"

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="axis mode"):
            AxisScheduler(64, mode="diagonal")
        with pytest.raises(ValueError, match="word width"):
            AxisScheduler(0)

    def test_predict_axes_shard_mix(self):
        mix = predict_axes([500, 10, 3], depth=200, word_width=64)
        assert mix == ["fault", "pattern", "pattern"]
        dense_mix = predict_axes([500, 10, 3], depth=200, word_width=64,
                                 dense=True)
        assert dense_mix == ["pattern", "fault", "fault"]


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_serial_and_concurrent(self, seed):
        circuit, faults, tests = _instance(seed)
        oracle = simulate_serial(circuit, tests.vectors, faults)
        reference = run_stuck_at(circuit, tests, "csim-MV", faults)
        result = _run_vsim(circuit, faults, tests, word_width=8,
                           use_numpy=False)
        assert result.detected == oracle.detected
        _assert_identical(reference, result)

    @pytest.mark.parametrize("width", [1, 2, 8, 32, 64, 256])
    def test_word_width_irrelevant(self, width):
        circuit, faults, tests = _instance(5)
        reference = run_stuck_at(circuit, tests, "csim-MV", faults)
        result = _run_vsim(circuit, faults, tests, word_width=width,
                           use_numpy=False)
        _assert_identical(reference, result, f"width={width}")

    @pytest.mark.parametrize("axis", AXIS_MODES)
    def test_axis_mode_irrelevant(self, axis):
        circuit, faults, tests = _instance(3)
        reference = run_stuck_at(circuit, tests, "csim-MV", faults)
        result = _run_vsim(circuit, faults, tests, word_width=8,
                           axis_mode=axis, use_numpy=False)
        _assert_identical(reference, result, f"axis={axis}")

    def test_x_dense_patterns(self):
        circuit, faults, tests = _instance(9, x_probability=0.4)
        reference = run_stuck_at(circuit, tests, "csim-MV", faults)
        for use_numpy in (False, True) if plane.available() else (False,):
            result = _run_vsim(circuit, faults, tests, word_width=16,
                               axis_mode="pattern", use_numpy=use_numpy)
            _assert_identical(reference, result, f"numpy={use_numpy}")

    def test_s27_full_agreement(self, s27, s27_tests):
        faults = stuck_at_universe(s27)
        reference = run_stuck_at(s27, s27_tests, "csim-MV", faults)
        result = _run_vsim(s27, faults, s27_tests, word_width=16)
        _assert_identical(reference, result)
        assert result.engine == ENGINE_NAME

    @needs_numpy
    @pytest.mark.parametrize("seed", range(6))
    def test_plane_matches_scalar(self, seed):
        circuit, faults, tests = _instance(seed, num_dffs=3)
        scalar = _run_vsim(circuit, faults, tests, word_width=16,
                           axis_mode="pattern", use_numpy=False)
        dense = _run_vsim(circuit, faults, tests, word_width=16,
                          axis_mode="pattern", use_numpy=True)
        _assert_identical(scalar, dense)
        assert dense.counters.fault_evaluations > 0

    @needs_numpy
    @pytest.mark.parametrize("width", [1, 8, 64])
    def test_plane_widths(self, width):
        circuit, faults, tests = _instance(5)
        reference = run_stuck_at(circuit, tests, "csim-MV", faults)
        result = _run_vsim(circuit, faults, tests, word_width=width,
                           axis_mode="pattern", use_numpy=True)
        _assert_identical(reference, result, f"width={width}")

    @needs_numpy
    def test_plane_width_beyond_uint64_rejected(self):
        circuit, faults, tests = _instance(1)
        with pytest.raises(ValueError, match="uint64"):
            VectorFaultSimulator(circuit, faults, word_width=128,
                                 use_numpy=True)

    def test_numpy_default_resolves_to_availability(self):
        circuit, faults, _ = _instance(1)
        auto = VectorFaultSimulator(circuit, faults, word_width=64)
        assert auto.use_numpy == plane.available()
        wide = VectorFaultSimulator(circuit, faults, word_width=128)
        assert wide.use_numpy is False

    @needs_numpy
    def test_feedback_heavy_circuit_on_plane(self):
        from repro.circuit.library import load

        circuit = load("s526")
        faults = stuck_at_universe(circuit)
        tests = random_sequence(circuit, 128, seed=11)
        reference = run_stuck_at(circuit, tests, "csim-MV", faults)
        result = _run_vsim(circuit, faults, tests, word_width=64,
                           axis_mode="pattern", use_numpy=True)
        _assert_identical(reference, result)


def _one_level_circuit():
    """Every fused-step gate shape in one level over eight inputs.

    AND, NAND, OR, NOR, XOR and XNOR at arity 1-4 and 8, plus BUF and NOT,
    each reading a different rotation of the inputs.
    """
    builder = CircuitBuilder("one-level")
    for pin in range(8):
        builder.add_input(f"i{pin}")
    shapes = [
        (gtype, arity)
        for gtype in (GateType.AND, GateType.NAND, GateType.OR,
                      GateType.NOR, GateType.XOR, GateType.XNOR)
        for arity in (1, 2, 3, 4, 8)
    ] + [(GateType.BUF, 1), (GateType.NOT, 1)]
    for number, (gtype, arity) in enumerate(shapes):
        name = f"g{number}_{gtype.name}{arity}"
        builder.add_gate(
            name, gtype, [f"i{(number + pin) % 8}" for pin in range(arity)]
        )
        builder.set_output(name)
    return builder.build()


def _constant_circuit():
    """Constant gates feeding logic, a flip-flop and an output."""
    builder = CircuitBuilder("constants")
    builder.add_input("a")
    builder.add_input("b")
    builder.add_gate("one", GateType.CONST1, [])
    builder.add_gate("zero", GateType.CONST0, [])
    builder.add_dff("q", "d")
    builder.add_gate("n1", GateType.AND, ["a", "one", "q"])
    builder.add_gate("n2", GateType.OR, ["b", "zero"])
    builder.add_gate("d", GateType.XOR, ["n1", "n2", "one"])
    builder.add_gate("z", GateType.NOR, ["d", "zero"])
    builder.set_output("z")
    builder.set_output("q")
    builder.set_output("one")
    return builder.build()


@needs_numpy
class TestPlane:
    def test_fused_step_matches_evaluate_gate_word(self):
        """One sweep over words holding all 3^k input combinations."""
        import numpy

        circuit = _one_level_circuit()
        plan = plane._build_plan(circuit)
        assert len({gate.level for gate in circuit.combinational}) == 1
        assert [step.xor for step in plan.steps] == [False, True]
        combos = 3 ** len(circuit.inputs)
        columns = -(-combos // 64)
        words = {index: [] for index in circuit.inputs}
        masks = []
        for column in range(columns):
            slots = range(column * 64, min(combos, column * 64 + 64))
            masks.append((1 << len(slots)) - 1)
            for digit, index in enumerate(circuit.inputs):
                words[index].append(
                    pack_values([combo // 3 ** digit % 3 for combo in slots])
                )
        rows = numpy.zeros((plan.rows, columns), dtype=numpy.uint64)
        for index, column_words in words.items():
            for column, (ones, xs) in enumerate(column_words):
                rows[plan.one_row[index], column] = ones
                rows[plan.zero_row[index], column] = masks[column] & ~ones & ~xs
        scratch = numpy.zeros(plan.scratch * columns, dtype=numpy.uint64)
        plane._sweep(plan, rows, scratch, {})
        for gate in circuit.combinational:
            for column, mask in enumerate(masks):
                operands = [words[source][column] for source in gate.fanin]
                ones = int(rows[plan.one_row[gate.index], column])
                zeros = int(rows[plan.zero_row[gate.index], column])
                assert ones & zeros == 0, gate.name
                assert (ones, mask & ~ones & ~zeros) == evaluate_gate_word(
                    gate.gtype, operands, mask
                ), (gate.name, column)

    @pytest.mark.parametrize("record", [False, True], ids=["detect", "record"])
    @pytest.mark.parametrize("name,vectors,stride", [
        ("s526", 128, 1),   # two windows: the second starts from carried diffs
        ("s1196", 64, 8),   # every 8th fault keeps the scalar reference quick
        ("constants", 128, 1),
    ])
    def test_window_matches_scalar_path(self, monkeypatch, name, vectors,
                                        stride, record):
        """Every active fault's window outcome equals the scalar path's."""
        from repro.circuit.library import load

        circuit = _constant_circuit() if name == "constants" else load(name)
        faults = stuck_at_universe(circuit)[::stride]
        tests = random_sequence(circuit, vectors, seed=3)
        solve = plane.simulate_window
        windows = []

        def checked(sim, active, snaps, mask, good_word):
            outcomes = solve(sim, active, snaps, mask, good_word)
            assert len(outcomes) == len(active)
            for fault, outcome in zip(active, outcomes):
                assert outcome == sim._propagate_fault_window(
                    fault, len(snaps), mask, snaps, good_word
                ), fault
            windows.append(len(snaps))
            return outcomes

        monkeypatch.setattr(plane, "simulate_window", checked)
        VectorFaultSimulator(
            circuit, faults, word_width=64, axis_mode="pattern",
            use_numpy=True, record_responses=record,
        ).run(tests)
        assert windows == [64] * (vectors // 64)


class TestHarnessIntegration:
    def test_engine_registered(self):
        assert ENGINE_NAME in ENGINE_NAMES
        assert ENGINE_NAME in WORD_ENGINES

    def test_make_simulator_passes_width(self, s27):
        simulator = make_stuck_at_simulator(s27, "vsim", word_width=16)
        assert isinstance(simulator, VectorFaultSimulator)
        assert simulator.word_width == 16

    def test_run_records_axis_windows(self, s27, s27_tests):
        faults = stuck_at_universe(s27)
        result = run_stuck_at(s27, s27_tests, "vsim", faults, word_width=16)
        assert result.axis_windows
        assert sum(result.axis_windows.values()) > 0
        assert set(result.axis_windows) <= {"fault", "pattern"}

    def test_fixed_axes_report_their_axis(self, s27, s27_tests):
        faults = stuck_at_universe(s27)
        for axis in ("fault", "pattern"):
            result = run_stuck_at(
                s27, s27_tests, "vsim", faults, word_width=16, axis_mode=axis
            )
            assert set(result.axis_windows) == {axis}

    def test_fixed_axis_refused_when_sharded(self, s27, s27_tests):
        # The sharded path has no axis relay; a fixed axis must not be
        # dropped silently on its way to the shard workers.
        with pytest.raises(ValueError, match="axis_mode"):
            run_stuck_at(
                s27, s27_tests, "vsim", word_width=16, jobs=2, axis_mode="pattern"
            )

    def test_parallel_shards_bit_identical(self, s27, s27_tests):
        faults = stuck_at_universe(s27)
        single = run_stuck_at(s27, s27_tests, "vsim", faults, word_width=16)
        sharded = run_stuck_at(
            s27, s27_tests, "vsim", faults, word_width=16, jobs=2
        )
        _assert_identical(single, sharded)
        assert sharded.axis_windows
        assert sum(sharded.axis_windows.values()) >= sum(
            single.axis_windows.values()
        )

    def test_checkpoint_resume_bit_identical(self, tmp_path, s27, s27_tests):
        from repro.campaign import Campaign, execute
        from repro.robust import Budget

        path = str(tmp_path / "vector.ckpt")
        reference = execute(Campaign(s27, s27_tests, "vsim", word_width=16))
        partial = execute(
            Campaign(
                s27, s27_tests, "vsim", word_width=16, checkpoint_path=path,
                budget=Budget(max_cycles=len(s27_tests.vectors) // 3),
            )
        )
        assert partial.truncated
        resumed = execute(
            Campaign(
                s27, s27_tests, "vsim", word_width=16, checkpoint_path=path,
                resume=True,
            )
        )
        _assert_identical(reference, resumed)
        assert resumed.counters.cycles == len(s27_tests.vectors)


class TestLadderFastRung:
    def test_clean_vsim_rung_no_fallbacks(self, s27, s27_tests):
        from repro.robust import VECTOR_LADDER, run_with_ladder

        reference = run_stuck_at(s27, s27_tests, "csim-MV")
        result = run_with_ladder(s27, s27_tests, ladder=VECTOR_LADDER)
        assert result.fallbacks == []
        assert result.engine == ENGINE_NAME
        assert result.detected == reference.detected

    def test_crashing_vsim_degrades_to_csim_mv(self, s27, s27_tests):
        from repro.robust import VECTOR_LADDER, run_with_ladder

        class Exploding:
            faults = []

            def run(self, tests, budget=None):
                raise RuntimeError("vector kernel exploded")

        def factory(engine, circuit, faults, tracer):
            return Exploding() if engine == "vsim" else None

        reference = run_stuck_at(s27, s27_tests, "csim-MV")
        result = run_with_ladder(
            s27, s27_tests, ladder=VECTOR_LADDER, simulator_factory=factory
        )
        assert result.detected == reference.detected
        assert [f["engine"] for f in result.fallbacks] == ["vsim"]
        assert [f["to"] for f in result.fallbacks] == ["csim-MV"]
        assert "vector kernel exploded" in result.fallbacks[0]["reason"]
        assert "[degraded: vsim -> csim-MV]" in result.summary()

    def test_lying_vsim_caught_by_oracle_audit(self, s27, s27_tests):
        """A rung that *completes* with wrong detections must not survive
        the serial spot-check: bit-identity is restored one rung down."""
        from repro.robust import VECTOR_LADDER, run_with_ladder

        class Lying(VectorFaultSimulator):
            def run(self, tests, budget=None):
                result = super().run(tests, budget=budget)
                fault = next(iter(result.detected))
                result.detected[fault] += 1  # off-by-one detection cycle
                return result

        def factory(engine, circuit, faults, tracer):
            if engine == "vsim":
                return Lying(circuit, faults, word_width=16, tracer=tracer)
            return None

        reference = run_stuck_at(s27, s27_tests, "csim-MV")
        result = run_with_ladder(
            s27, s27_tests, ladder=VECTOR_LADDER, simulator_factory=factory,
            spot_check_sample=10**6,
        )
        assert result.detected == reference.detected
        assert [f["to"] for f in result.fallbacks] == ["csim-MV"]
        assert "oracle disagreement" in result.fallbacks[0]["reason"]


class TestWordWidthOption:
    def test_cli_rejects_bad_width(self, capsys):
        from repro.cli import main

        assert main(["simulate", "s27", "--engine", "vsim",
                     "--random-patterns", "10", "--word-width", "48"]) == 2
        assert "power of two" in capsys.readouterr().err

    def test_cli_rejects_width_on_non_word_engine(self, capsys):
        from repro.cli import main

        assert main(["simulate", "s27", "--engine", "csim-MV",
                     "--random-patterns", "10", "--word-width", "64"]) == 2
        assert "word-packed engines" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", WORD_ENGINES)
    def test_cli_accepts_width_on_word_engines(self, engine, capsys):
        from repro.cli import main

        assert main(["simulate", "s27", "--engine", engine,
                     "--random-patterns", "20", "--word-width", "16"]) == 0
        assert engine in capsys.readouterr().out

    def test_spec_validates_width(self):
        from repro.serve.spec import JobSpec

        payload = {
            "circuit": "s27",
            "random_patterns": 8,
            "seed": 1,
            "engine": "vsim",
            "word_width": 48,
        }
        with pytest.raises(ValueError, match="power of two"):
            JobSpec.from_payload(payload)
        payload["word_width"] = 64
        assert JobSpec.from_payload(payload).word_width == 64
