"""Vector engine (``vsim``) tests: packing, scheduler, cross-validation,
harness integration, checkpointing, and the ladder's fast rung.

The pattern-parallel kernel reuses the serial-oracle cross-validation
discipline of every other engine, plus vector-specific invariants: word
width and axis choice never change detection outcomes, the numpy plane
is bit-identical to the scalar word path (sub-plane eviction included),
and a failing ``vsim`` rung degrades to ``csim-MV`` under the ladder's
serial-oracle audit.
"""

import random

import pytest

from tests.conftest import make_circuit

from repro.baselines.serial import simulate_serial
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
from repro.vector import plane
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
    def test_sub_plane_eviction_is_exact(self, monkeypatch):
        """Force the divergent-row eviction path on every fix-up pass."""
        monkeypatch.setattr(plane, "EVICT_AFTER_PASSES", 1)
        for seed in (2, 4, 6):
            circuit, faults, tests = _instance(seed, num_dffs=4,
                                               num_gates=25)
            reference = run_stuck_at(circuit, tests, "csim-MV", faults)
            result = _run_vsim(circuit, faults, tests, word_width=16,
                               axis_mode="pattern", use_numpy=True)
            _assert_identical(reference, result, f"seed={seed}")

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
