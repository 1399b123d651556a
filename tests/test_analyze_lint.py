"""Netlist lint: seeded defects are found with locations, benchmarks are clean."""

import pytest

from repro.analyze import (
    Diagnostic,
    has_findings,
    lint_bench_text,
    lint_circuit,
    lint_path,
    worst_severity,
)
from repro.circuit.library import S27_BENCH, available_circuits, load

#: One netlist seeding most defect classes at known lines.
SEEDED_BAD = """\
INPUT(a)
INPUT(unused)
OUTPUT(z)
OUTPUT(z)
OUTPUT(ghost)
g1 = AND(g2, a)
g2 = NOT(g1)
orphan = OR(a, a)
z = NAND(a, missing)
z = NAND(a, a)
q = DFF(q)
"""

#: Benchmarks whose full-scale SCOAP pass is too slow for a unit test.
_REDUCED_SCALE = {"s1423": 0.5, "s5378": 0.15, "s35932": 0.02}


def _codes(diagnostics):
    return {d.code for d in diagnostics}


def _by_code(diagnostics, code):
    found = [d for d in diagnostics if d.code == code]
    assert found, f"no {code!r} diagnostic in {[d.format() for d in diagnostics]}"
    return found


class TestDiagnostic:
    def test_format_carries_location_severity_code(self):
        diagnostic = Diagnostic("error", "undriven-net", "boom", "ckt", 7)
        assert diagnostic.format() == "ckt:7: error: boom [undriven-net]"
        assert diagnostic.location == "ckt:7"

    def test_lineless_location_is_just_the_file(self):
        diagnostic = Diagnostic("info", "scoap-extreme", "msg", "ckt", 0)
        assert diagnostic.location == "ckt"

    def test_worst_severity_and_thresholds(self):
        diagnostics = [
            Diagnostic("info", "a", "m"),
            Diagnostic("warning", "b", "m"),
        ]
        assert worst_severity(diagnostics) == "warning"
        assert worst_severity([]) is None
        assert not has_findings(diagnostics, fail_on="error")
        assert has_findings(diagnostics, fail_on="warning")
        assert has_findings(diagnostics, fail_on="info")


class TestSeededDefects:
    @pytest.fixture(scope="class")
    def diagnostics(self):
        return lint_bench_text(SEEDED_BAD, "bad")

    def test_undriven_net_error_with_line(self, diagnostics):
        (finding,) = _by_code(diagnostics, "undriven-net")
        assert finding.severity == "error"
        assert "'missing'" in finding.message
        assert (finding.file, finding.line) == ("bad", 9)

    def test_combinational_cycle_names_a_path(self, diagnostics):
        (finding,) = _by_code(diagnostics, "combinational-cycle")
        assert finding.severity == "error"
        assert "cycle:" in finding.message
        assert "g1" in finding.message and "g2" in finding.message

    def test_duplicate_definition_error_points_at_both_lines(self, diagnostics):
        (finding,) = _by_code(diagnostics, "duplicate-definition")
        assert finding.severity == "error"
        assert "'z'" in finding.message
        assert finding.line == 10
        assert "line 9" in finding.message

    def test_duplicate_output_error(self, diagnostics):
        (finding,) = _by_code(diagnostics, "duplicate-output")
        assert finding.severity == "error"
        assert finding.line == 4

    def test_undefined_output_error(self, diagnostics):
        (finding,) = _by_code(diagnostics, "undefined-output")
        assert "'ghost'" in finding.message
        assert finding.line == 5

    def test_unused_input_and_dangling_net_warnings(self, diagnostics):
        (unused,) = _by_code(diagnostics, "unused-input")
        assert "'unused'" in unused.message and unused.line == 2
        (dangling,) = _by_code(diagnostics, "dangling-net")
        assert "'orphan'" in dangling.message and dangling.line == 8

    def test_dff_self_loop_warning(self, diagnostics):
        (finding,) = _by_code(diagnostics, "dff-self-loop")
        assert "'q'" in finding.message and finding.line == 11

    def test_all_findings_reported_at_once(self, diagnostics):
        assert _codes(diagnostics) >= {
            "undriven-net",
            "combinational-cycle",
            "duplicate-definition",
            "duplicate-output",
            "undefined-output",
            "unused-input",
            "dangling-net",
            "dff-self-loop",
        }

    def test_sorted_by_line(self, diagnostics):
        lines = [d.line for d in diagnostics if d.line]
        assert lines == sorted(lines)


class TestLenientParse:
    def test_unparsable_line_is_a_diagnostic_not_an_exception(self):
        diagnostics = lint_bench_text("INPUT(a)\nwhat is this\nOUTPUT(a)\n", "junk")
        assert worst_severity(diagnostics) == "error"
        assert any(d.line == 2 for d in diagnostics)

    def test_no_outputs_reported(self):
        diagnostics = lint_bench_text("INPUT(a)\ng = NOT(a)\n", "noout")
        assert "no-outputs" in _codes(diagnostics)

    def test_bad_arity_dff(self):
        diagnostics = lint_bench_text(
            "INPUT(a)\nINPUT(b)\nOUTPUT(q)\nq = DFF(a, b)\n", "arity"
        )
        assert "bad-arity" in _codes(diagnostics)


class TestNoCascade:
    """A broken statement is reported once: it still names its signal."""

    def test_unknown_keyword_read_as_output(self):
        diagnostics = lint_bench_text("INPUT(a)\nOUTPUT(g)\ng = FROB(a)\n", "bad")
        assert [(d.code, d.line) for d in diagnostics] == [("unknown-keyword", 3)]

    def test_bad_arity_gate_read_by_another(self):
        text = "INPUT(a)\nINPUT(b)\nOUTPUT(z)\ng = NOT(a, b)\nz = AND(g, a)\n"
        diagnostics = lint_bench_text(text, "bad")
        assert [(d.code, d.line) for d in diagnostics] == [("bad-arity", 4)]

    def test_duplicate_output_is_one_finding(self):
        text = "INPUT(a)\nOUTPUT(z)\nOUTPUT(z)\nz = NOT(a)\n"
        (finding,) = lint_bench_text(text, "bad")
        assert (finding.severity, finding.code, finding.line) == (
            "error",
            "duplicate-output",
            3,
        )


class TestCleanBenchmarks:
    def test_embedded_s27_clean_at_error_tier(self):
        diagnostics = lint_bench_text(S27_BENCH, "s27")
        assert not has_findings(diagnostics, fail_on="error")

    @pytest.mark.parametrize("name", available_circuits())
    def test_shipped_benchmark_has_no_errors(self, name):
        circuit = load(name, scale=_REDUCED_SCALE.get(name, 1.0))
        diagnostics = lint_circuit(circuit)
        errors = [d for d in diagnostics if d.severity == "error"]
        assert not errors, [d.format() for d in errors]


class TestEntryPoints:
    def test_lint_path_uses_file_stem_as_location(self, tmp_path):
        path = tmp_path / "mini.bench"
        path.write_text("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\nw = NOT(z)\n")
        diagnostics = lint_path(str(path))
        (finding,) = _by_code(diagnostics, "dangling-net")
        assert finding.file == "mini"
        assert finding.line == 4

    def test_lint_circuit_matches_bench_text_graph_findings(self):
        from repro.circuit.bench import parse_bench

        circuit = parse_bench(S27_BENCH, name="s27")
        from_circuit = _codes(lint_circuit(circuit))
        from_text = _codes(lint_bench_text(S27_BENCH, "s27"))
        assert from_circuit == from_text

    def test_semantic_checks_skipped_when_graph_is_broken(self):
        # A netlist that cannot build must still produce its graph
        # diagnostics without the semantic pass exploding.
        diagnostics = lint_bench_text("OUTPUT(z)\nz = AND(z, z)\n", "loop")
        assert worst_severity(diagnostics) == "error"
        assert "scoap-extreme" not in _codes(diagnostics)
