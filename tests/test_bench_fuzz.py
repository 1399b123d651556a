"""Property/fuzz tests for the ``.bench`` parser's error handling.

A corrupted netlist file must never surface a raw ``KeyError`` or
``IndexError`` from parser internals: every failure is a
:class:`NetlistError`, and failures attributable to a single line carry
``name:line:`` context.  The corruption operators below model realistic
damage — character-level noise, deleted/duplicated/spliced lines,
truncation — applied to the real s27 netlist under a seeded RNG, so the
suite is deterministic while covering a broad input space.
"""

import random
import re

import pytest

from repro.analyze import lint_bench_text
from repro.circuit.bench import parse_bench
from repro.circuit.library import S27_BENCH
from repro.circuit.netlist import NetlistError


def _corrupt_chars(rng, lines):
    """Flip random characters on one random line."""
    index = rng.randrange(len(lines))
    line = list(lines[index])
    if not line:
        return lines
    for _ in range(rng.randint(1, 3)):
        position = rng.randrange(len(line))
        line[position] = rng.choice("()=,#GXZ@%$ 01")
    lines[index] = "".join(line)
    return lines


def _delete_line(rng, lines):
    del lines[rng.randrange(len(lines))]
    return lines


def _duplicate_line(rng, lines):
    index = rng.randrange(len(lines))
    lines.insert(index, lines[index])
    return lines


def _splice_lines(rng, lines):
    """Join two adjacent lines into one (a lost newline)."""
    if len(lines) < 2:
        return lines
    index = rng.randrange(len(lines) - 1)
    lines[index] = lines[index] + lines.pop(index + 1)
    return lines


def _truncate(rng, lines):
    if len(lines) < 2:
        return lines
    return lines[: rng.randrange(1, len(lines))]


def _rename_signal(rng, lines):
    """Dangling reference: rename one definition but not its uses."""
    index = rng.randrange(len(lines))
    lines[index] = lines[index].replace("G", "H", 1)
    return lines


_OPERATORS = (
    _corrupt_chars,
    _delete_line,
    _duplicate_line,
    _splice_lines,
    _truncate,
    _rename_signal,
)


def _corrupted_text(seed: int) -> str:
    rng = random.Random(seed)
    lines = [line for line in S27_BENCH.strip().splitlines()]
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        lines = rng.choice(_OPERATORS)(rng, lines)
    return "\n".join(lines)


class TestBenchFuzz:
    @pytest.mark.parametrize("seed", range(200))
    def test_corruption_never_escapes_as_raw_exception(self, seed):
        text = _corrupted_text(seed)
        try:
            circuit = parse_bench(text, name="fuzzed")
        except NetlistError as exc:
            # Every NetlistError carries the file context; line-level
            # errors carry "fuzzed:<line>:".
            assert str(exc).startswith("fuzzed:")
        except (KeyError, IndexError) as exc:  # pragma: no cover
            pytest.fail(f"raw {type(exc).__name__} escaped the parser: {exc!r}")
        else:
            # Some corruptions still parse (comment damage, benign
            # renames); the result must at least be a sane circuit.
            assert len(circuit.gates) > 0
            assert circuit.outputs

    @pytest.mark.parametrize("seed", range(200))
    def test_lint_reports_the_error_the_parser_raises(self, seed):
        # One front end: the parser raises exactly when lint finds an
        # error, and its message is one of lint's, at the same line.
        text = _corrupted_text(seed)
        errors = [d for d in lint_bench_text(text, "fuzzed") if d.severity == "error"]
        try:
            parse_bench(text, name="fuzzed")
        except NetlistError as exc:
            line, message = re.match(r"fuzzed:(?:(\d+):)? (.*)", str(exc), re.S).groups()
            assert any(
                d.message == message and (line is None or d.line == int(line))
                for d in errors
            ), (str(exc), [d.format() for d in errors])
        else:
            assert not errors, [d.format() for d in errors]

    def test_unknown_keyword_has_line_context(self):
        with pytest.raises(NetlistError, match=r"bad:3: unknown gate keyword"):
            parse_bench("INPUT(a)\nOUTPUT(g)\ng = FROB(a)\n", name="bad")

    def test_unparsable_line_has_line_context(self):
        with pytest.raises(NetlistError, match=r"bad:2: cannot parse line"):
            parse_bench("INPUT(a)\n@@@garbage@@@\n", name="bad")

    def test_duplicate_definition_has_line_context(self):
        text = "INPUT(a)\nOUTPUT(g)\ng = NOT(a)\ng = BUF(a)\n"
        with pytest.raises(NetlistError, match=r"bad:4: .*defined twice"):
            parse_bench(text, name="bad")

    def test_dff_arity_has_line_context(self):
        with pytest.raises(NetlistError, match=r"bad:3: DFF must have exactly one"):
            parse_bench("INPUT(a)\nOUTPUT(q)\nq = DFF(a, a)\n", name="bad")

    def test_undefined_signal_has_file_context(self):
        with pytest.raises(NetlistError, match=r"bad: .*undefined signal"):
            parse_bench("INPUT(a)\nOUTPUT(g)\ng = NOT(zz)\n", name="bad")

    def test_no_outputs_has_file_context(self):
        with pytest.raises(NetlistError, match=r"bad: .*no primary outputs"):
            parse_bench("INPUT(a)\ng = NOT(a)\n", name="bad")

    def test_combinational_cycle_is_a_netlist_error(self):
        text = "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = BUF(x)\n"
        with pytest.raises(NetlistError, match=r"bad: combinational cycle"):
            parse_bench(text, name="bad")

    def test_clean_s27_still_parses(self):
        circuit = parse_bench(S27_BENCH, name="s27")
        assert circuit.name == "s27"
        assert len(circuit.dffs) == 3
