"""ISCAS-89 ``.bench`` netlist reader and writer.

The paper evaluates on the ISCAS-89 benchmark suite, which is distributed in
this format::

    # comment
    INPUT(G0)
    OUTPUT(G17)
    G10 = DFF(G14)
    G11 = NAND(G0, G1)

The parser accepts the common format variants seen in circulating copies of
the suite (``BUFF`` vs ``BUF``, blank fanin lists rejected, case-insensitive
gate keywords, whitespace anywhere).  The writer emits canonical text that
round-trips through the parser, which the test suite checks property-style.
"""

from __future__ import annotations

import io
import re
from typing import List, TextIO, Tuple, Union

from repro.circuit.netlist import Circuit, CircuitBuilder, NetlistError
from repro.logic.tables import GateType

_GATE_KEYWORDS = {
    "AND": GateType.AND,
    "NAND": GateType.NAND,
    "OR": GateType.OR,
    "NOR": GateType.NOR,
    "XOR": GateType.XOR,
    "XNOR": GateType.XNOR,
    "NOT": GateType.NOT,
    "INV": GateType.NOT,
    "BUF": GateType.BUF,
    "BUFF": GateType.BUF,
    "DFF": GateType.DFF,
    "CONST0": GateType.CONST0,
    "CONST1": GateType.CONST1,
}

_KEYWORD_FOR_TYPE = {
    GateType.AND: "AND",
    GateType.NAND: "NAND",
    GateType.OR: "OR",
    GateType.NOR: "NOR",
    GateType.XOR: "XOR",
    GateType.XNOR: "XNOR",
    GateType.NOT: "NOT",
    GateType.BUF: "BUFF",
    GateType.DFF: "DFF",
    GateType.CONST0: "CONST0",
    GateType.CONST1: "CONST1",
}

_ASSIGN_RE = re.compile(
    r"^(?P<name>[^\s=]+)\s*=\s*(?P<kind>[A-Za-z01]+)\s*\(\s*(?P<args>[^)]*)\)\s*$"
)
_DECL_RE = re.compile(r"^(?P<kind>INPUT|OUTPUT)\s*\(\s*(?P<name>[^)\s]+)\s*\)\s*$", re.IGNORECASE)


def read_bench(text: str, name: str = "bench") -> Tuple[CircuitBuilder, List[NetlistError]]:
    """Feed every statement of ``.bench`` *text* to a :class:`CircuitBuilder`.

    A statement that breaks a rule is recorded as its :class:`NetlistError`
    (with ``line`` set) and reading goes on; a gate statement that fails
    still names its signal (:meth:`CircuitBuilder.reject`), so its readers
    are not reported too.  Returns the builder and the errors in line order.
    """
    builder = CircuitBuilder(name)
    errors: List[NetlistError] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            _read_statement(builder, line, raw_line, line_number)
        except NetlistError as exc:
            exc.line = line_number
            errors.append(exc)
    return builder, errors


def _read_statement(
    builder: CircuitBuilder, line: str, raw_line: str, line_number: int
) -> None:
    declaration = _DECL_RE.match(line)
    if declaration:
        signal = declaration.group("name")
        if declaration.group("kind").upper() == "INPUT":
            builder.add_input(signal, line=line_number)
        else:
            builder.set_output(signal, line=line_number)
        return

    assignment = _ASSIGN_RE.match(line)
    if assignment is None:
        raise NetlistError(f"cannot parse line: {raw_line.strip()!r}", "parse")
    signal = assignment.group("name")
    keyword = assignment.group("kind").upper()
    args = [token.strip() for token in assignment.group("args").split(",") if token.strip()]
    try:
        gtype = _GATE_KEYWORDS.get(keyword)
        if gtype is None:
            raise NetlistError(f"unknown gate keyword {keyword!r}", "unknown-keyword")
        if gtype is GateType.DFF:
            if len(args) != 1:
                raise NetlistError("DFF must have exactly one fanin", "bad-arity")
            builder.add_dff(signal, args[0], line=line_number)
        else:
            builder.add_gate(signal, gtype, args, line=line_number)
    except NetlistError:
        builder.reject(signal, args, line=line_number)
        raise


def parse_bench(text: str, name: str = "bench") -> Circuit:
    """Parse ``.bench`` source text into a built, levelized :class:`Circuit`.

    Every failure — unparsable line, bad gate declaration, and the
    structural errors found at build time (undefined signal, duplicate
    definition, no outputs, combinational cycle) — surfaces as a
    :class:`NetlistError`, the first one :func:`read_bench` records or
    the build raises.  Line-attributable errors carry ``name:line:``
    context; whole-circuit errors carry ``name:`` context.
    """
    builder, errors = read_bench(text, name)
    if errors:
        first = errors[0]
        raise NetlistError(f"{name}:{first.line}: {first}", first.code, first.line)
    try:
        return builder.build()
    except NetlistError as exc:
        raise NetlistError(f"{name}: {exc}", exc.code, exc.line) from None


def bench_stem(path: str) -> str:
    """The circuit name a ``.bench`` file gets: its file name without ``.bench``."""
    stem = path.rsplit("/", 1)[-1]
    return stem[: -len(".bench")] if stem.endswith(".bench") else stem


def parse_bench_file(path: str) -> Circuit:
    """Parse a ``.bench`` file; the circuit is named after the file stem."""
    with open(path) as handle:
        return parse_bench(handle.read(), name=bench_stem(path))


def write_bench(circuit: Circuit, stream: Union[TextIO, None] = None) -> str:
    """Serialize *circuit* to ``.bench`` text (macro gates are rejected).

    Returns the text; also writes it to *stream* when one is given.
    """
    out = io.StringIO()
    out.write(f"# {circuit.name}\n")
    for index in circuit.inputs:
        out.write(f"INPUT({circuit.gates[index].name})\n")
    for index in circuit.outputs:
        out.write(f"OUTPUT({circuit.gates[index].name})\n")
    out.write("\n")
    for gate in circuit.gates:
        if gate.gtype is GateType.INPUT:
            continue
        if gate.gtype is GateType.MACRO:
            raise NetlistError(
                f"gate {gate.name!r}: macro gates have no .bench form; write the flat circuit"
            )
        keyword = _KEYWORD_FOR_TYPE[gate.gtype]
        args = ", ".join(circuit.gates[src].name for src in gate.fanin)
        out.write(f"{gate.name} = {keyword}({args})\n")
    text = out.getvalue()
    if stream is not None:
        stream.write(text)
    return text
