"""Netlist lint: severity-tiered structural diagnostics over circuits.

The simulators require well-formed synchronous circuits and reject
anything else at build time — but a hard :class:`NetlistError` reports
only the *first* problem and nothing about constructs that are legal yet
almost certainly wrong (dangling nets, flip-flop self-loops, constant
logic).  The lint pass reports *all* findings at once, each with a
severity tier and a ``file:line`` location threaded from the parser:

``error``
    The circuit cannot be simulated: every rule of the netlist front end
    it breaks (unparsable lines, unknown keywords, bad arity, duplicate
    definitions and ``OUTPUT`` declarations, references to undefined
    signals, undefined or missing primary outputs, combinational cycles
    with one concrete cycle path printed), with the message
    :func:`repro.circuit.bench.parse_bench` raises for it.
``warning``
    Legal but suspicious: gates and inputs that drive nothing,
    flip-flops latching their own output directly, logic cones no
    primary output can observe.
``info``
    Structure worth knowing about: constant nets (declared or derived),
    fanout and depth outliers, SCOAP hard-to-test extremes, and the
    structurally-untestable fault count.

Source text goes through the parser's one reader
(:func:`repro.circuit.bench.read_bench`), which records every broken
rule instead of raising the first.  The graph checks run on the gates
that resolve, so they work on a netlist that cannot build, and are the
same for both entry points (:func:`lint_bench_text` for source text,
:func:`lint_circuit` for built circuits); deeper semantic checks
(observability, constants, SCOAP) run only once the circuit builds.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

from repro.analyze.scoap import INF, scoap
from repro.analyze.untestable import (
    constant_values,
    observable_gates,
    prune_untestable,
)
from repro.circuit.bench import bench_stem, read_bench
from repro.circuit.levelize import LevelizationError, level_gates
from repro.circuit.netlist import Circuit, Gate, NetlistError
from repro.faults.universe import stuck_at_universe
from repro.logic.tables import GateType
from repro.logic.values import X

#: Severity tiers, most severe first.
SEVERITIES = ("error", "warning", "info")

#: Fanout is an outlier above ``max(_FANOUT_FLOOR, _FANOUT_RATIO * mean)``.
_FANOUT_FLOOR = 16
_FANOUT_RATIO = 8.0
#: Depth is an outlier above ``mean + _DEPTH_SIGMA * stdev`` (and the floor).
_DEPTH_FLOOR = 24
_DEPTH_SIGMA = 4.0


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding.

    ``line`` is 1-based; 0 means the finding has no single source line
    (whole-circuit problems, built synthetic circuits).
    """

    severity: str
    code: str
    message: str
    file: str = ""
    line: int = 0

    @property
    def location(self) -> str:
        return f"{self.file}:{self.line}" if self.line else self.file

    def format(self) -> str:
        return f"{self.location}: {self.severity}: {self.message} [{self.code}]"


def severity_rank(severity: str) -> int:
    """0 for error, 1 for warning, 2 for info (smaller = worse)."""
    return SEVERITIES.index(severity)


def worst_severity(diagnostics: Sequence[Diagnostic]) -> Optional[str]:
    """The most severe tier present, or ``None`` for a clean run."""
    if not diagnostics:
        return None
    return min((d.severity for d in diagnostics), key=severity_rank)


def has_findings(diagnostics: Sequence[Diagnostic], fail_on: str = "error") -> bool:
    """Whether any diagnostic is at least as severe as *fail_on*."""
    threshold = severity_rank(fail_on)
    return any(severity_rank(d.severity) <= threshold for d in diagnostics)


def _error(exc: NetlistError, file: str) -> Diagnostic:
    return Diagnostic("error", exc.code, str(exc), file, exc.line)


# ---------------------------------------------------------------------------
# graph checks (run on the gates that resolve — no build needed)
# ---------------------------------------------------------------------------


def _graph_diagnostics(
    file: str, gates: Sequence[Gate], outputs: Sequence[int]
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    observed = set(outputs)

    sink_count = [0] * len(gates)
    for gate in gates:
        for source in gate.fanin:
            sink_count[source] += 1
    for gate in gates:
        if sink_count[gate.index] or gate.index in observed:
            continue
        if gate.gtype is GateType.INPUT:
            diagnostics.append(
                Diagnostic(
                    "warning",
                    "unused-input",
                    f"primary input {gate.name!r} drives nothing",
                    file,
                    gate.line,
                )
            )
        else:
            diagnostics.append(
                Diagnostic(
                    "warning",
                    "dangling-net",
                    f"gate {gate.name!r} drives nothing and is not an output",
                    file,
                    gate.line,
                )
            )

    for gate in gates:
        if gate.gtype is GateType.DFF and gate.fanin == (gate.index,):
            diagnostics.append(
                Diagnostic(
                    "warning",
                    "dff-self-loop",
                    f"flip-flop {gate.name!r} latches its own output",
                    file,
                    gate.line,
                )
            )

    if len(gates) >= 8:
        mean = sum(sink_count) / len(gates)
        threshold = max(_FANOUT_FLOOR, _FANOUT_RATIO * mean)
        for gate in gates:
            fanout = sink_count[gate.index]
            if fanout > threshold:
                diagnostics.append(
                    Diagnostic(
                        "info",
                        "fanout-outlier",
                        f"signal {gate.name!r} fans out to {fanout} sinks "
                        f"(mean {mean:.1f})",
                        file,
                        gate.line,
                    )
                )

    try:
        order, levels = level_gates(file, gates)
    except LevelizationError as exc:
        diagnostics.append(_error(exc, file))
        return diagnostics
    if order:
        depths = [levels[index] for index in order]
        mean = sum(depths) / len(depths)
        spread = statistics.pstdev(depths) if len(depths) > 1 else 0.0
        threshold = max(_DEPTH_FLOOR, mean + _DEPTH_SIGMA * spread)
        for index in order:
            if levels[index] > threshold:
                gate = gates[index]
                diagnostics.append(
                    Diagnostic(
                        "info",
                        "depth-outlier",
                        f"gate {gate.name!r} sits at logic depth {levels[index]} "
                        f"(mean {mean:.1f})",
                        file,
                        gate.line,
                    )
                )
    return diagnostics


# ---------------------------------------------------------------------------
# semantic checks (need a built circuit)
# ---------------------------------------------------------------------------


def _semantic_diagnostics(circuit: Circuit) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    file = circuit.name
    gates = circuit.gates

    observable = observable_gates(circuit)
    dangling = {
        gate.index
        for gate in gates
        if not gate.fanout and not gate.is_output
    }
    for gate in gates:
        if gate.index in observable or gate.index in dangling:
            continue
        diagnostics.append(
            Diagnostic(
                "warning",
                "unobservable-cone",
                f"no primary output can observe gate {gate.name!r}",
                file,
                gate.line,
            )
        )

    constants = constant_values(circuit)
    for gate in gates:
        if gate.gtype in (GateType.CONST0, GateType.CONST1):
            diagnostics.append(
                Diagnostic(
                    "info",
                    "constant-net",
                    f"signal {gate.name!r} is a declared constant",
                    file,
                    gate.line,
                )
            )
        elif constants[gate.index] != X and gate.gtype not in (
            GateType.INPUT,
            GateType.DFF,
        ):
            diagnostics.append(
                Diagnostic(
                    "info",
                    "constant-net",
                    f"signal {gate.name!r} is provably constant "
                    f"{constants[gate.index]}",
                    file,
                    gate.line,
                )
            )

    scores = scoap(circuit)
    finite_co = [
        (scores.co[g.index], g) for g in gates if scores.co[g.index] < INF
    ]
    if finite_co:
        worst_cost, worst_gate = max(finite_co, key=lambda pair: pair[0])
        if worst_cost > 0:
            diagnostics.append(
                Diagnostic(
                    "info",
                    "scoap-extreme",
                    f"hardest-to-observe line is {worst_gate.name!r} "
                    f"(SCOAP CO {worst_cost})",
                    file,
                    worst_gate.line,
                )
            )
    finite_cc = [
        (max(scores.cc0[g.index], scores.cc1[g.index]), g)
        for g in gates
        if scores.cc0[g.index] < INF and scores.cc1[g.index] < INF
    ]
    if finite_cc:
        worst_cost, worst_gate = max(finite_cc, key=lambda pair: pair[0])
        if worst_cost > 1:
            diagnostics.append(
                Diagnostic(
                    "info",
                    "scoap-extreme",
                    f"hardest-to-control line is {worst_gate.name!r} "
                    f"(SCOAP CC {worst_cost})",
                    file,
                    worst_gate.line,
                )
            )

    report = prune_untestable(circuit, stuck_at_universe(circuit))
    if report.pruned:
        diagnostics.append(
            Diagnostic(
                "info",
                "untestable-faults",
                f"{len(report.pruned)} of {report.total} collapsed stuck-at "
                f"faults are structurally untestable",
                file,
            )
        )
    return diagnostics


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _sorted(diagnostics: List[Diagnostic]) -> List[Diagnostic]:
    return sorted(
        diagnostics,
        key=lambda d: (d.line, severity_rank(d.severity), d.code, d.message),
    )


def lint_text(text: str, name: str = "bench") -> Tuple[List[Diagnostic], Optional[Circuit]]:
    """Lint ``.bench`` source text, read once; never raises on malformed input.

    Returns the sorted findings and the built circuit, or ``None`` when
    an error stops it from building.
    """
    builder, errors = read_bench(text, name)
    gates, outputs, problems = builder.resolve()
    diagnostics = [_error(exc, name) for exc in errors + problems]
    diagnostics.extend(_graph_diagnostics(name, gates, outputs))
    circuit = None
    if not any(d.severity == "error" for d in diagnostics):
        circuit = builder.build()
        diagnostics.extend(_semantic_diagnostics(circuit))
    return _sorted(diagnostics), circuit


def lint_bench_text(text: str, name: str = "bench") -> List[Diagnostic]:
    """Lint ``.bench`` source text; never raises on malformed input."""
    return lint_text(text, name)[0]


def lint_path(path: str) -> List[Diagnostic]:
    """Lint a ``.bench`` file on disk; the location is the file stem."""
    with open(path) as handle:
        return lint_bench_text(handle.read(), name=bench_stem(path))


def lint_circuit(circuit: Circuit) -> List[Diagnostic]:
    """Lint an already-built circuit (library and synthetic circuits)."""
    return _sorted(
        _graph_diagnostics(circuit.name, circuit.gates, circuit.outputs)
        + _semantic_diagnostics(circuit)
    )


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def diagnostics_summary(diagnostics: Sequence[Diagnostic]) -> Dict[str, object]:
    """JSON-safe summary of lint diagnostics."""
    records: List[Dict[str, object]] = []
    by_severity: Dict[str, int] = {}
    for diagnostic in diagnostics:
        by_severity[diagnostic.severity] = by_severity.get(diagnostic.severity, 0) + 1
        records.append(
            {
                "severity": diagnostic.severity,
                "code": diagnostic.code,
                "message": diagnostic.message,
                "file": diagnostic.file,
                "line": diagnostic.line,
            }
        )
    return {"diagnostics": records, "counts": by_severity, "total": len(records)}


def write_diagnostics_json(diagnostics: Sequence[Diagnostic], stream: TextIO) -> None:
    """Write :func:`diagnostics_summary` to an open text *stream*."""
    json.dump(diagnostics_summary(diagnostics), stream, indent=2, sort_keys=True)
    stream.write("\n")


def format_diagnostics(diagnostics: Sequence[Diagnostic], name: str = "") -> str:
    """Human-readable lint report: one ``file:line: severity:`` row per
    finding plus a closing tally (or a clean bill of health)."""
    rows: List[str] = []
    by_severity: Dict[str, int] = {}
    for diagnostic in diagnostics:
        by_severity[diagnostic.severity] = by_severity.get(diagnostic.severity, 0) + 1
        rows.append(diagnostic.format())
    if not rows:
        return f"{name}: clean" if name else "clean"
    tally = ", ".join(
        f"{by_severity[severity]} {severity}(s)"
        for severity in SEVERITIES
        if severity in by_severity
    )
    rows.append(tally)
    return "\n".join(rows)
