"""Static analysis over circuits and fault universes.

Four tools, all usable before a single vector is simulated:

* :mod:`repro.analyze.lint` — severity-tiered netlist diagnostics with
  ``file:line`` locations (``repro lint``);
* :mod:`repro.analyze.scoap` + :mod:`repro.analyze.untestable` — SCOAP
  testability scores and sound structural pruning of provably
  undetectable faults (``--prune-untestable``);
* :mod:`repro.analyze.collapse` — equivalence fault collapsing with an
  exact expansion map back to the full universe (``--collapse``);
* :mod:`repro.analyze.codelint` — the AST determinism lint for this
  codebase itself (unseeded randomness, wall clocks in hot paths,
  set-order-dependent merges), run in CI.
"""

from repro.analyze.collapse import CollapsedUniverse, collapse_universe
from repro.analyze.lint import (
    Diagnostic,
    SEVERITIES,
    has_findings,
    lint_bench_text,
    lint_circuit,
    lint_path,
    severity_rank,
    worst_severity,
)
from repro.analyze.scoap import INF, ScoapResult, scoap
from repro.analyze.untestable import (
    PruneReport,
    PrunedFault,
    constant_values,
    observable_gates,
    prune_untestable,
)

__all__ = [
    "CollapsedUniverse",
    "collapse_universe",
    "Diagnostic",
    "SEVERITIES",
    "has_findings",
    "lint_bench_text",
    "lint_circuit",
    "lint_path",
    "severity_rank",
    "worst_severity",
    "INF",
    "ScoapResult",
    "scoap",
    "PruneReport",
    "PrunedFault",
    "constant_values",
    "observable_gates",
    "prune_untestable",
]
