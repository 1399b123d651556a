"""One driver per table of the paper's evaluation section.

Each ``tableN`` function regenerates the corresponding table of the paper
on the (synthetic stand-in) benchmark suite: same rows, same comparisons,
same quantities — CPU seconds, memory megabytes (from the fault-element
model), pattern counts, coverages.  Each returns ``(rows, text)`` where
*rows* is structured data (used by EXPERIMENTS.md and the tests) and *text*
a printable table.

``scale`` proportionally shrinks the synthetic circuits so a full run fits
in CI time on a pure-Python engine; shapes (who wins, where macro
extraction pays off) are stable across scales.  The benchmark scripts and
``examples/reproduce_paper_tables.py`` drive these functions.

Cells parallelise at the campaign level: every cell — one circuit × one
table computation — is an independent, deterministic unit, so
:func:`all_tables` with ``jobs > 1`` collects the cells the tables ask
for, prefills the cell cache from a process pool, then assembles the
report serially.  Because each cell's
value is computed by the same (unsharded) function either way, the
rendered report — in particular the ``deterministic`` mode the resume CI
check diffs — is byte-identical to a single-process run.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from typing import Dict, List, Sequence, Tuple

from repro.campaign import Campaign, select_universe
from repro.circuit.library import TABLE5_CIRCUIT
from repro.circuit.stats import circuit_stats
from repro.harness.reporting import format_table
from repro.harness.runner import (
    compare_engines,
    run_stuck_at,
    run_transition,
    workload_circuit,
    workload_tests,
)
from repro.obs import RecordingTracer


def _tracer_factory(telemetry: bool):
    """Per-engine tracer supplier for :func:`compare_engines` (or ``None``)."""
    if not telemetry:
        return None
    return lambda engine: RecordingTracer()


def _cell(campaign, key, compute):
    """Compute one table cell, durably when a campaign checkpoint is active.

    With a :class:`repro.robust.TableCampaign`, a finished cell is written
    to the checkpoint immediately and a resumed campaign returns it from
    disk without recomputing; without one this is just ``compute()``.
    """
    if campaign is None:
        return compute()
    return campaign.cell(key, compute)


def _scrub_timings(row: Row) -> Row:
    """Zero the wall-clock fields of a row (``deterministic`` table mode).

    CPU seconds are the one nondeterministic quantity in a table row; with
    them zeroed, an interrupted-and-resumed campaign renders byte-identical
    to an uninterrupted one — which is what the CI resume check diffs.
    """
    for key in row:
        if key == "cpu" or key.endswith("_cpu"):
            row[key] = 0.0
    return row


def _attach_telemetry(row: Row, result) -> None:
    if result.telemetry is not None:
        row[f"{result.engine}_telemetry"] = result.telemetry.summary_dict()

#: Default circuit subsets per table, small enough for a pure-Python run.
DEFAULT_TABLE3 = ("s298", "s344", "s382", "s444", "s526", "s820", "s1238", "s1494")
DEFAULT_TABLE4 = ("s298", "s344", "s382", "s444", "s526")
DEFAULT_TABLE6 = ("s298", "s344", "s382", "s444", "s526")

#: Seed shared by every table unless a caller overrides it.
DEFAULT_SEED = 1992

Row = Dict[str, object]


# ----------------------------------------------------------------------
# cell computations — module-level so worker processes can pickle them
# ----------------------------------------------------------------------

_TABLE3_ENGINES = ("csim", "csim-V", "csim-M", "csim-MV", "PROOFS")


def _table2_cell(name: str, scale: float, seed: int) -> Row:
    circuit = workload_circuit(name, scale)
    stats = circuit_stats(circuit)
    tests = workload_tests(name, scale, "deterministic", seed=seed)
    return {
        "circuit": name,
        "pis": stats.num_inputs,
        "pos": stats.num_outputs,
        "dffs": stats.num_dffs,
        "gates": stats.num_gates,
        "levels": stats.num_levels,
        "faults": len(select_universe(Campaign(circuit, tests)).faults),
        "patterns": len(tests),
    }


def _table3_cell(
    name: str,
    scale: float,
    seed: int,
    telemetry: bool,
    deterministic: bool,
) -> Row:
    circuit = workload_circuit(name, scale)
    tests = workload_tests(name, scale, "deterministic", seed=seed)
    results = compare_engines(
        circuit, tests, _TABLE3_ENGINES, tracer_factory=_tracer_factory(telemetry)
    )
    row: Row = {
        "circuit": name,
        "patterns": len(tests),
        "coverage": 100.0 * results[0].coverage,
    }
    for result in results:
        row[f"{result.engine}_cpu"] = result.wall_seconds
        row[f"{result.engine}_mem"] = result.memory.peak_megabytes
        row[f"{result.engine}_work"] = result.counters.total_work()
        _attach_telemetry(row, result)
    return _scrub_timings(row) if deterministic else row


def _csim_vs_proofs(
    name: str,
    scale: float,
    kind: str,
    length: int,
    seed: int,
    telemetry: bool,
    deterministic: bool,
) -> Row:
    """The csim-MV against PROOFS row of tables 4 and 5."""
    circuit = workload_circuit(name, scale)
    tests = workload_tests(name, scale, kind, length=length, seed=seed)
    results = compare_engines(
        circuit, tests, ("csim-MV", "PROOFS"), tracer_factory=_tracer_factory(telemetry)
    )
    row: Row = {
        "circuit": name,
        "patterns": len(tests),
        "coverage": 100.0 * results[0].coverage,
    }
    for result in results:
        row[f"{result.engine}_cpu"] = result.wall_seconds
        row[f"{result.engine}_mem"] = result.memory.peak_megabytes
    for result in results:
        _attach_telemetry(row, result)
    return _scrub_timings(row) if deterministic else row


def _table6_cell(
    name: str,
    scale: float,
    seed: int,
    telemetry: bool,
    deterministic: bool,
) -> Row:
    circuit = workload_circuit(name, scale)
    tests = workload_tests(name, scale, "deterministic", seed=seed)
    result = run_transition(
        circuit, tests, tracer=RecordingTracer() if telemetry else None
    )
    stuck = run_stuck_at(circuit, tests, "csim-MV")
    row: Row = {
        "circuit": name,
        "faults": result.num_faults,
        "patterns": len(tests),
        "stuck_coverage": 100.0 * stuck.coverage,
        "coverage": 100.0 * result.coverage,
        "cpu": result.wall_seconds,
        "mem": result.memory.peak_megabytes,
    }
    _attach_telemetry(row, result)
    return _scrub_timings(row) if deterministic else row


def table2(
    circuits: Sequence[str] = DEFAULT_TABLE3,
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
    campaign=None,
) -> Tuple[List[Row], str]:
    """Table 2 — benchmark circuit statistics and the tests applied."""
    rows: List[Row] = [
        _cell(
            campaign,
            ("table2", name),
            partial(_table2_cell, name, scale, seed),
        )
        for name in circuits
    ]
    text = format_table(
        ["ckt", "#PI", "#PO", "#FF", "#gates", "#levels", "#faults", "#ptns"],
        [
            (r["circuit"], r["pis"], r["pos"], r["dffs"], r["gates"], r["levels"], r["faults"], r["patterns"])
            for r in rows
        ],
        title="Table 2. Circuit statistics",
    )
    return rows, text


def table3(
    circuits: Sequence[str] = DEFAULT_TABLE3,
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
    telemetry: bool = False,
    campaign=None,
    deterministic: bool = False,
) -> Tuple[List[Row], str]:
    """Table 3 — deterministic patterns (I): CPU and memory per engine.

    The paper's claims checked here: split lists and macro extraction each
    reduce CPU consistently; csim-MV is competitive with PROOFS; macro
    extraction costs a little memory on small circuits and saves a lot on
    large ones.

    ``telemetry=True`` attaches each engine's telemetry summary (phase
    times, per-cycle series, drop timeline) to the row as
    ``<engine>_telemetry`` — the machine-readable version of the paper's
    internal-statistics discussion.
    """
    rows: List[Row] = [
        _cell(
            campaign,
            ("table3", name),
            partial(_table3_cell, name, scale, seed, telemetry, deterministic),
        )
        for name in circuits
    ]
    text = format_table(
        ["ckt", "#ptns", "cvg%"]
        + [f"{engine} {unit}" for engine in _TABLE3_ENGINES for unit in ("CPU", "mem")],
        [
            tuple(
                [r["circuit"], r["patterns"], r["coverage"]]
                + [
                    r[f"{engine}_{field}"]
                    for engine in _TABLE3_ENGINES
                    for field in ("cpu", "mem")
                ]
            )
            for r in rows
        ],
        title="Table 3. Deterministic patterns (I) — CPU s / memory MB",
    )
    return rows, text


def table4(
    circuits: Sequence[str] = DEFAULT_TABLE4,
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
    telemetry: bool = False,
    campaign=None,
    deterministic: bool = False,
) -> Tuple[List[Row], str]:
    """Table 4 — deterministic patterns (II): higher-coverage test sets,
    csim-MV vs PROOFS."""
    rows: List[Row] = [
        _cell(
            campaign,
            ("table4", name),
            partial(
                _csim_vs_proofs, name, scale, "deterministic-high", 256, seed,
                telemetry, deterministic,
            ),
        )
        for name in circuits
    ]
    text = format_table(
        ["ckt", "#ptns", "cvg%", "csim-MV CPU", "csim-MV MEM", "PROOFS CPU", "PROOFS MEM"],
        [
            (
                r["circuit"],
                r["patterns"],
                r["coverage"],
                r["csim-MV_cpu"],
                r["csim-MV_mem"],
                r["PROOFS_cpu"],
                r["PROOFS_mem"],
            )
            for r in rows
        ],
        title="Table 4. Deterministic patterns (II) — higher-coverage tests",
    )
    return rows, text


def table5(
    circuit_name: str = TABLE5_CIRCUIT,
    scale: float = 0.05,
    pattern_counts: Sequence[int] = (200, 400, 800),
    seed: int = DEFAULT_SEED,
    telemetry: bool = False,
    campaign=None,
    deterministic: bool = False,
) -> Tuple[List[Row], str]:
    """Table 5 — random-pattern simulation on the largest circuit.

    The paper's observation checked here: under random patterns the
    concurrent simulator's memory stays *below* its deterministic-pattern
    requirement because faults activate slowly.
    """
    rows: List[Row] = [
        _cell(
            campaign,
            ("table5", circuit_name, count),
            partial(
                _csim_vs_proofs, circuit_name, scale, "random", count, seed,
                telemetry, deterministic,
            ),
        )
        for count in pattern_counts
    ]
    text = format_table(
        ["#ptns", "flt cvg%", "csim-MV CPU", "csim-MV MEM", "PROOFS CPU", "PROOFS MEM"],
        [
            (
                r["patterns"],
                r["coverage"],
                r["csim-MV_cpu"],
                r["csim-MV_mem"],
                r["PROOFS_cpu"],
                r["PROOFS_mem"],
            )
            for r in rows
        ],
        title=f"Table 5. Random pattern simulation ({circuit_name}, scale={scale})",
    )
    return rows, text


def table6(
    circuits: Sequence[str] = DEFAULT_TABLE6,
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
    telemetry: bool = False,
    campaign=None,
    deterministic: bool = False,
) -> Tuple[List[Row], str]:
    """Table 6 — transition-fault simulation of the stuck-at test sets.

    The paper's observation checked here: stuck-at tests are poor
    transition tests — coverages generally well below 50%.
    """
    rows: List[Row] = [
        _cell(
            campaign,
            ("table6", name),
            partial(_table6_cell, name, scale, seed, telemetry, deterministic),
        )
        for name in circuits
    ]
    text = format_table(
        ["ckt", "#flts", "#ptns", "s-a cvg%", "trans cvg%", "CPU", "MEM"],
        [
            (
                r["circuit"],
                r["faults"],
                r["patterns"],
                r["stuck_coverage"],
                r["coverage"],
                r["cpu"],
                r["mem"],
            )
            for r in rows
        ],
        title="Table 6. Transition fault simulation (stuck-at test sets)",
    )
    return rows, text


class _CellPlan:
    """A stand-in campaign that records the cells tables ask for.

    Run through the table functions, it collects every ``(key, compute)``
    pair without computing any (each row it hands back reads as zeros), so
    the parallel prefill computes exactly the cells the real assembly will
    ask for.
    """

    def __init__(self) -> None:
        self.cells: List[tuple] = []

    def cell(self, key, compute) -> Row:
        self.cells.append((key, compute))
        return defaultdict(float)


def _compute_cell(spec):
    """Worker entry point: ``(key, compute) -> (key, row)``."""
    key, compute = spec
    return key, compute()


def prefill_cells(campaign, cells, jobs: int) -> int:
    """Compute *cells* missing from a campaign in parallel; returns how many.

    Cells already present (a resumed campaign) are skipped.  Each computed
    cell is recorded through ``campaign.cell`` so durable checkpoints see
    it immediately — a prefilled-then-interrupted campaign resumes exactly
    like a serial one.
    """
    import multiprocessing

    pending = [spec for spec in cells if spec[0] not in campaign.cells]
    if not pending:
        return 0
    context = multiprocessing.get_context()
    with context.Pool(processes=min(jobs, len(pending))) as pool:
        for key, row in pool.imap_unordered(_compute_cell, pending):
            campaign.cell(key, lambda row=row: row)
    return len(pending)


def all_tables(
    scale: float = 1.0,
    quick: bool = False,
    campaign=None,
    deterministic: bool = False,
    jobs: int = 1,
) -> str:
    """Run every table and return one combined report.

    With a ``campaign`` (:class:`repro.robust.TableCampaign`), every
    finished cell is durable: an interrupted run resumes without
    recomputation.  ``deterministic`` zeroes the wall-clock columns so an
    interrupted-and-resumed report is byte-identical to a fresh one.

    ``jobs > 1`` computes the cells in a pool of worker processes first
    (each cell is an unsharded, deterministic unit of work), then
    assembles the report from the cache; the rendered text is identical
    to a single-process run.
    """
    t3_circuits = DEFAULT_TABLE4 if quick else DEFAULT_TABLE3

    def sections(campaign) -> List[str]:
        return [
            table2(t3_circuits, scale, campaign=campaign)[1],
            table3(t3_circuits, scale, campaign=campaign, deterministic=deterministic)[1],
            table4(DEFAULT_TABLE4, scale, campaign=campaign, deterministic=deterministic)[1],
            table5(
                scale=0.03 if quick else 0.05,
                pattern_counts=(100, 200) if quick else (200, 400, 800),
                campaign=campaign,
                deterministic=deterministic,
            )[1],
            table6(DEFAULT_TABLE6, scale, campaign=campaign, deterministic=deterministic)[1],
        ]

    if jobs > 1:
        if campaign is None:
            from repro.robust.runner import TableCampaign

            campaign = TableCampaign()
        plan = _CellPlan()
        sections(plan)
        prefill_cells(campaign, plan.cells, jobs)
    return "\n\n".join(sections(campaign))
