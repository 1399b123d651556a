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
:func:`all_tables` with ``jobs > 1`` prefills the cell cache from a
process pool before assembling the report serially.  Because each cell's
value is computed by the same (unsharded) function either way, the
rendered report — in particular the ``deterministic`` mode the resume CI
check diffs — is byte-identical to a single-process run.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.library import TABLE5_CIRCUIT
from repro.circuit.stats import circuit_stats
from repro.faults.universe import all_stuck_at_faults, stuck_at_universe
from repro.harness.reporting import format_table
from repro.harness.runner import (
    compare_engines,
    run_stuck_at,
    run_transition,
    sanitized_options,
    workload_circuit,
    workload_tests,
    workload_transition_faults,
)
from repro.obs import RecordingTracer


def _tracer_factory(telemetry: bool):
    """Per-engine tracer supplier for :func:`compare_engines` (or ``None``)."""
    if not telemetry:
        return None
    return lambda engine: RecordingTracer()


def _pruned(circuit, faults):
    """Drop the structurally untestable faults from *faults* (``--prune``)."""
    from repro.analyze import prune_untestable

    return prune_untestable(circuit, faults).kept


def _stuck_at_targets(circuit, prune: bool, collapse: Optional[str]):
    """The stuck-at fault list one cell simulates, honouring the flags.

    Returns ``(faults, collapsed)``.  Without ``collapse`` this is the old
    behaviour (``None`` → engine default universe, pruned when asked).
    With it, the cell simulates the representatives of the *full* (pruned)
    universe and the caller expands results through ``collapsed`` so the
    reported fault counts and coverages are those of the full universe.
    """
    if collapse is None:
        faults = _pruned(circuit, stuck_at_universe(circuit)) if prune else None
        return faults, None
    from repro.analyze import collapse_universe

    universe = all_stuck_at_faults(circuit)
    if prune:
        universe = _pruned(circuit, universe)
    collapsed = collapse_universe(circuit, universe)
    return list(collapsed.representatives), collapsed


def _expand_all(collapsed, results):
    """Expand every result through the collapse map (no-op without one)."""
    if collapsed is None:
        return results
    return [collapsed.expand(result) for result in results]


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


def _table2_cell(
    name: str,
    scale: float,
    seed: int,
    prune: bool = False,
    collapse: Optional[str] = None,
) -> Row:
    circuit = workload_circuit(name, scale)
    stats = circuit_stats(circuit)
    if collapse is not None:
        faults, _ = _stuck_at_targets(circuit, prune, collapse)
    else:
        faults = stuck_at_universe(circuit)
        if prune:
            faults = _pruned(circuit, faults)
    tests = workload_tests(name, scale, "deterministic", seed=seed)
    return {
        "circuit": name,
        "pis": stats.num_inputs,
        "pos": stats.num_outputs,
        "dffs": stats.num_dffs,
        "gates": stats.num_gates,
        "levels": stats.num_levels,
        "faults": len(faults),
        "patterns": len(tests),
    }


def _table3_cell(
    name: str,
    scale: float,
    seed: int,
    telemetry: bool,
    deterministic: bool,
    prune: bool = False,
    sanitize: bool = False,
    collapse: Optional[str] = None,
) -> Row:
    circuit = workload_circuit(name, scale)
    tests = workload_tests(name, scale, "deterministic", seed=seed)
    faults, collapsed = _stuck_at_targets(circuit, prune, collapse)
    results = _expand_all(
        collapsed,
        compare_engines(
            circuit,
            tests,
            _TABLE3_ENGINES,
            faults=faults,
            tracer_factory=_tracer_factory(telemetry),
            sanitize=sanitize,
        ),
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


def _table4_cell(
    name: str,
    scale: float,
    seed: int,
    telemetry: bool,
    deterministic: bool,
    prune: bool = False,
    sanitize: bool = False,
    collapse: Optional[str] = None,
) -> Row:
    circuit = workload_circuit(name, scale)
    tests = workload_tests(name, scale, "deterministic-high", seed=seed)
    faults, collapsed = _stuck_at_targets(circuit, prune, collapse)
    results = _expand_all(
        collapsed,
        compare_engines(
            circuit,
            tests,
            ("csim-MV", "PROOFS"),
            faults=faults,
            tracer_factory=_tracer_factory(telemetry),
            sanitize=sanitize,
        ),
    )
    csim_mv, proofs = results
    row: Row = {
        "circuit": name,
        "patterns": len(tests),
        "coverage": 100.0 * csim_mv.coverage,
        "csim-MV_cpu": csim_mv.wall_seconds,
        "csim-MV_mem": csim_mv.memory.peak_megabytes,
        "PROOFS_cpu": proofs.wall_seconds,
        "PROOFS_mem": proofs.memory.peak_megabytes,
    }
    for result in results:
        _attach_telemetry(row, result)
    return _scrub_timings(row) if deterministic else row


def _table5_cell(
    circuit_name: str,
    scale: float,
    count: int,
    seed: int,
    telemetry: bool,
    deterministic: bool,
    prune: bool = False,
    sanitize: bool = False,
    collapse: Optional[str] = None,
) -> Row:
    circuit = workload_circuit(circuit_name, scale)
    tests = workload_tests(circuit_name, scale, "random", length=count, seed=seed)
    faults, collapsed = _stuck_at_targets(circuit, prune, collapse)
    results = _expand_all(
        collapsed,
        compare_engines(
            circuit,
            tests,
            ("csim-MV", "PROOFS"),
            faults=faults,
            tracer_factory=_tracer_factory(telemetry),
            sanitize=sanitize,
        ),
    )
    csim_mv, proofs = results
    row: Row = {
        "circuit": circuit_name,
        "patterns": count,
        "coverage": 100.0 * csim_mv.coverage,
        "csim-MV_cpu": csim_mv.wall_seconds,
        "csim-MV_mem": csim_mv.memory.peak_megabytes,
        "PROOFS_cpu": proofs.wall_seconds,
        "PROOFS_mem": proofs.memory.peak_megabytes,
    }
    for result in results:
        _attach_telemetry(row, result)
    return _scrub_timings(row) if deterministic else row


def _table6_cell(
    name: str,
    scale: float,
    seed: int,
    telemetry: bool,
    deterministic: bool,
    prune: bool = False,
    sanitize: bool = False,
    collapse: Optional[str] = None,
) -> Row:
    circuit = workload_circuit(name, scale)
    tests = workload_tests(name, scale, "deterministic", seed=seed)
    faults = workload_transition_faults(name, scale)
    if prune:
        faults = _pruned(circuit, faults)
    run_faults, t_collapsed = faults, None
    if collapse is not None:
        from repro.analyze import collapse_universe

        t_collapsed = collapse_universe(circuit, faults, transition=True)
        run_faults = list(t_collapsed.representatives)
    result = _expand_all(
        t_collapsed,
        [
            run_transition(
                circuit,
                tests,
                split_lists=True,
                faults=run_faults,
                tracer=RecordingTracer() if telemetry else None,
                sanitize=sanitize,
            )
        ],
    )[0]
    stuck_faults, s_collapsed = _stuck_at_targets(circuit, prune, collapse)
    stuck = _expand_all(
        s_collapsed,
        [
            run_stuck_at(
                circuit,
                tests,
                "csim-MV",
                faults=stuck_faults,
                options=sanitized_options("csim-MV") if sanitize else None,
            )
        ],
    )[0]
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


#: Cell dispatch for the parallel prefill worker.
_CELL_FNS = {
    "table2": _table2_cell,
    "table3": _table3_cell,
    "table4": _table4_cell,
    "table5": _table5_cell,
    "table6": _table6_cell,
}


def _compute_cell(spec):
    """Worker entry point: ``((key, (table, args))) -> (key, row)``."""
    key, (table, args) = spec
    return key, _CELL_FNS[table](*args)


def table2(
    circuits: Sequence[str] = DEFAULT_TABLE3,
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
    campaign=None,
    prune: bool = False,
    collapse: Optional[str] = None,
) -> Tuple[List[Row], str]:
    """Table 2 — benchmark circuit statistics and the tests applied."""
    rows: List[Row] = [
        _cell(
            campaign,
            ("table2", name),
            partial(_table2_cell, name, scale, seed, prune, collapse),
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
    prune: bool = False,
    sanitize: bool = False,
    collapse: Optional[str] = None,
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
            partial(
                _table3_cell, name, scale, seed, telemetry, deterministic, prune,
                sanitize, collapse,
            ),
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
    prune: bool = False,
    sanitize: bool = False,
    collapse: Optional[str] = None,
) -> Tuple[List[Row], str]:
    """Table 4 — deterministic patterns (II): higher-coverage test sets,
    csim-MV vs PROOFS."""
    rows: List[Row] = [
        _cell(
            campaign,
            ("table4", name),
            partial(
                _table4_cell, name, scale, seed, telemetry, deterministic, prune,
                sanitize, collapse,
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
    prune: bool = False,
    sanitize: bool = False,
    collapse: Optional[str] = None,
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
                _table5_cell,
                circuit_name,
                scale,
                count,
                seed,
                telemetry,
                deterministic,
                prune,
                sanitize,
                collapse,
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
    prune: bool = False,
    sanitize: bool = False,
    collapse: Optional[str] = None,
) -> Tuple[List[Row], str]:
    """Table 6 — transition-fault simulation of the stuck-at test sets.

    The paper's observation checked here: stuck-at tests are poor
    transition tests — coverages generally well below 50%.
    """
    rows: List[Row] = [
        _cell(
            campaign,
            ("table6", name),
            partial(
                _table6_cell, name, scale, seed, telemetry, deterministic, prune,
                sanitize, collapse,
            ),
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


def plan_cells(
    scale: float = 1.0,
    quick: bool = False,
    deterministic: bool = False,
    prune: bool = False,
    sanitize: bool = False,
    collapse: Optional[str] = None,
) -> List[tuple]:
    """Every cell :func:`all_tables` computes, as ``(key, (table, args))``.

    The plan must mirror :func:`all_tables` exactly — same circuit subsets,
    same table-5 scale and pattern counts — so a parallel prefill computes
    precisely the cells the serial assembly will ask for.
    """
    t3_circuits = DEFAULT_TABLE4 if quick else DEFAULT_TABLE3
    t5_scale = 0.03 if quick else 0.05
    t5_counts = (100, 200) if quick else (200, 400, 800)
    seed = DEFAULT_SEED
    cells: List[tuple] = []
    for name in t3_circuits:
        cells.append(
            (("table2", name), ("table2", (name, scale, seed, prune, collapse)))
        )
    for name in t3_circuits:
        cells.append(
            (
                ("table3", name),
                (
                    "table3",
                    (name, scale, seed, False, deterministic, prune, sanitize, collapse),
                ),
            )
        )
    for name in DEFAULT_TABLE4:
        cells.append(
            (
                ("table4", name),
                (
                    "table4",
                    (name, scale, seed, False, deterministic, prune, sanitize, collapse),
                ),
            )
        )
    for count in t5_counts:
        cells.append(
            (
                ("table5", TABLE5_CIRCUIT, count),
                (
                    "table5",
                    (
                        TABLE5_CIRCUIT,
                        t5_scale,
                        count,
                        seed,
                        False,
                        deterministic,
                        prune,
                        sanitize,
                        collapse,
                    ),
                ),
            )
        )
    for name in DEFAULT_TABLE6:
        cells.append(
            (
                ("table6", name),
                (
                    "table6",
                    (name, scale, seed, False, deterministic, prune, sanitize, collapse),
                ),
            )
        )
    return cells


def prefill_cells(
    campaign,
    scale: float = 1.0,
    quick: bool = False,
    deterministic: bool = False,
    jobs: int = 1,
    prune: bool = False,
    sanitize: bool = False,
    collapse: Optional[str] = None,
) -> int:
    """Fill a campaign's cell cache in parallel; returns cells computed.

    Cells already present (a resumed campaign) are skipped.  Each computed
    cell is recorded through ``campaign.cell`` so durable checkpoints see
    it immediately — a prefilled-then-interrupted campaign resumes exactly
    like a serial one.
    """
    pending = [
        spec
        for spec in plan_cells(scale, quick, deterministic, prune, sanitize, collapse)
        if spec[0] not in campaign.cells
    ]
    if not pending:
        return 0
    if jobs <= 1 or len(pending) == 1:
        for key, row in map(_compute_cell, pending):
            campaign.cell(key, lambda row=row: row)
        return len(pending)
    import multiprocessing

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
    prune_untestable: bool = False,
    collapse: Optional[str] = None,
    sanitize: bool = False,
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
    if jobs > 1:
        if campaign is None:
            from repro.robust.runner import TableCampaign

            campaign = TableCampaign()
        prefill_cells(
            campaign, scale, quick, deterministic, jobs, prune_untestable,
            sanitize, collapse,
        )
    t3_circuits = DEFAULT_TABLE4 if quick else DEFAULT_TABLE3
    sections = [
        table2(
            t3_circuits,
            scale,
            campaign=campaign,
            prune=prune_untestable,
            collapse=collapse,
        )[1],
        table3(
            t3_circuits,
            scale,
            campaign=campaign,
            deterministic=deterministic,
            prune=prune_untestable,
            sanitize=sanitize,
            collapse=collapse,
        )[1],
        table4(
            DEFAULT_TABLE4,
            scale,
            campaign=campaign,
            deterministic=deterministic,
            prune=prune_untestable,
            sanitize=sanitize,
            collapse=collapse,
        )[1],
        table5(
            scale=0.03 if quick else 0.05,
            pattern_counts=(100, 200) if quick else (200, 400, 800),
            campaign=campaign,
            deterministic=deterministic,
            prune=prune_untestable,
            sanitize=sanitize,
            collapse=collapse,
        )[1],
        table6(
            DEFAULT_TABLE6,
            scale,
            campaign=campaign,
            deterministic=deterministic,
            prune=prune_untestable,
            sanitize=sanitize,
            collapse=collapse,
        )[1],
    ]
    return "\n\n".join(sections)
