"""Optional numpy path: the levelized (faults x patterns) value plane.

When numpy is present and the window fits a machine word
(``word_width <= 64``), a pattern-axis window can evaluate *all* live
faults at once: the circuit state becomes two ``uint64`` arrays of shape
``(gates, faults)`` — the two-mask encoding of :mod:`repro.vector.
packing` with one array element per (gate, fault) and one bit per
pattern, i.e. the faults x patterns plane of the ISSUE laid out one gate
at a time.  Evaluation is *rank-batched*: gates of one level sharing a
gate type evaluate as a single set of array reductions over a gathered
``(gates-in-group, fanins, faults)`` operand block, so a full levelized
settle costs a few dozen vectorized operations rather than a Python-level
loop over gates (let alone faults).

The trade against the scalar path is classic dense-vs-sparse: the scalar
path is event-driven (only the cone a fault disturbs is touched), the
plane path evaluates every combinational gate for every fault each sweep
but does so at numpy throughput.  Detection outcomes are bit-identical
either way — the cross-validation tests pin this — only the
work-counter profile differs (the plane honestly reports its dense
evaluation count).

Sequential feedback closes by fix-up iteration (slot ``t+1`` of each DFF
output must equal slot ``t`` of its D input), each pass finalizing one
more leading slot.  Convergence is sharply bimodal across faults: almost
every row's state divergence dies within a few passes, while a handful
of faults stay divergent for the whole window and would drag every
column through ``width`` dense sweeps.  Rows still changing at
:data:`EVICT_AFTER_PASSES` are therefore frozen and re-solved on a
*compact sub-plane* — the same algorithm over just the divergent columns,
whose sweeps cost near the vectorization floor.

Every large array of a window is carved from one anonymous ``mmap`` and
filled with ``out=`` operations: a record-mode window on s1196 holds
about 18 MB, which glibc's dynamic mmap threshold would keep resident
after the window, while the mapping goes back to the OS with it.

numpy is an optional dependency: :func:`available` gates the import, and
the kernel refuses ``use_numpy=True`` up front when it is missing.
"""

from __future__ import annotations

import mmap
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.faults.model import OUTPUT_PIN, StuckAtFault
from repro.logic.tables import GateType
from repro.logic.values import ONE, X, ZERO
from repro.vector.packing import broadcast_word, set_slot

if TYPE_CHECKING:
    from repro.vector.kernel import WindowOutcome

_np: Any
try:  # pragma: no cover - exercised via available()
    import numpy

    _np = numpy
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

#: The plane packs patterns into ``uint64`` elements.
MAX_PLANE_WIDTH = 64

#: Fix-up pass at which still-divergent rows leave the main plane for a
#: compact sub-plane of their own (see the module docstring).
EVICT_AFTER_PASSES = 6


def available() -> bool:
    """Whether the numpy plane path can run in this environment."""
    return _np is not None


def _build_rank_plan(circuit: Any) -> Tuple[List[List[Tuple[Any, Any, Any]]], Dict[int, Tuple[int, int, int]], Dict[int, int]]:
    """Group the levelized order into per-level, per-gate-type batches.

    Returns ``(plan, gate_slot, level_pos)``: *plan* is a list (one entry
    per populated level, ascending) of groups ``(gtype, idx, fanin)``
    where *idx* is the member gate indices and *fanin* the ``(G, k)``
    fanin matrix (``None`` for zero-fanin constants); *gate_slot* maps a
    gate index to its ``(level_entry, group, position)``; *level_pos*
    maps a circuit level to its plan entry.  BUF folds into AND and NOT
    into NAND — both are their one-operand cases under the two-mask
    algebra — so the sweep handles six reduction shapes total.
    """
    gates = circuit.gates
    by_level: Dict[int, Dict[Tuple[GateType, int], List[int]]] = {}
    for gate_index in circuit.order:
        gate = gates[gate_index]
        gtype = gate.gtype
        arity = len(gate.fanin)
        if gtype is GateType.BUF:
            key = (GateType.AND, 1)
        elif gtype is GateType.NOT:
            key = (GateType.NAND, 1)
        elif gtype in (GateType.CONST0, GateType.CONST1):
            key = (gtype, 0)
        elif gtype in (
            GateType.AND,
            GateType.NAND,
            GateType.OR,
            GateType.NOR,
            GateType.XOR,
            GateType.XNOR,
        ):
            key = (gtype, arity)
        else:  # MACRO: the word engines run on flat circuits only
            raise ValueError(f"cannot evaluate gate type {gtype} as a word")
        by_level.setdefault(gate.level, {}).setdefault(key, []).append(gate_index)
    plan: List[List[Tuple[Any, Any, Any]]] = []
    gate_slot: Dict[int, Tuple[int, int, int]] = {}
    level_pos: Dict[int, int] = {}
    for level in sorted(by_level):
        groups: List[Tuple[Any, Any, Any]] = []
        for (gtype, arity), members in by_level[level].items():
            idx = _np.asarray(members, dtype=_np.intp)
            fanin = (
                _np.asarray([gates[i].fanin for i in members], dtype=_np.intp)
                if arity
                else None
            )
            for position, gate_index in enumerate(members):
                gate_slot[gate_index] = (len(plan), len(groups), position)
            groups.append((gtype, idx, fanin))
        level_pos[level] = len(plan)
        plan.append(groups)
    return plan, gate_slot, level_pos


def _rank_plan(sim: Any) -> Tuple[Any, Any, Any]:
    """The (cached) rank plan for *sim*'s circuit."""
    plan = getattr(sim, "_plane_rank_plan", None)
    if plan is None:
        plan = _build_rank_plan(sim.circuit)
        sim._plane_rank_plan = plan
    return plan


def _group_output(
    gtype: GateType, op_ones: Any, op_xs: Any, mask: Any, out: Tuple[Any, Any, Any]
) -> Tuple[Any, Any]:
    """Evaluate one gate-type batch: reduce ``(G, k, F)`` operand blocks.

    The same two-mask algebra as :func:`repro.vector.packing.
    evaluate_gate_word`, with the fanin loop replaced by bitwise
    reductions along the operand axis.  Results land in the three
    ``(G, F)`` buffers of *out*; *op_xs* is overwritten.  Returns
    ``(one_out, x_out)``.
    """
    first, second, x_out = out
    if gtype in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR):
        conjunctive = gtype in (GateType.AND, GateType.NAND)
        # first: every operand one (AND) / some operand one (OR).
        reduce_ones = _np.bitwise_and if conjunctive else _np.bitwise_or
        reduce_ones.reduce(op_ones, axis=1, out=first)
        # second: some operand zero (AND) / every operand zero (OR), as
        # the complement of the known-or-one reduction.
        _np.bitwise_or(op_ones, op_xs, out=op_xs)
        reduce_known = _np.bitwise_and if conjunctive else _np.bitwise_or
        reduce_known.reduce(op_xs, axis=1, out=second)
        _np.invert(second, out=second)
        _np.bitwise_and(second, mask, out=second)
        # Unknown wherever neither decides.
        _np.bitwise_or(first, second, out=x_out)
        _np.invert(x_out, out=x_out)
        _np.bitwise_and(x_out, mask, out=x_out)
        inverted = gtype in (GateType.NAND, GateType.NOR)
        return (second if inverted else first), x_out
    # XOR / XNOR: unknown if any operand is; else the parity.
    _np.bitwise_or.reduce(op_xs, axis=1, out=x_out)
    _np.invert(x_out, out=second)
    _np.bitwise_and(second, mask, out=second)  # known slots
    _np.bitwise_xor.reduce(op_ones, axis=1, out=first)
    _np.bitwise_and(first, second, out=first)  # parity on known slots
    if gtype is GateType.XNOR:
        _np.bitwise_xor(second, first, out=second)  # known and even parity
        return second, x_out
    return first, x_out


def _arena(plan: Any, num_gates: int, num_outputs: int, num_faults: int) -> List[Any]:
    """One window's large ``uint64`` arrays, carved from one anonymous map.

    In order: the plane's ``ones`` and ``xs`` (gates x faults), the two
    gather blocks (largest ``G * k`` x faults), three reduction outputs
    (largest ``G`` x faults) and the mismatch and unknown words (outputs x
    faults).  The mapping is released when the last array is dropped.
    """
    blocks = [
        (fanin.size, len(idx))
        for groups in plan
        for _gtype, idx, fanin in groups
        if fanin is not None
    ]
    gathered = max((size for size, _ in blocks), default=0)
    grouped = max((count for _, count in blocks), default=0)
    rows = [num_gates] * 2 + [gathered] * 2 + [grouped] * 3 + [num_outputs] * 2
    flat = _np.frombuffer(
        mmap.mmap(-1, max(1, sum(rows) * num_faults) * 8), dtype=_np.uint64
    )
    arrays = []
    offset = 0
    for count in rows:
        arrays.append(flat[offset : offset + count * num_faults].reshape(count, num_faults))
        offset += count * num_faults
    return arrays


def simulate_window(
    sim: Any,
    active: List[StuckAtFault],
    snaps: List[List[int]],
    mask: int,
    good_word: Any,
) -> List[WindowOutcome]:
    """Evaluate one pattern window for all *active* faults on the plane.

    Drop-in replacement for the kernel's per-fault
    ``_propagate_fault_window`` loop: returns the same
    ``(mismatch words, unknown words, outgoing_ff_diffs)`` tuple per
    fault, in *active* order.  *sim* is the calling
    :class:`~repro.vector.kernel.VectorFaultSimulator` (circuit, carried
    diffs, counters and tracer are read from it).
    """
    if _np is None:  # pragma: no cover - kernel refuses use_numpy without numpy
        raise RuntimeError("numpy plane requested but numpy is not installed")
    circuit = sim.circuit
    gates = circuit.gates
    counters = sim.counters
    trace = sim.tracer
    num_faults = len(active)
    width = len(snaps)
    u64 = _np.uint64
    mask_u = u64(mask)
    one_u = u64(1)
    plan, gate_slot, _level_pos = _rank_plan(sim)
    num_comb = len(circuit.order)
    (
        ones, xs, gather_ones, gather_xs, *results, mismatch, unknown
    ) = _arena(plan, len(gates), len(circuit.outputs), num_faults)

    # Good plane: pack the per-cycle snapshots into (gates,) words, then
    # broadcast along the fault axis.
    snap_arr = _np.asarray(snaps)  # (width, gates)
    slot_bits = (one_u << _np.arange(width, dtype=u64))[:, None]  # (width, 1)
    good_ones = ((snap_arr == ONE).astype(u64) * slot_bits).sum(axis=0, dtype=u64)
    good_xs = ((snap_arr == X).astype(u64) * slot_bits).sum(axis=0, dtype=u64)
    ones[:] = good_ones[:, None]  # (gates, faults)
    xs[:] = good_xs[:, None]

    # Per-fault forcing: the stuck site, held in every slot of its row.
    forced_ones = _np.zeros(num_faults, dtype=u64)
    forced_xs = _np.zeros(num_faults, dtype=u64)
    out_forced_gate = [-1] * num_faults
    in_forced: Dict[Tuple[int, int], List[int]] = {}
    pinned_lists: Dict[int, List[int]] = {}
    for row, fault in enumerate(active):
        f_ones, f_xs = broadcast_word(fault.value, mask)
        forced_ones[row] = f_ones
        forced_xs[row] = f_xs
        if fault.pin == OUTPUT_PIN:
            out_forced_gate[row] = fault.gate
            pinned_lists.setdefault(fault.gate, []).append(row)
            ones[fault.gate, row] = f_ones
            xs[fault.gate, row] = f_xs
        else:
            in_forced.setdefault((fault.gate, fault.pin), []).append(row)
        # Carried flip-flop diffs seed slot 0 of the row.
        for ff_index, value in sim.ff_diffs[fault].items():
            if out_forced_gate[row] == ff_index:
                continue  # the forced word already covers every slot
            o, x = set_slot(int(ones[ff_index, row]), int(xs[ff_index, row]), 0, value)
            ones[ff_index, row] = o
            xs[ff_index, row] = x
    pinned_rows = {
        index: _np.asarray(rows, dtype=_np.intp)
        for index, rows in pinned_lists.items()
    }

    # Window-resolved forcing indices for the rank sweep: input-stuck
    # sites become one fancy-indexed override per touched operand block,
    # output-stuck sites one per-level row pin, each applied as a single
    # vectorized assignment per sweep.
    group_overrides: Dict[Tuple[int, int], Tuple[List[int], List[int], List[int]]] = {}
    for (gate_index, pin), rows in in_forced.items():
        slot = gate_slot.get(gate_index)
        if slot is None:
            continue  # a DFF's D pin: applied by latched() below
        entry, group, position = slot
        triple = group_overrides.setdefault((entry, group), ([], [], []))
        for row in rows:
            triple[0].append(position)
            triple[1].append(pin)
            triple[2].append(row)
    overrides = {
        key: tuple(_np.asarray(part, dtype=_np.intp) for part in triple)
        for key, triple in group_overrides.items()
    }
    level_pins: Dict[int, Tuple[Any, Any]] = {}
    pin_lists: Dict[int, Tuple[List[int], List[int]]] = {}
    for gate_index, rows in pinned_lists.items():
        slot = gate_slot.get(gate_index)
        if slot is None:
            continue  # PI or DFF: never recomputed by a sweep
        for row in rows:
            pair = pin_lists.setdefault(slot[0], ([], []))
            pair[0].append(gate_index)
            pair[1].append(row)
    level_pins = {
        entry: (
            _np.asarray(pair[0], dtype=_np.intp),
            _np.asarray(pair[1], dtype=_np.intp),
        )
        for entry, pair in pin_lists.items()
    }

    def rank_sweep() -> None:
        """One dense levelized settle: a few array ops per gate batch."""
        for entry, groups in enumerate(plan):
            for group, (gtype, idx, fanin) in enumerate(groups):
                if fanin is None:
                    value = mask_u if gtype is GateType.CONST1 else u64(0)
                    ones[idx] = value
                    xs[idx] = u64(0)
                    continue
                count, arity = fanin.shape
                op_ones = gather_ones[: count * arity].reshape(count, arity, num_faults)
                op_xs = gather_xs[: count * arity].reshape(count, arity, num_faults)
                # mode="raise" would buffer through a temporary; fanin
                # indices are always in range.
                ones.take(fanin, axis=0, out=op_ones, mode="clip")
                xs.take(fanin, axis=0, out=op_xs, mode="clip")
                triple = overrides.get((entry, group))
                if triple is not None:
                    position, pin, row = triple
                    op_ones[position, pin, row] = forced_ones[row]
                    op_xs[position, pin, row] = forced_xs[row]
                one_out, x_out = _group_output(
                    gtype, op_ones, op_xs, mask_u,
                    (results[0][:count], results[1][:count], results[2][:count]),
                )
                ones[idx] = one_out
                xs[idx] = x_out
            pinned = level_pins.get(entry)
            if pinned is not None:
                gate_arr, row_arr = pinned
                ones[gate_arr, row_arr] = forced_ones[row_arr]
                xs[gate_arr, row_arr] = forced_xs[row_arr]
        counters.fault_evaluations += num_comb * num_faults
        if trace is not None:
            for gate_index in circuit.order:
                trace.fault_evals(gate_index, num_faults)

    def latched(ff_index: int) -> Tuple[Any, Any]:
        """The D words each row of a DFF latches (input forcing applied)."""
        source = gates[ff_index].fanin[0]
        d_ones = ones[source]
        d_xs = xs[source]
        rows = in_forced.get((ff_index, 0))
        if rows:
            d_ones = d_ones.copy()
            d_xs = d_xs.copy()
            d_ones[rows] = forced_ones[rows]
            d_xs[rows] = forced_xs[rows]
        return d_ones, d_xs

    # Settle, then close the sequential feedback: slot t+1 of every DFF
    # output must equal slot t of its D input.  Each pass finalizes one
    # more leading slot, so the fixpoint lands within ``width`` passes;
    # rows still changing at EVICT_AFTER_PASSES move to a sub-plane.
    high_mask = u64(mask & ~1)
    rank_sweep()
    evicted: List[int] = []
    evict_rows: Optional[Any] = None
    pass_no = 0
    for _ in range(width + 1):
        pass_no += 1
        evicting = pass_no == EVICT_AFTER_PASSES and num_faults > 1
        changed_rows: set = set()
        changed = False
        for ff_index in circuit.dffs:
            d_ones, d_xs = latched(ff_index)
            q_ones = ones[ff_index]
            q_xs = xs[ff_index]
            req_ones = ((d_ones << one_u) & high_mask) | (q_ones & one_u)
            req_xs = ((d_xs << one_u) & high_mask) | (q_xs & one_u)
            rows = pinned_rows.get(ff_index)
            if rows is not None:
                req_ones[rows] = q_ones[rows]
                req_xs[rows] = q_xs[rows]
            if evict_rows is not None:
                req_ones[evict_rows] = q_ones[evict_rows]
                req_xs[evict_rows] = q_xs[evict_rows]
            diff = (req_ones != q_ones) | (req_xs != q_xs)
            if diff.any():
                if evicting:
                    changed_rows.update(_np.nonzero(diff)[0].tolist())
                ones[ff_index] = req_ones
                xs[ff_index] = req_xs
                changed = True
        if not changed:
            break
        if evicting and changed_rows and len(changed_rows) < num_faults:
            # Freeze the divergent tail: columns are independent, so the
            # stale frozen values cannot leak into other rows.
            evicted = sorted(changed_rows)
            evict_rows = _np.asarray(evicted, dtype=_np.intp)
        rank_sweep()
    else:  # pragma: no cover - precluded by the pass bound
        raise RuntimeError(
            f"plane window failed to converge within {width + 1} passes"
        )

    # One mismatch and one unknown word per primary output and row.
    for position, po_index in enumerate(circuit.outputs):
        g_ones, g_xs = good_word(po_index)
        binary_good = u64(mask & ~g_xs)
        _np.bitwise_and(xs[po_index], binary_good, out=unknown[position])
        _np.bitwise_xor(ones[po_index], u64(g_ones), out=mismatch[position])
        _np.bitwise_and(mismatch[position], binary_good, out=mismatch[position])
        mismatch[position] &= ~xs[po_index]
    outcomes: List[WindowOutcome] = [
        (row_mismatch, row_unknown, {})
        for row_mismatch, row_unknown in zip(mismatch.T.tolist(), unknown.T.tolist())
    ]

    # Outgoing flip-flop diffs from the last slot's D words.
    last = width - 1
    last_bit = u64(1 << last)
    for ff_index in circuit.dffs:
        d_ones, d_xs = latched(ff_index)
        d_is_one = (d_ones & last_bit) != 0
        d_is_x = (d_xs & last_bit) != 0
        good_value = snaps[last][gates[ff_index].fanin[0]]
        if good_value == ONE:
            differs = ~d_is_one
        elif good_value == X:
            differs = d_is_one | ~d_is_x
        else:
            differs = d_is_one | d_is_x
        for row in _np.flatnonzero(differs).tolist():
            value = ONE if d_is_one[row] else (X if d_is_x[row] else ZERO)
            outcomes[row][2][ff_index] = value

    if evicted:
        # Re-solve the frozen tail exactly on its own compact plane.  The
        # recursion terminates: a sub-plane whose every row is divergent
        # evicts nothing (the guard above requires a strict subset).
        sub_active = [active[row] for row in evicted]
        sub_outcomes = simulate_window(sim, sub_active, snaps, mask, good_word)
        for row, outcome in zip(evicted, sub_outcomes):
            outcomes[row] = outcome
    return outcomes
