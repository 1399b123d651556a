"""Optional numpy path: the dual-rail (faults x patterns) value plane.

When numpy is present and the window fits a machine word
(``word_width <= 64``), a pattern-axis window evaluates *all* active
faults at once on a plane of ``uint64`` words: one row per gate rail, one
column per fault, one bit per pattern slot.

**Dual rail.**  Every gate owns two rows, ``ones`` (slots at logic 1) and
``zeros`` (slots at logic 0); a slot set in neither is unknown.  Inverting
a signal swaps its rails, so by De Morgan every AND, NAND, OR, NOR, BUF and
NOT of a level is one AND form over its (possibly swapped) input rails,
written to its (possibly swapped) output rails: one rail is the AND of the
operands' first rails, the other the OR of their second rails.  XOR and
XNOR share a second form: the parity of the ones rails wherever every
operand is known.  :func:`_build_plan` puts the swaps into the gather
indices and the row layout, once per simulator, and sorts each form's
gates by arity, so a level costs one gather per form into a scratch block
plus a few in-place reductions over shrinking prefixes, written straight
into the level's output rows.

**Retiring rows.**  Sequential feedback closes by fix-up passes: slot
``t+1`` of every flip-flop output must equal slot ``t`` of its input.  Each
pass finalizes one more leading slot, so a window converges within
``width`` passes, but the rows (faults) converge independently and most of
them at once.  A row whose flip-flop words a pass leaves unchanged is at its
fixpoint: its outcome is read off there and the row leaves the plane.  Only
the source rows (inputs, flip-flops, constants) carry state from one sweep
to the next, since a sweep recomputes every gate row from them, so the
plane compacts to the rows still changing by moving its source rows in
place.

A sweep counts ``len(circuit.order)`` evaluations per row it covers: the
work counters report the dense evaluation the plane really does.  The
plane and its scratch block are carved from one anonymous ``mmap`` per
window, which goes back to the OS with the window.

numpy is an optional dependency: :func:`available` gates the import, and
the kernel refuses ``use_numpy=True`` up front when it is missing.
"""

from __future__ import annotations

import mmap
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Tuple

from repro.faults.model import OUTPUT_PIN
from repro.logic.tables import GateType
from repro.logic.values import ONE, X, ZERO
from repro.obs.tracer import gate_tracer

if TYPE_CHECKING:
    from repro.vector.kernel import GoodWords, WindowOutcome

_np: Any
try:  # pragma: no cover - exercised via available()
    import numpy

    _np = numpy
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

#: The plane packs patterns into ``uint64`` elements.
MAX_PLANE_WIDTH = 64

#: Gate type -> (XOR form, input rails swapped, output rails swapped).
_FORMS: Dict[GateType, Tuple[bool, bool, bool]] = {
    GateType.AND: (False, False, False),
    GateType.NAND: (False, False, True),
    GateType.OR: (False, True, True),
    GateType.NOR: (False, True, False),
    GateType.BUF: (False, False, False),
    GateType.NOT: (False, False, True),
    GateType.XOR: (True, False, False),
    GateType.XNOR: (True, False, True),
}

#: Forcing entries: ``(target rows, plane columns, uint64 values)``.
_Forcing = Dict[Any, Tuple[Any, Any, Any]]


def available() -> bool:
    """Whether the numpy plane path can run in this environment."""
    return _np is not None


class _Step(NamedTuple):
    """One fused evaluation: the gates of one form in one level.

    Its *n* gates own plane rows ``start .. start + 2n``: the first *n*
    take the AND (XOR: parity) rail, the next *n* the OR (XOR: known)
    rail.  *index* lists the rows to gather, the first rails then the
    second ones, pin ``j`` of every gate after pin ``j - 1``; *counts*
    ``[j]`` is how many gates have a pin ``j`` (gates sorted by arity,
    widest first).
    """

    xor: bool
    index: Any
    counts: Tuple[int, ...]
    start: int


class _Plan(NamedTuple):
    """A circuit's plane layout and fused steps (see :func:`_build_plan`)."""

    rows: int
    sources: int
    one_row: List[int]
    zero_row: List[int]
    steps: List[_Step]
    place: Dict[int, Tuple[int, int]]
    d_index: Any
    scratch: int


def _build_plan(circuit: Any) -> _Plan:
    """Lay out a circuit's rails and fuse each level into per-form steps.

    The plane opens with the flip-flops' ones rails then their zeros
    rails (so a flip-flop's position is its row), then the other sources
    (inputs and constants); *sources* rows in all.  Each step's rows
    follow in level order.  *place* maps a gate to its ``(step,
    position)``, *d_index* lists the rows each flip-flop latches (ones
    rails, then zeros rails) and *scratch* is the row count the gather
    and fix-up blocks need.
    """
    gates = circuit.gates
    one_row = [0] * len(gates)
    zero_row = [0] * len(gates)
    rows = 0

    def lay_out(members: List[int]) -> int:
        """Give *members* their first rails, then their second rails."""
        nonlocal rows
        start = rows
        for position, gate_index in enumerate(members):
            first, second = start + position, start + len(members) + position
            form = _FORMS.get(gates[gate_index].gtype)
            if form is not None and form[2]:
                first, second = second, first
            one_row[gate_index], zero_row[gate_index] = first, second
        rows += 2 * len(members)
        return start

    constants = (GateType.CONST0, GateType.CONST1)
    lay_out(list(circuit.dffs))
    lay_out(list(circuit.inputs) + [i for i in circuit.order if gates[i].gtype in constants])
    sources = rows
    by_level: Dict[int, Tuple[List[int], List[int]]] = {}
    for gate_index in circuit.order:
        gate = gates[gate_index]
        if gate.gtype in constants:
            continue
        form = _FORMS.get(gate.gtype)
        if form is None:  # MACRO: the word engines run on flat circuits only
            raise ValueError(f"cannot evaluate gate type {gate.gtype} as a word")
        by_level.setdefault(gate.level, ([], []))[form[0]].append(gate_index)
    steps: List[_Step] = []
    place: Dict[int, Tuple[int, int]] = {}
    for level in sorted(by_level):
        for xor, members in enumerate(by_level[level]):
            if not members:
                continue
            members.sort(key=lambda index: -len(gates[index].fanin))
            start = lay_out(members)
            arities = [len(gates[index].fanin) for index in members]
            counts = tuple(sum(1 for a in arities if a > pin) for pin in range(arities[0]))
            firsts: List[int] = []
            seconds: List[int] = []
            for pin, count in enumerate(counts):
                for gate_index in members[:count]:
                    source = gates[gate_index].fanin[pin]
                    swapped = _FORMS[gates[gate_index].gtype][1]
                    firsts.append((zero_row if swapped else one_row)[source])
                    seconds.append((one_row if swapped else zero_row)[source])
            for position, gate_index in enumerate(members):
                place[gate_index] = (len(steps), position)
            index = _np.asarray(firsts + seconds, dtype=_np.intp)
            steps.append(_Step(bool(xor), index, counts, start))
    latched = [gates[ff_index].fanin[0] for ff_index in circuit.dffs]
    d_index = _np.asarray(
        [one_row[i] for i in latched] + [zero_row[i] for i in latched], dtype=_np.intp
    )
    scratch = max([len(step.index) for step in steps] + [4 * len(latched), 1])
    return _Plan(rows, sources, one_row, zero_row, steps, place, d_index, scratch)


def _fold(op: Any, operands: Any, counts: Tuple[int, ...], out: Any) -> None:
    """``out[i]`` = *op* over gate ``i``'s operands (pin ``j`` holds ``counts[j]`` rows)."""
    if len(counts) == 1:
        _np.copyto(out, operands)
        return
    width, pairs = counts[0], counts[1]
    op(operands[:pairs], operands[width : width + pairs], out=out[:pairs])
    if pairs < width:
        _np.copyto(out[pairs:], operands[pairs:width])
    offset = width + pairs
    for count in counts[2:]:
        op(out[:count], operands[offset : offset + count], out=out[:count])
        offset += count


def _sweep(plan: _Plan, plane: Any, scratch: Any, forcing: _Forcing) -> None:
    """One dense levelized settle of every gate row from the source rows.

    *plane* is the ``(rows, n)`` window plane, *scratch* a flat block of at
    least ``plan.scratch * n`` words; ``forcing[("pin", step)]`` overrides
    gathered operands and ``forcing[("out", step)]`` pins gate rows once
    the step has written them.
    """
    n = plane.shape[1]
    for step_no, (xor, index, counts, start) in enumerate(plan.steps):
        half = len(index) // 2
        block = scratch[: 2 * half * n].reshape(2 * half, n)
        # mode="raise" would buffer through a temporary; indices are in range.
        plane.take(index, axis=0, out=block, mode="clip")
        pins = forcing.get(("pin", step_no))
        if pins is not None:
            block[pins[0], pins[1]] = pins[2]
        firsts, seconds = block[:half], block[half:]
        width = counts[0]
        first = plane[start : start + width]
        second = plane[start + width : start + 2 * width]
        if xor:
            _np.bitwise_or(firsts, seconds, out=seconds)  # known slots
            _fold(_np.bitwise_xor, firsts, counts, first)
            _fold(_np.bitwise_and, seconds, counts, second)
            _np.bitwise_and(first, second, out=first)  # odd and known
            _np.bitwise_xor(second, first, out=second)  # even and known
        else:
            _fold(_np.bitwise_and, firsts, counts, first)
            _fold(_np.bitwise_or, seconds, counts, second)
        outs = forcing.get(("out", step_no))
        if outs is not None:
            plane[outs[0], outs[1]] = outs[2]


def simulate_window(
    sim: Any,
    active: List[int],
    snaps: List[List[int]],
    mask: int,
    good_words: GoodWords,
) -> List[WindowOutcome]:
    """Evaluate one pattern window for all *active* fault ids on the plane.

    Drop-in replacement for the kernel's per-fault
    ``_propagate_fault_window`` loop: returns the same
    ``(mismatch words, unknown words, outgoing_ff_diffs)`` tuple per
    fault, in *active* order.  *sim* is the calling
    :class:`~repro.vector.kernel.VectorFaultSimulator` (circuit, faults,
    carried diffs, counters and tracer are read from it); *good_words*
    holds every gate's good ``ones`` and ``xs`` words.
    """
    if _np is None:  # pragma: no cover - kernel refuses use_numpy without numpy
        raise RuntimeError("numpy plane requested but numpy is not installed")
    circuit = sim.circuit
    gates = circuit.gates
    counters = sim.counters
    trace = gate_tracer(sim.tracer)
    plan = getattr(sim, "_plane_plan", None)
    if plan is None:  # built once per simulator
        plan = sim._plane_plan = _build_plan(circuit)
    one_row, zero_row = plan.one_row, plan.zero_row
    u64 = _np.uint64
    one = u64(1)
    width = len(snaps)
    num_ffs = len(circuit.dffs)
    num_outputs = len(circuit.outputs)
    columns = len(active)
    flat = _np.frombuffer(
        mmap.mmap(-1, (plan.rows + plan.scratch) * columns * 8), dtype=u64
    )
    scratch = flat[plan.rows * columns :]

    window_ones, window_xs = good_words

    def rails(index: int) -> Tuple[int, int]:
        """The good machine's (ones, zeros) rails of one gate."""
        ones = window_ones[index]
        return ones, mask ^ (ones | window_xs[index])

    # Source rows start as the good machine's words, broadcast along the
    # fault axis; every gate row is computed by the first sweep.
    plane = flat[: plan.rows * columns].reshape(plan.rows, columns)
    for gate_index in range(len(gates)):
        if one_row[gate_index] < plan.sources:
            ones, zeros = rails(gate_index)
            plane[one_row[gate_index]] = ones
            plane[zero_row[gate_index]] = zeros

    # Per-fault forcing, one (targets, columns, values) entry per place it
    # applies: carried flip-flop diffs seed slot 0, forced sources are set
    # once, and the rest is applied on every sweep or fix-up pass.
    entries: Dict[Any, Tuple[List[int], List[int], List[int]]] = {}

    def force(key: Any, targets: Tuple[int, int], column: int, values: Tuple[int, int]) -> None:
        entry = entries.setdefault(key, ([], [], []))
        entry[0].extend(targets)
        entry[1].extend((column, column))
        entry[2].extend(values)

    for column, fid in enumerate(active):
        for ff_index, value in sim.ff_diffs[fid].items():
            force("seed", (one_row[ff_index], zero_row[ff_index]), column,
                  (int(value == ONE), int(value == ZERO)))
        fault = sim.faults[fid]
        forced = (mask, 0) if fault.value == ONE else (0, mask)
        gate_index = fault.gate
        if fault.pin == OUTPUT_PIN:
            targets = (one_row[gate_index], zero_row[gate_index])
            slot = plan.place.get(gate_index)
            if slot is None:  # a source: set once, and held if a flip-flop
                force("source", targets, column, forced)
                if gates[gate_index].gtype is GateType.DFF:
                    force("q", targets, column, forced)
            else:
                force(("out", slot[0]), targets, column, forced)
        elif gates[gate_index].gtype is GateType.DFF:
            force("d", (one_row[gate_index], zero_row[gate_index]), column, forced)
        else:
            step_no, position = plan.place[gate_index]
            counts = plan.steps[step_no].counts
            first = sum(counts[: fault.pin]) + position
            swapped = _FORMS[gates[gate_index].gtype][1]
            force(("pin", step_no), (first, first + sum(counts)), column,
                  (forced[1], forced[0]) if swapped else forced)
    forcing: _Forcing = {
        key: (
            _np.asarray(targets, dtype=_np.intp),
            _np.asarray(cols, dtype=_np.intp),
            _np.asarray(values, dtype=u64),
        )
        for key, (targets, cols, values) in entries.items()
    }
    seed = forcing.pop("seed", None)
    if seed is not None:
        targets, cols, values = seed
        plane[targets, cols] = (plane[targets, cols] & ~one) | values
    source = forcing.pop("source", None)
    if source is not None:
        plane[source[0], source[1]] = source[2]

    # What a row's outcome is read against: the good output words and the
    # good value each flip-flop latches in the last slot.
    output_rows = _np.asarray(
        [one_row[i] for i in circuit.outputs] + [zero_row[i] for i in circuit.outputs],
        dtype=_np.intp,
    )[:, None]
    good = _np.asarray([rails(i) for i in circuit.outputs], dtype=u64)
    good_ones, good_zeros = good[:, :1], good[:, 1:]
    last = u64(width - 1)
    good_latched = _np.asarray(
        [snaps[-1][gates[i].fanin[0]] for i in circuit.dffs], dtype=_np.intp
    )[:, None]
    latched_one = (good_latched == ONE).astype(u64)
    latched_zero = (good_latched == ZERO).astype(u64)
    outcomes: List[Any] = [None] * columns

    def read_off(plane: Any, d: Any, done: Any, fault_rows: Any) -> None:
        """Record the outcome of the fixpoint rows *done*."""
        outputs = plane[output_rows, done]
        f_ones, f_zeros = outputs[:num_outputs], outputs[num_outputs:]
        mismatch = (f_ones & good_zeros) | (f_zeros & good_ones)
        unknown = (good_ones | good_zeros) & ~(f_ones | f_zeros)
        d_last = (d[:, done] >> last) & one
        d_ones, d_zeros = d_last[:num_ffs], d_last[num_ffs:]
        differs = (d_ones != latched_one) | (d_zeros != latched_zero)
        rows = fault_rows[done].tolist()
        for row, row_mismatch, row_unknown in zip(
            rows, mismatch.T.tolist(), unknown.T.tolist()
        ):
            outcomes[row] = (row_mismatch, row_unknown, {})
        for position, i in zip(*(axis.tolist() for axis in _np.nonzero(differs))):
            value = ONE if d_ones[position, i] else ZERO if d_zeros[position, i] else X
            outcomes[rows[i]][2][circuit.dffs[position]] = value

    def sweep(n: int) -> Any:
        plane = flat[: plan.rows * n].reshape(plan.rows, n)
        _sweep(plan, plane, scratch, forcing)
        counters.fault_evaluations += len(circuit.order) * n
        if trace is not None:
            for gate_index in circuit.order:
                trace.fault_evals(gate_index, n)
        return plane

    # Settle, then close the sequential feedback.  A pass compares every
    # flip-flop's output words with its latched input shifted up one slot
    # (slot t+1 latches slot t), retires the rows it finds at their
    # fixpoint, moves the others' outputs on a slot and re-settles them.
    low = u64(mask >> 1)
    high = u64(mask & ~1)
    fault_rows = _np.arange(columns)
    plane = sweep(columns)
    for _ in range(width + 1):
        n = plane.shape[1]
        q = plane[: 2 * num_ffs]
        d = scratch[: 2 * num_ffs * n].reshape(2 * num_ffs, n)
        shifted = scratch[2 * num_ffs * n : 4 * num_ffs * n].reshape(2 * num_ffs, n)
        plane.take(plan.d_index, axis=0, out=d, mode="clip")
        pinned = forcing.get("d")
        if pinned is not None:
            d[pinned[0], pinned[1]] = pinned[2]
        held = forcing.get("q")
        _np.right_shift(q, one, out=shifted)
        _np.bitwise_xor(shifted, d, out=shifted)
        _np.bitwise_and(shifted, low, out=shifted)
        if held is not None:
            shifted[held[0], held[1]] = 0
        changing = shifted.any(axis=0)
        _np.left_shift(d, one, out=shifted)
        _np.bitwise_and(shifted, high, out=shifted)
        _np.bitwise_and(q, one, out=q)
        _np.bitwise_or(q, shifted, out=q)
        if held is not None:
            q[held[0], held[1]] = held[2]
        keep = _np.flatnonzero(changing)
        if len(keep) < n:
            read_off(plane, d, _np.flatnonzero(~changing), fault_rows)
            if not len(keep):
                break
            _compact(flat, plan.sources, n, keep, scratch, forcing)
            fault_rows = fault_rows[keep]
        plane = sweep(len(keep))
    else:  # pragma: no cover - precluded by the pass bound
        raise RuntimeError(
            f"plane window failed to converge within {width + 1} passes"
        )
    return outcomes


def _compact(
    flat: Any, sources: int, n: int, keep: Any, scratch: Any, forcing: _Forcing
) -> None:
    """Keep columns *keep* of the plane's source rows and of *forcing*.

    The ``(sources, n)`` rows at the head of *flat* become ``(sources,
    len(keep))`` rows in place: blocks of rows pass through *scratch*, and
    a block lands no later in *flat* than where it was read from.
    """
    new = len(keep)
    old = flat[: sources * n].reshape(sources, n)
    block = len(scratch) // new
    for begin in range(0, sources, block):
        end = min(begin + block, sources)
        part = scratch[: (end - begin) * new].reshape(end - begin, new)
        old[begin:end].take(keep, axis=1, out=part, mode="clip")
        flat[begin * new : end * new] = part.ravel()
    remap = _np.full(n, -1, dtype=_np.intp)
    remap[keep] = _np.arange(new)
    for key, (targets, columns, values) in list(forcing.items()):
        columns = remap[columns]
        live = columns >= 0
        if live.any():
            forcing[key] = (targets[live], columns[live], values[live])
        else:
            del forcing[key]
