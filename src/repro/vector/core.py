"""The word core: one levelized, event-driven settle over packed words.

PROOFS groups (:mod:`repro.baselines.proofs`, one slot per fault machine)
and vsim's scalar pattern windows (:mod:`repro.vector.kernel`, one slot
per clock cycle) run one algorithm: start from the good machine's words,
seed flip-flop diffs and fault injections, and settle the touched cones
level by level, all slots at once.  :class:`WordPlan` compiles a flat
circuit for it once per simulator (gate codes, levels, fanins, fanouts
split into combinational sinks and flip-flops, and the per-gate packed
tables the good machine settles through); :class:`WordMachine` holds one
group's or window's ``(ones, xs)`` word per gate (the encoding of
:mod:`repro.vector.packing`) and its forcing, a ``(clear, set)`` mask pair
per forced input pin or output.  A forced word keeps its other slots and
takes ``set`` in the ``clear`` slots; stuck values are binary, so forced
slots are never X.  Every evaluation, event and scheduled gate is counted
and traced in the order the engines have always reported them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.circuit.netlist import Circuit
from repro.faults.model import OUTPUT_PIN
from repro.logic.tables import GateType, shared_eval_tables
from repro.logic.values import ONE, X, ZERO
from repro.obs.tracer import Tracer
from repro.result import WorkCounters
from repro.vector.packing import broadcast_word

#: Gate codes of the core's algebra; sources (inputs, flip-flops) are -1.
AND, NAND, OR, NOR, XOR, XNOR, BUF, NOT, CONST0, CONST1 = range(10)
CODES: Dict[GateType, int] = {GateType.INPUT: -1, GateType.DFF: -1}
CODES.update(
    (gtype, code)
    for code, gtype in enumerate(
        (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR, GateType.XOR,
         GateType.XNOR, GateType.BUF, GateType.NOT, GateType.CONST0, GateType.CONST1)
    )
)

_ONE_DIGITS = bytes.maketrans(bytes((0, 1, X)), b"010")
_X_DIGITS = bytes.maketrans(bytes((0, 1, X)), b"001")


def evaluate_word(
    code: int, fanin: Sequence[int], ones: Sequence[int], xs: Sequence[int], mask: int
) -> Tuple[int, int]:
    """The ``(ones, xs)`` output of gate *code* over the words at *fanin*.

    Operand words lie inside *mask* with ``ones & xs`` empty, and so does
    the result; the semantics are those of
    :func:`repro.vector.packing.evaluate_gate_word`.
    """
    if code <= NOR:
        if code <= NAND:
            one = nonzero = mask
            for source in fanin:
                one &= ones[source]
                nonzero &= ones[source] | xs[source]
        else:
            one = nonzero = 0
            for source in fanin:
                one |= ones[source]
                nonzero |= ones[source] | xs[source]
        # one lies inside nonzero: the X slots are the rest of it.
        return (mask ^ nonzero if code in (NAND, NOR) else one, nonzero ^ one)
    if code <= XNOR:
        one = unknown = 0
        for source in fanin:
            one ^= ones[source]
            unknown |= xs[source]
        one &= ~unknown
        return (mask ^ (one | unknown) if code == XNOR else one, unknown)
    if code == BUF:
        return (ones[fanin[0]], xs[fanin[0]])
    if code == NOT:
        return (mask ^ (ones[fanin[0]] | xs[fanin[0]]), xs[fanin[0]])
    if code in (CONST0, CONST1):
        return (mask if code == CONST1 else 0, 0)
    raise ValueError(f"gate code {code} is not combinational")


def broadcast(values: Sequence[int], mask: int) -> Tuple[List[int], List[int]]:
    """Every gate's ``ones`` and ``xs`` words holding its value of *values*
    in every slot of *mask*."""
    ones, xs = zip(*(broadcast_word(value, mask) for value in (ZERO, ONE, X)))
    return [ones[value] for value in values], [xs[value] for value in values]


def each_slot(word: int) -> Iterator[int]:
    """The set slots of *word*, lowest first."""
    while word:
        low = word & -word
        yield low.bit_length() - 1
        word ^= low


def pack_slots(snaps: Sequence[Sequence[int]]) -> Tuple[List[int], List[int]]:
    """Every gate's ``ones`` and ``xs`` words over *snaps* (one list of
    settled values per slot, at least one), slot ``t`` = ``snaps[t]``."""
    ones: List[int] = []
    xs: List[int] = []
    for column in zip(*snaps):
        digits = bytes(column)[::-1]  # slot 0 is the low bit
        ones.append(int(digits.translate(_ONE_DIGITS), 2))
        xs.append(int(digits.translate(_X_DIGITS), 2))
    return ones, xs


class WordPlan:
    """A flat circuit compiled for the word core, once per simulator."""

    def __init__(self, circuit: Circuit) -> None:
        gates = circuit.gates
        for gate in gates:
            if gate.gtype not in CODES:
                raise ValueError(
                    f"the word engines run on flat circuits: cannot evaluate {gate.gtype}"
                )
        self.codes = [CODES[gate.gtype] for gate in gates]
        self.levels = [gate.level for gate in gates]
        self.fanins = [gate.fanin for gate in gates]
        flip_flop = [gate.gtype is GateType.DFF for gate in gates]
        self.comb_fanout = [tuple(s for s in g.fanout if not flip_flop[s]) for g in gates]
        self.ff_fanout = [tuple(s for s in g.fanout if flip_flop[s]) for g in gates]
        self.depth = circuit.num_levels + 1
        self.inputs = circuit.inputs
        tables = shared_eval_tables(circuit)
        self.good_steps: List[Tuple[int, Any, Tuple[int, ...]]] = [
            (index, tables[index], gates[index].fanin) for index in circuit.order
        ]

    def settle_good(self, values: List[int], vector: Sequence[int]) -> None:
        """Apply *vector* and settle the good machine's *values* in place:
        one packed-table lookup per gate in level order, flip-flops held
        (what :meth:`repro.sim.logicsim.LogicSimulator.settle` computes)."""
        if len(vector) != len(self.inputs):
            raise ValueError(
                f"vector has {len(vector)} values for {len(self.inputs)} inputs"
            )
        for index, value in zip(self.inputs, vector):
            values[index] = value
        for index, table, fanin in self.good_steps:
            packed = 0
            shift = 0
            for source in fanin:
                packed |= values[source] << shift
                shift += 2
            values[index] = table[packed]


class WordMachine:
    """The faulty machines of one PROOFS group or vsim window.

    *ones* and *xs* (owned by the machine from here on) start as the good
    machine's words, one per gate; *mask* covers the slots in use.
    """

    def __init__(
        self, plan: WordPlan, ones: List[int], xs: List[int], mask: int,
        counters: WorkCounters, trace: Optional[Tracer],
    ) -> None:
        self.plan = plan
        self.ones = ones
        self.xs = xs
        self.mask = mask
        self.counters = counters
        self.trace = trace
        #: (gate, pin or OUTPUT_PIN) -> [clear, set].
        self.forcing: Dict[Tuple[int, int], List[int]] = {}
        self._forced: Set[int] = set()
        #: Flip-flops whose D input may differ from the good machine's.
        self.dirty_ffs: Set[int] = set()
        self._queue: List[List[int]] = [[] for _ in range(plan.depth)]
        self._queued = bytearray(len(ones))

    def force(self, gate: int, pin: int, slots: int, value: int) -> None:
        """Hold *pin* of *gate* (its output for ``OUTPUT_PIN``) at binary
        *value* in *slots*: an output now and at every evaluation, an input
        by scheduling the gate (marking a flip-flop dirty)."""
        masks = self.forcing.setdefault((gate, pin), [0, 0])
        masks[0] |= slots
        if value == ONE:
            masks[1] |= slots
        self._forced.add(gate)
        if pin == OUTPUT_PIN:
            self.set_slots(gate, slots, value)
        else:
            self.touch(gate)

    def set_slots(self, gate: int, slots: int, value: int) -> None:
        """Write *value* into *slots* of *gate*'s word (an event if it changes)."""
        one = self.ones[gate] & ~slots
        x = self.xs[gate] & ~slots
        self.set_word(gate, one | slots if value == ONE else one, x | slots if value == X else x)

    def set_word(self, gate: int, one: int, x: int) -> bool:
        """Store *gate*'s word; an event (fanout scheduled) when it changed."""
        if one == self.ones[gate] and x == self.xs[gate]:
            return False
        self.ones[gate] = one
        self.xs[gate] = x
        self.counters.events += 1
        if self.trace is not None:
            self.trace.event(gate)
        for sink in self.plan.comb_fanout[gate]:
            self.touch(sink)
        self.dirty_ffs.update(self.plan.ff_fanout[gate])
        return True

    def touch(self, gate: int) -> None:
        """Schedule a combinational gate; mark a flip-flop dirty."""
        if self.plan.codes[gate] < 0:
            self.dirty_ffs.add(gate)
        elif not self._queued[gate]:
            self._queued[gate] = 1
            level = self.plan.levels[gate]
            self._queue[level].append(gate)
            self.counters.gates_scheduled += 1
            if self.trace is not None:
                self.trace.scheduled(gate, level)

    def operand(self, gate: int, pin: int) -> Tuple[int, int]:
        """The word input *pin* of *gate* reads, forcing applied (a
        flip-flop's pin 0 is the D word it latches)."""
        source = self.plan.fanins[gate][pin]
        return self._apply(gate, pin, self.ones[source], self.xs[source])

    def _apply(self, gate: int, pin: int, one: int, x: int) -> Tuple[int, int]:
        masks = self.forcing.get((gate, pin))
        if masks is None:
            return (one, x)
        return ((one & ~masks[0]) | masks[1], x & ~masks[0])

    def _forced_word(self, gate: int) -> Tuple[int, int]:
        pins = range(len(self.plan.fanins[gate]))
        operands = [self.operand(gate, pin) for pin in pins]
        one, x = evaluate_word(
            self.plan.codes[gate], pins, [word[0] for word in operands],
            [word[1] for word in operands], self.mask,
        )
        return self._apply(gate, OUTPUT_PIN, one, x)

    def settle(self) -> None:
        """Evaluate the scheduled gates level by level until the cones settle.

        The loop inlines :meth:`set_word` and :meth:`touch`: it runs once
        per gate evaluation, where a method call per event and per sink
        would cost more than the word algebra.
        """
        plan = self.plan
        codes, fanins, levels = plan.codes, plan.fanins, plan.levels
        comb_fanout, ff_fanout = plan.comb_fanout, plan.ff_fanout
        ones, xs, mask = self.ones, self.xs, self.mask
        forced, queue, queued = self._forced, self._queue, self._queued
        trace = self.trace
        evaluations = events = scheduled = 0
        for bucket in queue[1:]:
            evaluations += len(bucket)
            for gate in bucket:
                queued[gate] = 0
                if trace is not None:
                    trace.fault_evals(gate)
                if gate in forced:
                    one, x = self._forced_word(gate)
                else:
                    one, x = evaluate_word(codes[gate], fanins[gate], ones, xs, mask)
                if one == ones[gate] and x == xs[gate]:
                    continue
                ones[gate] = one
                xs[gate] = x
                events += 1
                if trace is not None:
                    trace.event(gate)
                for sink in comb_fanout[gate]:
                    if not queued[sink]:
                        queued[sink] = 1
                        queue[levels[sink]].append(sink)
                        scheduled += 1
                        if trace is not None:
                            trace.scheduled(sink, levels[sink])
                if ff_fanout[gate]:
                    self.dirty_ffs.update(ff_fanout[gate])
            bucket.clear()
        self.counters.fault_evaluations += evaluations
        self.counters.events += events
        self.counters.gates_scheduled += scheduled
