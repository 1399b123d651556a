"""Levelization of the combinational network.

Zero-delay fault simulation of a synchronous circuit needs gates evaluated
"orderly according to its level, where the level of a gate is assigned so
that all its fanins are at the lower levels" (Section 2.1).  Primary inputs
and flip-flop outputs are the level-0 sources; every combinational gate gets
level ``1 + max(level of fanins)``.  A combinational cycle (a feedback path
not broken by a flip-flop) is a modelling error for this class of circuits
and is reported with the offending gates named.
"""

from __future__ import annotations

from collections import deque
from typing import List, Sequence, Tuple

from repro.circuit.netlist import Circuit, Gate, NetlistError
from repro.logic.tables import COMBINATIONAL_TYPES


class LevelizationError(NetlistError):
    """Raised when the combinational part of a circuit contains a cycle.

    A :class:`NetlistError` subclass: a cyclic netlist is a malformed
    netlist, and callers hardened against bad input (the CLI, the
    ``.bench`` fuzz tests) catch the base class.
    """


def settle_order(
    fanins: Sequence[Sequence[int]], comb: Sequence[bool]
) -> Tuple[List[int], List[int]]:
    """Kahn's pass over the combinational gates of a fanin-index graph.

    ``comb[i]`` says whether gate *i* is combinational; every other gate
    is a level-0 source, so edges out of flip-flops are cut and only true
    combinational feedback stays cyclic.  Returns the combinational gates
    in the order the pass settles them and every gate's level (``1 + max``
    over its fanin).  On a cycle the order is short: the gates it misses
    lie on a cycle or behind one.
    """
    pending = [0] * len(fanins)
    sinks: List[List[int]] = [[] for _ in fanins]
    for index, fanin in enumerate(fanins):
        if comb[index]:
            for source in fanin:
                if comb[source]:
                    pending[index] += 1
                    sinks[source].append(index)
    ready = deque(index for index, count in enumerate(pending) if comb[index] and not count)
    levels = [0] * len(fanins)
    order: List[int] = []
    while ready:
        index = ready.popleft()
        levels[index] = 1 + max((levels[source] for source in fanins[index]), default=0)
        order.append(index)
        for sink in sinks[index]:
            pending[sink] -= 1
            if not pending[sink]:
                ready.append(sink)
    return order, levels


def find_cycle(fanins: Sequence[Sequence[int]], within: Sequence[int]) -> List[int]:
    """Locate one concrete combinational cycle among the gates *within*.

    Iterative DFS restricted to the stuck subgraph; returns the gate indices
    of the cycle with the entry gate repeated at the end (``a -> b -> a``),
    or an empty list when no cycle exists among *within*.
    """
    candidates = set(within)
    color = {index: 0 for index in candidates}  # 0 white, 1 on stack, 2 done
    for start in within:
        if color[start] != 0:
            continue
        stack = [(start, iter(fanins[start]))]
        color[start] = 1
        path = [start]
        while stack:
            node, fanin_iter = stack[-1]
            advanced = False
            for src in fanin_iter:
                if src not in candidates:
                    continue
                if color[src] == 1:
                    return path[path.index(src):] + [src]
                if color[src] == 0:
                    color[src] = 1
                    path.append(src)
                    stack.append((src, iter(fanins[src])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                path.pop()
                stack.pop()
    return []


def level_gates(name: str, gates: Sequence[Gate]) -> Tuple[List[int], List[int]]:
    """:func:`settle_order` over *gates*, raising on a combinational cycle.

    A gate counts as combinational by its type; one without a type (a
    rejected netlist statement) is a source.  The error names the stuck
    gates and one concrete cycle, at the first source line among them.
    """
    fanins = [gate.fanin for gate in gates]
    comb = [gate.gtype in COMBINATIONAL_TYPES for gate in gates]
    order, levels = settle_order(fanins, comb)
    if len(order) < sum(comb):
        settled = set(order)
        stuck = [index for index in range(len(gates)) if comb[index] and index not in settled]
        path = find_cycle(fanins, stuck)
        detail = f"; cycle: {' -> '.join(gates[i].name for i in path)}" if path else ""
        names = sorted(gates[index].name for index in stuck)
        raise LevelizationError(
            f"combinational cycle in {name!r} through gates: "
            f"{', '.join(names[:10])}{detail}",
            "combinational-cycle",
            min(gates[index].line for index in stuck),
        )
    return order, levels


def levelize(circuit: Circuit) -> None:
    """Assign levels in-place and record the evaluation order on *circuit*."""
    order, levels = level_gates(circuit.name, circuit.gates)
    for gate, level in zip(circuit.gates, levels):
        gate.level = level
    # Stable level-major order: Kahn's queue already emits non-decreasing
    # levels only for unit-delay-like graphs, so sort explicitly (stable on
    # insertion order within a level, which keeps runs deterministic).
    order.sort(key=levels.__getitem__)
    circuit.order = tuple(order)
    circuit.num_levels = max(levels, default=0)
