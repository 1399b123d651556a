"""Structural fault collapsing with full-universe expansion.

The paper's concurrent machinery spends its time walking per-gate fault
element lists, so the cheapest speedup available is simulating fewer
faults.  This pass groups a fault universe into the structural
equivalence classes of :mod:`repro.faults.collapse` — the classic
gate-local rules (AND input ``s-a-0`` ≡ output ``s-a-0``, NOT input
``s-a-v`` ≡ output ``s-a-(1-v)``, buffer/inverter chains folded
transitively through singly-loaded stems) — and keeps one representative
per class.  Equivalent faults produce *functionally identical* faulty
machines: every member of a class is detected on exactly the same cycle
(and potentially-detected on the same cycle) as its representative, in
two- and three-valued simulation alike.  Expansion through the class map
is therefore **exact** — bit-identical to simulating the full universe.

Faults are never merged across flip-flop boundaries: a D-pin fault is
observed one cycle later than the matching Q fault, and the simulators
report first-detection times.
"""

from __future__ import annotations

import hashlib
from operator import itemgetter
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.circuit.netlist import Circuit
from repro.faults.collapse import representative_map, stuck_at_union, transition_union
from repro.faults.model import Fault
from repro.faults.transition import all_transition_faults
from repro.faults.universe import all_stuck_at_faults
from repro.result import Failure, FaultSimResult


@dataclass(frozen=True)
class CollapsedUniverse:
    """One representative per equivalence class, plus the way back.

    ``member_to_rep`` maps every universe fault to its kept
    representative: equivalent machines are identical, so the member
    inherits the representative's detection (and potential-detection)
    cycles verbatim.
    """

    transition: bool
    universe: Tuple[Fault, ...]
    representatives: Tuple[Fault, ...]
    member_to_rep: Dict[Fault, Fault]

    @property
    def num_universe(self) -> int:
        return len(self.universe)

    @property
    def num_representatives(self) -> int:
        return len(self.representatives)

    @property
    def ratio(self) -> float:
        """Fraction of the universe removed by collapsing, in [0, 1]."""
        if not self.universe:
            return 0.0
        return 1.0 - self.num_representatives / self.num_universe

    def summary(self) -> str:
        kind = "transition" if self.transition else "stuck-at"
        return (
            f"collapse[equivalence] {kind}: {self.num_universe} -> "
            f"{self.num_representatives} representatives "
            f"({100.0 * self.ratio:.1f}% reduction)"
        )

    def fingerprint_material(self) -> Tuple:
        """Deterministic token binding checkpoints to this exact map.

        A resumed run must replay the same representatives *and* the same
        expansion; hashing the full map (not just the flag) catches a
        netlist or rule change between checkpoint and resume.
        """
        digest = hashlib.sha256()
        for member in self.universe:
            rep = self.member_to_rep[member]
            digest.update(f"{member._sort_key()}={rep._sort_key()};".encode("ascii"))
        return ("collapse", "equivalence", digest.hexdigest())

    def _expand_map(self, cycles: Dict[Fault, int]) -> Dict[Fault, int]:
        expanded: List[Tuple[int, Fault]] = []
        for member in self.universe:
            cycle = cycles.get(self.member_to_rep[member])
            if cycle is not None:
                expanded.append((cycle, member))
        # The universe is in fault order and the sort is stable, so this
        # is (cycle, fault) order without comparing faults.
        expanded.sort(key=itemgetter(0))
        return {fault: cycle for cycle, fault in expanded}

    def expand(self, result: FaultSimResult) -> FaultSimResult:
        """Rewrite a representatives-only result onto the full universe.

        Detections are rebuilt in (cycle, fault) order — the same
        deterministic convention :func:`repro.parallel.merge.merge_results`
        uses — and ``num_faults`` becomes the universe size so coverage
        denominators match an uncollapsed run.  Recorded responses are
        expanded too (:meth:`expand_responses`).  Work counters, memory and
        wall time are left as measured: they describe the work actually
        done, which is the point of collapsing.
        """
        return replace(
            result,
            num_faults=self.num_universe,
            detected=self._expand_map(result.detected),
            potentially_detected=self._expand_map(result.potentially_detected),
            responses=(
                None
                if result.responses is None
                else self.expand_responses(result.responses)
            ),
        )

    def expand_responses(
        self, responses: Dict[Fault, Tuple[Failure, ...]]
    ) -> Dict[Fault, Tuple[Failure, ...]]:
        """Rewrite a representatives-only response map onto the universe.

        Equivalent machines are identical, so every class member inherits
        its representative's full failing-response tuple verbatim — the
        exactness theorem that makes collapsed fault dictionaries
        bit-identical to full-universe ones.  The result is keyed in
        sorted fault order.
        """
        expanded: Dict[Fault, Tuple[Failure, ...]] = {}
        for member in self.universe:
            rep = self.member_to_rep[member]
            expanded[member] = responses.get(rep, ())
        return expanded


def collapse_universe(
    circuit: Circuit,
    faults: Optional[Iterable[Fault]] = None,
    *,
    transition: bool = False,
) -> CollapsedUniverse:
    """Collapse a fault universe down to equivalence-class representatives.

    ``faults`` defaults to the full uncollapsed universe
    (:func:`~repro.faults.universe.all_stuck_at_faults`, or
    :func:`~repro.faults.transition.all_transition_faults` with
    ``transition``); pass an explicit list — e.g. the survivors of
    ``--prune-untestable`` — to collapse just those.  Classes come from
    the union over every structural site, so listed faults merge even
    when the site linking them is not listed.
    """
    if faults is None:
        faults = (
            all_transition_faults(circuit) if transition else all_stuck_at_faults(circuit)
        )
    universe = sorted(set(faults))
    uf = transition_union(circuit) if transition else stuck_at_union(circuit)
    member_to_rep = representative_map(uf, universe)
    return CollapsedUniverse(
        transition=transition,
        universe=tuple(universe),
        representatives=tuple(f for f, rep in member_to_rep.items() if f is rep),
        member_to_rep=member_to_rep,
    )
