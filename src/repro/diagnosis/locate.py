"""Dictionary-based fault location.

Given the failures a tester observed from a defective device, rank the
dictionary's faults by how well their simulated signatures explain the
observation.  Exact matches are reported as such (up to the dictionary's
resolution — equivalence groups share signatures); otherwise candidates
are ranked by signature similarity, the standard fallback when the defect
is not a perfect single-stuck-line (bridging defects, multiple faults,
flaky failures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Tuple

from repro.diagnosis.dictionary import FaultDictionary
from repro.faults.model import Fault


@dataclass(frozen=True)
class Candidate:
    """One ranked explanation for the observed failures."""

    fault: Fault
    score: float
    exact: bool
    matched: int
    missed: int
    extra: int


@dataclass(frozen=True)
class DiagnosisResult:
    """Outcome of matching an observation against a dictionary."""

    observed: FrozenSet
    candidates: Tuple[Candidate, ...]

    @property
    def exact_candidates(self) -> List[Fault]:
        return [c.fault for c in self.candidates if c.exact]

    @property
    def best(self) -> Candidate:
        if not self.candidates:
            raise ValueError("no candidate faults (empty dictionary?)")
        return self.candidates[0]

    def summary(self) -> str:
        if not self.candidates:
            return "no candidates"
        exact = self.exact_candidates
        if exact:
            return f"exact match: {len(exact)} equivalent candidate(s)"
        best = self.best
        return f"closest: {best.fault} (score {best.score:.3f})"


def diagnose(
    dictionary: FaultDictionary,
    observed_failures: Iterable,
    top: int = 10,
) -> DiagnosisResult:
    """Rank the dictionary's faults against *observed_failures*.

    *observed_failures* uses the dictionary's own signature domain:
    (cycle, output-position) tuples for a full-response dictionary,
    cycle numbers for a pass/fail one.

    A candidate's score is the Jaccard similarity of its signature and
    the observation: ``matched`` failures it predicts and the tester saw,
    over ``matched + missed + extra``, where ``missed`` are observed
    failures it does not predict and ``extra`` are predicted ones the
    tester did not see.  Both kinds of mismatch count equally.  Faults
    that match nothing (undetected ones included) are not candidates.
    The top *top* candidates are returned, by score, then fault order.

    Faults with one signature score alike, so each signature class of
    :attr:`FaultDictionary.classes` is scored once, from the popcount of
    its mask and the observation's, and its members are listed only while
    the class can still reach the top *top*.
    """
    if top < 1:
        raise ValueError(f"top must be at least 1, got {top}")
    observed = frozenset(observed_failures)
    classes = dictionary.classes
    query = classes.query_mask(observed)
    ranked: List[Tuple[float, int, int]] = []
    for index, (mask, size) in enumerate(zip(classes.masks, classes.sizes)):
        matched = (mask & query).bit_count()
        if matched:
            # failures in the observation or the signature or both
            union = len(observed) + size - matched
            ranked.append((-(matched / union), index, matched))
    ranked.sort()  # best score first; ties in first-member (fault) order
    candidates: List[Candidate] = []
    for negated, index, matched in ranked:
        score = -negated
        if len(candidates) >= top and score < candidates[top - 1].score:
            break  # classes come in score order: none after this can place
        missed = len(observed) - matched
        extra = classes.sizes[index] - matched
        exact = missed == 0 and extra == 0
        candidates.extend(
            Candidate(fault, score, exact, matched, missed, extra)
            for fault in classes.members[index]
        )
    candidates.sort(key=lambda c: (-c.score, c.fault))
    return DiagnosisResult(observed=observed, candidates=tuple(candidates[:top]))
