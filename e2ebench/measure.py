"""Statistics helpers shared by the benchmark runner, its tests and
``spread.py``: percentiles that refuse thin tails, run-to-run spread and
report tables.

Standard library only, so importing this module never imports ``repro``.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it (so p50 needs 20 samples and p90 needs 100).
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples lie beyond the requested percentile."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile *q* (in (0, 1)) of *samples*.

    Raises :class:`InsufficientSamples` unless at least :data:`MIN_BEYOND`
    samples lie beyond it: a p90 over 30 samples is three samples, not a
    tail, and reporting it would pass noise off as a measurement.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile must be in (0, 1), got {q}")
    rank = math.ceil(q * len(samples))
    if len(samples) - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{round(q * 100)} needs {MIN_BEYOND} samples beyond it; "
            f"{len(samples)} samples leave {max(len(samples) - rank, 0)}"
        )
    return sorted(samples)[rank - 1]


def maybe_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """:func:`percentile`, or None where it must not be reported."""
    try:
        return percentile(samples, q)
    except InsufficientSamples:
        return None


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median: the rule the
    bounds in ``BENCHMARK.json`` are checked against."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else math.inf


def format_table(rows: List[List[str]]) -> str:
    """Left-aligned first column, right-aligned rest."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [
            cell.rjust(width) for cell, width in zip(row[1:], widths[1:])
        ]
        lines.append("  ".join(cells))
    return "\n".join(lines)
