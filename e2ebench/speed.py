"""Host-speed correction for the benchmark's timed regions.

The benchmark runs on shared virtual CPUs whose speed changes in episodes
of ten seconds to a minute, by up to a third: a fixed pure-Python loop
swung between 30 and 41 ms per block over 150 s, and a fixed 1-s s820
campaign between 0.63 and 1.18 s.  Longer runs and medians barely narrow
that, because one episode outlasts a whole run.

A *speed probe* -- a fixed piece of this module's own pure-Python code
that takes 0.2-0.5 ms -- is therefore timed every
:data:`PROBE_PERIOD_S` of wall time while the program runs, from a
``SIGALRM`` handler, so the probe sees the host as the program sees it at
that moment.  Each stretch of timed program time is scaled by
``REFERENCE_PROBE_S / t`` where ``t`` is the probe time that closes the
stretch.  The scaled sum estimates how long the program calls would have
taken on a host where the probe takes :data:`REFERENCE_PROBE_S`, which is
the benchmark's reference host speed.

The probe imports nothing from the program, allocates almost nothing and
runs with the garbage collector off, so nothing the program does changes
the probe's cost except the host's speed.  The probe's own time is
excluded from the timed regions.  Outside a timed region the alarm only
marks a probe as due, and the probe runs before the next region starts.
"""

from __future__ import annotations

import contextlib
import gc
import random
import signal
import statistics
import time
from typing import Iterator, List, Optional, Tuple

#: Wall seconds between two probes.
PROBE_PERIOD_S = 0.02
#: Probe time at the reference host speed.  A fixed constant: inside
#: runs on the measurement host the probe's median was 0.25-0.41 ms.
REFERENCE_PROBE_S = 0.0004
#: Probes taken when the clock starts and discarded: the first runs of the
#: probe's code are slower than the rest.
WARMUP_PROBES = 3

_GATES = 1024
_rng = random.Random(7)
_FANIN = [(_rng.randrange(_GATES), _rng.randrange(_GATES)) for _ in range(_GATES)]
_KIND = [_rng.randrange(4) for _ in range(_GATES)]
_TABLE = {
    (a, b, kind): (a & b, a | b, a ^ b, 1 - a)[kind]
    for a in (0, 1) for b in (0, 1) for kind in range(4)
}
_START = [gate & 1 for gate in range(_GATES)]


def probe() -> float:
    """Seconds that the fixed probe work takes now: one pass of a small
    gate-level evaluation over lists, tuples and dicts."""
    collecting = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    values = _START[:]
    changed: dict = {}
    for gate in range(_GATES):
        a, b = _FANIN[gate]
        value = _TABLE[values[a], values[b], _KIND[gate]]
        if value != values[gate]:
            values[gate] = value
            changed[gate] = changed.get(gate, 0) + 1
    elapsed = time.perf_counter() - started
    if collecting:
        gc.enable()
    return elapsed


class Region:
    """The net wall seconds of one timed region (probe time excluded)."""

    def __init__(self) -> None:
        self.seconds = 0.0


class WallClock:
    """Times regions with plain wall time: no probes, no scaling."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self._split = 0.0

    @contextlib.contextmanager
    def region(self) -> Iterator[Region]:
        timed = Region()
        started = time.perf_counter()
        try:
            yield timed
        finally:
            timed.seconds = time.perf_counter() - started
            self.wall_s += timed.seconds

    def split(self) -> Tuple[float, float]:
        """``(wall, scaled)`` seconds in regions since the last split."""
        wall, self._split = self.wall_s - self._split, self.wall_s
        return wall, wall


class HostClock(WallClock):
    """Times regions and scales them to the reference host speed.

    Use inside :meth:`running`, from the main thread (the only one that
    may set signal handlers); it arms the alarm and restores the previous
    handler on the way out.
    """

    def __init__(self, period: float = PROBE_PERIOD_S) -> None:
        super().__init__()
        self.period = period
        self.scaled_s = 0.0
        self.probes: List[float] = []
        self._pending = 0.0
        self._mark: Optional[float] = None
        self._region: Optional[Region] = None
        self._due = False
        self._busy = False
        self._split_scaled = 0.0

    @contextlib.contextmanager
    def running(self) -> Iterator["HostClock"]:
        for _ in range(WARMUP_PROBES):
            probe()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            self._take()
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @contextlib.contextmanager
    def region(self) -> Iterator[Region]:
        if self._due:
            self._take()
        timed = Region()
        self._region = timed
        self._mark = time.perf_counter()
        try:
            yield timed
        finally:
            self._close(time.perf_counter())
            self._mark = None
            self._region = None

    def split(self) -> Tuple[float, float]:
        """Probe now, then ``(wall, scaled)`` seconds since the last split."""
        self._take()
        wall = self.wall_s - self._split
        scaled = self.scaled_s - self._split_scaled
        self._split, self._split_scaled = self.wall_s, self.scaled_s
        return wall, scaled

    def speed_line(self) -> str:
        """The probe times of a finished run (at least two), for the report."""
        q1, median, q3 = statistics.quantiles(self.probes, n=4)
        return (
            f"speed probes   n={len(self.probes)}  q1 {q1 * 1e3:.3f} ms  median {median * 1e3:.3f} ms  "
            f"q3 {q3 * 1e3:.3f} ms  (reference {REFERENCE_PROBE_S * 1e3:.3f} ms)"
        )

    def _close(self, now: float) -> None:
        """Count the open stretch of a region up to *now* as timed."""
        stretch = now - self._mark
        self._mark = now
        self._pending += stretch
        self.wall_s += stretch
        self._region.seconds += stretch

    def _take(self) -> None:
        """Probe, and scale the timed seconds still pending by its time."""
        seconds = probe()
        self.probes.append(seconds)
        self.scaled_s += self._pending * REFERENCE_PROBE_S / seconds
        self._pending = 0.0
        self._due = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            if self._mark is None:
                self._due = True
                return
            self._close(time.perf_counter())
            self._take()
            self._mark = time.perf_counter()
        finally:
            self._busy = False
