"""Outside-in per-layer tracing for the traced benchmark run.

Wrappers exist only in traced mode.  :func:`install` replaces each timed
public function of the program with a wrapper that records a span, on
every module attribute and class attribute through which callers reach it
(so ``repro.serve.service.cache_key`` and ``repro.serve.cache.cache_key``
are both covered).  :meth:`SpanRecorder.uninstall` restores the originals.

Spans are taken per call or per engine step, never per gate.  Each span
records a name (``layer.function``), start, end, parent and trace id; all
spans under one benchmark operation share that operation's trace id, and
the operation's root span id equals the trace id (the convention of
:mod:`repro.obs.span`).  Spans stay in memory until :meth:`SpanRecorder.write`
writes them once, as ``spans-bench-<pid>.jsonl`` records that
``repro inspect`` renders.

Shard worker processes are forked from the traced process; an at-fork hook
restores the original functions in the child, so spans stop at the
process boundary and shard-side numbers come from the results handed to
``merge_results``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: The layers this benchmark times, in report order.  ``logic`` is timed
#: only inside the engines that call it; ``harness`` and ``cli`` are thin
#: relays; ``obs`` stays off.
LAYERS = (
    "circuit", "patterns", "faults", "analyze", "concurrent", "baselines",
    "sim", "vector", "robust", "parallel", "serve", "diagnosis",
)

#: Root span of the traced set-up; every other root is a timed operation.
SETUP_ROOT = "bench.setup"


class Span:
    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start", "end", "attrs")

    def __init__(self, name: str, trace_id: str, span_id: str, parent_id: Optional[str]):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = 0.0
        self.end = 0.0
        self.attrs: Dict[str, object] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


# -- probes: attributes a wrapper attaches to its span ------------------


def _counter_probe(args, kwargs):
    counters = args[0].counters
    return counters.fault_evaluations, counters.element_visits, counters.events


def _counter_delta(before, args, kwargs, result) -> Dict[str, object]:
    counters = args[0].counters
    return {
        "fault_evaluations": counters.fault_evaluations - before[0],
        "element_visits": counters.element_visits - before[1],
        "events": counters.events - before[2],
    }


def _axis_windows(before, args, kwargs, result) -> Dict[str, object]:
    windows = result.axis_windows
    return {
        "pattern_windows": windows.get("pattern", 0),
        "fault_windows": windows.get("fault", 0),
    }


def _checkpoint_bytes(before, args, kwargs, result) -> Dict[str, object]:
    return {"bytes": os.path.getsize(args[0])}


def _blob_bytes(before, args, kwargs, result) -> Dict[str, object]:
    return {"bytes": len(result)}


def _parallel_jobs(before, args, kwargs, result) -> Dict[str, object]:
    return {"jobs": kwargs.get("jobs", 1)}


def _merge_parts(before, args, kwargs, result) -> Dict[str, object]:
    parts = args[0]
    return {
        "shards": len(parts),
        "shard_busy_s": sum(part.wall_seconds for part in parts),
        "shard_max_s": max(part.wall_seconds for part in parts),
        "work": sum(part.counters.total_work() for part in parts),
    }


#: (module, attribute path, span name, probe before, probe after).  An
#: attribute path with a dot names a method on a class.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("repro.circuit.library", "load", "circuit.load", None, None),
    ("repro.patterns.random_gen", "random_sequence", "patterns.random_sequence", None, None),
    ("repro.faults.universe", "stuck_at_universe", "faults.stuck_at_universe", None, None),
    ("repro.faults.universe", "all_stuck_at_faults", "faults.all_stuck_at_faults", None, None),
    ("repro.faults.transition", "all_transition_faults", "faults.all_transition_faults",
     None, None),
    ("repro.analyze.collapse", "collapse_universe", "analyze.collapse_universe", None, None),
    ("repro.analyze.collapse", "CollapsedUniverse.expand", "analyze.expand", None, None),
    ("repro.analyze.collapse", "CollapsedUniverse.expand_responses",
     "analyze.expand_responses", None, None),
    ("repro.analyze.untestable", "prune_untestable", "analyze.prune_untestable", None, None),
    ("repro.concurrent.engine", "ConcurrentFaultSimulator.__init__", "concurrent.init",
     None, None),
    ("repro.concurrent.engine", "ConcurrentFaultSimulator.run", "concurrent.run", None, None),
    ("repro.concurrent.engine", "ConcurrentFaultSimulator.step", "concurrent.step",
     _counter_probe, _counter_delta),
    ("repro.concurrent.engine", "ConcurrentFaultSimulator.snapshot", "robust.snapshot",
     None, None),
    ("repro.concurrent.transition_engine", "TransitionFaultSimulator.run", "concurrent.run",
     None, None),
    ("repro.concurrent.transition_engine", "TransitionFaultSimulator.step", "concurrent.step",
     _counter_probe, _counter_delta),
    ("repro.baselines.proofs", "ProofsSimulator.__init__", "baselines.init", None, None),
    ("repro.baselines.proofs", "ProofsSimulator.step", "baselines.step",
     _counter_probe, _counter_delta),
    ("repro.baselines.proofs", "ProofsSimulator.snapshot", "robust.snapshot", None, None),
    ("repro.sim.logicsim", "LogicSimulator.settle", "sim.settle", None, None),
    ("repro.sim.logicsim", "LogicSimulator.clock", "sim.clock", None, None),
    ("repro.vector.kernel", "VectorFaultSimulator.__init__", "vector.init", None, None),
    ("repro.vector.kernel", "VectorFaultSimulator.run", "vector.run", None, _axis_windows),
    ("repro.vector.kernel", "VectorFaultSimulator.snapshot", "robust.snapshot", None, None),
    ("repro.robust.runner", "run_checkpointed", "robust.run_checkpointed", None, None),
    ("repro.robust.checkpoint", "write_checkpoint", "robust.write_checkpoint",
     None, _checkpoint_bytes),
    ("repro.parallel.runner", "run_parallel", "parallel.run_parallel", None, _parallel_jobs),
    ("repro.parallel.runner", "plan_shards", "parallel.plan_shards", None, None),
    ("repro.parallel.merge", "merge_results", "parallel.merge_results", None, _merge_parts),
    ("repro.serve.service", "FaultSimService.submit", "serve.submit", None, None),
    ("repro.serve.service", "FaultSimService.process_once", "serve.process_once", None, None),
    ("repro.serve.service", "FaultSimService.diagnose", "serve.diagnose", None, None),
    ("repro.serve.spec", "SpecResolver.resolve", "serve.resolve", None, None),
    ("repro.serve.cache", "cache_key", "serve.cache_key", None, None),
    ("repro.serve.cache", "serialize_result", "serve.serialize_result", None, None),
    ("repro.serve.cache", "ResultCache.get", "serve.cache_get", None, None),
    ("repro.serve.cache", "ResultCache.put", "serve.cache_put", None, None),
    ("repro.serve.store", "JobStore.save", "serve.store_save", None, None),
    ("repro.serve.store", "JobStore.write_result", "serve.write_result", None, None),
    ("repro.serve.batch", "Batcher.take", "serve.batch_take", None, None),
    ("repro.diagnosis.dictionary", "build_responses", "diagnosis.build_responses", None, None),
    ("repro.diagnosis.store", "encode_dictionary", "diagnosis.encode_dictionary",
     None, _blob_bytes),
    ("repro.diagnosis.store", "decode_dictionary", "diagnosis.decode_dictionary", None, None),
    ("repro.diagnosis.store", "serialize_rankings", "diagnosis.serialize_rankings", None, None),
    ("repro.diagnosis.locate", "diagnose", "diagnosis.diagnose", None, None),
)

#: The recorder whose wrappers are installed in this process, if any; the
#: at-fork hook reads it to strip the wrappers from forked children.
_installed: List["SpanRecorder"] = []
_fork_hook_registered = False


def _strip_in_child() -> None:
    for recorder in _installed:
        recorder.uninstall()
    _installed.clear()


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.pid = os.getpid()
        self._stack: List[Span] = []
        self._serial = 0
        self._patches: List[Tuple[object, str, object]] = []
        # perf_counter drives every duration; wall time only anchors the
        # written records to the epoch, as repro.obs.span expects.
        self._wall0 = time.time()
        self._perf0 = time.perf_counter()

    def _new_id(self) -> str:
        self._serial += 1
        return f"{self.pid & 0xFFFFFFFF:08x}{self._serial:08x}"

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def root(self, name: str, **attrs: object) -> Iterator[Span]:
        """A benchmark operation: a fresh trace whose root id is the trace id."""
        trace_id = self._new_id()
        span = Span(name, trace_id, trace_id, None)
        span.attrs.update(attrs)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        name: str,
        function: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = recorder._stack
            if not stack:
                return function(*args, **kwargs)  # client-side call: not program time
            parent = stack[-1]
            probe = before(args, kwargs) if before is not None else None
            span = Span(name, parent.trace_id, recorder._new_id(), parent.span_id)
            recorder.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after is not None:
                span.attrs.update(after(probe, args, kwargs, result))
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target on every attribute callers look it up through."""
        global _fork_hook_registered
        for module_name, _, _, _, _ in TARGETS:
            importlib.import_module(module_name)
        importlib.import_module("repro")
        for module_name, path, name, before, after in TARGETS:
            module = sys.modules[module_name]
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self.wrap(name, original, before, after))
            else:
                original = getattr(module, path)
                wrapper = self.wrap(name, original, before, after)
                for loaded in list(sys.modules.values()):
                    if not getattr(loaded, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, key, original, wrapper)
        _installed.append(self)
        if not _fork_hook_registered:
            os.register_at_fork(after_in_child=_strip_in_child)
            _fork_hook_registered = True

    def _patch(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self in _installed:
            _installed.remove(self)

    # -- output -------------------------------------------------------------

    def records(self) -> List[dict]:
        """Spans in the ``repro.obs.span`` JSONL record format."""
        offset = self._wall0 - self._perf0
        return [
            {
                "t": "span",
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "name": span.name,
                "start": span.start + offset,
                "end": span.end + offset,
                "pid": self.pid,
                "attrs": span.attrs,
            }
            for span in self.spans
        ]

    def write(self, trace_dir: str) -> str:
        """Write every span once, as ``spans-bench-<pid>.jsonl``."""
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"spans-bench-{self.pid}.jsonl")
        with open(path, "w") as handle:
            for record in self.records():
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        return path


# -- aggregation ------------------------------------------------------------


def _outermost(spans: List[Span], names: frozenset, by_id: Dict[str, Span]) -> List[Span]:
    """Spans named in *names* with no ancestor also named in *names*."""
    chosen = []
    for span in spans:
        if span.name not in names:
            continue
        parent = by_id.get(span.parent_id) if span.parent_id else None
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent_id) if parent.parent_id else None
        if parent is None:
            chosen.append(span)
    return chosen


#: metric -> (span names, "time" | "count" | attribute to sum).
SPAN_METRICS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "circuit.load_s": (("circuit.load",), "time"),
    "circuit.loads": (("circuit.load",), "count"),
    "patterns.random_s": (("patterns.random_sequence",), "time"),
    "faults.universe_s": (
        ("faults.stuck_at_universe", "faults.all_stuck_at_faults",
         "faults.all_transition_faults"), "time"),
    "faults.universe_calls": (
        ("faults.stuck_at_universe", "faults.all_stuck_at_faults",
         "faults.all_transition_faults"), "count"),
    "analyze.collapse_s": (("analyze.collapse_universe",), "time"),
    "analyze.expand_s": (("analyze.expand", "analyze.expand_responses"), "time"),
    "analyze.prune_s": (("analyze.prune_untestable",), "time"),
    "concurrent.init_s": (("concurrent.init",), "time"),
    "concurrent.run_s": (("concurrent.run", "concurrent.step"), "time"),
    "concurrent.fault_evaluations": (("concurrent.step",), "fault_evaluations"),
    "concurrent.element_visits": (("concurrent.step",), "element_visits"),
    "concurrent.events": (("concurrent.step",), "events"),
    "baselines.proofs_s": (("baselines.step",), "time"),
    "baselines.fault_evaluations": (("baselines.step",), "fault_evaluations"),
    "sim.good_s": (("sim.settle", "sim.clock"), "time"),
    "sim.good_calls": (("sim.settle", "sim.clock"), "count"),
    "vector.run_s": (("vector.run",), "time"),
    "vector.pattern_windows": (("vector.run",), "pattern_windows"),
    "vector.fault_windows": (("vector.run",), "fault_windows"),
    "robust.run_s": (("robust.run_checkpointed",), "time"),
    "robust.checkpoint_s": (("robust.snapshot", "robust.write_checkpoint"), "time"),
    "robust.checkpoints": (("robust.write_checkpoint",), "count"),
    "robust.checkpoint_bytes": (("robust.write_checkpoint",), "bytes"),
    "parallel.run_s": (("parallel.run_parallel",), "time"),
    "parallel.plan_s": (("parallel.plan_shards",), "time"),
    "parallel.merge_s": (("parallel.merge_results",), "time"),
    "parallel.shard_busy_s": (("parallel.merge_results",), "shard_busy_s"),
    "serve.submit_s": (("serve.submit",), "time"),
    "serve.resolve_s": (("serve.resolve",), "time"),
    "serve.resolves": (("serve.resolve",), "count"),
    "serve.cache_key_s": (("serve.cache_key",), "time"),
    "serve.store_save_s": (("serve.store_save",), "time"),
    "serve.store_saves": (("serve.store_save",), "count"),
    "serve.result_write_s": (("serve.write_result",), "time"),
    "serve.cache_get_s": (("serve.cache_get",), "time"),
    "serve.cache_put_s": (("serve.cache_put",), "time"),
    "serve.serialize_s": (("serve.serialize_result",), "time"),
    "serve.batch_take_s": (("serve.batch_take",), "time"),
    "serve.diagnose_s": (("serve.diagnose",), "time"),
    "diagnosis.build_s": (("diagnosis.build_responses",), "time"),
    "diagnosis.encode_s": (("diagnosis.encode_dictionary",), "time"),
    "diagnosis.decode_s": (("diagnosis.decode_dictionary",), "time"),
    "diagnosis.decodes": (("diagnosis.decode_dictionary",), "count"),
    "diagnosis.rank_s": (("diagnosis.diagnose",), "time"),
    "diagnosis.render_s": (("diagnosis.serialize_rankings",), "time"),
    "diagnosis.dictionary_bytes": (("diagnosis.encode_dictionary",), "bytes"),
}

#: Per-layer metrics the workload supplies from program state rather than
#: spans (service metrics, job records, the single-process work base).
EXTRA_METRICS = (
    "parallel.overhead_s",
    "parallel.work_overhead",
    "serve.batch_mean",
    "serve.queue_wait_s",
    "serve.hit_ratio",
    "serve.retries",
)

SELF_METRICS = tuple(f"self.{layer}_s" for layer in LAYERS) + ("self.other_s",)

TRACE_METRICS = ("trace.run_s", "trace.untraced_run_s", "trace.overhead")

PER_LAYER_METRICS = tuple(SPAN_METRICS) + EXTRA_METRICS + SELF_METRICS + TRACE_METRICS


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name in ("trace.overhead", "parallel.work_overhead", "serve.hit_ratio"):
        return "ratio"
    if name == "serve.batch_mean":
        return "jobs"
    return "count"


def span_metrics(spans: List[Span]) -> Dict[str, float]:
    """Every :data:`SPAN_METRICS` value, over setup and operation spans alike."""
    by_id = {span.span_id: span for span in spans}
    values: Dict[str, float] = {}
    for metric, (names, kind) in SPAN_METRICS.items():
        chosen = _outermost(spans, frozenset(names), by_id)
        if kind == "time":
            values[metric] = sum(span.duration for span in chosen)
        elif kind == "count":
            values[metric] = len(chosen)
        else:
            values[metric] = sum(span.attrs.get(kind, 0) for span in chosen)  # type: ignore[misc]
    return values


def parallel_overhead(spans: List[Span]) -> float:
    """Per sharded campaign: run - plan - merge - shard busy time / jobs.

    With more shards than workers the slowest shard is not the critical
    path; the busy time spread evenly over the pool is the time the shards
    would need with perfect balance, so the remainder is spawn, pickling,
    engine construction in the workers and imbalance.
    """
    children: Dict[str, List[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    total = 0.0
    for span in spans:
        if span.name != "parallel.run_parallel":
            continue
        jobs = max(1, int(span.attrs.get("jobs", 1)))  # type: ignore[call-overload]
        remainder = span.duration
        for child in children.get(span.span_id, []):
            if child.name in ("parallel.plan_shards", "parallel.merge_results"):
                remainder -= child.duration
            if child.name == "parallel.merge_results":
                remainder -= float(child.attrs.get("shard_busy_s", 0.0)) / jobs  # type: ignore[arg-type]
        total += remainder
    return total


def self_time_table(records: List[dict], run_s: float) -> Dict[str, float]:
    """Self time per layer over the operation traces, ``other`` as the remainder.

    *records* are :meth:`SpanRecorder.records`.  Each operation trace is
    stitched with :func:`repro.obs.span.stitch_trace` and every node's
    :meth:`~repro.obs.span.SpanNode.self_time` is billed to the layer named
    before the first dot; the set-up trace is not run time.  ``other`` is
    the benchmark roots' own self time: relays and glue inside the timed
    calls that no wrapped layer function covers.
    """
    from repro.obs.span import stitch_trace

    by_trace: Dict[str, List[dict]] = {}
    for record in records:
        by_trace.setdefault(record["trace_id"], []).append(record)
    table = dict.fromkeys(LAYERS, 0.0)
    for trace_id, trace in by_trace.items():
        for root in stitch_trace(trace, trace_id):
            if root.name == SETUP_ROOT:
                continue
            for node, _ in root.walk():
                layer = node.name.split(".", 1)[0]
                if layer in table:
                    table[layer] += node.self_time()
    table["other"] = run_s - sum(table.values())
    return table
