"""End-to-end benchmark of the fault-simulation stack.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload coverage-csim --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics (``setup_s``, ``run_s``,
``peak_rss_mb``) with no instrumentation of the program; the two times are
corrected for host speed (see ``speed.py``).  ``--trace 1`` first repeats the
untraced run in a child process (for the overhead ratio), then runs the
workload again with every timed layer function wrapped, writes the spans
under ``.bench_traces/`` and reports the per-layer metrics.  Either way the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Everything the benchmark writes stays inside the checkout: the per-run
service state and checkpoints (a fresh directory under ``.bench_state/``,
removed at exit), recomputed references and recorded work counts
(``.bench_state/cache-<fingerprint>/``, keyed by a content hash of
``src/repro`` and this directory) and span files (``.bench_traces/``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import List, Optional, Tuple

import layers
import refs
from measure import format_table
from speed import HostClock, WallClock
from workloads import DEFAULT_SEED, NOMINAL_SECONDS, WORKLOADS, Session, counts_path

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_ROOT = os.path.join(ROOT, ".bench_state")
TRACE_ROOT = os.path.join(ROOT, ".bench_traces")
#: Set-up is measured this many times per run (once in this process, the
#: rest in fresh probe processes spread over the run) and reported as the
#: median.
SETUP_SAMPLES = 15
PROBE_TIMEOUT = 120
#: ``RUSAGE_CHILDREN`` survives ``exec``: a launcher such as a version
#: manager's ``python3`` shim leaves the peak of its own helper processes
#: there (about 3 MB), before this program has started any child.
CHILDREN_PEAK_AT_START = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
#: The report line that gives ``run_s`` in plain wall seconds.
WALL_RUN_LINE = "wall run_s"


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=int, default=NOMINAL_SECONDS,
        help="sizes the fixed operation list (work scales with it; the clock never cuts it)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a fresh process that only sets up and reports the time.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    # Internal: the traced run's untraced twin skips the set-up probes.
    parser.add_argument("--no-probes", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest shard worker.

    The children's peak counts only if the run raised it above what the
    launcher left: the shard workers are then the reaped children, as
    set-up probes are reaped only after this is read.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workers = children if children > CHILDREN_PEAK_AT_START else 0
    return (own + workers) / 1024.0


def filesystem_type(path: str) -> str:
    """The type of the filesystem holding *path*, from the mount table."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as handle:
            for line in handle:
                fields = line.split()
                mount_point = fields[4]
                fstype = fields[fields.index("-") + 1]
                inside = path == mount_point or path.startswith(mount_point.rstrip("/") + "/")
                if inside and len(mount_point) >= len(best):
                    best, kind = mount_point, fstype
    except (OSError, ValueError, IndexError):
        pass
    return kind


def numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "absent"
    return numpy.__version__


def timed_setup(workload, run_dir: str, clock: WallClock, recorder=None) -> Tuple[float, float]:
    """``(wall, scaled)`` seconds from before the first ``repro`` import to
    the first timed operation (see :meth:`speed.WallClock.split`)."""
    scope = recorder.root(layers.SETUP_ROOT) if recorder is not None else contextlib.nullcontext()
    with scope, clock.region():
        workload.setup(run_dir)
    return clock.split()


def check_outputs(workload, session: Session, cache: str) -> Optional[str]:
    """Compare the run's digests with the references; a problem, or None.

    References are committed or cached, else recomputed (untimed) by a
    second engine and cached for the next run of this seed.
    """
    key = workload.reference_key()
    found = refs.lookup(cache, key)
    if found is not None:
        print(f"references     {key}: committed or cached")
    else:
        started = time.perf_counter()
        try:
            found = refs.COMPUTE[workload.family](workload.plan)
        except Exception as exc:  # noqa: BLE001 - reported as an incorrect run
            return f"reference computation failed: {type(exc).__name__}: {exc}"
        refs.remember(cache, key, found)
        print(f"references     {key}: recomputed in {time.perf_counter() - started:.1f} s")
    workload.verify(session, found)
    return None


def check_counts(path: str, counts: dict, record: bool) -> Optional[str]:
    """Exact work counts must repeat for a seed: compare with an earlier run.

    With no earlier counts, *record* says whether this run's become the
    record; only a run with every operation correct may set it.
    """
    normalized = json.loads(json.dumps(counts, sort_keys=True))
    try:
        with open(path) as handle:
            earlier = json.load(handle)
    except (FileNotFoundError, ValueError):
        if not record:
            return None
        os.makedirs(os.path.dirname(path), exist_ok=True)
        temp = f"{path}.{os.getpid()}.tmp"
        with open(temp, "w") as handle:
            json.dump(normalized, handle, sort_keys=True)
        os.replace(temp, path)
        return None
    if earlier != normalized:
        return f"work counts differ from an earlier run of this seed ({path})"
    return None


class SetupProbes:
    """Set-up times measured in fresh processes, spread over the timed run.

    Host speed drifts over seconds, so probes taken back to back all see
    one host state.  Probe *j* (from 1) is due once the run has spent
    ``j * seconds / (count + 1)`` seconds inside program calls and runs at
    the next operation boundary, outside timing; :meth:`finish` runs the
    probes still due.  A probe is read to its end but reaped only by
    :meth:`reap`: until then its memory stays out of ``RUSAGE_CHILDREN``,
    which the peak RSS reads for the shard workers.
    """

    def __init__(self, args: argparse.Namespace, count: int) -> None:
        self.command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-probe",
        ]
        self.count = count
        self.spacing = args.seconds / (count + 1)
        self.samples: List[float] = []
        self.wall_samples: List[float] = []
        self.problem: Optional[str] = None
        self._children: List[subprocess.Popen] = []

    def due(self, run_s: float) -> None:
        while self._pending() and run_s >= (len(self.samples) + 1) * self.spacing:
            self._probe()

    def finish(self) -> None:
        while self._pending():
            self._probe()

    def _pending(self) -> bool:
        return self.problem is None and len(self.samples) < self.count

    def _probe(self) -> None:
        child = subprocess.Popen(
            self.command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        )
        self._children.append(child)
        ready, _, _ = select.select([child.stdout], [], [], PROBE_TIMEOUT)
        if not ready:
            child.kill()
        output = child.stdout.read()
        try:
            result = json.loads(output.strip().splitlines()[-1])
            scaled, wall = result["setup_s"], result["wall_setup_s"]
        except (ValueError, IndexError, KeyError) as exc:
            self.problem = f"set-up probe failed: {type(exc).__name__}: {exc}"
            return
        self.samples.append(scaled)
        self.wall_samples.append(wall)

    def reap(self) -> None:
        for child in self._children:
            child.stdout.close()
            child.wait()
        self._children.clear()


def run_untraced_twin(args: argparse.Namespace) -> Tuple[Optional[float], Optional[str]]:
    """Wall ``run_s`` of the same workload and seed in a fresh untraced
    process: the traced run is timed in wall seconds too."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--no-probes",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        wall = next(float(line.split()[2]) for line in lines if line.startswith(WALL_RUN_LINE))
    except (ValueError, IndexError, StopIteration):
        return None, f"untraced twin failed (exit {done.returncode}): {done.stderr[-400:]}"
    if not result["correct"]:
        return wall, "untraced twin reported incorrect output"
    return wall, None


def header(workload, args: argparse.Namespace) -> str:
    return (
        f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  "
        f"nproc {os.cpu_count()}  state {filesystem_type(STATE_ROOT)} (.bench_state)  "
        f"python {sys.version.split()[0]}  numpy {numpy_version()}"
    )


def result_line(session: Session, problems: List[str], metrics: dict) -> str:
    return json.dumps(
        {
            "correct": session.failed == 0 and not problems,
            "attempted": session.attempted,
            "failed": session.failed,
            "metrics": metrics,
        }
    )


def report_outcome(session: Session, problems: List[str]) -> None:
    ratio = session.failed / session.attempted if session.attempted else 1.0
    print(f"operations     attempted {session.attempted}  failed {session.failed}  "
          f"error_ratio {ratio:g}")
    for index, reason in sorted(session.failures.items())[:10]:
        print(f"  op {index}: {reason}")
    for problem in problems:
        print(f"  {problem}")


def untraced(workload, args: argparse.Namespace, run_dir: str, cache: str) -> int:
    probes = SetupProbes(args, 0 if args.no_probes else SETUP_SAMPLES - 1)
    clock = HostClock()
    try:
        with clock.running():
            first_wall_setup, first_setup = timed_setup(workload, run_dir, clock)
            session = Session(between=probes.due, clock=clock)
            workload.run(session)
            wall_run_s, run_s = clock.split()
        rss = peak_rss_mb()
        probes.finish()
    finally:
        probes.reap()
    counts = workload.counts()
    problems = [check_outputs(workload, session, cache)]
    problems.append(check_counts(
        counts_path(cache, workload.name, args.seed, args.seconds), counts,
        record=session.failed == 0 and not any(problems),
    ))
    problems.append(probes.problem)
    setup_samples = [first_setup] + probes.samples
    wall_setup_samples = [first_wall_setup] + probes.wall_samples
    problems = [problem for problem in problems if problem]
    values = {
        "setup_s": statistics.median(setup_samples),
        "run_s": run_s,
        "peak_rss_mb": rss,
    }
    print(header(workload, args))
    for line in workload.report():
        print(line)
    print(f"counts         {refs.sha256(json.dumps(counts, sort_keys=True).encode())[:16]}  "
          f"{json.dumps(counts, sort_keys=True)[:400]}")
    print("setup samples  " + " ".join(f"{value:.4f}" for value in setup_samples))
    print("  wall         " + " ".join(f"{value:.4f}" for value in wall_setup_samples))
    print(clock.speed_line())
    report_outcome(session, problems)
    for name, value in values.items():
        print(f"{name:<14} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"{WALL_RUN_LINE} {wall_run_s} s")
    print(f"wall setup_s   {statistics.median(wall_setup_samples):.6g} s")
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}
    print(result_line(session, problems, metrics))
    return 0


def traced(workload, args: argparse.Namespace, run_dir: str, cache: str) -> int:
    untraced_run_s, twin_problem = run_untraced_twin(args)
    recorder = layers.SpanRecorder()
    recorder.install()
    try:
        timed_setup(workload, run_dir, WallClock(), recorder)
        session = Session(recorder)
        workload.run(session)
    finally:
        recorder.uninstall()
    problems = [twin_problem, check_outputs(workload, session, cache)]

    values = layers.span_metrics(recorder.spans)
    values["parallel.overhead_s"] = layers.parallel_overhead(recorder.spans)
    for name in layers.EXTRA_METRICS:
        values.setdefault(name, 0.0)
    values.update(workload.layer_extras(cache))
    table = layers.self_time_table(recorder.records(), session.run_s)
    for layer, seconds in table.items():
        values[f"self.{layer}_s"] = seconds
    values["trace.run_s"] = session.run_s
    values["trace.untraced_run_s"] = untraced_run_s or 0.0
    values["trace.overhead"] = session.run_s / untraced_run_s if untraced_run_s else 0.0

    counts = dict(
        workload.counts(),
        spans={name: values[name] for name in layers.SPAN_METRICS if not name.endswith("_s")},
    )
    problems.append(check_counts(
        counts_path(cache, workload.name, args.seed, args.seconds, traced=True), counts,
        record=session.failed == 0 and not any(problems),
    ))
    problems = [problem for problem in problems if problem]

    trace_dir = os.path.join(TRACE_ROOT, f"{workload.name}-seed{args.seed}")
    if os.path.isdir(trace_dir):
        for name in os.listdir(trace_dir):
            if name.startswith("spans-") and name.endswith(".jsonl"):
                os.unlink(os.path.join(trace_dir, name))
    path = recorder.write(trace_dir)

    print(header(workload, args))
    for line in workload.report():
        print(line)
    rows = [["layer", "self_s", "share"]]
    for layer, seconds in table.items():
        share = seconds / session.run_s if session.run_s else 0.0
        rows.append([layer, f"{seconds:.4f}", f"{100 * share:.1f}%"])
    rows.append(["total (traced run_s)", f"{sum(table.values()):.4f}", ""])
    print(format_table(rows))
    print(
        f"tracing overhead  traced run_s {session.run_s:.4f} s / untraced "
        f"{values['trace.untraced_run_s']:.4f} s = {values['trace.overhead']:.3f}x"
    )
    print(f"spans          {len(recorder.spans)} written to {os.path.relpath(path, ROOT)} "
          f"(render: PYTHONPATH=src python3 -m repro inspect {os.path.relpath(trace_dir, ROOT)})")
    report_outcome(session, problems)
    metrics = {
        name: {"value": values[name], "unit": layers.metric_unit(name)}
        for name in layers.PER_LAYER_METRICS
    }
    print(result_line(session, problems, metrics))
    return 0


def program_fingerprint() -> str:
    """Content hash of the program and the benchmark.

    Recomputed references and recorded work counts are kept under it, so a
    checkout that is reused for another version of either never trusts
    the other version's references or compares against its counts.
    """
    digest = hashlib.sha256()
    for base in (os.path.join(SRC, "repro"), HERE):
        for directory, subdirectories, files in os.walk(base):
            subdirectories[:] = sorted(d for d in subdirectories if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def setup_probe(workload, run_dir: str) -> int:
    clock = HostClock()
    with clock.running():
        wall, scaled = timed_setup(workload, run_dir, clock)
    print(json.dumps({"setup_s": scaled, "wall_setup_s": wall}))
    return 0


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to benchmark: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    os.makedirs(STATE_ROOT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=STATE_ROOT)
    try:
        if args.setup_probe:
            return setup_probe(workload, run_dir)
        cache = os.path.join(STATE_ROOT, f"cache-{program_fingerprint()}")
        if args.trace:
            return traced(workload, args, run_dir, cache)
        return untraced(workload, args, run_dir, cache)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
