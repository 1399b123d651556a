"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``stats``           circuit statistics and fault counts (Table 2 shape)
``lint``            static netlist diagnostics (``file:line``-located)
``simulate``        stuck-at fault simulation with any engine
``transition``      transition-fault simulation (two-pass concurrent)
``generate-tests``  coverage-directed test generation
``build-dictionary`` build a fault-dictionary artifact (full no-drop sim)
``diagnose``        rank fault candidates for observed tester failures
``tables``          regenerate the paper's evaluation tables
``serve``           run the fault-simulation service (REST API + workers)
``inspect``         render a recorded trace directory (timeline, balance)

``lint`` exits 0 when the netlist is clean at the chosen severity, 1 when
it has findings and 2 on usage or parse errors.  ``simulate`` and
``transition`` accept ``--prune-untestable`` (drop
structurally untestable faults; survivor detections are bit-identical),
``--collapse`` (simulate one representative per fault-equivalence class
of the *full* universe and expand detections back — bit-identical to
simulating the whole universe) and ``--sanitize`` (fault-list invariant
checks at every phase boundary).

Circuits are named (``s27``, ``s298`` ... — synthetic stand-ins except the
embedded real ``s27``) or paths to ISCAS-89 ``.bench`` files.  Test sets
are text files with one ``0/1/X`` vector per line (PI order), produced by
``generate-tests`` or by hand.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import List, Optional, Tuple

from repro import package_version
from repro.campaign import Campaign, execute, select_universe
from repro.circuit.library import load
from repro.circuit.bench import bench_stem
from repro.circuit.netlist import Circuit, NetlistError
from repro.circuit.stats import circuit_stats
from repro.faults.transition import all_transition_faults
from repro.faults.universe import all_stuck_at_faults
from repro.harness.reporting import format_table
from repro.harness.runner import ENGINE_NAMES, WORD_ENGINES
from repro.patterns.atpg import generate_tests
from repro.patterns.random_gen import random_sequence
from repro.patterns.vectors import format_vectors, parse_vectors
from repro.robust import (
    Budget,
    CampaignInterrupted,
    DEFAULT_LADDER,
    TableCampaign,
    VECTOR_LADDER,
    config_fingerprint,
)


def _load_tests(args, circuit):
    if args.tests:
        with open(args.tests) as handle:
            return parse_vectors(handle.read(), circuit)
    return random_sequence(circuit, args.random_patterns, seed=args.seed)


def _make_tracer(args):
    """Tracer for the run, or ``None`` when no observability flag is set.

    Per-gate event records are only collected when a trace file will
    actually receive them; ``--profile`` alone needs just the aggregates.
    Parallel runs (``--jobs`` > 1) record inside every worker and merge —
    the in-process tracer sees nothing there, but returning one still
    signals the runner to arm worker-side telemetry.
    """
    if not (args.trace or args.profile):
        return None
    from repro.obs import RecordingTracer

    return RecordingTracer(record_events=bool(args.trace) and args.jobs == 1)


class _CliTrace:
    """Root-span bookkeeping for a traced parallel CLI run.

    The CLI is the trace's entry point, so it mints the
    :class:`~repro.obs.TraceContext` whose root span id *is* the trace id
    and emits the root span around the whole run; the campaign and shard
    workers parent everything under it.
    """

    def __init__(self, args) -> None:
        # Under ``--jobs`` > 1, ``--trace`` names a trace *directory*.
        trace_dir = self.trace_dir = args.trace if args.jobs > 1 else None
        self.ctx = None
        self._writer = None
        self._start = 0.0
        if trace_dir is not None:
            import time

            from repro.obs import SpanWriter, TraceContext

            self.ctx = TraceContext.new_trace()
            self._writer = SpanWriter(trace_dir, label="cli")
            self._start = time.time()

    def finish(self, name: str, **attrs) -> None:
        if self._writer is None:
            return
        import time

        self._writer.emit(name, self.ctx, self._start, time.time(), **attrs)
        self._writer.close()


def _emit_observability(args, result, circuit, tracer) -> None:
    if not (args.trace or args.profile):
        return
    from repro.obs import profile_report, write_jsonl_trace

    if args.trace:
        if args.jobs > 1:
            print(
                f"# wrote span trace to {args.trace}/ "
                f"(render with: python -m repro inspect {args.trace})",
                file=sys.stderr,
            )
        else:
            count = write_jsonl_trace(tracer.records, args.trace)
            print(f"# wrote {count} trace records to {args.trace}", file=sys.stderr)
    if args.profile:
        if result.telemetry is None:
            print(f"# engine {result.engine!r} recorded no telemetry", file=sys.stderr)
        else:
            print()
            print(profile_report(result.telemetry, circuit=circuit))


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_circuit_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("circuit", help="benchmark name or .bench file path")
    parser.add_argument(
        "--scale", type=float, default=1.0, help="synthetic circuit scale (default 1.0)"
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write a JSONL event trace of the run to PATH; with --jobs K>1 "
        "PATH is a trace directory receiving every process's span files "
        "(render with `repro inspect PATH`)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a profile report (phase times, hot gates, drop timeline)",
    )


def _add_robust_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="write campaign progress here; resumable with --resume",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from the --checkpoint file instead of starting over",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=64,
        metavar="N",
        help="cycles between periodic checkpoint writes (default 64)",
    )
    parser.add_argument(
        "--max-cycles",
        type=int,
        metavar="N",
        help="clock-cycle budget; a breached run stops cleanly, flagged truncated",
    )


def _make_budget(args) -> Optional[Budget]:
    if not args.max_cycles:
        return None
    return Budget(max_cycles=args.max_cycles)


def _check_robust_args(args) -> None:
    if args.resume and not args.checkpoint:
        raise ValueError("--resume requires --checkpoint FILE")


def _checked_word_width(args):
    """Validate ``--word-width`` against the engine; None when unset."""
    width = getattr(args, "word_width", None)
    if width is None:
        return None
    from repro.vector.packing import validate_word_width

    if args.engine not in WORD_ENGINES:
        raise ValueError(
            f"--word-width only applies to the word-packed engines "
            f"{WORD_ENGINES}, not {args.engine!r}"
        )
    return validate_word_width(width)


def _add_parallel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="K",
        help="shard the fault universe over K worker processes (default 1)",
    )


def _add_analyze_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--prune-untestable",
        action="store_true",
        help="drop provably untestable faults (structural analysis) before "
        "simulating; detections on the surviving faults are bit-identical",
    )
    parser.add_argument(
        "--collapse",
        nargs="?",
        const="equivalence",
        choices=("equivalence",),
        default=None,
        metavar="MODE",
        help="simulate one representative per fault-equivalence class of "
        "the full universe, then expand detections back through the class "
        "map (bit-identical to simulating the whole universe; the only "
        "MODE is equivalence)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="check fault-list invariants at every phase boundary "
        "(concurrent engines only; debugging aid, does not change results)",
    )


def _run_campaign(args, circuit, tests, tracer, cli_trace, **fields):
    """Execute the campaign a ``simulate``/``transition`` invocation describes.

    The universe is selected first so its prune and collapse summaries
    reach stderr before the run starts.
    """
    campaign = Campaign(
        circuit,
        tests,
        prune=args.prune_untestable,
        collapse=args.collapse,
        sanitize=args.sanitize,
        jobs=args.jobs,
        budget=_make_budget(args),
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        checkpoint_every=args.checkpoint_every,
        tracer=tracer,
        trace_dir=cli_trace.trace_dir,
        trace_ctx=cli_trace.ctx,
        **fields,
    )
    universe = select_universe(campaign)
    for note in universe.notes:
        print(f"# {note}", file=sys.stderr)
    return execute(replace(campaign, universe=universe))


def _add_test_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tests", help="vector file (one 0/1/X vector per line)")
    parser.add_argument(
        "--random-patterns",
        type=int,
        default=256,
        help="random vector count when no --tests file is given (default 256)",
    )
    parser.add_argument("--seed", type=int, default=1992)


def cmd_stats(args) -> int:
    from repro.analyze import collapse_universe

    circuit = load(args.circuit, scale=args.scale)
    stats = circuit_stats(circuit)
    full = all_stuck_at_faults(circuit)
    equivalence = collapse_universe(circuit)
    transition = all_transition_faults(circuit)
    print(
        format_table(
            ["metric", "value"],
            [
                ("primary inputs", stats.num_inputs),
                ("primary outputs", stats.num_outputs),
                ("flip-flops", stats.num_dffs),
                ("combinational gates", stats.num_gates),
                ("levels", stats.num_levels),
                ("lines", stats.num_lines),
                ("stuck-at faults (full universe)", len(full)),
                ("collapsed stuck-at faults", equivalence.num_representatives),
                (
                    "equivalence collapse ratio",
                    f"{100.0 * equivalence.ratio:.1f}%",
                ),
                ("transition faults", len(transition)),
            ],
            title=f"{circuit.name}",
        )
    )
    return 0


def cmd_lint(args) -> int:
    """Static netlist diagnostics; exit 0 clean / 1 findings / 2 errors."""
    from repro.analyze.lint import (
        format_diagnostics,
        has_findings,
        lint_circuit,
        lint_text,
        write_diagnostics_json,
    )

    circuit: Optional[Circuit]
    if os.path.isfile(args.circuit):
        name = args.circuit
        with open(args.circuit) as handle:
            diagnostics, circuit = lint_text(handle.read(), bench_stem(args.circuit))
    elif args.circuit == "s27":
        from repro.circuit.library import S27_BENCH

        name = "s27"
        diagnostics, circuit = lint_text(S27_BENCH, name)
    else:
        circuit = load(args.circuit, scale=args.scale)
        name = circuit.name
        diagnostics = lint_circuit(circuit)
    if args.format == "json":
        write_diagnostics_json(diagnostics, sys.stdout)
    else:
        print(format_diagnostics(diagnostics, name))
        if circuit is not None:  # None: the diagnostics above tell the story
            from repro.analyze import collapse_universe

            print(f"# {collapse_universe(circuit).summary()}", file=sys.stderr)
    return 1 if has_findings(diagnostics, fail_on=args.fail_on) else 0


def cmd_simulate(args) -> int:
    _check_robust_args(args)
    word_width = _checked_word_width(args)
    ladder = None
    if args.ladder:
        if args.sanitize:
            raise ValueError(
                "--ladder picks its own engines; --sanitize needs a fixed one"
            )
        if args.checkpoint:
            raise ValueError("--ladder and --checkpoint are mutually exclusive")
        # --engine vsim puts the vector kernel on top as the fast rung;
        # any other engine choice keeps the default csim-MV-first ladder.
        ladder = VECTOR_LADDER if args.engine == "vsim" else DEFAULT_LADDER
    circuit = load(args.circuit, scale=args.scale)
    tests = _load_tests(args, circuit)
    tracer = _make_tracer(args)
    cli_trace = _CliTrace(args)
    result = _run_campaign(
        args, circuit, tests, tracer, cli_trace,
        engine=args.engine, word_width=word_width, ladder=ladder,
    )
    cli_trace.finish(
        f"simulate {circuit.name}", engine=args.engine, jobs=args.jobs
    )
    print(result.summary())
    _emit_observability(args, result, circuit, tracer)
    return 0


def cmd_transition(args) -> int:
    _check_robust_args(args)
    circuit = load(args.circuit, scale=args.scale)
    tests = _load_tests(args, circuit)
    tracer = _make_tracer(args)
    cli_trace = _CliTrace(args)
    result = _run_campaign(
        args, circuit, tests, tracer, cli_trace, engine="csim-TV", mode="transition"
    )
    cli_trace.finish(f"transition {circuit.name}", jobs=args.jobs)
    print(result.summary())
    _emit_observability(args, result, circuit, tracer)
    return 0


def _parse_failures(kind: str, text: str):
    """``--failures`` syntax -> validated observed failures.

    Full-response queries are comma-separated ``CYCLE:OUTPUT`` pairs
    (1-based cycle, 0-based primary-output position); pass/fail queries
    are comma-separated failing cycle numbers.
    """
    from repro.diagnosis.store import parse_observed

    items: list = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if kind == "full":
            if ":" not in token:
                raise ValueError(
                    "--failures for a full-response dictionary takes "
                    f"CYCLE:OUTPUT pairs, got {token!r}"
                )
            cycle, position = token.split(":", 1)
            items.append([int(cycle), int(position)])
        else:
            items.append(int(token))
    return parse_observed(kind, items)


def _build_dictionary_blob(args, circuit, tests) -> Tuple[bytes, dict]:
    """Build the ``repro-dict/1`` artifact a build or diagnose run asks
    for; returns it with its manifest."""
    from repro.diagnosis import build_responses
    from repro.diagnosis.store import dictionary_manifest, encode_dictionary

    responses = build_responses(
        circuit,
        tests,
        kind=args.kind,
        engine=args.engine,
        jobs=args.jobs,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        checkpoint_every=args.checkpoint_every,
        budget=_make_budget(args),
        word_width=_checked_word_width(args),
    )
    material = (circuit.name, len(tests), responses, args.kind, "equivalence")
    return encode_dictionary(*material), dictionary_manifest(*material)


def _dictionary_for(args, circuit, tests):
    """The query's dictionary: the ``--dictionary`` artifact if it exists,
    else a fresh build — written back to the artifact path when given."""
    from repro.diagnosis.store import decode_dictionary, read_dictionary, write_dictionary

    path = args.dictionary
    if path and os.path.exists(path):
        print(f"# dictionary: loaded from {path}", file=sys.stderr)
        dictionary = decode_dictionary(read_dictionary(path), kind=args.kind)
        _check_artifact_fits(path, dictionary, circuit, len(tests))
        return dictionary
    blob, _ = _build_dictionary_blob(args, circuit, tests)
    if path:
        write_dictionary(path, blob)
        print(f"# dictionary: built and written to {path}", file=sys.stderr)
    return decode_dictionary(blob)


def _check_artifact_fits(path, dictionary, circuit, num_vectors) -> None:
    """Refuse an artifact built for another circuit or test sequence.

    Ranking against it would name gates the query's circuit lacks, or
    compare failures observed over other vectors.
    """
    if dictionary.circuit_name != circuit.name:
        raise ValueError(
            f"{path}: dictionary is for circuit {dictionary.circuit_name!r}, "
            f"not {circuit.name!r}"
        )
    if dictionary.num_vectors != num_vectors:
        raise ValueError(
            f"{path}: dictionary covers {dictionary.num_vectors} vectors, "
            f"the query {num_vectors}"
        )
    gates = circuit.gates
    for fault in dictionary.signatures:
        if fault.gate >= len(gates) or fault.pin >= len(gates[fault.gate].fanin):
            raise ValueError(
                f"{path}: dictionary fault at gate {fault.gate} pin {fault.pin} "
                f"lies outside circuit {circuit.name!r}"
            )


def cmd_build_dictionary(args) -> int:
    """Build a fault dictionary and write it as a ``repro-dict/1`` artifact."""
    _check_robust_args(args)
    circuit = load(args.circuit, scale=args.scale)
    tests = _load_tests(args, circuit)
    from repro.diagnosis.store import write_dictionary

    blob, manifest = _build_dictionary_blob(args, circuit, tests)
    write_dictionary(args.output, blob)
    print(
        f"{args.output}: dictionary[{manifest['kind']}] for "
        f"{manifest['circuit']}: {manifest['num_detected']}/"
        f"{manifest['num_faults']} faults detected over "
        f"{manifest['num_vectors']} vectors ({len(blob)} bytes)"
    )
    return 0


def cmd_diagnose(args) -> int:
    """Rank dictionary candidates for observed failures; optionally explain.

    Prints the canonical ``repro-diagnosis/1`` document — byte-identical
    to what ``POST /diagnose`` returns for the same query.
    """
    _check_robust_args(args)
    circuit = load(args.circuit, scale=args.scale)
    tests = _load_tests(args, circuit)
    from repro.diagnosis.store import diagnosis_report

    observed = _parse_failures(args.kind, args.failures)
    dictionary = _dictionary_for(args, circuit, tests)
    body = diagnosis_report(
        circuit,
        tests,
        dictionary,
        observed,
        top=args.top,
        explain=args.explain,
    )
    sys.stdout.buffer.write(body)
    sys.stdout.buffer.flush()
    if args.explain:
        import json as _json

        document = _json.loads(body)
        if "explain" in document:
            print(f"\n{document['explain']['text']}", file=sys.stderr)
    return 0


def cmd_generate_tests(args) -> int:
    circuit = load(args.circuit, scale=args.scale)
    tests, coverage = generate_tests(
        circuit, effort=args.effort, seed=args.seed, target_coverage=args.target
    )
    text = format_vectors(tests)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    print(
        f"# {len(tests)} vectors, {100 * coverage:.2f}% stuck-at coverage",
        file=sys.stderr,
    )
    return 0


def cmd_serve(args) -> int:
    """Boot the fault-simulation service and serve until interrupted.

    SIGTERM triggers a graceful drain: submissions answer 503 +
    Retry-After, ``/healthz`` reports ``draining``, in-flight batches
    finish (or checkpoint), and the process exits once the worker pool
    retires or the drain grace expires — whichever comes first.
    """
    import signal
    import tempfile
    import threading

    from repro.serve import FaultSimService, ServeConfig, make_server

    state_dir = args.state_dir or tempfile.mkdtemp(prefix="repro-serve-")
    config = ServeConfig(
        state_dir=state_dir,
        queue_limit=args.queue_limit,
        workers=args.workers,
        max_batch=args.max_batch,
        checkpoint_every=args.checkpoint_every,
        max_seconds_per_job=args.max_seconds_per_job,
        cache_results=not args.no_cache,
        trace_dir=args.trace_dir,
        lease_ttl=args.lease_ttl,
        max_attempts=args.max_attempts,
        retry_backoff_base=args.retry_backoff,
    )
    service = FaultSimService(config)
    recovered = service.recover()
    if recovered:
        print(f"# recovered {recovered} unfinished job(s)", file=sys.stderr)
    if args.requeue_dead:
        resurrected = service.requeue_dead()
        if resurrected:
            print(
                f"# resurrected {resurrected} dead-lettered job(s)", file=sys.stderr
            )
    service.start()
    server = make_server(service, host=args.host, port=args.port)

    def _drain_then_shutdown() -> None:
        service.begin_drain()
        service.await_drained(timeout=args.drain_grace)
        server.shutdown()

    def _on_sigterm(signum, frame) -> None:
        print("# SIGTERM: draining", file=sys.stderr)
        threading.Thread(
            target=_drain_then_shutdown, name="serve-drain", daemon=True
        ).start()

    signal.signal(signal.SIGTERM, _on_sigterm)
    # A non-interactive shell starts background jobs with SIGINT ignored,
    # which Python keeps; without this, ``kill -INT`` would not stop us.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    host, port = server.server_address[:2]
    print(f"# repro serve: http://{host}:{port} "
          f"({config.workers} worker(s), state in {state_dir})", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("# shutting down", file=sys.stderr)
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
    return 0


def cmd_inspect(args) -> int:
    """Render a recorded trace directory: timeline, balance, churn."""
    from repro.obs import inspect_trace

    if not os.path.isdir(args.trace_dir):
        raise ValueError(f"{args.trace_dir}: not a trace directory")
    print(
        inspect_trace(
            args.trace_dir,
            trace_id=args.trace_id,
            flamegraph=args.flamegraph,
            top_k=args.top,
        )
    )
    return 0


def cmd_tables(args) -> int:
    from repro.harness import tables

    _check_robust_args(args)
    campaign = None
    if args.checkpoint:
        fingerprint = config_fingerprint(
            "tables", args.scale, bool(args.quick), bool(args.deterministic)
        )
        campaign = TableCampaign(
            args.checkpoint, resume=args.resume, fingerprint=fingerprint
        )
    print(
        tables.all_tables(
            scale=args.scale,
            quick=args.quick,
            campaign=campaign,
            deterministic=args.deterministic,
            jobs=args.jobs,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Concurrent fault simulation for synchronous sequential "
        "circuits (Lee & Reddy, DAC 1992).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {package_version()}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    stats = commands.add_parser("stats", help="circuit statistics and fault counts")
    _add_circuit_arg(stats)
    stats.set_defaults(handler=cmd_stats)

    lint = commands.add_parser(
        "lint", help="static netlist diagnostics (undriven nets, cycles, ...)"
    )
    _add_circuit_arg(lint)
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )
    lint.add_argument(
        "--fail-on",
        choices=("error", "warning", "info"),
        default="error",
        help="lowest severity that makes the exit code 1 (default error)",
    )
    lint.set_defaults(handler=cmd_lint)

    simulate = commands.add_parser("simulate", help="stuck-at fault simulation")
    _add_circuit_arg(simulate)
    _add_test_args(simulate)
    simulate.add_argument(
        "--engine", choices=ENGINE_NAMES, default="csim-MV", help="default csim-MV"
    )
    simulate.add_argument(
        "--word-width",
        type=int,
        metavar="N",
        help="machines packed per word for the word engines (PROOFS/vsim): "
        "a power of two >= 8 (default 64)",
    )
    simulate.add_argument(
        "--ladder",
        action="store_true",
        help="run the engine ladder: audit the result against the serial "
        "oracle, degrading csim-MV -> csim -> serial on any failure "
        "(with --engine vsim the vector kernel tops the ladder: "
        "vsim -> csim-MV -> csim -> serial)",
    )
    _add_obs_args(simulate)
    _add_robust_args(simulate)
    _add_parallel_args(simulate)
    _add_analyze_args(simulate)
    simulate.set_defaults(handler=cmd_simulate)

    transition = commands.add_parser(
        "transition", help="transition-fault simulation (two-pass concurrent)"
    )
    _add_circuit_arg(transition)
    _add_test_args(transition)
    _add_obs_args(transition)
    _add_robust_args(transition)
    _add_parallel_args(transition)
    _add_analyze_args(transition)
    transition.set_defaults(handler=cmd_transition)

    def _add_dictionary_build_args(sub: argparse.ArgumentParser) -> None:
        from repro.diagnosis import DICTIONARY_KINDS

        sub.add_argument(
            "--kind",
            choices=DICTIONARY_KINDS,
            default="full",
            help="dictionary format: 'full' keeps (cycle, output) "
            "resolution, 'passfail' only failing cycles (default full)",
        )
        sub.add_argument(
            "--engine",
            choices=ENGINE_NAMES,
            default="csim-MV",
            help="builder engine; every engine yields a bit-identical "
            "dictionary (default csim-MV)",
        )
        sub.add_argument(
            "--word-width",
            type=int,
            metavar="N",
            help="machines packed per word for the word engines "
            "(PROOFS/vsim): a power of two >= 8 (default 64)",
        )

    build_dict = commands.add_parser(
        "build-dictionary",
        help="build a fault-dictionary artifact by full (no-drop) fault "
        "simulation over the collapsed universe",
    )
    _add_circuit_arg(build_dict)
    _add_test_args(build_dict)
    _add_dictionary_build_args(build_dict)
    build_dict.add_argument(
        "-o",
        "--output",
        required=True,
        metavar="FILE",
        help="write the repro-dict/1 artifact here (atomic replace)",
    )
    _add_robust_args(build_dict)
    _add_parallel_args(build_dict)
    build_dict.set_defaults(handler=cmd_build_dictionary)

    diagnose = commands.add_parser(
        "diagnose",
        help="rank fault candidates for observed tester failures against "
        "a fault dictionary (built on the fly or loaded from an artifact)",
    )
    _add_circuit_arg(diagnose)
    _add_test_args(diagnose)
    _add_dictionary_build_args(diagnose)
    diagnose.add_argument(
        "--failures",
        required=True,
        metavar="LIST",
        help="observed failures: comma-separated CYCLE:OUTPUT pairs for "
        "--kind full (1-based cycle, 0-based output position), or "
        "comma-separated failing cycles for --kind passfail",
    )
    diagnose.add_argument(
        "--top",
        type=_positive_int,
        default=10,
        metavar="K",
        help="candidates to rank (default 10)",
    )
    diagnose.add_argument(
        "--explain",
        action="store_true",
        help="re-simulate the top candidate with the tracer and attach its "
        "causal divergence chain (fault site -> first diverging gate per "
        "cycle -> observed outputs); a rendering is printed to stderr",
    )
    diagnose.add_argument(
        "--dictionary",
        metavar="FILE",
        help="dictionary artifact cache: loaded when FILE exists, "
        "otherwise the built dictionary is written there",
    )
    _add_robust_args(diagnose)
    _add_parallel_args(diagnose)
    diagnose.set_defaults(handler=cmd_diagnose)

    gen = commands.add_parser(
        "generate-tests", help="coverage-directed test generation"
    )
    _add_circuit_arg(gen)
    gen.add_argument("--effort", choices=("standard", "high"), default="standard")
    gen.add_argument("--seed", type=int, default=1992)
    gen.add_argument("--target", type=float, default=None, help="stop at this coverage")
    gen.add_argument("-o", "--output", help="write vectors here instead of stdout")
    gen.set_defaults(handler=cmd_generate_tests)

    inspect = commands.add_parser(
        "inspect",
        help="render a recorded trace directory (span timeline, shard "
        "balance, gate churn, flamegraph stacks)",
    )
    inspect.add_argument(
        "trace_dir", help="directory a traced run wrote its span files into"
    )
    inspect.add_argument(
        "--trace-id", help="which trace to render when the directory holds several"
    )
    inspect.add_argument(
        "--flamegraph",
        metavar="FILE",
        help="also write collapsed stacks to FILE (flamegraph.pl format)",
    )
    inspect.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="K",
        help="gates in the churn ranking (default 10)",
    )
    inspect.set_defaults(handler=cmd_inspect)

    tables = commands.add_parser("tables", help="regenerate the paper's tables")
    tables.add_argument("--scale", type=float, default=0.25)
    tables.add_argument("--quick", action="store_true")
    tables.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="write per-cell campaign progress here; resumable with --resume",
    )
    tables.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted table campaign from --checkpoint",
    )
    tables.add_argument(
        "--deterministic",
        action="store_true",
        help="zero the wall-clock columns so resumed output is byte-identical",
    )
    tables.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="K",
        help="compute table cells in K worker processes (default 1)",
    )
    tables.set_defaults(handler=cmd_tables)

    serve = commands.add_parser(
        "serve",
        help="run the fault-simulation service (async job queue + REST API)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8350, help="TCP port (0 picks a free one)"
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N", help="worker threads (default 2)"
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        metavar="N",
        help="queued-job bound; beyond it submissions get 429 (default 256)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=8,
        metavar="N",
        help="max jobs coalesced into one circuit instantiation (default 8)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=16,
        metavar="N",
        help="cycles between per-job checkpoint writes (default 16)",
    )
    serve.add_argument(
        "--max-seconds-per-job",
        type=float,
        metavar="S",
        help="wall-clock budget per job; breached jobs finish truncated",
    )
    serve.add_argument(
        "--state-dir",
        metavar="DIR",
        help="durable state (jobs, results, cache, checkpoints); "
        "default: a fresh temporary directory",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed result cache",
    )
    serve.add_argument(
        "--trace-dir",
        metavar="DIR",
        help="record a span trace of every job here "
        "(render with `repro inspect DIR`)",
    )
    serve.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        metavar="S",
        help="seconds a claimed job may miss heartbeats before the reaper "
        "re-queues it (default 30)",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="execution attempts per job before dead-lettering (default 3)",
    )
    serve.add_argument(
        "--retry-backoff",
        type=float,
        default=0.25,
        metavar="S",
        help="base of the exponential retry backoff in seconds (default 0.25)",
    )
    serve.add_argument(
        "--requeue-dead",
        action="store_true",
        help="resurrect every dead-lettered job at startup",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        metavar="S",
        help="seconds SIGTERM waits for in-flight batches before exiting "
        "(default 30)",
    )
    serve.set_defaults(handler=cmd_serve)

    return parser


def _resume_hint(argv: Optional[List[str]]) -> str:
    words = list(argv) if argv is not None else sys.argv[1:]
    if "--resume" not in words:
        words = words + ["--resume"]
    return "python -m repro " + " ".join(words)


def main(argv: Optional[List[str]] = None) -> int:
    """Parse and dispatch; expected failures become clean exit codes.

    Anticipated errors — bad netlists, missing files, bad argument
    combinations, corrupt checkpoints (``CheckpointError`` is a
    ``ValueError``) — exit 2 with a one-line message instead of a
    traceback.  Parse-time failures (unknown subcommand, bad flag values)
    are converted from ``SystemExit`` to a returned code, so in-process
    callers get ``2`` plus argparse's usage text rather than an
    exception.  Interrupts exit 130, printing where the campaign's
    progress was saved and the exact command that resumes it.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse error (code 2) or --help/--version (0)
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except CampaignInterrupted as exc:
        print("interrupted", file=sys.stderr)
        if exc.checkpoint_path:
            print(
                f"progress saved to {exc.checkpoint_path}; resume with:\n"
                f"  {_resume_hint(argv)}",
                file=sys.stderr,
            )
        return 130
    except KeyboardInterrupt:
        print("interrupted (no checkpoint; progress lost)", file=sys.stderr)
        return 130
    except (NetlistError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        from repro.diagnosis import DictionaryBuildTruncated

        if not isinstance(exc, DictionaryBuildTruncated):
            raise
        print(f"error: {exc}", file=sys.stderr)
        if getattr(args, "checkpoint", None):
            print(
                f"progress saved to {args.checkpoint}; resume with:\n"
                f"  {_resume_hint(argv)}",
                file=sys.stderr,
            )
        return 130
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like
        # standard Unix tools.  Detach stdout so interpreter shutdown
        # does not raise a second BrokenPipeError while flushing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
