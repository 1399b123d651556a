"""``repro inspect``: rendering a real recorded trace directory.

A traced parallel run (span files from the coordinator and every shard
process, plus the manifest/telemetry sidecars) is the fixture; the
assertions cover each report section — timeline, shard balance, churn —
and the collapsed-stack flamegraph output.
"""

import re

import pytest

from repro.campaign import Campaign, execute

from repro.obs.inspect import (
    inspect_trace,
    load_sidecar,
    render_timeline,
    shard_balance_table,
    top_gates_report,
)
from repro.obs.span import TraceContext, read_spans, stitch_trace, trace_ids
from repro.patterns.random_gen import random_sequence


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One parallel campaign recorded into a fresh trace directory."""
    from repro.circuit.library import load

    trace_dir = str(tmp_path_factory.mktemp("trace"))
    circuit = load("s27")
    tests = random_sequence(circuit, 20, seed=6)
    ctx = TraceContext.new_trace()
    result = execute(
        Campaign(circuit, tests, "csim-MV", jobs=2, trace_dir=trace_dir, trace_ctx=ctx)
    )
    return trace_dir, ctx, result


class TestSections:
    def test_timeline_lists_every_phase(self, traced_run):
        trace_dir, ctx, _ = traced_run
        roots = stitch_trace(read_spans(trace_dir), ctx.trace_id)
        text = render_timeline(roots)
        assert ctx.trace_id in text.splitlines()[0]
        assert "plan" in text
        assert "shard 0/" in text
        assert "shard 1/" in text
        assert "merge" in text
        assert re.search(r"\d+\.\d+ ms", text)

    def test_shard_balance_table(self, traced_run):
        trace_dir, ctx, _ = traced_run
        roots = stitch_trace(read_spans(trace_dir), ctx.trace_id)
        table = shard_balance_table(roots)
        assert "shard work balance" in table
        assert "slowest/mean" in table
        assert re.search(r"balance: \d+ shards", table)

    def test_balance_table_without_shards(self):
        assert "no shard spans" in shard_balance_table([])

    def test_sidecars_resolve_by_trace_id(self, traced_run):
        trace_dir, ctx, result = traced_run
        manifest = load_sidecar(trace_dir, "manifest", ctx.trace_id)
        assert manifest["trace_id"] == ctx.trace_id
        assert manifest["jobs"] == 2
        telemetry = load_sidecar(trace_dir, "telemetry", ctx.trace_id)
        assert telemetry["counters"]["cycles"] == result.counters.cycles

    def test_top_gates_report(self, traced_run):
        trace_dir, ctx, _ = traced_run
        telemetry = load_sidecar(trace_dir, "telemetry", ctx.trace_id)
        report = top_gates_report(telemetry, top_k=5)
        assert "gates by fault-evaluation churn" in report
        assert top_gates_report(None) == "(no telemetry.json in trace directory)"


class TestFullReport:
    def test_inspect_trace_renders_all_sections(self, traced_run, tmp_path):
        trace_dir, ctx, _ = traced_run
        flame = str(tmp_path / "folded.txt")
        report = inspect_trace(trace_dir, flamegraph=flame)
        assert f"trace {ctx.trace_id}" in report
        assert "shard work balance" in report
        assert "manifest:" in report
        assert "collapsed stacks" in report
        lines = open(flame).read().splitlines()
        assert lines and all(
            re.match(r"^\S.* \d+$", line) for line in lines
        )
        assert any(line.startswith("shard ") for line in lines)

    def test_missing_traces_reported(self, tmp_path):
        assert "no span files" in inspect_trace(str(tmp_path))


class TestCli:
    def test_cli_inspect_renders(self, traced_run, capsys):
        from repro.cli import main

        trace_dir, ctx, _ = traced_run
        assert main(["inspect", trace_dir]) == 0
        out = capsys.readouterr().out
        assert ctx.trace_id in out
        assert "shard work balance" in out

    def test_cli_inspect_flamegraph_and_trace_id(self, traced_run, tmp_path, capsys):
        from repro.cli import main

        trace_dir, ctx, _ = traced_run
        flame = str(tmp_path / "out.folded")
        assert (
            main(
                [
                    "inspect", trace_dir,
                    "--trace-id", ctx.trace_id,
                    "--flamegraph", flame,
                    "--top", "3",
                ]
            )
            == 0
        )
        assert "collapsed stacks" in capsys.readouterr().out
        assert open(flame).read().strip()

    def test_cli_inspect_rejects_non_directory(self, tmp_path):
        from repro.cli import main

        missing = str(tmp_path / "nope")
        assert main(["inspect", missing]) == 2

    def test_multi_trace_directory_lists_ids(self, traced_run, capsys):
        """A second trace in the same directory: inspect names both ids."""
        from repro.circuit.library import load
        from repro.cli import main

        trace_dir, first_ctx, _ = traced_run
        circuit = load("s27")
        tests = random_sequence(circuit, 10, seed=7)
        second = TraceContext.new_trace()
        execute(
            Campaign(
                circuit, tests, "csim-MV", jobs=2, trace_dir=trace_dir, trace_ctx=second
            )
        )
        ids = trace_ids(read_spans(trace_dir))
        assert set(ids) == {first_ctx.trace_id, second.trace_id}
        assert main(["inspect", trace_dir]) == 0
        out = capsys.readouterr().out
        assert "2 traces" in out
        assert "--trace-id" in out
