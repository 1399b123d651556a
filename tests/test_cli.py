"""Command-line interface tests (in-process, via cli.main)."""

import re

import pytest

from repro.cli import main


def _coverage_line(text):
    """The engine-independent heart of a run summary: detections,
    fault count, coverage and vector count (wall time excluded)."""
    match = re.search(r"(\d+/\d+ faults \([\d.]+%\) in \d+ vectors)", text)
    assert match, f"no summary line in {text!r}"
    return match.group(1)


class TestStats:
    def test_stats_s27(self, capsys):
        assert main(["stats", "s27"]) == 0
        out = capsys.readouterr().out
        assert "s27" in out
        assert "collapsed stuck-at faults" in out

    def test_stats_from_file(self, tmp_path, capsys):
        path = tmp_path / "c.bench"
        path.write_text("INPUT(a)\nOUTPUT(g)\ng = NOT(a)\n")
        assert main(["stats", str(path)]) == 0
        assert "c" in capsys.readouterr().out


class TestSimulate:
    def test_random_patterns(self, capsys):
        assert main(["simulate", "s27", "--random-patterns", "50", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "csim-MV" in out
        assert "faults" in out

    def test_engine_choice(self, capsys):
        assert main(["simulate", "s27", "--engine", "PROOFS",
                     "--random-patterns", "20"]) == 0
        assert "PROOFS" in capsys.readouterr().out

    def test_tests_file(self, tmp_path, capsys):
        vectors = tmp_path / "t.vec"
        vectors.write_text("0000\n1111\n0101\n")
        assert main(["simulate", "s27", "--tests", str(vectors)]) == 0
        assert "3 vectors" in capsys.readouterr().out

    def test_bad_engine_rejected(self, capsys):
        assert main(["simulate", "s27", "--engine", "bogus"]) == 2
        assert "invalid choice" in capsys.readouterr().err


class TestTransition:
    def test_runs(self, capsys):
        assert main(["transition", "s27", "--random-patterns", "30"]) == 0
        assert "csim-T" in capsys.readouterr().out


class TestLint:
    """Exit-code contract: 0 clean, 1 findings, 2 usage/parse errors."""

    def test_clean_circuit_exits_0(self, capsys):
        assert main(["lint", "s27"]) == 0
        assert "scoap" in capsys.readouterr().out  # infos still printed

    def test_fail_on_info_exits_1(self, capsys):
        assert main(["lint", "s27", "--fail-on", "info"]) == 1
        capsys.readouterr()

    def test_findings_exit_1_with_locations(self, tmp_path, capsys):
        path = tmp_path / "bad.bench"
        path.write_text("INPUT(a)\nOUTPUT(z)\nz = AND(a, missing)\n")
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "bad:3: error:" in out
        assert "undriven-net" in out

    def test_cycle_path_reported(self, tmp_path, capsys):
        path = tmp_path / "loop.bench"
        path.write_text(
            "INPUT(a)\nOUTPUT(g1)\ng1 = AND(g2, a)\ng2 = NOT(g1)\n"
        )
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "combinational-cycle" in out
        assert "->" in out

    def test_warnings_pass_default_threshold(self, tmp_path, capsys):
        path = tmp_path / "warn.bench"
        path.write_text("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\nw = NOT(z)\n")
        assert main(["lint", str(path)]) == 0  # dangling net is a warning
        assert main(["lint", str(path), "--fail-on", "warning"]) == 1
        capsys.readouterr()

    def test_unknown_circuit_exits_2(self, capsys):
        assert main(["lint", "s99999"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_flag_usage_exits_nonzero(self, capsys):
        assert main(["lint", "s27", "--fail-on", "catastrophe"]) == 2
        capsys.readouterr()

    def test_json_format(self, capsys):
        import json

        assert main(["lint", "s27", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == len(payload["diagnostics"])
        assert all(
            {"severity", "code", "message", "file", "line"} <= set(d)
            for d in payload["diagnostics"]
        )

    @pytest.mark.parametrize("name", ("s298", "s344", "s1238"))
    def test_shipped_benchmarks_clean(self, name, capsys):
        assert main(["lint", name]) == 0
        capsys.readouterr()


class TestAnalyzeFlags:
    def test_prune_untestable_identical_detections(self, capsys):
        base = ["simulate", "s386", "--random-patterns", "30", "--seed", "3"]
        assert main(base) == 0
        full = capsys.readouterr().out
        assert main(base + ["--prune-untestable"]) == 0
        captured = capsys.readouterr()
        assert "pruned" in captured.err
        # Same detections; only the denominator (universe size) shrinks.
        detected = full.split("/")[0]
        assert captured.out.split("/")[0] == detected

    def test_sanitize_runs_clean(self, capsys):
        assert main(["simulate", "s27", "--random-patterns", "30",
                     "--sanitize"]) == 0
        assert "csim-MV" in capsys.readouterr().out

    def test_sanitize_requires_concurrent_engine(self, capsys):
        assert main(["simulate", "s27", "--engine", "PROOFS",
                     "--sanitize"]) == 2
        assert "concurrent engine" in capsys.readouterr().err

    def test_sanitize_and_ladder_exit_2(self, capsys):
        assert main(["simulate", "s27", "--ladder", "--sanitize"]) == 2
        assert "--sanitize" in capsys.readouterr().err

    def test_transition_flags_compose(self, capsys):
        assert main(["transition", "s386", "--random-patterns", "20",
                     "--prune-untestable", "--sanitize"]) == 0
        captured = capsys.readouterr()
        assert "pruned" in captured.err
        assert "csim-TV" in captured.out

    def test_pruned_checkpoint_resume_roundtrip(self, tmp_path, capsys):
        base = ["simulate", "s386", "--random-patterns", "30", "--seed", "3",
                "--prune-untestable"]
        assert main(base) == 0
        straight = _coverage_line(capsys.readouterr().out)
        path = str(tmp_path / "ck.pkl")
        assert main(base + ["--checkpoint", path, "--max-cycles", "10"]) == 0
        capsys.readouterr()
        assert main(base + ["--checkpoint", path, "--resume"]) == 0
        assert _coverage_line(capsys.readouterr().out) == straight


class TestGenerateTests:
    def test_writes_vectors_to_stdout(self, capsys):
        assert main(["generate-tests", "s27", "--target", "0.5"]) == 0
        captured = capsys.readouterr()
        lines = [line for line in captured.out.splitlines() if line]
        assert lines, "no vectors produced"
        assert all(set(line) <= set("01X") for line in lines)
        assert "coverage" in captured.err

    def test_output_file_roundtrips(self, tmp_path, capsys):
        out = tmp_path / "t.vec"
        assert main(["generate-tests", "s27", "--target", "0.5",
                     "-o", str(out)]) == 0
        assert main(["simulate", "s27", "--tests", str(out)]) == 0
        assert "faults" in capsys.readouterr().out


class TestParser:
    """Parse-time failures return 2 with usage — never a traceback."""

    def test_missing_command_exits_2_with_usage(self, capsys):
        assert main([]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2_with_usage(self, capsys):
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "invalid choice" in err

    def test_version_prints_and_exits_0(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()

    def test_serve_help_smoke(self, capsys):
        assert main(["serve", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--queue-limit" in out
        assert "--workers" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "s27", "--verbose"],
            ["serve", "--verbose"],
            ["inspect", "trace-dir", "--columns", "80"],
            ["build-dictionary", "s27", "-o", "d.json", "--no-collapse"],
            ["diagnose", "s27", "--failures", "5:0", "--no-collapse"],
            ["simulate", "s27", "--max-seconds", "5"],
            ["transition", "s27", "--max-seconds", "5"],
            ["build-dictionary", "s27", "-o", "d.json", "--max-seconds", "5"],
            ["diagnose", "s27", "--failures", "5:0", "--max-seconds", "5"],
            ["simulate", "s27", "--max-memory-mb", "64"],
            ["transition", "s27", "--max-memory-mb", "64"],
            ["build-dictionary", "s27", "-o", "d.json", "--max-memory-mb", "64"],
            ["diagnose", "s27", "--failures", "5:0", "--max-memory-mb", "64"],
            ["simulate", "s27", "--jobs", "2", "--shard-strategy", "round-robin"],
            ["transition", "s27", "--jobs", "2", "--shard-strategy", "round-robin"],
            ["build-dictionary", "s27", "-o", "d.json", "--shard-strategy", "round-robin"],
            ["diagnose", "s27", "--failures", "5:0", "--shard-strategy", "round-robin"],
        ],
        ids=lambda argv: f"{argv[0]}{[a for a in argv if a.startswith('--')][-1]}",
    )
    def test_removed_flag_exits_2(self, argv, capsys, monkeypatch):
        # Were a flag accepted again, a parsed serve command must fail
        # here rather than boot a server.
        monkeypatch.setattr("repro.cli.cmd_serve", lambda args: 0)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err
        assert "unrecognized arguments" in captured.err

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_diagnose_top_below_one_exits_2(self, top, capsys):
        # 0 used to print "no candidates" and -1 to drop the last one.
        assert main(["diagnose", "s27", "--random-patterns", "64", "--seed", "9",
                     "--failures", "5:0", "--top", top]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err
        assert "--top" in captured.err

    def test_unknown_circuit_exits_2(self, capsys):
        assert main(["stats", "s99999"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "s99999" in err


class TestErrorHandling:
    """Anticipated failures exit 2 with a one-line message, no traceback."""

    def test_missing_tests_file_exits_2(self, capsys):
        assert main(["simulate", "s27", "--tests", "/no/such/file.vec"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "file.vec" in err

    def test_bad_bench_file_exits_2_with_line_context(self, tmp_path, capsys):
        path = tmp_path / "broken.bench"
        path.write_text("INPUT(a)\ng = FROB(a)\nOUTPUT(g)\n")
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "broken:2:" in err  # file:line context survives to the user

    def test_resume_without_checkpoint_exits_2(self, capsys):
        assert main(["simulate", "s27", "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_ladder_and_checkpoint_exit_2(self, tmp_path, capsys):
        assert main(["simulate", "s27", "--ladder",
                     "--checkpoint", str(tmp_path / "ck.pkl")]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_resume_from_corrupt_checkpoint_exits_2(self, tmp_path, capsys):
        path = tmp_path / "ck.pkl"
        assert main(["simulate", "s27", "--random-patterns", "40",
                     "--checkpoint", str(path)]) == 0
        capsys.readouterr()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert main(["simulate", "s27", "--random-patterns", "40",
                     "--checkpoint", str(path), "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "truncated or corrupt" in err


class TestCheckpointFlow:
    def test_sharded_resume_without_any_checkpoint_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "none.ckpt")
        argv = ["simulate", "s27", "--random-patterns", "20", "--jobs", "2",
                "--checkpoint", path, "--resume"]
        assert main(argv) == 2
        assert "no checkpoint file" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())  # nothing was recomputed

    def test_dictionary_resume_without_checkpoint_exits_2(self, tmp_path, capsys):
        output = tmp_path / "d.json"
        argv = ["build-dictionary", "s27", "--random-patterns", "20",
                "-o", str(output), "--checkpoint", str(tmp_path / "none.ckpt"),
                "--resume"]
        assert main(argv) == 2
        assert "no checkpoint file" in capsys.readouterr().err
        assert not output.exists()

    def test_single_job_dictionary_checkpoints_to_the_given_path(self, tmp_path, capsys):
        """``--jobs 1`` builds checkpoint where ``simulate`` does: the path itself."""
        path = tmp_path / "d.ckpt"
        argv = ["build-dictionary", "s27", "--random-patterns", "30",
                "-o", str(tmp_path / "d.json"), "--checkpoint", str(path)]
        assert main(argv + ["--max-cycles", "10"]) == 130
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.ckpt"]
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        assert (tmp_path / "d.json").exists()

    def test_truncated_then_resumed_matches_straight_run(self, tmp_path, capsys):
        base = ["simulate", "s27", "--random-patterns", "60", "--seed", "7"]
        assert main(base) == 0
        straight = _coverage_line(capsys.readouterr().out)

        path = str(tmp_path / "ck.pkl")
        assert main(base + ["--checkpoint", path, "--max-cycles", "20"]) == 0
        first_leg = capsys.readouterr().out
        assert "[truncated: cycle budget" in first_leg

        assert main(base + ["--checkpoint", path, "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "truncated" not in resumed
        assert _coverage_line(resumed) == straight

    def test_transition_checkpoint_roundtrip(self, tmp_path, capsys):
        base = ["transition", "s27", "--random-patterns", "40"]
        assert main(base) == 0
        straight = _coverage_line(capsys.readouterr().out)

        path = str(tmp_path / "ck.pkl")
        assert main(base + ["--checkpoint", path, "--max-cycles", "15"]) == 0
        capsys.readouterr()
        assert main(base + ["--checkpoint", path, "--resume"]) == 0
        assert _coverage_line(capsys.readouterr().out) == straight

    def test_interrupt_exits_130_with_resume_hint(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.concurrent.engine import ConcurrentFaultSimulator

        path = str(tmp_path / "ck.pkl")
        real_step = ConcurrentFaultSimulator.step
        calls = {"n": 0}

        def interrupting_step(self, vector):
            calls["n"] += 1
            if calls["n"] == 15:
                raise KeyboardInterrupt
            return real_step(self, vector)

        monkeypatch.setattr(ConcurrentFaultSimulator, "step", interrupting_step)
        argv = ["simulate", "s27", "--random-patterns", "60", "--seed", "7",
                "--checkpoint", path, "--checkpoint-every", "4"]
        assert main(argv) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "resume with" in err
        assert "--resume" in err

        monkeypatch.setattr(ConcurrentFaultSimulator, "step", real_step)
        assert main(["simulate", "s27", "--random-patterns", "60", "--seed", "7"]) == 0
        straight = _coverage_line(capsys.readouterr().out)
        assert main(argv + ["--resume"]) == 0
        assert _coverage_line(capsys.readouterr().out) == straight

    def test_interrupt_without_checkpoint_exits_130(self, capsys, monkeypatch):
        from repro.concurrent.engine import ConcurrentFaultSimulator

        def exploding_step(self, vector):
            raise KeyboardInterrupt

        monkeypatch.setattr(ConcurrentFaultSimulator, "step", exploding_step)
        assert main(["simulate", "s27", "--random-patterns", "20"]) == 130
        assert "progress lost" in capsys.readouterr().err


class TestBudgetsAndLadder:
    def test_max_cycles_flags_truncation(self, capsys):
        assert main(["simulate", "s27", "--random-patterns", "50",
                     "--max-cycles", "10"]) == 0
        out = capsys.readouterr().out
        assert "in 10 vectors" in out
        assert "[truncated: cycle budget" in out

    def test_ladder_clean_run(self, capsys):
        assert main(["simulate", "s27", "--random-patterns", "50", "--seed", "3",
                     "--ladder"]) == 0
        out = capsys.readouterr().out
        assert "degraded" not in out  # honest engines pass the audit

    def test_tables_checkpoint_resume(self, tmp_path, capsys):
        path = str(tmp_path / "tables.pkl")
        base = ["tables", "--quick", "--scale", "0.05", "--deterministic"]
        assert main(base + ["--checkpoint", path]) == 0
        first = capsys.readouterr().out
        assert main(base + ["--checkpoint", path, "--resume"]) == 0
        assert capsys.readouterr().out == first
