"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli.main import build_parser, main


@pytest.fixture(scope="module")
def firehose(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "firehose.jsonl"
    code = main(["generate", str(path), "--scale", "0.004", "--seed", "3"])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def corpus_file(firehose, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.jsonl"
    code = main(["collect", str(firehose), str(path)])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("cli") / "run"
    argv = ["run", str(run_dir), "--scale", "0.004", "--seed", "3", "--k", "6"]
    assert main(argv + ["--trace"]) == 0
    return run_dir


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "out.jsonl"])
        assert args.scale == 0.02
        assert args.seed == 0


class TestGenerate:
    def test_writes_jsonl(self, firehose):
        lines = firehose.read_text().strip().splitlines()
        assert len(lines) > 500
        assert lines[0].startswith("{")

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        main(["generate", str(a), "--scale", "0.002", "--seed", "9"])
        main(["generate", str(b), "--scale", "0.002", "--seed", "9"])
        assert a.read_text() == b.read_text()


class TestCollect:
    def test_produces_corpus(self, corpus_file):
        from repro.dataset.corpus import TweetCorpus
        from repro.dataset.io import read_jsonl

        corpus = TweetCorpus(read_jsonl(corpus_file))
        assert len(corpus) > 50
        assert all(record.state is not None for record in corpus)

    def test_missing_firehose_errors(self, tmp_path, capsys):
        code = main([
            "collect", str(tmp_path / "nope.jsonl"), str(tmp_path / "o.jsonl"),
        ])
        assert code != 0 or "error" in capsys.readouterr().out.lower()

    def test_no_geotag_flag(self, firehose, tmp_path, capsys):
        out = tmp_path / "nogps.jsonl"
        code = main(["collect", str(firehose), str(out), "--no-geotag"])
        assert code == 0
        assert "Located via GPS geo-tag: 0" in capsys.readouterr().out

    def test_chaos_flag_same_corpus(self, firehose, corpus_file, tmp_path,
                                     capsys):
        out = tmp_path / "chaos.jsonl"
        code = main([
            "collect", str(firehose), str(out), "--chaos", "--chaos-seed", "5",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "chaos mode" in printed
        assert "Disconnects survived" in printed
        # The headline guarantee: injected faults never change the corpus.
        assert out.read_bytes() == corpus_file.read_bytes()

    def test_chaos_seed_changes_fault_schedule(self, firehose, tmp_path,
                                               capsys):
        out = tmp_path / "chaos2.jsonl"
        code = main([
            "collect", str(firehose), str(out), "--chaos", "--chaos-seed", "9",
        ])
        assert code == 0
        assert "seed=9" in capsys.readouterr().out


class TestWorkerChaos:
    def test_worker_chaos_flag_same_corpus(self, firehose, corpus_file,
                                           tmp_path, capsys):
        out = tmp_path / "wchaos.jsonl"
        code = main([
            "collect", str(firehose), str(out),
            "--workers", "2", "--worker-chaos", "--worker-chaos-seed", "5",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "worker chaos mode" in printed
        assert "Worker crashes survived" in printed
        assert "Tasks quarantined: 0" in printed
        # Injected worker faults never change the corpus either.
        assert out.read_bytes() == corpus_file.read_bytes()


class TestRun:
    def test_run_then_resume(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        argv = [
            "run", str(run_dir), "--scale", "0.01", "--seed", "7", "--k", "6",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "10 stages run, 0 skipped" in out
        assert (run_dir / "journal.json").exists()
        assert (run_dir / "fig7.txt").exists()
        assert main(argv + ["--resume"]) == 0
        assert "0 stages run, 10 skipped" in capsys.readouterr().out

    def test_run_refuses_existing_directory(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        argv = [
            "run", str(run_dir), "--scale", "0.01", "--seed", "7", "--k", "6",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 1
        assert "already contains" in capsys.readouterr().out

    def test_resume_without_journal_errors(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "missing"), "--resume"])
        assert code == 1
        assert "no journal" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--k", "3", "k must be >= 6"),
            ("--alpha", "1.5", "alpha must be in (0, 1)"),
            ("--workers", "0", "workers must be >= 1"),
            ("--scale", "0", "scale must be > 0"),
            ("--seed", "-1", "seed must be >= 0"),
        ],
    )
    def test_bad_parameter_fails_before_anything_runs(
        self, tmp_path, capsys, flag, value, message
    ):
        run_dir = tmp_path / "run"
        argv = ["run", str(run_dir), "--scale", "0.01", "--seed", "1"]
        assert main(argv + [flag, value]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error: ")
        assert message in out
        assert "stage" not in out
        assert not run_dir.exists()


class TestTrace:
    def test_text_lists_child_spans_under_their_stage(self, traced_run, capsys):
        capsys.readouterr()
        assert main(["trace", str(traced_run)]) == 0
        lines = capsys.readouterr().out.splitlines()
        at = next(
            i for i, line in enumerate(lines)
            if line.startswith("  stage.firehose [main] ")
        )
        assert lines[at + 1].startswith("    synth.world ")
        assert lines[at + 2].startswith("    firehose.render_write ")
        assert lines[at + 3].startswith("  stage.collect [main] ")

    def test_json_lists_child_spans_under_their_stage(self, traced_run, capsys):
        capsys.readouterr()
        assert main(["trace", str(traced_run), "--format", "json"]) == 0
        stages = json.loads(capsys.readouterr().out)["stages"]
        by_name = {stage["name"]: stage for stage in stages}
        firehose = by_name["stage.firehose"]
        children = firehose["children"]
        assert [child["name"] for child in children] == [
            "synth.world", "firehose.render_write",
        ]
        assert sum(child["duration"] for child in children) <= firehose["duration"]
        assert by_name["stage.fig7"]["children"] == []


class TestAnalyze:
    def test_single_artifact(self, corpus_file, capsys):
        code = main([
            "analyze", str(corpus_file), "--artifacts", "table1", "--k", "6",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out

    def test_multiple_artifacts_to_files(self, corpus_file, tmp_path):
        code = main([
            "analyze", str(corpus_file),
            "--artifacts", "table1,fig2,fig5",
            "--out", str(tmp_path / "artifacts"),
            "--k", "6",
        ])
        assert code == 0
        for name in ("table1", "fig2", "fig5"):
            assert (tmp_path / "artifacts" / f"{name}.txt").exists()

    def test_csv_export(self, corpus_file, tmp_path):
        code = main([
            "analyze", str(corpus_file), "--artifacts", "table1",
            "--csv", str(tmp_path / "csv"), "--k", "6",
        ])
        assert code == 0
        assert (tmp_path / "csv" / "fig5.csv").exists()
        assert len(list((tmp_path / "csv").glob("*.csv"))) == 7

    def test_unknown_artifact_rejected(self, corpus_file, capsys):
        code = main(["analyze", str(corpus_file), "--artifacts", "fig99"])
        assert code == 2
        assert "unknown artifacts" in capsys.readouterr().out

    def test_degenerate_corpus_reports_error(self, corpus_file, capsys):
        # k far beyond the user count must fail cleanly, not traceback.
        code = main([
            "analyze", str(corpus_file), "--artifacts", "fig7",
            "--k", "10000000",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().out.lower()


class TestMonitor:
    def test_emits_snapshots(self, firehose, capsys):
        code = main([
            "monitor", str(firehose), "--emit-every", "200",
            "--window-days", "90",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "done:" in out
        assert "tweets=" in out


class TestErrorPath:
    """A ``ReproError`` or ``OSError`` that no command handles ends in one
    ``error:`` line and exit code 1, and leaves no output behind."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "{out}", "--scale", "0"],
            ["generate", "{out}", "--scale", "nan"],
            ["generate", "{missing}"],
            ["generate", "{out}", "--seed", "-1"],
            ["calibrate", "--scale", "0"],
            ["calibrate", "--seed", "-1"],
            ["reproduce", "--scale", "-1"],
            ["replicate", "--seeds", "1", "--scale", "0"],
            ["monitor", "{firehose}", "--window-days", "0"],
            ["monitor", "{firehose}", "--min-users", "0"],
            ["analyze", "{corpus}", "--alpha", "2", "--out", "{out}"],
            ["collect", "{firehose}", "{out}", "--min-confidence", "2"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_error_line_and_exit_one(
        self, argv, firehose, corpus_file, tmp_path, capsys
    ):
        paths = {
            "out": tmp_path / "out.jsonl",
            "missing": tmp_path / "missing" / "out.jsonl",
            "firehose": firehose,
            "corpus": corpus_file,
        }
        assert main([part.format(**paths) for part in argv]) == 1
        captured = capsys.readouterr()
        errors = [
            line for line in captured.out.splitlines()
            if line.startswith("error:")
        ]
        assert len(errors) == 1
        assert captured.out.splitlines()[-1] == errors[0]
        assert captured.err == ""
        assert list(tmp_path.iterdir()) == []

    def test_no_traceback_from_the_module_entry_point(self, tmp_path):
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = tmp_path / "out.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "generate", str(out),
             "--scale", "0"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout.startswith("error: scale must be > 0")
        assert proc.stderr == ""
        assert not out.exists()

    @pytest.mark.parametrize("unbuffered", ("1", ""), ids=("unbuffered", "buffered"))
    def test_closed_stdout_exits_one_without_traceback(
        self, traced_run, unbuffered
    ):
        """``repro trace RUN | (exit 0)``: the reader is gone before the
        first line is written."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "trace", str(traced_run)],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""  # no traceback, no "Exception ignored"


class TestReproduce:
    def test_runs_and_reports_verdicts(self, capsys):
        # Small scale: some shape checks may fail for power, but the
        # battery itself must run and render.
        code = main(["reproduce", "--scale", "0.02", "--seed", "7"])
        out = capsys.readouterr().out
        assert "Reproduction verdicts" in out
        assert "checks passed" in out
        assert code in (0, 1)


class TestCalibrate:
    def test_calibrated_world_passes(self, capsys):
        code = main(["calibrate", "--scale", "0.02", "--seed", "1"])
        out = capsys.readouterr().out
        assert "us_yield" in out
        assert code == 0
        assert "CALIBRATED" in out


class TestDiskChaos:
    def test_disk_chaos_corpus_byte_identical(self, firehose, corpus_file,
                                              tmp_path, capsys):
        chaotic = tmp_path / "chaotic.jsonl"
        code = main([
            "collect", str(firehose), str(chaotic),
            "--disk-chaos", "--disk-chaos-seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "disk chaos mode" in out
        assert "transient EIO injected" in out
        assert chaotic.read_bytes() == corpus_file.read_bytes()


class TestScrub:
    def test_clean_corpus_exits_zero(self, corpus_file, capsys):
        code = main(["scrub", str(corpus_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "files scanned" in out

    def test_bitrot_is_quarantined_and_exit_nonzero(self, firehose,
                                                    tmp_path, capsys):
        from repro.faults.storage import flip_bits

        path = tmp_path / "corpus.jsonl"
        assert main(["collect", str(firehose), str(path)]) == 0
        flip_bits(str(path), seed=2, flips=3)
        capsys.readouterr()

        code = main(["scrub", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "quarantined" in out
        assert (tmp_path / "corpus.jsonl.quarantine.jsonl").exists()
        # A second scrub finds a healthy corpus again.
        assert main(["scrub", str(path)]) == 0

    def test_no_quarantine_reports_without_touching(self, firehose,
                                                    tmp_path, capsys):
        from repro.faults.storage import flip_bits

        path = tmp_path / "corpus.jsonl"
        assert main(["collect", str(firehose), str(path)]) == 0
        flip_bits(str(path), seed=2, flips=2)
        before = path.read_bytes()
        capsys.readouterr()

        code = main(["scrub", str(path), "--no-quarantine"])
        assert code == 1
        assert "corrupt" in capsys.readouterr().out
        assert path.read_bytes() == before
        assert not (tmp_path / "corpus.jsonl.quarantine.jsonl").exists()

    def test_repair_from_replica_directory(self, firehose, tmp_path, capsys):
        from repro.faults.storage import flip_bits

        path = tmp_path / "corpus.jsonl"
        replicas = tmp_path / "replicas"
        replicas.mkdir()
        assert main(["collect", str(firehose), str(path)]) == 0
        (replicas / path.name).write_bytes(path.read_bytes())
        flip_bits(str(path), seed=4, flips=2)
        capsys.readouterr()

        code = main(["scrub", str(path), "--repair-from", str(replicas)])
        assert code == 0
        assert "repaired" in capsys.readouterr().out

    def test_directory_scrub_discovers_sidecars(self, corpus_file, capsys):
        code = main(["scrub", str(corpus_file.parent)])
        assert code == 0
        assert "files scanned" in capsys.readouterr().out
