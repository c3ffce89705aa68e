"""Tests for the stage-checkpointed run journal."""

import json

import pytest

from repro.errors import ConfigError, PipelineError
from repro.pipeline.journal import (
    STAGE_ARTIFACTS,
    STAGES,
    RunJournal,
    RunParams,
    run_stages,
)

#: Small but analysis-complete: k must be >= the 6 organs and the corpus
#: must keep enough users for clustering.
PARAMS = RunParams(scale=0.01, seed=7, k=6)


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("journaled_run")
    summary = run_stages(run_dir, PARAMS)
    return run_dir, summary


class TestRunParams:
    def test_fingerprint_is_stable(self):
        assert RunParams().fingerprint() == RunParams().fingerprint()

    def test_fingerprint_distinguishes_every_field(self):
        base = RunParams()
        variants = [
            RunParams(scale=0.02), RunParams(seed=1), RunParams(workers=2),
            RunParams(k=6), RunParams(alpha=0.01), RunParams(chaos=True),
            RunParams(chaos_seed=1), RunParams(worker_chaos=True),
            RunParams(worker_chaos_seed=1),
        ]
        prints = {v.fingerprint() for v in variants}
        assert len(prints) == len(variants)
        assert base.fingerprint() not in prints

    def test_round_trips_through_dict(self):
        params = RunParams(scale=0.5, seed=3, chaos=True, worker_chaos=True)
        assert RunParams.from_dict(params.to_dict()) == params

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scale": 0.0}, {"scale": -1.0}, {"scale": float("nan")},
            {"scale": float("inf")}, {"workers": 0}, {"k": 5},
            {"alpha": 0.0}, {"alpha": 1.0}, {"alpha": float("nan")},
            {"seed": -1},
        ],
    )
    def test_out_of_bounds_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RunParams(**kwargs)


class TestFreshRun:
    def test_runs_every_stage_and_writes_every_artifact(self, completed_run):
        run_dir, summary = completed_run
        assert summary.stages_run == STAGES
        assert summary.stages_skipped == ()
        for __, artifacts in STAGE_ARTIFACTS:
            for name in artifacts:
                assert (run_dir / name).exists(), name
        assert (run_dir / "journal.json").exists()

    def test_report_artifact_round_trips_health(self, completed_run):
        run_dir, summary = completed_run
        assert summary.report.retained > 0
        data = json.loads((run_dir / "report.json").read_text())
        assert data["retained"] == summary.report.retained

    def test_refuses_to_clobber_an_existing_run(self, completed_run):
        run_dir, __ = completed_run
        with pytest.raises(PipelineError, match="already contains"):
            run_stages(run_dir, PARAMS)


class TestResume:
    def test_resume_of_complete_run_skips_everything(self, completed_run):
        run_dir, __ = completed_run
        summary = run_stages(run_dir, PARAMS, resume=True)
        assert summary.stages_run == ()
        assert summary.stages_skipped == STAGES

    def test_resume_requires_a_journal(self, tmp_path):
        with pytest.raises(PipelineError, match="no journal"):
            run_stages(tmp_path, PARAMS, resume=True)

    def test_resume_refuses_different_parameters(self, completed_run):
        run_dir, __ = completed_run
        other = RunParams(scale=0.01, seed=8, k=6)
        with pytest.raises(PipelineError, match="parameters differ"):
            run_stages(run_dir, other, resume=True)

    def test_resume_detects_a_tampered_artifact(self, completed_run, tmp_path):
        run_dir, __ = completed_run
        journal_blob = (run_dir / "journal.json").read_bytes()
        target = tmp_path / "copy"
        target.mkdir()
        for path in run_dir.iterdir():
            (target / path.name).write_bytes(path.read_bytes())
        (target / "fig2.txt").write_text("tampered\n")
        with pytest.raises(PipelineError, match="hash mismatch"):
            run_stages(target, PARAMS, resume=True)
        assert (run_dir / "journal.json").read_bytes() == journal_blob

    def test_resume_detects_a_missing_artifact(self, completed_run, tmp_path):
        run_dir, __ = completed_run
        target = tmp_path / "copy"
        target.mkdir()
        for path in run_dir.iterdir():
            (target / path.name).write_bytes(path.read_bytes())
        (target / "fig3.txt").unlink()
        with pytest.raises(PipelineError, match="missing"):
            run_stages(target, PARAMS, resume=True)

    def test_partial_resume_reruns_only_incomplete_stages(
        self, completed_run, tmp_path
    ):
        run_dir, __ = completed_run
        target = tmp_path / "partial"
        target.mkdir()
        for path in run_dir.iterdir():
            (target / path.name).write_bytes(path.read_bytes())
        reference = {
            p.name: p.read_bytes()
            for p in target.iterdir()
            if p.name != "journal.json"
        }
        # Simulate a crash after fig4: later stages unjournaled, their
        # artifacts torn or absent.
        journal = json.loads((target / "journal.json").read_text())
        for stage in ("fig5", "fig6", "fig7"):
            del journal["stages"][stage]
        (target / "journal.json").write_text(json.dumps(journal))
        (target / "fig5.txt").write_text("torn half-written artifact")
        (target / "fig6.txt").unlink()
        summary = run_stages(target, PARAMS, resume=True)
        assert summary.stages_run == ("fig5", "fig6", "fig7")
        assert summary.stages_skipped == STAGES[:-3]
        for name, blob in reference.items():
            assert (target / name).read_bytes() == blob, name


class TestJournalFile:
    def test_load_rejects_garbage(self, tmp_path):
        (tmp_path / "journal.json").write_text("{not json")
        with pytest.raises(PipelineError, match="unreadable"):
            RunJournal.load(tmp_path)

    def test_load_rejects_inconsistent_fingerprint(self, tmp_path):
        payload = {
            "fingerprint": "0" * 64,
            "params": RunParams().to_dict(),
            "stages": {},
        }
        (tmp_path / "journal.json").write_text(json.dumps(payload))
        with pytest.raises(PipelineError, match="inconsistent"):
            RunJournal.load(tmp_path)

    def test_journal_write_is_atomic(self, completed_run):
        run_dir, __ = completed_run
        assert not (run_dir / "journal.json.tmp").exists()
        data = json.loads((run_dir / "journal.json").read_text())
        assert data["fingerprint"] == PARAMS.fingerprint()
        assert set(data["stages"]) == set(STAGES)
