"""Funnel equivalence across every entry point.

The §III-A funnel — collect with Q = Context × Subject, locate, keep US
states, extract organ mentions — defines the one population every table
and figure is computed on.  Four drivers feed it:

* the serial runner (2048-tweet batches);
* the sharded workers (``workers=2``);
* the incremental collector, one tweet at a time, split across two runs
  with a reopen between them;
* the rolling sensor, one tweet at a time, with a window longer than the
  stream so no tweet goes stale.

On the same firehose they must retain byte-identical records and count
identical funnel counters (every :class:`PipelineReport` counter), with
and without combined transport chaos, at three seeds.
"""

import json
from datetime import timedelta

import pytest

from repro.config import ResiliencePolicy
from repro.pipeline.incremental import IncrementalCollector
from repro.pipeline.runner import CollectionPipeline, PipelineReport
from repro.sensor.rolling import RollingAwarenessSensor
from repro.synth.scenarios import paper2016_scenario
from repro.synth.world import SyntheticWorld
from repro.twitter.faults import FaultPlan, FaultySource
from repro.twitter.resilient import ResilientStream

SEEDS = (3, 11, 42)
ENTRY_POINTS = ("sharded", "incremental", "sensor")


def make_firehose(seed: int) -> list:
    world = SyntheticWorld(paper2016_scenario(scale=0.004, seed=seed))
    return list(world.firehose())


def record_lines(records) -> list[str]:
    return [
        json.dumps(record.to_dict(), ensure_ascii=False) for record in records
    ]


def counters(report: PipelineReport) -> dict[str, object]:
    """Every funnel counter; the health reports differ by driver."""
    data = report.to_dict()
    del data["reliability"], data["compute"]
    return data


def run_serial(tmp_path, source, plan):
    corpus, report = CollectionPipeline().run(source, fault_plan=plan)
    return corpus.records, report


def run_sharded(tmp_path, source, plan):
    corpus, report = CollectionPipeline().run(
        source, fault_plan=plan, workers=2
    )
    return corpus.records, report


def run_incremental(tmp_path, source, plan):
    path = tmp_path / "incremental.jsonl"
    half = len(source) // 2
    first = IncrementalCollector(path)
    first.run(source[:half], fault_plan=plan)
    reopened = IncrementalCollector(path)
    reopened.run(source[half:], fault_plan=plan)
    return reopened.load_corpus().records, first.report.merge(reopened.report)


def run_sensor(tmp_path, source, plan):
    stream = source
    if plan is not None:
        stream = ResilientStream(FaultySource(source, plan), ResiliencePolicy())
    span = source[-1].created_at - source[0].created_at
    sensor = RollingAwarenessSensor(window=span + timedelta(days=1))
    for tweet in stream:
        sensor.observe(tweet)
    assert sensor.stale_dropped == 0
    assert sensor.retained == sensor.report.retained
    # A window longer than the stream holds every retained record.
    return list(sensor._buffer), sensor.report


RUNNERS = {
    "sharded": run_sharded,
    "incremental": run_incremental,
    "sensor": run_sensor,
}


@pytest.fixture(scope="module", params=SEEDS)
def seeded(request):
    seed = request.param
    source = make_firehose(seed)
    records, report = run_serial(None, source, None)
    return seed, source, record_lines(records), counters(report)


class TestEveryEntryPointRunsTheSameFunnel:
    @pytest.mark.parametrize("chaos", [False, True], ids=["plain", "chaos"])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_records_and_counters_identical_to_serial(
        self, tmp_path, seeded, entry, chaos
    ):
        seed, source, expected_lines, expected_counters = seeded
        plan = FaultPlan.chaos(seed=seed) if chaos else None
        records, report = RUNNERS[entry](tmp_path, source, plan)
        assert expected_lines
        assert record_lines(records) == expected_lines
        assert counters(report) == expected_counters
        assert report.stream_dropped + report.collected == len(source)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_serial_chaos_equals_serial_plain(self, tmp_path, seed):
        source = make_firehose(seed)
        plain, plain_report = run_serial(tmp_path, source, None)
        chaotic, chaos_report = run_serial(
            tmp_path, source, FaultPlan.chaos(seed=seed)
        )
        assert record_lines(chaotic) == record_lines(plain)
        assert counters(chaos_report) == counters(plain_report)
        assert chaos_report.reliability is not None
