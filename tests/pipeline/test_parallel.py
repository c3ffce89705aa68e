"""Tests for the sharded parallel pipeline."""

import json
import multiprocessing

import pytest

from repro.config import CollectionConfig
from repro.errors import ConfigError, PipelineError
from repro.faults.compute import WorkerFaultPlan
from repro.geo.geocoder import Geocoder, GeoMatch
from repro.nlp.matcher import OrganMatcher
from repro.organs import Organ
from repro.pipeline.parallel import process_shard, run_sharded, shard_by_id
from repro.pipeline.runner import CollectionPipeline, PipelineReport
from repro.supervise import SupervisorPolicy
from repro.twitter.models import Tweet, UserProfile
from repro.twitter.resilient import ReliabilityReport


def tweet(text: str, location: str, tweet_id: int, user_id: int = 1) -> Tweet:
    return Tweet(
        tweet_id=tweet_id,
        user=UserProfile(user_id=user_id, screen_name=f"u{user_id}",
                         location=location),
        text=text,
    )


def corpus_bytes(corpus) -> bytes:
    return "\n".join(
        json.dumps(record.to_dict(), ensure_ascii=False)
        for record in corpus.records
    ).encode("utf-8")


class TestSharding:
    def test_round_robin_by_tweet_id(self):
        tweets = [tweet("kidney donor", "Wichita, KS", i) for i in range(10)]
        shards = shard_by_id(tweets, 3)
        for shard_index, shard in enumerate(shards):
            assert all(t.tweet_id % 3 == shard_index for __, t in shard)
        assert sum(len(shard) for shard in shards) == 10

    def test_positions_preserve_stream_order(self):
        tweets = [tweet("kidney donor", "Wichita, KS", i * 7) for i in range(9)]
        shards = shard_by_id(tweets, 4)
        flattened = sorted(
            (position for shard in shards for position, __ in shard)
        )
        assert flattened == list(range(9))

    def test_deterministic(self):
        tweets = [tweet("kidney donor", "Wichita, KS", i) for i in range(20)]
        assert shard_by_id(tweets, 4) == shard_by_id(tweets, 4)

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigError):
            shard_by_id([], 0)


class TestReportMerge:
    def test_counters_sum(self):
        a = PipelineReport(collected=3, retained=2, non_us=1, us_located=2)
        b = PipelineReport(collected=5, retained=1, unresolved=4, us_located=1)
        merged = a.merge(b)
        assert merged.collected == 8
        assert merged.retained == 3
        assert merged.non_us == 1
        assert merged.unresolved == 4
        assert merged.us_located == 3

    def test_merge_is_commutative(self):
        a = PipelineReport(collected=3, retained=2)
        b = PipelineReport(collected=5, no_mentions=1)
        assert a.merge(b) == b.merge(a)

    def test_identity_merge(self):
        a = PipelineReport(collected=3, retained=2)
        assert a.merge(PipelineReport()) == a

    def test_single_reliability_carried(self):
        reliability = ReliabilityReport()
        a = PipelineReport(reliability=reliability)
        b = PipelineReport()
        assert a.merge(b).reliability is reliability
        assert b.merge(a).reliability is reliability

    def test_two_reliability_reports_rejected(self):
        a = PipelineReport(reliability=ReliabilityReport())
        b = PipelineReport(reliability=ReliabilityReport())
        with pytest.raises(PipelineError):
            a.merge(b)

    def test_single_compute_health_carried(self):
        from repro.supervise import RunHealth

        health = RunHealth(tasks=2, completed=2)
        a = PipelineReport(compute=health)
        b = PipelineReport()
        assert a.merge(b).compute is health
        assert b.merge(a).compute is health

    def test_two_compute_reports_rejected(self):
        from repro.supervise import RunHealth

        a = PipelineReport(compute=RunHealth())
        b = PipelineReport(compute=RunHealth())
        with pytest.raises(PipelineError):
            a.merge(b)

    def test_report_round_trips_with_both_health_layers(self):
        from repro.supervise import RunHealth

        report = PipelineReport(
            collected=10, retained=4,
            reliability=ReliabilityReport(delivered=10, connects=2),
            compute=RunHealth(tasks=2, completed=2),
        )
        assert PipelineReport.from_dict(report.to_dict()) == report


class TestProcessShard:
    def test_counts_and_records(self):
        config = CollectionConfig()
        shard = [
            (0, tweet("kidney donor", "Wichita, KS", 0)),
            (1, tweet("nice sunset", "Wichita, KS", 2)),
            (2, tweet("kidney donor", "London", 4)),
        ]
        records, report = process_shard(shard, config)
        assert report.stream_dropped == 1
        assert report.collected == 2
        assert report.non_us == 1
        assert report.retained == 1
        assert [position for position, __ in records] == [0]


class TestRunSharded:
    def make_source(self, n: int = 40):
        locations = ["Wichita, KS", "London", "the moon", "Boston, MA"]
        texts = ["kidney donor", "nice sunset", "liver transplant"]
        return [
            tweet(texts[i % 3], locations[i % 4], i, user_id=i % 5)
            for i in range(n)
        ]

    def test_matches_serial_for_worker_counts(self):
        source = self.make_source()
        serial_corpus, serial_report = CollectionPipeline().run(source)
        for workers in (1, 2, 4):
            corpus, report = CollectionPipeline().run(source, workers=workers)
            assert corpus_bytes(corpus) == corpus_bytes(serial_corpus)
            if workers > 1:
                # Supervised runs additionally document pool health.
                assert report.compute is not None
                assert not report.compute.degraded
                report.compute = None
            assert report == serial_report

    def test_empty_result_raises(self):
        with pytest.raises(PipelineError):
            CollectionPipeline().run(
                [tweet("nice sunset", "Wichita, KS", 1)], workers=2
            )

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigError):
            CollectionPipeline().run(self.make_source(), workers=0)

    def test_run_sharded_returns_stream_order(self):
        source = self.make_source()
        records, __ = run_sharded(source, CollectionConfig(), 3)
        ids = [record.tweet.tweet_id for record in records]
        assert ids == sorted(ids)


class EverywhereIsKansas(Geocoder):
    """A custom geocoder: every profile location resolves to Kansas."""

    def geocode(self, location: str) -> GeoMatch:
        return GeoMatch("US", "KS", 0.5, "test")


#: Sharded runs that must honour the pipeline's own geocoder and matcher.
SHARDED_RUNS = {
    "workers=1": {"workers": 1, "supervisor": SupervisorPolicy()},
    "workers=2": {"workers": 2},
    "chaos": {
        "workers": 2,
        "supervisor": SupervisorPolicy(max_retries=2),
        "worker_faults": WorkerFaultPlan.chaos(seed=5),
    },
}


class TestPipelineComponentsReachWorkers:
    """A sharded run uses the pipeline's geocoder and matcher, not defaults."""

    @pytest.mark.parametrize("run", SHARDED_RUNS, ids=str)
    def test_custom_matcher(self, run):
        pipeline = CollectionPipeline(
            matcher=OrganMatcher(aliases={"liver": Organ.LIVER})
        )
        source = [
            tweet(f"{organ} donor", "Wichita, KS", i)
            for i, organ in enumerate(("liver", "kidney", "heart"))
        ]
        serial_corpus, serial_report = pipeline.run(source)
        assert serial_report.retained == 1
        assert serial_report.no_mentions == 2
        corpus, report = pipeline.run(source, **SHARDED_RUNS[run])
        assert corpus_bytes(corpus) == corpus_bytes(serial_corpus)
        report.compute = None
        assert report == serial_report

    @pytest.mark.parametrize("run", SHARDED_RUNS, ids=str)
    def test_custom_geocoder(self, run):
        pipeline = CollectionPipeline(geocoder=EverywhereIsKansas())
        source = [
            tweet("kidney donor", location, i)
            for i, location in enumerate(("London", "the moon", "Paris"))
        ]
        serial_corpus, serial_report = pipeline.run(source)
        assert serial_report.retained == 3
        corpus, report = pipeline.run(source, **SHARDED_RUNS[run])
        assert corpus_bytes(corpus) == corpus_bytes(serial_corpus)
        report.compute = None
        assert report == serial_report


class TestSpawnStartMethod:
    """Platforms without ``fork`` dispatch through the same entry point."""

    def test_spawned_workers_match_serial(self, monkeypatch):
        started = []

        def spawn_context():
            started.append("spawn")
            return multiprocessing.get_context("spawn")

        monkeypatch.setattr("repro.supervise.pool_context", spawn_context)
        pipeline = CollectionPipeline(
            matcher=OrganMatcher(aliases={"liver": Organ.LIVER})
        )
        organs = ("liver", "kidney", "heart")
        locations = ("Wichita, KS", "London", "Boston, MA")
        source = [
            tweet(f"{organs[i % 3]} donor", locations[i // 3 % 3], i)
            for i in range(300)
        ]
        serial_corpus, serial_report = pipeline.run(source)
        assert serial_report.no_mentions > 0
        corpus, report = pipeline.run(source, workers=2)
        assert started == ["spawn"]
        assert report.compute is not None
        assert report.compute.completed == 2
        assert corpus_bytes(corpus) == corpus_bytes(serial_corpus)
        report.compute = None
        assert report == serial_report
