"""Compute-chaos equivalence properties of the sharded collect.

The supervised pool's headline guarantee, one layer below the transport:
the sharded collect — the pool's one caller — writes a corpus
byte-identical to the serial, fault-free run under injected *worker*
faults (crashes, hangs, exception storms, slow tasks), for any worker
count and any seed; so does the fault-free supervised run at one
worker.  A poison shard never produces a silent gap: the run degrades
explicitly via ``RunHealth``, which names the lost shard.
"""

import json

import pytest

from repro.faults.compute import WorkerFaultPlan
from repro.pipeline.runner import CollectionPipeline
from repro.supervise import SupervisorPolicy
from repro.synth.scenarios import paper2016_scenario
from repro.synth.world import SyntheticWorld

SEEDS = (3, 11, 42)
WORKER_COUNTS = (1, 2, 4)

#: Retries must out-number faulted attempts (ensure_supervisable).
CHAOS_POLICY = SupervisorPolicy(max_retries=2)


def make_firehose(seed: int) -> list:
    world = SyntheticWorld(paper2016_scenario(scale=0.004, seed=seed))
    return list(world.firehose())


def corpus_bytes(corpus) -> bytes:
    return "\n".join(
        json.dumps(record.to_dict(), ensure_ascii=False)
        for record in corpus.records
    ).encode("utf-8")


class TestPipelineUnderWorkerChaos:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "workers, chaos",
        [(workers, True) for workers in WORKER_COUNTS] + [(1, False)],
    )
    def test_chaos_corpus_is_byte_identical_to_serial(
        self, seed, workers, chaos
    ):
        source = make_firehose(seed)
        serial_corpus, __ = CollectionPipeline().run(source)
        corpus, report = CollectionPipeline().run(
            source,
            workers=workers,
            supervisor=CHAOS_POLICY if chaos else SupervisorPolicy(),
            worker_faults=WorkerFaultPlan.chaos(seed=seed) if chaos else None,
        )
        assert corpus_bytes(corpus) == corpus_bytes(serial_corpus)
        assert report.compute is not None
        assert not report.compute.degraded

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_counters_match_serial(self, seed):
        source = make_firehose(seed)
        __, serial_report = CollectionPipeline().run(source)
        __, report = CollectionPipeline().run(
            source,
            workers=2,
            supervisor=CHAOS_POLICY,
            worker_faults=WorkerFaultPlan.chaos(seed=seed),
        )
        assert report.retained == serial_report.retained
        assert report.collected == serial_report.collected
        assert report.us_located == serial_report.us_located

    def test_hung_shard_is_recovered_by_the_deadline(self):
        source = make_firehose(SEEDS[0])
        serial_corpus, __ = CollectionPipeline().run(source)
        corpus, report = CollectionPipeline().run(
            source,
            workers=2,
            supervisor=SupervisorPolicy(max_retries=2, task_timeout=15.0),
            worker_faults=WorkerFaultPlan(
                seed=1, hang_rate=1.0, hang_seconds=60.0,
                max_faulted_attempts=1,
            ),
        )
        assert corpus_bytes(corpus) == corpus_bytes(serial_corpus)
        assert report.compute.worker_timeouts >= 1

    def test_double_chaos_both_layers_at_once(self):
        """Transport faults (parent) plus worker faults (pool) together
        still reproduce the clean serial corpus."""
        from repro.twitter.faults import FaultPlan

        source = make_firehose(SEEDS[1])
        serial_corpus, __ = CollectionPipeline().run(source)
        corpus, report = CollectionPipeline().run(
            source,
            fault_plan=FaultPlan.chaos(seed=7),
            workers=2,
            supervisor=CHAOS_POLICY,
            worker_faults=WorkerFaultPlan.chaos(seed=7),
        )
        assert corpus_bytes(corpus) == corpus_bytes(serial_corpus)
        assert report.reliability is not None
        assert report.compute is not None

    def test_poison_shard_degrades_explicitly_and_names_the_shard(self):
        source = make_firehose(SEEDS[0])
        serial_corpus, __ = CollectionPipeline().run(source)
        corpus, report = CollectionPipeline().run(
            source,
            workers=4,
            supervisor=SupervisorPolicy(max_retries=1),
            worker_faults=WorkerFaultPlan(seed=1, poison_tasks=(1,)),
        )
        health = report.compute
        assert health.degraded
        assert health.quarantined == 1
        assert health.dead_letters[0].label == "shard 1"
        assert any("shard 1" in label for label, __ in health.as_rows())
        # The gap is real (records lost) but never silent.
        assert len(corpus.records) < len(serial_corpus.records)
