"""All three chaos layers at once: transport + compute + disk.

Each layer's equivalence property is proved in isolation by its own
suite (``test_props_chaos``, ``test_props_compute_chaos``,
``test_props_storage_chaos``).  This suite arms all of them in the same
``repro collect`` run — faulted stream client feeding a faulted worker
pool persisting through a faulted filesystem — and asserts the combined
guarantee: the on-disk corpus is byte-identical to the serial,
fault-free run for every worker count × seed, with every layer's
degradation reported, never silent.
"""

import pytest

from repro.dataset.io import write_jsonl
from repro.faults.compute import WorkerFaultPlan
from repro.faults.storage import StorageFaultPlan
from repro.pipeline.runner import CollectionPipeline
from repro.storage.fs import FaultyFS
from repro.storage.manifest import verify_file
from repro.supervise import SupervisorPolicy
from repro.synth.scenarios import paper2016_scenario
from repro.synth.world import SyntheticWorld
from repro.twitter.faults import FaultPlan

SEEDS = (3, 11, 42)
WORKER_COUNTS = (1, 2, 4)

#: Retries must out-number faulted attempts (ensure_supervisable).
CHAOS_POLICY = SupervisorPolicy(max_retries=2)


def make_firehose(seed: int) -> list:
    world = SyntheticWorld(paper2016_scenario(scale=0.004, seed=seed))
    return list(world.firehose())


class TestTripleChaosEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_corpus_bytes_survive_all_three_layers(
        self, tmp_path, seed, workers
    ):
        source = make_firehose(seed)

        baseline = tmp_path / "baseline.jsonl"
        serial_corpus, __ = CollectionPipeline().run(source)
        write_jsonl(serial_corpus.records, baseline)

        corpus, report = CollectionPipeline().run(
            source,
            fault_plan=FaultPlan.chaos(seed=seed),
            workers=workers,
            supervisor=CHAOS_POLICY,
            worker_faults=WorkerFaultPlan.chaos(seed=seed),
        )
        target = tmp_path / "corpus.jsonl"
        fs = FaultyFS(StorageFaultPlan.chaos(seed=seed))
        write_jsonl(corpus.records, target, fs=fs)

        assert target.read_bytes() == baseline.read_bytes()
        assert verify_file(target).ok

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_layer_reports_what_it_survived(self, tmp_path, seed):
        source = make_firehose(seed)
        corpus, report = CollectionPipeline().run(
            source,
            fault_plan=FaultPlan.chaos(seed=seed),
            workers=2,
            supervisor=CHAOS_POLICY,
            worker_faults=WorkerFaultPlan.chaos(seed=seed),
        )
        target = tmp_path / "corpus.jsonl"
        fs = FaultyFS(StorageFaultPlan.chaos(seed=seed))
        write_jsonl(corpus.records, target, fs=fs)

        assert report.reliability is not None  # transport layer spoke
        assert report.compute is not None  # pool layer spoke
        assert not report.compute.degraded
        # The faulty filesystem logged its injections (possibly zero for
        # an unlucky seed, but the log itself must exist and render).
        assert fs.injected.as_rows()
