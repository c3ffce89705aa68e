"""Tests for the generation-keyed artifact cache."""

from __future__ import annotations

import pytest

from repro.dataset.io import write_jsonl
from repro.serve.artifacts import ArtifactCache, corpus_generation
from repro.serve.service import QueryRequest, QueryService
from repro.storage.manifest import manifest_path
from tests.serve.conftest import build_serve_corpus


def request(request_id: str, arrival: float = 0.0) -> QueryRequest:
    return QueryRequest(
        request_id=request_id,
        kind="state_signature",
        arrival=arrival,
        params=(("state", "Ohio"),),
    )


class TestArtifactCache:
    def test_builds_once_then_hits(self):
        cache = ArtifactCache()
        calls = []

        def builder():
            calls.append(1)
            return {"built": True}

        first = cache.get(("gen", "corpus"), builder)
        second = cache.get(("gen", "corpus"), builder)
        assert first is second
        assert len(calls) == 1
        assert cache.hits == 1
        assert cache.misses == 1
        assert len(cache) == 1

    def test_distinct_keys_do_not_alias(self):
        cache = ArtifactCache()
        a = cache.get(("gen-a", "corpus"), lambda: "a")
        b = cache.get(("gen-b", "corpus"), lambda: "b")
        k11 = cache.get(("gen-a", "clustering", 11), lambda: "k11")
        k12 = cache.get(("gen-a", "clustering", 12), lambda: "k12")
        assert (a, b, k11, k12) == ("a", "b", "k11", "k12")
        assert len(cache) == 4

    def test_failing_builder_caches_nothing(self):
        cache = ArtifactCache()

        def explode():
            raise RuntimeError("load failed")

        with pytest.raises(RuntimeError):
            cache.get(("gen", "corpus"), explode)
        assert len(cache) == 0
        # The next caller retries and can succeed.
        assert cache.get(("gen", "corpus"), lambda: "ok") == "ok"
        assert cache.misses == 1


class TestCorpusGeneration:
    def test_prefers_manifest_sha256(self, serve_run_dir):
        from repro.storage.manifest import load_manifest

        manifest = load_manifest(serve_run_dir / "corpus.jsonl")
        assert manifest is not None
        assert corpus_generation(serve_run_dir) == manifest.sha256

    def test_falls_back_to_file_hash_without_manifest(self, tmp_path):
        write_jsonl(build_serve_corpus(), tmp_path / "corpus.jsonl")
        manifest_path(tmp_path / "corpus.jsonl").unlink()
        generation = corpus_generation(tmp_path)
        assert len(generation) == 64
        assert generation == corpus_generation(tmp_path)

    def test_changes_when_corpus_changes(self, tmp_path):
        corpus = build_serve_corpus()
        write_jsonl(corpus, tmp_path / "corpus.jsonl")
        before = corpus_generation(tmp_path)
        write_jsonl(corpus[:20], tmp_path / "corpus.jsonl")
        assert corpus_generation(tmp_path) != before

    def test_missing_corpus_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            corpus_generation(tmp_path)


class TestSharedCacheService:
    def test_shared_cache_preserves_responses_exactly(self, serve_run_dir):
        requests = [request(f"r{i}", arrival=i * 0.5) for i in range(4)]

        private = QueryService(serve_run_dir)
        baseline = private.serve([*requests])

        shared = ArtifactCache()
        cold = QueryService(serve_run_dir, cache=shared)
        warm = QueryService(serve_run_dir, cache=shared)
        cold_result = cold.serve([*requests])
        warm_result = warm.serve([*requests])

        # The cache only skips builder work — responses, timing, and
        # accounting are identical cold, warm, or private.
        assert cold_result.responses == baseline.responses
        assert warm_result.responses == baseline.responses
        assert warm_result.report == baseline.report

    def test_warm_service_skips_builder_work(self, serve_run_dir):
        shared = ArtifactCache()
        cold = QueryService(serve_run_dir, cache=shared)
        cold.serve([request("r0")])
        misses_after_cold = shared.misses

        warm = QueryService(serve_run_dir, cache=shared)
        warm.serve([request("r1")])
        # Startup (coarse + corpus) and the signature path were all
        # cache hits for the warm service: no new builder runs.
        assert shared.misses == misses_after_cold
        assert shared.hits > 0

    def test_store_still_pays_loads_when_cache_warm(self, serve_run_dir):
        shared = ArtifactCache()
        cold = QueryService(serve_run_dir, cache=shared)
        cold_result = cold.serve([request("r0")])
        warm = QueryService(serve_run_dir, cache=shared)
        warm_result = warm.serve([request("r0")])
        # The simulated load cost is charged identically — the paid
        # artifact_loads count does not change with cache temperature.
        assert (
            warm_result.report.artifact_loads
            == cold_result.report.artifact_loads
            > 0
        )

    def test_report_counts_loads_and_amortizes(self, serve_run_dir):
        service = QueryService(serve_run_dir)
        result = service.serve(
            [request(f"r{i}", arrival=i * 0.5) for i in range(8)]
        )
        assert result.report.artifact_loads == service.store.loads
        # The per-service artifact memo amortizes: far fewer paid loads
        # than requests.
        assert result.report.artifact_loads < result.report.submitted
