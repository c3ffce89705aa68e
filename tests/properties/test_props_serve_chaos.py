"""Load-chaos properties: no silent loss, determinism, bounded latency.

The serving contract under any seeded load chaos:

1. **Exact accounting** — every submitted request (file requests, storm
   clones, malformed lines) terminates exactly once as completed,
   rejected, expired, or dead-lettered.
2. **Byte-identical replay** — the response stream is a pure function of
   ``(seed, request file)``.
3. **Health is never shed** — the critical class always gets an answer.
4. **No hang past the deadline** — a completed answer always lands
   inside its request's budget, open breaker or not.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.dataset.io import write_jsonl
from repro.faults.load import LoadFaultPlan
from repro.serve import (
    Outcome,
    QueryService,
    read_requests_jsonl,
    write_responses_jsonl,
)
from tests.serve.conftest import SERVE_STATES, build_serve_corpus

SEEDS = (3, 11, 42)
DEADLINE_BUDGET = 4.0
N_REQUESTS = 60


@pytest.fixture(scope="module")
def chaos_run_dir(tmp_path_factory: pytest.TempPathFactory) -> Path:
    run_dir = tmp_path_factory.mktemp("serve_chaos_run")
    write_jsonl(build_serve_corpus(), run_dir / "corpus.jsonl")
    return run_dir


@pytest.fixture(scope="module")
def request_file(tmp_path_factory: pytest.TempPathFactory) -> Path:
    """A mixed request schedule, including malformed lines."""
    kinds = ("state_signature", "relative_risk", "cluster_profile", "health")
    lines = []
    for i in range(N_REQUESTS):
        kind = kinds[i % len(kinds)]
        params: dict[str, str] = {}
        if kind in ("state_signature", "relative_risk"):
            params["state"] = SERVE_STATES[i % len(SERVE_STATES)]
        if kind == "cluster_profile":
            params["cluster"] = str(i % 6)
        lines.append(
            json.dumps(
                {
                    "id": f"r{i}",
                    "kind": kind,
                    "arrival": round(i * 0.05, 9),
                    "params": params,
                    "deadline": DEADLINE_BUDGET,
                }
            )
        )
        if i % 20 == 7:
            lines.append("{ torn line")
    path = tmp_path_factory.mktemp("serve_requests") / "requests.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def run_serve(run_dir: Path, request_file: Path, seed: int):
    requests, malformed = read_requests_jsonl(request_file)
    service = QueryService(run_dir, plan=LoadFaultPlan.chaos(seed=seed))
    return service, service.serve(requests, malformed)


def expected_arrivals(request_file: Path, seed: int) -> dict[str, float]:
    """Reconstruct every submission's arrival from the public plan API."""
    requests, __ = read_requests_jsonl(request_file)
    plan = LoadFaultPlan.chaos(seed=seed)
    arrivals: dict[str, float] = {}
    for index, base in enumerate(requests):
        arrivals[base.request_id] = base.arrival
        for clone_index, clone in enumerate(plan.storm_for(index)):
            arrivals[f"{base.request_id}~storm{clone_index}"] = (
                base.arrival + clone.offset
            )
    return arrivals


class TestNoSilentLoss:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_request_accounted_exactly_once(
        self, chaos_run_dir, request_file, seed
    ):
        __, result = run_serve(chaos_run_dir, request_file, seed)
        report = result.report
        assert report.accounted
        assert (
            report.completed + report.shed + report.expired
            + report.dead_lettered
            == report.submitted
            == len(result.responses)
        )
        # Exactly one response per submission — no duplicates either.
        ids = [response.request_id for response in result.responses]
        assert len(ids) == len(set(ids))
        arrivals = expected_arrivals(request_file, seed)
        malformed = [i for i in ids if i.startswith("line-")]
        assert sorted(set(ids) - set(malformed)) == sorted(arrivals)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_health_is_never_shed(self, chaos_run_dir, request_file, seed):
        __, result = run_serve(chaos_run_dir, request_file, seed)
        requests, __ = read_requests_jsonl(request_file)
        health_ids = {
            req.request_id for req in requests if req.kind == "health"
        }
        health_responses = [
            response
            for response in result.responses
            if response.request_id.split("~")[0] in health_ids
        ]
        assert health_responses
        assert all(
            response.outcome is not Outcome.REJECTED
            for response in health_responses
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_completions_always_land_inside_the_deadline(
        self, chaos_run_dir, request_file, seed
    ):
        """Open breaker, slow loads, storms — never a hang past expiry."""
        __, result = run_serve(chaos_run_dir, request_file, seed)
        arrivals = expected_arrivals(request_file, seed)
        for response in result.responses:
            if response.outcome is not Outcome.COMPLETED:
                continue
            arrival = arrivals[response.request_id]
            assert response.finished_at < arrival + DEADLINE_BUDGET

    @pytest.mark.parametrize("seed", SEEDS)
    def test_expired_requests_carry_no_partial_payload(
        self, chaos_run_dir, request_file, seed
    ):
        __, result = run_serve(chaos_run_dir, request_file, seed)
        for response in result.responses:
            if response.outcome is Outcome.COMPLETED:
                assert response.payload is not None
            else:
                assert response.payload is None


class TestDeterministicReplay:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_response_stream_is_byte_identical(
        self, chaos_run_dir, request_file, seed, tmp_path
    ):
        streams = []
        for attempt in range(2):
            __, result = run_serve(chaos_run_dir, request_file, seed)
            path = tmp_path / f"responses-{seed}-{attempt}.jsonl"
            write_responses_jsonl(result.responses, path)
            streams.append(path.read_bytes())
        assert streams[0] == streams[1]

    def test_different_seeds_exercise_different_schedules(
        self, chaos_run_dir, request_file
    ):
        reports = [
            run_serve(chaos_run_dir, request_file, seed)[1].report
            for seed in SEEDS
        ]
        assert any(reports[0] != other for other in reports[1:])
