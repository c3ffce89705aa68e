"""The query service end to end: happy path, overload, chaos, accounting."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import UserClusteringConfig
from repro.core.attention import build_attention_matrix
from repro.core.characterize import characterize_regions
from repro.core.relative_risk import highlighted_organs
from repro.core.user_clusters import cluster_users
from repro.dataset.corpus import TweetCorpus
from repro.dataset.io import read_jsonl, write_jsonl
from repro.dataset.records import CollectedTweet
from repro.faults.load import LoadFaultPlan
from repro.geo.geocoder import GeoMatch
from repro.organs import ORGANS
from repro.serve.artifacts import ArtifactCache
from repro.serve.admission import AdmissionPolicy
from repro.serve.breaker import BreakerPolicy
from repro.serve.degrade import BrownoutPolicy, CoarseSummaries
from repro.serve.service import (
    CLUSTER_K,
    Outcome,
    QueryError,
    QueryRequest,
    QueryService,
    ServicePolicy,
    read_requests_jsonl,
    write_responses_jsonl,
)
from repro.twitter.models import Tweet, UserProfile
from tests.serve.conftest import SERVE_STATES


def request(
    request_id: str,
    kind: str = "state_signature",
    arrival: float = 0.0,
    state: str | None = "California",
    **kwargs,
) -> QueryRequest:
    params = (("state", state),) if state is not None else ()
    if kind == "cluster_profile":
        params = (("cluster", "0"),)
    if kind == "health":
        params = ()
    return QueryRequest(
        request_id=request_id, kind=kind, arrival=arrival, params=params,
        **kwargs,
    )


#: Serves a request file in a child process and prints each response's
#: id, outcome and status.
_SERVE_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.serve import QueryService, read_requests_jsonl

requests, malformed = read_requests_jsonl({requests!r})
for response in QueryService({run_dir!r}).serve(requests, malformed).responses:
    print(response.request_id, response.outcome.value, response.status)
"""


class TestRequestParsing:
    def test_parses_valid_lines(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text(
            json.dumps(
                {
                    "id": "r1",
                    "kind": "state_signature",
                    "arrival": 0.5,
                    "params": {"state": "Ohio"},
                    "deadline": 1.5,
                }
            )
            + "\n\n"  # blank lines are not requests
        )
        requests, malformed = read_requests_jsonl(path)
        assert malformed == ()
        [req] = requests
        assert req.request_id == "r1"
        assert req.arrival == 0.5
        assert req.deadline == 1.5
        assert req.param("state") == "Ohio"
        assert req.param("missing") is None

    def test_malformed_lines_become_dead_letter_stubs(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text(
            "\n".join(
                [
                    "not json at all",
                    json.dumps({"kind": "health"}),  # missing id
                    json.dumps({"id": "r", "kind": "health", "arrival": -1}),
                    json.dumps(
                        {"id": "r", "kind": "health", "deadline": 0}
                    ),
                    json.dumps({"id": "ok", "kind": "health"}),
                ]
            )
        )
        requests, malformed = read_requests_jsonl(path)
        assert [req.request_id for req in requests] == ["ok"]
        assert malformed == (
            ("line-1", "malformed_json"),
            ("line-2", "malformed_request"),
            ("line-3", "malformed_request"),
            ("line-4", "malformed_request"),
        )

    @pytest.mark.parametrize(
        "fields",
        [
            '"arrival": NaN',
            '"arrival": Infinity',
            '"deadline": NaN',
            '"deadline": Infinity',
            '"deadline": -Infinity',
        ],
    )
    def test_non_finite_times_are_malformed(self, tmp_path, fields):
        path = tmp_path / "requests.jsonl"
        path.write_text(
            f'{{"id": "bad", "kind": "health", {fields}}}\n'
            '{"id": "ok", "kind": "health", "arrival": 0.5}\n'
        )
        requests, malformed = read_requests_jsonl(path)
        assert [req.request_id for req in requests] == ["ok"]
        assert malformed == (("line-1", "malformed_request"),)

    def test_nan_arrival_does_not_stall_the_serve_loop(
        self, tmp_path, serve_run_dir
    ):
        """A NaN arrival once advanced the simulated clock to NaN, after
        which no request was ever due and ``serve`` never returned.  The
        serve runs in a child process with a deadline, so a regression
        fails here instead of hanging the suite."""
        path = tmp_path / "requests.jsonl"
        path.write_text(
            '{"id": "nan", "kind": "health", "arrival": NaN}\n'
            '{"id": "ok", "kind": "health", "arrival": 0.5}\n'
        )
        script = _SERVE_SCRIPT.format(
            src=str(Path(__file__).resolve().parents[2] / "src"),
            requests=str(path),
            run_dir=str(serve_run_dir),
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert sorted(proc.stdout.splitlines()) == [
            "line-1 dead_lettered malformed_request",
            "ok completed ok",
        ]


    def test_out_of_range_integer_time_is_malformed(self, tmp_path):
        """An integer too large for a float once escaped the parser as an
        ``OverflowError`` instead of dead-lettering its line."""
        path = tmp_path / "requests.jsonl"
        path.write_text(
            f'{{"id": "big", "kind": "health", "arrival": 1{"0" * 400}}}\n'
            '{"id": "ok", "kind": "health", "arrival": 0.5}\n'
        )
        requests, malformed = read_requests_jsonl(path)
        assert [req.request_id for req in requests] == ["ok"]
        assert malformed == (("line-1", "malformed_request"),)


class TestRequestValidation:
    """A request built in code is checked like a parsed one."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("request_id", ""),
            ("request_id", None),
            ("request_id", 7),
            ("kind", ""),
            ("kind", None),
            ("arrival", float("nan")),
            ("arrival", float("inf")),
            ("arrival", float("-inf")),
            ("arrival", -1.0),
            ("arrival", True),
            pytest.param("arrival", "0.5", id="arrival-str"),
            ("arrival", None),
            pytest.param("arrival", 10**400, id="arrival-10**400"),
            ("deadline", float("nan")),
            ("deadline", float("inf")),
            ("deadline", 0.0),
            ("deadline", -1.0),
            ("deadline", False),
            pytest.param("deadline", "1.5", id="deadline-str"),
        ],
    )
    def test_bad_value_raises_at_construction(self, field, value):
        fields = {"request_id": "r", "kind": "health", "arrival": 0.0}
        fields[field] = value
        with pytest.raises(QueryError, match=field):
            QueryRequest(**fields)

    def test_integer_times_become_floats(self):
        req = QueryRequest(request_id="r", kind="health", arrival=3, deadline=2)
        assert (req.arrival, req.deadline) == (3.0, 2.0)
        assert type(req.arrival) is float and type(req.deadline) is float


class TestHappyPath:
    def test_all_kinds_complete_fresh(self, serve_run_dir):
        service = QueryService(serve_run_dir)
        requests = [
            request("r-sig", "state_signature", 0.0),
            request("r-rr", "relative_risk", 1.0),
            request("r-cl", "cluster_profile", 2.0),
            request("r-h", "health", 3.0),
        ]
        result = service.serve(requests)
        assert result.report.accounted
        assert result.report.completed == 4
        assert result.report.degraded == 0
        by_id = {r.request_id: r for r in result.responses}
        assert by_id["r-sig"].payload["found"] is True
        assert by_id["r-sig"].payload["signature"]
        assert by_id["r-rr"].payload["found"] is True
        assert by_id["r-cl"].payload["k"] == 6
        assert by_id["r-h"].payload["status"] == "ok"
        assert all(r.status == "ok" for r in result.responses)

    def test_unknown_state_completes_not_found(self, serve_run_dir):
        service = QueryService(serve_run_dir)
        result = service.serve([request("r", state="Atlantis")])
        [response] = result.responses
        assert response.outcome is Outcome.COMPLETED
        assert response.payload == {"state": "Atlantis", "found": False}

    def test_artifacts_cached_across_requests(self, serve_run_dir):
        service = QueryService(serve_run_dir)
        result = service.serve(
            [request(f"r{i}", arrival=i * 1.0) for i in range(3)]
        )
        assert result.report.completed == 3
        # One load (cost 0.25) plus three signature stages — the second
        # and third requests must not pay the load again.
        finished = [r.finished_at for r in result.responses]
        assert finished[1] - 1.0 < service.policy.artifact_load_cost

    def test_responses_file_is_manifested_and_deterministic(
        self, serve_run_dir, tmp_path
    ):
        outputs = []
        for run in range(2):
            service = QueryService(serve_run_dir)
            result = service.serve(
                [request(f"r{i}", arrival=i * 0.1) for i in range(5)]
            )
            path = tmp_path / f"responses{run}.jsonl"
            count = write_responses_jsonl(result.responses, path)
            assert count == 5
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
        assert (tmp_path / "responses0.jsonl.manifest.json").exists()


class TestDeadlines:
    def test_tiny_budget_expires_without_partial_payload(self, serve_run_dir):
        service = QueryService(serve_run_dir)
        result = service.serve([request("r", deadline=0.01)])
        [response] = result.responses
        assert response.outcome is Outcome.EXPIRED
        assert response.status == "deadline_exceeded"
        assert response.payload is None
        assert result.report.expired == 1
        assert result.report.accounted

    def test_queue_wait_spends_the_budget(self, serve_run_dir):
        service = QueryService(serve_run_dir)
        # All arrive at once; the first pays the artifact load (0.25s),
        # so the rest are already dead at dequeue.
        result = service.serve(
            [request(f"r{i}", deadline=0.1) for i in range(4)]
        )
        statuses = sorted(r.status for r in result.responses)
        assert statuses.count("expired_in_queue") >= 2
        assert result.report.accounted


class TestDeadLetters:
    def test_unknown_kind(self, serve_run_dir):
        service = QueryService(serve_run_dir)
        result = service.serve(
            [QueryRequest(request_id="r", kind="nonsense", arrival=0.0)]
        )
        [response] = result.responses
        assert response.outcome is Outcome.DEAD_LETTERED
        assert response.status == "unknown_kind"

    def test_missing_required_param(self, serve_run_dir):
        service = QueryService(serve_run_dir)
        result = service.serve(
            [QueryRequest(request_id="r", kind="state_signature", arrival=0.0)]
        )
        [response] = result.responses
        assert response.outcome is Outcome.DEAD_LETTERED
        assert response.status == "handler_error:QueryError"

    def test_poison_request(self, serve_run_dir):
        service = QueryService(serve_run_dir)
        result = service.serve(
            [
                QueryRequest(
                    request_id="r", kind="health", arrival=0.0, poison=True
                )
            ]
        )
        [response] = result.responses
        assert response.outcome is Outcome.DEAD_LETTERED
        assert response.status == "poison_query"
        assert result.report.accounted


class TestOutOfRangeCluster:
    """A cluster id outside ``[0, CLUSTER_K)`` is a bad parameter: it
    dead-letters at every brownout level, before any artifact load."""

    def test_dead_letters_at_every_brownout_level(self, serve_run_dir):
        policy = ServicePolicy(
            brownout=BrownoutPolicy(
                level1_depth=2, level2_depth=4, sustain_ticks=1,
                recover_ticks=1,
            )
        )
        requests = [
            QueryRequest(
                request_id=f"r{i}",
                kind="cluster_profile",
                arrival=0.0,
                params=(("cluster", str(cluster)),),
            )
            for i, cluster in enumerate([CLUSTER_K, -1] * 6)
        ]
        result = QueryService(serve_run_dir, policy=policy).serve(requests)
        assert {r.brownout_level for r in result.responses} == {0, 1, 2}
        assert {r.status for r in result.responses} == {
            "handler_error:QueryError"
        }
        assert result.report.dead_lettered == len(requests)

    @pytest.mark.parametrize("cluster", [str(CLUSTER_K), "-1"])
    def test_lone_request_pays_no_artifact_load(self, serve_run_dir, cluster):
        result = QueryService(serve_run_dir).serve(
            [
                QueryRequest(
                    request_id="r",
                    kind="cluster_profile",
                    arrival=0.0,
                    params=(("cluster", cluster),),
                )
            ]
        )
        [response] = result.responses
        assert response.status == "handler_error:QueryError"
        assert response.finished_at == 0.0
        assert result.report.artifact_loads == 0


class TestBreakerIntegration:
    def test_failing_loads_degrade_instead_of_hanging(self, serve_run_dir):
        plan = LoadFaultPlan(
            seed=0, load_error_rate=1.0, max_faulted_loads=1000
        )
        policy = ServicePolicy(breaker=BreakerPolicy(failure_threshold=2))
        service = QueryService(serve_run_dir, policy=policy, plan=plan)
        requests = [request(f"r{i}", arrival=i * 0.5) for i in range(8)]
        result = service.serve(requests)
        assert result.report.accounted
        # Every request still gets an answer — the coarse one.
        assert result.report.completed == 8
        assert result.report.degraded == 8
        assert all(r.status == "degraded" for r in result.responses)
        assert result.report.breaker_opens >= 1
        assert result.report.breaker_transitions

    def test_open_breaker_answers_within_deadline(self, serve_run_dir):
        plan = LoadFaultPlan(
            seed=0, load_error_rate=1.0, max_faulted_loads=1000
        )
        policy = ServicePolicy(breaker=BreakerPolicy(failure_threshold=1))
        service = QueryService(serve_run_dir, policy=policy, plan=plan)
        budget = 2.0
        requests = [
            request(f"r{i}", arrival=i * 1.0, deadline=budget)
            for i in range(6)
        ]
        result = service.serve(requests)
        for response in result.responses:
            assert response.outcome is Outcome.COMPLETED
            arrival = float(response.request_id[1:]) * 1.0
            assert response.finished_at < arrival + budget


class TestOverloadBehaviour:
    def test_floods_shed_explicitly_never_silently(self, serve_run_dir):
        policy = ServicePolicy(
            admission=AdmissionPolicy(
                queue_limit=4, bucket_capacity=8.0, refill_per_second=1.0
            )
        )
        service = QueryService(serve_run_dir, policy=policy)
        requests = [
            request(f"r{i}", "health" if i % 5 == 0 else "state_signature")
            for i in range(50)
        ]
        result = service.serve(requests)
        assert result.report.accounted
        assert result.report.shed > 0
        assert (
            result.report.shed
            == result.report.shed_queue_full
            + result.report.shed_rate_limited
        )
        rejected = [
            r for r in result.responses if r.outcome is Outcome.REJECTED
        ]
        assert all(
            r.status in ("queue_full", "rate_limited") for r in rejected
        )

    def test_health_is_never_shed(self, serve_run_dir):
        policy = ServicePolicy(
            admission=AdmissionPolicy(
                queue_limit=1, bucket_capacity=1.0, refill_per_second=0.5
            )
        )
        service = QueryService(serve_run_dir, policy=policy)
        requests = [
            request(f"n{i}", "state_signature") for i in range(30)
        ] + [request(f"h{i}", "health") for i in range(10)]
        result = service.serve(requests)
        health = [
            r for r in result.responses if r.request_id.startswith("h")
        ]
        assert len(health) == 10
        assert all(r.outcome is not Outcome.REJECTED for r in health)

    def test_sustained_pressure_browns_out_before_more_shedding(
        self, serve_run_dir
    ):
        policy = ServicePolicy(
            brownout=BrownoutPolicy(
                level1_depth=3, level2_depth=10, sustain_ticks=2,
                recover_ticks=3,
            )
        )
        service = QueryService(serve_run_dir, policy=policy)
        requests = [request(f"r{i}") for i in range(20)]
        result = service.serve(requests)
        assert result.report.max_brownout_level >= 1
        assert result.report.degraded > 0
        assert result.report.accounted


class TestOfferedLoadSchedule:
    """480 requests at 1x, 4x and 16x the admission refill rate.

    Arrivals are evenly spaced; the mix cycles the three analysis
    queries with a health probe on every eighth request, over a
    3,000-record corpus located in Kansas.  The clock is simulated, so
    every count is exact.  One :class:`ArtifactCache` is shared by the
    three services, as in a long-lived deployment; each service still
    pays its own simulated loads.
    """

    #: factor -> (completed, shed, degraded)
    EXPECTED = {1: (446, 34, 382), 4: (125, 355, 61), 16: (121, 359, 57)}

    @staticmethod
    def schedule(factor: int, policy: ServicePolicy) -> list[QueryRequest]:
        kinds = ("state_signature", "relative_risk", "cluster_profile")
        rate = policy.admission.refill_per_second * factor
        requests = []
        for i in range(480):
            kind = "health" if i % 8 == 0 else kinds[i % 3]
            params: tuple[tuple[str, str], ...] = ()
            if kind == "cluster_profile":
                params = (("cluster", str(i % CLUSTER_K)),)
            elif kind != "health":
                params = (("state", "KS"),)
            requests.append(
                QueryRequest(
                    request_id=f"load-{factor}x-{i}",
                    kind=kind,
                    arrival=round(i / rate, 9),
                    params=params,
                )
            )
        return requests

    def test_shed_schedule_is_exact(self, tmp_path):
        organs = [ORGANS[i % len(ORGANS)] for i in range(3_000)]
        records = [
            CollectedTweet(
                tweet=Tweet(
                    tweet_id=i,
                    user=UserProfile(i % 997, f"user{i % 997}", "Wichita, KS"),
                    text=f"{organ.value} donor update {i}",
                ),
                location=GeoMatch("US", "KS", 0.9, "profile"),
                mentions={organ: 1},
            )
            for i, organ in enumerate(organs)
        ]
        write_jsonl(records, tmp_path / "corpus.jsonl")
        cache = ArtifactCache()
        for factor, (completed, shed, degraded) in self.EXPECTED.items():
            policy = ServicePolicy()
            requests = self.schedule(factor, policy)
            service = QueryService(tmp_path, policy=policy, cache=cache)
            result = service.serve(requests)
            report = result.report
            assert report.accounted
            assert (
                report.submitted, report.completed, report.shed,
                report.degraded, report.expired, report.dead_lettered,
                report.max_brownout_level, report.artifact_loads,
            ) == (480, completed, shed, degraded, 0, 0, 2, 4), f"{factor}x"
            health = {r.request_id for r in requests if r.kind == "health"}
            assert all(
                response.outcome is not Outcome.REJECTED
                for response in result.responses
                if response.request_id in health
            )


class TestStorms:
    def test_storm_clones_are_submitted_and_accounted(self, serve_run_dir):
        plan = LoadFaultPlan(seed=3, storm_rate=1.0, storm_burst_cap=4)
        service = QueryService(serve_run_dir, plan=plan)
        requests = [request(f"r{i}", arrival=i * 0.2) for i in range(5)]
        result = service.serve(requests)
        assert result.report.submitted > 5
        assert result.report.accounted
        assert any("~storm" in r.request_id for r in result.responses)

    def test_malformed_stubs_count_against_accounting(self, serve_run_dir):
        service = QueryService(serve_run_dir)
        result = service.serve(
            [request("r0")], malformed=(("line-9", "malformed_json"),)
        )
        assert result.report.submitted == 2
        assert result.report.dead_lettered == 1
        assert result.report.accounted


class TestAnswersMatchOracle:
    """Every answer equals one built here from the analysis functions.

    Fresh (``ok``) payloads are rebuilt from ``characterize_regions``,
    ``highlighted_organs`` and a k=6, ``n_init=2`` user clustering;
    ``degraded`` payloads from :class:`CoarseSummaries` at the response's
    brownout level.  The schedule holds every kind, an unknown kind, a
    missing ``state``, a non-integer ``cluster``, deadlines that expire
    in the queue and mid-handler, and malformed stubs; its burst, at 4x
    the admission refill rate, drives the ladder through levels 0, 1
    and 2.
    """

    KINDS = ("state_signature", "relative_risk", "cluster_profile", "health")
    MALFORMED = (("line-1", "malformed_json"), ("line-2", "malformed_request"))
    #: Refusals every plan reaches; chaos adds ``poison_query``.
    REFUSALS = {
        "malformed_json",
        "malformed_request",
        "rate_limited",
        "queue_full",
        "expired_in_queue",
        "unknown_kind",
        "deadline_exceeded",
        "handler_error:QueryError",
    }
    PLANS = [LoadFaultPlan.none()] + [
        LoadFaultPlan.chaos(seed=seed) for seed in (1, 2, 3)
    ]

    @classmethod
    def params_for(cls, kind: str, i: int) -> tuple[tuple[str, str], ...]:
        if kind == "cluster_profile":
            return (("cluster", str(i % 6)),)
        if kind == "health":
            return ()
        states = SERVE_STATES + ("Atlantis",)
        return (("state", states[i % len(states)]),)

    @classmethod
    def schedule(cls) -> list[QueryRequest]:
        requests: list[QueryRequest] = []

        def add(kind, arrival, params=(), deadline=None):
            requests.append(
                QueryRequest(
                    request_id=f"q{len(requests)}",
                    kind=kind,
                    arrival=arrival,
                    params=params,
                    deadline=deadline,
                )
            )

        # The first request pays the artifact load (0.25 s) while the
        # burst fills the queue, as in TestOfferedLoadSchedule.
        for i in range(240):
            kind = "health" if i % 8 == 0 else cls.KINDS[i % 3]
            add(
                kind,
                round(i / 800.0, 9),
                cls.params_for(kind, i),
                deadline=0.05 if i % 16 == 5 else None,
            )
        # A quiet tail walks the ladder back down to level 0.
        for i in range(36):
            kind = cls.KINDS[i % 4]
            add(kind, 2.0 + i * 0.5, cls.params_for(kind, i))
        # The signature stage (0.02 s) outlives this budget.
        add("state_signature", 21.0, (("state", "Ohio"),), deadline=0.01)
        add("nonsense", 22.0)
        add("state_signature", 23.0)
        add("cluster_profile", 24.0, (("cluster", "two"),))
        add("cluster_profile", 25.0)
        return requests

    @pytest.fixture(scope="class")
    def oracle(self, serve_run_dir):
        corpus = TweetCorpus(read_jsonl(serve_run_dir / "corpus.jsonl"))
        regions = characterize_regions(corpus)
        risks = highlighted_organs(corpus)
        clustering = cluster_users(
            build_attention_matrix(corpus), UserClusteringConfig(k=6, n_init=2)
        )
        coarse = CoarseSummaries.from_corpus(corpus)

        def ranked(pairs):
            return [[organ.value, round(float(weight), 9)] for organ, weight in pairs]

        def fresh(request):
            state = request.param("state")
            if request.kind == "state_signature":
                if state not in regions.states:
                    return {"state": state, "found": False}
                return {
                    "state": state,
                    "found": True,
                    "signature": ranked(regions.signature(state)),
                }
            if request.kind == "relative_risk":
                if state not in risks:
                    return {"state": state, "found": False}
                return {
                    "state": state,
                    "found": True,
                    "highlighted": [organ.value for organ in risks[state]],
                }
            cluster = int(request.param("cluster") or "0")
            return {
                "cluster": cluster,
                "k": 6,
                "relative_size": round(
                    float(clustering.relative_sizes()[cluster]), 9
                ),
                "profile": ranked(clustering.cluster_profile(cluster)),
            }

        def degraded(request, level):
            if request.kind == "cluster_profile":
                return coarse.cluster_profile(level)
            answer = getattr(coarse, request.kind)
            return answer(request.param("state"), level)

        return fresh, degraded

    def test_every_answer_matches_the_oracle(self, serve_run_dir, oracle):
        fresh, degraded = oracle
        requests = {request.request_id: request for request in self.schedule()}
        poisoned = False
        for plan in self.PLANS:
            result = QueryService(serve_run_dir, plan=plan).serve(
                list(requests.values()), self.MALFORMED
            )
            assert result.report.accounted
            levels = set()
            statuses = set()
            for response in result.responses:
                statuses.add(response.status)
                request = requests.get(response.request_id.split("~")[0])
                if response.status == "ok" and request.kind == "health":
                    assert response.payload["status"] == "ok"
                    assert (
                        response.payload["brownout_level"]
                        == response.brownout_level
                    )
                elif response.status == "ok":
                    assert response.payload == fresh(request), response
                    levels.add(response.brownout_level)
                elif response.status == "degraded":
                    assert response.payload == degraded(
                        request, response.brownout_level
                    ), response
                    levels.add(response.brownout_level)
                else:
                    assert response.payload is None
            assert levels == {0, 1, 2}, plan
            assert self.REFUSALS <= statuses, (plan, self.REFUSALS - statuses)
            poisoned = poisoned or "poison_query" in statuses
        assert poisoned
