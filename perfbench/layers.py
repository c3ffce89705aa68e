"""Traced per-layer probes.

Each probe repeats one workload's work in a fresh process, calling each
layer's public functions from here and recording a span around every
call: name, start, end and parent span.  Spans stay in memory and are
written as JSONL when the probe ends.  A span's self time is its
duration minus the time its child spans cover.

A layer whose public function no longer exists is reported as absent
(value ``None``), not as a failure.  ``gc.pause_s`` and
``gc.collections`` come from ``gc.callbacks`` installed around the
probe's main path, the part that mirrors the untraced round.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import json
import math
import resource
import time
from collections.abc import Callable, Iterator
from datetime import timedelta
from pathlib import Path

MIB = 1024.0 * 1024.0

#: Per-layer metrics each probe reports (units are in BENCHMARK.json).
PROBE_METRICS: dict[str, tuple[str, ...]] = {
    "paper_run": (
        "synth.generate_s", "synth.tweets", "dataset.firehose_write_s",
        "dataset.firehose_mb", "dataset.firehose_read_s", "pipeline.collect_s",
        "pipeline.retained", "dataset.corpus_write_s", "dataset.corpus_read_s",
        "core.attention_s", "report.table1_s", "report.fig2_s", "report.fig3_s",
        "report.fig4_s", "report.fig5_s", "report.fig6_s", "report.fig7_s",
    ),
    "serve_queries": (
        "serve.cold_start_s", "serve.load_regions_s", "serve.load_risks_s",
        "serve.load_clustering_s", "serve.read_requests_s", "serve.loop_s",
        "serve.write_s", "serve.requests", "serve.artifact_loads",
        "serve.sim_latency_p50_s", "serve.sim_latency_p99_s",
    ),
    "collect_sharded": (
        "dataset.firehose_read_s", "pipeline.serial_collect_s", "pipeline.shard_s",
        "pipeline.wire_encode_s", "pipeline.wire_decode_s", "pipeline.wire_mb",
        "pipeline.fanout_overhead_s", "pipeline.worker_peak_rss_mb",
    ),
    "monitor_replay": (
        "dataset.firehose_read_s", "sensor.observe_s", "sensor.snapshot_s",
        "sensor.snapshots", "sensor.retained",
    ),
}

PAPER_STAGES = (
    "firehose", "collect", "attention",
    "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
)


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Absent(Exception):
    """A layer's public function no longer exists."""


def public(module: str, name: str) -> Callable | None:
    """A layer's public function, or ``None`` when it no longer exists."""
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


def need(module: str, name: str) -> Callable:
    function = public(module, name)
    if function is None:
        raise Absent(f"{module}.{name}")
    return function


class Tracer:
    """In-memory spans: name, start, end and parent."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": now(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = now()
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_time(self, span: dict) -> float:
        """Duration minus the union of the child spans' intervals."""
        covered = 0.0
        reach = span["start"]
        children = sorted(
            (s["start"], s["end"]) for s in self.spans if s["parent"] == span["id"]
        )
        for start, end in children:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return span["end"] - span["start"] - covered

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                row = dict(span, duration=span["end"] - span["start"])
                row["self"] = self.self_time(span)
                handle.write(json.dumps(row) + "\n")


class GcWatch:
    """Counts collections and sums their pauses while installed."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = 0
        self._started: float | None = None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = now()
        elif self._started is not None:
            self.pause_s += now() - self._started
            self.collections += 1
            self._started = None

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self)


# -- probes -------------------------------------------------------------
#
# Each probe fills ``m`` (pre-filled with None) and returns the duration
# of its main path, which mirrors the untraced round's work.


def probe_paper_run(tr: Tracer, spec: dict, m: dict, gcw: GcWatch) -> float:
    world_cls = need("repro.synth.world", "SyntheticWorld")
    scenario = need("repro.synth.scenarios", "paper2016_scenario")
    write_tweets = need("repro.dataset.io", "write_tweets_jsonl")
    read_tweets = need("repro.dataset.io", "read_tweets_jsonl")
    write_corpus = need("repro.dataset.io", "write_jsonl")
    read_corpus = need("repro.dataset.io", "read_jsonl")
    corpus_cls = need("repro.dataset.corpus", "TweetCorpus")
    pipeline_cls = need("repro.pipeline.runner", "CollectionPipeline")
    build_attention = need("repro.core.attention", "build_attention_matrix")
    suite_cls = need("repro.report.experiments", "ExperimentSuite")
    config = need("repro.config", "AnalysisConfig")(
        relative_risk=need("repro.config", "RelativeRiskConfig")(alpha=0.05),
        user_clustering=need("repro.config", "UserClusteringConfig")(k=12),
    )
    work = Path(spec["work_dir"])
    firehose, corpus_path = work / "firehose.jsonl", work / "corpus.jsonl"
    with gcw, tr.span("paper_run") as root:
        with tr.span("stage.firehose"):
            with tr.span("synth.generate"):
                world = world_cls(scenario(scale=spec["scale"], seed=spec["seed"]))
                tweets = list(world.firehose())
            with tr.span("dataset.firehose_write"):
                write_tweets(tweets, firehose)
        del world, tweets
        with tr.span("stage.collect"):
            with tr.span("dataset.firehose_read"):
                tweets = list(read_tweets(firehose))
            with tr.span("pipeline.collect"):
                corpus, report = pipeline_cls().run(tweets)
            with tr.span("dataset.corpus_write"):
                write_corpus(corpus.records, corpus_path)
        m["synth.tweets"] = len(tweets)
        m["pipeline.retained"] = report.retained
        del tweets, corpus
        with tr.span("stage.attention"):
            with tr.span("dataset.corpus_read"):
                corpus = corpus_cls(read_corpus(corpus_path))
            with tr.span("core.attention"):
                build_attention(corpus)
        for name in PAPER_STAGES[3:]:
            with tr.span(f"stage.{name}"), tr.span(f"report.{name}"):
                suite = suite_cls(corpus, report=report, config=config)
                getattr(suite, f"run_{name}")().render()
    m["dataset.firehose_mb"] = firehose.stat().st_size / MIB
    for name in ("synth.generate", "dataset.firehose_write", "dataset.firehose_read",
                 "pipeline.collect", "dataset.corpus_write", "dataset.corpus_read",
                 "core.attention") + tuple(f"report.{n}" for n in PAPER_STAGES[3:]):
        m[f"{name}_s"] = tr.total(name)
    return root["end"] - root["start"]


def probe_serve_queries(tr: Tracer, spec: dict, m: dict, gcw: GcWatch) -> float:
    service_cls = need("repro.serve", "QueryService")
    cache_cls = need("repro.serve", "ArtifactCache")
    read_requests = need("repro.serve", "read_requests_jsonl")
    write_responses = need("repro.serve", "write_responses_jsonl")
    with tr.span("serve.cold_start"):
        cache = cache_cls()
        warm = service_cls(spec["run_dir"], cache=cache)
    with gcw, tr.span("serve_queries") as root:
        # Builds go through the shared cache, so the serving instance
        # below finds every artifact built and its loop times only the
        # per-request path; its simulated clock still pays every load.
        for artifact in ("regions", "risks", "clustering"):
            with tr.span(f"serve.load_{artifact}"):
                warm.store.load(artifact)
        with tr.span("serve.read_requests"):
            requests, malformed = read_requests(spec["requests"])
        service = service_cls(spec["run_dir"], cache=cache)
        with tr.span("serve.loop"):
            result = service.serve(requests, malformed)
        with tr.span("serve.write"):
            write_responses(result.responses, spec["output"])
    for name in ("cold_start", "load_regions", "load_risks", "load_clustering",
                 "read_requests", "loop", "write"):
        m[f"serve.{name}_s"] = tr.total(f"serve.{name}")
    m["serve.requests"] = result.report.submitted
    m["serve.artifact_loads"] = result.report.artifact_loads
    arrival = {request.request_id: request.arrival for request in requests}
    latencies = sorted(
        response.finished_at - arrival[response.request_id]
        for response in result.responses
        if response.request_id in arrival
    )
    for label, q in (("p50", 0.50), ("p99", 0.99)):
        m[f"serve.sim_latency_{label}_s"] = latencies[
            max(0, math.ceil(q * len(latencies)) - 1)
        ]
    return root["end"] - root["start"]


def probe_collect_sharded(tr: Tracer, spec: dict, m: dict, gcw: GcWatch) -> float:
    read_tweets = need("repro.dataset.io", "read_tweets_jsonl")
    write_corpus = need("repro.dataset.io", "write_jsonl")
    pipeline_cls = need("repro.pipeline.runner", "CollectionPipeline")
    workers = spec["workers"]
    with gcw, tr.span("collect_sharded") as root:
        with tr.span("dataset.firehose_read"):
            tweets = list(read_tweets(spec["firehose"]))
        with tr.span("pipeline.sharded_collect"):
            corpus, __ = pipeline_cls().run(tweets, workers=workers)
        with tr.span("dataset.corpus_write"):
            write_corpus(corpus.records, spec["output"])
    m["pipeline.worker_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    )
    m["dataset.firehose_read_s"] = tr.total("dataset.firehose_read")
    with tr.span("pipeline.serial_collect"):
        pipeline_cls().run(tweets)
    m["pipeline.serial_collect_s"] = tr.total("pipeline.serial_collect")
    m["pipeline.fanout_overhead_s"] = (
        tr.total("pipeline.sharded_collect") - m["pipeline.serial_collect_s"]
    )
    shard_by_id = public("repro.pipeline.parallel", "shard_by_id")
    if shard_by_id is None:
        return root["end"] - root["start"]
    with tr.span("pipeline.shard"):
        shards = shard_by_id(tweets, workers)
    m["pipeline.shard_s"] = tr.total("pipeline.shard")
    process_shard = public("repro.pipeline.parallel", "process_shard")
    encode = public("repro.pipeline.wire", "encode_shard_result")
    decode = public("repro.pipeline.wire", "decode_shard_result")
    if None in (process_shard, encode, decode):
        return root["end"] - root["start"]
    config = need("repro.config", "CollectionConfig")()
    with tr.span("pipeline.worker_funnel"):
        results = [process_shard(shard, config) for shard in shards]
    with tr.span("pipeline.wire_encode"):
        frames = [encode(records, report, None) for records, report in results]
    with tr.span("pipeline.wire_decode"):
        for frame in frames:
            decode(frame)
    m["pipeline.wire_encode_s"] = tr.total("pipeline.wire_encode")
    m["pipeline.wire_decode_s"] = tr.total("pipeline.wire_decode")
    m["pipeline.wire_mb"] = sum(len(frame) for frame in frames) / MIB
    return root["end"] - root["start"]


def probe_monitor_replay(tr: Tracer, spec: dict, m: dict, gcw: GcWatch) -> float:
    read_tweets = need("repro.dataset.io", "read_tweets_jsonl")
    sensor_cls = need("repro.sensor.rolling", "RollingAwarenessSensor")
    risk_config = need("repro.config", "RelativeRiskConfig")
    sensor = sensor_cls(
        window=timedelta(days=spec["window_days"]),
        relative_risk=risk_config(min_users=spec["min_users"]),
    )
    emit_every = spec["emit_every"]
    snapshots = 0
    with gcw, tr.span("monitor_replay") as root:
        with tr.span("dataset.firehose_read"):
            tweets = list(read_tweets(spec["firehose"]))
        # Mirrors RollingAwarenessSensor.run: a snapshot after every
        # ``emit_every`` retained tweets, and a final one.
        with tr.span("sensor.replay") as replay:
            since_emit = 0
            for tweet in tweets:
                if sensor.observe(tweet):
                    since_emit += 1
                    if since_emit >= emit_every:
                        since_emit = 0
                        with tr.span("sensor.snapshot"):
                            snapshots += sensor.snapshot() is not None
            with tr.span("sensor.snapshot"):
                snapshots += sensor.snapshot() is not None
    m["dataset.firehose_read_s"] = tr.total("dataset.firehose_read")
    m["sensor.observe_s"] = tr.self_time(replay)
    m["sensor.snapshot_s"] = tr.total("sensor.snapshot")
    m["sensor.snapshots"] = snapshots
    m["sensor.retained"] = sensor.retained
    return root["end"] - root["start"]


PROBES = {
    "paper_run": probe_paper_run,
    "serve_queries": probe_serve_queries,
    "collect_sharded": probe_collect_sharded,
    "monitor_replay": probe_monitor_replay,
}


def run_traced(spec: dict) -> dict:
    """Run one probe; returns its metrics, main-path time and stage sums."""
    tracer = Tracer()
    gcw = GcWatch()
    metrics: dict[str, float | None] = dict.fromkeys(PROBE_METRICS[spec["probe"]])
    absent = None
    try:
        traced_total = PROBES[spec["probe"]](tracer, spec, metrics, gcw)
    except Absent as exc:
        absent, traced_total = str(exc), None
    metrics["gc.pause_s"] = gcw.pause_s
    metrics["gc.collections"] = gcw.collections
    tracer.write_jsonl(Path(spec["spans"]))
    stage_sums = {
        name: tracer.total(f"stage.{name}")
        for name in PAPER_STAGES
        if any(s["name"] == f"stage.{name}" for s in tracer.spans)
    }
    return {
        "metrics": metrics,
        "traced_total_s": traced_total,
        "stage_sums": stage_sums,
        "absent_layer": absent,
        "ready": now(),
    }
