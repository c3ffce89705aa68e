"""Sharded parallel execution of the collection pipeline.

The collect → augment → US-filter loop is embarrassingly parallel: every
tweet is processed independently and the provenance counters are plain
sums.  This module shards a firehose across worker processes and merges
the results so that the outcome is *indistinguishable* from a serial run:

* **Deterministic sharding** — tweets are routed to shard
  ``tweet_id % workers``, so shard membership depends only on the data,
  never on timing or scheduler interleaving.
* **Per-worker state** — each worker builds its own
  :class:`~repro.pipeline.batch.Funnel` around the pipeline's geocoder
  and matcher (inherited under ``fork``, pickled under ``spawn``) and
  feeds it 2048-tweet batches; each worker's memos are its own, so
  there is no cross-process cache coherence to reason about.
* **Ordered merge** — each retained record carries its position in the
  original stream; the merged corpus is sorted by that position, making
  it byte-identical to the serial corpus.
* **Counter merge** — per-shard :class:`PipelineReport` objects are
  combined with :meth:`PipelineReport.merge`; every counter is a sum over
  disjoint shards, so totals equal the serial run exactly.
* **One dispatch path** — every shard goes to the one worker entry
  point, ``_shard_task((index, shard, context))``, on every start
  method.  The supervisor starts one process per attempt, so under
  ``fork`` the shard is inherited by copy-on-write and under ``spawn``
  it is pickled; each result comes back as one pickled frame
  (:mod:`repro.pipeline.wire`).

*Transport*-level fault injection / resilient consumption happens in the
parent *before* sharding (a reconnecting stream is inherently a single
consumer); see :meth:`CollectionPipeline.run`.  *Compute*-level faults —
workers crashing, hanging, or erroring mid-shard — are absorbed by the
supervised pool (:mod:`repro.supervise`) this module fans out through:
failed shards are retried deterministically, and a shard that exhausts
its retries is quarantined, leaving a run that completes *degraded* with
the gap named in ``report.compute`` rather than aborting or hanging.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro import obs
from repro.config import CollectionConfig
from repro.dataset.records import CollectedTweet
from repro.faults.compute import WorkerFaultPlan
from repro.geo.geocoder import Geocoder
from repro.nlp.matcher import OrganMatcher
from repro.pipeline.batch import Funnel
from repro.pipeline.runner import PipelineReport
from repro.pipeline.wire import decode_shard_result, encode_shard_result
from repro.supervise import SupervisorPolicy, check_workers, run_supervised
from repro.twitter.models import Tweet

#: One shard is a list of (original stream position, tweet).
Shard = list[tuple[int, Tweet]]


def shard_by_id(source: Iterable[Tweet], workers: int) -> list[Shard]:
    """Partition a tweet stream into ``workers`` deterministic shards.

    Routing is round-robin on ``tweet_id % workers`` — stable across runs
    and machines — and each tweet keeps its position in the original
    stream so the merge can restore exact serial order.

    Raises:
        ConfigError: if ``workers`` is not a positive integer.
    """
    check_workers(workers)
    shards: list[Shard] = [[] for __ in range(workers)]
    for position, tweet in enumerate(source):
        shards[tweet.tweet_id % workers].append((position, tweet))
    return shards


def process_shard(
    shard: Shard,
    config: CollectionConfig,
    geocoder: Geocoder | None = None,
    matcher: OrganMatcher | None = None,
) -> tuple[list[tuple[int, CollectedTweet]], PipelineReport]:
    """Run collect → augment → US-filter over one shard.

    Executed inside a worker process: builds its own
    :class:`~repro.pipeline.batch.Funnel` over ``geocoder`` and
    ``matcher`` (fresh when omitted) and returns position-tagged
    surviving records plus the shard's provenance counters.
    """
    report = PipelineReport()
    return Funnel(config, geocoder, matcher).process_stream(shard, report), report


#: What every worker needs besides its shard: the collection config, the
#: pipeline's geocoder and matcher, and whether the parent is tracing.
ShardContext = tuple[CollectionConfig, Geocoder | None, OrganMatcher | None, bool]


def _run_shard(
    index: int, shard: Shard, context: ShardContext
) -> tuple[
    list[tuple[int, CollectedTweet]],
    PipelineReport,
    "obs.TelemetrySnapshot | None",
]:
    """Process one shard inside a worker, with optional tracing.

    When the parent ran with tracing enabled, the worker builds its own
    telemetry buffer (the per-worker-buffer model: nothing shared while
    work is in flight), wraps the shard in a span, and freezes a
    snapshot for the parent to absorb in shard order.
    """
    config, geocoder, matcher, trace_enabled = context
    if not trace_enabled:
        records, report = process_shard(shard, config, geocoder, matcher)
        return records, report, None
    telemetry = obs.Telemetry(worker=f"shard-{index}")
    with obs.activate(telemetry):
        with telemetry.span("shard", index=index, tweets=len(shard)):
            records, report = process_shard(shard, config, geocoder, matcher)
    telemetry.observe(
        "shard.wall_seconds", telemetry.tracer.spans[-1].duration, shard=index
    )
    telemetry.inc("shard.tweets_in", len(shard), shard=index)
    telemetry.inc("shard.records_out", len(records), shard=index)
    return records, report, telemetry.snapshot()


def _shard_task(payload: tuple[int, Shard, ShardContext]) -> bytes:
    """The worker entry point: process one shard and frame the result.

    The supervisor starts one process per attempt with ``payload`` as
    its argument: under ``fork`` the child inherits it by copy-on-write,
    under ``spawn`` it is pickled.  The result goes back as one
    :mod:`repro.pipeline.wire` frame.
    """
    index, shard, context = payload
    return encode_shard_result(*_run_shard(index, shard, context))


def run_sharded(
    source: Iterable[Tweet],
    config: CollectionConfig,
    workers: int,
    *,
    policy: SupervisorPolicy | None = None,
    worker_faults: WorkerFaultPlan | None = None,
    geocoder: Geocoder | None = None,
    matcher: OrganMatcher | None = None,
) -> tuple[list[CollectedTweet], PipelineReport]:
    """Shard ``source`` across supervised workers and merge the results.

    Returns records in original stream order and the merged report; both
    are identical to what the serial loop produces, for any worker count
    and any recoverable fault schedule.  Shards run under
    :func:`repro.supervise.run_supervised` and ``report.compute`` records
    what the pool survived.  Every shard's funnel runs over ``geocoder``
    and ``matcher`` (fresh when omitted).

    A shard quarantined after exhausting its retries (a poison shard) is
    an explicit, named gap: its records are absent, the merged counters
    cover the surviving shards only, and ``report.compute.dead_letters``
    identifies the shard — the run never aborts and never hides the loss.

    Raises:
        ConfigError: if ``workers`` is not a positive integer or the
            fault plan is not absorbable by the policy.
    """
    telemetry = obs.current()
    shards = shard_by_id(source, workers)
    context: ShardContext = (config, geocoder, matcher, telemetry.enabled)
    outcomes, health = run_supervised(
        _shard_task,
        [(index, shard, context) for index, shard in enumerate(shards)],
        workers=workers,
        policy=policy,
        fault_plan=worker_faults,
        labels=[f"shard {index}" for index in range(len(shards))],
    )
    report = PipelineReport()
    tagged: list[tuple[int, CollectedTweet]] = []
    # Absorb worker buffers in shard-index order (outcomes align with
    # payloads), so the merged telemetry is deterministic no matter how
    # the scheduler interleaved the workers.
    for outcome in outcomes:
        if outcome is None:
            continue
        shard_records, shard_report, snapshot = decode_shard_result(outcome)
        telemetry.absorb(snapshot)
        report = report.merge(shard_report)
        tagged.extend(shard_records)
    report.compute = health
    tagged.sort(key=lambda item: item[0])
    return [record for __, record in tagged], report
