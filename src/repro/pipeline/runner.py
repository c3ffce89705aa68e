"""Pipeline composition with provenance accounting.

Runs collect → augment → US-filter over a tweet source and produces a
:class:`repro.dataset.corpus.TweetCorpus`, recording how many tweets each
stage dropped and why — the numbers behind Table I's footnote ("134,986 out
of 975,021 tweets could be identified as from USA users").

The funnel itself is :class:`repro.pipeline.batch.Funnel`; the serial
loop here feeds it 2048-tweet batches, as do the sharded workers in
:mod:`repro.pipeline.parallel`, so every execution mode runs the same
code.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, fields

from repro import obs
from repro.config import CollectionConfig, ResiliencePolicy
from repro.dataset.corpus import TweetCorpus
from repro.dataset.records import CollectedTweet
from repro.errors import PipelineError
from repro.geo.geocoder import Geocoder
from repro.nlp.matcher import OrganMatcher
from repro.pipeline.batch import Funnel
from repro.twitter.faults import FaultPlan, FaultySource
from repro.twitter.models import Tweet
from repro.faults.compute import WorkerFaultPlan
from repro.supervise import RunHealth, SupervisorPolicy, check_workers
from repro.twitter.resilient import (
    ReliabilityReport,
    ResilientStream,
    ensure_compatible,
)


@dataclass(slots=True)
class PipelineReport:
    """Provenance counters for one pipeline run.

    Attributes:
        stream_dropped: tweets the keyword filter rejected (off-topic).
        collected: keyword-matched tweets ("tweets collected" worldwide).
        located_gps: collected tweets located via geo-tag.
        located_profile: collected tweets located via profile geocoding.
        unresolved: collected tweets with no resolvable location.
        non_us: collected tweets resolved outside the USA (or to the USA
            without a state).
        us_located: collected tweets resolved to a US state — the paper's
            "identified as from USA users" population, regardless of
            whether an organ mention was extractable afterwards.
        no_mentions: US-located tweets where no organ mention could be
            extracted (keyword matched inside a URL or mention handle).
        retained: tweets surviving the US filter — the analysis dataset.
        reliability: transport-level counters when the run was resilient
            (chaos mode); ``None`` for a plain run.
        compute: supervised-pool counters when the run fanned out through
            :func:`repro.supervise.run_supervised`; ``None`` for an
            in-process run.
    """

    stream_dropped: int = 0
    collected: int = 0
    located_gps: int = 0
    located_profile: int = 0
    unresolved: int = 0
    non_us: int = 0
    us_located: int = 0
    no_mentions: int = 0
    retained: int = 0
    reliability: ReliabilityReport | None = None
    compute: RunHealth | None = None

    @property
    def us_yield(self) -> float:
        """Fraction of collected tweets attributable to US users.

        The paper's 134,986 / 975,021 footnote counts every tweet located
        to a US state, including ones later dropped because no organ
        mention survived extraction; retention is reported separately.
        """
        return self.us_located / self.collected if self.collected else 0.0

    @property
    def retention(self) -> float:
        """Fraction of collected tweets that reached the analysis set."""
        return self.retained / self.collected if self.collected else 0.0

    def merge(self, other: "PipelineReport") -> "PipelineReport":
        """Combine two shard reports into one (counters sum).

        Reliability counters are transport-level and belong to the single
        resilient consumer, and compute counters belong to the single
        supervising parent, so at most one side may carry each.

        Raises:
            PipelineError: if both reports carry a reliability or a
                compute report.
        """
        if self.reliability is not None and other.reliability is not None:
            raise PipelineError(
                "cannot merge two reports that both carry reliability data"
            )
        if self.compute is not None and other.compute is not None:
            raise PipelineError(
                "cannot merge two reports that both carry compute health"
            )
        merged = PipelineReport(
            reliability=self.reliability or other.reliability,
            compute=self.compute or other.compute,
        )
        for spec in fields(PipelineReport):
            if spec.name in ("reliability", "compute"):
                continue
            setattr(
                merged,
                spec.name,
                getattr(self, spec.name) + getattr(other, spec.name),
            )
        return merged

    def as_rows(self) -> list[tuple[str, str]]:
        rows = [
            ("Rejected by keyword filter", f"{self.stream_dropped:,}"),
            ("Collected (keyword-matched)", f"{self.collected:,}"),
            ("Located via GPS geo-tag", f"{self.located_gps:,}"),
            ("Located via profile geocoding", f"{self.located_profile:,}"),
            ("Unresolvable location", f"{self.unresolved:,}"),
            ("Resolved outside US states", f"{self.non_us:,}"),
            ("Located in a US state", f"{self.us_located:,}"),
            ("No extractable organ mention", f"{self.no_mentions:,}"),
            ("Retained (US analysis set)", f"{self.retained:,}"),
            ("US yield", f"{self.us_yield:.1%}"),
            ("Retention", f"{self.retention:.1%}"),
        ]
        if self.reliability is not None:
            rows.extend(self.reliability.as_rows())
        if self.compute is not None:
            rows.extend(self.compute.as_rows())
        return rows

    def to_dict(self) -> dict[str, object]:
        """Round-trippable form, including any attached health reports."""
        data: dict[str, object] = {
            spec.name: getattr(self, spec.name)
            for spec in fields(PipelineReport)
            if spec.name not in ("reliability", "compute")
        }
        data["reliability"] = (
            self.reliability.to_dict() if self.reliability is not None else None
        )
        data["compute"] = (
            self.compute.to_dict() if self.compute is not None else None
        )
        return data

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "PipelineReport":
        report = cls()
        for spec in fields(cls):
            if spec.name in ("reliability", "compute"):
                continue
            setattr(report, spec.name, int(data[spec.name]))  # type: ignore[call-overload]
        if data.get("reliability") is not None:
            report.reliability = ReliabilityReport.from_dict(
                data["reliability"]  # type: ignore[arg-type]
            )
        if data.get("compute") is not None:
            report.compute = RunHealth.from_dict(
                data["compute"]  # type: ignore[arg-type]
            )
        return report


def emit_funnel_metrics(
    report: PipelineReport, telemetry: "obs.Telemetry"
) -> None:
    """Mirror a finished report's funnel counters into telemetry.

    Emitted once per run from the authoritative :class:`PipelineReport`
    rather than incremented per tweet: zero hot-path cost, and the
    metric lines can never disagree with the report they describe.
    """
    telemetry.inc(
        "pipeline.tweets_seen", report.stream_dropped + report.collected
    )
    telemetry.inc("pipeline.collected", report.collected)
    telemetry.inc("pipeline.dropped", report.stream_dropped, stage="keyword")
    telemetry.inc("pipeline.dropped", report.unresolved, stage="unresolved")
    telemetry.inc("pipeline.dropped", report.non_us, stage="non_us")
    telemetry.inc(
        "pipeline.dropped", report.no_mentions, stage="no_mentions"
    )
    telemetry.inc("pipeline.located", report.located_gps, source="gps")
    telemetry.inc(
        "pipeline.located", report.located_profile, source="profile"
    )
    telemetry.inc("pipeline.retained", report.retained)


@dataclass(slots=True)
class CollectionPipeline:
    """The three-step pipeline of §III-A as a reusable object.

    Attributes:
        config: collection configuration.
        geocoder: shared geocoder instance.
        matcher: shared organ-mention matcher.
        resilience: reconnect/dedup policy used when a run injects faults.
    """

    config: CollectionConfig = field(default_factory=CollectionConfig)
    geocoder: Geocoder = field(default_factory=Geocoder)
    matcher: OrganMatcher = field(default_factory=OrganMatcher)
    resilience: ResiliencePolicy = field(default_factory=ResiliencePolicy)

    def run(
        self,
        source: Iterable[Tweet],
        fault_plan: FaultPlan | None = None,
        workers: int = 1,
        supervisor: SupervisorPolicy | None = None,
        worker_faults: WorkerFaultPlan | None = None,
    ) -> tuple[TweetCorpus, PipelineReport]:
        """Run the full pipeline over a tweet source.

        Args:
            source: tweet iterable (firehose).
            fault_plan: when given, the source is wrapped in a
                :class:`FaultySource` injecting that plan's faults and
                consumed through a :class:`ResilientStream`; the chaos
                run retains exactly the records of a fault-free run and
                ``report.reliability`` documents what it survived.
            workers: processes to shard the collect→augment→US-filter
                loop across.  ``1`` (default) runs serially in-process;
                any value produces a byte-identical corpus and identical
                counters (see :mod:`repro.pipeline.parallel`).  Fault
                recovery is transport-level and always runs in the parent
                before sharding.
            supervisor: retry/deadline policy for the supervised pool;
                forces the sharded path even at ``workers=1``.
            worker_faults: compute-fault plan injected into the workers
                (chaos testing); forces the sharded path even at
                ``workers=1``.  ``report.compute`` documents what the
                pool survived.

        Raises:
            PipelineError: if no tweet survives (nothing to analyze).
            repro.errors.ConfigError: if ``fault_plan`` is incompatible
                with this pipeline's resilience policy, ``worker_faults``
                is not absorbable by ``supervisor``, or ``workers`` is
                not a positive integer.
        """
        check_workers(workers)
        telemetry = obs.current()
        resilient: ResilientStream | None = None
        if fault_plan is not None:
            ensure_compatible(self.resilience, fault_plan)
            resilient = ResilientStream(
                FaultySource(source, fault_plan), self.resilience
            )
            source = resilient
        if workers > 1 or supervisor is not None or worker_faults is not None:
            from repro.pipeline.parallel import run_sharded

            with telemetry.span(
                "pipeline.sharded", workers=workers, chaos=resilient is not None
            ):
                records, report = run_sharded(
                    source,
                    self.config,
                    workers,
                    policy=supervisor,
                    worker_faults=worker_faults,
                    geocoder=self.geocoder,
                    matcher=self.matcher,
                )
        else:
            with telemetry.span(
                "pipeline.serial", chaos=resilient is not None
            ):
                records, report = self._run_serial(source)
        if resilient is not None:
            report.reliability = resilient.report
        emit_funnel_metrics(report, telemetry)
        if not records:
            raise PipelineError("pipeline retained zero tweets")
        return TweetCorpus(records), report

    def _run_serial(
        self, source: Iterable[Tweet]
    ) -> tuple[list[CollectedTweet], PipelineReport]:
        report = PipelineReport()
        funnel = Funnel(self.config, self.geocoder, self.matcher)
        tagged = funnel.process_stream(enumerate(source), report)
        # Positions from enumerate() are already ascending — no sort.
        return [record for __, record in tagged], report
