"""Resilient Streaming API client: reconnect, backoff, dedup, dead-letter.

:class:`ResilientStream` drives a connection-oriented source (normally a
:class:`repro.twitter.faults.FaultySource`) and yields an exactly-once,
in-order stream of :class:`~repro.twitter.models.Tweet` records despite
every fault the source injects:

* **Reconnects** follow Twitter's documented policy — linear backoff for
  network errors and stalls, capped exponential backoff for HTTP errors,
  a slower exponential schedule for HTTP 420 — with deterministic seeded
  jitter.  Backoff is *simulated*: delays are computed and recorded, and
  an injectable ``sleep`` callable (a no-op by default) receives them, so
  nothing here ever blocks on a wall clock.
* **Stalls** (runs of keep-alive frames longer than
  ``policy.stall_timeout_ticks``) tear the connection down proactively,
  the way real clients react to a missed ``stall_warning``.
* **Backfill duplicates** are suppressed by a sliding window of recently
  seen tweet ids.
* **Bounded out-of-order delivery** is repaired by an id-ordered buffer
  of ``policy.reorder_window`` records (exact restoration whenever the
  source's displacement bound fits the buffer).
* **Malformed frames** are never fatal and never silently dropped: each
  lands in the dead-letter queue with a reason.

The contract downstream analyses rely on (the chaos-equivalence
property): for a compatible policy/plan pair, iterating this client over
a faulty source yields *byte-identical* output to iterating the plain
source — so Figs. 2–7 and Table I are invariant under injected failure.
"""

from __future__ import annotations

import heapq
import json
import random
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from repro.config import ResiliencePolicy
from repro.errors import ConfigError, SerializationError
from repro.obs import current as telemetry_current
from repro.storage.fs import FileSystem
from repro.storage.jsonl import read_objects_jsonl, write_jsonl_lines
from repro.twitter.errors import (
    HTTPStreamError,
    RateLimitError,
    StreamDisconnectError,
)
from repro.twitter.faults import KEEPALIVE, FaultPlan, FaultySource
from repro.twitter.models import Tweet


def network_backoff(policy: ResiliencePolicy, attempt: int) -> float:
    """Linear backoff for the ``attempt``-th consecutive network failure.

    Twitter guidance: start at 250 ms, grow linearly, cap at 16 s.
    """
    if attempt < 1:
        raise ConfigError(f"attempt must be >= 1, got {attempt}")
    return min(policy.network_backoff_step * attempt, policy.network_backoff_cap)


def http_backoff(policy: ResiliencePolicy, attempt: int) -> float:
    """Exponential backoff for the ``attempt``-th consecutive HTTP error.

    Twitter guidance: start at 5 s, double, cap at 320 s.
    """
    if attempt < 1:
        raise ConfigError(f"attempt must be >= 1, got {attempt}")
    return min(
        policy.http_backoff_initial * policy.backoff_factor ** (attempt - 1),
        policy.http_backoff_cap,
    )


def rate_limit_backoff(policy: ResiliencePolicy, attempt: int) -> float:
    """Exponential backoff after the ``attempt``-th consecutive HTTP 420.

    Twitter guidance: start at a full minute and double.
    """
    if attempt < 1:
        raise ConfigError(f"attempt must be >= 1, got {attempt}")
    return min(
        policy.rate_limit_backoff_initial
        * policy.backoff_factor ** (attempt - 1),
        policy.rate_limit_backoff_cap,
    )


def ensure_compatible(policy: ResiliencePolicy, plan: FaultPlan) -> None:
    """Check that ``policy`` can provably absorb every fault in ``plan``.

    Raises:
        ConfigError: when the reorder buffer cannot cover the plan's
            out-of-order displacement bound, or the dedup window cannot
            cover the backfill overlap.
    """
    if policy.reorder_window < plan.max_displacement:
        raise ConfigError(
            f"reorder_window={policy.reorder_window} cannot restore order "
            f"under displacement bound {plan.max_displacement}; raise "
            "reorder_window or shrink backfill_depth/reorder_span"
        )
    needed = 2 * (plan.backfill_depth + plan.reorder_span) + 1
    if policy.dedup_window < needed:
        raise ConfigError(
            f"dedup_window={policy.dedup_window} cannot cover the backfill "
            f"overlap; need >= {needed}"
        )


@dataclass(frozen=True, slots=True)
class DeadLetter:
    """One undecodable frame, preserved with a reason instead of crashing.

    Attributes:
        payload: the raw frame as received.
        reason: ``"invalid-json"`` or ``"malformed-record"``.
        sequence: ordinal of the frame on the wire (1-based).
    """

    payload: str
    reason: str
    sequence: int

    def to_dict(self) -> dict[str, object]:
        return {
            "payload": self.payload,
            "reason": self.reason,
            "sequence": self.sequence,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DeadLetter":
        return cls(
            payload=str(data["payload"]),
            reason=str(data["reason"]),
            sequence=int(data["sequence"]),
        )


def write_dead_letters_jsonl(
    letters: Iterable[DeadLetter],
    path: str | Path,
    *,
    fs: FileSystem | None = None,
) -> int:
    """Persist a dead-letter queue as JSONL; returns the count written.

    Dead letters are evidence — the frames a run refused to lose — so
    they get the same durability treatment as the corpus itself: one
    atomic-durable write plus a :mod:`repro.storage.manifest` integrity
    sidecar, making the queue scrubbable for bitrot like every other
    persisted artifact.
    """
    return write_jsonl_lines(
        (json.dumps(letter.to_dict(), ensure_ascii=False) for letter in letters),
        path,
        fs=fs,
    )


def read_dead_letters_jsonl(path: str | Path) -> Iterator[DeadLetter]:
    """Stream dead letters back from a JSONL file.

    Raises:
        SerializationError: on the first malformed line, with its
            1-based line number.
    """
    for line_number, data in read_objects_jsonl(path):
        try:
            yield DeadLetter.from_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(
                f"{path}:{line_number}: malformed dead letter: {exc}"
            ) from exc


@dataclass(slots=True)
class ReliabilityReport:
    """What one resilient collection survived.

    Exposed alongside :class:`repro.pipeline.runner.PipelineReport` so a
    chaos run documents both what it kept and what it lived through.
    Renders as ``(label, value)`` rows (``as_rows``), the same surface
    as the compute layer's :class:`repro.supervise.RunHealth` — one
    rendering path serves both.
    """

    connects: int = 0
    disconnects: int = 0
    stalls_detected: int = 0
    rejections_420: int = 0
    rejections_503: int = 0
    retries_network: int = 0
    retries_http: int = 0
    retries_rate_limit: int = 0
    backoff_seconds: float = 0.0
    duplicates_suppressed: int = 0
    out_of_order: int = 0
    dead_lettered: int = 0
    delivered: int = 0
    dead_letters: list[DeadLetter] = field(default_factory=list)

    @property
    def total_retries(self) -> int:
        return self.retries_network + self.retries_http + self.retries_rate_limit

    def as_rows(self) -> list[tuple[str, str]]:
        return [
            ("Connections established", f"{self.connects:,}"),
            ("Disconnects survived", f"{self.disconnects:,}"),
            ("Stalls detected", f"{self.stalls_detected:,}"),
            ("HTTP 420 rejections", f"{self.rejections_420:,}"),
            ("HTTP 503 rejections", f"{self.rejections_503:,}"),
            ("Retries (network/HTTP/420)",
             f"{self.retries_network:,}/{self.retries_http:,}/"
             f"{self.retries_rate_limit:,}"),
            ("Backoff time (simulated)", f"{self.backoff_seconds:,.2f}s"),
            ("Duplicates suppressed", f"{self.duplicates_suppressed:,}"),
            ("Out-of-order arrivals", f"{self.out_of_order:,}"),
            ("Dead-lettered frames", f"{self.dead_lettered:,}"),
            ("Records delivered", f"{self.delivered:,}"),
        ]

    def to_dict(self) -> dict[str, object]:
        """Full round-trippable form (counters plus dead letters) —
        the same shape contract as
        :meth:`repro.supervise.RunHealth.to_dict`."""
        data: dict[str, object] = {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if spec.name != "dead_letters"
        }
        data["dead_letters"] = [
            letter.to_dict() for letter in self.dead_letters
        ]
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ReliabilityReport":
        report = cls()
        for spec in fields(cls):
            if spec.name == "dead_letters":
                continue
            kind = type(getattr(report, spec.name))
            setattr(report, spec.name, kind(data[spec.name]))
        report.dead_letters = [
            DeadLetter.from_dict(item) for item in data["dead_letters"]
        ]
        return report


class _SeenWindow:
    """Sliding window of recently seen tweet ids (O(1) membership)."""

    __slots__ = ("_order", "_members")

    def __init__(self, size: int):
        self._order: deque[int] = deque(maxlen=size)
        self._members: set[int] = set()

    def __contains__(self, tweet_id: int) -> bool:
        return tweet_id in self._members

    def add(self, tweet_id: int) -> None:
        if len(self._order) == self._order.maxlen:
            self._members.discard(self._order[0])
        self._order.append(tweet_id)
        self._members.add(tweet_id)


class ResilientStream:
    """Exactly-once, in-order tweet iterator over a failable source.

    Args:
        source: any object with a ``connect()`` returning a frame
            iterator — normally a :class:`FaultySource`.
        policy: reconnect/dedup/reorder policy (defaults apply Twitter's
            documented schedule).
        sleep: receives every computed backoff delay, in seconds.  The
            default records the delay and returns immediately, so tests
            and simulations never block; pass ``time.sleep`` to get real
            pacing against a live source.

    Every frame is delivered exactly once as a :class:`Tweet` or
    dead-lettered with a reason; the client never raises for an injected
    fault.  Iteration ends only when the source is exhausted.
    """

    def __init__(
        self,
        source: FaultySource,
        policy: ResiliencePolicy | None = None,
        sleep: Callable[[float], None] | None = None,
    ):
        self._source = source
        self.policy = policy or ResiliencePolicy()
        self._sleep = sleep if sleep is not None else (lambda delay: None)
        # Deterministic jitter schedule derived from the policy seed.
        self._rng = random.Random(self.policy.seed)
        self._seen = _SeenWindow(self.policy.dedup_window)
        self._heap: list[tuple[int, int, Tweet]] = []
        self._push_seq = 0
        self._frame_seq = 0
        self._max_id: int | None = None
        self._conn = None
        self._exhausted = False
        self._stall_run = 0
        self._net_failures = 0
        self._http_failures = 0
        self._rate_limit_failures = 0
        self.report = ReliabilityReport()

    def __iter__(self) -> Iterator[Tweet]:
        return self

    def __next__(self) -> Tweet:
        while True:
            if self._exhausted:
                if self._heap:
                    return self._pop()
                raise StopIteration
            if len(self._heap) > self.policy.reorder_window:
                return self._pop()
            self._pump()

    @property
    def dead_letters(self) -> list[DeadLetter]:
        return self.report.dead_letters

    # -- internals ------------------------------------------------------

    def _pop(self) -> Tweet:
        __, __, tweet = heapq.heappop(self._heap)
        self.report.delivered += 1
        return tweet

    def _pump(self) -> None:
        """Advance by one event: connect, read one frame, or back off."""
        if self._conn is None:
            self._connect()
            return
        try:
            frame = next(self._conn)
        except StopIteration:
            self._exhausted = True
            self._conn = None
            return
        except StreamDisconnectError:
            self.report.disconnects += 1
            telemetry_current().inc("transport.disconnects")
            self._conn = None
            self._backoff_network()
            return
        self._frame_seq += 1
        if frame == KEEPALIVE:
            self._stall_run += 1
            if self._stall_run >= self.policy.stall_timeout_ticks:
                # Stalled connection: tear down and reconnect, treating
                # it as a network-level failure per Twitter guidance.
                self.report.stalls_detected += 1
                telemetry_current().inc("transport.stalls")
                self._stall_run = 0
                self._conn = None
                self._backoff_network()
            return
        self._stall_run = 0
        tweet = self._decode(frame)
        if tweet is None:
            return
        if tweet.tweet_id in self._seen:
            self.report.duplicates_suppressed += 1
            telemetry_current().inc("transport.duplicates_suppressed")
            return
        self._seen.add(tweet.tweet_id)
        if self._max_id is not None and tweet.tweet_id < self._max_id:
            self.report.out_of_order += 1
            telemetry_current().inc("transport.out_of_order")
        if self._max_id is None or tweet.tweet_id > self._max_id:
            self._max_id = tweet.tweet_id
        heapq.heappush(self._heap, (tweet.tweet_id, self._push_seq, tweet))
        self._push_seq += 1

    def _decode(self, frame: str) -> Tweet | None:
        try:
            data = json.loads(frame)
        except json.JSONDecodeError:
            self._dead_letter(frame, "invalid-json")
            return None
        try:
            if not isinstance(data, dict):
                raise SerializationError("frame is not an object")
            return Tweet.from_dict(data)
        except SerializationError:
            self._dead_letter(frame, "malformed-record")
            return None

    def _dead_letter(self, payload: str, reason: str) -> None:
        self.report.dead_letters.append(
            DeadLetter(payload=payload, reason=reason, sequence=self._frame_seq)
        )
        self.report.dead_lettered += 1
        telemetry_current().inc("transport.dead_lettered", reason=reason)

    def _connect(self) -> None:
        try:
            self._conn = self._source.connect()
        except RateLimitError:
            self.report.rejections_420 += 1
            self._rate_limit_failures += 1
            self.report.retries_rate_limit += 1
            telemetry_current().inc("transport.retries", kind="rate_limit")
            self._wait(rate_limit_backoff(self.policy, self._rate_limit_failures))
        except HTTPStreamError:
            self.report.rejections_503 += 1
            self._http_failures += 1
            self.report.retries_http += 1
            telemetry_current().inc("transport.retries", kind="http")
            self._wait(http_backoff(self.policy, self._http_failures))
        else:
            self.report.connects += 1
            telemetry_current().inc("transport.connects")
            self._stall_run = 0
            self._net_failures = 0
            self._http_failures = 0
            self._rate_limit_failures = 0

    def _backoff_network(self) -> None:
        self._net_failures += 1
        self.report.retries_network += 1
        telemetry_current().inc("transport.retries", kind="network")
        self._wait(network_backoff(self.policy, self._net_failures))

    def _wait(self, base_delay: float) -> None:
        delay = base_delay
        if self.policy.jitter:
            delay += base_delay * self.policy.jitter * self._rng.random()
        self.report.backoff_seconds += delay
        telemetry_current().inc("transport.backoff_seconds", delay)
        self._sleep(delay)
