"""Deterministic fault injection for the simulated Streaming API.

The paper's dataset came from 385 days of continuous Streaming API
collection; any collector surviving that window rides out hundreds of
disconnects, HTTP 420 rate-limit windows, stalls, and torn payloads.  The
plain :class:`repro.twitter.stream.FilteredStream` substrate is perfectly
reliable, so none of that failure handling would ever be exercised —
this module makes the substrate *able to fail* the way production does.

:class:`FaultySource` wraps any tweet iterable and exposes the
connection-oriented surface of the real Streaming API: :meth:`connect`
returns an iterator of raw payload *frames* (JSON strings, plus blank
keep-alive frames), and both connecting and reading can fail.  Every
fault class is independently configurable through :class:`FaultPlan` and
every decision is drawn from a seeded RNG, so a chaos run is exactly
reproducible.

Injected failure taxonomy (mirroring the documented Streaming API):

* **Disconnects** — :class:`repro.twitter.errors.StreamDisconnectError`
  raised mid-read (TCP reset).
* **HTTP 420 / 503** — :class:`repro.twitter.errors.RateLimitError` /
  :class:`repro.twitter.errors.HTTPStreamError` raised from
  :meth:`FaultySource.connect`.
* **Stalls** — bursts of blank keep-alive frames, mirroring the
  condition behind Twitter's ``stall_warning``.
* **Backfill duplicates and bounded out-of-order delivery** — each
  reconnect re-delivers the last ``backfill_depth`` records, shuffled
  together with up to ``reorder_span`` new records.
* **Torn frames** — a payload truncated mid-JSON immediately followed by
  a disconnect; the intact record is re-delivered by reconnect backfill.
* **Garbage frames** — malformed payloads that never correspond to a
  record (noise a long-lived HTTP stream inevitably delivers).

The invariant the design protects: *no fault ever loses a record*.  Torn
records reappear intact in the next backfill; garbage frames are extra
frames, never replacements.  A client that reconnects, deduplicates, and
reorders (:class:`repro.twitter.resilient.ResilientStream`) therefore
recovers the exact fault-free stream.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields

from repro.errors import ConfigError
from repro.twitter.errors import (
    HTTPStreamError,
    RateLimitError,
    StreamDisconnectError,
)
from repro.twitter.models import Tweet

#: A blank keep-alive frame, like the newline keep-alives Twitter sends.
KEEPALIVE: str = ""

_RATE_FIELDS = (
    "disconnect_rate",
    "rate_limit_rate",
    "http_error_rate",
    "stall_rate",
    "keepalive_rate",
    "garbage_rate",
    "truncate_rate",
)


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Per-class fault rates and shapes for one chaos run.

    All rates are per-opportunity probabilities: connect-time rates are
    drawn on every connection attempt, the rest before each new record.
    A plan with every rate at zero is a perfectly reliable substrate.

    Attributes:
        seed: RNG seed; the whole fault schedule derives from it.
        disconnect_rate: mid-stream TCP reset probability.
        rate_limit_rate: HTTP 420 rejection probability on (re)connect.
        http_error_rate: HTTP 503 rejection probability on (re)connect.
        stall_rate: probability of a stall burst (``stall_ticks``
            consecutive keep-alives) before the next record.
        stall_ticks: keep-alive frames per stall burst.
        keepalive_rate: probability of a single benign keep-alive.
        garbage_rate: probability of an injected malformed frame.
        truncate_rate: probability a record's frame is torn mid-JSON and
            the connection reset (the record returns via backfill).
        backfill_depth: records re-delivered after each reconnect.
        reorder_span: new records shuffled into the backfill window; the
            maximum out-of-order displacement is
            ``backfill_depth + reorder_span - 1``.
        max_connect_failures: cap on *consecutive* connect rejections, so
            a chaos run always makes progress.
    """

    seed: int = 0
    disconnect_rate: float = 0.0
    rate_limit_rate: float = 0.0
    http_error_rate: float = 0.0
    stall_rate: float = 0.0
    stall_ticks: int = 12
    keepalive_rate: float = 0.0
    garbage_rate: float = 0.0
    truncate_rate: float = 0.0
    backfill_depth: int = 8
    reorder_span: int = 4
    max_connect_failures: int = 4

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.stall_ticks < 1:
            raise ConfigError(f"stall_ticks must be >= 1, got {self.stall_ticks}")
        if self.backfill_depth < 0:
            raise ConfigError(
                f"backfill_depth must be >= 0, got {self.backfill_depth}"
            )
        if self.reorder_span < 0:
            raise ConfigError(
                f"reorder_span must be >= 0, got {self.reorder_span}"
            )
        if self.max_connect_failures < 1:
            raise ConfigError(
                "max_connect_failures must be >= 1, got "
                f"{self.max_connect_failures}"
            )
        if self.truncate_rate > 0.0 and self.backfill_depth < 1:
            raise ConfigError(
                "truncate_rate > 0 requires backfill_depth >= 1 "
                "(torn records are recovered from backfill)"
            )

    @property
    def max_displacement(self) -> int:
        """Upper bound on out-of-order displacement this plan can cause."""
        return max(0, self.backfill_depth + self.reorder_span - 1)

    @property
    def any_faults(self) -> bool:
        return any(getattr(self, name) > 0.0 for name in _RATE_FIELDS)

    @classmethod
    def none(cls, seed: int = 0) -> "FaultPlan":
        """A perfectly reliable plan (every fault rate zero)."""
        return cls(seed=seed)

    @classmethod
    def chaos(cls, seed: int = 0) -> "FaultPlan":
        """Every fault class enabled at moderate rates — the default for
        ``repro collect --chaos``."""
        return cls(
            seed=seed,
            disconnect_rate=0.01,
            rate_limit_rate=0.25,
            http_error_rate=0.25,
            stall_rate=0.005,
            keepalive_rate=0.02,
            garbage_rate=0.005,
            truncate_rate=0.005,
        )

    def describe(self) -> str:
        active = ", ".join(
            f"{name}={getattr(self, name)}"
            for name in _RATE_FIELDS
            if getattr(self, name) > 0.0
        )
        return f"FaultPlan(seed={self.seed}, {active or 'no faults'})"


@dataclass(slots=True)
class InjectionLog:
    """What a :class:`FaultySource` actually injected, for accounting.

    Frame-level counters tick at delivery time and exception counters at
    raise time, so a resilient client's
    :class:`~repro.twitter.resilient.ReliabilityReport` can be reconciled
    against this log fault-for-fault.
    """

    connections: int = 0
    disconnects: int = 0
    rate_limited: int = 0
    http_errors: int = 0
    stalls: int = 0
    keepalives: int = 0
    garbage_frames: int = 0
    truncated_frames: int = 0
    duplicates: int = 0
    shuffled_windows: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class _Connection:
    """One live connection to a :class:`FaultySource`.

    Iterating yields raw frames; the source decides when this connection
    dies.  A superseded or dropped connection raises
    :class:`StreamDisconnectError` forever.
    """

    __slots__ = ("_source", "queue", "dead", "delivered_new", "drop_after_frame")

    def __init__(self, source: "FaultySource"):
        self._source = source
        self.queue: deque[tuple[str, int, str]] = deque()
        self.dead = False
        self.delivered_new = 0
        self.drop_after_frame = False

    def __iter__(self) -> Iterator[str]:
        return self

    def __next__(self) -> str:
        return self._source._next_frame(self)


class FaultySource:
    """A connection-oriented, fault-injecting wrapper over a tweet source.

    Args:
        source: the underlying tweet iterable (e.g. a synthetic firehose).
        plan: fault rates and shapes; all randomness derives from
            ``plan.seed``.

    The wrapper serializes tweets to JSON payload frames, so malformed
    and truncated payloads are representable.  Clients drive it like the
    real Streaming API::

        conn = faulty.connect()        # may raise RateLimitError / HTTPStreamError
        for frame in conn:             # may raise StreamDisconnectError
            ...                        # frame: JSON payload or KEEPALIVE

    ``StopIteration`` from a connection means the source is exhausted
    (the simulated collection window ended), never a failure.
    """

    def __init__(self, source: Iterable[Tweet], plan: FaultPlan | None = None):
        self._source = iter(source)
        self.plan = plan or FaultPlan.none()
        self._rng = random.Random(self.plan.seed)
        self._history: deque[tuple[int, str]] = deque(
            maxlen=max(1, self.plan.backfill_depth)
        )
        self._pending: deque[tuple[int, str]] = deque()
        self._connection: _Connection | None = None
        self._ever_connected = False
        self._drained = False
        self._connect_failures = 0
        self.injected = InjectionLog()

    @property
    def exhausted(self) -> bool:
        """True once every underlying tweet has been handed out."""
        return self._drained and not self._pending

    def connect(self) -> _Connection:
        """Open a new connection, superseding any previous one.

        Raises:
            RateLimitError: simulated HTTP 420 rejection.
            HTTPStreamError: simulated HTTP 503 rejection.
        """
        if self._connection is not None:
            self._recover_undelivered(self._connection)
            self._connection.dead = True
            self._connection = None
        self._maybe_reject_connect()
        conn = _Connection(self)
        if self._ever_connected:
            self._plan_backfill(conn)
        self._connection = conn
        self._ever_connected = True
        self.injected.connections += 1
        return conn

    # -- connection internals -------------------------------------------

    def _maybe_reject_connect(self) -> None:
        if self._connect_failures >= self.plan.max_connect_failures:
            self._connect_failures = 0
            return
        roll = self._rng.random()
        if self.plan.rate_limit_rate and roll < self.plan.rate_limit_rate:
            self._connect_failures += 1
            self.injected.rate_limited += 1
            raise RateLimitError()
        roll = self._rng.random()
        if self.plan.http_error_rate and roll < self.plan.http_error_rate:
            self._connect_failures += 1
            self.injected.http_errors += 1
            raise HTTPStreamError(503)
        self._connect_failures = 0

    def _plan_backfill(self, conn: _Connection) -> None:
        """Queue the reconnect window: backfill duplicates plus up to
        ``reorder_span`` new records, shuffled together."""
        window: list[tuple[str, int, str]] = [
            ("dup", tweet_id, payload) for tweet_id, payload in self._history
        ]
        for _ in range(self.plan.reorder_span):
            item = self._pull()
            if item is None:
                break
            window.append(("new", item[0], item[1]))
        if len(window) > 1:
            self._rng.shuffle(window)
            self.injected.shuffled_windows += 1
        conn.queue.extend(window)

    def _recover_undelivered(self, conn: _Connection) -> None:
        """Return pulled-but-undelivered new records to the pending queue
        (in id order) so an abandoned connection never loses records."""
        leftovers = sorted(
            (tweet_id, payload)
            for kind, tweet_id, payload in conn.queue
            if kind == "new"
        )
        conn.queue.clear()
        self._pending.extendleft(reversed(leftovers))

    def _pull(self) -> tuple[int, str] | None:
        if self._pending:
            return self._pending.popleft()
        if self._drained:
            return None
        try:
            tweet = next(self._source)
        except StopIteration:
            self._drained = True
            return None
        return tweet.tweet_id, tweet.to_json()

    def _next_frame(self, conn: _Connection) -> str:
        if conn.dead or conn is not self._connection:
            raise StreamDisconnectError("connection is no longer live")
        if conn.drop_after_frame:
            conn.dead = True
            self.injected.disconnects += 1
            raise StreamDisconnectError("connection reset by peer (torn frame)")
        if conn.queue:
            return self._deliver(conn, conn.queue.popleft())
        plan, rng = self.plan, self._rng
        # Fault draws happen only between new records (the reconnect
        # window above is delivered atomically), so every fault requires
        # progress since the previous one and a chaos run terminates.
        if plan.keepalive_rate and rng.random() < plan.keepalive_rate:
            self.injected.keepalives += 1
            return KEEPALIVE
        if plan.stall_rate and rng.random() < plan.stall_rate:
            self.injected.stalls += 1
            self.injected.keepalives += plan.stall_ticks
            conn.queue.extend(
                ("keepalive", -1, KEEPALIVE)
                for _ in range(plan.stall_ticks - 1)
            )
            return KEEPALIVE
        if plan.garbage_rate and rng.random() < plan.garbage_rate:
            self.injected.garbage_frames += 1
            return self._garbage_frame()
        if (
            conn.delivered_new > 0
            and plan.disconnect_rate
            and rng.random() < plan.disconnect_rate
        ):
            conn.dead = True
            self.injected.disconnects += 1
            raise StreamDisconnectError("connection reset by peer")
        item = self._pull()
        if item is None:
            raise StopIteration
        tweet_id, payload = item
        self._history.append((tweet_id, payload))
        conn.delivered_new += 1
        if plan.truncate_rate and rng.random() < plan.truncate_rate:
            self.injected.truncated_frames += 1
            conn.drop_after_frame = True
            cut = rng.randrange(1, max(2, len(payload) - 1))
            return payload[:cut]
        return payload

    def _deliver(self, conn: _Connection, frame: tuple[str, int, str]) -> str:
        kind, tweet_id, payload = frame
        if kind == "dup":
            self.injected.duplicates += 1
        elif kind == "new":
            self._history.append((tweet_id, payload))
            conn.delivered_new += 1
        return payload

    def _garbage_frame(self) -> str:
        variant = self._rng.randrange(3)
        if variant == 0:
            return '{"tweet_id": 99, "user"'  # torn-looking JSON
        if variant == 1:
            return "{this is not json}"
        return '{"event": "limit", "track": 12}'  # valid JSON, not a tweet
