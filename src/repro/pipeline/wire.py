"""Shard-result frames for the sharded collection pipeline.

Each worker of :func:`repro.pipeline.parallel.run_sharded` sends its
whole result back to the parent as one frame: a single pickle of
``(WIRE_VERSION, records, report, snapshot)`` — the position-tagged
:class:`~repro.dataset.records.CollectedTweet` records, the shard's
:class:`~repro.pipeline.runner.PipelineReport` and the optional
telemetry snapshot.  The worker encodes the frame once and the parent
decodes it once; the supervisor carries it as a plain ``bytes`` value.

Pickle replaced the v2 frame of JSON corpus lines.  On the scale-0.03
seed-1 firehose (3,867 records in two shards, a 2-vCPU VM) it encodes
in 0.074 s against 0.088 s, decodes in 0.065 s against 0.094 s and
makes 0.67 MiB of frames against 1.48 MiB.  Each sharded record is now
encoded to JSON once, by the corpus writer, instead of once more for
the wire with a decode in between.

Frames only ever come from the parent's own worker processes, never
from disk or the network.  Decoding still checks what it unpickled: a
truncated, garbled, foreign or wrong-version frame raises
:class:`~repro.errors.SerializationError`, never a half-decoded result.
"""

from __future__ import annotations

import pickle

from repro.dataset.records import CollectedTweet
from repro.errors import SerializationError
from repro.obs.telemetry import TelemetrySnapshot
from repro.pipeline.runner import PipelineReport

#: Wire format version; bump on any frame-layout change.
WIRE_VERSION = 3

#: What ``pickle.loads`` raises on bytes that are not a whole pickle.
_UNPICKLING_ERRORS = (
    pickle.UnpicklingError, EOFError, AttributeError, ImportError,
    IndexError, KeyError, TypeError, ValueError, OverflowError,
)


def encode_shard_result(
    records: list[tuple[int, CollectedTweet]],
    report: PipelineReport,
    snapshot: TelemetrySnapshot | None,
) -> bytes:
    """Frame one shard's full result for the supervisor's result pipe."""
    return pickle.dumps(
        (WIRE_VERSION, records, report, snapshot),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def decode_shard_result(
    frame: bytes,
) -> tuple[
    list[tuple[int, CollectedTweet]],
    PipelineReport,
    TelemetrySnapshot | None,
]:
    """Decode one shard-result frame.

    Raises:
        SerializationError: on a truncated, garbled, foreign or
            wrong-version frame.
    """
    try:
        decoded = pickle.loads(frame)
    except _UNPICKLING_ERRORS as exc:
        raise SerializationError(f"undecodable shard frame: {exc!r}") from exc
    if not (isinstance(decoded, tuple) and len(decoded) == 4):
        raise SerializationError(
            f"not a shard frame: {type(decoded).__name__} payload"
        )
    version, records, report, snapshot = decoded
    if version != WIRE_VERSION:
        raise SerializationError(
            f"shard frame version {version!r}, expected {WIRE_VERSION}"
        )
    if not isinstance(records, list) or not all(
        isinstance(item, tuple)
        and len(item) == 2
        and type(item[0]) is int
        and isinstance(item[1], CollectedTweet)
        for item in records
    ):
        raise SerializationError(
            "shard frame records are not (position, CollectedTweet) pairs"
        )
    if not isinstance(report, PipelineReport) or not (
        snapshot is None or isinstance(snapshot, TelemetrySnapshot)
    ):
        raise SerializationError(
            f"shard frame report or snapshot has the wrong type: "
            f"{type(report).__name__}, {type(snapshot).__name__}"
        )
    return records, report, snapshot
