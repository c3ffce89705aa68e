"""Slim IPC wire format for sharded pipeline results.

The supervised pool originally shipped each shard's results back to the
parent as one pickled Python object graph: a list of
:class:`~repro.dataset.records.CollectedTweet` records, each holding a
:class:`~repro.twitter.models.Tweet`, a user, and a mention dict — tens
of objects per record for the pickler to walk, memoize, and rebuild.
This module replaces that with a framed byte format the worker encodes
once and the parent decodes once:

* the bulk payload — the surviving records — travels as **corpus
  lines**, byte for byte what :meth:`CollectedTweet.to_json` writes
  into ``corpus.jsonl``, so the wire format is versionable and
  independent of pickle's per-interpreter details;
* the records' positions in the original stream and the shard's
  :class:`~repro.pipeline.runner.PipelineReport` (a flat counter dict)
  ride in the frame header;
* the optional telemetry snapshot — small, deeply structured, and
  parent-internal — stays pickled in a length-prefixed binary tail.

Frame layout (``encode_shard_result``)::

    {"v": 2, "positions": [p, ...], "report": {...}, "snapshot": M}\\n
    {collected tweet}\\n                      × len(positions)
    <M bytes of pickled TelemetrySnapshot>    (M == 0 when untraced)

Input direction: under the ``fork`` start method workers inherit the
parent's shard lists for free (copy-on-write), so the dispatch payload
shrinks to a bare shard *index* (see
:func:`repro.pipeline.parallel.run_sharded`) and nothing tweet-shaped is
ever pickled in either direction.

Decoding rebuilds records through :meth:`CollectedTweet.from_dict`, the
same validated path the durable corpus reader uses, so a corrupt frame
surfaces as a :class:`~repro.errors.SerializationError`, never as a
silently wrong record.
"""

from __future__ import annotations

import json
import pickle
from typing import TYPE_CHECKING

from repro.dataset.records import CollectedTweet
from repro.errors import SerializationError
from repro.pipeline.runner import PipelineReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import TelemetrySnapshot

#: Wire format version; bump on any frame-layout change.
WIRE_VERSION = 2

_SEPARATORS = (",", ":")


def encode_shard_result(
    records: list[tuple[int, CollectedTweet]],
    report: PipelineReport,
    snapshot: "TelemetrySnapshot | None",
) -> bytes:
    """Frame one shard's full result for the supervisor's result pipe."""
    snapshot_blob = (
        pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
        if snapshot is not None
        else b""
    )
    header = json.dumps(
        {
            "v": WIRE_VERSION,
            "positions": [position for position, __ in records],
            "report": report.to_dict(),
            "snapshot": len(snapshot_blob),
        },
        separators=_SEPARATORS,
    )
    lines = "".join(f"{record.to_json()}\n" for __, record in records)
    return f"{header}\n{lines}".encode("utf-8") + snapshot_blob


def decode_shard_result(
    data: bytes,
) -> tuple[
    list[tuple[int, CollectedTweet]],
    PipelineReport,
    "TelemetrySnapshot | None",
]:
    """Decode one shard-result frame.

    Raises:
        SerializationError: on a truncated, corrupt, or wrong-version
            frame.
    """
    try:
        end = data.index(b"\n")
    except ValueError as exc:
        raise SerializationError("shard frame has no header line") from exc
    try:
        header = json.loads(data[:end])
    except json.JSONDecodeError as exc:
        raise SerializationError(f"malformed shard header: {exc}") from exc
    if header.get("v") != WIRE_VERSION:
        raise SerializationError(
            f"shard frame version {header.get('v')!r}, expected {WIRE_VERSION}"
        )
    positions = [int(position) for position in header["positions"]]
    snapshot_size = int(header["snapshot"])
    tail_start = len(data) - snapshot_size
    if tail_start <= end:
        raise SerializationError(
            f"shard frame tail is {len(data) - end - 1} bytes, header "
            f"promised {snapshot_size}"
        )
    lines = data[end + 1 : tail_start].split(b"\n")
    if lines.pop() or len(lines) != len(positions):
        raise SerializationError(
            f"shard frame truncated mid-records: {len(positions)} promised"
        )
    try:
        records = [
            (position, CollectedTweet.from_dict(json.loads(line)))
            for position, line in zip(positions, lines)
        ]
    except ValueError as exc:
        raise SerializationError(f"malformed record line: {exc}") from exc
    report = PipelineReport.from_dict(header["report"])
    snapshot = pickle.loads(data[tail_start:]) if snapshot_size else None
    return records, report, snapshot
