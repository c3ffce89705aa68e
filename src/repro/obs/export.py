"""Trace/metrics JSONL export, reading, validation, and summaries.

The on-disk form is one JSON object per line, in a fixed order that
makes two equal-telemetry runs byte-comparable:

1. one ``meta`` header (``schema``, worker name, caller attributes),
2. spans then events, in buffer order (deterministic: workers are
   absorbed in shard order),
3. metric series from
   :meth:`repro.obs.metrics.MetricsRegistry.to_records` (sorted).

Writes go through :class:`repro.storage.atomic.AtomicWriter` — the one
sanctioned write primitive — so a crash mid-export can never tear an
existing trace file.  Unlike the record files of
:mod:`repro.storage.jsonl`, a trace gets no integrity sidecar, so a
traced run directory differs from an untraced one by ``trace.jsonl``
alone.  Reads go through the one JSONL reader and its bounded torn-tail
probe (:func:`repro.storage.jsonl.read_objects_jsonl`): a trace whose
process died mid-flush still parses up to its last complete line.

This module imports :mod:`repro.storage`, and :mod:`repro.storage`
imports :mod:`repro.obs.telemetry` — which is why ``repro.obs``'s
``__init__`` must never import this module.  Consumers import
``repro.obs.export`` directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.telemetry import Telemetry
from repro.storage.atomic import AtomicWriter
from repro.storage.fs import FileSystem
from repro.storage.jsonl import read_objects_jsonl

#: Version stamped into (and required of) every trace file's meta line.
TRACE_SCHEMA = 1

#: Conventional trace file name inside a run directory.
TRACE_FILENAME = "trace.jsonl"

#: Record kinds a valid trace may contain, and the keys each requires.
_REQUIRED_KEYS: dict[str, tuple[str, ...]] = {
    "meta": ("schema",),
    "span": ("name", "worker", "span_id", "start", "end", "attrs"),
    "event": ("name", "worker", "at", "attrs"),
    "counter": ("name", "labels", "value"),
    "gauge": ("name", "labels", "value"),
    "histogram": ("name", "labels", "count", "sum", "buckets"),
}


def trace_records(
    telemetry: Telemetry, **meta_attrs: str | int | float | bool | None
) -> list[dict[str, object]]:
    """The full export payload for one telemetry bundle, header first."""
    meta: dict[str, object] = {
        "kind": "meta",
        "schema": TRACE_SCHEMA,
        "worker": telemetry.worker,
    }
    meta.update(meta_attrs)
    records: list[dict[str, object]] = [meta]
    records.extend(span.to_dict() for span in telemetry.tracer.spans)
    records.extend(event.to_dict() for event in telemetry.tracer.events)
    records.extend(telemetry.metrics.to_records())
    return records


def write_trace(
    telemetry: Telemetry,
    path: str | Path,
    *,
    fs: FileSystem | None = None,
    **meta_attrs: str | int | float | bool | None,
) -> int:
    """Atomically export a telemetry bundle as JSONL; returns the line count.

    Safe to call repeatedly on a growing bundle (the journal flushes
    after every stage): each call atomically replaces the file with the
    complete current state, so the newest durable trace is always whole
    up to the last finished flush.
    """
    records = trace_records(telemetry, **meta_attrs)
    with AtomicWriter(path, fs=fs) as writer:
        for record in records:
            writer.write(json.dumps(record, ensure_ascii=False))
            writer.write("\n")
    return len(records)


def read_trace(
    path: str | Path, tolerate_torn_tail: bool = True
) -> list[dict[str, object]]:
    """Load a trace file's records; tolerant of a torn tail by default.

    Traces are advisory telemetry, not corpus data — a trace whose
    writer was killed mid-line should still yield every complete
    record, hence the inverted ``tolerate_torn_tail`` default relative
    to the corpus readers.
    """
    return [
        record
        for _, record in read_objects_jsonl(
            path, tolerate_torn_tail=tolerate_torn_tail
        )
    ]


def validate_trace(records: list[dict[str, object]]) -> list[str]:
    """Schema-check parsed trace records; returns problems (empty = valid)."""
    problems: list[str] = []
    if not records:
        return ["trace is empty (no meta header)"]
    head = records[0]
    if head.get("kind") != "meta":
        problems.append(f"first record must be meta, got {head.get('kind')!r}")
    elif head.get("schema") != TRACE_SCHEMA:
        problems.append(
            f"unsupported trace schema {head.get('schema')!r} "
            f"(expected {TRACE_SCHEMA})"
        )
    for index, record in enumerate(records):
        kind = record.get("kind")
        if not isinstance(kind, str) or kind not in _REQUIRED_KEYS:
            problems.append(f"record {index}: unknown kind {kind!r}")
            continue
        if kind == "meta" and index > 0:
            problems.append(f"record {index}: meta must be first")
            continue
        missing = [
            key for key in _REQUIRED_KEYS[kind] if key not in record
        ]
        if missing:
            problems.append(
                f"record {index} ({kind}): missing {', '.join(missing)}"
            )
            continue
        if kind == "span":
            start, end = record["start"], record["end"]
            if (
                isinstance(start, (int, float))
                and isinstance(end, (int, float))
                and end < start
            ):
                problems.append(
                    f"record {index} (span {record['name']!r}): "
                    f"end {end} precedes start {start}"
                )
        elif kind == "counter":
            value = record["value"]
            if isinstance(value, (int, float)) and value < 0:
                problems.append(
                    f"record {index} (counter {record['name']!r}): "
                    f"negative value {value}"
                )
        elif kind == "histogram":
            buckets = record["buckets"]
            count = record["count"]
            if isinstance(buckets, list) and isinstance(count, int):
                pooled = sum(
                    pair[1]
                    for pair in buckets
                    if isinstance(pair, list) and len(pair) == 2
                )
                if pooled != count:
                    problems.append(
                        f"record {index} (histogram {record['name']!r}): "
                        f"bucket counts sum to {pooled}, expected {count}"
                    )
    return problems


@dataclass(slots=True)
class TraceSummary:
    """What ``repro trace`` renders: the run at a glance.

    Attributes:
        stages: (span name, worker, duration) for every ``stage.*``
            span, in recorded order.
        stage_children: (span name, duration) of each direct child span
            of a stage span, keyed by the stage's position in
            :attr:`stages`, in recorded order.  A child runs in its
            stage's worker.
        funnel: pipeline funnel counters keyed by counter name (with a
            ``{stage=...}`` suffix for labelled drops), insertion order
            = canonical sorted export order.
        slowest_shards: (worker, duration) for ``shard`` spans, slowest
            first.
        fault_counters: non-pipeline counters — transport, storage,
            supervisor, sensor — in sorted export order.
        span_count / event_count: raw record totals.
    """

    stages: list[tuple[str, str, float]] = field(default_factory=list)
    stage_children: dict[int, list[tuple[str, float]]] = field(
        default_factory=dict
    )
    funnel: dict[str, float] = field(default_factory=dict)
    slowest_shards: list[tuple[str, float]] = field(default_factory=list)
    fault_counters: dict[str, float] = field(default_factory=dict)
    span_count: int = 0
    event_count: int = 0

    def as_rows(self) -> list[tuple[str, str]]:
        """(label, value) pairs for table rendering."""
        rows: list[tuple[str, str]] = []
        for position, (name, worker, duration) in enumerate(self.stages):
            rows.append((f"{name} [{worker}]", f"{duration:.6f}s"))
            for child, child_duration in self.stage_children.get(position, []):
                rows.append((f"  {child}", f"{child_duration:.6f}s"))
        for name, value in self.funnel.items():
            rows.append((name, f"{value:g}"))
        for worker, duration in self.slowest_shards:
            rows.append((f"shard {worker}", f"{duration:.6f}s"))
        for name, value in self.fault_counters.items():
            rows.append((name, f"{value:g}"))
        rows.append(("spans", str(self.span_count)))
        rows.append(("events", str(self.event_count)))
        return rows

    def to_dict(self) -> dict[str, object]:
        return {
            "stages": [
                {
                    "name": name,
                    "worker": worker,
                    "duration": duration,
                    "children": [
                        {"name": child, "duration": child_duration}
                        for child, child_duration in self.stage_children.get(
                            position, []
                        )
                    ],
                }
                for position, (name, worker, duration) in enumerate(self.stages)
            ],
            "funnel": dict(self.funnel),
            "slowest_shards": [
                {"worker": worker, "duration": duration}
                for worker, duration in self.slowest_shards
            ],
            "fault_counters": dict(self.fault_counters),
            "span_count": self.span_count,
            "event_count": self.event_count,
        }


def _counter_label(record: dict[str, object]) -> str:
    name = str(record["name"])
    labels = record.get("labels")
    if isinstance(labels, dict) and labels:
        inner = ",".join(
            f"{key}={labels[key]}" for key in sorted(labels)
        )
        return f"{name}{{{inner}}}"
    return name


def summarize_trace(records: list[dict[str, object]]) -> TraceSummary:
    """Fold parsed trace records into the ``repro trace`` summary."""
    summary = TraceSummary()
    shards: list[tuple[str, float]] = []
    # A span is recorded when it ends, after its children: collect the
    # nested spans and attach them to their stages once all are read.
    nested: list[tuple[str, int, str, float]] = []
    stage_positions: dict[tuple[str, int], int] = {}
    for record in records:
        kind = record.get("kind")
        if kind == "span":
            summary.span_count += 1
            name = str(record.get("name", ""))
            worker = str(record.get("worker", ""))
            start = record.get("start")
            end = record.get("end")
            if not isinstance(start, (int, float)) or not isinstance(
                end, (int, float)
            ):
                continue
            duration = float(end) - float(start)
            span_id, parent_id = record.get("span_id"), record.get("parent_id")
            if isinstance(parent_id, int):
                nested.append((worker, parent_id, name, duration))
            if name.startswith("stage."):
                if isinstance(span_id, int):
                    stage_positions[(worker, span_id)] = len(summary.stages)
                summary.stages.append((name, worker, duration))
            elif name == "shard":
                shards.append((worker, duration))
        elif kind == "event":
            summary.event_count += 1
        elif kind == "counter":
            value = record.get("value")
            if not isinstance(value, (int, float)):
                continue
            label = _counter_label(record)
            if label.startswith("pipeline."):
                summary.funnel[label] = float(value)
            else:
                summary.fault_counters[label] = float(value)
    for worker, parent_id, name, duration in nested:
        position = stage_positions.get((worker, parent_id))
        if position is not None:
            summary.stage_children.setdefault(position, []).append(
                (name, duration)
            )
    shards.sort(key=lambda pair: (-pair[1], pair[0]))
    summary.slowest_shards = shards
    return summary
