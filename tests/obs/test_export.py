"""Tests for trace export, reading, validation, and summaries."""

import json

import pytest

from repro.obs.clock import ManualClock
from repro.obs.export import (
    TRACE_SCHEMA,
    read_trace,
    summarize_trace,
    trace_records,
    validate_trace,
    write_trace,
)
from repro.obs.telemetry import Telemetry


@pytest.fixture()
def telemetry() -> Telemetry:
    clock = ManualClock()
    bundle = Telemetry(clock=clock)
    with bundle.span("stage.collect", workers=2):
        clock.advance(1.5)
        with bundle.span("shard", index=0):
            clock.advance(0.5)
    bundle.event("supervisor.retry", task="shard-0", attempt=1)
    bundle.inc("pipeline.collected", 100)
    bundle.inc("pipeline.dropped", 14, stage="non_us")
    bundle.inc("supervisor.retries", 1)
    bundle.gauge("pool.workers", 2)
    bundle.observe("shard.wall_seconds", 0.5)
    return bundle


class TestTraceRecords:
    def test_meta_first_with_schema_and_attrs(self, telemetry):
        records = trace_records(telemetry, fingerprint="abc123")
        assert records[0]["kind"] == "meta"
        assert records[0]["schema"] == TRACE_SCHEMA
        assert records[0]["worker"] == "main"
        assert records[0]["fingerprint"] == "abc123"

    def test_order_spans_events_metrics(self, telemetry):
        kinds = [record["kind"] for record in trace_records(telemetry)]
        assert kinds == [
            "meta", "span", "span", "event",
            "counter", "counter", "counter", "gauge", "histogram",
        ]

    def test_records_are_json_serializable(self, telemetry):
        for record in trace_records(telemetry):
            json.loads(json.dumps(record))


class TestWriteRead:
    def test_round_trip(self, telemetry, tmp_path):
        path = tmp_path / "trace.jsonl"
        written = write_trace(telemetry, path, fingerprint="abc")
        records = read_trace(path)
        assert len(records) == written
        assert validate_trace(records) == []

    def test_repeated_flush_replaces_whole_file(self, telemetry, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(telemetry, path)
        first = path.read_bytes()
        telemetry.inc("journal.stages_run")
        write_trace(telemetry, path)
        second = path.read_bytes()
        assert second != first
        assert validate_trace(read_trace(path)) == []

    def test_equal_telemetry_writes_identical_bytes(self, tmp_path):
        def build() -> Telemetry:
            clock = ManualClock()
            bundle = Telemetry(clock=clock)
            with bundle.span("stage.collect"):
                clock.advance(1.0)
            bundle.inc("pipeline.collected", 5)
            return bundle

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(build(), a, fingerprint="x")
        write_trace(build(), b, fingerprint="x")
        assert a.read_bytes() == b.read_bytes()

    def test_torn_tail_tolerated(self, telemetry, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(telemetry, path)
        whole = read_trace(path)
        # Simulate the writer dying mid-line on its final record.
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.warns(UserWarning, match="torn trailing record"):
            torn = read_trace(path)
        assert torn == whole[:-1]

    def test_torn_tail_strict_mode_raises(self, telemetry, tmp_path):
        from repro.errors import SerializationError

        path = tmp_path / "trace.jsonl"
        write_trace(telemetry, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(SerializationError):
            read_trace(path, tolerate_torn_tail=False)


class TestValidate:
    def test_empty_invalid(self):
        assert validate_trace([]) == ["trace is empty (no meta header)"]

    def test_missing_meta_header(self, telemetry):
        records = trace_records(telemetry)[1:]
        problems = validate_trace(records)
        assert any("must be meta" in problem for problem in problems)

    def test_wrong_schema(self, telemetry):
        records = trace_records(telemetry)
        records[0] = dict(records[0], schema=99)
        problems = validate_trace(records)
        assert any("schema" in problem for problem in problems)

    def test_unknown_kind(self, telemetry):
        records = trace_records(telemetry) + [{"kind": "mystery"}]
        assert any("unknown kind" in p for p in validate_trace(records))

    def test_missing_keys(self, telemetry):
        records = trace_records(telemetry) + [{"kind": "span", "name": "x"}]
        assert any("missing" in p for p in validate_trace(records))

    def test_span_end_before_start(self, telemetry):
        bad = {
            "kind": "span", "name": "x", "worker": "main", "span_id": 9,
            "start": 5.0, "end": 1.0, "attrs": {},
        }
        records = trace_records(telemetry) + [bad]
        assert any("precedes start" in p for p in validate_trace(records))

    def test_negative_counter(self, telemetry):
        bad = {"kind": "counter", "name": "x", "labels": {}, "value": -1}
        records = trace_records(telemetry) + [bad]
        assert any("negative" in p for p in validate_trace(records))

    def test_histogram_bucket_sum_mismatch(self, telemetry):
        bad = {
            "kind": "histogram", "name": "x", "labels": {},
            "count": 3, "sum": 1.0, "buckets": [[1.0, 1]],
        }
        records = trace_records(telemetry) + [bad]
        assert any("bucket counts sum" in p for p in validate_trace(records))

    def test_duplicate_meta_rejected(self, telemetry):
        records = trace_records(telemetry)
        records.append(dict(records[0]))
        assert any("meta must be first" in p for p in validate_trace(records))


class TestSummarize:
    def test_stages_funnel_shards_and_faults(self, telemetry):
        summary = summarize_trace(trace_records(telemetry))
        assert summary.stages == [("stage.collect", "main", 2.0)]
        assert summary.funnel == {
            "pipeline.collected": 100.0,
            "pipeline.dropped{stage=non_us}": 14.0,
        }
        assert summary.slowest_shards == [("main", 0.5)]
        assert summary.fault_counters == {"supervisor.retries": 1.0}
        assert summary.span_count == 2
        assert summary.event_count == 1

    def test_child_spans_listed_under_their_stage(self, telemetry):
        summary = summarize_trace(trace_records(telemetry))
        assert summary.stage_children == {0: [("shard", 0.5)]}
        labels = [label for label, __ in summary.as_rows()]
        assert labels[:2] == ["stage.collect [main]", "  shard"]
        assert summary.to_dict()["stages"] == [
            {
                "name": "stage.collect",
                "worker": "main",
                "duration": 2.0,
                "children": [{"name": "shard", "duration": 0.5}],
            }
        ]

    def test_children_match_their_stage_by_worker(self):
        records = [{"kind": "meta", "schema": TRACE_SCHEMA, "worker": "main"}]
        for worker, span_id, parent_id, name in (
            ("shard-0", 0, 1, "match"),
            ("main", 0, 1, "synth.world"),
            ("main", 1, None, "stage.firehose"),
        ):
            records.append({
                "kind": "span", "name": name, "worker": worker,
                "span_id": span_id, "parent_id": parent_id,
                "start": 0.0, "end": 1.0, "attrs": {},
            })
        summary = summarize_trace(records)
        assert summary.stage_children == {0: [("synth.world", 1.0)]}

    def test_shards_sorted_slowest_first(self):
        records = [
            {"kind": "meta", "schema": TRACE_SCHEMA, "worker": "main"},
        ]
        for index, duration in enumerate((0.2, 0.9, 0.5)):
            records.append({
                "kind": "span", "name": "shard", "worker": f"shard-{index}",
                "span_id": index, "parent_id": None,
                "start": 0.0, "end": duration, "attrs": {},
            })
        summary = summarize_trace(records)
        assert [w for w, __ in summary.slowest_shards] == [
            "shard-1", "shard-2", "shard-0",
        ]

    def test_as_rows_and_to_dict_agree(self, telemetry):
        summary = summarize_trace(trace_records(telemetry))
        rows = dict(summary.as_rows())
        assert rows["spans"] == "2"
        assert rows["pipeline.collected"] == "100"
        exported = summary.to_dict()
        assert exported["span_count"] == 2
        assert exported["funnel"]["pipeline.collected"] == 100.0
