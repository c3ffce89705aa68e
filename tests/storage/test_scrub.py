"""Tests for the scrub/quarantine/repair engine."""

import json

import pytest

from repro.faults.storage import flip_bits
from repro.storage.manifest import (
    build_manifest,
    manifest_path,
    verify_file,
    write_manifest,
    write_text_with_manifest,
)
from repro.storage.scrub import (
    ScrubReport,
    quarantine_path,
    scrub_file,
    scrub_paths,
)


def jsonl(n: int, start: int = 0) -> str:
    return "".join(
        json.dumps({"record": i, "text": f"payload {i:04d}"}) + "\n"
        for i in range(start, start + n)
    )


@pytest.fixture()
def manifested(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_text_with_manifest(path, jsonl(8))
    return path


class TestCleanAndMissing:
    def test_clean_file(self, manifested):
        result = scrub_file(manifested)
        assert result.status == "clean"
        assert result.healthy

    def test_missing_manifest(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text("data\n")
        result = scrub_file(path)
        assert result.status == "missing-manifest"
        assert not result.healthy

    def test_corrupt_manifest(self, manifested):
        manifest_path(manifested).write_text("{broken")
        result = scrub_file(manifested)
        assert result.status == "corrupt-manifest"
        assert not result.healthy

    def test_missing_file_without_replica(self, manifested):
        manifested.unlink()
        result = scrub_file(manifested)
        assert result.status == "missing-file"
        assert not result.healthy


class TestQuarantine:
    def test_bitrot_is_quarantined_not_dropped(self, manifested):
        original_lines = manifested.read_bytes().split(b"\n")[:-1]
        lines = list(original_lines)
        lines[2] = b'{"record": 2, "text": "payloXd 0002"}'
        lines[5] = b'{"record": 5, "text": "pa\xffload 0005"}'
        manifested.write_bytes(b"\n".join(lines) + b"\n")

        result = scrub_file(manifested)
        assert result.status == "quarantined"
        assert result.records_quarantined == 2
        assert result.corrupt_lines == (3, 6)

        # Survivors: everything except the two rotten records.
        survivors = manifested.read_bytes().split(b"\n")[:-1]
        assert survivors == [
            line for i, line in enumerate(original_lines) if i not in (2, 5)
        ]
        # Nothing silently dropped: every removed line is dead-lettered.
        dead = quarantine_path(manifested)
        entries = [
            json.loads(line)
            for line in dead.read_text(encoding="utf-8").splitlines()
        ]
        assert [e["line"] for e in entries] == [3, 6]
        assert all(e["reason"].startswith("record CRC") for e in entries)
        assert entries[0]["payload"] == lines[2].decode()
        # The rewritten file and the dead-letter both verify clean now.
        assert verify_file(manifested).ok
        assert verify_file(dead).ok
        assert scrub_file(manifested).status == "clean"

    def test_no_quarantine_reports_without_modifying(self, manifested):
        damaged = bytearray(manifested.read_bytes())
        damaged[5] ^= 0x04
        manifested.write_bytes(bytes(damaged))
        before = manifested.read_bytes()
        result = scrub_file(manifested, quarantine=False)
        assert result.status == "corrupt"
        assert result.corrupt_lines == (1,)
        assert manifested.read_bytes() == before
        assert not quarantine_path(manifested).exists()

    def test_quarantine_appends_across_scrubs(self, manifested):
        for target_line in (0, 1):
            lines = manifested.read_bytes().split(b"\n")
            lines[target_line] = (
                b'{"rotten": ' + str(target_line).encode() + b"}"
            )
            manifested.write_bytes(b"\n".join(lines))
            scrub_file(manifested)
        dead = quarantine_path(manifested)
        entries = dead.read_text().splitlines()
        assert len(entries) == 2

    def test_corrupt_without_crcs_cannot_isolate(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"content")
        write_manifest(path, build_manifest(path, records=False))
        path.write_bytes(b"rotten!")
        result = scrub_file(path)
        assert result.status == "corrupt"
        assert "no per-record CRCs" in result.detail


class TestRepair:
    def test_repair_from_replica(self, manifested, tmp_path):
        replica_dir = tmp_path / "replicas"
        replica_dir.mkdir()
        (replica_dir / manifested.name).write_bytes(manifested.read_bytes())
        damaged = bytearray(manifested.read_bytes())
        damaged[3] ^= 0x10
        manifested.write_bytes(bytes(damaged))

        result = scrub_file(manifested, repair_from=replica_dir)
        assert result.status == "repaired"
        assert scrub_file(manifested).status == "clean"

    def test_repair_restores_missing_file(self, manifested, tmp_path):
        replica_dir = tmp_path / "replicas"
        replica_dir.mkdir()
        (replica_dir / manifested.name).write_bytes(manifested.read_bytes())
        manifested.unlink()
        result = scrub_file(manifested, repair_from=replica_dir)
        assert result.status == "repaired"
        assert verify_file(manifested).ok

    def test_wrong_replica_is_not_used(self, manifested, tmp_path):
        replica_dir = tmp_path / "replicas"
        replica_dir.mkdir()
        (replica_dir / manifested.name).write_text(jsonl(3, start=90))
        damaged = bytearray(manifested.read_bytes())
        damaged[3] ^= 0x10
        manifested.write_bytes(bytes(damaged))
        result = scrub_file(manifested, repair_from=replica_dir)
        # Falls through to per-record quarantine instead.
        assert result.status == "quarantined"


class TestStaleAndTruncated:
    def test_append_after_sidecar_is_stale_manifest(self, manifested):
        with open(manifested, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"record": 99}) + "\n")
        result = scrub_file(manifested)
        assert result.status == "stale-manifest"
        assert result.healthy
        # The sidecar was rebuilt to cover the tail.
        assert scrub_file(manifested).status == "clean"

    def test_stale_manifest_untouched_without_quarantine(self, manifested):
        with open(manifested, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"record": 99}) + "\n")
        side_before = manifest_path(manifested).read_bytes()
        result = scrub_file(manifested, quarantine=False)
        assert result.status == "stale-manifest"
        assert manifest_path(manifested).read_bytes() == side_before

    def test_lost_tail_is_truncated(self, manifested):
        lines = manifested.read_bytes().split(b"\n")
        manifested.write_bytes(b"\n".join(lines[:4]) + b"\n")
        result = scrub_file(manifested)
        assert result.status == "truncated"
        assert not result.healthy


class TestScrubPaths:
    def test_directory_discovers_manifested_files(self, tmp_path):
        for name in ("a.jsonl", "b.jsonl"):
            write_text_with_manifest(tmp_path / name, jsonl(2))
        (tmp_path / "ignored.txt").write_text("no sidecar")
        report = scrub_paths([tmp_path])
        assert report.files_scanned == 2
        assert report.all_clean

    def test_report_aggregates_and_renders(self, tmp_path):
        clean = tmp_path / "clean.jsonl"
        rotten = tmp_path / "rotten.jsonl"
        write_text_with_manifest(clean, jsonl(2))
        write_text_with_manifest(rotten, jsonl(4))
        flipped = flip_bits(str(rotten), seed=5, flips=2)
        assert flipped
        report = scrub_paths([tmp_path])
        assert report.files_scanned >= 2
        assert report.records_quarantined >= 1
        assert dict(report.as_rows())["records quarantined"] == str(
            report.records_quarantined
        )

    def test_sidecar_path_is_resolved_to_data(self, manifested):
        report = scrub_paths([manifest_path(manifested)])
        assert report.files_scanned == 1
        assert report.results[0].path == str(manifested)

    def test_empty_report_is_clean(self):
        assert ScrubReport().all_clean
