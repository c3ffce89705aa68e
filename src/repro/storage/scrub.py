"""Scrub, quarantine, and repair of manifested files.

The write path leaves every durable file with an integrity sidecar
(:mod:`repro.storage.manifest`); this module is the read-side
counterpart — a scrubber that re-verifies those promises long after the
writes "succeeded", because bitrot does not announce itself.

Policy, per file (in order):

1. Whole-file SHA-256 matches the sidecar → **clean**.
2. Mismatch, but a replica under ``repair_from`` hashes to the
   manifest's digest → the replica is copied over atomically →
   **repaired** (journaled stage artifacts are exactly such replicas).
3. Mismatch with per-record CRCs available → records whose CRC fails
   are moved to a ``<file>.quarantine.jsonl`` dead-letter (line number,
   expected/actual CRC, raw payload), the file is rewritten with the
   surviving records, and the manifest is rebuilt → **quarantined**.
   Nothing is ever silently dropped: every removed byte is in the
   dead-letter.
4. All covered records intact but the file has extra trailing records →
   **stale-manifest** (a crash between an append and its sidecar
   refresh); the sidecar is rebuilt to cover the new tail.
5. All covered records intact but some are missing → **truncated**
   (data loss with no local copy to repair from).

:class:`ScrubReport` renders as ``(label, value)`` rows, so scrub
results print exactly like transport/compute health under
``repro scrub``.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import StorageError
from repro.obs.telemetry import current as telemetry_current
from repro.storage.atomic import atomic_write_bytes
from repro.storage.fs import LOCAL_FS, FileSystem
from repro.storage.manifest import (
    MANIFEST_SUFFIX,
    Manifest,
    build_manifest,
    data_path_for,
    is_manifest,
    load_manifest,
    write_manifest,
)

#: Dead-letter file beside the scrubbed data file.
QUARANTINE_SUFFIX = ".quarantine.jsonl"

#: Statuses that leave the file usable and verified.
_HEALTHY = frozenset({"clean", "repaired", "quarantined", "stale-manifest"})


def quarantine_path(path: str | Path) -> Path:
    data = Path(path)
    return data.with_name(data.name + QUARANTINE_SUFFIX)


@dataclass(frozen=True, slots=True)
class QuarantinedRecord:
    """One record isolated from a corrupt file — never silently dropped.

    Attributes:
        source: the file the record came from.
        line: its 1-based line number there.
        reason: why it was quarantined.
        expected_crc: CRC the manifest promised (None if uncovered).
        actual_crc: CRC found on disk.
        payload: the raw line, backslash-escaped where not valid UTF-8.
    """

    source: str
    line: int
    reason: str
    expected_crc: int | None
    actual_crc: int
    payload: str

    def to_dict(self) -> dict[str, object]:
        return {
            "source": self.source,
            "line": self.line,
            "reason": self.reason,
            "expected_crc": self.expected_crc,
            "actual_crc": self.actual_crc,
            "payload": self.payload,
        }


@dataclass(frozen=True, slots=True)
class FileScrubResult:
    """What the scrubber found (and did) for one file.

    Attributes:
        path: the data file.
        status: ``clean`` | ``repaired`` | ``quarantined`` |
            ``stale-manifest`` | ``truncated`` | ``corrupt`` |
            ``missing-file`` | ``missing-manifest`` | ``corrupt-manifest``.
        records_quarantined: records moved to the dead-letter.
        corrupt_lines: their 1-based line numbers.
        detail: one human-readable sentence.
    """

    path: str
    status: str
    records_quarantined: int = 0
    corrupt_lines: tuple[int, ...] = ()
    detail: str = ""

    @property
    def healthy(self) -> bool:
        return self.status in _HEALTHY


@dataclass(slots=True)
class ScrubReport:
    """Aggregate scrub outcome, rendered as ``(label, value)`` rows."""

    results: list[FileScrubResult] = field(default_factory=list)

    @property
    def files_scanned(self) -> int:
        return len(self.results)

    @property
    def files_clean(self) -> int:
        return sum(1 for r in self.results if r.status == "clean")

    @property
    def files_repaired(self) -> int:
        return sum(1 for r in self.results if r.status == "repaired")

    @property
    def files_quarantined(self) -> int:
        return sum(1 for r in self.results if r.status == "quarantined")

    @property
    def records_quarantined(self) -> int:
        return sum(r.records_quarantined for r in self.results)

    @property
    def failures(self) -> tuple[FileScrubResult, ...]:
        return tuple(r for r in self.results if not r.healthy)

    @property
    def all_clean(self) -> bool:
        return not self.failures

    def as_rows(self) -> list[tuple[str, str]]:
        return [
            ("files scanned", str(self.files_scanned)),
            ("files clean", str(self.files_clean)),
            ("files repaired", str(self.files_repaired)),
            ("files with quarantined records", str(self.files_quarantined)),
            ("records quarantined", str(self.records_quarantined)),
            ("unrecoverable files", str(len(self.failures))),
        ]

def _read_lines(path: str | Path, fs: FileSystem) -> tuple[list[bytes], bool]:
    """Physical lines (no newline) and whether the file ends in one."""
    with fs.open(path, "rb") as handle:
        data = handle.read()
    if not data:
        return [], True
    ends_with_newline = data.endswith(b"\n")
    lines = data.split(b"\n")
    if ends_with_newline:
        lines.pop()
    return lines, ends_with_newline


def _crc(line: bytes) -> int:
    return zlib.crc32(line) & 0xFFFFFFFF


def _try_repair(
    path: Path, manifest: Manifest, repair_from: Path, fs: FileSystem
) -> bool:
    """Copy a replica over ``path`` iff it hashes to the manifest digest."""
    candidate = repair_from / path.name
    if not fs.exists(candidate):
        return False
    replica = build_manifest(candidate, fs=fs, records=False)
    if replica.sha256 != manifest.sha256:
        return False
    with fs.open(candidate, "rb") as handle:
        atomic_write_bytes(path, handle.read(), fs=fs)
    return True


def _quarantine(
    path: Path,
    records: list[QuarantinedRecord],
    fs: FileSystem,
) -> None:
    """Append records to the file's dead-letter, with its own manifest."""
    target = quarantine_path(path)
    existing = b""
    if fs.exists(target):
        with fs.open(target, "rb") as handle:
            existing = handle.read()
    payload = existing + b"".join(
        json.dumps(record.to_dict(), ensure_ascii=False, sort_keys=True).encode(
            "utf-8"
        )
        + b"\n"
        for record in records
    )
    atomic_write_bytes(target, payload, fs=fs)
    write_manifest(target, build_manifest(target, fs=fs), fs=fs)


def scrub_file(
    path: str | Path,
    *,
    fs: FileSystem | None = None,
    repair_from: str | Path | None = None,
    quarantine: bool = True,
) -> FileScrubResult:
    """Verify one file against its sidecar; repair or quarantine on damage.

    Args:
        path: the data file (not the sidecar).
        fs: filesystem to operate through.
        repair_from: directory holding replicas by file name (e.g. a
            journaled run directory); tried before quarantining.
        quarantine: when False, report damage without modifying anything.
    """
    fs = fs if fs is not None else LOCAL_FS
    data = Path(path)
    try:
        manifest = load_manifest(data, fs=fs)
    except StorageError as exc:
        return FileScrubResult(
            path=str(data), status="corrupt-manifest", detail=str(exc)
        )
    if manifest is None:
        return FileScrubResult(
            path=str(data),
            status="missing-manifest",
            detail="no integrity sidecar; file cannot be verified",
        )
    if not fs.exists(data):
        if repair_from is not None and _try_repair(
            data, manifest, Path(repair_from), fs
        ):
            return FileScrubResult(
                path=str(data),
                status="repaired",
                detail="missing file restored from replica",
            )
        return FileScrubResult(
            path=str(data), status="missing-file", detail="data file is gone"
        )
    actual = build_manifest(
        data, fs=fs, records=manifest.record_crcs is not None
    )
    if actual.sha256 == manifest.sha256:
        return FileScrubResult(path=str(data), status="clean")
    if repair_from is not None and _try_repair(
        data, manifest, Path(repair_from), fs
    ):
        return FileScrubResult(
            path=str(data),
            status="repaired",
            detail="content restored from replica",
        )
    if manifest.record_crcs is None:
        return FileScrubResult(
            path=str(data),
            status="corrupt",
            detail="content hash mismatch and no per-record CRCs to "
            "isolate the damage",
        )
    lines, __ = _read_lines(data, fs)
    expected = manifest.record_crcs
    covered = min(len(lines), len(expected))
    corrupt = tuple(
        index
        for index in range(covered)
        if _crc(lines[index]) != expected[index]
    )
    if not corrupt:
        if len(lines) > len(expected):
            # Appends landed after the sidecar was written (crash in the
            # append-then-refresh window); the covered prefix is intact.
            if quarantine:
                write_manifest(data, build_manifest(data, fs=fs), fs=fs)
            return FileScrubResult(
                path=str(data),
                status="stale-manifest",
                detail=f"{len(lines) - len(expected)} unverified trailing "
                "record(s); sidecar rebuilt"
                if quarantine
                else f"{len(lines) - len(expected)} unverified trailing "
                "record(s)",
            )
        return FileScrubResult(
            path=str(data),
            status="truncated",
            detail=f"{len(expected) - len(lines)} record(s) missing from "
            "the tail and no replica to repair from",
        )
    if not quarantine:
        return FileScrubResult(
            path=str(data),
            status="corrupt",
            records_quarantined=0,
            corrupt_lines=tuple(index + 1 for index in corrupt),
            detail=f"{len(corrupt)} corrupt record(s) detected "
            "(quarantine disabled)",
        )
    corrupt_set = set(corrupt)
    quarantined = [
        QuarantinedRecord(
            source=str(data),
            line=index + 1,
            reason="record CRC mismatch (bitrot)",
            expected_crc=expected[index],
            actual_crc=_crc(lines[index]),
            payload=lines[index].decode("utf-8", "backslashreplace"),
        )
        for index in corrupt
    ]
    _quarantine(data, quarantined, fs)
    survivors = [
        line for index, line in enumerate(lines) if index not in corrupt_set
    ]
    content = b"".join(line + b"\n" for line in survivors)
    atomic_write_bytes(data, content, fs=fs)
    write_manifest(data, build_manifest(data, fs=fs), fs=fs)
    return FileScrubResult(
        path=str(data),
        status="quarantined",
        records_quarantined=len(quarantined),
        corrupt_lines=tuple(index + 1 for index in corrupt),
        detail=f"{len(quarantined)} record(s) moved to "
        f"{quarantine_path(data).name}",
    )


def discover_manifested(paths: list[Path], fs: FileSystem) -> list[Path]:
    """Data files with sidecars under the given files/directories."""
    found: list[Path] = []
    for path in paths:
        if path.is_dir():
            sidecars = sorted(path.rglob(f"*{MANIFEST_SUFFIX}"))
            found.extend(data_path_for(side) for side in sidecars)
        elif is_manifest(path):
            found.append(data_path_for(path))
        else:
            found.append(path)
    return sorted(set(found), key=str)


def scrub_paths(
    paths: list[str | Path],
    *,
    fs: FileSystem | None = None,
    repair_from: str | Path | None = None,
    quarantine: bool = True,
) -> ScrubReport:
    """Scrub every manifested file under ``paths``; see :func:`scrub_file`."""
    fs = fs if fs is not None else LOCAL_FS
    targets = discover_manifested([Path(p) for p in paths], fs)
    report = ScrubReport()
    telemetry = telemetry_current()
    for target in targets:
        result = scrub_file(
            target, fs=fs, repair_from=repair_from, quarantine=quarantine
        )
        report.results.append(result)
        telemetry.inc("scrub.files", status=result.status)
        if result.records_quarantined:
            telemetry.inc(
                "scrub.records_quarantined", result.records_quarantined
            )
    return report
