"""Durable storage: the layer every persisted byte flows through.

Five parts, composed bottom-up:

* :mod:`repro.storage.fs` — the syscall-granular filesystem abstraction
  (:class:`LocalFS`) and its fault-injecting wrapper (:class:`FaultyFS`).
* :mod:`repro.storage.atomic` — the single atomic-durable write
  primitive (tmp → fsync → replace → fsync dir) that replaced the
  ad-hoc copies in the incremental collector, the run journal, and the
  dataset writers.
* :mod:`repro.storage.manifest` — per-file SHA-256 + per-record CRC32
  integrity sidecars.
* :mod:`repro.storage.jsonl` — the one durable JSONL writer (atomic
  write plus sidecar in one pass) and the one strict JSONL reader that
  every record file goes through.
* :mod:`repro.storage.scrub` — the offline verifier that detects
  bitrot, quarantines corrupt records into a dead-letter, and repairs
  from replicas.

The matching fault taxonomy lives in :mod:`repro.faults.storage`.
"""

from repro.storage.atomic import (
    AtomicWriter,
    atomic_write_bytes,
    atomic_write_text,
)
from repro.storage.fs import LOCAL_FS, FaultyFS, FileSystem, LocalFS
from repro.storage.jsonl import read_objects_jsonl, write_jsonl_lines
from repro.storage.manifest import (
    MANIFEST_SUFFIX,
    Manifest,
    VerifyResult,
    build_manifest,
    load_manifest,
    manifest_path,
    verify_file,
    write_manifest,
    write_text_with_manifest,
)
from repro.storage.scrub import (
    QUARANTINE_SUFFIX,
    FileScrubResult,
    QuarantinedRecord,
    ScrubReport,
    quarantine_path,
    scrub_file,
    scrub_paths,
)

__all__ = [
    "LOCAL_FS",
    "MANIFEST_SUFFIX",
    "QUARANTINE_SUFFIX",
    "AtomicWriter",
    "FaultyFS",
    "FileScrubResult",
    "FileSystem",
    "LocalFS",
    "Manifest",
    "QuarantinedRecord",
    "ScrubReport",
    "VerifyResult",
    "atomic_write_bytes",
    "atomic_write_text",
    "build_manifest",
    "load_manifest",
    "manifest_path",
    "quarantine_path",
    "read_objects_jsonl",
    "scrub_file",
    "scrub_paths",
    "verify_file",
    "write_jsonl_lines",
    "write_manifest",
    "write_text_with_manifest",
]
