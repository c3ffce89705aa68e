"""The one JSONL writer and the one JSONL reader for durable record files.

Every record file the system persists is one JSON object per line: the
firehose, the corpus, the serve responses and the dead-letter queues.
:func:`write_jsonl_lines` streams already-encoded lines through
:class:`~repro.storage.atomic.AtomicWriter` and, in the same pass,
builds the :mod:`repro.storage.manifest` integrity sidecar (whole-file
SHA-256 plus one CRC32 per line), so ``repro scrub`` can detect bitrot
later.  :func:`read_objects_jsonl` streams the objects back strictly,
with an opt-in tolerance for a torn final line.

Encoding a record into its line is the record type's own business
(``to_json`` / ``to_dict``); this module only frames and persists lines.
"""

from __future__ import annotations

import json
import warnings
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import IO

from repro.errors import SerializationError
from repro.storage.atomic import AtomicWriter
from repro.storage.fs import FileSystem
from repro.storage.manifest import Manifest, record_crc, write_manifest

#: Chunk size for the torn-tail probe: large enough to cross any
#: plausible run of trailing whitespace in one or two reads, small
#: enough never to slurp a multi-GB remainder.
_TAIL_PROBE_BYTES = 64 * 1024


def write_jsonl_lines(
    lines: Iterable[str], path: str | Path, *, fs: FileSystem | None = None
) -> int:
    """Atomically write lines plus their sidecar; returns the line count.

    Each line is one encoded record without its newline.  An existing
    file at ``path`` survives any crash mid-write: the old content is
    only replaced once the new content is fully on disk.  The CRCs are
    accumulated during the single iteration (``lines`` may be a one-shot
    generator), and the sidecar is written strictly after the data
    replace.
    """
    crcs: list[int] = []
    with AtomicWriter(path, fs=fs) as writer:
        for line in lines:
            writer.write(line)
            writer.write("\n")
            crcs.append(record_crc(line))
    write_manifest(
        path,
        Manifest(
            file=Path(path).name,
            sha256=writer.sha256_hex,
            size_bytes=writer.bytes_written,
            record_crcs=tuple(crcs),
        ),
        fs=fs,
    )
    return len(crcs)


def _is_torn_tail(handle: IO[str]) -> bool:
    """True when only whitespace follows the handle's position.

    Called after a malformed line: if nothing but whitespace follows,
    the failure is a torn trailing line (a crash mid-append), not
    corpus-wide corruption.  Reads in bounded chunks so a malformed
    line early in a huge corpus does not pull the whole remainder into
    memory just to learn it is mid-file.
    """
    while True:
        chunk = handle.read(_TAIL_PROBE_BYTES)
        if not chunk:
            return True
        if chunk.strip():
            return False


def read_objects_jsonl(
    path: str | Path, tolerate_torn_tail: bool = False
) -> Iterator[tuple[int, dict[str, object]]]:
    """Stream ``(line_number, parsed object)`` pairs from a JSONL file.

    The generic reader under every typed JSONL loader in the tree —
    tweets, corpora, dead letters and telemetry traces all share its
    torn-tail policy: with ``tolerate_torn_tail``, a malformed *final*
    line (the signature of a crash mid-append) is skipped with a warning
    instead of failing the whole file, while a malformed line with
    records after it still raises — that is corruption, not a torn tail.
    The tail probe reads bounded chunks, so a malformed line early in a
    huge file never slurps the remainder into memory.

    Raises:
        SerializationError: on the first malformed line, with its
            1-based line number.
    """
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                if tolerate_torn_tail and _is_torn_tail(handle):
                    warnings.warn(
                        f"{path}:{line_number}: torn trailing record "
                        "(crash mid-write?); rewound to the last complete "
                        "line",
                        stacklevel=2,
                    )
                    return
                raise SerializationError(
                    f"{path}:{line_number}: invalid JSON: {exc}"
                ) from exc
            if not isinstance(data, dict):
                raise SerializationError(
                    f"{path}:{line_number}: expected a JSON object, got "
                    f"{type(data).__name__}"
                )
            yield line_number, data
