"""JSONL persistence for tweets and collected records.

One JSON object per line; append-friendly and streamable, matching how
tweet datasets are stored in practice.  Two record kinds are supported:
raw :class:`~repro.twitter.models.Tweet` firehoses
(:func:`write_tweets_jsonl` / :func:`read_tweets_jsonl`) and
pipeline-surviving :class:`~repro.dataset.records.CollectedTweet` corpora
(:func:`write_jsonl` / :func:`read_jsonl`).  Each line is the record's
``to_json()``.  Reading is strict: a malformed line raises
:class:`repro.errors.SerializationError` with the line number.

Both kinds go through the one durable JSONL codec,
:mod:`repro.storage.jsonl`: the new file is streamed to a temp sibling,
fsynced, and renamed over the destination — a crash mid-write can never
destroy an existing corpus — and each write leaves an integrity sidecar
built in the same streaming pass, so ``repro scrub`` can detect bitrot
later.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TYPE_CHECKING

from repro.dataset.records import CollectedTweet
from repro.errors import SerializationError
from repro.storage.fs import FileSystem
from repro.storage.jsonl import read_objects_jsonl, write_jsonl_lines

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.twitter.models import Tweet


def write_jsonl(
    records: Iterable[CollectedTweet],
    path: str | Path,
    *,
    fs: FileSystem | None = None,
) -> int:
    """Atomically write records to a JSONL file; returns the number written.

    An existing file at ``path`` survives any crash mid-write: the old
    content is only replaced once the new content is fully on disk.
    """
    return write_jsonl_lines((record.to_json() for record in records), path, fs=fs)


def write_tweets_jsonl(
    tweets: Iterable["Tweet"],
    path: str | Path,
    *,
    fs: FileSystem | None = None,
) -> int:
    """Atomically write raw tweets (a firehose) to JSONL; returns the count."""
    return write_jsonl_lines((tweet.to_json() for tweet in tweets), path, fs=fs)


def read_tweets_jsonl(
    path: str | Path, tolerate_torn_tail: bool = False
) -> Iterator["Tweet"]:
    """Stream raw tweets from a JSONL firehose file.

    Args:
        path: the JSONL file to read.
        tolerate_torn_tail: when True, a malformed *final* line — the
            signature of a crash mid-append — is skipped with a warning
            instead of failing the whole firehose.

    Raises:
        SerializationError: on the first malformed line, with its 1-based
            line number.
    """
    from repro.twitter.models import Tweet

    for line_number, data in read_objects_jsonl(
        path, tolerate_torn_tail=tolerate_torn_tail
    ):
        try:
            yield Tweet.from_dict(data)
        except SerializationError as exc:
            raise SerializationError(f"{path}:{line_number}: {exc}") from exc


def read_jsonl(
    path: str | Path, tolerate_torn_tail: bool = False
) -> Iterator[CollectedTweet]:
    """Stream records from a JSONL file.

    Args:
        path: the JSONL file to read.
        tolerate_torn_tail: when True, a malformed *final* line — the
            signature of a crash mid-append — is skipped with a warning
            instead of failing the whole corpus.  Malformed lines with
            records after them still raise: that is corruption, not a
            torn tail.

    Raises:
        SerializationError: on the first malformed line, reporting its
            1-based line number.
    """
    for line_number, data in read_objects_jsonl(
        path, tolerate_torn_tail=tolerate_torn_tail
    ):
        try:
            yield CollectedTweet.from_dict(data)
        except SerializationError as exc:
            raise SerializationError(f"{path}:{line_number}: {exc}") from exc
