"""Resumable, checkpointed collection.

The paper's dataset took 385 days of continuous collection; any real
collector restarts many times in such a window.  This module feeds the
funnel kernel (:class:`repro.pipeline.batch.Funnel`) one tweet at a time
and appends its records to a JSONL sink beside a JSON checkpoint (last
processed tweet id and cumulative counters), so a collection can stop at
any point and resume exactly where it left off without duplicating or
dropping records.

Crash safety: all writes go through :mod:`repro.storage` — the sink is
fsynced *before* every checkpoint save (so a durable checkpoint always
describes a durable corpus prefix), the checkpoint itself is written
atomically-durably with an integrity sidecar, and construction
reconciles the checkpoint with the corpus file in both directions:

* corpus ahead of checkpoint (killed before the periodic save, or a
  torn trailing JSONL line) — the tail is truncated/adopted, exactly as
  before;
* checkpoint ahead of corpus (a lying fsync acknowledged bytes that a
  later power loss dropped) — the checkpoint is *rewound* to the
  surviving corpus, so the lost tweets are re-processed instead of
  silently skipped.

Either way a kill at *any* instant — mid-batch, mid-checkpoint-write,
mid-JSONL-line, even under injected disk faults — resumes to a
byte-identical corpus.
"""

from __future__ import annotations

import json
import os
import warnings
from collections.abc import Iterable
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.dataset.corpus import TweetCorpus

from repro.config import CollectionConfig, ResiliencePolicy
from repro.dataset.io import read_jsonl
from repro.errors import PipelineError, SerializationError
from repro.pipeline.batch import Funnel
from repro.pipeline.runner import PipelineReport
from repro.storage.fs import LOCAL_FS, FileSystem
from repro.storage.jsonl import read_objects_jsonl
from repro.storage.manifest import (
    build_manifest,
    write_manifest,
    write_text_with_manifest,
)
from repro.twitter.faults import FaultPlan, FaultySource
from repro.twitter.models import Tweet
from repro.twitter.resilient import (
    ReliabilityReport,
    ResilientStream,
    ensure_compatible,
)


@dataclass(slots=True)
class Checkpoint:
    """Resumption state for one collection.

    Attributes:
        last_tweet_id: highest tweet id fully processed (−1 initially).
        seen: tweets inspected, cumulative (a lower bound after a crash).
        retained: records written, cumulative.
    """

    last_tweet_id: int = -1
    seen: int = 0
    retained: int = 0


class IncrementalCollector:
    """Append-only collection with checkpointed resume.

    Args:
        corpus_path: JSONL sink; appended to across runs.
        checkpoint_path: JSON checkpoint beside the corpus (defaults to
            ``<corpus_path>.checkpoint.json``).
        config: collection configuration (must stay identical across
            resumed runs; changing vocabularies mid-collection would make
            the corpus inconsistent).
        resilience: reconnect/dedup policy applied when ``run`` is given
            a fault plan.
        fs: filesystem all persistence goes through; a
            :class:`repro.storage.fs.FaultyFS` here subjects the whole
            collection to injected disk faults.

    Tweets with ids at or below the checkpoint are skipped, so re-feeding
    an overlapping stream slice is safe and idempotent; every other tweet
    goes through the funnel kernel (:class:`repro.pipeline.batch.Funnel`)
    one at a time.  :attr:`report` holds the kernel's counters for the
    tweets this instance processed; they live in memory only, the
    checkpoint keeps the durable ``seen``/``retained`` totals.
    """

    def __init__(
        self,
        corpus_path: str | Path,
        checkpoint_path: str | Path | None = None,
        config: CollectionConfig | None = None,
        resilience: ResiliencePolicy | None = None,
        fs: FileSystem | None = None,
    ):
        self.corpus_path = Path(corpus_path)
        self.checkpoint_path = (
            Path(checkpoint_path)
            if checkpoint_path is not None
            else self.corpus_path.with_suffix(
                self.corpus_path.suffix + ".checkpoint.json"
            )
        )
        self.fs: FileSystem = fs if fs is not None else LOCAL_FS
        self.config = config or CollectionConfig()
        self.resilience = resilience or ResiliencePolicy()
        self.reliability: ReliabilityReport | None = None
        self.report = PipelineReport()
        self._funnel = Funnel(self.config)
        self.checkpoint = self._load_checkpoint()
        self._recover()

    def _load_checkpoint(self) -> Checkpoint:
        if not self.checkpoint_path.exists():
            return Checkpoint()
        try:
            data = json.loads(self.checkpoint_path.read_text())
            return Checkpoint(
                last_tweet_id=int(data["last_tweet_id"]),
                seen=int(data["seen"]),
                retained=int(data["retained"]),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            if self.corpus_path.exists():
                # The corpus itself is the ground truth; a garbage
                # checkpoint (bitrot, torn write on a legacy layout) is
                # rebuilt from it instead of bricking the resume.
                warnings.warn(
                    f"corrupt checkpoint {self.checkpoint_path} ({exc}); "
                    "rebuilding it from a corpus scan",
                    stacklevel=3,
                )
                return Checkpoint()
            raise PipelineError(
                f"corrupt checkpoint {self.checkpoint_path}: {exc}"
            ) from exc

    def _save_checkpoint(self) -> None:
        """Atomically-durably replace the checkpoint (crash mid-write can
        never leave a corrupt checkpoint that bricks a resume), leaving
        an integrity sidecar for ``repro scrub``."""
        write_text_with_manifest(
            self.checkpoint_path,
            json.dumps(asdict(self.checkpoint)) + "\n",
            fs=self.fs,
        )

    def _write_corpus_manifest(self) -> None:
        if self.corpus_path.exists():
            write_manifest(
                self.corpus_path,
                build_manifest(self.corpus_path, fs=self.fs),
                fs=self.fs,
            )

    def _recover(self) -> None:
        """Reconcile the checkpoint with the corpus file after a crash.

        Three gaps can open between sink and checkpoint when a run dies:

        * a torn trailing JSONL line (killed mid-write) — truncated away;
          the record's tweet id is above the checkpoint, so the tweet is
          simply re-processed on the next run;
        * complete records flushed after the last checkpoint (killed
          before the periodic save) — adopted into the checkpoint so
          re-feeding the stream cannot duplicate them;
        * records the checkpoint counts but the corpus no longer holds
          (an fsync lie followed by power loss) — the checkpoint is
          rewound to the surviving corpus so the lost tweets are
          re-processed instead of silently skipped.

        The ``seen`` counter cannot recover tweets that were inspected
        and rejected after the last checkpoint, so after a crash it is a
        lower bound.
        """
        self._truncate_torn_tail()
        if not self.corpus_path.exists():
            if self.checkpoint.retained > 0:
                warnings.warn(
                    f"checkpoint claims {self.checkpoint.retained} retained "
                    f"record(s) but {self.corpus_path} is gone; rewound to "
                    "an empty corpus (lost unsynced writes?)",
                    stacklevel=2,
                )
                self.checkpoint = Checkpoint()
                self._save_checkpoint()
            return
        total = 0
        adopted = 0
        max_id = self.checkpoint.last_tweet_id
        for line_number, data in read_objects_jsonl(self.corpus_path):
            try:
                tweet_id = int(data["tweet"]["tweet_id"])  # type: ignore[index]
            except (KeyError, TypeError, ValueError) as exc:
                raise SerializationError(
                    f"{self.corpus_path}:{line_number}: corrupt record "
                    f"during crash recovery: {exc}"
                ) from exc
            total += 1
            if tweet_id > max_id:
                adopted += 1
                max_id = tweet_id
        if total < self.checkpoint.retained:
            warnings.warn(
                f"corpus holds {total} record(s) but the checkpoint claims "
                f"{self.checkpoint.retained}; rewound the checkpoint to the "
                "surviving corpus (an acknowledged write was lost?)",
                stacklevel=2,
            )
            self.checkpoint = Checkpoint(
                last_tweet_id=max_id if total else -1,
                seen=total,
                retained=total,
            )
            self._save_checkpoint()
            return
        if adopted:
            warnings.warn(
                f"adopted {adopted} record(s) flushed after the last "
                f"checkpoint (crash recovery); resuming from tweet id "
                f"{max_id}",
                stacklevel=2,
            )
            self.checkpoint.retained += adopted
            self.checkpoint.seen += adopted
            self.checkpoint.last_tweet_id = max_id
            self._save_checkpoint()

    def _truncate_torn_tail(self) -> None:
        """Drop a partial trailing line left by a crash mid-append.

        Every complete record ends with a newline, so a file not ending
        in ``\\n`` was torn by a crash; the tail is cut back to the last
        complete line (the torn record's tweet is re-processed on the
        next run because its id is above the checkpoint).
        """
        if not self.corpus_path.exists():
            return
        # In-place surgical truncation of an existing file — the one
        # repair that atomic replacement cannot express.
        with open(self.corpus_path, "rb+") as handle:  # reprolint: disable=RPL008
            size = handle.seek(0, os.SEEK_END)
            if size == 0:
                return
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) == b"\n":
                return
            # Scan backwards in blocks for the last newline.
            keep = 0
            position = size
            while position > 0:
                step = min(4096, position)
                position -= step
                handle.seek(position)
                block = handle.read(step)
                newline = block.rfind(b"\n")
                if newline != -1:
                    keep = position + newline + 1
                    break
            handle.truncate(keep)
        warnings.warn(
            f"{self.corpus_path}: truncated torn trailing record "
            f"({size - keep} bytes) left by a crash mid-write",
            stacklevel=2,
        )

    def run(
        self,
        source: Iterable[Tweet],
        checkpoint_every: int = 500,
        fault_plan: FaultPlan | None = None,
    ) -> int:
        """Process a stream slice; returns records written this run.

        The sink is fsynced and the checkpoint saved every
        ``checkpoint_every`` inspected tweets and once at the end, so a
        crash loses at most one batch of progress (and re-processing
        that batch is idempotent).  The fsync strictly precedes the
        checkpoint save: a durable checkpoint therefore always describes
        a durable corpus prefix, which is what recovery relies on.

        Args:
            source: tweet iterable (stream slice).
            checkpoint_every: inspected tweets between checkpoint saves.
            fault_plan: when given, the slice is consumed through a
                :class:`ResilientStream` over a fault-injecting wrapper;
                ``self.reliability`` afterwards reports what the run
                survived.
        """
        if checkpoint_every < 1:
            raise PipelineError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if fault_plan is not None:
            ensure_compatible(self.resilience, fault_plan)
            resilient = ResilientStream(
                FaultySource(source, fault_plan), self.resilience
            )
            self.reliability = resilient.report
            source = resilient
        written = 0
        since_checkpoint = 0
        process = self._funnel.process_batch
        # Sanctioned raw append (DESIGN §15): the corpus sink is an
        # append-only journal whose durability contract is fsync-before-
        # checkpoint plus torn-tail recovery on resume — AtomicWriter's
        # whole-file rewrite would turn O(batch) appends into O(corpus).
        # reprolint: disable-next-line=RPL103
        with self.fs.open(self.corpus_path, "a") as sink:
            for tweet in source:
                if tweet.tweet_id <= self.checkpoint.last_tweet_id:
                    continue  # already processed in a previous run
                self.checkpoint.seen += 1
                for __, record in process([(0, tweet)], self.report):
                    sink.write(record.to_json())
                    sink.write("\n")
                    self.checkpoint.retained += 1
                    written += 1
                self.checkpoint.last_tweet_id = tweet.tweet_id
                since_checkpoint += 1
                if since_checkpoint >= checkpoint_every:
                    self.fs.fsync(sink)
                    self._save_checkpoint()
                    since_checkpoint = 0
            self.fs.fsync(sink)
        self._save_checkpoint()
        self._write_corpus_manifest()
        return written

    def load_corpus(self) -> TweetCorpus:
        """The accumulated corpus across all runs.

        A torn trailing record (crash mid-write) is skipped with a
        warning rather than failing the whole corpus.

        Raises:
            repro.errors.DatasetError: if nothing has been retained yet.
        """
        from repro.dataset.corpus import TweetCorpus

        return TweetCorpus(
            read_jsonl(self.corpus_path, tolerate_torn_tail=True)
        )
