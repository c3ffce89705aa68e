"""Shared process-pool plumbing for the parallel execution layer.

Used by the supervised pool (:mod:`repro.supervise`) behind the sharded
collection pipeline (:mod:`repro.pipeline.parallel`), parallel K-Means
restarts (:mod:`repro.cluster.kmeans`), and the parallel k-sweep
(:mod:`repro.core.user_clusters`).  :func:`pool_context` is the one
start-method choice every fan-out site runs under: ``fork`` where
available (Linux) — a worker inherits the parent's imports and its task
arguments, so nothing is re-imported or pickled on the way in — falling
back to the platform default elsewhere, where task arguments are
pickled.  The task code is the same either way.

:func:`reaped` is the unified teardown every fan-out site runs under: a
parent that dies mid-fan-out (a raised quarantine, a test failure, a
``KeyboardInterrupt``) must never strand live child processes, so every
child is registered at spawn time and terminated + joined on *every*
exit path.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.process
from collections.abc import Iterator
from contextlib import contextmanager
from typing import TypeVar

T = TypeVar("T")


def pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context every repro pool should use.

    ``fork`` when the platform offers it, else the platform default.
    """
    available = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in available else available[0]
    )


@contextmanager
def reaped() -> Iterator[list[multiprocessing.process.BaseProcess]]:
    """Guarantee no spawned child outlives the block.

    Yields a registry list; append every child process to it right after
    ``start()``.  On exit — normal or exceptional — any registered child
    still alive is terminated (SIGTERM), escalated to ``kill()`` if it
    ignores that, and joined, so an interrupted parallel run never
    strands live workers.
    """
    registry: list[multiprocessing.process.BaseProcess] = []
    try:
        yield registry
    finally:
        for proc in registry:
            if proc.is_alive():
                proc.terminate()
        for proc in registry:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - SIGTERM ignored
                proc.kill()
                proc.join(timeout=5.0)


def split_chunks(items: list[T], parts: int) -> list[list[T]]:
    """Split items into at most ``parts`` contiguous non-empty chunks.

    Sizes differ by at most one, largest first — the standard balanced
    partition for fanning a fixed work list across workers.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    parts = min(parts, len(items))
    size, extra = divmod(len(items), parts)
    chunks: list[list[T]] = []
    start = 0
    for part in range(parts):
        end = start + size + (1 if part < extra else 0)
        chunks.append(items[start:end])
        start = end
    return chunks
