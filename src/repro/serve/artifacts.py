"""Read-through artifact cache keyed by corpus generation.

Every :class:`~repro.serve.service.QueryService` used to rebuild its
world from disk at construction time: one full ``corpus.jsonl`` parse
for the coarse-summary floor, another for the first ``corpus`` artifact
load, and a fresh clustering per service even when the run directory had
not changed.  This module gives the serving layer one read-through cache
for those *builders*, keyed by the corpus **generation** — the sha256
recorded in the corpus's manifest sidecar (falling back to hashing the
file bytes for legacy directories without one).  When the run artifacts
are regenerated the manifest hash changes, the old generation's entries
simply stop being hit, and the first service on the new generation
rebuilds from disk.

The cache deliberately sits *below* the overload machinery.  An
:class:`~repro.serve.service.ArtifactStore` still charges the simulated
load cost, consults the load-chaos plan, and reports to the circuit
breaker for every one of its own misses — the cache only makes the
builder work (JSONL parse, clustering) free when another service on the
same generation already did it.  Simulated-clock behaviour is therefore
byte-identical for a fixed ``(seed, requests)`` pair whether the cache
is cold, warm, shared, or private; chaos property tests run services
with private caches and observe nothing new.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable

from repro.storage.manifest import build_manifest, load_manifest


def corpus_generation(run_dir: str | Path) -> str:
    """The generation key of ``run_dir``'s corpus.

    Prefers the manifest sidecar's recorded sha256 (no data-file read at
    all); hashes the corpus bytes when no sidecar exists.

    Raises:
        FileNotFoundError: when the run directory has no corpus.
        repro.errors.StorageError: when a sidecar exists but is
            unreadable (corruption evidence, never ignored).
    """
    corpus_path = Path(run_dir) / "corpus.jsonl"
    manifest = load_manifest(corpus_path)
    if manifest is None:
        manifest = build_manifest(corpus_path, records=False)
    return manifest.sha256


class ArtifactCache:
    """Generation-keyed memo for serving-side artifact builders.

    Entries are keyed ``(generation, artifact name, *params)`` so two run
    directories — or two *versions* of one run directory — can never
    alias, and parameterized artifacts (clustering at different ``k``)
    coexist.  Unbounded by design: a serving process touches a handful
    of generations, and each entry is one already-built object.
    """

    __slots__ = ("_entries", "_hits", "_misses")

    def __init__(self) -> None:
        self._entries: dict[tuple[object, ...], Any] = {}
        self._hits = 0
        self._misses = 0

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self, key: tuple[object, ...], builder: Callable[[], Any]
    ) -> Any:
        """Return the cached value for ``key``, building it on first use.

        A builder that raises caches nothing — the next caller retries,
        which is exactly what the store's breaker path expects.
        """
        entries = self._entries
        if key in entries:
            self._hits += 1
            return entries[key]
        value = builder()
        self._misses += 1
        entries[key] = value
        return value
