"""Deterministic disk-fault injection for the durable storage layer.

Mirror of :class:`repro.faults.compute.WorkerFaultPlan`, one layer down
again: where that plan makes the *compute pool* fail the way production
clusters do, this plan makes the *disk* fail the way real disks do — a
write returns EIO once and then succeeds, the volume fills mid-replace,
the machine loses power half-way through a ``write`` syscall, the drive
acknowledges an fsync it never performed, a block quietly rots months
after the write "succeeded".

Injected failure taxonomy (applied inside :class:`repro.storage.fs.FaultyFS`,
per mutating syscall):

* **Transient EIO** — a write/fsync/replace raises ``OSError(EIO)`` and
  leaves no bytes behind; bounded per path so retry loops converge.
* **ENOSPC** — a write raises ``OSError(ENOSPC)``; never retried, the
  caller must degrade explicitly.
* **Torn write** — only a seeded prefix of one write reaches the file,
  then the machine dies.
* **Crash window** — the process dies at an exact syscall index; only
  fsynced bytes and fsync-dir'ed renames survive, everything else is
  rolled back to its durable state.
* **Fsync lie** — fsync returns success but durability does not advance,
  so a later crash loses writes the caller believed safe.
* **Bitrot** — :func:`flip_bits` flips seeded bits in an at-rest file,
  modeling silent corruption that only a scrub can detect.

Every decision is a pure function of ``(seed, operation, syscall index)``
— never of wall clock or process identity — so a fault schedule replays
exactly, on any machine, for any worker count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigError

_RATE_FIELDS = ("eio_rate", "fsync_lie_rate")


class SimulatedCrash(BaseException):
    """Power loss injected by :class:`repro.storage.fs.FaultyFS`.

    Deliberately a :class:`BaseException`, not an :class:`Exception`: a
    machine losing power cannot be caught and absorbed by application
    error handling, so no ``except Exception`` recovery path in the code
    under test may swallow it either.
    """


@dataclass(slots=True)
class InjectedStorageFaults:
    """Counters for what a :class:`~repro.storage.fs.FaultyFS` injected.

    Attributes:
        eio: transient I/O errors raised.
        enospc: out-of-space errors raised.
        torn_writes: writes that persisted only a prefix before a crash.
        fsync_lies: fsyncs acknowledged without advancing durability.
        crashes: simulated power losses.
    """

    eio: int = 0
    enospc: int = 0
    torn_writes: int = 0
    fsync_lies: int = 0
    crashes: int = 0

    def as_rows(self) -> list[tuple[str, str]]:
        return [
            ("transient EIO injected", str(self.eio)),
            ("ENOSPC injected", str(self.enospc)),
            ("torn writes injected", str(self.torn_writes)),
            ("fsync lies injected", str(self.fsync_lies)),
            ("crashes injected", str(self.crashes)),
        ]

@dataclass(frozen=True, slots=True)
class StorageFaultPlan:
    """Per-class disk-fault rates and trigger points for one chaos run.

    Rate faults (EIO, fsync lies) are drawn from an RNG seeded by
    ``(seed, operation, syscall index)``; point faults (ENOSPC, torn
    write, crash) fire at an exact syscall index, chosen by the caller
    from a recorded syscall trace.

    Attributes:
        seed: base seed; the whole fault schedule derives from it.
        eio_rate: per-syscall probability of a transient ``EIO``.
        max_eio_per_path: EIO budget per file path; keeps any retry loop
            with ``retries >= max_eio_per_path`` convergent.
        fsync_lie_rate: per-fsync probability the sync is acknowledged
            but durability does not advance.
        enospc_at: syscall index at which a write raises ``ENOSPC``
            (None = never).
        torn_write_at: syscall index whose write persists only a seeded
            prefix before the machine dies (None = never).
        crash_at: syscall index at which the machine loses power
            (None = never); the syscall itself never executes.
        bitrot_flips: bit flips :func:`flip_bits` applies per file when a
            chaos harness corrupts at-rest data (0 = none).
    """

    seed: int = 0
    eio_rate: float = 0.0
    max_eio_per_path: int = 2
    fsync_lie_rate: float = 0.0
    enospc_at: int | None = None
    torn_write_at: int | None = None
    crash_at: int | None = None
    bitrot_flips: int = 0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.max_eio_per_path < 0:
            raise ConfigError(
                f"max_eio_per_path must be >= 0, got {self.max_eio_per_path}"
            )
        for name in ("enospc_at", "torn_write_at", "crash_at"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
        if self.bitrot_flips < 0:
            raise ConfigError(
                f"bitrot_flips must be >= 0, got {self.bitrot_flips}"
            )

    @property
    def any_faults(self) -> bool:
        return (
            any(getattr(self, name) > 0.0 for name in _RATE_FIELDS)
            or self.enospc_at is not None
            or self.torn_write_at is not None
            or self.crash_at is not None
            or self.bitrot_flips > 0
        )

    @classmethod
    def none(cls, seed: int = 0) -> "StorageFaultPlan":
        """A perfectly reliable disk (no faults) — still counts syscalls,
        which is how crash-matrix tests enumerate kill points."""
        return cls(seed=seed)

    @classmethod
    def chaos(cls, seed: int = 0) -> "StorageFaultPlan":
        """Transient EIO and fsync lies at moderate rates — the default
        for ``--disk-chaos``.

        Point faults (ENOSPC, torn writes, crash windows) stay off: they
        need a syscall trace to aim at, which belongs to the targeted
        property tests, not a background chaos mode.  The two rate
        faults must be *invisible* in the output: EIO is absorbed by the
        atomic writer's bounded retry, and an fsync lie only matters if
        a crash follows it.
        """
        return cls(seed=seed, eio_rate=0.15, fsync_lie_rate=0.1)

    def transient_eio(self, operation: str, index: int) -> bool:
        """Whether syscall ``index`` of kind ``operation`` draws an EIO.

        Pure and deterministic: the same (seed, operation, index) triple
        always yields the same answer.
        """
        if index < 0:
            raise ConfigError(f"index must be >= 0, got {index}")
        if self.eio_rate <= 0.0:
            return False
        rng = random.Random(f"{self.seed}:eio:{operation}:{index}")
        return rng.random() < self.eio_rate

    def fsync_lie(self, index: int) -> bool:
        """Whether the fsync at syscall ``index`` lies about durability."""
        if index < 0:
            raise ConfigError(f"index must be >= 0, got {index}")
        if self.fsync_lie_rate <= 0.0:
            return False
        rng = random.Random(f"{self.seed}:lie:{index}")
        return rng.random() < self.fsync_lie_rate

    def torn_length(self, index: int, length: int) -> int:
        """How much of a torn write survives: a seeded strict prefix."""
        if length <= 0:
            return 0
        rng = random.Random(f"{self.seed}:torn:{index}")
        return rng.randrange(length)

    def describe(self) -> str:
        parts = [
            f"{name}={getattr(self, name)}"
            for name in _RATE_FIELDS
            if getattr(self, name) > 0.0
        ]
        parts.extend(
            f"{name}={getattr(self, name)}"
            for name in ("enospc_at", "torn_write_at", "crash_at")
            if getattr(self, name) is not None
        )
        if self.bitrot_flips:
            parts.append(f"bitrot_flips={self.bitrot_flips}")
        active = ", ".join(parts)
        return f"StorageFaultPlan(seed={self.seed}, {active or 'no faults'})"


def flip_bits(path: str, seed: int, flips: int) -> tuple[int, ...]:
    """Flip ``flips`` seeded bits in an at-rest file, modeling bitrot.

    Newline bytes are never created or destroyed, so JSONL record framing
    survives and corruption lands *inside* records — the case a CRC
    manifest must catch and a line count cannot.  Returns the affected
    byte offsets (sorted); fewer than ``flips`` when the file is too
    small to host that many distinct non-framing flips.
    """
    if flips < 0:
        raise ConfigError(f"flips must be >= 0, got {flips}")
    rng = random.Random(f"{seed}:bitrot")
    # The injector must corrupt bytes in place, below the durable layer
    # it exists to test.
    with open(path, "rb+") as handle:  # reprolint: disable=RPL008
        data = bytearray(handle.read())
        offsets: set[int] = set()
        attempts = 0
        while data and len(offsets) < flips and attempts < 100 * flips:
            attempts += 1
            offset = rng.randrange(len(data))
            flipped = data[offset] ^ (1 << rng.randrange(8))
            if offset in offsets or data[offset] == 0x0A or flipped == 0x0A:
                continue
            data[offset] = flipped
            offsets.add(offset)
        handle.seek(0)
        handle.write(data)
    return tuple(sorted(offsets))
