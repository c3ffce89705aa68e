"""The input generator: every workload's inputs, built from one seed.

``build(root, seed)`` runs the program of the checkout being measured
through its CLI (``repro generate``, ``repro run``) and writes the serve
request schedule, then verifies what it built.  All of it happens before
any timing.  Results are cached under ``.bench_work/inputs`` keyed by a
hash of every file under ``src/`` and of the generator's own modules,
so a change to the program or to the generator can never be measured on
stale inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import checks

#: Size of the shared inputs relative to the paper (1.0 ~ Table I).
INPUT_SCALE = 0.03

#: Requests in the serve schedule and their arrival rate (per simulated
#: second).  Every request costs at most 0.1 simulated seconds, so at
#: 10 req/s with fixed spacing the queue never builds.
N_REQUESTS = 50_000
REQUEST_RATE = 10.0

#: Query mix: kind -> share of the schedule.
REQUEST_MIX = (
    ("state_signature", 0.35),
    ("relative_risk", 0.30),
    ("cluster_profile", 0.15),
    ("health", 0.20),
)

#: The serving-side clustering uses k = 6 (``ServicePolicy.cluster_k``);
#: profiles are asked for every cluster so relative sizes can be summed.
SERVE_CLUSTERS = 6

#: Entries kept in the cache; older ones are evicted.
CACHE_ENTRIES = 16


@dataclass(frozen=True)
class Inputs:
    """Paths of one seed's inputs.

    Attributes:
        firehose: firehose written by ``repro generate``.
        run_dir: finished ``repro run`` directory over the same world;
            its ``corpus.jsonl`` is the serial collect of ``firehose``.
        requests: serve request schedule (JSONL).
    """

    firehose: Path
    run_dir: Path
    requests: Path

    @property
    def serial_corpus(self) -> Path:
        return self.run_dir / "corpus.jsonl"


def source_key(root: Path) -> str:
    """Hash of every file under ``src/`` plus the generator's own source."""
    digest = hashlib.sha256()
    files = sorted(
        path
        for path in (root / "src").rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    )
    named = [(str(path.relative_to(root)), path) for path in files]
    named += [(f"perfbench/{module.__name__}.py", Path(module.__file__))
              for module in (checks, sys.modules[__name__])]
    for name, path in named:
        digest.update(name.encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def request_schedule(seed: int) -> list[dict]:
    """The seeded serve schedule.

    The first three requests touch the three lazily built artifacts one
    simulated second apart, so their loads never pile up in the queue;
    the rest arrive every ``1 / REQUEST_RATE`` seconds with a seeded kind
    and parameters.
    """
    rng = random.Random(seed)
    states = sorted(checks.US_STATES)
    kinds = [kind for kind, __ in REQUEST_MIX]
    weights = [share for __, share in REQUEST_MIX]
    warmup = ["state_signature", "relative_risk", "cluster_profile"]
    requests = []
    for index in range(N_REQUESTS):
        if index < len(warmup):
            kind, arrival = warmup[index], float(index)
        else:
            kind = rng.choices(kinds, weights)[0]
            arrival = len(warmup) + (index - len(warmup)) / REQUEST_RATE
        params: dict[str, object] = {}
        if kind in ("state_signature", "relative_risk"):
            params["state"] = rng.choice(states)
        elif kind == "cluster_profile":
            params["cluster"] = index % SERVE_CLUSTERS
        requests.append(
            {"id": f"q{index}", "kind": kind, "arrival": round(arrival, 6),
             "params": params}
        )
    return requests


def _cli(root: Path, env: dict[str, str], *args: str) -> None:
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=600,
    )
    if result.returncode != 0:
        raise RuntimeError(
            f"repro {' '.join(args)} failed ({result.returncode}):\n"
            f"{result.stdout[-2000:]}"
        )


def verify(inputs: Inputs) -> list[str]:
    """Problems with built inputs; empty when they are usable."""
    problems = []
    journal = json.loads((inputs.run_dir / "journal.json").read_text())
    if len(journal["stages"]) != 10:
        problems.append(f"run directory has {len(journal['stages'])} of 10 stages")
    if checks.sha256_file(inputs.firehose) != journal["stages"]["firehose"][
        "firehose.jsonl"
    ]:
        problems.append("generated firehose differs from the run's firehose")
    problems += checks.check_manifest(inputs.firehose)
    problems += checks.check_funnel(inputs.run_dir)
    problems += checks.check_run_integrity(inputs.run_dir)
    if checks.count_lines(inputs.requests) != N_REQUESTS:
        problems.append("request schedule has the wrong length")
    return problems


def build(root: Path, seed: int, env: dict[str, str]) -> Inputs:
    """Build (or reuse from the cache) and verify one seed's inputs.

    Raises:
        RuntimeError: when a CLI step fails or the inputs do not verify.
    """
    cache = root / ".bench_work" / "inputs"
    entry = cache / f"{source_key(root)[:24]}-scale{INPUT_SCALE}-seed{seed}"
    inputs = Inputs(
        firehose=entry / "firehose.jsonl",
        run_dir=entry / "run",
        requests=entry / "requests.jsonl",
    )
    if (entry / "verified").is_file():
        os.utime(entry)
        return inputs
    staging = cache / f".staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    scale, seed_arg = str(INPUT_SCALE), str(seed)
    _cli(root, env, "generate", str(staging / "firehose.jsonl"),
         "--scale", scale, "--seed", seed_arg)
    _cli(root, env, "run", str(staging / "run"), "--scale", scale,
         "--seed", seed_arg)
    with open(staging / "requests.jsonl", "w", encoding="utf-8") as handle:
        for request in request_schedule(seed):
            handle.write(json.dumps(request) + "\n")
    staged = Inputs(
        firehose=staging / "firehose.jsonl",
        run_dir=staging / "run",
        requests=staging / "requests.jsonl",
    )
    problems = verify(staged)
    if problems:
        raise RuntimeError("inputs do not verify: " + "; ".join(problems))
    (staging / "verified").write_text("ok\n")
    shutil.rmtree(entry, ignore_errors=True)
    os.replace(staging, entry)
    _evict(cache)
    return inputs


def _evict(cache: Path) -> None:
    entries = sorted(
        (path for path in cache.iterdir() if not path.name.startswith(".")),
        key=lambda path: path.stat().st_mtime,
    )
    for path in entries[:-CACHE_ENTRIES]:
        shutil.rmtree(path, ignore_errors=True)
