"""The program surface the repository benchmark calls still exists.

``perfbench/layers.py`` looks each layer function up with
``need(module, name)`` or ``public(module, name)``, and
``perfbench/child.py`` imports from ``repro``.  A lookup that no longer
resolves, or a function that takes other arguments, leaves per-layer
metrics null in a traced run, which takes a minute to show; these
checks read the benchmark's source and fail in well under a second.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _surface(filename: str) -> set[tuple[str, str | None]]:
    """``(module, name)`` pairs a benchmark file takes from ``repro``.

    Covers ``need``/``public`` calls with literal arguments and
    ``repro`` imports; ``name`` is None for a plain module import.
    """
    tree = ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))
    found: set[tuple[str, str | None]] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in ("need", "public")
            and all(isinstance(arg, ast.Constant) for arg in node.args)
        ):
            module, name = (arg.value for arg in node.args)
            found.add((module, name))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "repro"
        ):
            found.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(
                (alias.name, None)
                for alias in node.names
                if alias.name.startswith("repro")
            )
    return found


SURFACE = sorted(_surface("layers.py") | _surface("child.py"), key=str)


def test_surface_was_read():
    assert len(SURFACE) >= 20
    assert ("repro.pipeline.parallel", "process_shard") in SURFACE
    assert ("repro.cli.main", "main") in SURFACE


@pytest.mark.parametrize("module, name", SURFACE, ids=str)
def test_name_resolves(module, name):
    imported = importlib.import_module(module)
    assert name is None or hasattr(imported, name), f"{module}.{name}"


#: Call shapes the probes use: (module, name, positional arguments).
CALL_SHAPES = [
    ("repro.pipeline.parallel", "shard_by_id", ("tweets", 2)),
    ("repro.pipeline.parallel", "process_shard", ("shard", "config")),
    ("repro.pipeline.wire", "encode_shard_result", ("records", "report", None)),
    ("repro.pipeline.wire", "decode_shard_result", ("frame",)),
]


@pytest.mark.parametrize(
    "module, name, args", CALL_SHAPES, ids=[shape[1] for shape in CALL_SHAPES]
)
def test_call_shape_binds(module, name, args):
    function = getattr(importlib.import_module(module), name)
    inspect.signature(function).bind(*args)


def test_service_store_loads_by_name(tmp_path):
    from repro.dataset.io import write_jsonl
    from repro.serve import ArtifactCache, QueryService
    from tests.serve.conftest import build_serve_corpus

    write_jsonl(build_serve_corpus(), tmp_path / "corpus.jsonl")
    service = QueryService(tmp_path, cache=ArtifactCache())
    inspect.signature(service.store.load).bind("regions")
