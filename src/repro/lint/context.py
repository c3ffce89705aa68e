"""Per-file analysis context shared by every rule.

Two concerns live here:

* **Role classification** — rules exempt test code (RPL001/004/006) and
  benchmark/CLI code (RPL002) by construction, so the context decides once
  per file whether it is test, CLI, or benchmark code.
* **Import resolution** — rules match *fully qualified* call names
  (``numpy.random.default_rng``, ``datetime.datetime.now``) so aliases
  (``import numpy as np``, ``from datetime import datetime``) cannot hide a
  violation.  :meth:`FileContext.resolve` folds the file's import table
  into dotted attribute chains.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

#: Path components that mark a file as test code.
_TEST_PARTS = frozenset({"tests", "test"})
#: Path components that mark a file as benchmark code.
_BENCH_PARTS = frozenset({"benchmarks", "bench", "perfbench"})
#: Path components that mark a file as CLI code.
_CLI_PARTS = frozenset({"cli"})
#: A component that re-classifies a file as plain source even under tests/
#: (lint fixtures simulate production modules).
_FIXTURE_PART = "fixtures"


@dataclass(frozen=True, slots=True)
class FileRole:
    """Which exemption classes apply to a file."""

    is_test: bool
    is_cli: bool
    is_bench: bool


def classify(path: Path) -> FileRole:
    """Classify a path into its exemption role.

    A ``fixtures`` component wins over ``tests`` so that lint-rule fixture
    snippets (stored under ``tests/lint/fixtures/``) are analyzed as if
    they were production modules.
    """
    parts = set(path.parts)
    name = path.name
    if _FIXTURE_PART in parts:
        return FileRole(is_test=False, is_cli=False, is_bench=False)
    is_test = (
        bool(parts & _TEST_PARTS)
        or name.startswith("test_")
        or name == "conftest.py"
    )
    return FileRole(
        is_test=is_test,
        is_cli=bool(parts & _CLI_PARTS),
        is_bench=bool(parts & _BENCH_PARTS),
    )


def _collect_aliases(tree: ast.AST) -> dict[str, str]:
    """Map local names to the dotted module/object paths they import.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from numpy.random import default_rng`` →
    ``{"default_rng": "numpy.random.default_rng"}``.  Relative imports are
    skipped: project-internal names are never lint targets.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".", 1)[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


@dataclass(slots=True)
class FileContext:
    """Everything a rule needs to analyze one file."""

    path: Path
    source: str
    tree: ast.Module
    role: FileRole
    aliases: dict[str, str] = field(default_factory=dict)

    @classmethod
    def build(cls, path: Path, source: str, tree: ast.Module) -> FileContext:
        return cls(
            path=path,
            source=source,
            tree=tree,
            role=classify(path),
            aliases=_collect_aliases(tree),
        )

    def resolve(self, node: ast.expr) -> str | None:
        """Fully qualified dotted name for a Name/Attribute chain.

        Returns ``None`` when the chain does not bottom out in an imported
        name — locals are never mistaken for stdlib modules.
        """
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None
