"""Marker-driven fixture tests: each rule fires exactly where expected.

Every fixture under ``fixtures/`` annotates its intentionally bad lines
with ``expect: RPLxxx`` comments.  The test lints each fixture under a
virtual ``src/repro`` path (so test-code exemptions do not apply) and
requires the finding set to equal the marker set — no missing findings,
no extras, right lines.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.lint import lint_source

FIXTURES = Path(__file__).parent / "fixtures"
_EXPECT = re.compile(r"expect:\s*(RPL\d{3})")


def _expected_findings(source: str) -> list[tuple[int, str]]:
    expected = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        for match in _EXPECT.finditer(line):
            expected.append((lineno, match.group(1)))
    return sorted(expected)


def _virtual_path(name: str) -> Path:
    """Place the fixture in the tree region its name asks for."""
    if "_cli_" in name:
        return Path("src/repro/cli") / name
    if "_bench_" in name:
        return Path("benchmarks") / name
    return Path("src/repro") / name


@pytest.mark.parametrize(
    "fixture", sorted(FIXTURES.glob("*.py")), ids=lambda p: p.stem
)
def test_fixture_findings_match_markers(fixture: Path) -> None:
    source = fixture.read_text(encoding="utf-8")
    expected = _expected_findings(source)
    findings = lint_source(source, _virtual_path(fixture.name))
    actual = sorted((finding.line, finding.rule) for finding in findings)
    assert actual == expected, "\n".join(f.render() for f in findings)


def test_bad_fixtures_exist_for_every_rule() -> None:
    """Guard: each shipped rule has at least one firing fixture line."""
    covered = set()
    for fixture in FIXTURES.glob("*.py"):
        for _, rule in _expected_findings(fixture.read_text("utf-8")):
            covered.add(rule)
    assert {"RPL001", "RPL002", "RPL003", "RPL004", "RPL005",
            "RPL006", "RPL007", "RPL008"} <= covered


def test_rng_and_assert_rules_exempt_test_code() -> None:
    source = (
        "import random\n"
        "value = random.random()\n"
        "assert value >= 0.0\n"
    )
    findings = lint_source(source, Path("tests/foo/test_mod.py"))
    assert findings == []


def test_wallclock_rule_exempts_benchmarks() -> None:
    source = "import time\nstarted = time.perf_counter()\n"
    assert lint_source(source, Path("benchmarks/test_bench_fig2.py")) == []
    # Not test-named, so only the benchmark exemption applies.
    assert lint_source(source, Path("benchmarks/timing.py")) == []
    assert lint_source(source, Path("src/repro/pipeline/mod.py")) != []


def test_repository_benchmark_is_benchmark_code() -> None:
    source = (
        "import os\n"
        "import time\n"
        "started = time.perf_counter()\n"
        "with open('result.json', 'w') as handle:\n"
        "    handle.write('{}')\n"
        "os.replace('result.json', 'final.json')\n"
    )
    assert lint_source(source, Path("perfbench/run.py")) == []
    rules = {f.rule for f in lint_source(source, Path("src/repro/run.py"))}
    assert rules == {"RPL002", "RPL008"}


def test_broad_except_exempts_test_code() -> None:
    source = (
        "def f(x):\n"
        "    try:\n"
        "        return x()\n"
        "    except Exception:\n"
        "        return None\n"
    )
    assert lint_source(source, Path("tests/test_mod.py")) == []
    assert [f.rule for f in lint_source(source, Path("src/repro/m.py"))] == [
        "RPL004"
    ]


def test_mutable_default_fires_everywhere() -> None:
    source = "def f(into=[]):\n    return into\n"
    for path in ("src/repro/m.py", "tests/test_mod.py"):
        assert [f.rule for f in lint_source(source, Path(path))] == ["RPL005"]
