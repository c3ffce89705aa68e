"""The benchmark's own tests: every output check passes on real outputs
and fails on one corrupted output.

Run from the repository root::

    python3 -m pytest perfbench -q

The fixture drives the program's CLI once at a small scale to get real
outputs of every workload; each test corrupts a copy of one of them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
import run

ROOT = Path(__file__).resolve().parent.parent
SCALE = "0.03"  # Table I calibration holds at this scale for seed 1.
N_REQUESTS = 600


def cli(env: dict[str, str], *args: str) -> str:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args], cwd=ROOT, env=env, check=True,
        stdout=subprocess.PIPE, text=True, timeout=600,
    ).stdout


@pytest.fixture(scope="module")
def outputs(tmp_path_factory: pytest.TempPathFactory) -> dict:
    base = tmp_path_factory.mktemp("outputs")
    env = run.bench_env(ROOT)
    env["TMPDIR"] = str(base)
    run_dir = base / "run"
    cli(env, "run", str(run_dir), "--scale", SCALE, "--seed", "1")
    requests = base / "requests.jsonl"
    requests.write_text(
        "".join(json.dumps(r) + "\n" for r in inputs.request_schedule(1)[:N_REQUESTS])
    )
    responses = base / "responses.jsonl"
    cli(env, "serve", str(run_dir), "--requests", str(requests),
        "--output", str(responses))
    collect_out = cli(env, "collect", str(run_dir / "firehose.jsonl"),
                      str(base / "sharded.jsonl"), "--workers", "2")
    monitor_out = cli(env, "monitor", str(run_dir / "firehose.jsonl"))
    return {
        "base": base, "run_dir": run_dir, "requests": requests,
        "responses": responses, "collect_out": collect_out,
        "monitor_out": monitor_out,
    }


@pytest.fixture
def run_copy(outputs: dict, tmp_path: Path) -> Path:
    copy = tmp_path / "run"
    shutil.copytree(outputs["run_dir"], copy)
    return copy


def edit_jsonl(path: Path, index: int, change) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[index])
    change(record)
    lines[index] = json.dumps(record, ensure_ascii=False)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    change(data)
    path.write_text(json.dumps(data), encoding="utf-8")


# -- paper_run ------------------------------------------------------------


def test_paper_run_checks_pass_on_real_run(outputs: dict) -> None:
    assert checks.check_paper_run(outputs["run_dir"]) == []


def test_funnel_rejects_unconserved_report(run_copy: Path) -> None:
    edit_json(run_copy / "report.json",
              lambda r: r.update(collected=r["collected"] + 1))
    assert checks.check_funnel(run_copy)


def test_funnel_rejects_lost_corpus_line(run_copy: Path) -> None:
    corpus = run_copy / "corpus.jsonl"
    corpus.write_text("".join(corpus.read_text().splitlines(True)[1:]))
    assert checks.check_funnel(run_copy)


def test_corpus_records_reject_flipped_state(run_copy: Path) -> None:
    edit_jsonl(run_copy / "corpus.jsonl", 3,
               lambda r: r["location"].update(state="ON", country="CA"))
    assert checks.check_corpus_records(checks.read_jsonl(run_copy / "corpus.jsonl"))


def test_corpus_records_reject_record_without_organ(run_copy: Path) -> None:
    edit_jsonl(run_copy / "corpus.jsonl", 5, lambda r: r.update(mentions={}))
    assert checks.check_corpus_records(checks.read_jsonl(run_copy / "corpus.jsonl"))


def test_attention_rejects_altered_count(run_copy: Path) -> None:
    edit_json(run_copy / "attention.json",
              lambda a: a["counts"][7].__setitem__(0, a["counts"][7][0] + 1.0))
    attention = json.loads((run_copy / "attention.json").read_text())
    assert checks.check_attention(
        attention, checks.read_jsonl(run_copy / "corpus.jsonl")
    )


def test_integrity_rejects_flipped_artifact_byte(run_copy: Path) -> None:
    table = run_copy / "table1.txt"
    data = bytearray(table.read_bytes())
    data[10] ^= 0x01
    table.write_bytes(bytes(data))
    problems = checks.check_run_integrity(run_copy)
    assert any("journal" in p for p in problems)
    assert any("manifest" in p for p in problems)


def test_table1_rejects_statistic_out_of_tolerance(run_copy: Path) -> None:
    report = json.loads((run_copy / "report.json").read_text())
    corpus = checks.read_jsonl(run_copy / "corpus.jsonl")
    assert checks.check_table1(corpus, report) == []
    report["us_located"] = report["collected"] // 2
    assert checks.check_table1(corpus, report)


# -- serve_queries --------------------------------------------------------


@pytest.fixture
def served(outputs: dict) -> tuple[list[dict], list[dict], dict]:
    attention = json.loads((outputs["run_dir"] / "attention.json").read_text())
    return (
        checks.read_jsonl(outputs["requests"]),
        checks.read_jsonl(outputs["responses"]),
        attention,
    )


def first(responses: list[dict], requests: list[dict], kind: str, key: str) -> dict:
    ids = {r["id"] for r in requests if r["kind"] == kind}
    return next(
        r for r in responses
        if r["request_id"] in ids and r["payload"] and r["payload"].get(key)
    )


def test_serve_checks_pass_on_real_responses(outputs: dict, served) -> None:
    requests, responses, attention = served
    assert checks.check_serve(requests, responses, outputs["responses"], attention) == []


def test_serve_accounting_rejects_lost_response(served) -> None:
    requests, responses, __ = served
    assert checks.check_serve_accounting(requests, responses[1:])


def test_serve_accounting_rejects_shed_request(served) -> None:
    requests, responses, __ = served
    responses[4]["outcome"] = "rejected"
    assert checks.check_serve_accounting(requests, responses)


def test_state_signature_rejects_altered_weight(served) -> None:
    requests, responses, attention = served
    response = first(responses, requests, "state_signature", "signature")
    response["payload"]["signature"][0][1] += 1e-6
    assert checks.check_state_signatures(requests, responses, attention)


def test_relative_risk_rejects_unsupported_highlight(served) -> None:
    requests, responses, attention = served
    response = first(responses, requests, "relative_risk", "found")
    state = response["payload"]["state"]
    risks = checks.relative_risks(attention)
    weak = next(
        organ for organ in checks.ORGANS
        if risks.get((state, organ), (0.0, 0.0))[1] <= 1.0
    )
    response["payload"]["highlighted"] = [weak]
    assert checks.check_relative_risks(requests, responses, attention)


def test_cluster_profile_rejects_altered_weight(served) -> None:
    requests, responses, __ = served
    response = first(responses, requests, "cluster_profile", "profile")
    response["payload"]["profile"][0][1] += 0.01
    assert checks.check_cluster_profiles(requests, responses)


def test_cluster_profile_rejects_altered_size(served) -> None:
    requests, responses, __ = served
    ids = {r["id"] for r in requests if r["kind"] == "cluster_profile"}
    for response in responses:
        if response["request_id"] in ids and response["payload"]["cluster"] == 0:
            response["payload"]["relative_size"] += 0.01
    assert checks.check_cluster_profiles(requests, responses)


def test_responses_manifest_rejects_flipped_byte(outputs: dict, tmp_path: Path) -> None:
    copy = tmp_path / "responses.jsonl"
    shutil.copyfile(outputs["responses"], copy)
    shutil.copyfile(
        outputs["responses"].with_name("responses.jsonl.manifest.json"),
        tmp_path / "responses.jsonl.manifest.json",
    )
    assert checks.check_manifest(copy) == []
    data = bytearray(copy.read_bytes())
    data[100] ^= 0x01
    copy.write_bytes(bytes(data))
    assert checks.check_manifest(copy)


# -- collect_sharded ------------------------------------------------------


def test_collect_checks_pass_on_real_collect(outputs: dict) -> None:
    assert checks.check_collect(
        outputs["base"] / "sharded.jsonl", outputs["run_dir"] / "corpus.jsonl",
        outputs["collect_out"], 2,
    ) == []


def test_collect_rejects_flipped_record(outputs: dict, tmp_path: Path) -> None:
    copy = tmp_path / "sharded.jsonl"
    shutil.copyfile(outputs["base"] / "sharded.jsonl", copy)
    edit_jsonl(copy, 2, lambda r: r["mentions"].update(heart=9))
    assert checks.check_collect(
        copy, outputs["run_dir"] / "corpus.jsonl", outputs["collect_out"], 2
    )


def test_collect_rejects_lost_shard(outputs: dict) -> None:
    output = outputs["collect_out"].replace(
        "Tasks completed: 2", "Tasks completed: 1"
    )
    assert checks.check_collect(
        outputs["base"] / "sharded.jsonl", outputs["run_dir"] / "corpus.jsonl",
        output, 2,
    )


# -- monitor_replay -------------------------------------------------------


@pytest.fixture
def monitor_expected(outputs: dict) -> tuple[int, int, tuple[int, int]]:
    firehose = outputs["run_dir"] / "firehose.jsonl"
    corpus = checks.read_jsonl(outputs["run_dir"] / "corpus.jsonl")
    window = checks.window_recount(corpus, checks.newest_timestamp(firehose), 60)
    return checks.count_lines(firehose), len(corpus), window


def test_monitor_checks_pass_on_real_replay(outputs: dict, monitor_expected) -> None:
    assert checks.check_monitor(outputs["monitor_out"], *monitor_expected) == []


def test_monitor_rejects_wrong_seen_count(outputs: dict, monitor_expected) -> None:
    lines = monitor_expected[0]
    output = outputs["monitor_out"].replace(f"{lines:,} seen", f"{lines + 1:,} seen")
    assert checks.check_monitor(output, *monitor_expected)


def test_monitor_rejects_wrong_retained_count(outputs: dict, monitor_expected) -> None:
    retained = monitor_expected[1]
    output = outputs["monitor_out"].replace(
        f"{retained:,} retained", f"{retained - 1:,} retained"
    )
    assert checks.check_monitor(output, *monitor_expected)


def test_monitor_rejects_altered_final_snapshot(outputs: dict, monitor_expected) -> None:
    tweets, users = monitor_expected[2]
    output = outputs["monitor_out"].replace(
        f"tweets={tweets} users={users}", f"tweets={tweets + 1} users={users}"
    )
    assert checks.check_monitor(output, *monitor_expected)
