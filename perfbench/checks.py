"""Output checks, computed apart from the program.

Every check reads the files a workload left behind and returns a list
of problems; an empty list means the check passed.  The checks use only
the standard library and recompute what they compare against (tallies,
hashes, statistics, relative risks) instead of calling the program, so
a fault in the program cannot hide itself by breaking its own oracle.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import zlib
from collections import Counter, defaultdict
from datetime import datetime, timedelta
from pathlib import Path

ORGANS = ("heart", "kidney", "liver", "lung", "pancreas", "intestine")

#: USPS codes of the 50 states, DC and Puerto Rico: the state-equivalents
#: the program's gazetteer resolves locations to.
US_STATES = frozenset(
    "AL AK AZ AR CA CO CT DE DC FL GA HI ID IL IN IA KS KY LA ME MD MA MI "
    "MN MS MO MT NE NV NH NJ NM NY NC ND OH OK OR PA PR RI SC SD TN TX UT "
    "VT VA WA WV WI WY".split()
)

#: Table I targets (the paper's values) and the accepted deviations of
#: ``src/repro/synth/calibration.py``, copied so the check does not
#: depend on the code it checks.
TABLE1_TARGETS = {
    "us_yield": (134_986 / 975_021, 0.03),
    "avg_tweets_per_user": (1.88, 0.25),
    "organs_per_tweet": (1.03, 0.05),
    "organs_per_user": (1.13, 0.09),
    "collection_days": (385.0, 2.0),
}

#: Two-sided 95% normal quantile used by the paper's relative-risk test.
Z_95 = 1.959963984540054

#: Served weights are rounded to 9 decimals.
PAYLOAD_TOLERANCE = 1e-9


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line.strip())


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def parse_time(text: str) -> datetime:
    return datetime.fromisoformat(text)


# -- integrity ----------------------------------------------------------


def check_manifest(path: Path) -> list[str]:
    """A data file matches its ``<file>.manifest.json`` sidecar."""
    sidecar = path.with_name(path.name + ".manifest.json")
    if not sidecar.is_file():
        return [f"{path.name}: no manifest sidecar"]
    manifest = json.loads(sidecar.read_text(encoding="utf-8"))
    data = path.read_bytes()
    problems = []
    if manifest["sha256"] != hashlib.sha256(data).hexdigest():
        problems.append(f"{path.name}: sha256 differs from its manifest")
    if manifest["size_bytes"] != len(data):
        problems.append(f"{path.name}: size differs from its manifest")
    crcs = manifest.get("record_crcs")
    if crcs is not None:
        lines = data.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        fresh = [zlib.crc32(line) & 0xFFFFFFFF for line in lines]
        if fresh != crcs:
            problems.append(f"{path.name}: record CRCs differ from its manifest")
    return problems


def check_run_integrity(run_dir: Path) -> list[str]:
    """Journal hashes and every manifest sidecar match fresh hashes."""
    problems = []
    journal = json.loads((run_dir / "journal.json").read_text(encoding="utf-8"))
    for stage, artifacts in journal["stages"].items():
        for name, recorded in artifacts.items():
            path = run_dir / name
            if not path.is_file():
                problems.append(f"journal stage {stage}: {name} is missing")
            elif sha256_file(path) != recorded:
                problems.append(f"journal stage {stage}: {name} hash differs")
    sidecars = sorted(run_dir.glob("*.manifest.json"))
    if not sidecars:
        problems.append("run directory has no manifest sidecars")
    for sidecar in sidecars:
        problems.extend(
            check_manifest(sidecar.with_name(sidecar.name[: -len(".manifest.json")]))
        )
    return problems


# -- paper_run ----------------------------------------------------------


def check_funnel(run_dir: Path) -> list[str]:
    """The collect funnel in report.json is conserved."""
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    problems = []
    lines = count_lines(run_dir / "firehose.jsonl")
    if lines != report["collected"] + report["stream_dropped"]:
        problems.append(
            f"firehose has {lines} lines, report accounts for "
            f"{report['collected'] + report['stream_dropped']}"
        )
    dropped = (
        report["retained"]
        + report["non_us"]
        + report["unresolved"]
        + report["no_mentions"]
    )
    if report["collected"] != dropped:
        problems.append(
            f"collected {report['collected']} != retained + non_us + "
            f"unresolved + no_mentions = {dropped}"
        )
    corpus_lines = count_lines(run_dir / "corpus.jsonl")
    if corpus_lines != report["retained"]:
        problems.append(
            f"corpus has {corpus_lines} lines, report says {report['retained']} "
            "retained"
        )
    return problems


def check_corpus_records(corpus: list[dict]) -> list[str]:
    """Every record carries a US state and at least one of the six organs."""
    problems = []
    for index, record in enumerate(corpus):
        location = record["location"]
        if location.get("country") != "US" or location.get("state") not in US_STATES:
            problems.append(f"corpus record {index}: no US state ({location})")
        mentions = record["mentions"]
        if not any(mentions.get(organ, 0) > 0 for organ in ORGANS) or any(
            name not in ORGANS for name in mentions
        ):
            problems.append(f"corpus record {index}: bad mentions {mentions}")
        if len(problems) >= 5:
            break
    return problems


def tally_mentions(corpus: list[dict]) -> dict[int, list[int]]:
    """user id -> total mentions per organ, in ORGANS order."""
    tally: dict[int, list[int]] = defaultdict(lambda: [0] * len(ORGANS))
    for record in corpus:
        row = tally[record["tweet"]["user"]["user_id"]]
        for organ, count in record["mentions"].items():
            row[ORGANS.index(organ)] += count
    return tally


def check_attention(attention: dict, corpus: list[dict]) -> list[str]:
    """Each attention.json row equals the corpus tally for that user."""
    tally = tally_mentions(corpus)
    problems = []
    if sorted(tally) != list(attention["user_ids"]):
        problems.append("attention.json users differ from the corpus users")
        return problems
    for user_id, row in zip(attention["user_ids"], attention["counts"]):
        if [float(v) for v in tally[user_id]] != list(row):
            problems.append(f"attention row of user {user_id} differs from tally")
            break
    return problems


def table1_statistics(corpus: list[dict], report: dict) -> dict[str, float]:
    """Scale-free Table I statistics recomputed from the files."""
    users: dict[int, set[str]] = defaultdict(set)
    organs_per_tweet = []
    times = []
    for record in corpus:
        organs = {organ for organ, count in record["mentions"].items() if count > 0}
        organs_per_tweet.append(len(organs))
        users[record["tweet"]["user"]["user_id"]].update(organs)
        times.append(parse_time(record["tweet"]["created_at"]))
    return {
        "us_yield": report["us_located"] / report["collected"],
        "avg_tweets_per_user": len(corpus) / len(users),
        "organs_per_tweet": sum(organs_per_tweet) / len(corpus),
        "organs_per_user": sum(len(o) for o in users.values()) / len(users),
        "collection_days": float(
            (max(times).date() - min(times).date()).days + 1
        ),
    }


def check_table1(corpus: list[dict], report: dict) -> list[str]:
    """Each statistic lies within the paper's target +- tolerance."""
    measured = table1_statistics(corpus, report)
    return [
        f"Table I {name}: {measured[name]:.4f} outside {target:.4f} +- {tol}"
        for name, (target, tol) in TABLE1_TARGETS.items()
        if abs(measured[name] - target) > tol
    ]


def check_paper_run(run_dir: Path) -> list[str]:
    """All paper_run checks over one finished run directory."""
    corpus = read_jsonl(run_dir / "corpus.jsonl")
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    attention = json.loads((run_dir / "attention.json").read_text(encoding="utf-8"))
    return (
        check_funnel(run_dir)
        + check_corpus_records(corpus)
        + check_attention(attention, corpus)
        + check_run_integrity(run_dir)
        + check_table1(corpus, report)
    )


# -- serve_queries ------------------------------------------------------


def state_means(attention: dict) -> dict[str, list[float]]:
    """Eq. 3 with a one-hot region L: per-state mean of normalized rows."""
    sums: dict[str, list[float]] = {}
    sizes: Counter[str] = Counter()
    for state, row in zip(attention["states"], attention["counts"]):
        if state is None:
            continue
        total = sum(row)
        acc = sums.setdefault(state, [0.0] * len(ORGANS))
        for index, value in enumerate(row):
            acc[index] += value / total
        sizes[state] += 1
    return {
        state: [value / sizes[state] for value in acc]
        for state, acc in sums.items()
    }


def relative_risks(attention: dict) -> dict[tuple[str, str], tuple[float, float]]:
    """(state, organ) -> (RR, lower 95% limit) from user-level prevalence."""
    users_by_state: Counter[str] = Counter()
    inside: Counter[tuple[str, str]] = Counter()
    total: Counter[str] = Counter()
    for state, row in zip(attention["states"], attention["counts"]):
        if state is None:
            continue
        users_by_state[state] += 1
        for organ, value in zip(ORGANS, row):
            if value > 0:
                inside[state, organ] += 1
                total[organ] += 1
    n_users = sum(users_by_state.values())
    risks = {}
    for state, n_state in users_by_state.items():
        n_outside = n_users - n_state
        for organ in ORGANS:
            a = inside[state, organ]
            b = total[organ] - a
            if a == 0 or b == 0 or n_outside == 0:
                continue
            rr = (a / n_state) / (b / n_outside)
            se = math.sqrt(1 / a - 1 / n_state + 1 / b - 1 / n_outside)
            risks[state, organ] = (rr, math.exp(math.log(rr) - Z_95 * se))
    return risks


def check_serve_accounting(
    requests: list[dict], responses: list[dict]
) -> list[str]:
    """One response per request, and every response is completed."""
    problems = []
    asked = Counter(request["id"] for request in requests)
    answered = Counter(response["request_id"] for response in responses)
    if asked != answered:
        problems.append(
            f"{len(responses)} responses do not pair one-to-one with "
            f"{len(requests)} requests"
        )
    outcomes = Counter(response["outcome"] for response in responses)
    if set(outcomes) != {"completed"}:
        problems.append(f"responses not all completed: {dict(outcomes)}")
    return problems


def fresh_answers(
    requests: list[dict], responses: list[dict], kind: str
) -> list[dict]:
    """Payloads of the fresh (status ``ok``) answers to one query kind."""
    ids = {request["id"] for request in requests if request["kind"] == kind}
    return [
        response["payload"]
        for response in responses
        if response["request_id"] in ids and response["status"] == "ok"
    ]


def check_state_signatures(
    requests: list[dict], responses: list[dict], attention: dict
) -> list[str]:
    """Fresh signatures equal the per-state mean of normalized rows."""
    means = state_means(attention)
    problems = []
    for payload in fresh_answers(requests, responses, "state_signature"):
        state = payload["state"]
        if not payload["found"]:
            if state in means:
                problems.append(f"signature for {state} reported missing")
            continue
        expected = means.get(state)
        served = dict(payload["signature"])
        if expected is None or set(served) != set(ORGANS):
            problems.append(f"signature for {state} has no reference")
        elif any(
            abs(served[organ] - expected[index]) > PAYLOAD_TOLERANCE
            for index, organ in enumerate(ORGANS)
        ):
            problems.append(f"signature for {state} differs from Eq. 3")
        if len(problems) >= 5:
            break
    return problems


def check_relative_risks(
    requests: list[dict], responses: list[dict], attention: dict
) -> list[str]:
    """Every highlighted organ has RR > 1 and a lower 95% limit > 1."""
    risks = relative_risks(attention)
    problems = []
    for payload in fresh_answers(requests, responses, "relative_risk"):
        for organ in payload.get("highlighted", ()):
            rr, low = risks.get((payload["state"], organ), (0.0, 0.0))
            if not (rr > 1.0 and low > 1.0):
                problems.append(
                    f"{payload['state']}/{organ} highlighted with RR {rr:.4f}, "
                    f"lower limit {low:.4f}"
                )
        if len(problems) >= 5:
            break
    return problems


def check_cluster_profiles(
    requests: list[dict], responses: list[dict]
) -> list[str]:
    """Profile weights sum to 1; relative sizes over all clusters sum to 1."""
    problems = []
    sizes: dict[int, float] = {}
    k = None
    for payload in fresh_answers(requests, responses, "cluster_profile"):
        weights = sum(weight for __, weight in payload["profile"])
        if abs(weights - 1.0) > len(ORGANS) * PAYLOAD_TOLERANCE:
            problems.append(
                f"cluster {payload['cluster']} weights sum to {weights!r}"
            )
        if sizes.setdefault(payload["cluster"], payload["relative_size"]) != (
            payload["relative_size"]
        ):
            problems.append(f"cluster {payload['cluster']} size changed")
        k = payload["k"]
        if len(problems) >= 5:
            return problems
    if k is None:
        return problems + ["no cluster profile was served"]
    if sorted(sizes) != list(range(k)):
        problems.append(f"clusters served {sorted(sizes)} do not cover k={k}")
    elif abs(sum(sizes.values()) - 1.0) > k * PAYLOAD_TOLERANCE:
        problems.append(f"relative sizes sum to {sum(sizes.values())!r}")
    return problems


def check_serve(
    requests: list[dict], responses: list[dict], responses_path: Path,
    attention: dict,
) -> list[str]:
    """All serve_queries checks over one responses file."""
    return (
        check_serve_accounting(requests, responses)
        + check_state_signatures(requests, responses, attention)
        + check_relative_risks(requests, responses, attention)
        + check_cluster_profiles(requests, responses)
        + check_manifest(responses_path)
    )


# -- collect_sharded ----------------------------------------------------


def cli_rows(output: str) -> dict[str, str]:
    """``label: value`` rows the CLI printed, keyed by label."""
    rows = {}
    for line in output.splitlines():
        label, sep, value = line.partition(": ")
        if sep:
            rows[label.strip()] = value.strip()
    return rows


def shard_counts(output: str) -> tuple[int, int]:
    """(shards supervised, shards lost) from ``repro collect`` output."""
    rows = cli_rows(output)
    supervised = int(rows.get("Tasks supervised", "0").replace(",", ""))
    completed = int(rows.get("Tasks completed", "0").replace(",", ""))
    return supervised, supervised - completed


def check_collect(
    corpus_path: Path, serial_path: Path, output: str, workers: int
) -> list[str]:
    """The sharded corpus equals the serial one and no shard is lost."""
    problems = []
    if corpus_path.read_bytes() != serial_path.read_bytes():
        problems.append("sharded corpus differs from the serial corpus")
    supervised, lost = shard_counts(output)
    if supervised != workers or lost:
        problems.append(f"{supervised} shards supervised, {lost} lost")
    return problems


# -- monitor_replay -----------------------------------------------------

_SNAPSHOT = re.compile(r"^\d{4}-\d{2}-\d{2} tweets=(\d+) users=(\d+) ")
_DONE = re.compile(r"^done: ([\d,]+) seen, ([\d,]+) retained$")


def parse_monitor(output: str) -> tuple[list[tuple[int, int]], tuple[int, int] | None]:
    """Snapshot (tweets, users) pairs and the final (seen, retained)."""
    snapshots = []
    done = None
    for line in output.splitlines():
        match = _SNAPSHOT.match(line)
        if match:
            snapshots.append((int(match[1]), int(match[2])))
            continue
        match = _DONE.match(line)
        if match:
            done = (int(match[1].replace(",", "")), int(match[2].replace(",", "")))
    return snapshots, done


_CREATED = re.compile(rb'"created_at": "([^"]+)"')


def newest_timestamp(firehose: Path) -> datetime:
    """The newest ``created_at`` in a firehose file."""
    with open(firehose, "rb") as handle:
        return max(
            parse_time(_CREATED.search(line)[1].decode()) for line in handle
        )


def window_recount(
    corpus: list[dict], newest: datetime, window_days: int
) -> tuple[int, int]:
    """(tweets, users) of a corpus inside the window ending at ``newest``."""
    horizon = newest - timedelta(days=window_days)
    inside = [
        record
        for record in corpus
        if parse_time(record["tweet"]["created_at"]) >= horizon
    ]
    return len(inside), len({r["tweet"]["user"]["user_id"] for r in inside})


def check_monitor(
    output: str, firehose_lines: int, serial_retained: int,
    final_window: tuple[int, int],
) -> list[str]:
    """Sensor counts agree with the firehose and the serial corpus."""
    snapshots, done = parse_monitor(output)
    if done is None or not snapshots:
        return ["monitor printed no snapshots or no final counts"]
    problems = []
    seen, retained = done
    if seen != firehose_lines:
        problems.append(f"sensor saw {seen} tweets, firehose has {firehose_lines}")
    if retained != serial_retained:
        problems.append(
            f"sensor retained {retained}, serial collect retained {serial_retained}"
        )
    if snapshots[-1] != final_window:
        problems.append(
            f"final snapshot (tweets, users) {snapshots[-1]} != recount "
            f"{final_window}"
        )
    return problems
