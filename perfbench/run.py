"""The repository benchmark: end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_run --seed 1 --seconds 35 --trace 0

builds the seed's inputs (``inputs.py``), then repeats rounds of the
workload, each in a fresh process (``child.py``), for ``--seconds``
(and at least two rounds); checks every round's outputs
(``checks.py``); and prints, as the last line of standard output, one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json`` (medians over the rounds); with ``--trace 1`` one
untraced round is followed by the traced probes of ``layers.py`` and
the metrics are the per-layer ones.

``BENCHMARK.json`` lists the workloads the benchmark gates on.
``collect_sharded`` runs the same way but is not among them: on two
CPUs its two-worker rounds spread too much from run to run to hold a
bound, so its figures have none; its layers are still measured by the
traced probe that every traced run makes.

``--sets N`` instead runs two interleaved sets of N runs per workload
(seeds ``--first-seed`` onwards, the same seeds in both sets), prints
each set's median and quartiles per end-to-end metric, and says whether
the two sets agree within the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import layers

BENCH_DIR = Path(__file__).resolve().parent

WORKLOADS = ("paper_run", "serve_queries", "collect_sharded", "monitor_replay")

#: paper_run scale.  The Table I calibration held at 0.1 for seeds 0-30
#: (the worst statistic used 0.69 of its tolerance); at 0.03 it fails
#: for some seeds.
PAPER_SCALE = 0.1

COLLECT_WORKERS = 2

#: ``repro monitor`` defaults, spelled out so the checks can use them.
MONITOR = {"window_days": 60, "emit_every": 1000, "min_users": 15}

PAPER_STAGE_COUNT = len(layers.PAPER_STAGES)

#: No new round starts once the run has lasted this long, and no child
#: process may outlive the run's deadline, so that a run ends inside the
#: 180 s it is allowed (the first run in a checkout also builds inputs).
RUN_BUDGET_S = 120.0
RUN_DEADLINE_S = 170.0

#: wall_s and peak_rss_mb are medians of at least this many rounds.  A
#: further round starts only if it would still end within ``--seconds``
#: when it lasts as long as the last one, so that a run with rounds as
#: long as ``paper_run``'s (10-16 s) does not outlast ``--seconds`` by
#: most of a round, which the time allowed for all runs cannot absorb.
MIN_ROUNDS = 2

#: setup_s is the median of at least this many samples: a workload with
#: fewer rounds (paper_run has two) adds set-up-only processes.
SETUP_SAMPLES = 7


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def bench_env(root: Path) -> dict[str, str]:
    """The fixed environment every measured process runs in."""
    threads = "1"
    env = {
        "PATH": os.environ.get("PATH", "/usr/local/bin:/usr/bin:/bin"),
        "PYTHONPATH": str(root / "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONUTF8": "1",
        "LC_ALL": "C.UTF-8",
        "TMPDIR": str(root / ".bench_work" / "tmp"),
        "OMP_NUM_THREADS": threads,
        "OPENBLAS_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
        "NUMEXPR_NUM_THREADS": threads,
    }
    if "LD_LIBRARY_PATH" in os.environ:
        env["LD_LIBRARY_PATH"] = os.environ["LD_LIBRARY_PATH"]
    return env


def run_process(cmd: list[str], env: dict[str, str], log_path: Path,
                timeout: float) -> int:
    """Run a process in its own session; kill the whole group when done.

    Killing the group after the process returns also ends any worker it
    left behind, so no process of a round outlives the round.
    """
    with open(log_path, "ab") as out:
        proc = subprocess.Popen(
            cmd, env=env, stdout=out, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = -signal.SIGKILL
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    return code


@dataclass
class Round:
    """One measured round of a workload."""

    elapsed_s: float
    attempted: int
    failed: int
    problems: list[str]
    setup_s: float | None = None
    wall_s: float | None = None
    peak_rss_mb: float | None = None


@dataclass
class Bench:
    """One benchmark run: a workload on one seed's inputs."""

    root: Path
    workload: str
    seed: int
    env: dict[str, str]
    inputs: inputs.Inputs | None
    work: Path
    deadline: float
    expected: dict = field(default_factory=dict)
    rounds_started: int = 0

    def fresh_dir(self, tag: str) -> Path:
        base = self.work / tag
        shutil.rmtree(base, ignore_errors=True)
        base.mkdir(parents=True)
        return base

    def start_child(self, spec: dict, tag: str, base: Path) -> tuple[dict | None, float]:
        """Run ``child.py`` on a spec; its result (None if it failed) and
        the process's lifetime."""
        spec_path = base / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        started = now()
        code = run_process(
            [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
            self.env, base / "child.log", max(10.0, self.deadline - now()),
        )
        elapsed = now() - started
        result_path = spec_path.with_suffix(".result.json")
        result = None
        if code == 0 and result_path.is_file():
            result = json.loads(result_path.read_text(encoding="utf-8"))
            result["setup_s"] = result["ready"] - started
        else:
            log(f"{tag}: child exited {code}; see {base / 'child.log'}")
        return result, elapsed

    # -- untraced rounds ------------------------------------------------

    def round_spec(self, base: Path, extra_argv: tuple[str, ...] = ()) -> dict:
        spec: dict = {"workload": self.workload, "log": str(base / "cli.log")}
        if self.workload == "paper_run":
            spec["argv"] = ["run", str(base / "run"), "--scale", str(PAPER_SCALE),
                            "--seed", str(self.seed), *extra_argv]
        elif self.workload == "serve_queries":
            spec.update(run_dir=str(self.inputs.run_dir),
                        requests=str(self.inputs.requests),
                        output=str(base / "responses.jsonl"))
        elif self.workload == "collect_sharded":
            spec["argv"] = ["collect", str(self.inputs.firehose),
                            str(base / "corpus.jsonl"),
                            "--workers", str(COLLECT_WORKERS)]
        else:
            spec["argv"] = ["monitor", str(self.inputs.firehose),
                            "--window-days", str(MONITOR["window_days"]),
                            "--emit-every", str(MONITOR["emit_every"]),
                            "--min-users", str(MONITOR["min_users"])]
        return spec

    def run_round(self) -> Round:
        self.rounds_started += 1
        tag = f"round-{self.rounds_started}"
        base = self.fresh_dir(tag)
        result, elapsed = self.start_child(self.round_spec(base), tag, base)
        if result is None or result["exit"] != 0:
            attempted = self.expected_operations()
            return Round(elapsed, attempted, attempted, [f"{tag} did not finish"])
        attempted, failed, problems = self.account(base)
        shutil.rmtree(base, ignore_errors=True)
        return Round(
            elapsed, attempted, failed, [f"{tag}: {p}" for p in problems],
            setup_s=result["setup_s"], wall_s=result["wall_s"],
            peak_rss_mb=result["peak_rss_mb"],
        )

    def setup_sample(self) -> float | None:
        """Set-up time of a process that stops once it is ready."""
        base = self.fresh_dir("setup")
        spec = dict(self.round_spec(base), setup_only=True)
        result, __ = self.start_child(spec, "setup", base)
        shutil.rmtree(base, ignore_errors=True)
        return None if result is None else result["setup_s"]

    def expected_operations(self) -> int:
        return {
            "paper_run": PAPER_STAGE_COUNT,
            "serve_queries": inputs.N_REQUESTS,
            "collect_sharded": COLLECT_WORKERS,
            "monitor_replay": max(1, self.expected.get("snapshots", 1)),
        }[self.workload]

    def prepare_expectations(self) -> None:
        """Reference values computed once per run, apart from the program."""
        if self.workload == "serve_queries":
            self.expected["attention"] = json.loads(
                (self.inputs.run_dir / "attention.json").read_text(encoding="utf-8")
            )
            self.expected["requests"] = checks.read_jsonl(self.inputs.requests)
        elif self.workload == "monitor_replay":
            corpus = checks.read_jsonl(self.inputs.serial_corpus)
            self.expected["firehose_lines"] = checks.count_lines(self.inputs.firehose)
            self.expected["serial_retained"] = len(corpus)
            self.expected["final_window"] = checks.window_recount(
                corpus, checks.newest_timestamp(self.inputs.firehose),
                MONITOR["window_days"],
            )
            # RollingAwarenessSensor.run: one snapshot per emit_every
            # retained tweets, plus the final one.
            self.expected["snapshots"] = len(corpus) // MONITOR["emit_every"] + 1

    def account(self, base: Path) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) of a finished round."""
        if self.workload == "paper_run":
            run_dir = base / "run"
            journal = json.loads((run_dir / "journal.json").read_text(encoding="utf-8"))
            done = len(journal["stages"])
            return PAPER_STAGE_COUNT, PAPER_STAGE_COUNT - done, checks.check_paper_run(run_dir)
        if self.workload == "serve_queries":
            # Serving is deterministic for a fixed request file, so a round
            # whose responses are byte-identical to a fully checked round
            # needs no second pass over its 50k answers.
            responses_path = base / "responses.jsonl"
            digest = checks.sha256_file(responses_path)
            if digest == self.expected.get("checked_responses"):
                return inputs.N_REQUESTS, self.expected["failed_responses"], []
            responses = checks.read_jsonl(responses_path)
            failed = sum(r["outcome"] != "completed" for r in responses)
            problems = checks.check_serve(
                self.expected["requests"], responses, responses_path,
                self.expected["attention"],
            )
            if not problems:
                self.expected["checked_responses"] = digest
                self.expected["failed_responses"] = failed
            return inputs.N_REQUESTS, failed, problems
        output = (base / "cli.log").read_text(encoding="utf-8")
        if self.workload == "collect_sharded":
            supervised, lost = checks.shard_counts(output)
            problems = checks.check_collect(
                base / "corpus.jsonl", self.inputs.serial_corpus, output,
                COLLECT_WORKERS,
            )
            return max(supervised, COLLECT_WORKERS), lost, problems
        snapshots, __ = checks.parse_monitor(output)
        problems = checks.check_monitor(
            output, self.expected["firehose_lines"],
            self.expected["serial_retained"], self.expected["final_window"],
        )
        if len(snapshots) != self.expected["snapshots"]:
            problems.append(
                f"{len(snapshots)} snapshots, expected {self.expected['snapshots']}"
            )
        expected = self.expected["snapshots"]
        return expected, max(0, expected - len(snapshots)), problems

    # -- traced run -----------------------------------------------------

    def probe_spec(self, probe: str, base: Path) -> dict:
        spec = {"traced": True, "probe": probe, "seed": self.seed,
                "spans": str(base / "spans.jsonl"), "work_dir": str(base)}
        if probe == "paper_run":
            spec["scale"] = PAPER_SCALE
        elif probe == "serve_queries":
            spec.update(run_dir=str(self.inputs.run_dir),
                        requests=str(self.inputs.requests),
                        output=str(base / "responses.jsonl"))
        elif probe == "collect_sharded":
            spec.update(firehose=str(self.inputs.firehose),
                        output=str(base / "corpus.jsonl"),
                        workers=COLLECT_WORKERS)
        else:
            spec.update(firehose=str(self.inputs.firehose), **MONITOR)
        return spec

    def traced(self, untraced_wall: float | None) -> tuple[dict, list[str]]:
        """Per-layer metrics from every probe; the own workload's last."""
        metrics: dict[str, float | None] = {}
        problems: list[str] = []
        trace_dir = self.root / ".bench_work" / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        order = [w for w in WORKLOADS if w != self.workload] + [self.workload]
        own: dict = {}
        for probe in order:
            base = self.fresh_dir(f"probe-{probe}")
            result, __ = self.start_child(self.probe_spec(probe, base), probe, base)
            if result is None:
                problems.append(f"traced probe {probe} failed")
                continue
            absent = [name for name, value in result["metrics"].items() if value is None]
            if absent:
                log(f"probe {probe}: absent ({result['absent_layer'] or 'layer missing'}): "
                    + ", ".join(absent))
            spans = trace_dir / f"{self.workload}-seed{self.seed}-{probe}.spans.jsonl"
            shutil.copyfile(base / "spans.jsonl", spans)
            log(f"spans of probe {probe}: {spans}")
            metrics.update(result["metrics"])
            if probe == self.workload:
                own = result
            shutil.rmtree(base, ignore_errors=True)
        if own.get("traced_total_s") is not None and untraced_wall is not None:
            metrics["trace.overhead_s"] = own["traced_total_s"] - untraced_wall
        else:
            metrics["trace.overhead_s"] = None
        if self.workload == "paper_run" and own:
            problems += self.compare_stages(own["stage_sums"])
        return metrics, problems

    def compare_stages(self, stage_sums: dict[str, float]) -> list[str]:
        """Run ``repro run --trace`` once; print its stage spans beside ours."""
        base = self.fresh_dir("program-trace")
        spec = self.round_spec(base, ("--trace",))
        result, __ = self.start_child(spec, "repro run --trace", base)
        trace_path = base / "run" / "trace.jsonl"
        if result is None or result["exit"] != 0 or not trace_path.is_file():
            return ["repro run --trace failed"]
        program: dict[str, float] = {}
        for row in checks.read_jsonl(trace_path):
            if row.get("kind") == "span" and row["name"].startswith("stage."):
                name = row["name"][len("stage."):]
                program[name] = program.get(name, 0.0) + row["duration"]
        print(f"{'stage':<12}{'program stage.* span':>22}{'benchmark sum':>16}")
        for name in layers.PAPER_STAGES:
            print(f"{name:<12}{program.get(name, float('nan')):>22.4f}"
                  f"{stage_sums.get(name, float('nan')):>16.4f}")
        shutil.rmtree(base, ignore_errors=True)
        return []


def load_benchmark(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def compile_bytecode(root: Path, env: dict[str, str]) -> None:
    """Compile the program and the benchmark before any timed round."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src"), str(BENCH_DIR)],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=300,
    )


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = now()
    env = bench_env(root)
    (root / ".bench_work" / "tmp").mkdir(parents=True, exist_ok=True)
    compile_bytecode(root, env)
    # An untraced paper_run needs no inputs: each round generates its own
    # world.  Its traced run probes every workload, so it needs them all.
    built = None if workload == "paper_run" and not trace else inputs.build(root, seed, env)
    work = root / ".bench_work" / "rounds" / f"{workload}-seed{seed}-{os.getpid()}"
    bench = Bench(root, workload, seed, env, built, work,
                  deadline=max(started + RUN_DEADLINE_S, now() + 60.0))
    bench.prepare_expectations()
    rounds: list[Round] = []
    measured = 0.0
    try:
        while not rounds or (
            not trace
            and (len(rounds) < MIN_ROUNDS or measured + rounds[-1].elapsed_s <= seconds)
            and now() - started + rounds[-1].elapsed_s < RUN_BUDGET_S
        ):
            rounds.append(bench.run_round())
            measured += rounds[-1].elapsed_s
        problems = [p for r in rounds for p in r.problems]
        done = [r for r in rounds if r.wall_s is not None]
        log("rounds (setup_s, wall_s, peak_rss_mb): " + " ".join(
            f"({r.setup_s:.3f}, {r.wall_s:.3f}, {r.peak_rss_mb:.1f})" for r in done))
        if trace:
            wall = done[0].wall_s if done else None
            values, more = bench.traced(wall)
            problems += more
        else:
            values = {
                name: statistics.median(getattr(r, name) for r in done) if done else None
                for name in ("wall_s", "peak_rss_mb")
            }
            setups = [r.setup_s for r in done]
            while done and len(setups) < SETUP_SAMPLES:
                sample = bench.setup_sample()
                if sample is None:
                    problems.append("a set-up sample did not finish")
                    break
                setups.append(sample)
            values["setup_s"] = statistics.median(setups) if setups else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    spec = load_benchmark(root)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for problem in problems[:20]:
        log(f"check failed: {problem}")
    log(f"{workload} seed {seed}: {len(rounds)} rounds in {measured:.1f} s "
        f"(run took {now() - started:.1f} s)")
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {
            m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
            for m in wanted
        },
    }


# -- two interleaved sets -------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_sets(root: Path, workloads: list[str], runs: int, first_seed: int,
             seconds: int) -> int:
    """Two interleaved sets of ``runs`` runs per workload, compared."""
    spec = load_benchmark(root)
    ok = True
    for workload in workloads:
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for index in range(runs):
            seed = first_seed + index
            for name in ("AB" if index % 2 == 0 else "BA"):
                out = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                    cwd=root, stdout=subprocess.PIPE, text=True, timeout=600,
                )
                result = json.loads(out.stdout.strip().splitlines()[-1])
                sets[name].append(result)
                log(f"{workload} set {name} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()))
        print(f"\n{workload} ({runs} runs per set, {seconds} s each)")
        for name, results in sets.items():
            correct = all(r["correct"] for r in results)
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            print(f"  set {name}: correct={correct} failed {failed} of {attempted}")
            ok &= correct
        share = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                 for rs in sets.values()]
        ok &= share[0] == share[1]
        for metric in spec["end_to_end"]:
            stats = {}
            for name, results in sets.items():
                q1, med, q3 = quartiles([r["metrics"][metric["name"]]["value"]
                                         for r in results])
                stats[name] = (q1, med, q3)
                print(f"  {metric['name']:<12} set {name}: median {med:.4f} "
                      f"{metric['unit']}  quartiles {q1:.4f} / {q3:.4f}  "
                      f"spread {(q3 - q1) / med:.3f}")
            change = (stats["B"][1] - stats["A"][1]) / stats["A"][1]
            agree = abs(change) <= metric["bound"]
            spread_ok = all((q3 - q1) / med <= metric["bound"]
                            for q1, med, q3 in stats.values())
            print(f"  {metric['name']:<12} B vs A {change:+.3f} (bound "
                  f"{metric['bound']}): {'agree' if agree else 'DISAGREE'}; "
                  f"spreads {'within' if spread_ok else 'OUTSIDE'} bound")
            ok &= agree and (spread_ok or metric["name"] == "setup_s")
    print(json.dumps({"sets_agree": ok}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, default=0, metavar="N",
                        help="run two interleaved sets of N runs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli" / "main.py").is_file():
        log(f"error: {root} is not a checkout of the program (no src/repro)")
        return 2
    if not (root / "BENCHMARK.json").is_file():
        log(f"error: no BENCHMARK.json in {root}")
        return 2
    seconds = args.seconds or load_benchmark(root)["run_seconds"]
    if args.sets:
        workloads = args.workload or [w["name"] for w in load_benchmark(root)["workloads"]]
        return run_sets(root, workloads, args.sets, args.first_seed, seconds)
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload (or --sets N)")
    result = measure(root, args.workload[0], args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
