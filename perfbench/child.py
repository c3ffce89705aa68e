"""One measured round, run in a fresh process.

``python3 perfbench/child.py SPEC`` reads a JSON spec written by
``run.py``, imports the program, marks the moment it is ready, does one
round of the workload's work through the CLI (or, for serving, the API
the CLI itself uses), and writes a JSON result next to the spec:

* ``ready``: ``CLOCK_MONOTONIC`` when set-up ended.  ``run.py`` took the
  same clock just before starting this process, so the difference is
  the set-up time, interpreter start included.
* ``wall_s``: the round's work after set-up.
* ``peak_rss_mb``: the highest resident set of this process or of any
  worker it waited for.
* ``exit``: the CLI's exit code (0 for the serve API).

With ``"setup_only": true`` the process stops once it is ready: an
extra set-up sample that does no work.

With ``"traced": true`` the spec instead runs the layer probes of
``layers.py`` and the result carries their metrics and spans.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def serve_round(spec: dict) -> dict:
    from repro.serve import QueryService, read_requests_jsonl, write_responses_jsonl

    service = QueryService(spec["run_dir"])
    ready = now()
    if spec.get("setup_only"):
        return {"ready": ready, "wall_s": None, "exit": 0}
    requests, malformed = read_requests_jsonl(spec["requests"])
    result = service.serve(requests, malformed)
    write_responses_jsonl(result.responses, spec["output"])
    return {"ready": ready, "wall_s": now() - ready, "exit": 0}


def cli_round(spec: dict) -> dict:
    from repro.cli.main import main

    ready = now()
    if spec.get("setup_only"):
        return {"ready": ready, "wall_s": None, "exit": 0}
    with open(spec["log"], "w", encoding="utf-8") as log:
        with contextlib.redirect_stdout(log):
            code = main(spec["argv"])
    return {"ready": ready, "wall_s": now() - ready, "exit": code}


def main() -> int:
    spec_path = Path(sys.argv[1])
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if spec.get("traced"):
        import layers

        result = layers.run_traced(spec)
    elif spec["workload"] == "serve_queries":
        result = serve_round(spec)
    else:
        result = cli_round(spec)
    result["peak_rss_mb"] = peak_rss_mb()
    spec_path.with_suffix(".result.json").write_text(
        json.dumps(result), encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
