"""One traced (or, with --untraced, plain) pass in a fresh interpreter.

    traced_child.py demo <file.fpde> <out.json> <job id> [--untraced]
        installs the wrappers, then calls fraclie.cli.main(["analyze", file,
        "--emit", "json"]); the report goes to stdout as from the CLI.
    traced_child.py certify <seed> <out.json> [--untraced]
        runs one fixed pass of the workload's jobs in this process.

Writes {"trace": snapshot or null, "jobs": [[input, seconds, why], ...]} to
out.json.  A fresh process per pass makes call counts repeat exactly.
"""
from __future__ import annotations

import json
import random
import sys
import time

from common import use_source_tree
from tracing import Tracer
from workloads import load_references, rounds, traced

# Certify batches in one traced pass: enough for a steady overhead estimate.
PASS_ROUNDS = 10


def main(argv: list[str]) -> int:
    untraced = "--untraced" in argv
    args = [a for a in argv if a != "--untraced"]
    use_source_tree()
    tracer = None if untraced else Tracer()
    if tracer is not None:
        tracer.install()
    code = 0
    jobs = []
    if args[0] == "demo":
        file, out_path, job_id = args[1:4]
        import fraclie.cli
        with traced(tracer, job_id):
            t0 = time.perf_counter()
            code = fraclie.cli.main(["analyze", file, "--emit", "json"])
            jobs.append([job_id, time.perf_counter() - t0, None])
    else:
        workload, seed, out_path = args[0], int(args[1]), args[2]
        gen = rounds(workload, load_references(), random.Random(seed))
        for _ in range(PASS_ROUNDS):
            for name, job in next(gen):
                seconds, why = job(tracer)
                jobs.append([name, seconds, why])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"trace": tracer.snapshot() if tracer else None, "jobs": jobs}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
