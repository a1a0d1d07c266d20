"""fraclie benchmark.

    python3 perfbench/run.py --workload demos|certify --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; fraclie is imported from src/.

--trace 0  timed run: whole rounds of jobs (every input once per round,
           order shuffled by the seed) until S seconds of job time have
           passed and at least MIN_ROUNDS rounds are done, with set-up
           samples taken between rounds.  Prints every end-to-end metric.
--trace 1  traced run: one untraced pass and two traced passes over the same
           seeded jobs, each in a fresh interpreter; prints every per-layer
           metric, the tracing overhead, and fails if a count differs
           between the two traced passes.

Every job's output is checked (see workloads.py).  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.  Exit code 0
when every job was correct, 1 when one was not, 2 when the program is absent.
"""
from __future__ import annotations

import argparse
import json
import random
import re
import resource
import statistics
import sys
import time

from common import (OUT, geomean, pin_threads, program_present, run_child, tail,
                    use_source_tree)
import tracing
from workloads import (Tally, demo_cases, demo_job, load_references, rounds,
                       traced_demo_argv, CHILD)

WORKLOADS = ("demos", "certify")
MIN_ROUNDS = {"demos": 3, "certify": 20}
SETUP_EVERY = 2.0       # seconds of job time between two set-up samples
MIN_SETUP = 5
IMPORT_REPEATS = 3


def import_once() -> float:
    """Wall time of one fresh interpreter running `import fraclie`."""
    t0 = time.perf_counter()
    code, _, err, _ = run_child([sys.executable, "-c", "import fraclie"])
    if code != 0:
        raise RuntimeError(f"import fraclie failed: {err.decode(errors='replace')}")
    return time.perf_counter() - t0


def measure_imports() -> dict[str, float]:
    """Cumulative `-X importtime` seconds of fraclie and fraclie.oracle."""
    argv = [sys.executable, "-X", "importtime", "-c", "import fraclie"]
    found: dict[str, list[float]] = {"fraclie": [], "fraclie.oracle": []}
    run_child(argv)
    for _ in range(IMPORT_REPEATS):
        code, _, err, _ = run_child(argv)
        if code != 0:
            raise RuntimeError(f"import fraclie failed: {err.decode(errors='replace')}")
        seen = {}
        for line in err.decode().splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if m and m.group(2) in found:
                seen[m.group(2)] = int(m.group(1)) / 1e6
        for name in found:
            # a module that `import fraclie` no longer loads costs it nothing
            found[name].append(seen.get(name, 0.0))
    return {name: statistics.median(v) for name, v in found.items()}


# ---------------------------------------------------------------------------
# Timed run
# ---------------------------------------------------------------------------

def timed_run(workload: str, seed: int, seconds: float, refs: dict) -> tuple[dict, Tally]:
    """Whole rounds of jobs for `seconds` of job time.  Set-up is sampled
    between rounds every SETUP_EVERY seconds of job time rather than all at
    once: the speed of a shared host drifts over tens of seconds, and a
    burst of samples would catch one moment of it."""
    import_once()                      # fills the byte-code and file caches
    rng = random.Random(seed)
    tally = Tally()
    rss: list[float] = []
    if workload == "certify":
        use_source_tree()
        import fraclie  # noqa: F401  (in-process workload; import is set-up)
    gen = rounds(workload, refs, rng, rss)
    setup: list[float] = []
    n_rounds, elapsed = 0, 0.0
    while (n_rounds < MIN_ROUNDS[workload] or elapsed < seconds
           or len(setup) < MIN_SETUP):
        if elapsed >= len(setup) * SETUP_EVERY:
            setup.append(import_once())
        t0 = time.perf_counter()
        for name, job in next(gen):
            dt, why = job()
            tally.record(name, dt, why)
        elapsed += time.perf_counter() - t0
        n_rounds += 1
    setup_s = statistics.median(setup)
    peak = max(rss) if rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {workload}, seed {seed}: {tally.attempted} jobs in {n_rounds} "
          f"rounds, {elapsed:.2f} s timed")
    return end_to_end(setup_s, tally, elapsed, peak), tally


def end_to_end(setup_s: float, tally: Tally, elapsed: float, peak_mb: float) -> dict:
    """Every end-to-end metric of a timed run, also printed one per line.
    Job times are those of correct jobs; failures show in ok_ratio."""
    times = tally.all_times() or [float("nan")]
    tail_v, tail_p, beyond = tail(times)
    per_input = {k: statistics.median(v) for k, v in tally.times.items()}
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.tail": (tail_v, "s"),
        "job_s.geomean": (geomean(per_input.values()) if per_input else float("nan"), "s"),
        "jobs_per_s": ((tally.attempted - tally.failed) / elapsed, "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_ratio": (1.0 - tally.fail_ratio, "ratio"),
    }
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "job_s.tail":
            note = f"   (p{tail_p:.0f}: {beyond} of {len(times)} jobs beyond it)"
        print(f"  {name:<16} {value:.6g} {unit}{note}")
    print(f"  {'fail_ratio':<16} {tally.fail_ratio:.6g}   ({tally.failed} of {tally.attempted})")
    for name in sorted(per_input):
        print(f"  median {name}: {per_input[name]:.4f} s over {len(tally.times[name])} jobs")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def _read(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _demo_pass(refs: dict, order: list[str], seed: int, tally: Tally,
               label: str | None) -> tuple[dict | None, float]:
    """One pass over the demos, one fresh child per job; label None runs the
    plain CLI.  Returns (merged snapshot, summed job seconds)."""
    cases = {c.name: c for c in demo_cases(refs)}
    snaps, total = [], 0.0
    for name in order:
        case = cases[name]
        out = OUT / f"demos-{seed}-{label}-{name}.json"
        argv = None if label is None else traced_demo_argv(case, out, f"{name}-{label}")
        dt, why = demo_job(case, argv)()
        tally.record(name, dt, why)
        total += dt
        if label is not None and why is None:
            snaps.append(_read(out)["trace"])
            out.unlink()
    return (tracing.merge(snaps) if label is not None else None), total


def _inproc_pass(workload: str, seed: int, tally: Tally,
                 label: str | None) -> tuple[dict | None, float]:
    out = OUT / f"{workload}-{seed}-{label or 'plain'}.json"
    argv = [sys.executable, str(CHILD), workload, str(seed), str(out)]
    code, _, err, _ = run_child(argv + ([] if label else ["--untraced"]))
    if code != 0:
        raise RuntimeError(f"traced pass failed: {err.decode(errors='replace')[-500:]}")
    data = _read(out)
    out.unlink()
    total = 0.0
    for name, dt, why in data["jobs"]:
        tally.record(name, dt, why)
        total += dt
    return data["trace"], total


def traced_run(workload: str, seed: int, refs: dict) -> tuple[dict, Tally]:
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    imports = measure_imports()
    if workload == "demos":
        order = [c.name for c in demo_cases(refs)]
        random.Random(seed).shuffle(order)
        run_pass = lambda label: _demo_pass(refs, order, seed, tally, label)  # noqa: E731
    else:
        run_pass = lambda label: _inproc_pass(workload, seed, tally, label)  # noqa: E731
    _, plain_s = run_pass(None)
    snaps, traced_s = [], []
    for label in ("pass1", "pass2"):
        snap, total = run_pass(label)
        snaps.append(snap)
        traced_s.append(total)
    with open(OUT / f"trace-{workload}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "passes": snaps}, fh)

    metrics, counts = tracing.layer_metrics(snaps)
    metrics["import.fraclie_s"] = {"value": imports["fraclie"], "unit": "s"}
    metrics["import.fraclie.oracle_s"] = {"value": imports["fraclie.oracle"], "unit": "s"}
    metrics["trace.overhead"] = {"value": statistics.fmean(traced_s) / plain_s - 1.0,
                                 "unit": "ratio"}
    for name, v in counts.items():
        if len(set(v)) > 1:
            tally.errors.append(f"count {name} differs between traced passes: {v}")

    print(f"workload {workload}, seed {seed}: traced, {tally.attempted} jobs over one "
          f"plain and two traced passes")
    for name, m in metrics.items():
        shown = f"{m['value']:.6g}" if m["value"] is not None else f"missing ({m['missing']})"
        print(f"  {name:<40} {shown} {m['unit']}")
    print(f"  plain pass {plain_s:.3f} s, traced passes "
          + ", ".join(f"{s:.3f}" for s in traced_s) + " s")
    return metrics, tally


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    pin_threads()
    if not program_present():
        print("error: no fraclie source tree (src/fraclie, demos/) next to the "
              "benchmark", file=sys.stderr)
        return 2
    refs = load_references()
    if args.trace:
        metrics, tally = traced_run(args.workload, args.seed, refs)
    else:
        metrics, tally = timed_run(args.workload, args.seed, args.seconds, refs)
    for err in tally.errors:
        print(f"FAILED {err}", file=sys.stderr)
    correct = not tally.errors
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
