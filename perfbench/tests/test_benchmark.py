"""Tests of the benchmark itself: failure counting, hook presence and count
determinism.

    python3 -m pytest perfbench/tests -q
"""
import dataclasses
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402
from common import OUT, run_child, tail, use_source_tree  # noqa: E402
from workloads import Tally  # noqa: E402

use_source_tree()
REFS = workloads.load_references()


def _telegraph():
    return next(c for c in workloads.demo_cases(REFS) if c.name == "telegraph")


def _run(tally, name, job):
    seconds, why = job()
    tally.record(name, seconds, why)


def test_clean_jobs_report_no_failure():
    tally = Tally()
    _run(tally, "telegraph", workloads.demo_job(_telegraph()))
    batch = workloads.certify_batch(REFS, random.Random(0))
    _run(tally, "batch", workloads.certify_job(batch, random.Random(0), "clean"))
    assert tally.errors == []
    assert (tally.attempted, tally.failed, tally.fail_ratio) == (2, 0, 0.0)


def test_corrupted_reference_json_counts_as_failure():
    case = _telegraph()
    corrupted = case.reference.replace(b'"dimension": 1', b'"dimension": 2')
    assert corrupted != case.reference
    tally = Tally()
    _run(tally, "telegraph", workloads.demo_job(dataclasses.replace(case, reference=corrupted)))
    assert tally.fail_ratio == 1.0
    assert "differs from the recorded reference" in tally.errors[0]


def test_perturbed_generator_marked_must_verify_counts_as_failure():
    batch = workloads.certify_batch(REFS, random.Random(0))
    path, gen, _, why = next(v for v in batch.verify if v[2] is False)
    marked = dataclasses.replace(batch, verify=[(path, gen, True, why)])
    tally = Tally()
    _run(tally, "batch", workloads.certify_job(marked, random.Random(0), "bad"))
    assert tally.fail_ratio == 1.0
    assert "verdict False" in tally.errors[0]


def test_tail_has_ten_samples_beyond_it():
    value, pct, beyond = tail([float(i) for i in range(1, 41)])
    assert (value, pct, beyond) == (30.0, 75.0, 10)
    assert tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 1)


def test_missing_hook_is_reported_not_zero():
    snap = {"spans": [], "calls": {}, "sizes": {},
            "missing": {"linsolve.rref": "linsolve.rref not found"}}
    metrics, _ = tracing.layer_metrics([snap])
    assert metrics["linsolve.rref.s"]["value"] is None
    assert metrics["linsolve.rref.s"]["missing"] == "linsolve.rref not found"
    assert metrics["solver.solve.s"]["value"] == 0.0


# Installs the tracer after swapping two targets for callables it must not
# count as hooks: one under lru_cache, one defined outside fraclie.
SWAPPED_TARGETS = """
import functools, json, sys
sys.path.insert(0, sys.argv[1])
import fraclie.expr, fraclie.solver
import tracing

def expand(e):
    return e

fraclie.solver.equation_rows = functools.lru_cache()(fraclie.solver.equation_rows)
fraclie.expr.expand = expand
tracer = tracing.Tracer()
tracer.install()
print(json.dumps(tracer.snapshot()))
"""


def test_installed_tracer_reports_unwrapped_targets_as_missing():
    code, out, err, _ = run_child([sys.executable, "-c", SWAPPED_TARGETS, str(BENCH)])
    assert code == 0, err.decode()
    snap = json.loads(out)
    assert set(snap["missing"]) == {"solver.equation_rows", "expr.expand"}
    metrics, _ = tracing.layer_metrics([snap])
    for name in ("solver.equation_rows.s", "solver.equation_rows.calls", "solver.rows",
                 "solver.nonzeros", "expr.expand.calls"):
        assert metrics[name]["value"] is None, name
        assert "is not a function defined in fraclie." in metrics[name]["missing"]
    assert metrics["linsolve.rref.s"]["value"] == 0.0


def test_traced_passes_resolve_every_hook_and_repeat_counts():
    OUT.mkdir(exist_ok=True)
    snaps = []
    for k in range(2):
        out = OUT / f"test-certify-{k}.json"
        code, _, err, _ = run_child([sys.executable, str(BENCH / "traced_child.py"),
                                     "certify", "7", str(out)])
        assert code == 0, err.decode()
        data = json.loads(out.read_text())
        out.unlink()
        assert all(why is None for _, _, why in data["jobs"])
        snaps.append(data["trace"])
    metrics, counts = tracing.layer_metrics(snaps)
    assert not any("missing" in m for m in metrics.values())
    assert all(len(set(v)) == 1 for v in counts.values())
    assert metrics["oracle.numeric_rl_oracle.calls"]["value"] > 0


def test_metric_names_match_benchmark_json(capsys):
    import run
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    tally = Tally()
    tally.record("x", 1.0, None)
    timed = run.end_to_end(0.5, tally, 2.0, 50.0)
    assert list(timed) == [m["name"] for m in spec["end_to_end"]]
    assert all(timed[m["name"]]["unit"] == m["unit"] for m in spec["end_to_end"])
    layer = {name: unit for name, (unit, _, _) in tracing.PER_LAYER.items()}
    layer.update({"import.fraclie_s": "s", "import.fraclie.oracle_s": "s",
                  "trace.overhead": "ratio"})
    assert layer == {m["name"]: m["unit"] for m in spec["per_layer"]}
