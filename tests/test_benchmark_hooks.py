"""The benchmark's hooks on the CLI path.

perfbench/traced_child.py wraps the fraclie functions that the benchmark's
per-layer metrics read, by module and name, and reports each one it cannot
wrap, or whose return value a probe cannot read, as missing.  A hook that
goes missing makes the benchmark's traced run malformed, so this suite runs
one traced pass of each workload: one traced demo, the only pass that runs
the probes on solver.equation_rows, linsolve.rref, linsolve.nullspace and
solver.solve, and one traced certify pass, which rebuilds the invariance
condition of each generator it verifies.

The equation_rows probe counts nonzeros by reading the first item of the
return value as rows, each an iterable of Elem (Elem.is_zero()): it fixes
that row shape, so sparse rows need a change to the benchmark first.
"""
import json
import subprocess
import sys

import pytest

from conftest import DEMOS

BENCH = DEMOS.parent / "perfbench"

needs_bench = pytest.mark.skipif(not (BENCH / "traced_child.py").exists(),
                                 reason="perfbench/ is not in this checkout")


@needs_bench
def test_traced_demo_misses_no_hook(tmp_path):
    out = tmp_path / "trace.json"
    run = subprocess.run(
        [sys.executable, str(BENCH / "traced_child.py"), "demo",
         str(DEMOS / "telegraph.fpde"), str(out), "telegraph"],
        capture_output=True, cwd=DEMOS.parent, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    trace = json.loads(out.read_text())["trace"]
    assert trace["missing"] == {}
    assert trace["calls"]["model.validate_system"] == 1
    assert trace["sizes"]["solver.rows"] > 0
    assert run.stdout == (BENCH / "reference" / "demos" / "telegraph.json").read_bytes()


@needs_bench
def test_traced_certify_misses_no_hook(tmp_path):
    out = tmp_path / "trace.json"
    run = subprocess.run(
        [sys.executable, str(BENCH / "traced_child.py"), "certify", "3", str(out)],
        capture_output=True, cwd=DEMOS.parent, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    result = json.loads(out.read_text())
    trace = result["trace"]
    assert trace["missing"] == {}
    assert result["jobs"] and all(why is None for _, _, why in result["jobs"])
    assert trace["calls"]["determining.invariance_condition"] > 0
    assert trace["calls"]["solver.verify_generator"] > 0
