"""The benchmark's hooks on the CLI path.

perfbench/traced_child.py wraps the fraclie functions that the benchmark's
per-layer metrics read, by module and name, and reports each one it cannot
wrap, or whose return value a probe cannot read, as missing.  perfbench's
own tests cover the certify pass, but they are not part of this suite, and
only the demo pass runs the probes on solver.equation_rows, linsolve.rref,
linsolve.nullspace and solver.solve.  So this test runs one traced demo.

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


@pytest.mark.skipif(not (BENCH / "traced_child.py").exists(),
                    reason="perfbench/ is not in this checkout")
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
