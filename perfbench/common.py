"""Paths, statistics and child-process helpers shared by the benchmark files."""
from __future__ import annotations

import math
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


def program_present() -> bool:
    return (SRC / "fraclie" / "__init__.py").is_file() and (ROOT / "demos").is_dir()


def use_source_tree() -> None:
    """Import fraclie from the checkout's src/ (the package is not installed)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# One thread per process: the benchmark runs one job at a time, so BLAS
# thread pools would only add noise.
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def pin_threads() -> None:
    """Apply SINGLE_THREAD to this process; call before numpy is imported."""
    os.environ.update(SINGLE_THREAD)


def child_env() -> dict:
    """Environment of every child interpreter: the checkout's src/ first on the
    path, one BLAS thread, and a fixed hash seed so set iteration order (and
    with it every call count) repeats from one child to the next."""
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list[str], timeout: float = 170.0
              ) -> tuple[int, bytes, bytes, float]:
    """Run one child interpreter to completion.

    Returns (exit code, stdout, stderr, peak RSS of that child in MB).  The
    child is reaped with wait4 so its own rusage is read, not the running
    maximum over all children.
    """
    OUT.mkdir(exist_ok=True)
    err_path = OUT / f"stderr-{os.getpid()}.txt"
    with open(err_path, "w+b") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
        try:
            out = _read_all(proc, timeout)
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        err_bytes = err.read()
    err_path.unlink(missing_ok=True)
    return proc.returncode, out, err_bytes, usage.ru_maxrss / 1024.0


def _read_all(proc: subprocess.Popen, timeout: float) -> bytes:
    deadline = time.monotonic() + timeout
    chunks = []
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                proc.kill()
                raise TimeoutError(f"child {proc.args} ran over {timeout} s")
            if not sel.select(left):
                continue
            data = os.read(proc.stdout.fileno(), 1 << 16)
            if not data:
                break
            chunks.append(data)
    proc.stdout.close()
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With fewer than 20 samples
    that percentile would lie at or below the median, so the median is
    returned instead, with the number of samples beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    if n >= 20:
        k = n - 11                 # xs[k] has exactly ten samples above it
        return xs[k], 100.0 * (k + 1) / n, n - 1 - k
    return statistics.median(xs), 50.0, n // 2
