"""The two workloads: their jobs, drawn from the seed, and the check of
every job's output against references that do not come from the run.

demos    one fresh `python -m fraclie.cli analyze <f> --emit json` per job on
         each bundled demo; checked byte for byte against recorded JSON.
certify  one in-process batch of library checks that do no linear solve:
         generator verification, exact solutions, power rule vs oracle.

A job is a callable taking an optional tracer and returning (seconds, why);
why is None when the output is correct.  Only the work a user would wait for
is timed, and only that work is traced; the checks run after it.
"""
from __future__ import annotations

import contextlib
import json
import math
import random
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from common import BENCH, ROOT, run_child

REFERENCES = BENCH / "reference" / "references.json"
CHILD = BENCH / "traced_child.py"

# Power rule vs numeric oracle: the fixed grid of acceptance criterion 5,
# plus seeded samples drawn like the CLI's --oracle-check.
ORACLE_G = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 2), Fraction(3))
ORACLE_A = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
ORACLE_T = (0.5, 1.0, 2.0)
ORACLE_SAMPLES = 15
ORACLE_TOL = 1e-8


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


@dataclass
class Tally:
    """Job outcomes of one run: times of correct jobs per input, and every
    fault found (failed jobs, and counts that did not repeat)."""
    times: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, name: str, seconds: float, why: str | None) -> None:
        self.attempted += 1
        if why is None:
            self.times.setdefault(name, []).append(seconds)
        else:
            self.failed += 1
            self.errors.append(f"{name}: {why}")

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def all_times(self) -> list[float]:
        return [t for ts in self.times.values() for t in ts]


@contextlib.contextmanager
def traced(tracer, job_id: str):
    """Switch the tracer on around the measured call only."""
    if tracer is None:
        yield
        return
    tracer.job, tracer.on = job_id, True
    try:
        yield
    finally:
        tracer.on = False


def guarded(run):
    """Run one job; an exception is a failed job, not a failed benchmark."""
    def job(tracer=None):
        t0 = time.perf_counter()
        try:
            return run(tracer)
        except Exception as exc:  # noqa: BLE001 - job boundary, reported as a failure
            return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    return job


# ---------------------------------------------------------------------------
# demos
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DemoCase:
    name: str
    file: str
    reference: bytes
    exit: int
    point: int
    shifts: int


def demo_cases(refs: dict) -> list[DemoCase]:
    return [DemoCase(name, c["file"], (BENCH / c["json"]).read_bytes(),
                     c["exit"], c["point"], c["shifts"])
            for name, c in refs["demos"]["cases"].items()]


def check_demo(case: DemoCase, code: int, out: bytes, err: bytes) -> str | None:
    if code != case.exit:
        tail = err.decode(errors="replace").strip()[-300:]
        return f"exit code {code}, expected {case.exit} ({tail})"
    if out != case.reference:
        return "JSON differs from the recorded reference"
    basis = json.loads(out)["basis"]
    dims = (basis["dimension"], len(basis["shifts"]))
    if dims != (case.point, case.shifts):
        return f"point/shift dimensions {dims}, expected {(case.point, case.shifts)}"
    return None


def demo_job(case: DemoCase, argv: list[str] | None = None, rss: list | None = None):
    """One CLI run in a fresh interpreter.  argv replaces the plain CLI
    command (with traced_child.py); the child's peak RSS is appended to rss."""
    argv = argv or [sys.executable, "-m", "fraclie.cli", "analyze", case.file,
                    "--emit", "json"]

    def run(_tracer):
        t0 = time.perf_counter()
        code, out, err, peak = run_child(argv)
        seconds = time.perf_counter() - t0
        if rss is not None:
            rss.append(peak)
        return seconds, check_demo(case, code, out, err)
    return guarded(run)


def traced_demo_argv(case: DemoCase, out_path, job_id: str) -> list[str]:
    return [sys.executable, str(CHILD), "demo", case.file, str(out_path), job_id]


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertifyBatch:
    systems: dict            # path -> source text
    verify: list             # (path, generator text, expected verdict, label)
    exact: list              # (path, extra parameter names, solution texts)
    oracle: list             # (g, a, t, Gamma(g+1)/Gamma(g+1-a) t^(g-a))


def certify_batch(refs: dict, rng: random.Random) -> CertifyBatch:
    bases = refs["bases"]
    cert = refs["certify"]
    verify = []
    for key in cert["verify_bases"]:
        for gen in bases[key]["point"] + bases[key]["shifts"]:
            verify.append((bases[key]["system"], gen, True, f"{key}: {gen}"))
    for r in cert["reject"]:
        verify.append((bases[r["basis"]]["system"], r["gen"], False, r["why"]))
    exact = [(e["system"], e["params"], e["solution"]) for e in cert["exact_solutions"]]
    paths = {v[0] for v in verify} | {e[0] for e in exact}
    points = [(g, a, t) for g in ORACLE_G for a in ORACLE_A for t in ORACLE_T]
    for _ in range(ORACLE_SAMPLES):
        points.append((Fraction(rng.randint(1, 12), rng.choice([1, 2, 4])),
                       Fraction(rng.randint(1, 7), 8),
                       round(rng.uniform(0.5, 3.0), 3)))
    oracle = [(g, a, t, math.gamma(g + 1) / math.gamma(g + 1 - a) * t ** float(g - a))
              for g, a, t in points]
    return CertifyBatch({p: (ROOT / p).read_text() for p in sorted(paths)},
                        verify, exact, oracle)


def _verdict(fraclie, system, text: str) -> bool:
    gen, _ = fraclie.parse_generator(text, system.sig)
    try:
        return fraclie.verify_generator(system, gen).ok
    except fraclie.ShapeViolation:
        return False


def _solution(fraclie, system, params, text: str):
    """A solution component; a leading 'f(y)*' factor is an arbitrary
    function of one space variable."""
    m = re.fullmatch(r"(\w+)\((\w+)\)\*(.+)", text)
    if m is None:
        return fraclie.parse_expression(text, system.sig, set(params))
    fn = fraclie.Fn(m.group(1), (system.sig.space(m.group(2)),))
    return fraclie.mul(fn, fraclie.parse_expression(m.group(3), system.sig, set(params)))


def _power_rule_error(fraclie, g: Fraction, a: Fraction, t: float, want: float) -> float:
    """Worst relative distance of the symbolic power rule and of the numeric
    oracle from the closed form `want`, computed with math.gamma."""
    tvar = fraclie.Var("t", -1)
    ps = fraclie.PowerSum.build(tvar, [(fraclie.ONE, fraclie.ExponentForm.rational(g))])
    symbolic = fraclie.evaluate(fraclie.rl_derivative(ps, a, tvar=tvar).to_expr(),
                                {"t": t})
    numeric = fraclie.numeric_rl_oracle(ps, a, [t]).values[0]
    scale = max(1.0, abs(want))
    return max(abs(symbolic - want), abs(numeric - want)) / scale


def certify_job(batch: CertifyBatch, rng: random.Random, job_id: str):
    order = list(range(len(batch.verify)))
    rng.shuffle(order)

    def run(tracer):
        import fraclie
        wrong = []
        with traced(tracer, job_id):
            t0 = time.perf_counter()
            systems = {p: fraclie.parse_system(src) for p, src in batch.systems.items()}
            for i in order:
                path, text, expect, label = batch.verify[i]
                if _verdict(fraclie, systems[path], text) != expect:
                    wrong.append(f"verdict {not expect} on {label}")
            for path, params, sol in batch.exact:
                system = systems[path]
                comps = [_solution(fraclie, system, params, s) for s in sol]
                res = fraclie.verify_exact_solution(system, comps)
                if any(r != fraclie.ZERO for r in res):
                    wrong.append(f"exact solution {sol} of {path} left a residual")
            for g, a, t, want in batch.oracle:
                err = _power_rule_error(fraclie, g, a, t, want)
                if not err <= ORACLE_TOL:
                    wrong.append(f"power rule at g={g}, a={a}, t={t} off by {err:.3g}")
            seconds = time.perf_counter() - t0
        return seconds, ("; ".join(wrong[:3]) if wrong else None)
    return guarded(run)


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def rounds(workload: str, refs: dict, rng: random.Random, rss: list | None = None):
    """Endless rounds of (input name, job); every input appears once per
    round, in an order the seed shuffles.  Demo jobs append their child's
    peak RSS to rss."""
    if workload == "certify":
        batch = certify_batch(refs, rng)
        n = 0
        while True:
            n += 1
            yield [("batch", certify_job(batch, rng, f"certify-{n}"))]
    cases = demo_cases(refs)
    while True:
        order = list(cases)
        rng.shuffle(order)
        yield [(case.name, demo_job(case, rss=rss)) for case in order]
