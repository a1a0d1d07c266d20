"""Spans and counters around fraclie's public functions, installed from
outside the program.

`install()` replaces every public function of the layer modules with a
wrapper and rebinds the wrapped name in every fraclie module that imported
it (`solver.nullspace` as well as `linsolve.nullspace`), so calls between
modules are seen too.  Functions in SPANNED record a span (name, start, end,
parent span, job id); the rest only count calls, which keeps the kernel's
hot paths cheap.  Functions in PROBES also read sizes off their return value.

Every target the per-layer metrics need must get a wrapper at install time.
One that does not (renamed, moved to another module and imported back, or no
longer a plain function) is reported as missing, never as zero time, so such
a change cannot silently shrink a layer.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYER_MODULES = ("parser", "model", "prolong", "determining", "solver",
                 "linsolve", "expr", "exponents", "fraccalc", "reductions",
                 "oracle", "report", "cli")

# Layer boundaries that record spans: everything with a `.s` or `.self_s`
# metric, plus the calls whose time should not count as a parent's self time.
SPANNED = (
    "parser.parse_system", "parser.parse_generator", "model.validate_system",
    "determining.build_determining", "determining.invariance_condition",
    "determining.h_condition", "determining.separate",
    "solver.solve", "solver.build_instantiation", "solver.equation_rows",
    "solver.normalize_generators", "solver.verify_generator",
    "linsolve.rref", "linsolve.nullspace",
    "fraccalc.rl_derivative", "reductions.verify_exact_solution",
    "oracle.numeric_rl_oracle", "report.run_pipeline", "report.emit",
    "cli.main",
)

FIELD_OPS = ("elem", "add", "sub", "mul", "div", "neg", "provably_nonzero")


def _rows_and_nonzeros(ret, add):
    rows = ret[0]
    add("solver.rows", len(rows))
    add("solver.nonzeros", sum(1 for row in rows for e in row if not e.is_zero()))


# target -> reader of its return value, adding to named counters.
PROBES = {
    "determining.build_determining":
        lambda ds, add: add("determining.equations",
                            len(ds.integer_eqs) + len(ds.frac_eqs)),
    "solver.build_instantiation":
        lambda inst, add: add("solver.columns", len(inst.columns)),
    "solver.equation_rows": _rows_and_nonzeros,
    "solver.verify_generator":
        lambda rep, add: add("solver.verify_ok", 1 if rep.ok else 0),
    "solver.solve":
        lambda basis, add: add("solver.emitted", len(basis.generators)
                               + len(basis.shift_generators)),
    "linsolve.nullspace":
        lambda ret, add: add("linsolve.null_vectors", len(ret[0])),
    "linsolve.rref":
        lambda res, add: (add("linsolve.rank", len(res.pivots)),
                          add("linsolve.assumed_pivots", len(res.assumptions))),
}


class Tracer:
    """Spans and counters of one process, kept in memory until dumped."""

    def __init__(self):
        self.on = False
        self.job = ""
        self.spans: list[list] = []        # [name, start, end, parent, job]
        self.stack: list[int] = []
        self.calls: dict[str, list[int]] = {}
        self.sizes: dict[str, int] = {}
        self.missing: dict[str, str] = {}

    # -- recording ---------------------------------------------------------
    def add(self, name: str, n: int) -> None:
        self.sizes[name] = self.sizes.get(name, 0) + n

    def _counter(self, name: str, fn):
        cell = self.calls.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.on:
                cell[0] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanner(self, name: str, fn, probe):
        cell = self.calls.setdefault(name, [0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            cell[0] += 1
            idx = len(self.spans)
            self.spans.append([name, clock(), 0.0,
                               self.stack[-1] if self.stack else -1, self.job])
            self.stack.append(idx)
            try:
                ret = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][2] = clock()
            if probe is not None:
                self._probe(name, probe, ret)
            return ret
        return spanned

    def _probe(self, name, probe, ret) -> None:
        try:
            probe(ret, self.add)
        except (AttributeError, TypeError, IndexError) as exc:
            self.missing.setdefault(f"probe:{name}",
                                    f"return value of {name} changed shape: {exc}")

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap and rebind; must run before any call it should see."""
        import fraclie  # noqa: F401  (loads every layer module)
        mods = {}
        for m in LAYER_MODULES:
            try:
                mods[m] = importlib.import_module(f"fraclie.{m}")
            except ImportError:
                self.missing[m] = f"module fraclie.{m} not found"
        replaced: dict[int, object] = {}
        for m, mod in mods.items():
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                target = f"{m}.{fname}"
                if target in SPANNED or target in PROBES:
                    wrapper = self._spanner(target, fn, PROBES.get(target))
                else:
                    wrapper = self._counter(target, fn)
                replaced[id(fn)] = wrapper
        self._rebind(replaced)
        self._wrap_methods(mods)
        for target in set(SPANNED) | set(PROBES) | _module_targets():
            if target not in self.calls:       # no wrapper was made for it
                mod = target.partition(".")[0]
                self.missing[target] = (f"{target} is not a function defined in fraclie.{mod}"
                                        if mod in mods else f"module fraclie.{mod} not found")

    def _rebind(self, replaced: dict[int, object]) -> None:
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "fraclie" or name.startswith("fraclie.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _wrap_methods(self, mods) -> None:
        field = getattr(mods.get("linsolve"), "Field", None)
        for op in FIELD_OPS:
            target = f"linsolve.Field.{op}"
            fn = field.__dict__.get(op) if field is not None else None
            if not inspect.isfunction(fn):
                self.missing[target] = f"{target} not found"
                continue
            setattr(field, op, self._counter(target, fn))
        base = getattr(mods.get("expr"), "Expr", None)
        if base is None:
            self.missing["expr.key"] = "fraclie.expr.Expr not found"
            return
        keyed = [c for c in _subclasses(base) if inspect.isfunction(c.__dict__.get("key"))]
        if not keyed:
            self.missing["expr.key"] = "no Expr class defines key()"
        for cls in keyed:
            setattr(cls, "key", self._counter(f"expr.key.{cls.__name__}", cls.__dict__["key"]))

    # -- output ----------------------------------------------------------------
    def snapshot(self) -> dict:
        return {"spans": self.spans,
                "calls": {k: v[0] for k, v in self.calls.items()},
                "sizes": dict(self.sizes),
                "missing": dict(self.missing)}


def _module_targets() -> set[str]:
    """Module-level functions the per-layer metrics read."""
    out = set()
    for _, kind, target in PER_LAYER.values():
        if kind != "ratio" and target != "expr.key" and not target.startswith("linsolve.Field."):
            out.add(target)
    return out


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


# ---------------------------------------------------------------------------
# From a snapshot to the per-layer metrics
# ---------------------------------------------------------------------------

def span_totals(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """(total, self) seconds per span name.  A span nested inside a span of the
    same name is not added again; self time is a span's duration minus the
    durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = {}
    self_: dict[str, float] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        self_[name] = self_.get(name, 0.0) + dur - child[i]
        p, nested = parent, False
        while p >= 0:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            total[name] = total.get(name, 0.0) + dur
    return total, self_


# name -> (unit, kind, target).  kind: s = span total, self = span self time,
# calls = call count, size = a probe counter, ratio = (numerator, denominator).
PER_LAYER = {
    "parser.parse_system.s": ("s", "s", "parser.parse_system"),
    "model.validate_system.s": ("s", "s", "model.validate_system"),
    "determining.build_determining.s": ("s", "s", "determining.build_determining"),
    "determining.invariance_condition.s": ("s", "s", "determining.invariance_condition"),
    "determining.invariance_condition.calls": ("count", "calls", "determining.invariance_condition"),
    "determining.separate.s": ("s", "s", "determining.separate"),
    "determining.equations": ("count", "size", "determining.build_determining"),
    "solver.solve.s": ("s", "s", "solver.solve"),
    "solver.solve.self_s": ("s", "self", "solver.solve"),
    "solver.build_instantiation.s": ("s", "s", "solver.build_instantiation"),
    "solver.columns": ("count", "size", "solver.build_instantiation"),
    "solver.equation_rows.s": ("s", "s", "solver.equation_rows"),
    "solver.equation_rows.calls": ("count", "calls", "solver.equation_rows"),
    "solver.rows": ("count", "size", "solver.equation_rows"),
    "solver.nonzeros": ("count", "size", "solver.equation_rows"),
    "solver.normalize_generators.s": ("s", "s", "solver.normalize_generators"),
    "solver.verify_generator.s": ("s", "s", "solver.verify_generator"),
    "solver.verify_generator.calls": ("count", "calls", "solver.verify_generator"),
    "solver.verify_ok_ratio": ("ratio", "ratio", ("solver.verify_ok", "solver.verify_generator")),
    "solver.basis_yield": ("ratio", "ratio", ("solver.emitted", "linsolve.null_vectors")),
    "linsolve.rref.s": ("s", "s", "linsolve.rref"),
    "linsolve.rref.calls": ("count", "calls", "linsolve.rref"),
    "linsolve.rank": ("count", "size", "linsolve.rref"),
    "linsolve.assumed_pivots": ("count", "size", "linsolve.rref"),
    **{f"linsolve.Field.{op}.calls": ("count", "calls", f"linsolve.Field.{op}")
       for op in FIELD_OPS},
    "expr.expand.calls": ("count", "calls", "expr.expand"),
    "expr.key.calls": ("count", "calls", "expr.key"),
    "expr.gamma_simplify.calls": ("count", "calls", "expr.gamma_simplify"),
    "expr.substitute.calls": ("count", "calls", "expr.substitute"),
    "fraccalc.rl_derivative.s": ("s", "s", "fraccalc.rl_derivative"),
    "fraccalc.rl_derivative.calls": ("count", "calls", "fraccalc.rl_derivative"),
    "reductions.verify_exact_solution.s": ("s", "s", "reductions.verify_exact_solution"),
    "oracle.numeric_rl_oracle.s": ("s", "s", "oracle.numeric_rl_oracle"),
    "oracle.numeric_rl_oracle.calls": ("count", "calls", "oracle.numeric_rl_oracle"),
    "report.run_pipeline.self_s": ("s", "self", "report.run_pipeline"),
    "report.emit.s": ("s", "s", "report.emit"),
    "cli.main.s": ("s", "s", "cli.main"),
}

# Probe counters come from these functions.
_SIZE_SOURCE = {"solver.verify_ok": "solver.verify_generator",
                "solver.emitted": "solver.solve",
                "linsolve.null_vectors": "linsolve.nullspace"}


def _missing_reason(missing: dict[str, str], target: str) -> str | None:
    fn = _SIZE_SOURCE.get(target, target)
    if fn == "expr.key":
        return missing.get("expr.key")
    return missing.get(fn) or missing.get(f"probe:{fn}")


def layer_metrics(snaps: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of one or more passes over the same inputs.

    Counts come from the first pass (the caller checks they repeat); times
    are the mean over the passes.  Returns (metrics, count values)."""
    missing: dict[str, str] = {}
    for snap in snaps:
        missing.update(snap["missing"])
    totals = [span_totals(s["spans"]) for s in snaps]

    def calls(snap, target):
        if target == "expr.key":
            return sum(v for k, v in snap["calls"].items() if k.startswith("expr.key."))
        return snap["calls"].get(target, 0)

    metrics: dict[str, dict] = {}
    counts: dict[str, list[int]] = {}
    for name, (unit, kind, target) in PER_LAYER.items():
        if kind == "ratio":
            num_t, den_t = target
            reason = _missing_reason(missing, num_t) or _missing_reason(missing, den_t)
        else:
            reason = _missing_reason(missing, target)
        if reason is not None:
            metrics[name] = {"value": None, "unit": unit, "missing": reason}
            continue
        if kind == "s":
            value = sum(t[0].get(target, 0.0) for t in totals) / len(totals)
        elif kind == "self":
            value = sum(t[1].get(target, 0.0) for t in totals) / len(totals)
        elif kind == "calls":
            per = [calls(s, target) for s in snaps]
            counts[name] = per
            value = per[0]
        elif kind == "size":
            per = [s["sizes"].get(name, 0) for s in snaps]
            counts[name] = per
            value = per[0]
        else:
            num_t, den_t = target
            num = snaps[0]["sizes"].get(num_t, 0)
            den = (calls(snaps[0], den_t) if den_t in snaps[0]["calls"]
                   else snaps[0]["sizes"].get(den_t, 0))
            value = num / den if den else 0.0
        metrics[name] = {"value": value, "unit": unit}
    return metrics, counts


def merge(snaps: list[dict]) -> dict:
    """One snapshot from several processes' snapshots of the same pass."""
    out = {"spans": [], "calls": {}, "sizes": {}, "missing": {}}
    for snap in snaps:
        base = len(out["spans"])
        out["spans"].extend([n, s, e, p + base if p >= 0 else -1, j]
                            for n, s, e, p, j in snap["spans"])
        for key in ("calls", "sizes"):
            for k, v in snap[key].items():
                out[key][k] = out[key].get(k, 0) + v
        out["missing"].update(snap["missing"])
    return out
