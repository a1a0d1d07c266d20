"""Pipeline orchestration and deterministic reports.

run_pipeline parses, builds the determining system, solves it once (the
chi2 = 0 branch is a subspace of that one solution), certifies every
generator, optionally reduces and oracle-checks, and packs everything into
a Report.  The JSON form is byte-identical across runs on the same input
(timing is text-only for that reason); text and LaTeX are pure renderings
of the same record.
"""
from __future__ import annotations

import json
import math
import time
from fractions import Fraction
from typing import Optional

from .exponents import ExponentForm
from .expr import ONE, Jet, Rat, _nmul, render
from .fraccalc import PowerSum, rl_derivative
from .model import PDESystem
from .oracle import evaluate, numeric_rl_oracle
from .parser import parse_expression, parse_generator, parse_system
from .reductions import (NotScaling, NotTranslation,
                         scaling_similarity, translation_reduction)
from .determining import DeterminingSystem, build_determining
from .records import record
from .solver import (Generator, SolutionBasis, SolverConfig, solve,
                     verify_generator)

SCHEMA_VERSION = 1


@record(frozen=True)
class PipelineConfig:
    poly_degree: int = 3
    h_templates: tuple[str, ...] = ()
    branch: str = "both"            # both | zero, as SolverConfig
    reduce: bool = False
    oracle_check: bool = False
    verify_generator_text: Optional[str] = None


@record
class Report:
    source: str
    sys: PDESystem
    ds: DeterminingSystem
    basis: SolutionBasis
    reductions: list[dict]
    checks: dict
    elapsed: float


def run_pipeline(source: str, cfg: Optional[PipelineConfig] = None) -> Report:
    cfg = cfg if cfg is not None else PipelineConfig()
    t0 = time.perf_counter()
    sys = parse_system(source)
    ds = build_determining(sys)
    templates = tuple(parse_expression(t, sys.sig) for t in cfg.h_templates)
    scfg = SolverConfig(poly_degree=cfg.poly_degree, h_templates=templates,
                        branch=cfg.branch)
    basis = solve(ds, scfg)

    reductions: list[dict] = []
    if cfg.reduce:
        reductions = compute_reductions(sys, basis)

    checks: dict = {}
    if cfg.verify_generator_text is not None:
        checks["verify_generator"] = run_generator_check(
            sys, cfg.verify_generator_text)
    if cfg.oracle_check:
        checks["oracle"] = run_oracle_check(sys)

    return Report(source, sys, ds, basis, reductions, checks,
                  time.perf_counter() - t0)


def compute_reductions(sys: PDESystem, basis: SolutionBasis) -> list[dict]:
    out: list[dict] = []
    for g in basis.generators:
        try:
            tr = translation_reduction(sys, g)
            out.append({
                "type": "translation",
                "generator": g.describe(),
                "removed": tr.removed,
                "similarity": list(tr.similarity),
                "reduced": [
                    f"Dt^{sys.sig.alpha_name}({d}) = "
                    + render(tr.system.rhs[s], tr.system.sig)
                    for s, d in enumerate(tr.system.sig.dep_names)],
            })
            continue
        except NotTranslation:
            pass
        try:
            ek = scaling_similarity(g, sys.alpha)
            out.append({
                "type": "scaling",
                "generator": g.describe(),
                "similarity": ek.describe(),
            })
        except NotScaling:
            out.append({"type": "unclassified", "generator": g.describe()})
    return out


def run_generator_check(sys: PDESystem, text: str) -> dict:
    gen, _extra = parse_generator(text, sys.sig)
    rep = verify_generator(sys, gen)
    frac = [render(r, sys.sig) for r in rep.frac_residuals]
    ints = [[(render(m, sys.sig), render(c, sys.sig)) for m, c in eq]
            for eq in rep.integer_residuals]
    return {"generator": gen.describe(), "ok": rep.ok,
            "fractional_residuals": frac, "integer_residuals": ints}


def run_oracle_check(sys: PDESystem) -> dict:
    """The symbolic power rule and the quadrature oracle vs the closed form
    from math.gamma, on the fixed grid plus random samples of seed 0; the
    worst error is that of either."""
    import random       # only this check draws samples; kept off start-up
    t = sys.sig.t
    grid_g = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 2), Fraction(3)]
    grid_a = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    grid_t = [0.5, 1.0, 2.0]
    rng = random.Random(0)
    for _ in range(5):
        grid_g.append(Fraction(rng.randint(1, 12), rng.choice([1, 2, 4])))
        grid_a.append(Fraction(rng.randint(1, 7), 8))
    worst = 0.0
    count = 0
    for g in grid_g:
        for a in grid_a:
            for tv in grid_t:
                closed = (math.gamma(float(g) + 1.0)
                          / math.gamma(float(g) + 1.0 - float(a))
                          * tv ** (float(g) - float(a)))
                ps = PowerSum.build(t, [(Rat(1), ExponentForm.rational(g))])
                symbolic = evaluate(rl_derivative(ps, a, tvar=t).to_expr(),
                                    {t.name: tv})
                got = numeric_rl_oracle(ps, a, [tv]).values[0]
                worst = max(worst, abs(symbolic - closed),
                            abs(float(got) - closed))
                count += 1
    return {"samples": count, "worst_abs_error": worst, "seed": 0,
            "pass": bool(worst < 1e-8)}


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def report_payload(r: Report) -> dict:
    sig = r.sys.sig
    payload = {
        "schema": SCHEMA_VERSION,
        "system": {
            "source": r.source,
            "alpha": render(r.sys.alpha, sig),
            "space": list(sig.space_names),
            "dep": list(sig.dep_names),
            "params": [
                {"name": p.name, "kind": p.kind,
                 "lo": None if p.lo is None else str(p.lo),
                 "hi": None if p.hi is None else str(p.hi)}
                for p in sig.params],
            "functions": [list(fd) for fd in sig.fn_decls],
            "F": [render(f, sig) for f in r.sys.F],
            "H": [render(h, sig) for h in r.sys.H],
            "order": r.sys.k,
        },
        "determining": {
            "integer": [render(e, sig) for e in r.ds.integer_eqs],
            "fractional": [render(e, sig) for e in r.ds.frac_eqs],
            "reduced": [render(e, sig) for e in r.ds.reduced()],
            "branch_dimensions": {b: d for b, d in r.basis.branch_dims},
        },
        "assumptions": list(r.basis.assumptions),
        "basis": {
            "dimension": r.basis.dimension,
            "generators": [_generator_payload(g, rep)
                           for g, rep in zip(r.basis.generators, r.basis.reports)],
            "shifts": [_generator_payload(g, rep)
                       for g, rep in zip(r.basis.shift_generators,
                                         r.basis.shift_reports)],
        },
        "reductions": r.reductions,
        "checks": r.checks,
    }
    return payload


def _generator_payload(g: Generator, rep) -> dict:
    sig = g.sig
    return {
        "tau": render(g.tau, sig),
        "xi": {sig.space_names[i]: render(g.xi[i], sig) for i in range(sig.p)},
        "eta": {sig.dep_names[s]: render(g.eta[s], sig) for s in range(sig.q)},
        "display": g.describe(),
        "residuals_zero": rep.ok,
    }


def emit(r: Report, fmt: str = "text") -> bytes:
    if fmt == "json":
        return (json.dumps(report_payload(r), sort_keys=True, indent=2)
                + "\n").encode()
    if fmt == "text":
        return _emit_text(r).encode()
    if fmt == "latex":
        return _emit_latex(r).encode()
    raise ValueError(f"unknown format {fmt!r}")


def _emit_text(r: Report) -> str:
    sig = r.sys.sig
    L: list[str] = []
    L.append("== system ==")
    for s in range(r.sys.q):
        L.append(f"  Dt^{sig.alpha_name}({sig.dep_names[s]}) = "
                 + render(r.sys.rhs[s], sig))
    for s, frags in enumerate(r.sys.rhs_fragments):
        # F_s by jet monomial: a lone jet is a linear term; ONE is H_s
        linear, rest = [], []
        for m, c in frags:
            if m != ONE:
                (linear if m.__class__ is Jet else rest).append(
                    render(_nmul([c, m]), sig))
        jt, other = (", ".join(terms) or "(none)" for terms in (linear, rest))
        L.append(f"  eq {sig.dep_names[s]}: linear terms {{{jt}}}; "
                 f"nonlinear/opaque {{{other}}}")
    L.append("== determining system (integer-order, separated) ==")
    for e in r.ds.integer_eqs:
        L.append("  " + render(e, sig) + " = 0")
    L.append("== determining system (reduced view) ==")
    for e in r.ds.reduced():
        L.append("  " + render(e, sig) + " = 0")
    L.append("== fractional conditions ==")
    for e in r.ds.frac_eqs:
        L.append("  " + render(e, sig) + " = 0")
    if r.basis.assumptions:
        L.append("== assumptions ==")
        for a in r.basis.assumptions:
            L.append("  - " + a)
    L.append(f"== basis (dimension {r.basis.dimension}) ==")
    for g, rep in zip(r.basis.generators, r.basis.reports):
        L.append("  X = " + g.describe() + ("   [residuals: 0]" if rep.ok else ""))
    if r.basis.shift_generators:
        L.append("== solution-shift generators (reported separately) ==")
        for g, rep in zip(r.basis.shift_generators, r.basis.shift_reports):
            L.append("  X = " + g.describe() + ("   [residuals: 0]" if rep.ok else ""))
    if r.reductions:
        L.append("== reductions ==")
        for red in r.reductions:
            L.append(f"  [{red['type']}] X = {red['generator']}")
            for key in ("removed",):
                if key in red:
                    L.append(f"    removes {red[key]}")
            for line in red.get("similarity", []):
                L.append("    " + line)
            for line in red.get("reduced", []):
                L.append("    -> " + line)
    if r.checks:
        L.append("== checks ==")
        for name, payload in sorted(r.checks.items()):
            L.append(f"  {name}: {json.dumps(payload, sort_keys=True, default=str)}")
    L.append(f"elapsed: {r.elapsed:.2f}s")
    return "\n".join(L) + "\n"


_LATEX_HEADER = r"""\documentclass{article}
\usepackage{amsmath}
\begin{document}
"""


def _tex(s: str) -> str:
    return (s.replace("\\", r"\textbackslash{}").replace("_", r"\_")
            .replace("^", r"\string^").replace("{", r"\{").replace("}", r"\}")
            .replace("#", r"\#").replace("%", r"\%").replace("&", r"\&"))


def _emit_latex(r: Report) -> str:
    sig = r.sys.sig
    L = [_LATEX_HEADER, r"\section*{Lie point symmetries}"]
    L.append(r"\subsection*{System}")
    L.append(r"\begin{itemize}")
    for s in range(r.sys.q):
        L.append(r"\item \texttt{" + _tex(
            f"Dt^{sig.alpha_name}({sig.dep_names[s]}) = "
            + render(r.sys.rhs[s], sig)) + "}")
    L.append(r"\end{itemize}")
    L.append(r"\subsection*{Determining system}")
    L.append(r"\begin{itemize}")
    for e in r.ds.reduced():
        L.append(r"\item \texttt{" + _tex(render(e, sig) + " = 0") + "}")
    for e in r.ds.frac_eqs:
        L.append(r"\item \texttt{" + _tex(render(e, sig) + " = 0") + "}")
    L.append(r"\end{itemize}")
    L.append(r"\subsection*{Basis}")
    L.append(r"\begin{itemize}")
    for g in r.basis.generators:
        L.append(r"\item \texttt{" + _tex("X = " + g.describe()) + "}")
    for g in r.basis.shift_generators:
        L.append(r"\item \texttt{" + _tex("X = " + g.describe())
                 + r" (solution shift)}")
    L.append(r"\end{itemize}")
    if r.basis.assumptions:
        L.append(r"\subsection*{Assumptions}")
        L.append(r"\begin{itemize}")
        for a in r.basis.assumptions:
            L.append(r"\item \texttt{" + _tex(a) + "}")
        L.append(r"\end{itemize}")
    L.append(r"\end{document}")
    return "\n".join(L) + "\n"
