"""PDE system data model: signatures, the F/H split, term classification
and validation diagnostics."""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional

from .exponents import Assumptions
from .expr import (Expr, Jet, Rat, Sym, Var, ZERO, _nadd, _nmul, add_terms,
                   atoms, depends_on_jets, expand, partial_derivative,
                   split_factors)
from .records import record


@record(frozen=True)
class ParamDecl:
    name: str
    kind: str = "free"            # free | nonzero | positive | interval
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None


@record(frozen=True)
class Signature:
    """Variable names of a system; the bridge between index-based kernel
    objects and human-readable input/output."""
    alpha_name: str
    space_names: tuple[str, ...]
    dep_names: tuple[str, ...]
    params: tuple[ParamDecl, ...] = ()
    fn_decls: tuple[tuple[str, str], ...] = ()   # (fn name, dep argument name)
    t_name: str = "t"

    @property
    def p(self) -> int:
        return len(self.space_names)

    @property
    def q(self) -> int:
        return len(self.dep_names)

    @property
    def t(self) -> Var:
        return Var(self.t_name, -1)

    def x(self, i: int) -> Var:
        return Var(self.space_names[i], i)

    def space(self, name: str) -> Var:
        return Var(name, self.space_names.index(name))

    def u(self, s: int, theta: tuple[int, ...] = (), t_order: int = 0,
          frac: Optional[int] = None) -> Jet:
        theta = tuple(theta) + (0,) * (self.p - len(theta))
        return Jet(s, theta, t_order, frac)

    def dep(self, name: str) -> Jet:
        return self.u(self.dep_names.index(name))

    @property
    def alpha(self) -> Sym:
        return Sym(self.alpha_name)

    def assumptions(self) -> Assumptions:
        asm = Assumptions(self.alpha_name)
        for p in self.params:
            if p.kind == "nonzero":
                asm.declare_nonzero(p.name)
            elif p.kind == "positive":
                asm.declare_positive(p.name)
            elif p.kind == "interval":
                asm.declare_interval(p.name, p.lo, p.hi)
        return asm


@record(frozen=True)
class Diagnostic:
    code: str
    message: str

    def __str__(self):
        return f"{self.code}: {self.message}"


@record(frozen=True)
class PDESystem:
    """q equations Dt^alpha u_s = F_s + H_s over p space variables; every
    term of F_s involves u or its x-derivatives, H_s is a pure (t,x) source."""
    sig: Signature
    alpha: Expr
    F: tuple[Expr, ...]
    H: tuple[Expr, ...]
    k: int
    source: Optional[str] = None

    @property
    def p(self) -> int:
        return self.sig.p

    @property
    def q(self) -> int:
        return self.sig.q

    def rhs(self, s: int) -> Expr:
        return self._rhs[s]

    def assumptions(self) -> Assumptions:
        return self.sig.assumptions()

    # Facts of the system that the invariance condition reads, computed once
    # per system on first use.

    @cached_property
    def _rhs(self) -> tuple[Expr, ...]:
        return tuple(_nadd([f, h]) for f, h in zip(self.F, self.H))

    @cached_property
    def rhs_partials(self) -> tuple[tuple[Expr, ...], ...]:
        """Per equation: d rhs_s/dt, then d rhs_s/dx_i for each space
        variable."""
        sig = self.sig
        variables = (sig.t,) + tuple(sig.x(i) for i in range(sig.p))
        return tuple(tuple(partial_derivative(r, v) for v in variables)
                     for r in self._rhs)

    @cached_property
    def jet_coefficients(self) -> tuple[tuple[tuple[Jet, Expr], ...], ...]:
        """Per equation: (jet, dF_s/d jet) for each jet of F_s with a
        nonzero coefficient."""
        out = []
        for f in self.F:
            pairs = ((jet, partial_derivative(f, jet)) for jet in atoms(f, Jet))
            out.append(tuple((jet, c) for jet, c in pairs if c != ZERO))
        return tuple(out)


def split_rhs(rhs: Expr) -> tuple[Expr, Expr]:
    """The F/H split: terms containing u-dependence go to F, the rest to H."""
    rhs = expand(rhs)
    f_terms, h_terms = [], []
    for term in add_terms(rhs):
        if term == ZERO:
            continue
        (f_terms if depends_on_jets(term) else h_terms).append(term)
    return _nadd(f_terms), _nadd(h_terms)


def make_system(sig: Signature, rhs_list: list[Expr], alpha: Optional[Expr] = None,
                source: Optional[str] = None) -> PDESystem:
    if len(rhs_list) != sig.q:
        raise ValueError(f"expected {sig.q} equations, got {len(rhs_list)}")
    alpha = alpha if alpha is not None else sig.alpha
    F, H = [], []
    k = 0
    for rhs in rhs_list:
        fs, hs = split_rhs(rhs)
        F.append(fs)
        H.append(hs)
        for j in atoms(fs, Jet) + atoms(hs, Jet):
            k = max(k, sum(j.theta))
    return PDESystem(sig, alpha, tuple(F), tuple(H), k, source)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_system(sys: PDESystem) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    if isinstance(sys.alpha, Rat):
        if not (0 < sys.alpha.value < 1):
            out.append(Diagnostic("AlphaOutOfRange",
                                  f"fractional order {sys.alpha.value} is outside (0,1)"))
    for s in range(sys.q):
        for j in atoms(sys.F[s], Jet) + atoms(sys.H[s], Jet):
            if j.t_order > 0 or j.frac is not None:
                out.append(Diagnostic(
                    "TimeDerivativeOnRHS",
                    f"equation {sys.sig.dep_names[s]}: a t-derivative jet appears "
                    "on the right-hand side"))
        if depends_on_jets(sys.H[s]):
            out.append(Diagnostic("HContainsJets",
                                  f"equation {sys.sig.dep_names[s]}: source part depends on u"))
        for term in add_terms(sys.F[s]):
            if term != ZERO and not depends_on_jets(term):
                out.append(Diagnostic("FTermWithoutJets",
                                      f"equation {sys.sig.dep_names[s]}: F holds a pure source term"))
    for i, name in enumerate(sys.sig.space_names):
        coupled = any(j.theta[i] >= 1
                      for s in range(sys.q) for j in atoms(sys.F[s], Jet))
        if not coupled:
            out.append(Diagnostic("MissingSpaceCoupling",
                                  f"no equation differentiates any dependent in {name}"))
    return out


# ---------------------------------------------------------------------------
# Term classification (the I_s / J_s split)
# ---------------------------------------------------------------------------

@record(frozen=True)
class JTerm:
    coeff: Expr       # free of all jets
    jet: Jet

    def term(self) -> Expr:
        return _nmul([self.coeff, self.jet])


@record(frozen=True)
class TermClassification:
    """Per equation, a partition of the F-terms (I): the linear single-jet
    terms (J) with their coefficients, and the complement I \\ J."""
    j_terms: tuple[tuple[JTerm, ...], ...]
    rest: tuple[tuple[Expr, ...], ...]


def _linear_jet_split(term: Expr) -> Optional[JTerm]:
    """c * (single jet to the first power) with c jet-free, else None."""
    jet, coeff = split_factors(term, lambda b, _: depends_on_jets(b))
    return JTerm(coeff, jet) if isinstance(jet, Jet) else None


def classify_terms(sys: PDESystem) -> TermClassification:
    j_all, rest_all = [], []
    for s in range(sys.q):
        f = expand(sys.F[s])
        j_terms, rest = [], []
        for term in add_terms(f):
            if term == ZERO:
                continue
            jt = _linear_jet_split(term)
            if jt is not None:
                j_terms.append(jt)
            else:
                rest.append(term)
        j_all.append(tuple(j_terms))
        rest_all.append(tuple(rest))
    return TermClassification(tuple(j_all), tuple(rest_all))
