"""PDE system data model: signatures, the systems, the input check,
and the facts of a system that the invariance condition and the text
report read, each separated over jet monomials once per system.

rhs_s is split once (jet_fragments), and every other fact is read off
that split: H_s is its jet-free class and F_s the rest, d rhs_s/dt and
d rhs_s/dx_i differentiate the jet-free coefficients only, since jets are
coordinates of their own, and dF_s/d jet differentiates each jet
monomial; the pieces of each fact are summed into classes by
expr.summed_classes.  The whole-rhs route of the same facts is kept in
fraclie.lemmas as the reference.  A Signature builds its variables, its
plain dependents and the atoms its names parse to once, so their keys are
built once too."""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional

from .exponents import UNIT_FORM, Assumptions
from .expr import (Expr, Gamma, Jet, NonPolynomial, ONE, Pow, Rat, Sym, Var,
                   ZERO, _nmul, _npow, any_node, atoms, depends_on_jets,
                   expand, from_eform, group_by_monomial, mul_factors,
                   partial_derivative, render, summed_classes)
from .linsolve import Field
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

    # The variables and the plain dependents are built once per signature,
    # so their keys are too.

    @cached_property
    def t(self) -> Var:
        return Var(self.t_name, -1)

    @cached_property
    def _space_vars(self) -> tuple[Var, ...]:
        return tuple(Var(name, i) for i, name in enumerate(self.space_names))

    @cached_property
    def _dependents(self) -> tuple[Jet, ...]:
        return tuple(Jet(s, (0,) * self.p) for s in range(self.q))

    def x(self, i: int) -> Var:
        return self._space_vars[i]

    def space(self, name: str) -> Var:
        return self._space_vars[self.space_names.index(name)]

    @cached_property
    def _space_jets(self) -> dict[tuple, Jet]:
        """The jets u_s^theta built so far, by (s, theta): the memo of u."""
        return {}

    def u(self, s: int, theta: tuple[int, ...] = (), t_order: int = 0,
          frac: Optional[int] = None) -> Jet:
        """The jet u_s^theta, theta padded to p entries; the jets of no
        t-order and no fractional marker are built once per signature."""
        if t_order or frac is not None:
            theta = tuple(theta) + (0,) * (self.p - len(theta))
            return Jet(s, theta, t_order, frac)
        if not theta:
            return self._dependents[s]
        if theta.__class__ is not tuple:
            theta = tuple(theta)
        memo = self._space_jets
        jet = memo.get((s, theta))
        if jet is None:
            full = theta + (0,) * (self.p - len(theta))
            jet = memo[(s, theta)] = Jet(s, full)
        return jet

    def dep(self, name: str) -> Jet:
        return self.u(self.dep_names.index(name))

    @property
    def alpha(self) -> Sym:
        return Sym(self.alpha_name)

    @cached_property
    def named_atoms(self) -> dict[str, Expr]:
        """The atom each name of the signature parses to: the space
        variables, t, the plain dependents, and a Sym for alpha and each
        parameter.  Read-only; a parser adds its extra constants to a copy."""
        atoms: dict[str, Expr] = dict(zip(self.space_names, self._space_vars))
        atoms[self.t_name] = self.t
        atoms.update((name, self.dep(name)) for name in self.dep_names)
        for name in (self.alpha_name, *(p.name for p in self.params)):
            atoms[name] = Sym(name)
        return atoms

    @cached_property
    def operator_names(self) -> frozenset[str]:
        """The derivative operators of the input language, D<t> and D<x_i>."""
        return frozenset(f"D{name}" for name in (self.t_name, *self.space_names))

    @cached_property
    def _assumptions(self) -> Assumptions:
        params = self.params
        return Assumptions(
            self.alpha_name,
            nonzero=[p.name for p in params if p.kind == "nonzero"],
            positive=[p.name for p in params if p.kind == "positive"],
            intervals=[(p.name, p.lo, p.hi) for p in params if p.kind == "interval"])

    def assumptions(self) -> Assumptions:
        """The declared facts of alpha and the parameters: one object per
        signature, which nothing changes."""
        return self._assumptions


@record(frozen=True)
class PDESystem:
    """q equations Dt^alpha u_s = rhs_s over p space variables, each rhs_s
    expanded.  rhs_s = F_s + H_s: every term of F_s involves u or its
    x-derivatives, H_s is a pure (t,x) source; both are read off the split
    of rhs_s by jet monomial (rhs_fragments)."""
    sig: Signature
    alpha: Expr
    rhs: tuple[Expr, ...]

    @property
    def p(self) -> int:
        return self.sig.p

    @property
    def q(self) -> int:
        return self.sig.q

    def assumptions(self) -> Assumptions:
        return self.sig.assumptions()

    @cached_property
    def field(self) -> Field:
        """The field of rational functions in the parameters, under the
        system's assumptions: the solve and every certificate of the system
        compute in this one Field."""
        return Field(self.assumptions())

    # Facts of the system that the invariance condition reads, computed once
    # per system on first use, each already separated over jet monomials
    # (jet_fragments).

    @cached_property
    def rhs_fragments(self) -> tuple[Fragments, ...]:
        """Per equation: rhs_s."""
        return tuple(jet_fragments(r) for r in self.rhs)

    @cached_property
    def H(self) -> tuple[Expr, ...]:
        """Per equation: H_s, the coefficient of the jet-free class of rhs_s."""
        return tuple(next((c for m, c in frags if m == ONE), ZERO)
                     for frags in self.rhs_fragments)

    @cached_property
    def F(self) -> tuple[Expr, ...]:
        """Per equation: F_s = rhs_s - H_s."""
        return tuple(expand(r - h) for r, h in zip(self.rhs, self.H))

    @cached_property
    def jets(self) -> tuple[tuple[Jet, ...], ...]:
        """Per equation: the distinct jets of rhs_s, all in F_s, in key order."""
        return tuple(tuple(atoms(r, Jet)) for r in self.rhs)

    @cached_property
    def k(self) -> int:
        """The highest total space order of a jet of the system."""
        return max((sum(j.theta) for jets in self.jets for j in jets), default=0)

    @cached_property
    def rhs_partials(self) -> tuple[tuple[Fragments, ...], ...]:
        """Per equation: d rhs_s/dt, then d rhs_s/dx_i for each space
        variable, from the fragments of rhs_s (_partial_fragments)."""
        sig = self.sig
        variables = (sig.t,) + tuple(sig.x(i) for i in range(sig.p))
        out = []
        for frags in self.rhs_fragments:
            # a fragment holding no variable has no nonzero partial
            live = [(m, c) for m, c in frags
                    if not _jet_powers(m) or any_node(c, _is_variable)]
            out.append(tuple(_partial_fragments(live, v) for v in variables))
        return tuple(out)

    @cached_property
    def jet_coefficients(self) -> tuple[tuple[tuple[Jet, Fragments], ...], ...]:
        """Per equation: (jet, dF_s/d jet) for each jet of F_s with a
        nonzero coefficient, in jet-key order, from the fragments of rhs_s:
        the derivative of each jet monomial (_monomial_partials) times the
        fragment's coefficient."""
        out = []
        for frags in self.rhs_fragments:
            by_jet: dict[tuple, tuple[Jet, list]] = {}
            for mono, coeff in frags:
                for jet, m, c in _monomial_partials(mono):
                    entry = by_jet.get(jet.key())
                    if entry is None:
                        entry = by_jet[jet.key()] = (jet, [])
                    entry[1].append((m, c if coeff is ONE else _nmul([c, coeff])))
            pairs = ((jet, summed_classes(pieces))
                     for jet, pieces in (by_jet[k] for k in sorted(by_jet)))
            out.append(tuple((jet, c) for jet, c in pairs if c))
        return tuple(out)


# A jet polynomial separated over its jet monomials: (monomial, coefficient)
# pairs in monomial-key order, every coefficient jet-free and nonzero.
Fragments = list[tuple[Expr, Expr]]


def _jet_factor(b: Expr, _) -> bool:
    cls = b.__class__
    if cls is Jet:
        return True
    if cls is Rat or cls is Sym or cls is Var or not depends_on_jets(b):
        return False
    if isinstance(b, Gamma):
        raise NonPolynomial(f"jet variable inside a Gamma application: {render(b)}")
    return True


def jet_fragments(e: Expr) -> Fragments:
    """Separate a jet polynomial into (monomial, coefficient) pairs, one per
    jet monomial: symbolic powers and opaque functions of the dependents
    are monomial factors of their own.  Raises NonPolynomial on a jet inside
    a Gamma application."""
    return group_by_monomial(expand(e), _jet_factor)


def _is_dependent(f: Expr) -> bool:
    """f is a plain dependent u_j: no derivative, no fractional marker."""
    return (f.__class__ is Jet and f.t_order == 0 and f.frac is None
            and not any(f.theta))


def _is_variable(x: Expr) -> bool:
    return x.__class__ is Var


def _jet_powers(mono: Expr) -> bool:
    """Whether every factor of a jet monomial is a jet or a power of one."""
    return all((f.base if f.__class__ is Pow else f).__class__ is Jet
               for f in mul_factors(mono))


def _monomial_partials(mono: Expr) -> list[tuple[Jet, Expr, Expr]]:
    """(jet, monomial, coefficient) with d mono/d jet = coefficient *
    monomial, for each jet of a jet monomial.  A product of jet powers
    takes the power rule factor by factor; any other monomial, one with
    an opaque function of a dependent say, is differentiated and split
    again."""
    if not _jet_powers(mono):
        return [(jet, m, c) for jet in atoms(mono, Jet)
                for m, c in jet_fragments(partial_derivative(mono, jet))]
    factors = mul_factors(mono)
    out = []
    for i, f in enumerate(factors):
        rest = list(factors[:i] + factors[i + 1:])
        if f.__class__ is Jet:
            out.append((f, _nmul(rest), ONE))
        else:
            rest.append(_npow(f.base, f.exp - UNIT_FORM))
            out.append((f.base, _nmul(rest), from_eform(f.exp)))
    return out


def _partial_fragments(frags: Fragments, v: Var) -> Fragments:
    """d/dv of a jet polynomial given by its fragments.  Jets are
    coordinates of their own, so only a coefficient is differentiated,
    unless the monomial holds v itself, a jet inside a power of a sum with
    v say; such a fragment is differentiated whole and split again."""
    pieces = []
    for mono, coeff in frags:
        if not _jet_powers(mono) and any_node(mono, lambda x: x == v):
            pieces += jet_fragments(partial_derivative(_nmul([mono, coeff]), v))
            continue
        d = partial_derivative(coeff, v)
        if d != ZERO:
            pieces.append((mono, d))
    return summed_classes(pieces)


def make_system(sig: Signature, rhs_list: list[Expr], alpha: Optional[Expr] = None
                ) -> PDESystem:
    if len(rhs_list) != sig.q:
        raise ValueError(f"expected {sig.q} equations, got {len(rhs_list)}")
    alpha = alpha if alpha is not None else sig.alpha
    return PDESystem(sig, alpha, tuple(expand(r) for r in rhs_list))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_system(sys: PDESystem) -> list[tuple[str, str]]:
    """The problems of a system, each as (the declared name it is about,
    message); parse_system raises the first at that declaration.  A space
    variable in which no equation differentiates a dependent is one: the
    invariance condition then leaves its xi arbitrary, an algebra of no
    finite dimension.  The parser refuses a t-derivative on a right-hand
    side and a numeric alpha outside (0, 1) at their tokens, and H_s, the
    jet-free class of rhs_s, holds no jet and F_s no pure source, so
    nothing else is left to check."""
    return [(name, f"no equation differentiates any dependent in {name!r}")
            for i, name in enumerate(sys.sig.space_names)
            if not any(j.theta[i] for jets in sys.jets for j in jets)]
