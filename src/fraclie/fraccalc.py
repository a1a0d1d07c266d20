"""Closed-form Riemann-Liouville rules on power sums.

The power rule, termwise and so linear.  Everything is exact: Gamma ratios
are normalized by the recurrence, and no numeric evaluation happens here.
A rational exponent under a rational order is worked on integer numerators
and denominators, its Gamma ratio built node by node; only a symbolic
exponent or order sets up assumptions and exponent forms.
"""
from __future__ import annotations

from typing import Iterable, Optional, Union

from .exponents import Assumptions, ExponentForm, UNIT_FORM, UndecidableExponent
from .expr import (Expr, ExprLike, Gamma, ONE, Rat, Sym, Var, ZERO, _nadd,
                   _nmul, _npow, _ratio, add_terms, any_node, as_expr,
                   as_eform, expand, from_eform, gamma_ratio, gamma_simplify,
                   render, split_power)
from .records import record


_MINUS_ONE = ExponentForm.rational(-1)


def _is_gamma(x: Expr) -> bool:
    return isinstance(x, Gamma)


class NotPowerSum(ValueError):
    """The expression is not a finite sum of t-powers with t-free coefficients."""


def default_assumptions(alpha: Expr) -> Assumptions:
    if isinstance(alpha, Sym):
        return Assumptions(alpha.name)
    return Assumptions()


# ---------------------------------------------------------------------------
# Power sums
# ---------------------------------------------------------------------------

@record(frozen=True)
class PowerSum:
    """Sum of c_j(x, ...) * t^(gamma_j) with exponents pairwise distinct."""
    tvar: Var
    terms: tuple[tuple[Expr, ExponentForm], ...]

    @staticmethod
    def build(tvar: Var, terms: Iterable[tuple[Expr, ExponentForm]]) -> "PowerSum":
        if terms.__class__ is not list:
            terms = list(terms)
        if len(terms) == 1:
            # one term: nothing to merge or order
            c, g = terms[0]
            c = as_expr(c)
            return PowerSum(tvar, () if c == ZERO else ((c, g),))
        acc: dict[ExponentForm, list] = {}     # a form caches its hash
        for c, g in terms:
            c = as_expr(c)
            if c == ZERO:
                continue
            entry = acc.get(g)
            if entry is None:
                acc[g] = [c, g]
            else:
                entry[0] = _nadd([entry[0], c])
        cleaned = tuple((c, g) for c, g in
                        sorted(acc.values(), key=lambda e: e[1].sort_key())
                        if c != ZERO)
        return PowerSum(tvar, cleaned)

    @staticmethod
    def from_expr(e: ExprLike, tvar: Var) -> "PowerSum":
        e = expand(as_expr(e))
        terms: list[tuple[Expr, ExponentForm]] = []
        for term in add_terms(e):
            gamma, coeff = split_power(term, tvar)
            if any_node(coeff, lambda x: x == tvar):
                raise NotPowerSum(
                    f"coefficient {render(coeff)} of a power of {tvar.name} "
                    f"depends on {tvar.name}")
            terms.append((coeff, gamma))
        return PowerSum.build(tvar, terms)

    def to_expr(self) -> Expr:
        terms = self.terms
        if len(terms) == 1:
            c, g = terms[0]
            return _nmul([c, _npow(self.tvar, g)])
        return _nadd([_nmul([c, _npow(self.tvar, g)]) for c, g in terms])


def as_power_sum(e: Union[PowerSum, ExprLike], tvar: Var) -> PowerSum:
    if isinstance(e, PowerSum):
        return e
    return PowerSum.from_expr(e, tvar)


# ---------------------------------------------------------------------------
# Riemann-Liouville power rule
# ---------------------------------------------------------------------------

def rl_derivative(f: Union[PowerSum, ExprLike], alpha: ExprLike, *,
                  tvar: Optional[Var] = None,
                  assumptions: Optional[Assumptions] = None) -> PowerSum:
    """Termwise power rule of order alpha: c*t^g maps to
    c*Gamma(g+1)/Gamma(g+1-alpha)*t^(g-alpha); a pole of the denominator
    (g+1-alpha a nonpositive integer, e.g. g = alpha-1) kills the term.

    Two routes, one result.  When the order and g are rational, g+1 and
    g+1-order are kept as integer numerators over integer denominators:
    the domain and pole tests are integer comparisons, and the ratio is
    built directly in gamma_simplify's normal form (expr.gamma_ratio),
    with no ExponentForm until the output exponent and no assumptions
    unless the coefficient holds a Gamma of its own.  Any symbolic exponent
    or order, t^(alpha-1) say, takes the ExponentForm route: signs and poles
    are decided from the assumptions, and gamma_simplify normalizes the
    ratio.

    Requires g > -1 for every exponent, decided from the assumptions;
    otherwise UndecidableExponent is raised and the caller must declare one.
    Without assumptions, those of alpha (default_assumptions) are taken.
    """
    alpha = as_expr(alpha)
    if tvar is None:
        tvar = f.tvar if isinstance(f, PowerSum) else Var("t", -1)
    ps = as_power_sum(f, tvar)
    asm = assumptions
    # a rational order is a Rat: canonical trees fold every constant
    order_r = alpha.stored if isinstance(alpha, Rat) else None
    if order_r is not None:
        on, od = order_r.as_integer_ratio()
    order_form = None

    out: list[tuple[Expr, ExponentForm]] = []
    for c, g in ps.terms:
        r = None if order_r is None else g.as_rational()
        if r is not None:
            gn, gd = r.as_integer_ratio()
            if gn + gd <= 0:
                raise _outside_domain(g)
            # g+1 = (gn+gd)/gd, and g+1-order = bn/bd
            bn, bd = (gn + gd) * od - on * gd, gd * od
            if bn <= 0 and bn % bd == 0:
                continue        # a pole of the denominator
            ratio = gamma_ratio(gn + gd, gd, bn, bd)
            # only a coefficient holding a Gamma of its own needs normalizing
            if c is not ONE:
                if any_node(c, _is_gamma):
                    if asm is None:
                        asm = default_assumptions(alpha)
                    c = gamma_simplify(c, asm)
                ratio = _nmul([c, ratio])
            # g - order = (gn*od - on*gd)/(gd*od)
            out.append((ratio, ExponentForm.rational(
                _ratio(gn * od - on * gd, gd * od))))
            continue
        if asm is None:
            asm = default_assumptions(alpha)
        if order_form is None:
            order_form = as_eform(alpha)
        g1 = g + UNIT_FORM
        s = asm.sign(g1)
        if s is None:
            raise UndecidableExponent(
                f"cannot decide {g.render()} > -1 for the power rule; "
                "declare an assumption on the exponent")
        if s <= 0:
            raise _outside_domain(g)
        zeta = g1 - order_form
        if asm.nonpositive_integer(zeta) is True:
            continue            # a pole of the denominator
        ratio = _nmul([Gamma(from_eform(g1)),
                       _npow(Gamma(from_eform(zeta)), _MINUS_ONE)])
        coeff = gamma_simplify(_nmul([c, ratio]), asm)
        out.append((coeff, g - order_form))
    # a lone term needs no merging or ordering
    return PowerSum(tvar, tuple(out)) if len(out) < 2 else PowerSum.build(tvar, out)


def _outside_domain(g: ExponentForm) -> UndecidableExponent:
    return UndecidableExponent(
        f"exponent {g.render()} <= -1 is outside the power-rule domain")
