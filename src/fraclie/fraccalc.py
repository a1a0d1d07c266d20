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
                   _nmul, _npow, add_terms, any_node, as_expr, as_eform, expand,
                   from_eform, gamma_ratio, gamma_simplify, render, split_power)
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
        return _nadd([_nmul([c, _npow(self.tvar, g)]) for c, g in self.terms])


def as_power_sum(e: Union[PowerSum, ExprLike], tvar: Var) -> PowerSum:
    if isinstance(e, PowerSum):
        return e
    return PowerSum.from_expr(e, tvar)


# ---------------------------------------------------------------------------
# Riemann-Liouville power rule
# ---------------------------------------------------------------------------

def rl_derivative(f: Union[PowerSum, ExprLike], alpha: ExprLike, *,
                  order: Optional[ExprLike] = None, tvar: Optional[Var] = None,
                  assumptions: Optional[Assumptions] = None) -> PowerSum:
    """Termwise power rule: c*t^g maps to c*Gamma(g+1)/Gamma(g+1-order)*
    t^(g-order); a pole of the denominator (g+1-order a nonpositive integer,
    e.g. g = alpha-1 at order alpha) kills the term.

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
    The default order is alpha itself.
    """
    alpha = as_expr(alpha)
    if tvar is None:
        tvar = f.tvar if isinstance(f, PowerSum) else Var("t", -1)
    ps = as_power_sum(f, tvar)
    asm = assumptions
    order_e = alpha if order is None else as_expr(order)
    # a rational order is a Rat: canonical trees fold every constant
    order_r = order_e.stored if isinstance(order_e, Rat) else None
    order_form = None

    out: list[tuple[Expr, ExponentForm]] = []
    for c, g in ps.terms:
        r = None if order_r is None else g.as_rational()
        if r is not None:
            on, od = order_r.numerator, order_r.denominator
            gn, gd = r.numerator, r.denominator
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
            out.append((ratio, ExponentForm.rational(r - order_r)))
            continue
        if asm is None:
            asm = default_assumptions(alpha)
        if order_form is None:
            order_form = as_eform(order_e)
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
