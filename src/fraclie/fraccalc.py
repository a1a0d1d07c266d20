"""Closed-form Riemann-Liouville rules on power sums.

The power rule, termwise and so linear.  Everything is exact: Gamma ratios
are normalized by the recurrence, and no numeric evaluation happens here.
"""
from __future__ import annotations

from typing import Iterable, Optional, Union

from .exponents import Assumptions, ExponentForm, UNIT_FORM, UndecidableExponent
from .expr import (Expr, ExprLike, Gamma, Sym, Var, ZERO, _nadd, _nmul, _npow,
                   add_terms, any_node, as_expr, as_eform, expand, from_eform,
                   gamma_of_rational, gamma_simplify, render, split_power)
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
        acc: dict[tuple, list] = {}
        for c, g in terms:
            c = as_expr(c)
            if c == ZERO:
                continue
            k = g.sort_key()
            if k in acc:
                acc[k][0] = _nadd([acc[k][0], c])
            else:
                acc[k] = [c, g]
        cleaned = tuple((c, g) for c, g in
                        (acc[k] for k in sorted(acc)) if c != ZERO)
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
    e.g. g = alpha-1 at order alpha) kills the term.  When g+1 and g+1-order
    are both rational, the ratio is built directly in gamma_simplify's normal
    form (expr.gamma_of_rational); otherwise gamma_simplify normalizes it.

    Requires g > -1 for every exponent, decided from the assumptions;
    otherwise UndecidableExponent is raised and the caller must declare one.
    The default order is alpha itself.
    """
    alpha = as_expr(alpha)
    if tvar is None:
        tvar = f.tvar if isinstance(f, PowerSum) else Var("t", -1)
    ps = as_power_sum(f, tvar)
    asm = assumptions if assumptions is not None else default_assumptions(alpha)
    order_form = as_eform(alpha if order is None else as_expr(order))

    out: list[tuple[Expr, ExponentForm]] = []
    for c, g in ps.terms:
        g1 = g + UNIT_FORM
        s = asm.sign(g1)
        if s is None:
            raise UndecidableExponent(
                f"cannot decide {g.render()} > -1 for the power rule; "
                "declare an assumption on the exponent")
        if s <= 0:
            raise UndecidableExponent(
                f"exponent {g.render()} <= -1 is outside the power-rule domain")
        zeta = g1 - order_form
        if asm.nonpositive_integer(zeta) is True:
            continue            # a pole of the denominator
        top, bottom = g1.as_rational(), zeta.as_rational()
        if top is not None and bottom is not None:
            # the ratio is built in gamma_simplify's normal form; only a
            # coefficient holding a Gamma of its own needs normalizing
            if any_node(c, _is_gamma):
                c = gamma_simplify(c, asm)
            coeff = _nmul([c, gamma_of_rational(top),
                           _npow(gamma_of_rational(bottom), _MINUS_ONE)])
        else:
            ratio = _nmul([Gamma(from_eform(g1)),
                           _npow(Gamma(from_eform(zeta)), _MINUS_ONE)])
            coeff = gamma_simplify(_nmul([c, ratio]), asm)
        out.append((coeff, g - order_form))
    return PowerSum.build(tvar, out)
