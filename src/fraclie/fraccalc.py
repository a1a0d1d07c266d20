"""Closed-form Riemann-Liouville rules on power sums.

The power rule, linearity, the Leibniz expansion and the truncated series
form.  Everything is exact: generalized binomial coefficients are polynomials
in the order symbol, Gamma ratios are normalized by the recurrence, and no
numeric evaluation happens here.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Union

from .exponents import Assumptions, ExponentForm, UNIT_FORM, UndecidableExponent
from .expr import (Expr, ExprLike, Gamma, Rat, Sym, Var, ZERO, ONE, _nadd,
                   _nmul, _npow, add_terms, any_node, as_expr, as_eform,
                   expand, from_eform, gamma_simplify, render, split_power,
                   total_derivative)
from .records import record


class NegativeIndex(ValueError):
    pass


class NotPowerSum(ValueError):
    """The expression is not a finite sum of t-powers with t-free coefficients."""


def default_assumptions(alpha: Expr) -> Assumptions:
    if isinstance(alpha, Sym):
        return Assumptions(alpha.name)
    return Assumptions()


# ---------------------------------------------------------------------------
# Generalized binomial coefficients
# ---------------------------------------------------------------------------

def gen_binomial(alpha: ExprLike, k: int) -> Expr:
    """C(alpha, k) by the recurrence C(a,0)=1, C(a,k)=C(a,k-1)*(a-k+1)/k.
    The result is a polynomial in alpha with rational coefficients."""
    if k < 0:
        raise NegativeIndex(f"binomial index must be nonnegative, got {k}")
    a = as_expr(alpha)
    out: Expr = ONE
    for j in range(1, k + 1):
        out = expand(_nmul([out, _nadd([a, Rat(Fraction(-(j - 1)))]), Rat(Fraction(1, j))]))
    return out


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

    def scale(self, factor: ExprLike) -> "PowerSum":
        f = as_expr(factor)
        return PowerSum.build(self.tvar, [(_nmul([f, c]), g) for c, g in self.terms])

    def __add__(self, other: "PowerSum") -> "PowerSum":
        return PowerSum.build(self.tvar, self.terms + other.terms)

    def derivative(self) -> "PowerSum":
        """Ordinary d/dt, termwise (integer calculus only)."""
        out = []
        for c, g in self.terms:
            if g.is_zero():
                continue
            out.append((_nmul([from_eform(g), c]), g - UNIT_FORM))
        return PowerSum.build(self.tvar, out)

    def exponents(self) -> list[ExponentForm]:
        return [g for _, g in self.terms]


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
        s = asm.sign(g + UNIT_FORM)
        if s is None:
            raise UndecidableExponent(
                f"cannot decide {g.render()} > -1 for the power rule; "
                "declare an assumption on the exponent")
        if s <= 0:
            raise UndecidableExponent(
                f"exponent {g.render()} <= -1 is outside the power-rule domain")
        zeta = g + UNIT_FORM - order_form
        pole = asm.nonpositive_integer(zeta)
        if pole is True:
            continue
        ratio = _nmul([Gamma(from_eform(g + UNIT_FORM)),
                       _npow(Gamma(from_eform(zeta)), ExponentForm.rational(-1))])
        out.append((gamma_simplify(_nmul([c, ratio]), asm), g - order_form))
    return PowerSum.build(tvar, out)


# ---------------------------------------------------------------------------
# Leibniz expansion and the truncated series form
# ---------------------------------------------------------------------------

def leibniz_expand(u: ExprLike, v: Union[PowerSum, ExprLike], alpha: ExprLike,
                   K: int = 12, *, tvar: Optional[Var] = None,
                   assumptions: Optional[Assumptions] = None) -> Expr:
    """Sum_{k=0..K} C(alpha,k) * Dt^k(u) * Dt^(alpha-k)(v).  Exact whenever u
    is a t-polynomial of degree <= K (higher terms vanish identically); the
    default truncation covers the test-fixture uses."""
    if K < 0:
        raise NegativeIndex(f"truncation order must be nonnegative, got {K}")
    alpha = as_expr(alpha)
    if tvar is None:
        tvar = v.tvar if isinstance(v, PowerSum) else Var("t", -1)
    asm = assumptions if assumptions is not None else default_assumptions(alpha)
    vps = as_power_sum(v, tvar)
    u = as_expr(u)

    pieces: list[Expr] = []
    du = u
    for k in range(K + 1):
        if du == ZERO:
            break
        dv = rl_derivative(vps, alpha, order=alpha - Rat(Fraction(k)),
                           tvar=tvar, assumptions=asm)
        pieces.append(_nmul([gen_binomial(alpha, k), du, dv.to_expr()]))
        du = total_derivative(du, tvar)
    return gamma_simplify(_nadd(pieces), asm)


def rl_series_truncated(e: ExprLike, alpha: ExprLike, K: int, *,
                        tvar: Optional[Var] = None,
                        assumptions: Optional[Assumptions] = None) -> Expr:
    """Sum_{k=0..K} C(alpha,k) * t^(k-alpha)/Gamma(k+1-alpha) * Dt^k(e), with
    Dt the kernel total derivative.  Test-fixture use only."""
    if K < 0:
        raise NegativeIndex(f"truncation order must be nonnegative, got {K}")
    alpha = as_expr(alpha)
    if tvar is None:
        tvar = Var("t", -1)
    asm = assumptions if assumptions is not None else default_assumptions(alpha)
    aform = as_eform(alpha)

    pieces: list[Expr] = []
    de = as_expr(e)
    for k in range(K + 1):
        if de == ZERO:
            break
        weight = _nmul([
            gen_binomial(alpha, k),
            _npow(tvar, ExponentForm.rational(k) - aform),
            _npow(Gamma(from_eform(ExponentForm.rational(k + 1) - aform)),
                  ExponentForm.rational(-1)),
        ])
        pieces.append(_nmul([weight, de]))
        de = total_derivative(de, tvar)
    return gamma_simplify(_nadd(pieces), asm)
