"""Numeric fractional-derivative oracle.

Approximates the Riemann-Liouville derivative directly from its integral
definition, independently of the symbolic power rule:

* power-sum inputs: substitution s = t*sigma and fixed-order Gauss-Jacobi
  quadrature in sigma with weight (1-sigma)^(-alpha); a further sigma = rho^m
  change of variables absorbs rational exponents so the integrand is smooth;
* sampled inputs: the Grunwald-Letnikov difference at two resolutions with a
  Richardson comparison for the error estimate.

The Gauss-Jacobi rules are built with `math` alone: nodes by Newton's
method on the three-term Jacobi recurrence from asymptotic first guesses,
weights by Szego's closed formula at the final iterate.  The recurrence's
coefficients that do not depend on the point are formed once per rule.
The nodes depend only on (nodes, order) and a rule only on (nodes, order,
m), so each is computed once per process and kept, as tuples, in a bounded
cache.

A rule's weighted products (W_i*c) * rho_i^k are summed by one math.fsum,
which is correctly rounded: the value does not depend on the order of the
terms.  evaluate dispatches on the node class through a table of
module-level functions and sums an Add's terms in their order.

This module owns all floating-point evaluation; the symbolic layer stays
exact.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Callable, Optional, Sequence, Union

from .exponents import ExponentForm
from .expr import Add, Expr, Gamma, Mul, Pow, Rat, Sym, Var
from .fraccalc import PowerSum
from .records import record


class SingularInput(ValueError):
    """The input has a t-exponent <= -1; the defining integral diverges."""


# ---------------------------------------------------------------------------
# Float evaluation of exact expressions
# ---------------------------------------------------------------------------

def evaluate(e: Expr, env: Optional[dict[str, float]] = None) -> float:
    """Numeric value of a jet-free expression; symbols and variables are
    looked up by name in env."""
    return _value(e, env or {})


def _value(x: Expr, env: dict[str, float]) -> float:
    how = _VALUE.get(x.__class__)
    if how is None:
        raise TypeError(f"cannot evaluate {x!r} numerically")
    return how(x, env)


def _rat_value(x: Rat, env) -> float:
    v = x.stored
    # a Fraction's float is its numerator over its denominator, read here
    # without the numbers.Rational route
    return float(v) if v.__class__ is int else v.numerator / v.denominator


def _name_value(x: Union[Sym, Var], env) -> float:
    if x.name not in env:
        raise KeyError(f"no value for {x.name}")
    return env[x.name]


def _gamma_value(x: Gamma, env) -> float:
    return math.gamma(_value(x.arg, env))


def _pow_value(x: Pow, env) -> float:
    return _value(x.base, env) ** _form_value(x.exp, env)


def _mul_value(x: Mul, env) -> float:
    out = 1.0
    for f in x.factors:
        out *= _value(f, env)
    return out


def _add_value(x: Add, env) -> float:
    # summed in the order of the terms: a float sum depends on its order
    return sum([_value(t, env) for t in x.terms])


def _form_value(f: ExponentForm, env) -> float:
    total = 0.0
    for mono, c in f.coeffs:
        piece = float(c)
        for name, k in mono:
            if name not in env:
                raise KeyError(f"no value for symbol {name}")
            piece *= env[name] ** k
        total += piece
    return total


_VALUE = {Rat: _rat_value, Sym: _name_value, Var: _name_value,
          Gamma: _gamma_value, Pow: _pow_value, Mul: _mul_value,
          Add: _add_value}


# ---------------------------------------------------------------------------
# Power-sum helpers
# ---------------------------------------------------------------------------

def _powersum_terms(ps: PowerSum) -> list[tuple[float, Fraction]]:
    out = []
    for c, g in ps.terms:
        r = g.as_rational()
        if r is None:
            raise ValueError("oracle inputs need exact rational exponents; "
                             "substitute parameter values first")
        out.append((evaluate(c), r))
    return out


@record(frozen=True)
class OracleResult:
    values: tuple[float, ...]
    errors: tuple[float, ...]
    method: str


# Gauss-Jacobi nodes for power sums; the error estimate uses half as many
_NODES = 64
# Grunwald-Letnikov step for sampled inputs, as a fraction of t
_GL_STEP_SCALE = 2.0 ** -12


def numeric_rl_oracle(f: Union[PowerSum, Callable[[float], float]],
                      alpha: Union[Fraction, float],
                      t_grid: Sequence[float]) -> OracleResult:
    """Approximate (1/Gamma(1-alpha)) d/dt int_0^t (t-s)^(-alpha) f(s) ds on
    the grid, with an error estimate per point.  A power sum's coefficients
    must be numbers."""
    # a Fraction's float read off its integers, as float() reads it
    a = (alpha.numerator / alpha.denominator if alpha.__class__ is Fraction
         else float(alpha))
    if not (0.0 < a < 1.0):
        raise ValueError("the order must lie in (0, 1)")
    if isinstance(f, PowerSum):
        terms = _powersum_terms(f)
        for _, g in terms:
            n, d = g.as_integer_ratio()
            if n <= -d:
                raise SingularInput(f"exponent {g} <= -1")
        vals, errs = [], []
        for t in t_grid:
            v1 = _gauss_jacobi_rl(terms, a, float(t), _NODES)
            v0 = _gauss_jacobi_rl(terms, a, float(t), _NODES // 2)
            vals.append(v1)
            errs.append(abs(v1 - v0))
        return OracleResult(tuple(vals), tuple(errs), "gauss-jacobi")
    vals, errs = [], []
    for t in t_grid:
        h = float(t) * _GL_STEP_SCALE
        v_h = _grunwald_letnikov(f, a, float(t), h)
        v_h2 = _grunwald_letnikov(f, a, float(t), h / 2.0)
        vals.append(2.0 * v_h2 - v_h)
        errs.append(abs(v_h2 - v_h))
    return OracleResult(tuple(vals), tuple(errs), "grunwald-letnikov")


# Newton's method stops after a step below this; it converges
# quadratically, so the node is then exact to rounding
_NEWTON_TOL = 3e-14
_NEWTON_STEPS = 50


def _recurrence(n: int, alf: float) -> tuple[tuple[float, ...], ...]:
    """The coefficients of _jacobi's recurrence step j = 2..n, which do not
    depend on z: with c = 2j + alf,

        P_j = ((c-1) (alf^2 + c(c-2) z) P_(j-1)
               - 2 (j-1+alf) (j-1) c P_(j-2)) / (2 j (j+alf) (c-2)),

    as (c-1, c(c-2), 2(j-1+alf)(j-1)c, 2j(j+alf)(c-2)), each product formed
    in the order the step forms it, so a step gives the same floats."""
    out = []
    for j in range(2, n + 1):
        c = 2.0 * j + alf
        out.append((c - 1.0, c * (c - 2.0), 2.0 * (j - 1.0 + alf) * (j - 1.0) * c,
                    2.0 * j * (j + alf) * (c - 2.0)))
    return tuple(out)


def _jacobi(n: int, alf: float, z: float, steps: tuple[tuple[float, ...], ...]
            ) -> tuple[float, float]:
    """P_n(z) and P_n'(z) of the Jacobi polynomial P_n^(alf, 0), by the
    three-term recurrence and the derivative identity (Szego, Orthogonal
    Polynomials, (4.5.1) and (4.5.7)); steps is _recurrence(n, alf)."""
    alf2 = alf * alf
    p0, p1 = 1.0, (alf + (alf + 2.0) * z) / 2.0
    for c1, cc, d, e in steps:
        p0, p1 = p1, (c1 * (alf2 + cc * z) * p1 - d * p0) / e
    c = 2.0 * n + alf
    dp = ((n * (alf - c * z) * p1 + 2.0 * n * (n + alf) * p0)
          / (c * (1.0 - z) * (1.0 + z)))
    return p1, dp


@functools.lru_cache(maxsize=128)
def _gauss_jacobi(n: int, a: float
                  ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The n-node Gauss rule (nodes ascending, weights) for the weight
    (1-x)^(-a) on [-1, 1], 0 < a < 1.

    Nodes from the largest down, each by Newton's method from the
    asymptotic first guess of Numerical Recipes' gaujac (Press et al.,
    2nd ed., section 4.5): the first three from formulas in n and a, the
    others extrapolated from the three before.  Weight by Szego's formula
    2^(1-a) / ((1-x^2) P_n'(x)^2), whose Gamma factors cancel when the
    weight has no (1+x) power; evaluated at the final iterate it is
    accurate to about 1e-11 even beside the singular endpoint."""
    alf = -a
    steps = _recurrence(n, alf)
    x: list[float] = []
    w: list[float] = []
    for i in range(n):
        if i == 0:
            an = alf / n
            z = 1.0 - ((1.0 + alf) * (2.78 / (4.0 + n * n) + 0.768 * an / n)
                       / (1.0 + 1.48 * an + 0.452 * an * an))
        elif i == 1:
            z -= ((1.0 - z) * (4.1 + alf) / ((1.0 + alf) * (1.0 + 0.156 * alf))
                  * (1.0 + 0.06 * (n - 8.0) * (1.0 + 0.12 * alf) / n))
        elif i == 2:
            z -= ((x[0] - z) * (1.67 + 0.28 * alf) / (1.0 + 0.37 * alf)
                  * (1.0 + 0.22 * (n - 8.0) / n))
        elif i == n - 2:
            z += ((z - x[n - 4]) / 0.766
                  / (1.0 + 0.639 * (n - 4.0) / (1.0 + 0.71 * (n - 4.0)))
                  / (1.0 + 20.0 * alf / ((7.5 + alf) * n * n)))
        elif i == n - 1:
            z += ((z - x[n - 3]) / 1.67 / (1.0 + 0.22 * (n - 8.0) / n)
                  / (1.0 + 8.0 * alf / ((6.28 + alf) * n * n)))
        else:
            z = 3.0 * x[i - 1] - 3.0 * x[i - 2] + x[i - 3]
        for _ in range(_NEWTON_STEPS):
            p, dp = _jacobi(n, alf, z, steps)
            step = p / dp
            z -= step
            if abs(step) <= _NEWTON_TOL:
                break
        else:
            raise ArithmeticError(f"Gauss-Jacobi node {i} of {n} for order {a} "
                                  f"did not converge")
        _, dp = _jacobi(n, alf, z, steps)
        x.append(z)
        w.append(2.0 ** (1.0 + alf) / ((1.0 - z) * (1.0 + z) * dp * dp))
    return tuple(reversed(x)), tuple(reversed(w))


@functools.lru_cache(maxsize=128)
def _jacobi_rule(nodes: int, a: float, m: int
                 ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The rule of _gauss_jacobi_rl after sigma = rho^m, as (weights, rho):
    int_0^1 (1-sigma)^(-a) F(sigma) dsigma ~ sum_i W_i rho_i^(m-1)
    F(rho_i^m), the factor 2^(a-1) and the Jacobian but rho^(m-1) folded
    into W.  A pure function of its arguments, so computed once per process."""
    x, w = _gauss_jacobi(nodes, a)
    weights, rhos = [], []
    for xi, wi in zip(x, w):
        rho = (xi + 1.0) / 2.0
        # (1 - rho^m)^(-a) = (1 - rho)^(-a) * omega^(-a), omega = sum_j<m rho^j
        omega = sum(rho ** j for j in range(m))
        weights.append(2.0 ** (a - 1.0) * wi * m * omega ** (-a))
        rhos.append(rho)
    return tuple(weights), tuple(rhos)


def _gauss_jacobi_rl(terms: list[tuple[float, Fraction]], a: float, t: float,
                     nodes: int) -> float:
    """d/dt [ t^(1-a) * int_0^1 (1-sigma)^(-a) f(t sigma) dsigma ] / Gamma(1-a)
    = t^(-a)/Gamma(1-a) * [ (1-a) I1 + t I2 ],  I1 = int w f(t sigma),
    I2 = int w sigma f'(t sigma); for f = sum c s^g the bracket is
    int w sum c (1-a+g) (t sigma)^g.  sigma = rho^m, m the common
    denominator of the g, makes it smooth: with the Jacobian's rho^(m-1),
    sigma^g gives rho^(m(g+1)-1), a power >= 0 as g > -1."""
    m = math.lcm(*(g.denominator for _, g in terms))
    weights, rhos = _jacobi_rule(nodes, a, m)
    # the products (W_i*c) * rho_i^k of every node and term, added by one
    # fsum: correctly rounded, so the value is that of any order of the sum
    products: list[float] = []
    for c, g in terms:
        n, d = g.as_integer_ratio()
        gf = n / d                  # float(g)
        c = c * (1.0 - a + gf) * t ** gf
        k = m // d * (n + d) - 1
        products += map(mul, map(mul, weights, repeat(c)), map(pow, rhos, repeat(k)))
    return t ** (-a) / math.gamma(1.0 - a) * math.fsum(products)


def _grunwald_letnikov(f: Callable[[float], float], a: float, t: float,
                       h: float) -> float:
    n = int(math.floor(t / h + 1e-12))
    acc = 0.0
    w = 1.0
    for j in range(n + 1):
        acc += w * f(t - j * h)
        w *= (j - a) / (j + 1)
    return acc / h ** a
