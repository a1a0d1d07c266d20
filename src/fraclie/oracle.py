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
weights by Szego's closed formula at the final iterate.  The nodes depend
only on (nodes, order) and a rule only on (nodes, order, m), so each is
computed once per process and kept, as tuples, in a bounded cache.

This module owns all floating-point evaluation; the symbolic layer stays
exact.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
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
    env = env or {}

    def form_value(f: ExponentForm) -> float:
        total = 0.0
        for mono, c in f.coeffs:
            piece = float(c)
            for name, k in mono:
                if name not in env:
                    raise KeyError(f"no value for symbol {name}")
                piece *= env[name] ** k
            total += piece
        return total

    def go(x: Expr) -> float:
        if isinstance(x, Rat):
            return float(x.value)
        if isinstance(x, (Sym, Var)):
            if x.name not in env:
                raise KeyError(f"no value for {x.name}")
            return env[x.name]
        if isinstance(x, Gamma):
            return math.gamma(go(x.arg))
        if isinstance(x, Pow):
            return go(x.base) ** form_value(x.exp)
        if isinstance(x, Mul):
            out = 1.0
            for f in x.factors:
                out *= go(f)
            return out
        if isinstance(x, Add):
            return sum(go(t) for t in x.terms)
        raise TypeError(f"cannot evaluate {x!r} numerically")

    return go(e)


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
    a = float(alpha)
    if not (0.0 < a < 1.0):
        raise ValueError("the order must lie in (0, 1)")
    if isinstance(f, PowerSum):
        terms = _powersum_terms(f)
        for _, g in terms:
            if g <= -1:
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


def _jacobi(n: int, alf: float, z: float) -> tuple[float, float]:
    """P_n(z) and P_n'(z) of the Jacobi polynomial P_n^(alf, 0), by the
    three-term recurrence and the derivative identity (Szego, Orthogonal
    Polynomials, (4.5.1) and (4.5.7))."""
    p0, p1 = 1.0, (alf + (alf + 2.0) * z) / 2.0
    for j in range(2, n + 1):
        c = 2.0 * j + alf
        p0, p1 = p1, (((c - 1.0) * (alf * alf + c * (c - 2.0) * z) * p1
                       - 2.0 * (j - 1.0 + alf) * (j - 1.0) * c * p0)
                      / (2.0 * j * (j + alf) * (c - 2.0)))
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
            p, dp = _jacobi(n, alf, z)
            step = p / dp
            z -= step
            if abs(step) <= _NEWTON_TOL:
                break
        else:
            raise ArithmeticError(f"Gauss-Jacobi node {i} of {n} for order {a} "
                                  f"did not converge")
        _, dp = _jacobi(n, alf, z)
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
    scaled = [(c * (1.0 - a + float(g)) * t ** float(g),
               m // g.denominator * (g.numerator + g.denominator) - 1)
              for c, g in terms]
    bracket = math.fsum(wi * c * ri ** k
                        for wi, ri in zip(weights, rhos) for c, k in scaled)
    return t ** (-a) / math.gamma(1.0 - a) * bracket


def _grunwald_letnikov(f: Callable[[float], float], a: float, t: float,
                       h: float) -> float:
    n = int(math.floor(t / h + 1e-12))
    acc = 0.0
    w = 1.0
    for j in range(n + 1):
        acc += w * f(t - j * h)
        w *= (j - a) / (j + 1)
    return acc / h ** a
