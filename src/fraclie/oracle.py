"""Numeric fractional-derivative oracle.

Approximates the Riemann-Liouville derivative directly from its integral
definition, independently of the symbolic power rule:

* power-sum inputs: substitution s = t*sigma and fixed-order Gauss-Jacobi
  quadrature in sigma with weight (1-sigma)^(-alpha); a further sigma = rho^m
  change of variables absorbs rational exponents so the integrand is smooth;
* sampled inputs: the Grunwald-Letnikov difference at two resolutions with a
  Richardson comparison for the error estimate.

A quadrature rule depends only on (nodes, order, m), so each is computed
once per process and kept, read-only, in a bounded cache; the values are
the same floats as with a fresh rule.

This module owns all floating-point evaluation; the symbolic layer stays
exact.  numpy and scipy are imported only when the quadrature runs, so
importing the package does not load them.
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


@functools.lru_cache(maxsize=128)
def _jacobi_rule(nodes: int, a: float, m: int):
    """The Gauss-Jacobi rule of _gauss_jacobi_rl for weight (1-sigma)^(-a)
    after sigma = rho^m: (weights, sigma, Jacobian factor), read-only
    arrays.  A pure function of its arguments, so each rule is computed once
    per process."""
    import numpy as np
    from scipy.special import roots_jacobi

    x, w = roots_jacobi(nodes, -a, 0.0)
    rho = (x + 1.0) / 2.0
    sigma = rho ** m
    # (1 - sigma)^(-a) = (1 - rho)^(-a) * omega(rho)^(-a)
    omega = np.ones_like(rho)
    for j in range(1, m):
        omega += rho ** j
    jac = m * rho ** (m - 1) * omega ** (-a)
    for arr in (w, sigma, jac):
        arr.setflags(write=False)
    return w, sigma, jac


def _gauss_jacobi_rl(terms: list[tuple[float, Fraction]], a: float, t: float,
                     nodes: int) -> float:
    """d/dt [ t^(1-a) * int_0^1 (1-sigma)^(-a) f(t sigma) dsigma ] / Gamma(1-a)
    = t^(-a)/Gamma(1-a) * [ (1-a) I1 + I2 ],  I1 = int w f(t sigma),
    I2 = int w sigma f'(t sigma); sigma = rho^m makes the integrand smooth."""
    import numpy as np

    m = 1
    for _, g in terms:
        m = m * g.denominator // math.gcd(m, g.denominator)
    w, sigma, jac = _jacobi_rule(nodes, a, min(m, 16))

    def f_at(s: np.ndarray) -> np.ndarray:
        out = np.zeros_like(s)
        for c, g in terms:
            out += c * s ** float(g)
        return out

    def sfp_at(s: np.ndarray) -> np.ndarray:
        # sigma * f'(t*sigma) evaluated via s = t*sigma: sum c g t^(g-1) s^g / t^g
        out = np.zeros_like(s)
        for c, g in terms:
            if g != 0:
                out += c * float(g) * s ** float(g) / t
        return out

    i1 = 2.0 ** (a - 1.0) * np.dot(w, jac * f_at(t * sigma))
    i2 = 2.0 ** (a - 1.0) * np.dot(w, jac * sfp_at(t * sigma))
    return t ** (-a) / math.gamma(1.0 - a) * ((1.0 - a) * i1 + t * i2)


def _grunwald_letnikov(f: Callable[[float], float], a: float, t: float,
                       h: float) -> float:
    n = int(math.floor(t / h + 1e-12))
    acc = 0.0
    w = 1.0
    for j in range(n + 1):
        acc += w * f(t - j * h)
        w *= (j - a) / (j + 1)
    return acc / h ** a
