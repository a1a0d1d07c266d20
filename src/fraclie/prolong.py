"""Prolongation machinery for the structured generator ansatz.

The admitted generator has tau = chi2*t^2 + chi1*t, xi_i = xi_i(x),
eta_s = [g_s(x) + gamma_s*(2*chi2*t + chi1)]*u_s + sum_{i!=s} f_{s,i}(x)*u_i
+ h_s(t,x), with gamma_s a symbol the solver binds to (alpha-1)/2.
Integer-order extended infinitesimals need no tau, and since eta is linear
in u with jet-free coefficients and xi is jet-free (for a concrete generator
solver.admitted_prolongation checks this with the rest of the shape), they
are the Leibniz sum over derivatives of those coefficients (Prolongation),
handed out already split into (jet, coefficient) pairs and visiting only
the derivatives that are nonzero; the total derivative of the
characteristic, the general route, is kept in fraclie.lemmas as the
reference.  The fractional extended infinitesimal reduces to a local part,
Dt^alpha h_s plus terms in the right-hand sides, and series coefficients
that vanish identically under the ansatz (the nonlinearity tail mu is zero
because eta is linear in u; see fraclie.lemmas).
"""
from __future__ import annotations

import math
from functools import cached_property
from operator import sub

from .exponents import ExponentForm
from .expr import (Expr, Fn, ONE, Rat, Sym, Var, _is_zero, _nadd, _nmul,
                   _npow, partial_derivative, total_derivative)
from .model import Signature
from .records import record


def _xi_names(p: int) -> tuple[str, ...]:
    if p == 1:
        return ("xi",)
    if p == 2:
        return ("xi", "psi")
    return tuple(f"xi{i + 1}" for i in range(p))


def _indexed(base: str, s: int, q: int) -> str:
    return base if q == 1 else f"{base}{s + 1}"


@record(frozen=True)
class AnsatzGenerator:
    """Unknown-coefficient generator of the admitted structural form."""
    sig: Signature
    alpha: Expr

    @property
    def chi1(self) -> Sym:
        return Sym("chi1")

    @property
    def chi2(self) -> Sym:
        return Sym("chi2")

    @property
    def tau(self) -> Expr:
        t = self.sig.t
        return _nadd([_nmul([self.chi2, _npow(t, ExponentForm.rational(2))]),
                      _nmul([self.chi1, t])])

    @property
    def tau_prime(self) -> Expr:
        return total_derivative(self.tau, self.sig.t)

    def gamma(self, s: int) -> Sym:
        return Sym(_indexed("gamma", s, self.sig.q))

    def gamma_symbols(self) -> list[str]:
        return [_indexed("gamma", s, self.sig.q) for s in range(self.sig.q)]

    def _xvars(self) -> tuple[Var, ...]:
        return tuple(self.sig.x(i) for i in range(self.sig.p))

    def xi(self, i: int) -> Fn:
        return Fn(_xi_names(self.sig.p)[i], self._xvars())

    def g(self, s: int) -> Fn:
        return Fn(_indexed("g", s, self.sig.q), self._xvars())

    def f(self, s: int, i: int) -> Fn:
        return Fn(self._f_name(s, i), self._xvars())

    def _f_name(self, s: int, i: int) -> str:
        return f"f{i + 1}" if self.sig.q <= 2 else f"f{s + 1}_{i + 1}"

    def h(self, s: int) -> Fn:
        return Fn(_indexed("h", s, self.sig.q), (self.sig.t,) + self._xvars())

    def eta(self, s: int) -> Expr:
        us = self.sig.u(s)
        pieces = [_nmul([_nadd([self.g(s), _nmul([self.gamma(s), self.tau_prime])]), us])]
        for i in range(self.sig.q):
            if i != s:
                pieces.append(_nmul([self.f(s, i), self.sig.u(i)]))
        pieces.append(self.h(s))
        return _nadd(pieces)

    def deta_du(self, s: int, i: int) -> Expr:
        return partial_derivative(self.eta(s), self.sig.u(i))

    def unknown_fn_names(self) -> dict[str, tuple[Var, ...]]:
        """All unknown function atoms with their argument signatures."""
        xs = self._xvars()
        q = self.sig.q
        out: dict[str, tuple[Var, ...]] = {name: xs for name in _xi_names(self.sig.p)}
        for s in range(q):
            out[_indexed("g", s, q)] = xs
            out[_indexed("h", s, q)] = (self.sig.t,) + xs
            for i in range(q):
                if i != s:
                    out[self._f_name(s, i)] = xs
        return out

    def unknown_names(self) -> frozenset[str]:
        """The names of all unknowns: the functions' and chi1, chi2.  A
        system may declare none of them (see parser.parse_system)."""
        return frozenset(self.unknown_fn_names()) | {self.chi1.name,
                                                     self.chi2.name}

    @cached_property
    def prolongation(self) -> "Prolongation":
        """The ansatz's record, Dt^alpha h_s being the opaque fractional
        application of h_s."""
        q = self.sig.q
        h = [self.h(s) for s in range(q)]
        return Prolongation(
            self.sig, self.tau, [self.xi(i) for i in range(self.sig.p)],
            [[self.deta_du(s, j) for j in range(q)] for s in range(q)], h,
            [Fn(hs.fname, hs.args, hs.deriv, frac=True) for hs in h])


def is_unknown(b: Expr, names: frozenset[str]) -> bool:
    """Whether b is an unknown, names being the ansatz's unknown_names()."""
    return ((isinstance(b, Fn) and b.fname in names)
            or (isinstance(b, Sym) and b.name in names))


# ---------------------------------------------------------------------------
# Integer-order extended infinitesimals: the Leibniz rule
# ---------------------------------------------------------------------------

class Prolongation:
    """What the invariance condition reads of a generator of the admitted
    shape: tau and tau' = d tau/dt, the xi_i, A_sj = d eta_s/d u_j, the
    h_s = eta_s - sum_j A_sj u_j and their images Dt^alpha h_s, and the
    integer-order extended infinitesimals for the space multi-indices theta.

    With every A_sj and xi_i free of jets, the Leibniz rule (Olver 1993,
    Thm 2.36) gives

        eta_s^theta = sum_{beta <= theta} C(theta, beta) *
            [sum_j d^beta A_sj u_j^(theta-beta)
             - [beta != 0] sum_i d^beta xi_i u_s^(theta-beta+e_i)]
          + d^theta h_s

    with no total derivative of the characteristic.  The d^beta are total
    x-derivatives, each taken once per coefficient and multi-index, and the
    sum visits only the beta whose derivative is nonzero: d^beta c comes
    from d^(beta-e_i) c, i the last axis of beta, and a ZERO there ends the
    walk; d^theta h_s is the last step of the walk of h_s.  The thetas
    asked for are the jets of the system, so the walk is bounded by its
    highest jet orders.  The records come from
    AnsatzGenerator.prolongation and solver.admitted_prolongation; the
    latter refuses a generator outside the premise."""

    def __init__(self, sig: Signature, tau: Expr, xi, a, h, h_frac):
        self.sig = sig
        self.tau = tau
        self.tau_prime = partial_derivative(tau, sig.t)
        self.xi = list(xi)
        self.a = a
        self.h = list(h)
        self.h_frac = list(h_frac)
        self._derived: dict[tuple, Expr] = {}

    def _nonzero_derivatives(self, coeff: Expr, slot: tuple, theta: tuple[int, ...]
                             ) -> list[tuple[tuple[int, ...], Expr]]:
        """(beta, d^beta coeff) for every beta <= theta whose derivative is
        nonzero, theta itself last when it is among them.  beta + e_i, i at
        or after the last axis of beta, is derived from beta, and only from
        a nonzero one; every derivative of a ZERO is ZERO, with no total
        derivative taken, since the coefficients of a concrete generator
        are mostly constant or linear.  Each derivative is taken once per
        coefficient named by slot."""
        if _is_zero(coeff):
            return []
        out = []
        stack = [((0,) * len(theta), coeff, 0)]
        while stack:
            beta, d, last = stack.pop()
            out.append((beta, d))
            for i in range(last, len(theta)):
                if beta[i] == theta[i]:
                    continue
                up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                key = (slot, up)
                du = self._derived.get(key)
                if du is None:
                    du = self._derived[key] = total_derivative(d, self.sig.x(i))
                if not _is_zero(du):
                    stack.append((up, du, i))
        return out

    def eta_theta(self, s: int, theta: tuple[int, ...]) -> list[tuple[Expr, Expr]]:
        """eta_s^theta as (jet monomial, jet-free coefficient) pairs: one per
        nonzero term of the Leibniz sum, so a jet may recur, and the
        jet-free d^theta h_s under ONE when it is nonzero."""
        sig = self.sig
        out = []
        for j, a in enumerate(self.a[s]):
            if _is_zero(a):
                continue
            for beta, d in self._nonzero_derivatives(a, ("a", s, j), theta):
                rest = tuple(map(sub, theta, beta))
                out.append((sig.u(j, rest), _weighted(_weight(theta, beta), d)))
        for i, xi in enumerate(self.xi):
            if _is_zero(xi):
                continue
            for beta, d in self._nonzero_derivatives(xi, ("xi", i), theta):
                if not any(beta):
                    continue
                bumped = list(map(sub, theta, beta))
                bumped[i] += 1
                out.append((sig.u(s, tuple(bumped)),
                            _weighted(-_weight(theta, beta), d)))
        walk = self._nonzero_derivatives(self.h[s], ("h", s), theta)
        if walk and walk[-1][0] == theta:
            out.append((ONE, walk[-1][1]))
        return out


def _weight(theta: tuple[int, ...], beta: tuple[int, ...]) -> int:
    """C(theta, beta), the product of the binomials per axis."""
    if not any(beta):
        return 1
    return math.prod(map(math.comb, theta, beta))


def _weighted(w: int, d: Expr) -> Expr:
    return d if w == 1 else _nmul([Rat(w), d])
