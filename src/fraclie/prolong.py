"""Prolongation machinery for the structured generator ansatz.

The admitted generator has tau = chi2*t^2 + chi1*t, xi_i = xi_i(x),
eta_s = [g_s(x) + gamma_s*(2*chi2*t + chi1)]*u_s + sum_{i!=s} f_{s,i}(x)*u_i
+ h_s(t,x), with gamma_s a symbol the solver binds to (alpha-1)/2.
Integer-order extended infinitesimals need no tau, and since eta is linear
in u with jet-free coefficients and xi is jet-free (for a concrete generator
solver.admitted_prolongation checks this with the rest of the shape), they
are the Leibniz sum over derivatives of those coefficients (Prolongation);
the total derivative of the characteristic, the general route, is kept in
fraclie.lemmas as the reference.  The fractional extended infinitesimal
reduces to a local part, Dt^alpha h_s plus terms in the right-hand sides,
and series coefficients that vanish identically under the ansatz (the
nonlinearity tail mu is zero because eta is linear in u; see
fraclie.lemmas).
"""
from __future__ import annotations

import math
from functools import cached_property
from itertools import product as iproduct

from .exponents import ExponentForm
from .expr import (Expr, Fn, Rat, Sym, Var, ZERO, _nadd, _nmul, _npow,
                   diff_wrt, partial_derivative, total_derivative)
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
        name = f"f{i + 1}" if self.sig.q <= 2 else f"f{s + 1}_{i + 1}"
        return Fn(name, self._xvars())

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
        return diff_wrt(self.eta(s), self.sig.u(i))

    def unknown_fn_names(self) -> dict[str, tuple[Var, ...]]:
        """All unknown function atoms with their argument signatures."""
        out: dict[str, tuple[Var, ...]] = {}
        for i in range(self.sig.p):
            out[self.xi(i).fname] = self._xvars()
        for s in range(self.sig.q):
            out[self.g(s).fname] = self._xvars()
            out[self.h(s).fname] = (self.sig.t,) + self._xvars()
            for i in range(self.sig.q):
                if i != s:
                    out[self.f(s, i).fname] = self._xvars()
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
    x-derivatives, each taken once per coefficient and multi-index.  The
    records come from AnsatzGenerator.prolongation and
    solver.admitted_prolongation; the latter refuses a generator outside
    the premise."""

    def __init__(self, sig: Signature, tau: Expr, xi, a, h, h_frac):
        self.sig = sig
        self.tau = tau
        self.tau_prime = partial_derivative(tau, sig.t)
        self.xi = list(xi)
        self.a = a
        self.h = list(h)
        self.h_frac = list(h_frac)
        self._derived: dict[tuple, Expr] = {}

    def _derivative(self, coeff: Expr, slot: tuple, beta: tuple[int, ...]) -> Expr:
        """d^beta coeff, coeff being the coefficient named by slot.  Every
        derivative of a ZERO is ZERO, with no total derivative taken: the
        coefficients of a concrete generator are mostly constant or linear."""
        if not any(beta):
            return coeff
        key = (slot, beta)
        out = self._derived.get(key)
        if out is None:
            i = max(j for j, k in enumerate(beta) if k)
            lower = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
            out = self._derivative(coeff, slot, lower)
            if out != ZERO:
                out = total_derivative(out, self.sig.x(i))
            self._derived[key] = out
        return out

    def eta_theta(self, s: int, theta: tuple[int, ...]) -> Expr:
        """eta_s^theta."""
        sig = self.sig
        theta = self._full(theta)
        pieces: list[Expr] = []
        for beta in iproduct(*(range(k + 1) for k in theta)):
            weight = math.prod(math.comb(k, b) for k, b in zip(theta, beta))
            rest = tuple(k - b for k, b in zip(theta, beta))
            for j in range(sig.q):
                d = self._derivative(self.a[s][j], ("a", s, j), beta)
                if d != ZERO:
                    pieces.append(_nmul([Rat(weight), d, sig.u(j, rest)]))
            if not any(beta):
                continue
            for i in range(sig.p):
                d = self._derivative(self.xi[i], ("xi", i), beta)
                if d != ZERO:
                    bumped = rest[:i] + (rest[i] + 1,) + rest[i + 1:]
                    pieces.append(_nmul([Rat(-weight), d, sig.u(s, bumped)]))
        pieces.append(self._derivative(self.h[s], ("h", s), theta))
        return _nadd(pieces)

    def _full(self, theta: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(theta) + (0,) * (self.sig.p - len(theta))
