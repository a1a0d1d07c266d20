"""Prolongation machinery for the structured generator ansatz.

The admitted generator has tau = chi2*t^2 + chi1*t, xi_i = xi_i(x),
eta_s = [g_s(x) + gamma_s*(2*chi2*t + chi1)]*u_s + sum_{i!=s} f_{s,i}(x)*u_i
+ h_s(t,x), with gamma_s a symbol the solver binds to (alpha-1)/2.
Integer-order extended infinitesimals use the tau-free simplified formula;
the fractional extended infinitesimal reduces to a local part plus series
coefficients that vanish identically under the ansatz (the nonlinearity tail
mu is zero because eta is linear in u; see fraclie.lemmas).
"""
from __future__ import annotations

from .exponents import ExponentForm
from .expr import (Expr, Fn, Sym, Var, _nadd, _nmul, _npow, diff_wrt,
                   total_derivative)
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

    def h_frac(self, s: int) -> Expr:
        """The opaque fractional application Dt^alpha h_s."""
        h = self.h(s)
        return Fn(h.fname, h.args, h.deriv, frac=True)

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


def is_unknown(b: Expr, names: frozenset[str]) -> bool:
    """Whether b is an unknown, names being the ansatz's unknown_names()."""
    return ((isinstance(b, Fn) and b.fname in names)
            or (isinstance(b, Sym) and b.name in names))


# ---------------------------------------------------------------------------
# Integer-order extended infinitesimals (simplified: tau-free)
# ---------------------------------------------------------------------------

def eta_theta_of(sig: Signature, eta_s: Expr, xi: list[Expr], s: int,
                 theta: tuple[int, ...]) -> Expr:
    """D_theta(eta_s - sum_i xi_i u_s^i) + sum_i xi_i u_s^(theta+e_i), any
    concrete or unknown eta/xi of the admitted shape."""
    theta = tuple(theta) + (0,) * (sig.p - len(theta))
    core = eta_s
    for i in range(sig.p):
        e_i = tuple(1 if j == i else 0 for j in range(sig.p))
        core = core - _nmul([xi[i], sig.u(s, e_i)])
    out = core
    for i, k in enumerate(theta):
        for _ in range(k):
            out = total_derivative(out, sig.x(i))
    tail = []
    for i in range(sig.p):
        bumped = tuple(theta[j] + (1 if j == i else 0) for j in range(sig.p))
        tail.append(_nmul([xi[i], sig.u(s, bumped)]))
    return _nadd([out] + tail)
