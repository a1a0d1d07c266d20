"""Prolongation machinery for the structured generator ansatz.

The admitted generator has tau = chi2*t^2 + chi1*t, xi_i = xi_i(x),
eta_s = [g_s(x) + gamma_s*(2*chi2*t + chi1)]*u_s + sum_{i!=s} f_{s,i}(x)*u_i
+ h_s(t,x), with gamma_s fixed by the chi2 branch.  Integer-order extended
infinitesimals use the tau-free simplified formula; the fractional extended
infinitesimal reduces to a local part plus series coefficients that vanish
identically under the ansatz (the nonlinearity tail mu is zero because eta
is linear in u).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .exponents import ExponentForm
from .expr import (Expr, Fn, Gamma, Jet, Rat, Sym, Var, ZERO, ONE,
                   _nadd, _nmul, _npow, as_expr, atoms, diff_wrt,
                   expand, partial_derivative, total_derivative)
from .fraccalc import gen_binomial
from .model import PDESystem, Signature
from .records import record


BRANCH_UNIFIED = "unified"
BRANCH_ZERO = "zero"
BRANCH_NONZERO = "nonzero"


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
    branch: str = BRANCH_UNIFIED

    @property
    def chi1(self) -> Sym:
        return Sym("chi1")

    @property
    def chi2(self) -> Sym:
        return Sym("chi2")

    @property
    def tau(self) -> Expr:
        t = self.sig.t
        if self.branch == BRANCH_ZERO:
            return _nmul([self.chi1, t])
        return _nadd([_nmul([self.chi2, _npow(t, ExponentForm.rational(2))]),
                      _nmul([self.chi1, t])])

    @property
    def tau_prime(self) -> Expr:
        return total_derivative(self.tau, self.sig.t)

    def gamma(self, s: int) -> Expr:
        if self.branch == BRANCH_ZERO:
            return ZERO
        if self.branch == BRANCH_NONZERO:
            return (self.alpha - ONE) * Rat(Fraction(1, 2))
        return Sym(_indexed("gamma", s, self.sig.q))

    def gamma_symbols(self) -> list[str]:
        if self.branch != BRANCH_UNIFIED:
            return []
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

    def with_branch(self, branch: str) -> "AnsatzGenerator":
        return AnsatzGenerator(self.sig, self.alpha, branch)


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


def eta_theta(ans: AnsatzGenerator, s: int, theta: tuple[int, ...]) -> Expr:
    return eta_theta_of(ans.sig, ans.eta(s),
                        [ans.xi(i) for i in range(ans.sig.p)], s, theta)


# ---------------------------------------------------------------------------
# Fractional extended infinitesimal under the ansatz
# ---------------------------------------------------------------------------

@record(frozen=True)
class EtaAlpha:
    """Local part (solution-space form) and the series coefficients of
    Dt^(alpha-k) objects for k >= 1."""
    local: Expr
    series_u: dict          # k -> tuple over i of coeff of Dt^(alpha-k) u_i
    series_ux: dict         # k -> tuple over i of coeff of Dt^(alpha-k) u_s^(x_i)


def eta_alpha_ansatz(ans: AnsatzGenerator, sys: PDESystem, s: int,
                     k_max: int = 4) -> EtaAlpha:
    sig = ans.sig
    t = sig.t
    alpha = sys.alpha
    local = Fn(ans.h(s).fname, (t,) + tuple(sig.x(i) for i in range(sig.p)),
               frac=True)
    pieces: list[Expr] = [local]
    for i in range(sig.q):
        pieces.append(_nmul([ans.deta_du(s, i), sys.rhs(i)]))
    pieces.append(_nmul([Rat(-1), alpha, ans.tau_prime, sys.rhs(s)]))
    local_expr = _nadd(pieces)

    series_u: dict[int, tuple[Expr, ...]] = {}
    series_ux: dict[int, tuple[Expr, ...]] = {}
    for k in range(1, k_max + 1):
        row = []
        for i in range(sig.q):
            d = ans.deta_du(s, i)
            dk = d
            for _ in range(k):
                dk = partial_derivative(dk, t)
            coeff = _nmul([gen_binomial(alpha, k), dk])
            if i == s:
                dtau = ans.tau
                for _ in range(k + 1):
                    dtau = total_derivative(dtau, t)
                coeff = coeff - _nmul([gen_binomial(alpha, k + 1), dtau])
            row.append(expand(coeff))
        series_u[k] = tuple(row)
        rowx = []
        for i in range(sig.p):
            dxi = ans.xi(i)
            dk = dxi
            for _ in range(k):
                dk = total_derivative(dk, t)
            rowx.append(expand(_nmul([Rat(-1), gen_binomial(alpha, k), dk])))
        series_ux[k] = tuple(rowx)
    return EtaAlpha(local_expr, series_u, series_ux)


# ---------------------------------------------------------------------------
# Auxiliary separated conditions
# ---------------------------------------------------------------------------

def check_aux_conditions(ans: AnsatzGenerator, k_max: int, *,
                         tau: Optional[Expr] = None
                         ) -> tuple[bool, list[tuple[int, str, Expr]]]:
    """Verify that for 1 <= k <= k_max the series coefficients of
    Dt^(alpha-k) u_s and Dt^(alpha-k) u_i vanish identically under the
    ansatz.  A tau override installs a corrupted time coefficient (the
    u_s-coefficient of eta is rebuilt as g_s + gamma_s * Dt(tau))."""
    sig = ans.sig
    t = sig.t
    alpha = ans.alpha
    tau_expr = as_expr(tau) if tau is not None else ans.tau
    residuals: list[tuple[int, str, Expr]] = []
    for s in range(sig.q):
        r = _nadd([ans.g(s), _nmul([ans.gamma(s), total_derivative(tau_expr, t)])])
        for k in range(1, k_max + 1):
            dk = r
            for _ in range(k):
                dk = partial_derivative(dk, t)
            dtau = tau_expr
            for _ in range(k + 1):
                dtau = total_derivative(dtau, t)
            res = expand(
                _nmul([gen_binomial(alpha, k), dk])
                - _nmul([gen_binomial(alpha, k + 1), dtau]))
            if res != ZERO:
                residuals.append((k, f"Dt^(alpha-{k}) u_{s + 1}", res))
            for i in range(sig.q):
                if i == s:
                    continue
                d = ans.deta_du(s, i)
                dk2 = d
                for _ in range(k):
                    dk2 = partial_derivative(dk2, t)
                res2 = expand(_nmul([gen_binomial(alpha, k), dk2]))
                if res2 != ZERO:
                    residuals.append((k, f"Dt^(alpha-{k}) u_{i + 1} in eq {s + 1}", res2))
    return (not residuals), residuals


# ---------------------------------------------------------------------------
# The nonlinearity tail mu_s (test fixture)
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def mu_truncated(eta: Expr, N: int, q: int, *, alpha: Expr,
                 tvar: Optional[Var] = None) -> Expr:
    """The double-sum nonlinearity tail, truncated at n <= N.  eta must be a
    function of (t, x, u_1..u_q) without jet derivatives.  Identically zero
    iff eta is linear in the u_i."""
    if N < 2:
        raise ValueError("truncation order must be at least 2")
    t = tvar if tvar is not None else Var("t", -1)
    for j in atoms(eta, Jet):
        if j.t_order or j.frac is not None or any(j.theta):
            raise ValueError("eta may only depend on undifferentiated dependents")

    us = {j.dep: j for j in atoms(eta, Jet)}

    def u_of(i: int) -> Jet:
        return us.get(i, Jet(i, ()))

    total = ZERO
    alpha = as_expr(alpha)
    for n in range(2, N + 1):
        weight = _nmul([
            gen_binomial(alpha, n),
            _npow(t, ExponentForm.rational(n) - _alpha_form(alpha)),
            _npow(Gamma(_nadd([Rat(n + 1), _nmul([Rat(-1), alpha])])),
                  ExponentForm.rational(-1)),
        ])
        for M in range(2, n + 1):
            for m in _compositions(M, q):
                m0 = n - M
                multinom = 1
                left = n
                for mi in m:
                    multinom *= math.comb(left, mi)
                    left -= mi
                for k in _iter_k(m):
                    if sum(k) < 2:
                        continue
                    dpart = eta
                    for i, ki in enumerate(k):
                        for _ in range(ki):
                            dpart = diff_wrt(dpart, u_of(i))
                        if dpart == ZERO:
                            break
                    if dpart == ZERO:
                        continue
                    for _ in range(m0):
                        dpart = partial_derivative(dpart, t)
                    if dpart == ZERO:
                        continue
                    inner = [Rat(multinom), weight, dpart]
                    dead = False
                    for i, (ki, mi) in enumerate(zip(k, m)):
                        si = _inner_sum(u_of(i), ki, mi, t)
                        if si == ZERO:
                            dead = True
                            break
                        inner.append(si)
                    if dead:
                        continue
                    total = total + _nmul(inner)
    return expand(total)


def _alpha_form(alpha: Expr) -> ExponentForm:
    from .expr import to_eform
    f = to_eform(alpha)
    if f is None:
        raise ValueError("fractional order must be exponent-affine")
    return f


def _iter_k(m: tuple[int, ...]):
    ranges = [range(mi + 1) for mi in m]

    def rec(idx: int, acc: tuple[int, ...]):
        if idx == len(ranges):
            yield acc
            return
        for v in ranges[idx]:
            yield from rec(idx + 1, acc + (v,))

    yield from rec(0, ())


def _inner_sum(u: Jet, k: int, m: int, t: Var) -> Expr:
    """sum_{r=0..k} (1/k!) C(k,r) (-u)^r Dt^m(u^(k-r)), zero factors dropped."""
    if k == 0:
        return ONE if m == 0 else ZERO
    pieces = []
    for r in range(k + 1):
        p = k - r
        if p == 0 and m > 0:
            continue
        body: Expr = _npow(u, ExponentForm.rational(p)) if p else ONE
        for _ in range(m):
            body = total_derivative(body, t)
        if body == ZERO:
            continue
        coeff = Fraction(math.comb(k, r), math.factorial(k)) * (-1) ** r
        pieces.append(_nmul([Rat(coeff), _npow(u, ExponentForm.rational(r)), body]))
    return _nadd(pieces)
