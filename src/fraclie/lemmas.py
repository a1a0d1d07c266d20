"""The paper's lemmas as executable fixtures, and the helpers only tests use.

Generalized binomials, the Leibniz expansion and the truncated series form
of the Riemann-Liouville derivative; the fractional extended infinitesimal
under the ansatz, its auxiliary conditions and the nonlinearity tail mu;
the invariance condition as one expanded sum, the reference for the
separated builder of fraclie.determining.  Tests and demos check the
lemmas with these; the pipeline never imports this module.  The helpers:
DSL emission, the parser's inverse; the normal form of a basis given as
expressions; the basis function of a solver column; and the action of a
generator on its similarity variables.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .exponents import Assumptions, ExponentForm
from .expr import (Add, Expr, ExprLike, Fn, Gamma, Jet, Mul, NonPolynomial, Pow,
                   Rat, Sym, Var, ZERO, ONE, _coeff_mono, _nadd, _nmul, _npow,
                   add_terms, any_node, as_expr, as_eform, atoms, diff_wrt,
                   expand, from_eform, gamma_simplify, group_by_monomial,
                   partial_derivative, render, split_factors, substitute,
                   to_eform, total_derivative)
from .fraccalc import PowerSum, as_power_sum, default_assumptions, rl_derivative
from .linsolve import Elem, Field
from .determining import h_condition
from .model import PDESystem, Signature, jet_fragments
from .prolong import AnsatzGenerator, Prolongation
from .records import record
from .reductions import EKReduction
from .solver import (Generator, GeneratorVector, SolutionBasis, _Instantiation,
                     _structural, normalize_generators, verify_generator)


class NegativeIndex(ValueError):
    pass


# ---------------------------------------------------------------------------
# Expression helpers
# ---------------------------------------------------------------------------

def subs_params(e: Expr, values: Mapping[str, Fraction]) -> Expr:
    return substitute(e, {Sym(n): Rat(Fraction(v)) for n, v in values.items()})


def collect_monomials(e: Expr, basis: Iterable[Jet]) -> dict[Expr, Expr]:
    """Collect an expression polynomial in the given jets: returns a map
    monomial -> coefficient with coefficients free of basis jets.  Powers of a
    basis jet with symbolic exponent are distinct monomial atoms."""
    basis_keys = {as_expr(b).key() for b in basis}

    def is_basis(x: Expr) -> bool:
        return x.key() in basis_keys

    def basis_factor(b: Expr, _) -> bool:
        if is_basis(b):
            return True
        if isinstance(b, (Gamma, Fn)) and any_node(b, is_basis):
            raise NonPolynomial(
                f"basis jet inside an opaque application: {render(b)}")
        return False

    return dict(group_by_monomial(expand(e), basis_factor))


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
# Leibniz expansion and the truncated series form
# ---------------------------------------------------------------------------

def leibniz_expand(u: ExprLike, v: Union[PowerSum, ExprLike], alpha: ExprLike,
                   K: int = 12, *, tvar: Optional[Var] = None,
                   assumptions: Optional[Assumptions] = None) -> Expr:
    """Sum_{k=0..K} C(alpha,k) * Dt^k(u) * Dt^(alpha-k)(v).  Exact whenever u
    is a t-polynomial of degree <= K (higher terms vanish identically)."""
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
    Dt the kernel total derivative."""
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


# ---------------------------------------------------------------------------
# Extended infinitesimals under the ansatz
# ---------------------------------------------------------------------------

def total_derivative_theta(e: Expr, sig: Signature, theta: tuple[int, ...]) -> Expr:
    """D_theta e: the total x-derivatives of the multi-index theta."""
    for i, k in enumerate(theta):
        for _ in range(k):
            e = total_derivative(e, sig.x(i))
    return e


def eta_theta_of(sig: Signature, eta_s: Expr, xi: list[Expr], s: int,
                 theta: tuple[int, ...]) -> Expr:
    """D_theta(eta_s - sum_i xi_i u_s^i) + sum_i xi_i u_s^(theta+e_i): the
    extended infinitesimal by the total derivative of the characteristic,
    valid for any eta and xi; the reference for prolong.Prolongation."""
    theta = tuple(theta) + (0,) * (sig.p - len(theta))
    core = eta_s
    for i in range(sig.p):
        e_i = tuple(1 if j == i else 0 for j in range(sig.p))
        core = core - _nmul([xi[i], sig.u(s, e_i)])
    tail = []
    for i in range(sig.p):
        bumped = tuple(theta[j] + (1 if j == i else 0) for j in range(sig.p))
        tail.append(_nmul([xi[i], sig.u(s, bumped)]))
    return _nadd([total_derivative_theta(core, sig, theta)] + tail)


def eta_theta(ans: AnsatzGenerator, s: int, theta: tuple[int, ...]) -> Expr:
    return eta_theta_of(ans.sig, ans.eta(s),
                        [ans.xi(i) for i in range(ans.sig.p)], s, theta)


# ---------------------------------------------------------------------------
# The invariance condition as one expanded sum
# ---------------------------------------------------------------------------

def invariance_condition_sum(sys: PDESystem, pro: Prolongation) -> list[Expr]:
    """Per equation s, the invariance condition of
    determining.invariance_condition as one expanded sum.  The extended
    infinitesimals come from the total derivative of the characteristic
    (eta_theta_of), and the system's partials are taken here, so nothing
    is shared with the builder but the prolongation's record."""
    sig = sys.sig
    eta = [_nadd([_nmul([pro.a[r][j], sig.u(j)]) for j in range(sig.q)] + [pro.h[r]])
           for r in range(sig.q)]
    out = []
    for s in range(sig.q):
        rhs = sys.rhs(s)
        pieces = [pro.h_frac[s]]
        pieces += [_nmul([pro.a[s][i], sys.rhs(i)]) for i in range(sig.q)]
        pieces.append(_nmul([Rat(-1), sys.alpha, pro.tau_prime, rhs]))
        pieces.append(_nmul([Rat(-1), pro.tau, partial_derivative(rhs, sig.t)]))
        for i in range(sig.p):
            pieces.append(_nmul([Rat(-1), pro.xi[i],
                                 partial_derivative(rhs, sig.x(i))]))
        for jet in atoms(sys.F[s], Jet):
            ext = eta_theta_of(sig, eta[jet.dep], pro.xi, jet.dep, jet.theta)
            pieces.append(_nmul([Rat(-1), ext, partial_derivative(sys.F[s], jet)]))
        out.append(expand(_nadd(pieces)))
    return out


def separated_by_one_sum(sys: PDESystem, pro: Prolongation
                         ) -> list[tuple[Expr, list[tuple[Expr, Expr]]]]:
    """(condition 1, fragments of condition 2) per equation, split off
    invariance_condition_sum by jet_fragments and h_condition: the
    reference for determining.invariance_condition."""
    return [h_condition(jet_fragments(c))
            for c in invariance_condition_sum(sys, pro)]


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
                         tau: Optional[Expr] = None,
                         subs: Optional[Mapping[Expr, ExprLike]] = None
                         ) -> tuple[bool, list[tuple[int, str, Expr]]]:
    """Verify that for 1 <= k <= k_max the series coefficients of
    Dt^(alpha-k) u_s and Dt^(alpha-k) u_i vanish identically under the
    ansatz, after the bindings subs (say gamma_s = (alpha-1)/2) are applied.
    A tau override installs a corrupted time coefficient (the
    u_s-coefficient of eta is rebuilt as g_s + gamma_s * Dt(tau))."""
    sig = ans.sig
    t = sig.t
    alpha = ans.alpha
    tau_expr = as_expr(tau) if tau is not None else ans.tau

    def residual(e: Expr) -> Expr:
        return expand(substitute(e, subs or {}))

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
            res = residual(
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
                res2 = residual(_nmul([gen_binomial(alpha, k), dk2]))
                if res2 != ZERO:
                    residuals.append((k, f"Dt^(alpha-{k}) u_{i + 1} in eq {s + 1}", res2))
    return (not residuals), residuals


# ---------------------------------------------------------------------------
# The nonlinearity tail mu_s
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


# ---------------------------------------------------------------------------
# DSL emission (the inverse of the parser, for round trips)
# ---------------------------------------------------------------------------

def emit_expr_dsl(e: Expr, sig: Signature) -> str:
    def jet_dsl(j: Jet) -> str:
        body = sig.dep_names[j.dep]
        if j.t_order or j.frac is not None:
            raise ValueError("t-derivative jets have no DSL form")
        for i in range(sig.p - 1, -1, -1):
            k = j.theta[i] if i < len(j.theta) else 0
            if k:
                op = f"D{sig.space_names[i]}"
                body = f"{op}^{k}({body})" if k > 1 else f"{op}({body})"
        return body

    def go(x: Expr, prec: int) -> str:
        if isinstance(x, Rat):
            if x.value.denominator == 1:
                s = str(x.value)
            else:
                s = f"{x.value.numerator}/{x.value.denominator}"
                if prec >= 2:
                    s = f"({s})"
            return f"({s})" if (x.value < 0 and prec >= 1) else s
        if isinstance(x, Sym):
            return x.name
        if isinstance(x, Var):
            return x.name
        if isinstance(x, Jet):
            return jet_dsl(x)
        if isinstance(x, Fn):
            if any(x.deriv) or x.frac:
                raise ValueError("derived unknown functions have no DSL form")
            inner = ", ".join(go(a, 0) for a in x.args)
            return f"{x.fname}({inner})"
        if isinstance(x, Gamma):
            return f"Gamma({go(x.arg, 0)})"
        if isinstance(x, Pow):
            b = go(x.base, 2)
            if isinstance(x.base, (Add, Mul, Pow)):
                b = f"({b})"
            return f"{b}^({go(from_eform(x.exp), 0)})"
        if isinstance(x, Mul):
            factors = list(x.factors)
            sign = ""
            if isinstance(factors[0], Rat) and factors[0].value == -1 and len(factors) > 1:
                sign = "-"
                factors = factors[1:]
            s = sign + "*".join(go(f, 1) if not isinstance(f, Add) else f"({go(f, 0)})"
                                for f in factors)
            return f"({s})" if (sign and prec >= 1) else s
        if isinstance(x, Add):
            c0, m0 = _coeff_mono(x.terms[0])
            first = (_nmul([Rat(-c0)] + ([m0] if m0 is not None else []))
                     if c0 < 0 else x.terms[0])
            out = ("-" if c0 < 0 else "") + go(first, 1 if c0 < 0 else 0)
            for term in x.terms[1:]:
                c, mono = _coeff_mono(term)
                if c < 0:
                    out += " - " + go(_nmul([Rat(-c)] + ([mono] if mono is not None else [])), 1)
                else:
                    out += " + " + go(term, 1)
            return f"({out})" if prec >= 1 else out
        raise TypeError(f"not an expression: {x!r}")

    return go(e, 0)


def emit_dsl(sys: PDESystem) -> str:
    sig = sys.sig
    lines = []
    for p in sig.params:
        if p.kind == "free":
            lines.append(f"param {p.name};")
        elif p.kind == "interval":
            lines.append(f"param {p.name} in ({p.lo}, {p.hi});")
        else:
            lines.append(f"param {p.name} {p.kind};")
    if isinstance(sys.alpha, Rat):
        v = sys.alpha.value
        lines.append(f"alpha {v.numerator}/{v.denominator};")
    else:
        lines.append(f"alpha {sig.alpha_name};")
    if sig.space_names:
        lines.append("space " + ", ".join(sig.space_names) + ";")
    lines.append("dep " + ", ".join(sig.dep_names) + ";")
    for fname, arg in sig.fn_decls:
        lines.append(f"fn {fname}({arg});")
    for s in range(sys.q):
        rhs = emit_expr_dsl(sys.rhs(s), sig)
        lines.append(f"Dt^{sig.alpha_name}({sig.dep_names[s]}) = {rhs};")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Solver columns and the basis normal form from expressions
# ---------------------------------------------------------------------------

def basis_function(inst: _Instantiation, b: object) -> Expr:
    """The basis function of a column: ONE for chi1 and chi2, the
    x-monomial with exponents b, or the template with index b."""
    if b is None:
        return ONE
    if isinstance(b, tuple):
        return inst.x_monomial(b)[0]
    return inst.templates[b]


def _structural_groups(e: Expr, fld: Field) -> dict[tuple, tuple[Expr, Elem]]:
    """Field coefficient of each structural monomial of an expanded
    expression, keyed by the monomial's key; zero sums are kept."""
    groups: dict[tuple, tuple[Expr, Elem]] = {}
    for term in add_terms(e):
        if term == ZERO:
            continue
        mono, coeff = split_factors(term, _structural)
        k = mono.key()
        c = fld.elem(coeff)
        groups[k] = (mono, fld.add(groups[k][1], c) if k in groups else c)
    return groups


def _generator_vector(g: Generator, fld: Field) -> GeneratorVector:
    """The vector of a generator given as expressions."""
    out: GeneratorVector = {}
    for ci, comp in enumerate([g.tau] + list(g.xi) + list(g.eta)):
        for k, (mono, c) in _structural_groups(fld.norm_expr(comp), fld).items():
            out[(ci, k)] = (mono, c)
    return out


def normalize_basis(basis: SolutionBasis) -> SolutionBasis:
    """Reduced row-echelon normal form of the emitted generators; idempotent."""
    fld = Field(basis.sys.assumptions())
    merged = normalize_generators(
        [_generator_vector(g, fld)
         for g in basis.generators + basis.shift_generators],
        basis.sys.sig, fld)
    main = tuple(g for g in merged if not g.is_shift())
    shifts = tuple(g for g in merged if g.is_shift())
    reports = tuple(verify_generator(basis.sys, g) for g in main)
    shift_reports = tuple(verify_generator(basis.sys, g) for g in shifts)
    return SolutionBasis(basis.sys, main, shifts, basis.assumptions,
                         basis.branch_dims, reports, shift_reports)


# ---------------------------------------------------------------------------
# Similarity variables
# ---------------------------------------------------------------------------

def similarity_invariance_residuals(gen: Generator, red: EKReduction) -> list[Expr]:
    """The generator must annihilate every similarity variable: X(z_i) = 0
    and X(u_s t^(-B_s)) = 0 by construction."""
    sig = gen.sig
    t = sig.t
    out = []

    def apply_x(expr: Expr) -> Expr:
        pieces = [_nmul([gen.tau, partial_derivative(expr, t)])]
        for i in range(sig.p):
            pieces.append(_nmul([gen.xi[i], partial_derivative(expr, sig.x(i))]))
        for s in range(sig.q):
            pieces.append(_nmul([gen.eta[s], diff_wrt(expr, sig.u(s))]))
        return expand(_nadd(pieces))

    for i in range(sig.p):
        z = _nmul([sig.x(i), _npow(t, -red.z_exponents[i])])
        out.append(apply_x(z))
    for s in range(sig.q):
        U = _nmul([sig.u(s), _npow(t, -red.u_exponents[s])])
        out.append(apply_x(U))
    return out
