"""Symmetry reductions and exact-solution verification.

Translations remove a space variable outright, in one substitute call.
Scaling generators produce similarity variables with exact exponents plus
the parameters of the generalized Erdelyi-Kober operator of the reduced
form (recorded, not symbolically verified).  Exact candidate solutions,
which must not mention a dependent, are verified against the system with
the closed-form power rule: the jets of F, read once per system
(PDESystem.jets), are bound to the derivatives of the candidate and
substituted into rhs_s in one pass.
"""
from __future__ import annotations

from typing import Optional

from .exponents import ExponentForm, UNIT_FORM
from .expr import (Expr, Jet, Var, ZERO, ONE, _nmul, atoms,
                   depends_on_jets, expand, partial_derivative, substitute,
                   to_eform)
from .fraccalc import PowerSum, rl_derivative
from .linsolve import Field
from .model import PDESystem, Signature, make_system
from .records import record
from .solver import Generator


class NotTranslation(Exception):
    pass


class NotScaling(Exception):
    pass


# ---------------------------------------------------------------------------
# Translation reductions
# ---------------------------------------------------------------------------

@record(frozen=True)
class TranslationReduction:
    system: PDESystem
    removed: str
    similarity: tuple[str, ...]      # human-readable similarity variables


def _drop_axis(e: Expr, axis: int) -> Expr:
    """e without space axis `axis`: a jet differentiated along it is ZERO,
    and later axes shift down by one, in variables and jet orders alike."""
    bindings: dict[Expr, Expr] = {}
    for v in atoms(e, Var):
        if v.is_time or v.axis < axis:
            continue
        if v.axis == axis:
            raise NotTranslation(f"the system depends explicitly on {v.name}")
        bindings[v] = Var(v.name, v.axis - 1)
    for j in atoms(e, Jet):
        th = j.theta
        bindings[j] = (ZERO if axis < len(th) and th[axis] > 0 else
                       Jet(j.dep, th[:axis] + th[axis + 1:], j.t_order, j.frac))
    return substitute(e, bindings)


def translation_reduction(sys: PDESystem, gen: Generator) -> TranslationReduction:
    """Reduce by a pure translation d/d(x_i): drop x_i and every jet
    differentiated in it."""
    axis: Optional[int] = None
    if gen.tau != ZERO or any(e != ZERO for e in gen.eta):
        raise NotTranslation("generator is not a pure space translation")
    for i, xi in enumerate(gen.xi):
        if xi == ONE:
            if axis is not None:
                raise NotTranslation("generator translates two variables")
            axis = i
        elif xi != ZERO:
            raise NotTranslation("generator is not a pure space translation")
    if axis is None:
        raise NotTranslation("generator is not a pure space translation")

    sig = sys.sig
    new_sig = Signature(alpha_name=sig.alpha_name,
                        space_names=tuple(n for i, n in enumerate(sig.space_names)
                                          if i != axis),
                        dep_names=sig.dep_names, params=sig.params,
                        fn_decls=sig.fn_decls, t_name=sig.t_name)
    rhs = [_drop_axis(sys.rhs(s), axis) for s in range(sys.q)]
    reduced = make_system(new_sig, rhs, alpha=sys.alpha)
    similarity = [f"z1 = {sig.t_name}"]
    similarity += [f"z{i + 2} = {n}" for i, n in enumerate(new_sig.space_names)]
    similarity += [f"{d.upper()}(z) = {d}" for d in sig.dep_names]
    return TranslationReduction(reduced, sig.space_names[axis], tuple(similarity))


# ---------------------------------------------------------------------------
# Scaling reductions and Erdelyi-Kober metadata
# ---------------------------------------------------------------------------

@record(frozen=True)
class EKReduction:
    """Similarity variables z_i = x_i t^(-A_i), transformed dependents
    U_s = u_s t^(-B_s), and the recorded Erdelyi-Kober parameters of the
    reduced form: prefactor t^(B_s - alpha) (P^{eps_s, alpha}_{delta} U_s)."""
    sig: Signature
    alpha: Expr
    z_exponents: tuple[ExponentForm, ...]       # A_i
    u_exponents: tuple[ExponentForm, ...]       # B_s
    ek_epsilon: tuple[ExponentForm, ...]        # 1 + B_s - alpha
    ek_delta: tuple[Optional[ExponentForm], ...]  # 1/A_i, None unless A_i is a monomial

    def describe(self) -> list[str]:
        sig = self.sig
        out = []
        for i, A in enumerate(self.z_exponents):
            out.append(f"z{i + 1} = {sig.space_names[i]}*{sig.t_name}^({(-A).render()})")
        for s, B in enumerate(self.u_exponents):
            out.append(f"U{s + 1} = {sig.dep_names[s]}*{sig.t_name}^({(-B).render()})")
        for s in range(len(self.u_exponents)):
            delta = ", ".join(
                d.render() if d is not None
                else "inf" if A.is_zero() else f"1/({A.render()})"
                for d, A in zip(self.ek_delta, self.z_exponents))
            pre = (self.u_exponents[s] - to_eform(self.alpha)).render()
            out.append(f"Dt^alpha {sig.dep_names[s]} = {sig.t_name}^({pre}) * "
                       f"(P[eps={self.ek_epsilon[s].render()}, alpha, "
                       f"delta=({delta})] U{s + 1})(z)")
        return out


def _linear_coefficient(e: Expr, atom: Expr) -> Expr:
    """c with e == c*atom exactly, else None."""
    c = partial_derivative(e, atom)
    if expand(e - _nmul([c, atom])) != ZERO:
        return None
    return c


def scaling_similarity(gen: Generator, alpha: Expr) -> EKReduction:
    sig = gen.sig
    t = sig.t
    chi1 = _linear_coefficient(gen.tau, t)
    if chi1 is None or chi1 == ZERO or depends_on_jets(chi1):
        raise NotScaling("tau must be a nonzero multiple of t")
    chi1_form = to_eform(chi1)
    if chi1_form is None or len(chi1_form.coeffs) != 1:
        raise NotScaling("the t-coefficient of tau must be a parameter monomial")
    inv_chi1 = chi1_form ** -1

    a_forms = []
    for i in range(sig.p):
        ai = _linear_coefficient(gen.xi[i], sig.x(i))
        if ai is None:
            raise NotScaling(f"xi_{sig.space_names[i]} must be a multiple of "
                             f"{sig.space_names[i]}")
        fa = to_eform(ai)
        if fa is None:
            raise NotScaling("space scaling coefficients must be exponent-affine")
        a_forms.append(fa * inv_chi1)
    b_forms = []
    for s in range(sig.q):
        bs = _linear_coefficient(gen.eta[s], sig.u(s))
        if bs is None:
            raise NotScaling("eta must be a multiple of the dependent")
        fb = to_eform(bs)
        if fb is None:
            raise NotScaling("dependent scaling coefficients must be exponent-affine")
        b_forms.append(fb * inv_chi1)

    af = to_eform(alpha)
    eps = tuple(UNIT_FORM + B - af for B in b_forms)
    delta = tuple(A ** -1 if len(A.coeffs) == 1 else None for A in a_forms)
    return EKReduction(sig, alpha, tuple(a_forms), tuple(b_forms), eps, delta)


# ---------------------------------------------------------------------------
# Exact-solution verification
# ---------------------------------------------------------------------------

def verify_exact_solution(sys: PDESystem, sol: list[Expr]) -> list[Expr]:
    """residual_s = Dt^alpha(sol_s) - (F_s + H_s) evaluated on the candidate;
    all-zero means verified.  Solutions must be power sums in t whose
    coefficients may involve x and opaque function atoms, but no dependent
    or jet: a component that mentions one raises ValueError."""
    if len(sol) != sys.q:
        raise ValueError(f"expected {sys.q} solution components")
    if any(depends_on_jets(c) for c in sol):
        raise ValueError("a solution component mentions a dependent")
    asm = sys.assumptions()
    fld = None
    sig = sys.sig

    # the jets of F, read once per system; make_system leaves none in H
    bindings: dict[Expr, Expr] = {}
    for jets in sys.jets:
        for j in jets:
            if j in bindings:
                continue
            val = sol[j.dep]
            for i, k in enumerate(j.theta):
                for _ in range(k):
                    val = partial_derivative(val, sig.x(i))
            bindings[j] = val

    residuals = []
    for s in range(sys.q):
        ps = PowerSum.from_expr(sol[s], sig.t)
        lhs = rl_derivative(ps, sys.alpha, tvar=sig.t, assumptions=asm).to_expr()
        rhs = substitute(sys.rhs(s), bindings) if bindings else sys.rhs(s)
        diff = lhs - rhs
        if diff != ZERO:
            # a residual that is not ZERO structurally goes through the
            # Field's zero test, the Field built once
            if fld is None:
                fld = Field(asm)
            diff = fld.to_expr(fld.elem(diff))
        residuals.append(diff)
    return residuals
