"""Build the invariance condition already separated over jet monomials.

One condition per equation comes from the generator's prolongation
(prolong.Prolongation) and the facts of the system (model.PDESystem).
Every piece of it is a jet-free coefficient times a jet monomial: the
terms of rhs_s and of its partials, each dF_s/d jet, and the Leibniz terms
of eta^theta.  So the pieces go straight to expr.summed_classes, which
groups them by jet monomial (symbolic powers and opaque functional
parameters are distinct monomial classes) and sums and expands each
class's coefficient products once; no sum of the whole condition is
built.  The jet-free class is condition 1, a linear fractional constraint
on the inhomogeneous parts h_s(t,x), and the other classes are condition
2: integer-order linear equations in the ansatz unknowns.  The genericity
facts used to keep monomial classes apart are recorded.  The route
through one expanded sum is kept in fraclie.lemmas as the reference.

reduce_for_presentation propagates zero facts, for display only: each pass
rebinds every equation with one substitute call that sends each chi fact,
and each function atom that is a fact or a derivative of one (_derives), to
ZERO.  The solver consumes the raw system.
"""
from __future__ import annotations

from .exponents import ExponentForm
from .expr import (Expr, Fn, Gamma, ONE, Rat, Sym, ZERO,
                   _base_exp, _coeff_mono, _nmul, _npow,
                   add_terms, atoms, depends_on_jets, expand, mul_factors,
                   render, substitute, summed_classes)
from .linsolve import _content
from .model import Fragments, PDESystem, _is_dependent
from .prolong import AnsatzGenerator, Prolongation, is_unknown
from .records import record


# ---------------------------------------------------------------------------
# The invariance condition
# ---------------------------------------------------------------------------

def invariance_condition(sys: PDESystem, pro: Prolongation
                         ) -> list[tuple[Expr, Fragments]]:
    """Per equation s, the expansion of

        Dt^a h_s + sum_i A_si rhs_i - a*tau'*rhs_s - tau*d_t rhs_s
          - sum_i xi_i*d_xi rhs_s - sum_{jet in F_s} eta^theta(jet)*dF_s/d jet

    whose vanishing characterizes invariance, separated over jet monomials:
    (condition 1, fragments of condition 2) as h_condition splits them.
    pro is the generator's prolongation (AnsatzGenerator.prolongation or
    solver.admitted_prolongation); the facts of the system come from the
    system."""
    sig = sys.sig
    minus_one = Rat(-1)
    out = []
    for s in range(sig.q):
        d_rhs = sys.rhs_partials[s]
        pieces: list[tuple[Expr, Expr]] = []
        if pro.h_frac[s] != ZERO:
            pieces.append((ONE, pro.h_frac[s]))
        for i, a in enumerate(pro.a[s]):
            _collect(pieces, sys.rhs_fragments[i], a)
        # a ZERO factor adds nothing, so its product is not built
        if pro.tau_prime != ZERO:
            _collect(pieces, sys.rhs_fragments[s],
                     _nmul([minus_one, sys.alpha, pro.tau_prime]))
        if pro.tau != ZERO:
            _collect(pieces, d_rhs[0], _nmul([minus_one, pro.tau]))
        for i, xi in enumerate(pro.xi):
            if xi != ZERO:
                _collect(pieces, d_rhs[i + 1], _nmul([minus_one, xi]))
        for jet, d_f in sys.jet_coefficients[s]:
            for mono, coeff in pro.eta_theta(jet.dep, jet.theta):
                _collect(pieces, d_f, _nmul([minus_one, coeff]), mono)
        out.append(h_condition(summed_classes(pieces)))
    return out


def _collect(pieces: list, fragments: Fragments, factor: Expr,
             jet: Expr = ONE) -> None:
    """Add each fragment of a jet polynomial, times the jet-free factor and
    the jet monomial jet, to pieces.  A ZERO factor adds nothing."""
    if factor == ZERO:
        return
    for mono, coeff in fragments:
        pieces.append((mono if jet is ONE else _nmul([jet, mono]),
                       coeff if factor is ONE else _nmul([factor, coeff])))


def h_condition(fragments: Fragments) -> tuple[Expr, Fragments]:
    """(condition 1, condition 2) of one equation's fragments: the
    coefficient of the jet-free class ONE, or ZERO when there is none, and
    the fragments of every other class."""
    frac = ZERO
    rest = []
    for mono, coeff in fragments:
        if mono == ONE:
            frac = coeff
        else:
            rest.append((mono, coeff))
    return frac, rest


def _power_profile(mono: Expr) -> tuple[tuple, dict[int, ExponentForm]]:
    """Split a monomial into (non-power skeleton key, exponent per dep of
    theta=0 jets)."""
    skeleton = []
    powers: dict[int, ExponentForm] = {}
    for f in mul_factors(mono):
        b, e = _base_exp(f)
        if _is_dependent(b):
            powers[b.dep] = powers.get(b.dep, ExponentForm()) + e
        else:
            skeleton.append(f.key())
    return tuple(sorted(skeleton)), powers


def separate(fragments: Fragments, sys: PDESystem) -> list[str]:
    """The genericity assumptions that keep the monomial classes of one
    equation's condition-2 fragments apart."""
    asm = sys.assumptions()
    forms: dict[tuple, tuple[ExponentForm, str]] = {}
    # only monomials of one skeleton are compared: each fragment's
    # (powers, monomial) joins its skeleton's group, and is paired with the
    # later members of that group, in the order of an all-pairs scan
    groups: dict[tuple, list] = {}
    places = []
    for m, _ in fragments:
        skeleton, powers = _power_profile(m)
        group = groups.setdefault(skeleton, [])
        places.append((group, len(group)))
        group.append((powers, m))
    for group, i in places:
        pa, ma = group[i]
        for pb, mb in group[i + 1:]:
            for dep in set(pa) | set(pb):
                d = asm.undecided(pa.get(dep, ExponentForm())
                                  - pb.get(dep, ExponentForm()))
                if d is None or (len(d.coeffs) == 1 and all(
                        asm.is_declared_nonzero(nm) for nm, _ in d.coeffs[0][0])):
                    continue
                forms.setdefault(d.sort_key(), (
                    d, f"separates {render(ma, sys.sig)} from {render(mb, sys.sig)}"))
    notes = [f"{d.render()} != 0 ({why})" for d, why in
             (forms[k] for k in sorted(forms))]
    fn_names = sorted({f.fname for m, _ in fragments for f in atoms(m, Fn)})
    for name in fn_names:
        notes.append(f"{name} and its derivatives span coefficient classes "
                     f"independent of each other and of powers of the dependents")
    return sorted(notes)


# ---------------------------------------------------------------------------
# Equation normalization
# ---------------------------------------------------------------------------

def normalize_equation(e: Expr) -> Expr:
    """Scale by the rational content so coefficients are coprime integers and
    the leading term is positive; stable under per-equation rational scaling."""
    e = expand(e)
    if e == ZERO:
        return ZERO
    terms = add_terms(e)
    scale = 1 / _content(_coeff_mono(t)[0] for t in terms)
    if _coeff_mono(terms[0])[0] < 0:
        scale = -scale
    return expand(_nmul([Rat(scale), e]))


# ---------------------------------------------------------------------------
# The determining system
# ---------------------------------------------------------------------------

@record(frozen=True)
class DeterminingSystem:
    sys: PDESystem
    ans: AnsatzGenerator
    fragments: tuple[tuple[tuple[Expr, Expr], ...], ...]  # per equation s
    integer_eqs: tuple[Expr, ...]
    frac_eqs: tuple[Expr, ...]
    assumptions: tuple[str, ...]

    def reduced(self) -> list[Expr]:
        return reduce_for_presentation(self)


def unknown_atoms_of(e: Expr, ans: AnsatzGenerator) -> list[Expr]:
    names = ans.unknown_names()
    return [a for kind in (Fn, Sym) for a in atoms(e, kind)
            if is_unknown(a, names)]


def build_determining(sys: PDESystem) -> DeterminingSystem:
    ans = AnsatzGenerator(sys.sig, sys.alpha)
    frac_eqs = []
    fragments = []
    notes: set[str] = set()
    eqs: list[Expr] = []
    seen: set[tuple] = set()
    for frac, frags in invariance_condition(sys, ans.prolongation):
        frac_eqs.append(frac)
        fragments.append(tuple(frags))
        notes.update(separate(frags, sys))
        for _, coeff in frags:
            norm = normalize_equation(coeff)
            if norm != ZERO and norm.key() not in seen:
                seen.add(norm.key())
                eqs.append(norm)
    eqs.sort(key=lambda e: e.key())
    return DeterminingSystem(sys, ans, tuple(fragments), tuple(eqs),
                             tuple(frac_eqs), tuple(sorted(notes)))


# ---------------------------------------------------------------------------
# Presentation-level reduction (zero propagation)
# ---------------------------------------------------------------------------

def _invertible_coefficient(e: Expr, sys: PDESystem) -> bool:
    """True for products of rationals, declared-nonzero parameters and Gamma
    atoms; conservative on anything else."""
    asm = sys.assumptions()
    for f in mul_factors(e):
        b, _ = _base_exp(f)
        if isinstance(b, Rat):
            continue
        if isinstance(b, Gamma):
            continue
        if isinstance(b, Sym) and asm.is_declared_nonzero(b.name):
            continue
        return False
    return True


def _derives(f: Fn, z: Fn) -> bool:
    """f is z or a derivative of it: the same function and fractional order,
    differentiated at least as often in every argument."""
    return (f.fname == z.fname and f.frac == z.frac
            and all(a >= b for a, b in zip(f.deriv, z.deriv)))


def reduce_for_presentation(ds: DeterminingSystem) -> list[Expr]:
    """Propagate single-atom zero facts (with provably invertible
    coefficients) through the system; report facts plus surviving equations.
    Display-level only: the solver consumes the raw system."""
    eqs = list(ds.integer_eqs)
    facts: list[Fn] = []
    chi_facts: list[Sym] = []
    changed = True
    while changed:
        changed = False
        new_eqs = []
        for e in eqs:
            zeros = dict.fromkeys(
                chi_facts + [f for f in atoms(e, Fn)
                             if any(_derives(f, z) for z in facts)], ZERO)
            if zeros:
                e = substitute(e, zeros)
            if e == ZERO:
                changed = True
                continue
            un = unknown_atoms_of(e, ds.ans)
            distinct = {u.key() for u in un}
            if len(distinct) == 1:
                atom = un[0]
                coeff = expand(_nmul([e, _npow_inv(atom)]))
                if not depends_on_jets(coeff) and _invertible_coefficient(coeff, ds.sys):
                    if isinstance(atom, Fn):
                        facts.append(atom)
                    else:
                        chi_facts.append(atom)
                    changed = True
                    continue
            new_eqs.append(e)
        eqs = new_eqs

    out: list[Expr] = []
    kept_facts = _minimal_facts(facts)
    for f in kept_facts:
        out.append(f)
    for c in sorted({c.key(): c for c in chi_facts}.values(), key=lambda s: s.key()):
        out.append(c)
    seen = set()
    for e in eqs:
        n = normalize_equation(e)
        if n != ZERO and n.key() not in seen:
            seen.add(n.key())
            out.append(n)
    return out


def _npow_inv(atom: Expr) -> Expr:
    return _npow(atom, ExponentForm.rational(-1))


def _minimal_facts(facts: list[Fn]) -> list[Fn]:
    out: list[Fn] = []
    for f in sorted({f.key(): f for f in facts}.values(), key=lambda x: x.key()):
        if any(f != g and _derives(f, g) for g in facts):
            continue
        out.append(f)
    return out
