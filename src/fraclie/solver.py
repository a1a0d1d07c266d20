"""Exact solver for the determining system.

Fixes gamma_s = (alpha-1)/2, so one linear system holds both the chi2 = 0
and the chi2 != 0 solutions.  The unknown x-functions are taken as
total-degree polynomials and the inhomogeneous parts h_s as combinations of
a certified template library; each coefficient is a column of an exact
linear system over the rational functions in the parameters.  The solver
emits a normalized basis with machine-checked residual certificates: each
generator's invariance condition is rebuilt from its own prolongation
(admitted_prolongation), built already separated over jet monomials.  Each
eta_s is split once into its jet fragments (model.jet_fragments), and
A_sj, h_s and the shape checks are read off that split.  The solve and
every certificate of a system compute in its one Field, PDESystem.field.

Every determining equation is homogeneous linear in the unknowns, so each
is compiled once into operator form: per term, the unknown, its derivative
multi-index and fractional marker, and the rest of the term split into a
t-power, a structural monomial and a field coefficient.  A column is then
the image of its basis function: d^k x^b = ff(b, k) x^(b-k), in integers,
for a monomial, and for h_s the template, its derivative or its RL image,
each computed once per solve.  The rows are the (t-power, monomial)
classes of those images; no instantiated equation is built or expanded.
The field coefficients are carried as terms of the Field (a rational times
a monomial in the parameter and Gamma atoms), and an entry is the sum of
the elements of its product terms.  The components of the generators are compiled the
same way once per solve, so a null vector becomes a generator coefficient
by coefficient: the sum over columns of the entry times the column's
coefficient.

The columns go up to degree d+1, the degree-<=d ones first, and the matrix
is eliminated once, whatever the branch.  The first phase of the
elimination, over the degree-<=d columns, gives the null space and the
ledger; the rank at its end checks that d is not binding (see solve).  The
chi2 = 0 branch is a subspace of that one null space.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as iproduct
from typing import Optional, Sequence

from .exponents import UNIT_FORM, ZERO_FORM, ExponentForm
from .expr import (Add, Expr, Fn, Jet, Mul, NonPolynomial, Rat, Sym, Var,
                   ZERO, ONE, _nadd, _nmul, _npow, add_terms, any_node,
                   depends_on_jets, expand, mul_factors, partial_derivative,
                   render, split_factors, split_power, substitute, to_eform)
from .fraccalc import NotPowerSum, PowerSum, rl_derivative
from .linsolve import Elem, Field, Term, nullspace, rref
from .model import PDESystem, Signature, _is_dependent, jet_fragments
from .prolong import Prolongation, is_unknown
from .determining import (DeterminingSystem, build_determining,
                          invariance_condition)
from .records import record


class DegreeInsufficient(Exception):
    pass


class TemplateResidual(Exception):
    pass


class ShapeViolation(Exception):
    pass


class VerificationFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# Concrete generators
# ---------------------------------------------------------------------------

@record(frozen=True)
class Generator:
    """A concrete infinitesimal generator tau*d_t + xi_i*d_{x_i} + eta_s*d_{u_s}."""
    sig: Signature
    tau: Expr
    xi: tuple[Expr, ...]
    eta: tuple[Expr, ...]

    def components(self) -> list[tuple[str, Expr]]:
        out = [(self.sig.t_name, self.tau)]
        out += [(self.sig.space_names[i], self.xi[i]) for i in range(self.sig.p)]
        out += [(self.sig.dep_names[s], self.eta[s]) for s in range(self.sig.q)]
        return out

    def is_shift(self) -> bool:
        """Pure solution-shift: only eta components, independent of the u_j."""
        if self.tau != ZERO or any(x != ZERO for x in self.xi):
            return False
        return all(not depends_on_jets(e) for e in self.eta)

    def describe(self) -> str:
        parts = []
        for name, comp in self.components():
            if comp == ZERO:
                continue
            cs = render(comp, self.sig)
            if isinstance(comp, (Add,)) or (isinstance(comp, Mul) and len(comp.factors) > 1) \
               or cs.startswith("-"):
                cs = f"({cs})"
            parts.append(f"{cs}*d/d{name}")
        return " + ".join(parts) if parts else "0"


def admitted_prolongation(gen: Generator, sys: PDESystem) -> Prolongation:
    """The prolongation of a concrete generator of sys, from which the
    invariance condition is re-derived for verification.  Each eta_s is
    split once into its jet fragments: the class of u_j gives A_sj =
    d eta_s/d u_j and the jet-free class gives h_s, whose Dt^alpha h_s is
    computed once per generator under the system's assumptions.

    The Leibniz prolongation holds only on the admitted shape, so any other
    generator is refused with ShapeViolation: among them every eta with a
    class of another jet monomial, a derivative jet u_x or a product u*v
    say, which the prolongation would take for a function of (t, x).
    The shape is decided on values: the summed coefficient of each power
    of t in tau, in the xi_i and in the A_sj goes through the Field's zero
    test, so a coefficient that is zero only once simplified,
    (k^2-1)/((k-1)(k+1)) - 1 say, does not count as a term."""
    sig, alpha, fld = gen.sig, sys.alpha, sys.field
    t = sig.t

    def vanishes(c: Expr) -> bool:
        return fld.elem(c).is_zero()

    def free_of_t(e: Expr) -> bool:
        # t only in powers whose summed coefficients vanish
        powers = _t_powers(e, t)
        return powers is not None and all(texp.is_zero() or vanishes(c)
                                          for texp, c in powers.items())

    chi2 = ZERO
    powers = _t_powers(gen.tau, t)
    if powers is None or any(any_node(c, _jet_or_variable)
                             for c in powers.values()):
        raise ShapeViolation("tau must be a polynomial in t with constant "
                             "coefficients")
    for texp, c in powers.items():
        if texp == _T2:
            chi2 = c
        elif texp != UNIT_FORM and not vanishes(c):
            raise ShapeViolation("tau must have the form chi2*t^2 + chi1*t")
    for i, xi in enumerate(gen.xi):
        # one walk finds whether xi holds a jet or t at all
        if any_node(xi, _jet_or_time) and (depends_on_jets(xi)
                                           or not free_of_t(xi)):
            raise ShapeViolation(f"xi_{sig.space_names[i]} must depend on "
                                 "the space variables only")
    a, h = [], []
    for eta in gen.eta:
        row, hs, other = _split_eta(eta, sig.q)
        if any(not vanishes(c) for c in other):
            raise ShapeViolation("eta must be linear in the dependents")
        a.append(row)
        h.append(hs)
    slope = _nmul([_nadd([alpha, Rat(-1)]), chi2])
    for s, row in enumerate(a):
        for j, d in enumerate(row):
            want = slope if j == s else ZERO
            if d == ZERO and want == ZERO:
                continue
            if _has_t_slope(d, want, t, vanishes):
                continue
            if j != s:
                raise ShapeViolation(
                    "cross coefficients of eta must be x-functions only")
            raise ShapeViolation(
                "the t-slope of the u_s-coefficient of eta_s must equal "
                "(alpha-1)*chi2")
    h_frac = [ZERO if hs == ZERO else
              rl_derivative(PowerSum.from_expr(hs, t), alpha, tvar=t,
                            assumptions=sys.assumptions()).to_expr()
              for hs in h]
    return Prolongation(sig, gen.tau, gen.xi, a, h, h_frac)


_T2 = ExponentForm.rational(2)


def _t_powers(e: Expr, t: Var) -> Optional[dict[ExponentForm, Expr]]:
    """The summed coefficient of each power of t in e by exponent, zero sums
    left out (PowerSum.from_expr), or None when a coefficient holds t."""
    try:
        return {g: c for c, g in PowerSum.from_expr(e, t).terms}
    except NotPowerSum:
        return None


def _split_eta(eta: Expr, q: int) -> tuple[list[Expr], Expr, list[Expr]]:
    """(A_s, h_s, other) of one eta_s, from its jet fragments: A_s[j] is
    the coefficient of the plain dependent u_j, h_s that of the jet-free
    class, and other holds the coefficient of each further jet monomial (a
    derivative jet, a power or a product of dependents, a function of a
    dependent).  A jet inside a Gamma is refused with ShapeViolation."""
    try:
        fragments = jet_fragments(eta)
    except NonPolynomial:
        raise ShapeViolation("eta must be linear in the dependents") from None
    a = [ZERO] * q
    h = ZERO
    other = []
    for mono, coeff in fragments:
        if mono == ONE:
            h = coeff
        elif _is_dependent(mono):
            a[mono.dep] = coeff
        else:
            other.append(coeff)
    return a, h, other


def _jet_or_variable(x: Expr) -> bool:
    return x.__class__ is Jet or x.__class__ is Var


def _jet_or_time(x: Expr) -> bool:
    return x.__class__ is Jet or (x.__class__ is Var and x.axis < 0)


def _has_t_slope(d: Expr, want: Expr, t: Var, vanishes) -> bool:
    """Whether d_t d equals want, d the expanded coefficient of a dependent
    in eta, read off its t-powers: the t^1 coefficient equals want and
    every power but t^0 and t^1 has a vanishing coefficient.  A
    coefficient holding t in another form, (1 + t)^(1/2) say, is
    differentiated instead."""
    powers = _t_powers(d, t)
    if powers is None:
        powers = {UNIT_FORM: partial_derivative(d, t)}
    linear = powers.pop(UNIT_FORM, ZERO)
    powers.pop(ZERO_FORM, None)
    return ((linear == want or vanishes(_nadd([linear, _nmul([Rat(-1), want])])))
            and all(vanishes(c) for c in powers.values()))


@record(frozen=True)
class VerificationReport:
    ok: bool
    frac_residuals: tuple[Expr, ...]
    integer_residuals: tuple[tuple[tuple[Expr, Expr], ...], ...]

    def all_residuals(self) -> list[Expr]:
        out = list(self.frac_residuals)
        for eq in self.integer_residuals:
            out.extend(c for _, c in eq)
        return out


def verify_generator(sys: PDESystem, gen: Generator) -> VerificationReport:
    """Re-derive the invariance condition with the concrete generator,
    built already separated into condition 1 (its jet-free class) and
    condition 2 (its jet classes), and report the residuals; all-zero means
    verified.  Independent of the linear solve.  The generator must have
    the admitted shape (admitted_prolongation raises ShapeViolation
    otherwise); on that shape the extended infinitesimals are the Leibniz
    sum of prolong.Prolongation, computed once per generator, and the facts
    of the system are those the system computed once."""
    fld = sys.field
    frac_res = []
    int_res = []
    for frac, fragments in invariance_condition(
            sys, admitted_prolongation(gen, sys)):
        # a structural ZERO needs no zero test
        if frac != ZERO:
            frac = fld.to_expr(fld.elem(frac))
        frac_res.append(frac)
        kept = []
        for mono, coeff in fragments:
            c = fld.elem(coeff)
            if not c.is_zero():
                kept.append((mono, fld.to_expr(c)))
        int_res.append(tuple(kept))
    ok = all(r == ZERO for r in frac_res) and all(not eq for eq in int_res)
    return VerificationReport(ok, tuple(frac_res), tuple(int_res))


# ---------------------------------------------------------------------------
# Instantiation by polynomials and h-templates
# ---------------------------------------------------------------------------

def default_h_templates(sys: PDESystem) -> list[Expr]:
    sig = sys.sig
    t = sig.t
    af = to_eform(sys.alpha)
    out: list[Expr] = [ONE, _npow(t, af - ExponentForm.rational(1))]
    for i in range(sig.p):
        out.append(_nmul([sig.x(i), _npow(t, -af)]))
        out.append(_nmul([sig.x(i), _npow(t, af - ExponentForm.rational(1))]))
    return out


@record(frozen=True)
class SolverConfig:
    """h_templates are templates for the h_s beyond default_h_templates.
    branch "zero" emits only the generators with chi2 = 0."""
    poly_degree: int = 3
    h_templates: tuple[Expr, ...] = ()
    branch: str = "both"            # both | zero
    check_degree_stability: bool = True

    def __post_init__(self):
        if self.branch not in ("both", "zero"):
            raise ValueError(f"branch must be 'both' or 'zero', not "
                             f"{self.branch!r}")
        if self.poly_degree < 0:
            raise ValueError(f"the polynomial degree must be at least 0, not "
                             f"{self.poly_degree}")


def _monomials(p: int, total: int) -> list[tuple[int, ...]]:
    """Exponents of the x-monomials of one total degree, in lexicographic
    order."""
    return [beta for beta in iproduct(range(total + 1), repeat=p)
            if sum(beta) == total]


def _coeff_name(fn: str, tag: str) -> str:
    return f"c[{fn}.{tag}]"


def _split_term(term: Expr, t: Var) -> tuple[ExponentForm, Expr, Expr]:
    """(t-power, structural monomial without t, field coefficient)."""
    struct, coeff = split_factors(term, _structural)
    texp, mono = split_power(struct, t)
    return texp, mono, coeff


@record
class _Instantiation:
    """The columns of the linear system and the images of their basis
    functions, over the field of the system, `fld`.

    `basis` maps each unknown to its columns, each with its basis function:
    the exponents of an x-monomial for xi_i, g_s and f_si, a template index
    for h_s, and None for chi1 and chi2, which are columns themselves.  The
    first `ndeg` columns are those of degree <= d.

    A shape is a t-power with a structural monomial free of t; the row
    classes of an equation are the shapes of its instantiated terms.
    Shapes, the shape of a product, the x-monomials and the images are
    computed once per instantiation, so once per solve."""

    sig: Signature
    columns: list[str]
    basis: dict[str, list[tuple[int, object]]]
    args: dict[str, tuple[Var, ...]]        # function unknown -> arguments
    unknowns: frozenset[str]                # AnsatzGenerator.unknown_names()
    templates: list[Expr]
    rl_templates: list[Expr]
    ndeg: int
    fld: Field

    def __post_init__(self):
        self.col_index = {c: i for i, c in enumerate(self.columns)}
        self.shapes: list[tuple[ExponentForm, Expr, tuple]] = []
        self._shape_ids: dict[tuple, int] = {}
        self._products: dict[tuple[int, int], int] = {}
        self._images: dict[tuple, list] = {}
        self._x_monomials: dict[tuple[int, ...], tuple[Expr, int]] = {}

    def is_unknown(self, b: Expr, _=None) -> bool:
        return is_unknown(b, self.unknowns)

    def shape(self, texp: ExponentForm, mono: Expr) -> int:
        """Id of a shape; its key is the row-class key."""
        key = (texp.sort_key(), tuple(f.key() for f in mul_factors(mono)))
        sid = self._shape_ids.get(key)
        if sid is None:
            sid = self._shape_ids[key] = len(self.shapes)
            self.shapes.append((texp, mono, key))
        return sid

    def product(self, a: int, b: int) -> int:
        """The shape of the product of two terms of shapes a and b."""
        sid = self._products.get((a, b))
        if sid is None:
            ta, ma, _ = self.shapes[a]
            tb, mb, _ = self.shapes[b]
            sid = self._products[(a, b)] = self.shape(ta + tb, _nmul([ma, mb]))
        return sid

    def x_monomial(self, beta: tuple[int, ...]) -> tuple[Expr, int]:
        """The x-monomial with the exponents beta, and the id of its shape."""
        out = self._x_monomials.get(beta)
        if out is None:
            mono = _nmul([_npow(self.sig.x(i), ExponentForm.rational(b))
                          for i, b in enumerate(beta) if b])
            out = self._x_monomials[beta] = (mono, self.shape(ZERO_FORM, mono))
        return out

    def image(self, name: str, deriv: tuple[int, ...], frac: bool
              ) -> list[tuple[int, list[tuple[int, Expr, Optional[Fraction]]]]]:
        """Each basis function of an unknown under the derivative multi-index
        `deriv`, after Dt^alpha when `frac`: (column, terms), a term being
        (shape, coefficient, the coefficient when rational)."""
        key = (name, deriv, frac)
        out = self._images.get(key)
        if out is not None:
            return out
        out = []
        for col, b in self.basis[name]:
            if b is None:
                terms = [(self.shape(ZERO_FORM, ONE), ONE, Fraction(1))]
            elif isinstance(b, tuple):
                # d^k x^b = ff(b, k) x^(b-k), with ff the falling factorial
                if any(k > e for e, k in zip(b, deriv)):
                    continue
                ff = math.prod(math.perm(e, k) for e, k in zip(b, deriv))
                _, sid = self.x_monomial(tuple(e - k for e, k in zip(b, deriv)))
                terms = [(sid, Rat(ff), Fraction(ff))]
            else:
                f = self.rl_templates[b] if frac else self.templates[b]
                for v, k in zip(self.args[name], deriv):
                    for _ in range(k):
                        f = partial_derivative(f, v)
                terms = []
                for term in add_terms(expand(f)):
                    if term != ZERO:
                        texp, mono, c = _split_term(term, self.sig.t)
                        terms.append((self.shape(texp, mono), c,
                                      c.value if isinstance(c, Rat) else None))
            out.append((col, terms))
        self._images[key] = out
        return out


def build_instantiation(ds: DeterminingSystem, cfg: SolverConfig) -> _Instantiation:
    """The columns: chi1, chi2, one per x-monomial of total degree <= d =
    cfg.poly_degree in each of xi_i, g_s and f_si, and one per template in
    each h_s.  The templates are default_h_templates, then each of
    cfg.h_templates not among them.  With cfg.check_degree_stability the
    monomials of degree d+1 get columns as well, after all of these.  The
    templates' RL images are computed here."""
    sys, ans = ds.sys, ds.ans
    sig = sys.sig
    templates = default_h_templates(sys)
    for T in cfg.h_templates:
        # h_s is a function of t and the space variables
        if depends_on_jets(T):
            raise ValueError(f"h-template {render(T, sig)} mentions a dependent")
        if T not in templates:
            templates.append(T)
    rl_templates = []
    for T in templates:
        ps = PowerSum.from_expr(T, sig.t)
        rl_templates.append(rl_derivative(ps, sys.alpha, tvar=sig.t,
                                          assumptions=sys.assumptions()).to_expr())

    columns = [ans.chi1.name, ans.chi2.name]
    basis: dict[str, list[tuple[int, object]]] = {
        name: [(i, None)] for i, name in enumerate(columns)}

    def add_column(fname: str, b: object, tag: str) -> None:
        basis.setdefault(fname, []).append((len(columns), b))
        columns.append(_coeff_name(fname, tag))

    polys = [ans.xi(i).fname for i in range(sig.p)]
    polys += [ans.g(s).fname for s in range(sig.q)]
    for s in range(sig.q):
        for i in range(sig.q):
            if i != s and ans.f(s, i).fname not in polys:
                polys.append(ans.f(s, i).fname)
    degrees = range(cfg.poly_degree + 1)
    for name in polys:
        for beta in (b for total in degrees for b in _monomials(sig.p, total)):
            add_column(name, beta, ".".join(str(b) for b in beta))
    for s in range(sig.q):
        for j in range(len(templates)):
            add_column(ans.h(s).fname, j, f"T{j}")
    ndeg = len(columns)
    if cfg.check_degree_stability:
        for name in polys:
            for beta in _monomials(sig.p, cfg.poly_degree + 1):
                add_column(name, beta, ".".join(str(b) for b in beta))
    return _Instantiation(sig, columns, basis, ans.unknown_fn_names(),
                          ans.unknown_names(), templates, rl_templates, ndeg, sys.field)


# ---------------------------------------------------------------------------
# Rows: the operator form of an equation applied to the basis functions
# ---------------------------------------------------------------------------

def _operator_form(eq: Expr, inst: _Instantiation
                   ) -> list[tuple[str, tuple[int, ...], bool, int, Term]]:
    """The equation as operators on the unknowns, one per term: (unknown,
    derivative multi-index, fractional marker, shape of the rest of the
    term, field coefficient as a term of inst.fld).  Raises TemplateResidual
    unless each term is one unknown, to the first power, times factors free
    of unknowns: the determining equations are homogeneous linear in them."""
    out = []
    for term in add_terms(expand(eq)):
        if term == ZERO:
            continue
        unknown, rest = split_factors(term, inst.is_unknown)
        if not isinstance(unknown, (Fn, Sym)) or any_node(rest, inst.is_unknown):
            raise TemplateResidual(f"term {render(term)} is not linear in "
                                   "the solver unknowns")
        texp, mono, coeff = _split_term(rest, inst.sig.t)
        c = inst.fld.term(coeff)
        if isinstance(unknown, Fn):
            out.append((unknown.fname, unknown.deriv, unknown.frac,
                        inst.shape(texp, mono), c))
        else:
            out.append((unknown.name, (), False, inst.shape(texp, mono), c))
    return out


def _products(ops, inst: _Instantiation, ncols: int) -> dict[tuple[int, int], dict]:
    """Each operator's coefficient times the image of each basis function of
    its unknown, on the first ncols columns: per (shape, column), the sum of
    the product terms, a dict from monomial to coefficient.  Terms with
    equal monomials merge, as in the expanded expression."""
    fld = inst.fld
    sums: dict[tuple[int, int], dict] = {}
    for name, deriv, frac, shape, (oc, om) in ops:
        for col, terms in inst.image(name, deriv, frac):
            if col >= ncols:
                continue
            for ishape, c, r in terms:
                ic, im = (r, ()) if r is not None else fld.term(c)
                key = (inst.product(shape, ishape), col)
                acc = sums.get(key)
                if acc is None:
                    acc = sums[key] = {}
                m = fld.mono_mul(om, im)
                if m is not None:
                    acc[m] = acc.get(m, 0) + oc * ic
                    continue
                for c, m in fld.term_mul((oc, om), (ic, im)):
                    acc[m] = acc.get(m, 0) + c
    return sums


def _entry(terms: dict, fld: Field) -> Optional[Elem]:
    """The field element of a sum of terms, or None when they cancel as
    expressions."""
    terms = [(c, m) for m, c in terms.items() if c]
    return fld.fold(terms) if terms else None


def equation_rows(eq: Expr, inst: _Instantiation) -> tuple[list[list[Elem]], list[str]]:
    """One row per (t-power, structural monomial) class of the instantiated
    equation, in class-key order, plus the t-power separation notes.  Each
    operator of the equation adds its coefficient times the image of each
    basis function of its unknown.  The notes come only from the classes
    holding an entry, zero sums included, in one of the first inst.ndeg
    columns, the degree-<=d ones."""
    fld = inst.fld
    sums = _products(_operator_form(eq, inst), inst, len(inst.columns))
    classes: dict[int, dict[int, Elem]] = {}
    for (cls, col), terms in sums.items():
        entry = _entry(terms, fld)
        if entry is not None:
            classes.setdefault(cls, {})[col] = entry
    order = sorted(classes, key=lambda c: inst.shapes[c][2])

    notes: list[str] = []
    # a note depends only on the two t-powers, so each distinct pair is
    # compared once
    forms = list({inst.shapes[c][0]: None for c in order
                  if min(classes[c]) < inst.ndeg})
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            d = fld.asm.undecided(forms[i] - forms[j])
            if d is not None:
                notes.append(f"{d.render()} != 0 (separates t-power "
                             "classes during the solve)")

    rows = []
    ncols = len(inst.columns)
    zero = fld.zero
    for c in order:
        rowmap = classes[c]
        if any(not e.is_zero() for e in rowmap.values()):
            rows.append([rowmap.get(j, zero) for j in range(ncols)])
    return rows, sorted(set(notes))


# ---------------------------------------------------------------------------
# The linear system
# ---------------------------------------------------------------------------

def _gamma_subs(ds: DeterminingSystem) -> dict:
    """gamma_s = (alpha-1)/2.  Its chi1 part folds into the constant term of
    g_s, so this one system holds the chi2 = 0 solutions as well."""
    gamma = (ds.sys.alpha - ONE) * Rat(Fraction(1, 2))
    return {Sym(name): gamma
            for name in ds.ans.gamma_symbols()}


def _determining_rows(ds: DeterminingSystem, inst: _Instantiation
                      ) -> tuple[list[list[Elem]], list[str]]:
    gsubs = _gamma_subs(ds)
    rows: list[list[Elem]] = []
    notes: list[str] = []
    for eq in list(ds.integer_eqs) + list(ds.frac_eqs):
        r, n = equation_rows(substitute(eq, gsubs), inst)
        rows.extend(r)
        notes.extend(n)
    return rows, notes


def _structural(b: Expr, _) -> bool:
    """Factors that carry the variables: powers of Vars and Jets and opaque
    functions of the dependents."""
    return isinstance(b, (Var, Jet)) or (isinstance(b, Fn) and depends_on_jets(b))


# A generator as a vector: (component index, structural monomial key) ->
# (structural monomial, nonzero field coefficient); the components are tau,
# the xi_i and the eta_s, in that order.
GeneratorVector = dict


def _component_coefficients(ds: DeterminingSystem, inst: _Instantiation
                            ) -> list[dict[tuple[int, int], Elem]]:
    """Per component (tau, the xi_i, the eta_s, with gamma_s =
    (alpha-1)/2), the coefficient of each (shape, column) on the leading
    inst.ndeg columns: the component with one column's basis function for
    its unknown and no other unknown."""
    gsubs = _gamma_subs(ds)
    ans, sig = ds.ans, ds.sys.sig
    comps = [ans.tau] + [ans.xi(i) for i in range(sig.p)] \
        + [ans.eta(s) for s in range(sig.q)]
    out = []
    for comp in comps:
        ops = _operator_form(substitute(comp, gsubs), inst)
        coeffs = {}
        for key, terms in _products(ops, inst, inst.ndeg).items():
            c = _entry(terms, inst.fld)
            if c is not None and not c.is_zero():
                coeffs[key] = c
        out.append(coeffs)
    return out


def _vector_to_generator(coeffs: list[dict[tuple[int, int], Elem]],
                         inst: _Instantiation, vec: list[Elem]
                         ) -> GeneratorVector:
    """The generator of a null vector on the leading columns: each unknown
    is the combination of its basis functions with the vector's entries as
    coefficients, so the coefficient of a shape in a component is the sum
    over columns of the entry times the column's coefficient there."""
    out: GeneratorVector = {}
    fld, t = inst.fld, inst.sig.t
    for ci, comp in enumerate(coeffs):
        per_shape: dict[int, Elem] = {}
        for (shape, col), c in comp.items():
            if not vec[col].is_zero():
                prod = fld.mul(vec[col], c)
                per_shape[shape] = (fld.add(per_shape[shape], prod)
                                    if shape in per_shape else prod)
        for shape, c in per_shape.items():
            if not c.is_zero():
                texp, smono, _ = inst.shapes[shape]
                mono = _nmul([_npow(t, texp), smono])
                out[(ci, mono.key())] = (mono, c)
    return out


# ---------------------------------------------------------------------------
# Generator-space normalization
# ---------------------------------------------------------------------------

def _rebuild_generator(sig: Signature, ordered, columns, row, fld: Field
                       ) -> Generator:
    comps = [ZERO] * (1 + sig.p + sig.q)
    for k, e in zip(ordered, row):
        if e.is_zero():
            continue
        ci, _ = k
        comps[ci] = comps[ci] + _nmul([fld.to_expr(e), columns[k]])
    return Generator(sig, comps[0], tuple(comps[1:1 + sig.p]),
                     tuple(comps[1 + sig.p:]))


def normalize_generators(vectors: Sequence[GeneratorVector], sig: Signature,
                         fld: Field) -> list[Generator]:
    """RREF over the ordered component-monomial vectors; deterministic,
    idempotent, removes linear dependencies."""
    vectors = [v for v in vectors if any(not c.is_zero() for _, c in v.values())]
    if not vectors:
        return []
    columns: dict[tuple, Expr] = {}
    for v in vectors:
        for k, (mono, _) in v.items():
            columns.setdefault(k, mono)
    ordered = sorted(columns)
    rows = [[v[k][1] if k in v else fld.zero for k in ordered] for v in vectors]
    res = rref(rows, fld)
    return [_rebuild_generator(sig, ordered, columns, row, fld)
            for row in res.rows]


# ---------------------------------------------------------------------------
# The solve entry point
# ---------------------------------------------------------------------------

@record(frozen=True)
class SolutionBasis:
    sys: PDESystem
    generators: tuple[Generator, ...]          # point-symmetry basis
    shift_generators: tuple[Generator, ...]    # pure solution shifts
    assumptions: tuple[str, ...]
    branch_dims: tuple[tuple[str, int], ...]
    reports: tuple[VerificationReport, ...]
    shift_reports: tuple[VerificationReport, ...]

    @property
    def dimension(self) -> int:
        return len(self.generators)


def solve(ds: DeterminingSystem, cfg: Optional[SolverConfig] = None
          ) -> SolutionBasis:
    """Solve the determining system with the unknown x-functions taken as
    polynomials of degree d = cfg.poly_degree, and certify each generator.

    With cfg.check_degree_stability the columns go up to degree d+1, the
    degree-<=d columns first, and the matrix is built and eliminated once.
    Every determining equation is homogeneous linear in the unknowns, so
    the rows restricted to the leading columns are the degree-d rows, once
    rows left empty are dropped; the ledger keeps only the separation notes
    of the classes with an entry in those columns, the degree-d classes.

    rref eliminates the leading columns first, with the rows empty there
    moved to the end.  Those rows never hold a pivot candidate and no pivot
    step on a leading column touches them, and the other rows keep their
    order, so this first phase makes the pivot choices, row operations and
    assumptions of an rref of the restricted matrix.  Later steps subtract
    only rows that are zero on the leading columns, so the first phase's
    pivot rows, cut to those columns, are that rref's rows: they give the
    degree-d null space, the basis and the ledger.  The elimination then
    goes on over the new columns, its assumptions dropped, and ends with
    the rank of the full d+1 matrix.  Every branch eliminates this one
    matrix; branch "zero" then keeps the chi2 = 0 subspace of the degree-d
    null space, and the rank below counts the whole null space.

    That rank checks that d is not binding.  The padded degree-d null space
    lies inside the d+1 null space, and each new column maps to its own
    degree-(d+1) monomial (x^b in xi_i, x^b*u_j in eta_s) that no old
    column or template produces.  So a d+1 solution whose generator
    vanishes has no new entry: it is a padded degree-d solution, and the
    map to generators has the same kernel on both null spaces.  The
    normalized generator count at d+1 is therefore the degree-d count plus
    ncols(d+1) - rank(d+1) - dim(d)."""
    cfg = cfg if cfg is not None else SolverConfig()
    inst = build_instantiation(ds, cfg)
    fld, ncols = inst.fld, inst.ndeg
    rows, notes = _determining_rows(ds, inst)
    res = rref(rows, fld, lead=ncols)
    vecs, piv_notes = nullspace(res, ncols, fld)
    dim = len(vecs)
    # chi2 is one column: the chi2 = 0 subspace loses at most one dimension
    chi2 = inst.col_index[ds.ans.chi2.name]
    pivot = next((v for v in vecs if not v[chi2].is_zero()), None)
    dims = [("zero", dim if pivot is None else dim - 1), ("nonzero", dim)]
    if cfg.branch == "zero":
        # the pivot clears the chi2 entry of the other vectors and goes
        zero = []
        for v in vecs:
            if v is not pivot and not v[chi2].is_zero():
                f = fld.div(v[chi2], pivot[chi2])
                v = [fld.sub(e, fld.mul(f, p)) for e, p in zip(v, pivot)]
            if v is not pivot:
                zero.append(v)
        vecs, dims = zero, dims[:1]
    coeffs = _component_coefficients(ds, inst)
    final = normalize_generators(
        [_vector_to_generator(coeffs, inst, v) for v in vecs], ds.sys.sig, fld)
    if cfg.check_degree_stability:
        grown = len(inst.columns) - len(res.pivots) - dim
        if grown:
            raise DegreeInsufficient(
                f"solution dimension moved from {len(final)} to "
                f"{len(final) + grown} when the polynomial degree was raised "
                f"from {cfg.poly_degree} to {cfg.poly_degree + 1}")
    main = [g for g in final if not g.is_shift()]
    shifts = [g for g in final if g.is_shift()]
    reports = []
    for g in main + shifts:
        rep = verify_generator(ds.sys, g)
        if not rep.ok:
            bad = [render(r) for r in rep.all_residuals() if r != ZERO]
            raise VerificationFailed(
                f"emitted generator {g.describe()} left nonzero residuals: "
                + "; ".join(bad[:4]))
        reports.append(rep)
    ledger = sorted(set(list(ds.assumptions) + notes + piv_notes))
    return SolutionBasis(ds.sys, tuple(main), tuple(shifts), tuple(ledger),
                         tuple(dims), tuple(reports[:len(main)]),
                         tuple(reports[len(main):]))


def solve_system(sys: PDESystem, cfg: Optional[SolverConfig] = None
                 ) -> tuple[DeterminingSystem, SolutionBasis]:
    ds = build_determining(sys)
    return ds, solve(ds, cfg)
