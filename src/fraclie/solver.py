"""Exact solver for the determining system.

Fixes gamma_s = (alpha-1)/2, so one linear system holds both the chi2 = 0
and the chi2 != 0 solutions, t-splits mixed-coefficient equations,
instantiates unknown x-functions by total-degree polynomials and the
inhomogeneous parts h_s by a certified template library, reduces everything
to exact rational-function linear algebra, and emits a normalized basis with
machine-checked residual certificates.

The equations are instantiated and split into rows once, at degree d+1.
The degree-d system is that matrix restricted to the degree-<=d columns; it
gives the basis, and the rank of the full matrix checks that d is not
binding (see solve).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product as iproduct
from typing import Optional, Sequence

from .exponents import Assumptions, ExponentForm
from .expr import (Add, Expr, Fn, Jet, Mul, Rat, Sym, Var, ZERO, ONE,
                   _nadd, _nmul, _npow, add_terms, atoms, depends_on_jets,
                   diff_wrt, expand, gamma_simplify, map_children,
                   mul_factors, partial_derivative, render, split_factors,
                   split_power, substitute, to_eform, total_derivative)
from .fraccalc import PowerSum, rl_derivative
from .linsolve import Elem, Field, nullspace, rref
from .model import PDESystem, Signature, classify_terms
from .prolong import BRANCH_UNIFIED
from .determining import (DeterminingSystem, build_determining, h_condition,
                          invariance_condition, separate)


class DegreeInsufficient(Exception):
    pass


class TemplateResidual(Exception):
    pass


class ShapeViolation(Exception):
    pass


class VerificationFailed(Exception):
    pass


class NonAffineRow(Exception):
    pass


# ---------------------------------------------------------------------------
# Concrete generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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

    def is_zero(self) -> bool:
        return (self.tau == ZERO and all(x == ZERO for x in self.xi)
                and all(e == ZERO for e in self.eta))

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


class ConcreteGenerator:
    """Duck-typed stand-in for AnsatzGenerator with concrete components, used
    to re-derive the two conditions independently for verification."""

    def __init__(self, gen: Generator, alpha: Expr,
                 assumptions: Optional[Assumptions] = None):
        self.gen = gen
        self.sig = gen.sig
        self.alpha = alpha
        self.asm = assumptions if assumptions is not None else Assumptions()

    @property
    def tau(self) -> Expr:
        return self.gen.tau

    @property
    def tau_prime(self) -> Expr:
        return total_derivative(self.gen.tau, self.sig.t)

    def xi(self, i: int) -> Expr:
        return self.gen.xi[i]

    def eta(self, s: int) -> Expr:
        return self.gen.eta[s]

    def deta_du(self, s: int, i: int) -> Expr:
        return diff_wrt(self.gen.eta[s], self.sig.u(i))

    def h(self, s: int) -> Expr:
        e = self.gen.eta[s]
        pieces = [e]
        for j in range(self.sig.q):
            pieces.append(_nmul([Rat(-1), self.deta_du(s, j), self.sig.u(j)]))
        return _nadd(pieces)

    def h_frac(self, s: int) -> Expr:
        h = self.h(s)
        if h == ZERO:
            return ZERO
        ps = PowerSum.from_expr(h, self.sig.t)
        return rl_derivative(ps, self.alpha, tvar=self.sig.t,
                             assumptions=self.asm).to_expr()


def generator_shape(gen: Generator, alpha: Expr,
                    assumptions: Optional[Assumptions] = None
                    ) -> tuple[Expr, Expr]:
    """Validate the admitted structural form; returns (chi1, chi2).
    Raises ShapeViolation otherwise."""
    sig = gen.sig
    t, asm = sig.t, assumptions
    tau = expand(gen.tau)
    chi1, chi2 = ZERO, ZERO
    for term in add_terms(tau):
        if term == ZERO:
            continue
        texp, coeff = split_power(term, t)
        if depends_on_jets(coeff) or atoms(coeff, Var):
            raise ShapeViolation("tau must be a polynomial in t with constant "
                                 "coefficients")
        if texp == ExponentForm.rational(1):
            chi1 = chi1 + coeff
        elif texp == ExponentForm.rational(2):
            chi2 = chi2 + coeff
        else:
            raise ShapeViolation("tau must have the form chi2*t^2 + chi1*t")
    for i in range(sig.p):
        xi = gen.xi[i]
        if depends_on_jets(xi) or any(v.is_time for v in atoms(xi, Var)):
            raise ShapeViolation(f"xi_{sig.space_names[i]} must depend on the "
                                 "space variables only")
    for s in range(sig.q):
        eta = gen.eta[s]
        for j in range(sig.q):
            d = diff_wrt(eta, sig.u(j))
            if depends_on_jets(d):
                raise ShapeViolation("eta must be linear in the dependents")
            dt = partial_derivative(d, t)
            if j != s:
                if dt != ZERO:
                    raise ShapeViolation(
                        "cross coefficients of eta must be x-functions only")
            else:
                expected = _nmul([_nadd([alpha, Rat(-1)]), chi2])
                if expand(dt - expected) != ZERO:
                    raise ShapeViolation(
                        "the t-slope of the u_s-coefficient of eta_s must equal "
                        "(alpha-1)*chi2")
                if partial_derivative(dt, t) != ZERO:
                    raise ShapeViolation("eta coefficient at most linear in t")
    return chi1, chi2


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    frac_residuals: tuple[Expr, ...]
    integer_residuals: tuple[tuple[tuple[Expr, Expr], ...], ...]

    def all_residuals(self) -> list[Expr]:
        out = list(self.frac_residuals)
        for eq in self.integer_residuals:
            out.extend(c for _, c in eq)
        return out


def verify_generator(sys: PDESystem, gen: Generator,
                     assumptions: Optional[Assumptions] = None
                     ) -> VerificationReport:
    """Re-derive both determining conditions with the concrete generator
    through the full prolongation route and report residuals; all-zero means
    verified.  Independent of the linear solve."""
    asm = assumptions if assumptions is not None else sys.assumptions()
    fld = Field(asm)
    generator_shape(gen, sys.alpha, asm)
    conc = ConcreteGenerator(gen, sys.alpha, asm)
    cl = classify_terms(sys)
    cond2 = invariance_condition(sys, conc, cl)
    cond1 = h_condition(sys, conc, cl)
    frac_res = tuple(fld.to_expr(fld.elem(c)) for c in cond1)
    int_res = []
    for s in range(sys.q):
        frags, _ = separate(gamma_simplify(expand(cond2[s]), asm), sys)
        kept = []
        for mono, coeff in frags:
            c = fld.elem(coeff)
            if not c.is_zero():
                kept.append((mono, fld.to_expr(c)))
        int_res.append(tuple(kept))
    ok = all(r == ZERO for r in frac_res) and all(not eq for eq in int_res)
    return VerificationReport(ok, frac_res, tuple(int_res))


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


@dataclass(frozen=True)
class SolverConfig:
    poly_degree: int = 3
    h_templates: Optional[tuple[Expr, ...]] = None
    branch: str = "both"            # both | zero | nonzero
    check_degree_stability: bool = True


def _graded_monomials(p: int, degree: int):
    out = []
    for total in range(degree + 1):
        for beta in iproduct(range(degree + 1), repeat=p):
            if sum(beta) == total:
                out.append(beta)
    return out


@dataclass
class _Instantiation:
    columns: list[str]
    col_index: dict[str, int]
    fn_values: dict[str, Expr]        # unknown fn name -> expr in coeff syms
    templates: list[Expr]
    rl_templates: list[Expr]


def _coeff_name(fn: str, tag: str) -> str:
    return f"c[{fn}.{tag}]"


def build_instantiation(ds: DeterminingSystem, cfg: SolverConfig,
                        assumptions: Assumptions) -> _Instantiation:
    sig = ds.sys.sig
    ans = ds.ans
    templates = list(cfg.h_templates) if cfg.h_templates is not None \
        else default_h_templates(ds.sys)
    rl_templates = []
    for T in templates:
        ps = PowerSum.from_expr(T, sig.t)
        rl_templates.append(rl_derivative(ps, ds.sys.alpha, tvar=sig.t,
                                          assumptions=assumptions).to_expr())

    columns: list[str] = ["chi1", "chi2"]
    fn_values: dict[str, Expr] = {}
    monos = _graded_monomials(sig.p, cfg.poly_degree)

    def poly_for(fname: str) -> Expr:
        terms = []
        for beta in monos:
            tag = ".".join(str(b) for b in beta)
            cname = _coeff_name(fname, tag)
            columns.append(cname)
            factors: list[Expr] = [Sym(cname)]
            for i, b in enumerate(beta):
                if b:
                    factors.append(_npow(sig.x(i), ExponentForm.rational(b)))
            terms.append(_nmul(factors))
        return _nadd(terms)

    for i in range(sig.p):
        fn_values[ans.xi(i).fname] = poly_for(ans.xi(i).fname)
    for s in range(sig.q):
        fn_values[ans.g(s).fname] = poly_for(ans.g(s).fname)
    for s in range(sig.q):
        for i in range(sig.q):
            if i != s:
                name = ans.f(s, i).fname
                if name not in fn_values:
                    fn_values[name] = poly_for(name)
    for s in range(sig.q):
        name = ans.h(s).fname
        terms = []
        for j, T in enumerate(templates):
            cname = _coeff_name(name, f"T{j}")
            columns.append(cname)
            terms.append(_nmul([Sym(cname), T]))
        fn_values[name] = _nadd(terms)

    return _Instantiation(columns, {c: i for i, c in enumerate(columns)},
                          fn_values, templates, rl_templates)


def _instantiate_expr(e: Expr, inst: _Instantiation, sig: Signature) -> Expr:
    """Replace unknown-function atoms by their polynomial/template values,
    applying stored derivative multi-indices and the fractional marker."""
    def value_of(f: Fn) -> Expr:
        base = inst.fn_values[f.fname]
        if f.frac:
            out_terms = []
            for j, T in enumerate(inst.templates):
                cname = _coeff_name(f.fname, f"T{j}")
                out_terms.append(_nmul([Sym(cname), inst.rl_templates[j]]))
            out = _nadd(out_terms)
        else:
            out = base
        for slot, k in enumerate(f.deriv):
            v = f.args[slot]
            assert isinstance(v, Var)
            for _ in range(k):
                out = partial_derivative(out, v)
        return out

    def walk(x: Expr) -> Expr:
        if isinstance(x, Fn) and x.fname in inst.fn_values:
            return value_of(x)
        return map_children(x, walk)

    return expand(walk(e))


# ---------------------------------------------------------------------------
# Row extraction: split by (t-power, x-monomial, jet-monomial) classes
# ---------------------------------------------------------------------------

def equation_rows(e: Expr, inst: _Instantiation, sig: Signature, fld: Field,
                  ledger_columns: Optional[set[int]] = None
                  ) -> tuple[list[list[Elem]], list[str]]:
    """One row per class of the expanded equation, plus the t-power
    separation notes.  With `ledger_columns`, the notes come only from the
    classes holding an entry in one of those columns, zero sums included."""
    e = fld.norm_expr(e)
    if e == ZERO:
        return [], []
    classes: dict[tuple, dict[int, Elem]] = {}
    class_forms: dict[tuple, ExponentForm] = {}
    for term in add_terms(e):
        struct, rest = split_factors(term, _structural)
        texp, struct = split_power(struct, sig.t)
        unknown, coeff = split_factors(
            rest, lambda b, _: isinstance(b, Sym) and b.name in inst.col_index)
        if unknown == ONE:
            raise NonAffineRow(f"term {render(term)} carries no solver unknown")
        if not isinstance(unknown, Sym):
            raise NonAffineRow(f"term {render(term)} is not affine in "
                               "the solver unknowns")
        key = (texp.sort_key(), tuple(f.key() for f in mul_factors(struct)))
        class_forms[key] = texp
        row = classes.setdefault(key, {})
        col = inst.col_index[unknown.name]
        row[col] = fld.add(row.get(col, fld.zero), fld.elem(coeff))

    notes: list[str] = []
    forms = [class_forms[k] for k in sorted(class_forms)
             if ledger_columns is None or not ledger_columns.isdisjoint(classes[k])]
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            d = forms[i] - forms[j]
            if d.is_zero() or d.is_rational():
                continue
            if fld.asm.sign(d) is None and fld.asm.sign(-d) is None:
                lead = next(c for m, c in d.coeffs if m != ())
                if lead < 0:
                    d = -d
                notes.append(f"{d.render()} != 0 (separates t-power "
                             "classes during the solve)")

    rows = []
    ncols = len(inst.columns)
    zero = fld.zero
    for key in sorted(classes):
        rowmap = classes[key]
        row = [rowmap.get(c, zero) for c in range(ncols)]
        if any(not e2.is_zero() for e2 in row):
            rows.append(row)
    return rows, sorted(set(notes))


# ---------------------------------------------------------------------------
# The linear system
# ---------------------------------------------------------------------------

def _gamma_subs(ds: DeterminingSystem) -> dict:
    """gamma_s = (alpha-1)/2.  Its chi1 part folds into the constant term of
    g_s, so this one system holds the chi2 = 0 solutions as well."""
    gamma = (ds.sys.alpha - ONE) * Rat(Fraction(1, 2))
    return {Sym(name): gamma
            for name in ds.ans.with_branch(BRANCH_UNIFIED).gamma_symbols()}


def _determining_rows(ds: DeterminingSystem, inst: _Instantiation, fld: Field,
                      ledger_columns: Optional[set[int]] = None
                      ) -> tuple[list[list[Elem]], list[str]]:
    gsubs = _gamma_subs(ds)
    rows: list[list[Elem]] = []
    notes: list[str] = []
    for eq in list(ds.integer_eqs) + list(ds.frac_eqs):
        body = _instantiate_expr(substitute(eq, gsubs), inst, ds.sys.sig)
        try:
            r, n = equation_rows(body, inst, ds.sys.sig, fld, ledger_columns)
        except NonAffineRow as exc:
            raise TemplateResidual(
                f"a condition failed to reduce to linear rows ({exc})") from exc
        rows.extend(r)
        notes.extend(n)
    return rows, notes


def _restrict(rows: list[list[Elem]], keep: list[int]) -> list[list[Elem]]:
    """The rows on the columns `keep`, in that order; rows left empty drop."""
    out = []
    for row in rows:
        r = [row[c] for c in keep]
        if any(not e.is_zero() for e in r):
            out.append(r)
    return out


def _structural(b: Expr, _) -> bool:
    """Factors that carry the variables: powers of Vars and Jets and opaque
    functions of the dependents."""
    return isinstance(b, (Var, Jet)) or (isinstance(b, Fn) and depends_on_jets(b))


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


def _ratnorm_components(e: Expr, fld: Field) -> Expr:
    """Combine parameter-fraction coefficients per structural monomial."""
    groups = _structural_groups(expand(e), fld)
    out = []
    for k in sorted(groups):
        mono, c = groups[k]
        if not c.is_zero():
            out.append(_nmul([fld.to_expr(c), mono]))
    return _nadd(out)


def _vector_to_generator(ds: DeterminingSystem, inst: _Instantiation,
                         vec: list[Expr], fld: Field) -> Generator:
    sig = ds.sys.sig
    # the gamma symbols and the columns are disjoint, and no value mentions
    # a key of the other map, so one simultaneous substitution does both
    values = {**_gamma_subs(ds),
              **{Sym(name): vec[i] for i, name in enumerate(inst.columns)}}

    def val(e: Expr) -> Expr:
        return _ratnorm_components(substitute(e, values), fld)

    ans = ds.ans
    tau = val(ans.tau)
    xi = tuple(val(_instantiate_expr(ans.xi(i), inst, sig)) for i in range(sig.p))
    eta = []
    for s in range(sig.q):
        eta.append(val(_instantiate_expr(ans.eta(s), inst, sig)))
    return Generator(sig, tau, xi, tuple(eta))


# ---------------------------------------------------------------------------
# Generator-space normalization
# ---------------------------------------------------------------------------

def _generator_vector_space(gens: Sequence[Generator], fld: Field):
    """Vectorize generators over the monomial basis of their components."""
    columns: dict[tuple, tuple[int, Expr]] = {}
    rows = []
    decomposed = []
    for g in gens:
        comps = [g.tau] + list(g.xi) + list(g.eta)
        entry: dict[tuple, Elem] = {}
        for ci, comp in enumerate(comps):
            for k, (mono, c) in _structural_groups(fld.norm_expr(comp), fld).items():
                columns.setdefault((ci, k), (ci, mono))
                entry[(ci, k)] = c
        decomposed.append(entry)
    ordered = sorted(columns)
    for entry in decomposed:
        rows.append([entry.get(k, fld.zero) for k in ordered])
    return rows, ordered, columns


def _rebuild_generator(sig: Signature, ordered, columns, row, fld: Field
                       ) -> Generator:
    comps = [ZERO] * (1 + sig.p + sig.q)
    for k, e in zip(ordered, row):
        if e.is_zero():
            continue
        ci, mono = columns[k]
        comps[ci] = comps[ci] + _nmul([fld.to_expr(e), mono])
    return Generator(sig, comps[0], tuple(comps[1:1 + sig.p]),
                     tuple(comps[1 + sig.p:]))


def normalize_generators(gens: Sequence[Generator], sig: Signature, fld: Field
                         ) -> list[Generator]:
    """RREF over the ordered component-monomial vector; deterministic,
    idempotent, removes linear dependencies."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    rows, ordered, columns = _generator_vector_space(gens, fld)
    res = rref(rows, fld)
    return [_rebuild_generator(sig, ordered, columns, row, fld)
            for row in res.rows]


# ---------------------------------------------------------------------------
# The solve entry point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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

    With cfg.check_degree_stability the equations are instantiated and split
    into rows once, at degree d+1, and the degree-d system is read off that
    matrix.  Every determining equation is homogeneous linear in the
    unknowns, so the d+1 rows restricted to the degree-<=d columns are the
    degree-d rows, once rows left empty are dropped; the ledger keeps only
    the separation notes of the classes with an entry in those columns,
    which are the degree-d classes.  The basis comes from the restricted
    matrix.

    The check that d is not binding then needs only the rank of the full
    d+1 matrix, the chi2 = 0 row included under branch "zero".  The padded
    degree-d null space lies inside the d+1 null space, and each new column
    maps to its own degree-(d+1) monomial (x^b in xi_i, x^b*u_j in eta_s)
    that no old column or template produces.  So a d+1 solution whose
    generator vanishes has no new entry: it is a padded degree-d solution,
    and the map to generators has the same kernel on both null spaces.  The
    normalized generator count at d+1 is therefore the degree-d count plus
    ncols(d+1) - rank(d+1) - dim(d)."""
    cfg = cfg if cfg is not None else SolverConfig()
    asm = ds.sys.assumptions()
    fld = Field(asm)
    inst = build_instantiation(ds, cfg, asm)
    big = inst
    if cfg.check_degree_stability:
        big = build_instantiation(
            ds, replace(cfg, poly_degree=cfg.poly_degree + 1), asm)
    keep = [big.col_index[name] for name in inst.columns]
    big_rows, notes = _determining_rows(ds, big, fld, set(keep))
    if cfg.branch == "zero":
        row = [fld.zero] * len(big.columns)
        row[big.col_index["chi2"]] = fld.one
        big_rows.append(row)
    rows = _restrict(big_rows, keep)
    vecs, piv_notes = nullspace(rows, len(inst.columns), fld)
    # chi2 is one column: the chi2 = 0 subspace loses at most one dimension
    chi2 = inst.col_index["chi2"]
    dim = len(vecs)
    zero_dim = dim - 1 if any(not v[chi2].is_zero() for v in vecs) else dim
    dims = {"both": [("zero", zero_dim), ("nonzero", dim)],
            "zero": [("zero", dim)],
            "nonzero": [("nonzero", dim)]}[cfg.branch]
    gens = [_vector_to_generator(ds, inst, [fld.to_expr(e) for e in v], fld)
            for v in vecs]
    final = normalize_generators(gens, ds.sys.sig, fld)
    if cfg.check_degree_stability:
        grown = len(big.columns) - len(rref(big_rows, fld).pivots) - dim
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


def normalize_basis(basis: SolutionBasis) -> SolutionBasis:
    """Reduced row-echelon normal form of the emitted generators; idempotent."""
    fld = Field(basis.sys.assumptions())
    merged = normalize_generators(list(basis.generators) +
                                  list(basis.shift_generators),
                                  basis.sys.sig, fld)
    main = tuple(g for g in merged if not g.is_shift())
    shifts = tuple(g for g in merged if g.is_shift())
    reports = tuple(verify_generator(basis.sys, g) for g in main)
    shift_reports = tuple(verify_generator(basis.sys, g) for g in shifts)
    return SolutionBasis(basis.sys, main, shifts, basis.assumptions,
                         basis.branch_dims, reports, shift_reports)


def solve_system(sys: PDESystem, cfg: Optional[SolverConfig] = None
                 ) -> tuple[DeterminingSystem, SolutionBasis]:
    ds = build_determining(sys)
    return ds, solve(ds, cfg)
