"""The operator-form rows against the instantiate-and-expand reference.

The reference is the row builder the solver used before the operator form:
it substitutes the polynomials and templates, one symbol per column, into
each gamma-substituted equation, expands the result and splits its terms
into (t-power, structural monomial) classes.  The operator form must give
the same rows, the same Elems in the same order, and the same t-power
separation notes.
"""
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fraclie import build_determining, parse_expression, parse_system
from fraclie.expr import (Fn, Sym, ZERO, _nadd, _nmul, add_terms, expand,
                          map_children, mul_factors, partial_derivative,
                          split_factors, split_power, substitute)
from fraclie.lemmas import basis_function
from fraclie.linsolve import Field
from fraclie.model import ParamDecl, Signature, make_system
from fraclie.solver import (SolverConfig, _determining_rows, _gamma_subs,
                            _structural, build_instantiation)
from conftest import DEMOS

PERF_INPUTS = DEMOS.parent / "perfbench" / "inputs"
SOURCES = {name: (DEMOS / f"{name}.fpde").read_text()
           for name in ("zk", "hs", "telegraph", "telegraph_power")}
SOURCES.update({name: (PERF_INPUTS / f"{name}.fpde").read_text()
                for name in ("proj", "zk3d")})


def _instantiate_expr(e, inst):
    """Replace the unknown functions by their polynomial/template values,
    applying stored derivative multi-indices and the fractional marker."""
    def value_of(f):
        out = _nadd([_nmul([Sym(inst.columns[c]),
                            inst.rl_templates[b] if f.frac else basis_function(inst, b)])
                     for c, b in inst.basis[f.fname]])
        for v, k in zip(f.args, f.deriv):
            for _ in range(k):
                out = partial_derivative(out, v)
        return out

    def walk(x):
        if isinstance(x, Fn) and x.fname in inst.args:
            return value_of(x)
        return map_children(x, walk)

    return expand(walk(e))


def _reference_equation_rows(e, inst, sig, fld, ledger_columns=None):
    e = fld.norm_expr(e)
    if e == ZERO:
        return [], []
    classes, class_forms = {}, {}
    for term in add_terms(e):
        struct, rest = split_factors(term, _structural)
        texp, struct = split_power(struct, sig.t)
        unknown, coeff = split_factors(
            rest, lambda b, _: isinstance(b, Sym) and b.name in inst.col_index)
        assert isinstance(unknown, Sym)
        key = (texp.sort_key(), tuple(f.key() for f in mul_factors(struct)))
        class_forms[key] = texp
        row = classes.setdefault(key, {})
        col = inst.col_index[unknown.name]
        row[col] = fld.add(row.get(col, fld.zero), fld.elem(coeff))
    notes = []
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
    for key in sorted(classes):
        row = [classes[key].get(c, fld.zero) for c in range(len(inst.columns))]
        if any(not x.is_zero() for x in row):
            rows.append(row)
    return rows, sorted(set(notes))


def _reference_rows(ds, inst, fld, ledger_columns):
    gsubs = _gamma_subs(ds)
    rows, notes = [], []
    for eq in list(ds.integer_eqs) + list(ds.frac_eqs):
        body = _instantiate_expr(substitute(eq, gsubs), inst)
        r, n = _reference_equation_rows(body, inst, ds.sys.sig, fld, ledger_columns)
        rows.extend(r)
        notes.extend(n)
    return rows, notes


def _assert_rows_match(ds, d, templates=()):
    asm = ds.sys.assumptions()
    fld = Field(asm)
    inst = build_instantiation(ds, SolverConfig(poly_degree=d, h_templates=templates),
                               asm)
    lead = set(range(inst.ndeg))
    want = _reference_rows(ds, inst, fld, lead)
    got = _determining_rows(ds, inst, fld, lead)
    assert got[0] == want[0]
    assert got[1] == want[1]
    return got


@pytest.mark.parametrize("d", [0, 3])
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_bundled_systems(name, d):
    rows, _ = _assert_rows_match(build_determining(parse_system(SOURCES[name])), d)
    assert rows


_COEFFS = ["1", "-2", "1/3", "k", "a", "x", "t", "x^2", "t*x", "k*x", "a*t"]
_MONOS = ["Dx(u)", "Dx^2(u)", "Dx^3(u)", "u*Dx(u)", "u^2", "u", "1", "u^k",
          "u^2*Dx^2(u)"]
_CROSS = ["v", "Dx(v)", "u*v", "v*Dx(u)", "Dx^2(v)"]
_TEMPLATES = ["t^a", "x^2", "x*t^a", "1", "x*t^(2*a)"]


@st.composite
def _systems(draw):
    q = draw(st.integers(1, 2))
    monos = _MONOS + (_CROSS if q == 2 else [])
    rhs = []
    for _ in range(q):
        terms = draw(st.lists(st.tuples(st.sampled_from(_COEFFS),
                                        st.sampled_from(monos)),
                              min_size=1, max_size=3))
        rhs.append(" + ".join(f"{c}*{m}" for c, m in terms))
    extra = draw(st.lists(st.sampled_from(_TEMPLATES), max_size=2))
    return rhs, extra, draw(st.integers(0, 1))


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_systems())
def test_random_systems(case):
    """The system is built by make_system, which does not check its input,
    so a drawn system in which no term differentiates in x, which
    parse_system refuses, is compared too."""
    rhs, extra, d = case
    sig = Signature(alpha_name="a", space_names=("x",),
                    dep_names=("u", "v")[:len(rhs)],
                    params=(ParamDecl("k", "nonzero"),))
    sys = make_system(sig, [parse_expression(r, sig) for r in rhs])
    templates = tuple(parse_expression(e, sig) for e in extra)
    _assert_rows_match(build_determining(sys), d, templates)


def test_images_are_computed_once_per_instantiation():
    ds = build_determining(parse_system(SOURCES["zk"]))
    asm = ds.sys.assumptions()
    inst = build_instantiation(ds, SolverConfig(), asm)
    h = ds.ans.h(0)
    first = inst.image(h.fname, h.deriv, True)
    assert inst.image(h.fname, h.deriv, True) is first
    # the column of x^2*y in xi under d/dx is 2*x*y
    xi = ds.ans.xi(0).bump(0)
    col = inst.col_index["c[xi.2.1]"]
    (terms,) = [t for c, t in inst.image(xi.fname, xi.deriv, False) if c == col]
    ((shape, coeff, value),) = terms
    assert value == Fraction(2)
    assert inst.shapes[shape][1] == _nmul([ds.sys.sig.x(0), ds.sys.sig.x(1)])
