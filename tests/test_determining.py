"""Determining conditions: construction, separation, and exact constraint-set
equivalence with the systems printed in the source for the two worked
examples.

The printed systems are human-curated presentations (terms merged or split
for readability), so equality 'up to ordering and per-equation rational
scaling' is verified at constraint-set level: both systems are instantiated
over the same polynomial/template coefficient space and must have identical
reduced row echelon forms (the RREF of a rowspace is unique, so this holds
iff each equation set is exactly a rational recombination of the other).
"""
import random
from fractions import Fraction

import pytest

from fraclie import (AnsatzGenerator, Jet, Fn, Rat, Sym, Var,
                     ZERO, add, build_determining, expand, h_condition,
                     invariance_condition, mul, neg, normalize_equation,
                     parse_system, separate, simplify,
                     substitute)
from fraclie.determining import _power_profile, unknown_atoms_of
from fraclie.exponents import ExponentForm
from fraclie.lemmas import invariance_condition_sum, separated_by_one_sum
from fraclie.model import jet_fragments
from fraclie.linsolve import Field, rref
from fraclie.solver import SolverConfig, build_instantiation, equation_rows
from fraclie.expr import atoms, render

from conftest import DEMOS

F = Fraction
ROOT = DEMOS.parent
SYSTEMS = sorted(list(DEMOS.glob("*.fpde"))
                 + list((ROOT / "tests" / "corpus").glob("*.fpde"))
                 + list((ROOT / "perfbench" / "inputs").glob("*.fpde")))


def rowspace_rref(eqs, ds, inst, fld):
    rows = []
    for eq in eqs:
        r, _ = equation_rows(eq, inst, fld)
        rows.extend(r)
    return rref(rows, fld)


def assert_same_constraint_set(mine, paper, ds):
    fld = Field(ds.sys.assumptions())
    inst = build_instantiation(ds, SolverConfig(), ds.sys.assumptions())
    r1 = rowspace_rref(mine, ds, inst, fld)
    r2 = rowspace_rref(paper, ds, inst, fld)
    assert r1.pivots == r2.pivots
    assert len(r1.rows) == len(r2.rows)
    for row1, row2 in zip(r1.rows, r2.rows):
        for e1, e2 in zip(row1, row2):
            assert e1 == e2


def _by_key(separated):
    return [(frac.key(), [(m.key(), c.key()) for m, c in frags])
            for frac, frags in separated]


@pytest.mark.parametrize("path", SYSTEMS,
                         ids=[f"{p.parent.name}/{p.stem}" for p in SYSTEMS])
def test_split_of_the_invariance_condition(path):
    """The ansatz's invariance condition, built already separated, is the
    determining system's condition 1 and condition 2, and equals, by key,
    the route through one expanded sum (lemmas.separated_by_one_sum): the
    jet-free class holds no jet, every other class holds one, and together
    they are the condition."""
    sys = parse_system(path.read_text())
    ds = build_determining(sys)
    pro = ds.ans.prolongation
    separated = invariance_condition(sys, pro)
    assert len(separated) == sys.q
    assert _by_key(separated) == _by_key(separated_by_one_sum(sys, pro))
    for s, ((frac, frags), cond) in enumerate(
            zip(separated, invariance_condition_sum(sys, pro))):
        assert frac.key() == ds.frac_eqs[s].key()
        assert tuple(frags) == ds.fragments[s]
        assert atoms(frac, Jet) == []
        assert all(atoms(mono, Jet) for mono, _ in frags)
        back = add(frac, *[mul(m, c) for m, c in frags])
        assert simplify(expand(back - cond)) == ZERO, s


class TestHCondition:
    def test_zk(self, zk):
        (cond,) = build_determining(zk).frac_eqs
        txv = (zk.sig.t, zk.sig.x(0), zk.sig.x(1))
        want = add(Fn("h", txv, frac=True),
                   Fn("h", txv, (0, 3, 0)), Fn("h", txv, (0, 1, 2)))
        assert simplify(expand(cond - want)) == ZERO

    def test_telegraph_first_equation(self, tele):
        cond1, cond2 = build_determining(tele).frac_eqs
        tx = (tele.sig.t, tele.sig.x(0))
        want1 = add(Fn("h1", tx, frac=True), neg(Fn("h2", tx, (0, 1))))
        assert simplify(expand(cond1 - want1)) == ZERO
        assert simplify(expand(cond2 - Fn("h2", tx, frac=True))) == ZERO

    def test_no_source_no_h_gives_trivial_zero(self):
        sys = parse_system("alpha a; space x; dep u; Dt^a(u) = Dx(u);")
        (cond,) = build_determining(sys).frac_eqs
        # with h set to zero the condition collapses to 0 = 0
        tx = (sys.sig.t, sys.sig.x(0))
        killed = substitute(cond, {Fn("h", tx, frac=True): ZERO,
                                   Fn("h", tx, (0, 1)): ZERO})
        assert killed == ZERO


class TestSeparate:
    def test_zero_condition_empty_fragment(self, zk):
        frac, frags = h_condition(jet_fragments(ZERO))
        assert frac == ZERO and frags == [] and separate(frags, zk) == []

    def test_jet_inside_gamma_rejected(self, zk):
        from fraclie import Gamma, NonPolynomial
        sig = zk.sig
        with pytest.raises(NonPolynomial):
            jet_fragments(mul(Gamma(sig.u(0)), sig.u(0, (1, 0))))
        # the builder splits the system's right-hand sides the same way
        sys = parse_system("alpha a; space x; dep u; Dt^a(u) = Gamma(u)*Dx(u);")
        with pytest.raises(NonPolynomial):
            invariance_condition(
                sys, AnsatzGenerator(sys.sig, sys.alpha).prolongation)

    def test_frac_conditions_mention_no_jets(self, zk, hs, tele):
        for sys in (zk, hs, tele):
            ds = build_determining(sys)
            for eq in ds.frac_eqs:
                assert atoms(eq, Jet) == []

    def test_reduced_view_deterministic(self, zk):
        ds = build_determining(zk)
        first = ds.reduced()
        second = ds.reduced()
        assert first == second

    def test_reconstruction(self, zk, hs, tele):
        for sys in (zk, hs, tele):
            pro = AnsatzGenerator(sys.sig, sys.alpha).prolongation
            conds = invariance_condition_sum(sys, pro)
            for s, (frac, frags) in enumerate(invariance_condition(sys, pro)):
                cond = conds[s]
                back = add(frac, *[mul(m, c) for m, c in frags])
                assert simplify(expand(back - cond)) == ZERO, s

    def test_affinity_by_double_substitution(self, zk):
        ds = build_determining(zk)
        rng = random.Random(5)
        for eq in ds.integer_eqs:
            unknowns = unknown_atoms_of(eq, ds.ans)
            vals = {uatom: Rat(F(rng.randint(1, 9), rng.randint(1, 4)))
                    for uatom in unknowns}
            lam = Rat(F(7, 3))
            e1 = substitute(eq, vals)
            e3 = substitute(eq, {k: mul(lam, v) for k, v in vals.items()})
            assert simplify(expand(e3 - mul(lam, e1))) == ZERO

    def test_zk_genericity_assumptions_recorded(self, zk):
        ds = build_determining(zk)
        assert any("n-1 != 0" in a for a in ds.assumptions)

    def test_telegraph_functional_classes_recorded(self, tele):
        ds = build_determining(tele)
        assert any(a.startswith("P ") for a in ds.assumptions)
        assert any(a.startswith("G ") for a in ds.assumptions)


def _all_pairs_separate(fragments, sys):
    """separate's notes from a scan over every pair of fragments, the
    pairs of different skeletons skipped: the reference of separate, which
    visits only the pairs that share a skeleton."""
    asm = sys.assumptions()
    forms = {}
    profiles = [(_power_profile(m), m) for m, _ in fragments]
    for a, ((ska, pa), ma) in enumerate(profiles):
        for (skb, pb), mb in profiles[a + 1:]:
            if ska != skb:
                continue
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
    for name in sorted({f.fname for m, _ in fragments for f in atoms(m, Fn)}):
        notes.append(f"{name} and its derivatives span coefficient classes "
                     f"independent of each other and of powers of the dependents")
    return sorted(notes)


_SEPARATE_CASES = {f"{p.parent.name}/{p.stem}": p.read_text() for p in SYSTEMS}
_SEPARATE_CASES.update({
    "Dx^8(u^n)": "param n nonzero; alpha a; space x; dep u; Dt^a(u) = Dx^8(u^n);",
    "Dx^4(u^n)+Dx^2(u^m)": "param n; param m; alpha a; space x; dep u; "
                           "Dt^a(u) = Dx^4(u^n) + Dx^2(u^m);",
})


@pytest.mark.parametrize("source", list(_SEPARATE_CASES.values()),
                         ids=list(_SEPARATE_CASES))
def test_separate_equals_the_all_pairs_scan(source):
    sys = parse_system(source)
    pro = AnsatzGenerator(sys.sig, sys.alpha).prolongation
    for _, frags in invariance_condition(sys, pro):
        assert separate(frags, sys) == _all_pairs_separate(frags, sys)


class TestNormalizeEquation:
    def test_scaling_invariance(self):
        e = add(mul(3, Sym("chi1")), mul(-6, Fn("g", (Var("x", 0),))))
        n1 = normalize_equation(e)
        n2 = normalize_equation(mul(Rat(F(-7, 5)), e))
        assert n1 == n2


def _paper_T():
    return add(Sym("chi1"), mul(2, Sym("chi2"), Var("t", -1)))


class TestPaperGoldenZK:
    def test_system_35_equivalence(self, zk):
        ds = build_determining(zk)
        ans = ds.ans
        sig = zk.sig
        T = _paper_T()
        al, n, gam = Sym("a"), Sym("n"), Sym("gamma")
        xi_y = Fn("xi", ans._xvars(), (0, 1))
        psi_x = Fn("psi", ans._xvars(), (1, 0))
        g_x = Fn("g", ans._xvars(), (1, 0))
        g_y = Fn("g", ans._xvars(), (0, 1))
        h_x = Fn("h", (sig.t,) + ans._xvars(), (0, 1, 0))
        xi_x = Fn("xi", ans._xvars(), (1, 0))
        psi_y = Fn("psi", ans._xvars(), (0, 1))
        g = Fn("g", ans._xvars())
        h = Fn("h", (sig.t,) + ans._xvars())
        u = sig.u(0)
        paper = [
            xi_y, psi_x, g_x, g_y, h_x,
            add(mul(al, T), mul(-3, xi_x)),
            add(mul(2, psi_y), xi_x, neg(mul(al, T))),
            add(mul(add(mul(n, g), neg(xi_x),
                        mul(add(al, mul(gam, n)), T)), u),
                mul(n, h)),
        ]
        assert_same_constraint_set(list(ds.integer_eqs), paper, ds)

    def test_deliberate_corruption_detected(self, zk):
        # flipping one coefficient must break constraint-set equality
        ds = build_determining(zk)
        ans = ds.ans
        sig = zk.sig
        T = _paper_T()
        al = Sym("a")
        xi_x = Fn("xi", ans._xvars(), (1, 0))
        bad = [add(mul(al, T), mul(-2, xi_x))]  # -2 instead of -3
        good = [add(mul(al, T), mul(-3, xi_x))]
        with pytest.raises(AssertionError):
            assert_same_constraint_set(good, bad, ds)


class TestPaperGoldenHS:
    def test_system_44_equivalence(self, hs):
        ds = build_determining(hs)
        sig = hs.sig
        xv = (sig.x(0),)
        tx = (sig.t, sig.x(0))
        T = _paper_T()
        al, g1m, g2m = Sym("a"), Sym("gamma1"), Sym("gamma2")
        f1, f2 = Fn("f1", xv), Fn("f2", xv)
        h1, h2 = Fn("h1", tx), Fn("h2", tx)
        g1, g2 = Fn("g1", xv), Fn("g2", xv)
        g1p, g2p = Fn("g1", xv, (1,)), Fn("g2", xv, (1,))
        xip = Fn("xi", xv, (1,))
        paper = [
            f1, f2, h1, h2, g1p, g2p,
            add(mul(al, T), mul(-3, xip)),
            add(mul(add(al, g1m), T), g1, neg(xip)),
            add(mul(add(g1m, mul(-2, g2m), neg(al)), T), g1,
                mul(-2, g2), xip),
        ]
        assert_same_constraint_set(list(ds.integer_eqs), paper, ds)

    def test_frac_conditions_match_paper(self, hs):
        ds = build_determining(hs)
        sig = hs.sig
        tx = (sig.t, sig.x(0))
        want1 = add(Fn("h1", tx, frac=True), neg(Fn("h1", tx, (0, 3))))
        want2 = add(Fn("h2", tx, frac=True), mul(2, Fn("h2", tx, (0, 3))))
        assert simplify(expand(ds.frac_eqs[0] - want1)) == ZERO
        assert simplify(expand(ds.frac_eqs[1] - want2)) == ZERO
