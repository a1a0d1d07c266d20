"""Exact solve: golden bases for the worked examples, verification
certificates, normalization, degree stability, branch behavior."""
import json
from fractions import Fraction

import pytest

from fraclie import (DegreeInsufficient, ExponentForm,
                     Generator, Rat, ShapeViolation, Signature, SolverConfig,
                     Sym, TemplateResidual, ZERO,
                     ONE, add, build_determining, mul, neg, parse_generator, parse_system, partial_derivative, pow_,
                     solve, solve_system, verify_generator)
from fraclie.expr import Fn, _nadd, _nmul, expand, simplify, substitute
from fraclie.linsolve import Field, nullspace, rref
from fraclie.model import ParamDecl, make_system
from fraclie.records import replace
from fraclie.lemmas import (_generator_vector, _structural_groups,
                            basis_function, normalize_basis)
from fraclie import solver
from fraclie.report import run_generator_check
from fraclie.solver import (_component_coefficients, _determining_rows,
                            _gamma_subs, _rebuild_generator,
                            _vector_to_generator, build_instantiation,
                            equation_rows, normalize_generators)
from conftest import TELE_POW_GEN, DEMOS

F = Fraction
a = Sym("a")
n = Sym("n")
ROOT = DEMOS.parent
VERIFICATION_REPORTS = ROOT / "tests" / "verification_reports.json"


def exp_gen(sig, tau=ZERO, xi=None, eta=None):
    p, q = sig.p, sig.q
    return Generator(sig, simplify(tau),
                     tuple(simplify(x) for x in (xi or [ZERO] * p)),
                     tuple(simplify(e) for e in (eta or [ZERO] * q)))


class TestGoldenBases:
    def test_zk(self, zk):
        ds, basis = solve_system(zk)
        sig = zk.sig
        t, x, y, u = sig.t, sig.x(0), sig.x(1), sig.u(0)
        scaling = exp_gen(sig, tau=t,
                          xi=[mul(F(1, 3), a, x), mul(F(1, 3), a, y)],
                          eta=[mul(F(-2, 3), a, pow_(n, -1), u)])
        dx = exp_gen(sig, xi=[ONE, ZERO])
        dy = exp_gen(sig, xi=[ZERO, ONE])
        assert set(basis.generators) == {scaling, dx, dy}
        assert basis.dimension == 3
        assert not basis.shift_generators

    def test_hs(self, hs):
        ds, basis = solve_system(hs)
        sig = hs.sig
        t, x, u, v = sig.t, sig.x(0), sig.u(0), sig.u(1)
        scaling = exp_gen(sig, tau=t, xi=[mul(F(1, 3), a, x)],
                          eta=[mul(F(-2, 3), a, u), mul(F(-2, 3), a, v)])
        dx = exp_gen(sig, xi=[ONE])
        assert set(basis.generators) == {scaling, dx}
        assert basis.dimension == 2
        assert not basis.shift_generators

    def test_telegraph_arbitrary_pg(self, tele):
        ds, basis = solve_system(tele)
        sig = tele.sig
        dx = exp_gen(sig, xi=[ONE])
        assert list(basis.generators) == [dx]
        assert basis.dimension == 1
        # the always-admitted pure shift t^(a-1) d/dv is reported separately
        shift = exp_gen(sig, eta=[ZERO, pow_(sig.t, ExponentForm.symbol("a")
                                             - ExponentForm.rational(1))])
        assert list(basis.shift_generators) == [shift]

    def test_simple_transport(self):
        # Dt^a u = u_x: translations, u-scaling and the t-scaling survive,
        # plus the t^(a-1) shift (hand separation cross-check).
        sys = parse_system("alpha a; space x; dep u; Dt^a(u) = Dx(u);")
        ds, basis = solve_system(sys)
        sig = sys.sig
        t, x, u = sig.t, sig.x(0), sig.u(0)
        expected = {
            exp_gen(sig, xi=[ONE]),
            exp_gen(sig, eta=[u]),
            exp_gen(sig, tau=t, xi=[mul(a, x)]),
        }
        assert set(basis.generators) == expected
        assert [g.describe() for g in basis.shift_generators] == ["t^(a-1)*d/du"]

    def test_all_reports_certify(self, zk):
        _, basis = solve_system(zk)
        assert all(r.ok for r in basis.reports)

    def test_fractional_diffusion_known_algebra(self):
        # Dt^a u = u_xx admits d/dx, u d/du, 2t d/dt + a x d/dx (classical
        # result for the fractional diffusion equation) plus the solution
        # shifts t^(a-1) d/du and x t^(a-1) d/du from the template library.
        sys = parse_system("alpha a; space x; dep u; Dt^a(u) = Dx^2(u);")
        ds, basis = solve_system(sys)
        sig = sys.sig
        t, x, u = sig.t, sig.x(0), sig.u(0)
        expected = {
            exp_gen(sig, xi=[ONE]),
            exp_gen(sig, eta=[u]),
            exp_gen(sig, tau=t, xi=[mul(F(1, 2), a, x)]),
        }
        assert set(basis.generators) == expected
        ta1 = pow_(t, ExponentForm.symbol("a") - ExponentForm.rational(1))
        shifts = {exp_gen(sig, eta=[ta1]), exp_gen(sig, eta=[mul(x, ta1)])}
        assert set(basis.shift_generators) == shifts

    def test_nonzero_source_term(self):
        # H = t*x feeds the fractional condition; the weighted scaling
        # t dt + a x dx + (1+2a) u du survives and certifies.
        sys = parse_system("alpha a; space x; dep u; Dt^a(u) = Dx(u) + t*x;")
        ds, basis = solve_system(sys)
        sig = sys.sig
        scaling = exp_gen(sig, tau=sig.t, xi=[mul(a, sig.x(0))],
                          eta=[mul(add(ONE, mul(2, a)), sig.u(0))])
        assert scaling in set(basis.generators)
        assert all(r.ok for r in basis.reports)


ROOT = DEMOS.parent
BRANCH_SYSTEMS = [p for d in ("tests/corpus", "demos", "perfbench/inputs")
                  for p in sorted((ROOT / d).glob("*.fpde"))]


class TestBranches:
    def test_chi2_nonzero_branch_produces_projective_generator(self):
        # for Dt^(1/3) u = u u_x the u u_x class coefficient alpha + gamma
        # vanishes on the nonzero branch (gamma = (alpha-1)/2 = -1/3), so a
        # genuine t^2 generator survives; hand-derived and certified:
        #   X = t^2 d/dt - (2/3) t u d/du
        sys = parse_system("alpha 1/3; space x; dep u; Dt^alpha(u) = u*Dx(u);")
        ds, basis = solve_system(sys)
        sig = sys.sig
        t, x, u = sig.t, sig.x(0), sig.u(0)
        projective = exp_gen(sig, tau=pow_(t, 2),
                             eta=[mul(F(-2, 3), t, u)])
        expected = {
            projective,
            exp_gen(sig, tau=t, eta=[mul(F(-1, 3), u)]),
            exp_gen(sig, xi=[ONE]),
            exp_gen(sig, xi=[x], eta=[u]),
        }
        assert set(basis.generators) == expected
        assert all(r.ok for r in basis.reports)

    def test_chi2_branch_empty_on_paper_examples(self, zk, hs, tele):
        for sys in (zk, hs, tele):
            _, basis = solve_system(sys)
            for g in list(basis.generators) + list(basis.shift_generators):
                t = sys.sig.t
                curvature = partial_derivative(
                    partial_derivative(g.tau, t), t)
                assert curvature == ZERO

    def test_single_branch_configs(self, zk):
        ds = build_determining(zk)
        bz = solve(ds, SolverConfig(branch="zero"))
        both = solve(ds, SolverConfig(branch="both"))
        assert set(bz.generators) == set(both.generators)

    @pytest.mark.parametrize("branch", ["nonzero", "", "Zero"])
    def test_unknown_branch_is_a_value_error(self, branch):
        with pytest.raises(ValueError, match="'both' or 'zero'"):
            SolverConfig(branch=branch)

    @pytest.mark.parametrize("path", BRANCH_SYSTEMS,
                             ids=[f"{p.parent.name}/{p.stem}" for p in BRANCH_SYSTEMS])
    def test_zero_branch_is_the_chi2_zero_subspace(self, path):
        # one elimination for both branches: the zero branch emits the
        # generators the zero entry of branch_dims counts, none with a t^2
        # part in tau, under the ledger of the whole solve
        sys = parse_system(path.read_text())
        ds = build_determining(sys)
        both = solve(ds)
        zero = solve(ds, SolverConfig(branch="zero"))
        emitted = zero.generators + zero.shift_generators
        assert len(emitted) == dict(both.branch_dims)["zero"]
        t = sys.sig.t
        for g in emitted:
            assert partial_derivative(partial_derivative(g.tau, t), t) == ZERO
        assert zero.assumptions == both.assumptions


PROJECTIVE_SRC = "alpha 1/3; space x; dep u; Dt^alpha(u) = u*Dx(u);"
HEAT_SRC = "alpha a; space x; dep u; Dt^a(u) = Dx^2(u);"
SOURCE_SRC = "alpha a; space x; dep u; Dt^a(u) = Dx(u) + t*x;"


class TestBranchDimensions:
    """branch_dims come from one null space: nonzero is its dimension, zero
    that of its chi2 = 0 subspace.  Expected values are those of separate
    solves on the chi2 = 0 and chi2 != 0 branches; the zero branch emits
    the generators of that subspace."""

    def test_projective(self):
        sys = parse_system(PROJECTIVE_SRC)
        ds = build_determining(sys)
        t, u = sys.sig.t, sys.sig.u(0)
        projective = exp_gen(sys.sig, tau=pow_(t, 2), eta=[mul(F(-2, 3), t, u)])
        both = solve(ds, SolverConfig(branch="both"))
        assert both.branch_dims == (("zero", 3), ("nonzero", 4))
        assert projective in both.generators
        zero = solve(ds, SolverConfig(branch="zero"))
        assert zero.branch_dims == (("zero", 3),)
        assert projective not in zero.generators
        assert set(zero.generators) == set(both.generators) - {projective}

    def test_linear_heat(self):
        _, basis = solve_system(parse_system(HEAT_SRC))
        assert basis.branch_dims == (("zero", 5), ("nonzero", 5))

    def test_source_term(self):
        ds = build_determining(parse_system(SOURCE_SRC))
        both = solve(ds, SolverConfig(branch="both"))
        assert both.branch_dims == (("zero", 2), ("nonzero", 2))
        assert both.assumptions == (
            "2*a-1 != 0 (separates t-power classes during the solve)",
            "3*a-1 != 0 (separates t-power classes during the solve)")
        # structurally equal, not just equal up to Field.eq: the u-coefficient
        # is u*(1 + 2*a) on both configurations
        zero = solve(ds, SolverConfig(branch="zero"))
        assert zero.generators == both.generators
        assert zero.shift_generators == both.shift_generators


class TestStability:
    def test_degree_stability_2_3_4(self, zk, hs, tele):
        for sys in (zk, hs, tele):
            ds = build_determining(sys)
            dims = set()
            for d in (2, 3, 4):
                b = solve(ds, SolverConfig(poly_degree=d,
                                           check_degree_stability=False))
                dims.add(b.dimension + len(b.shift_generators))
            assert len(dims) == 1

    def test_degree_insufficient_raises(self, zk):
        ds = build_determining(zk)
        with pytest.raises(DegreeInsufficient):
            solve(ds, SolverConfig(poly_degree=0))

    def test_equation_scaling_invariance(self, zk):
        ds = build_determining(zk)
        scaled = (mul(F(7, 3), ds.integer_eqs[0]),) + ds.integer_eqs[1:]
        ds2 = replace(ds, integer_eqs=scaled)
        b1 = solve(ds, SolverConfig())
        b2 = solve(ds2, SolverConfig())
        assert set(b1.generators) == set(b2.generators)


PROJ_SRC = (DEMOS.parent / "perfbench" / "inputs" / "proj.fpde").read_text()
CORPUS = DEMOS.parent / "tests" / "corpus"
# (k^2-1)/((k-1)*(k+1)) - 1 is 0: a t-power of tau or of xi with this
# coefficient is no term
_ZERO_IN_K = "((k^2-1)/((k-1)*(k+1)) - 1)"


def _reference_generator(ds, inst, vec, fld):
    """The generator of a null vector as the solver assembled it before the
    component coefficients: the entries, as expressions, times the basis
    functions substituted into the ansatz with gamma_s = (alpha-1)/2, each
    component expanded and its field coefficients combined per structural
    monomial."""
    values = _gamma_subs(ds)
    for name, cols in inst.basis.items():
        atom = Fn(name, inst.args[name]) if name in inst.args else Sym(name)
        values[atom] = _nadd([_nmul([fld.to_expr(vec[c]), basis_function(inst, b)])
                              for c, b in cols if c < len(vec)])

    def val(e):
        groups = _structural_groups(expand(substitute(e, values)), fld)
        return _nadd([_nmul([fld.to_expr(c), mono])
                      for _, (mono, c) in sorted(groups.items()) if not c.is_zero()])

    ans, sig = ds.ans, ds.sys.sig
    return Generator(sig, val(ans.tau), tuple(val(ans.xi(i)) for i in range(sig.p)),
                     tuple(val(ans.eta(s)) for s in range(sig.q)))


class _Stop(Exception):
    pass


def _restrict(rows, keep):
    """The rows on the columns `keep`, in that order; rows left empty drop."""
    out = []
    for row in rows:
        r = [row[c] for c in keep]
        if any(not e.is_zero() for e in r):
            out.append(r)
    return out


class TestDegreeLift:
    """The solve builds its rows once, with columns up to degree d+1, reads
    the degree-d system off that matrix and eliminates it once."""

    @pytest.mark.parametrize("d", [0, 3])
    @pytest.mark.parametrize("name", ["zk", "hs", "tele", "tele_pow", "proj"])
    def test_restricted_rows_and_notes_are_the_degree_d_ones(self, name, d, request):
        sys = parse_system(PROJ_SRC) if name == "proj" else request.getfixturevalue(name)
        ds = build_determining(sys)
        asm = sys.assumptions()
        fld = Field(asm)
        inst = build_instantiation(
            ds, SolverConfig(poly_degree=d, check_degree_stability=False), asm)
        big = build_instantiation(ds, SolverConfig(poly_degree=d), asm)
        plain = build_instantiation(
            ds, SolverConfig(poly_degree=d + 1, check_degree_stability=False), asm)
        keep = [big.col_index[c] for c in inst.columns]
        assert keep == sorted(keep) and len(big.columns) > len(keep)
        assert keep == list(range(big.ndeg))
        assert sorted(big.columns) == sorted(plain.columns)
        rows, notes = _determining_rows(ds, inst, fld)
        big_rows, big_notes = _determining_rows(ds, big, fld, set(keep))
        assert _restrict(big_rows, keep) == rows
        assert sorted(set(big_notes)) == sorted(set(notes))

    @pytest.mark.parametrize("branch", ["both", "zero"])
    @pytest.mark.parametrize("d", [0, 3])
    @pytest.mark.parametrize("name", ["zk", "hs", "tele", "tele_pow", "proj"])
    def test_one_elimination_is_restricted_rref_then_rank(self, name, d, branch,
                                                         request, monkeypatch):
        # solve hands rref the determining rows alone, whatever the branch
        sys = parse_system(PROJ_SRC) if name == "proj" else request.getfixturevalue(name)
        ds = build_determining(sys)
        seen = []

        def first_rref(rows, fld, lead=None):
            seen.append((rows, fld, lead))
            raise _Stop
        monkeypatch.setattr(solver, "rref", first_rref)
        with pytest.raises(_Stop):
            solve(ds, SolverConfig(poly_degree=d, branch=branch))
        (rows, fld, k), = seen
        big = build_instantiation(ds, SolverConfig(poly_degree=d), sys.assumptions())
        assert k == big.ndeg
        assert rows == _determining_rows(ds, big, fld, set(range(k)))[0]
        res = rref(rows, fld, lead=k)
        want = rref(_restrict(rows, list(range(k))), fld)
        first = [(row[:k], p) for row, p in zip(res.rows, res.pivots) if p < k]
        assert [p for _, p in first] == want.pivots
        assert [row for row, _ in first] == want.rows
        assert res.assumptions == want.assumptions
        assert len(res.pivots) == len(rref(rows, fld).pivots)

    def test_ledger_ignores_classes_of_new_columns_only(self):
        sys = parse_system(HEAT_SRC)
        ds = build_determining(sys)
        fld = Field(sys.assumptions())
        big = build_instantiation(
            ds, SolverConfig(poly_degree=1, check_degree_stability=False),
            sys.assumptions())
        t = sys.sig.t
        two_a = ExponentForm.symbol("a", coeff=2)
        # xi_x = c[xi.1] in the class t, g_x = c[g.1] in the class t^(2a)
        e = add(mul(ds.ans.xi(0).bump(0), t), mul(ds.ans.g(0).bump(0), pow_(t, two_a)))
        note = "2*a-1 != 0 (separates t-power classes during the solve)"
        assert equation_rows(e, big, fld)[1] == [note]
        old = {big.col_index["c[xi.1]"]}
        rows, notes = equation_rows(e, big, fld, old)
        assert len(rows) == 2 and notes == []

    def test_column_names_distinct_at_high_degree(self, zk):
        # with p = 2, the exponents (1, 11) and (11, 1) must not share a name
        ds = build_determining(zk)
        inst = build_instantiation(
            ds, SolverConfig(poly_degree=11, check_degree_stability=False),
            zk.assumptions())
        assert len(inst.columns) == 242
        assert len(inst.col_index) == len(inst.columns)

    def test_degree_insufficient_message(self, zk):
        ds = build_determining(zk)
        with pytest.raises(DegreeInsufficient) as exc:
            solve(ds, SolverConfig(poly_degree=0))
        assert str(exc.value) == ("solution dimension moved from 2 to 3 when the "
                                  "polynomial degree was raised from 0 to 1")

    def test_extra_templates_follow_the_defaults(self, zk):
        ds = build_determining(zk)
        asm = zk.assumptions()
        defaults = build_instantiation(ds, SolverConfig(), asm).templates
        t_a = pow_(zk.sig.t, a)
        inst = build_instantiation(ds, SolverConfig(h_templates=(ONE, t_a)), asm)
        assert ONE in defaults and t_a not in defaults
        assert inst.templates == defaults + [t_a]

    def test_non_linear_system_is_a_template_residual(self):
        # the parser rejects a parameter named after an unknown; a system
        # built directly can still hold one, and the solve must refuse it
        sig = Signature(alpha_name="a", space_names=("x",), dep_names=("u",),
                        params=(ParamDecl("chi1"),))
        u = sig.u(0)
        sys = make_system(sig, [add(sig.u(0, (2,)),
                                    mul(Sym("chi1"), u, sig.u(0, (1,))))])
        with pytest.raises(TemplateResidual, match="not linear in the solver"):
            solve(build_determining(sys))

    def test_zero_branch_dims_and_ledger(self, zk):
        basis = solve(build_determining(zk), SolverConfig(branch="zero"))
        assert basis.branch_dims == (("zero", 3),)
        assert basis.assumptions == (
            "-4*a-3*a*n+3*n != 0 (assumed to pivot during elimination)",
            "2*a-1 != 0 (separates t-power classes during the solve)",
            "n-1 != 0 (separates u from u^(n))")


def verification_reports() -> list[dict]:
    """The rendered certificate (run_generator_check) of every generator the
    benchmark's certify workload verifies or rejects, and of
    demos/telegraph_power.gen, which tests/verification_reports.json
    records."""
    refs = json.loads((ROOT / "perfbench" / "reference" / "references.json")
                      .read_text())
    bases = refs["bases"]
    cases = [(bases[key]["system"], gen) for key in refs["certify"]["verify_bases"]
             for gen in bases[key]["point"] + bases[key]["shifts"]]
    cases += [(bases[r["basis"]]["system"], r["gen"])
              for r in refs["certify"]["reject"]]
    cases.append(("demos/telegraph_power.fpde", TELE_POW_GEN))
    return [{"system": path, "text": text,
             **run_generator_check(parse_system((ROOT / path).read_text()), text)}
            for path, text in cases]


class TestVerifyGenerator:
    def test_zk_scaling_generator(self, zk):
        sig = zk.sig
        gen = exp_gen(sig, tau=sig.t,
                      xi=[mul(F(1, 3), a, sig.x(0)), mul(F(1, 3), a, sig.x(1))],
                      eta=[mul(F(-2, 3), a, pow_(n, -1), sig.u(0))])
        rep = verify_generator(zk, gen)
        assert rep.ok

    def test_perturbed_generator_fails(self, zk):
        sig = zk.sig
        gen = exp_gen(sig, tau=sig.t,
                      xi=[mul(F(1, 3), a, sig.x(0)), mul(F(1, 3), a, sig.x(1))],
                      eta=[neg(sig.u(0))])
        rep = verify_generator(zk, gen)
        assert not rep.ok
        assert any(c != ZERO for _, c in rep.integer_residuals[0])

    def test_telegraph_power_law_proposition_generator(self, tele_pow):
        gen, _ = parse_generator(TELE_POW_GEN, tele_pow.sig)
        rep = verify_generator(tele_pow, gen)
        assert rep.ok
        assert all(r == ZERO for r in rep.frac_residuals)

    def test_verification_skips_the_genericity_scan(self, zk, monkeypatch):
        # the genericity notes belong to build_determining; verification
        # reads the fragments alone, with the same residuals
        import fraclie.determining as determining
        sig = zk.sig
        gen = exp_gen(sig, tau=sig.t,
                      xi=[mul(F(1, 3), a, sig.x(0)), mul(F(1, 3), a, sig.x(1))],
                      eta=[neg(sig.u(0))])
        before = verify_generator(zk, gen)

        def scan(*args):
            raise AssertionError("verification ran the genericity scan")
        monkeypatch.setattr(determining, "separate", scan)
        after = verify_generator(zk, gen)
        assert after == before and not after.ok

    def test_reports_match_recording(self):
        """Verdicts and rendered residuals, rejects included, equal the
        recording in tests/verification_reports.json."""
        got = json.loads(json.dumps(verification_reports()))
        assert got == json.loads(VERIFICATION_REPORTS.read_text())

    def test_shape_violation_cubic_tau(self, zk):
        sig = zk.sig
        gen = exp_gen(sig, tau=pow_(sig.t, 3), xi=[ZERO, ZERO], eta=[ZERO])
        with pytest.raises(ShapeViolation):
            verify_generator(zk, gen)

    def test_shape_check_compares_rational_functions(self):
        # (k^2-1)/((k-1)*(k+1)) is 1: the t-slope of eta's u-coefficient is
        # (alpha-1)*chi2 = -2/3 as a rational function, not as a tree
        sys = parse_system("alpha 1/3; space x; dep u; Dt^alpha(u) = u*Dx(u);")
        gen, _ = parse_generator("param k; tau = t^2;"
                                 " eta[u] = (-2/3)*(k^2-1)/((k-1)*(k+1))*t*u;",
                                 sys.sig)
        rep = verify_generator(sys, gen)
        assert rep.ok
        assert rep.all_residuals() == [ZERO]

    @pytest.mark.parametrize("text", [
        f"param k; tau = t + {_ZERO_IN_K}*t^3; eta[u] = (-1/3)*u;",
        f"param k; tau = t; xi[x] = {_ZERO_IN_K}*t; eta[u] = (-1/3)*u;",
        "tau = t; eta[u] = (-1/3)*u;",
    ], ids=["tau-cubic-zero", "xi-t-zero", "plain"])
    def test_shape_check_splits_t_powers_on_values(self, text):
        sys = parse_system(PROJ_SRC)
        rep = verify_generator(sys, parse_generator(text, sys.sig)[0])
        assert rep.ok
        assert all(r == ZERO for r in rep.all_residuals())

    @pytest.mark.parametrize("text", [
        "tau = t; xi[x] = t; eta[u] = (-1/3)*u;",
        f"param k; tau = t; xi[x] = ({_ZERO_IN_K} + 1)*t; eta[u] = (-1/3)*u;",
        "tau = t; xi[x] = (1 + t)^(1/2); eta[u] = (-1/3)*u;",
    ], ids=["xi-t", "xi-t-nonzero", "xi-t-inside-power"])
    def test_t_dependent_xi_refused(self, text):
        sys = parse_system(PROJ_SRC)
        with pytest.raises(ShapeViolation, match="xi_x must depend"):
            verify_generator(sys, parse_generator(text, sys.sig)[0])

    def test_t_cubic_tau_refused(self):
        sys = parse_system(PROJ_SRC)
        gen = parse_generator(f"param k; tau = t + ({_ZERO_IN_K} + 1)*t^3;",
                              sys.sig)[0]
        with pytest.raises(ShapeViolation, match="chi2\\*t\\^2"):
            verify_generator(sys, gen)

    def test_shape_violation_nonlinear_eta(self, zk):
        sig = zk.sig
        gen = exp_gen(sig, eta=[pow_(sig.u(0), 2)])
        with pytest.raises(ShapeViolation):
            verify_generator(zk, gen)


class TestNormalizeBasis:
    def test_rref_example(self, zk):
        _, basis = solve_system(zk)
        sig = zk.sig
        dx = exp_gen(sig, xi=[ONE, ZERO])
        dy = exp_gen(sig, xi=[ZERO, ONE])
        messy = replace(
            basis, generators=(exp_gen(sig, xi=[Rat(2), ZERO]),
                               exp_gen(sig, xi=[ONE, ONE])),
            shift_generators=(), reports=(), shift_reports=())
        out = normalize_basis(messy)
        assert set(out.generators) == {dx, dy}

    def test_idempotent(self, zk):
        _, basis = solve_system(zk)
        once = normalize_basis(basis)
        twice = normalize_basis(once)
        assert list(twice.generators) == list(once.generators)

    def test_empty(self, zk):
        _, basis = solve_system(zk)
        empty = replace(basis, generators=(), shift_generators=(),
                        reports=(), shift_reports=())
        out = normalize_basis(empty)
        assert out.generators == () and out.shift_generators == ()


class TestCanonicalOutputs:
    """The solver builds canonical trees only: simplify leaves every
    determining equation and every emitted generator component unchanged."""

    @pytest.mark.parametrize("name", ["zk", "tele_pow"])
    def test_fixed_points_of_simplify(self, name, request):
        ds, basis = solve_system(request.getfixturevalue(name))
        exprs = list(ds.integer_eqs) + list(ds.frac_eqs)
        for g in basis.generators + basis.shift_generators:
            exprs += [g.tau, *g.xi, *g.eta]
        assert ds.integer_eqs and ds.frac_eqs and basis.generators
        assert [simplify(e) for e in exprs] == exprs


class TestFieldAssembly:
    """Entries and generators are assembled from field terms and elements;
    they must be the elements the expression route gives."""

    @pytest.mark.parametrize("name", ["zk", "hs", "tele", "tele_pow", "proj"])
    def test_generator_vectors_are_those_of_their_expressions(self, name, request):
        sys = parse_system(PROJ_SRC) if name == "proj" else request.getfixturevalue(name)
        ds = build_determining(sys)
        asm = sys.assumptions()
        fld = Field(asm)
        inst = build_instantiation(ds, SolverConfig(), asm)
        rows, _ = _determining_rows(ds, inst, fld, set(range(inst.ndeg)))
        vecs, _ = nullspace(rref(rows, fld, lead=inst.ndeg), inst.ndeg, fld)
        coeffs = _component_coefficients(ds, inst, fld)
        assert vecs
        for v in vecs:
            direct = _vector_to_generator(coeffs, inst, v, fld)
            ordered = sorted(direct)
            gen = _rebuild_generator(sys.sig, ordered, {k: direct[k][0] for k in ordered},
                                     [direct[k][1] for k in ordered], fld)
            assert _generator_vector(gen, fld) == direct

    @pytest.mark.parametrize("name", ["zk", "hs", "tele", "tele_pow", "proj",
                                      "burgers", "kdv", "u2_uxx", "zk3d"])
    def test_generators_are_those_of_the_substituted_ansatz(self, name, request):
        # An element over a sum has no unique form, so the two routes may
        # give equal coefficients in two forms: on tele_pow, eta's
        # coefficient of u1 is (2a^3 + 6a^4)/(a^2 + 6a^3 + 9a^4) directly
        # and (2a^5 + 12a^6 + 18a^7)/(a^4 + 9a^5 + 27a^6 + 27a^7) by the
        # expressions.  Elements compare by value, so the vectors are equal.
        if name in ("zk", "hs", "tele", "tele_pow"):
            sys = request.getfixturevalue(name)
        else:
            sys = parse_system(PROJ_SRC if name == "proj"
                               else (CORPUS / f"{name}.fpde").read_text())
        ds = build_determining(sys)
        asm = sys.assumptions()
        fld = Field(asm)
        inst = build_instantiation(ds, SolverConfig(), asm)
        rows, _ = _determining_rows(ds, inst, fld, set(range(inst.ndeg)))
        vecs, _ = nullspace(rref(rows, fld, lead=inst.ndeg), inst.ndeg, fld)
        coeffs = _component_coefficients(ds, inst, fld)
        direct = [_vector_to_generator(coeffs, inst, v, fld) for v in vecs]
        want = [_generator_vector(_reference_generator(ds, inst, v, fld), fld)
                for v in vecs]
        same = 0
        for d, w in zip(direct, want):
            w = {k: mc for k, mc in w.items() if not mc[1].is_zero()}
            assert d.keys() == w.keys()
            assert all(d[k][0] == w[k][0] and d[k][1] == w[k][1] for k in d)
            same += d == w
        assert same == len(vecs)
        assert (normalize_generators(direct, sys.sig, fld)
                == normalize_generators(want, sys.sig, fld))
        # every system but tele and proj has coefficients over a sum
        sum_dens = sum(any(fld._sums[i] is not None for i in c.f)
                       for d in direct for _, c in d.values())
        assert (sum_dens == 0) == (name in ("tele", "proj"))

