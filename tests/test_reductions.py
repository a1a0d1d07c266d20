"""Reductions and exact-solution verification."""
import json
from fractions import Fraction

import pytest

from fraclie import (ExponentForm, Fn, Gamma, Generator, NotScaling, NotTranslation, Sym, UndecidableExponent,
                     ZERO, ONE, add, expand, mul, neg, parse_expression, parse_generator, parse_system, pow_, scaling_similarity,
                     simplify, translation_reduction, verify_exact_solution)
from fraclie.lemmas import similarity_invariance_residuals
from fraclie.report import PipelineConfig, report_payload, run_pipeline
from conftest import DEMOS

F = Fraction
a = Sym("a")
AF = ExponentForm.symbol("a")
ROOT = DEMOS.parent
REDUCTION_REPORTS = ROOT / "tests" / "reduction_reports.json"


def reduction_reports() -> list[dict]:
    """The `reductions` block of the `--reduce` report of every demo, corpus
    and perfbench input system, which tests/reduction_reports.json
    records."""
    paths = sorted(p.relative_to(ROOT).as_posix()
                   for d in ("demos", "tests/corpus", "perfbench/inputs")
                   for p in (ROOT / d).glob("*.fpde"))
    return [{"system": path,
             "reductions": report_payload(run_pipeline(
                 (ROOT / path).read_text(), PipelineConfig(reduce=True)))["reductions"]}
            for path in paths]


def gen_of(sig, tau=ZERO, xi=None, eta=None):
    return Generator(sig, simplify(tau),
                     tuple(simplify(x) for x in (xi or [ZERO] * sig.p)),
                     tuple(simplify(e) for e in (eta or [ZERO] * sig.q)))


def test_reduction_reports_match_recording():
    """Every reduction the `--reduce` report lists, translations and
    scalings, equals the recording in tests/reduction_reports.json."""
    got = json.loads(json.dumps(reduction_reports()))
    assert got == json.loads(REDUCTION_REPORTS.read_text())


class TestTranslation:
    def test_zk_dx_kills_everything(self, zk):
        gen = gen_of(zk.sig, xi=[ONE, ZERO])
        red = translation_reduction(zk, gen)
        assert red.removed == "x"
        assert red.system.rhs(0) == ZERO
        assert red.system.sig.space_names == ("y",)

    def test_zk_dy_keeps_x_part(self, zk):
        gen = gen_of(zk.sig, xi=[ZERO, ONE])
        red = translation_reduction(zk, gen)
        sig = red.system.sig
        u, ux, uxxx = sig.u(0), sig.u(0, (1,)), sig.u(0, (3,))
        n = Sym("n")
        want = add(neg(mul(pow_(u, ExponentForm.symbol("n")), ux)), neg(uxxx))
        assert simplify(expand(red.system.rhs(0) - want)) == ZERO

    def test_hs_dx(self, hs):
        gen = gen_of(hs.sig, xi=[ONE])
        red = translation_reduction(hs, gen)
        assert red.system.rhs(0) == ZERO
        assert red.system.rhs(1) == ZERO

    def test_split_preserved(self, zk):
        gen = gen_of(zk.sig, xi=[ZERO, ONE])
        red = translation_reduction(zk, gen)
        from fraclie.expr import depends_on_jets, add_terms
        for s in range(red.system.q):
            assert not depends_on_jets(red.system.H[s])
            for t_ in add_terms(red.system.F[s]):
                assert t_ == ZERO or depends_on_jets(t_)

    def test_explicit_dependence_on_the_axis_is_refused(self):
        sys = parse_system("alpha a; space x; dep u; Dt^a(u) = Dx^2(u) + x;")
        with pytest.raises(NotTranslation,
                           match="the system depends explicitly on x"):
            translation_reduction(sys, gen_of(sys.sig, xi=[ONE]))

    def test_not_translation(self, zk):
        gen = gen_of(zk.sig, tau=zk.sig.t, xi=[ZERO, ZERO])
        with pytest.raises(NotTranslation):
            translation_reduction(zk, gen)
        with pytest.raises(NotTranslation):
            translation_reduction(zk, gen_of(zk.sig, xi=[ONE, ONE]))


class TestScaling:
    def zk_scaling(self, zk):
        sig = zk.sig
        return gen_of(sig, tau=sig.t,
                      xi=[mul(F(1, 3), a, sig.x(0)), mul(F(1, 3), a, sig.x(1))],
                      eta=[mul(F(-2, 3), a, pow_(Sym("n"), -1), sig.u(0))])

    def test_zk_similarity_variables(self, zk):
        red = scaling_similarity(self.zk_scaling(zk), zk.alpha)
        third = ExponentForm.symbol("a").scale(F(1, 3))
        assert red.z_exponents == (third, third)
        # U = u t^(2 alpha/(3n)): stored exponent B with U = u t^(-B)
        b = ExponentForm({(("a", 1), ("n", -1)): F(-2, 3)})
        assert red.u_exponents == (b,)
        # EK parameters by the construction rule
        assert red.ek_delta[0] == ExponentForm({(("a", -1),): F(3)})
        assert red.ek_epsilon[0] == ExponentForm.rational(1) + b - AF

    def test_hs_similarity_variables(self, hs):
        sig = hs.sig
        gen = gen_of(sig, tau=sig.t, xi=[mul(F(1, 3), a, sig.x(0))],
                     eta=[mul(F(-2, 3), a, sig.u(0)), mul(F(-2, 3), a, sig.u(1))])
        red = scaling_similarity(gen, hs.alpha)
        assert red.z_exponents == (AF.scale(F(1, 3)),)
        assert red.u_exponents == (AF.scale(F(-2, 3)), AF.scale(F(-2, 3)))

    def test_a_sum_of_multiples_of_the_dependent_is_one_multiple(self, hs):
        # a*u + u is (1 + a)*u: one coefficient, one reduction
        def reduction(eta_u):
            text = f"tau = t; xi[x] = x; eta[u] = {eta_u}; eta[v] = v;"
            return scaling_similarity(parse_generator(text, hs.sig)[0], hs.alpha)
        red = reduction("a*u + u")
        assert red == reduction("(1+a)*u")
        assert red.u_exponents == (AF + ExponentForm.rational(1),
                                   ExponentForm.rational(1))

    def test_generator_annihilates_similarity_variables(self, zk, hs):
        sig = zk.sig
        red = scaling_similarity(self.zk_scaling(zk), zk.alpha)
        res = similarity_invariance_residuals(self.zk_scaling(zk), red)
        assert all(r == ZERO for r in res)

    def test_delta_is_infinite_only_for_a_fixed_variable(self):
        # Dt^a u = t*u_xx scales x by t^((1+a)/2): delta = 2/(1+a), which is
        # no exponent form, and is rendered as the reciprocal of A
        sys = parse_system("alpha a; space x; dep u; Dt^a(u) = t*Dx^2(u);")
        sig = sys.sig
        half = F(1, 2)
        gen = gen_of(sig, tau=sig.t, xi=[mul(add(half, mul(half, a)), sig.x(0))])
        red = scaling_similarity(gen, sys.alpha)
        assert red.z_exponents == (AF.scale(half) + ExponentForm.rational(half),)
        assert red.ek_delta == (None,)
        assert "delta=(1/(1/2*a+1/2))]" in red.describe()[-1]
        fixed = scaling_similarity(gen_of(sig, tau=sig.t), sys.alpha)
        assert fixed.ek_delta == (None,)
        assert "delta=(inf)]" in fixed.describe()[-1]

    def test_not_scaling(self, zk):
        with pytest.raises(NotScaling):
            scaling_similarity(gen_of(zk.sig, xi=[ONE, ZERO]), zk.alpha)


class TestExactSolutions:
    def test_hirota_satsuma_power_solution(self, hs):
        sig = hs.sig
        c1, c2 = Sym("C1"), Sym("C2")
        ta1 = pow_(sig.t, AF - ExponentForm.rational(1))
        res = verify_exact_solution(hs, [mul(c1, ta1), mul(c2, ta1)])
        assert res == [ZERO, ZERO]

    def test_zk_arbitrary_f_of_y(self, zk):
        sig = zk.sig
        sol = mul(Fn("f", (sig.x(1),)), pow_(sig.t, AF - ExponentForm.rational(1)))
        res = verify_exact_solution(zk, [sol])
        assert res == [ZERO]

    def test_telegraph_particular_solution_lambda_one(self, tele_pow):
        # P(u)=u^2, G(u)=u; with Lambda = 1:
        #   u = c2 Gamma(a)/Gamma(2a) t^(2a-1)
        #   v = c2 x t^(a-1) + c2 Gamma(a)/Gamma(3a) t^(3a-1)
        sig = tele_pow.sig
        t, x = sig.t, sig.x(0)
        c2 = Sym("c2")
        amp = mul(c2, Gamma(a), pow_(Gamma(mul(2, a)), -1))
        u_sol = mul(amp, pow_(t, AF.scale(2) - ExponentForm.rational(1)))
        v_sol = add(mul(c2, x, pow_(t, AF - ExponentForm.rational(1))),
                    mul(c2, Gamma(a), pow_(Gamma(mul(3, a)), -1),
                        pow_(t, AF.scale(3) - ExponentForm.rational(1))))
        res = verify_exact_solution(tele_pow, [u_sol, v_sol])
        assert res == [ZERO, ZERO]

    def test_telegraph_literal_printed_form_needs_c2_one(self, tele_pow):
        # the printed solution carries a bare x t^(a-1) term; it solves the
        # system exactly when c2 = 1 (the x-term otherwise needs a c2 factor)
        sig = tele_pow.sig
        t, x = sig.t, sig.x(0)
        amp = mul(Gamma(a), pow_(Gamma(mul(2, a)), -1))
        u_sol = mul(amp, pow_(t, AF.scale(2) - ExponentForm.rational(1)))
        v_sol = add(mul(x, pow_(t, AF - ExponentForm.rational(1))),
                    mul(Gamma(a), pow_(Gamma(mul(3, a)), -1),
                        pow_(t, AF.scale(3) - ExponentForm.rational(1))))
        res = verify_exact_solution(tele_pow, [u_sol, v_sol])
        assert res == [ZERO, ZERO]

    def test_nonsolution_leaves_residual(self, hs):
        sig = hs.sig
        res = verify_exact_solution(hs, [pow_(sig.t, AF), ZERO])
        assert res[0] != ZERO

    def test_undecidable_exponent_propagates(self, hs):
        sig = hs.sig
        with pytest.raises(UndecidableExponent):
            verify_exact_solution(
                hs, [pow_(sig.t, ExponentForm.symbol("m")), ZERO])

    @pytest.mark.parametrize("sol", ["u", "t*Dx^2(u)"])
    def test_solution_mentioning_a_dependent_is_refused(self, sol):
        heat = parse_system((ROOT / "tests" / "corpus" / "heat.fpde").read_text())
        with pytest.raises(ValueError, match="mentions a dependent"):
            verify_exact_solution(heat, [parse_expression(sol, heat.sig)])
