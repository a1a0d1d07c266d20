"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Tolerances are exact (structural zero) unless a numeric bound
is stated.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import time
from fractions import Fraction

from fraclie import (AnsatzGenerator, ExponentForm, Fn, Gamma, Generator, Jet,
                     PipelineConfig, PowerSum, Rat, Sym, Var, ZERO, ONE, add,
                     mul, neg, numeric_rl_oracle, pow_, rl_derivative,
                     run_pipeline, simplify)
from fraclie.expr import expand
from fraclie.fraccalc import default_assumptions
from fraclie.lemmas import (check_aux_conditions, leibniz_expand, mu_truncated,
                            subs_params)

from conftest import (HS_SRC, TELE_POW_SRC, TELE_POW_GEN, TELE_SRC, ZK_SRC,
                      chi2_nonzero_case, chi2_zero_case)
from test_determining import assert_same_constraint_set, _paper_T
from test_fraccalc import ALPHA_SAMPLES

F = Fraction
a = Sym("a")
AF = ExponentForm.symbol("a")


def report(num: int, desc: str, t0: float):
    print(f"\nACCEPTANCE {num} PASS: {desc} ({time.perf_counter() - t0:.2f}s)")


def gen_of(sig, tau=ZERO, xi=None, eta=None):
    return Generator(sig, simplify(tau),
                     tuple(simplify(x) for x in (xi or [ZERO] * sig.p)),
                     tuple(simplify(e) for e in (eta or [ZERO] * sig.q)))


def test_criterion_1_zk_golden():
    t0 = time.perf_counter()
    r = run_pipeline(ZK_SRC)
    sys, ds, basis = r.sys, r.ds, r.basis
    sig = sys.sig

    # determining system == system (35), up to ordering and per-equation
    # rational recombination (identical RREF over the shared parametrization)
    T = _paper_T()
    al, n, gam = Sym("a"), Sym("n"), Sym("gamma")
    xv = (sig.x(0), sig.x(1))
    txv = (sig.t,) + xv
    paper = [
        Fn("xi", xv, (0, 1)), Fn("psi", xv, (1, 0)),
        Fn("g", xv, (1, 0)), Fn("g", xv, (0, 1)), Fn("h", txv, (0, 1, 0)),
        add(mul(al, T), mul(-3, Fn("xi", xv, (1, 0)))),
        add(mul(2, Fn("psi", xv, (0, 1))), Fn("xi", xv, (1, 0)),
            neg(mul(al, T))),
        add(mul(add(mul(n, Fn("g", xv)), neg(Fn("xi", xv, (1, 0))),
                    mul(add(al, mul(gam, n)), T)), sig.u(0)),
            mul(n, Fn("h", txv))),
    ]
    assert_same_constraint_set(list(ds.integer_eqs), paper, ds)

    # basis == {dx, dy, t dt + (a/3)x dx + (a/3)y dy - (2a/3n) u du}, exact
    scaling = gen_of(sig, tau=sig.t,
                     xi=[mul(F(1, 3), a, sig.x(0)), mul(F(1, 3), a, sig.x(1))],
                     eta=[mul(F(-2, 3), a, pow_(Sym("n"), -1), sig.u(0))])
    dx = gen_of(sig, xi=[ONE, ZERO])
    dy = gen_of(sig, xi=[ZERO, ONE])
    assert set(basis.generators) == {scaling, dx, dy}
    assert basis.dimension == 3
    assert not basis.shift_generators

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, "ZK determining system == (35) and 3-generator basis, exact", t0)


def test_criterion_2_hirota_satsuma_golden():
    t0 = time.perf_counter()
    r = run_pipeline(HS_SRC)
    sys, ds, basis = r.sys, r.ds, r.basis
    sig = sys.sig
    xv = (sig.x(0),)
    tx = (sig.t, sig.x(0))
    T = _paper_T()
    al, g1m, g2m = Sym("a"), Sym("gamma1"), Sym("gamma2")
    paper = [
        Fn("f1", xv), Fn("f2", xv), Fn("h1", tx), Fn("h2", tx),
        Fn("g1", xv, (1,)), Fn("g2", xv, (1,)),
        add(mul(al, T), mul(-3, Fn("xi", xv, (1,)))),
        add(mul(add(al, g1m), T), Fn("g1", xv), neg(Fn("xi", xv, (1,)))),
        add(mul(add(g1m, mul(-2, g2m), neg(al)), T), Fn("g1", xv),
            mul(-2, Fn("g2", xv)), Fn("xi", xv, (1,))),
    ]
    assert_same_constraint_set(list(ds.integer_eqs), paper, ds)

    scaling = gen_of(sig, tau=sig.t, xi=[mul(F(1, 3), a, sig.x(0))],
                     eta=[mul(F(-2, 3), a, sig.u(0)),
                          mul(F(-2, 3), a, sig.u(1))])
    dx = gen_of(sig, xi=[ONE])
    assert set(basis.generators) == {scaling, dx}
    assert basis.dimension == 2
    assert not basis.shift_generators

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(2, "Hirota-Satsuma determining system == (44) and 2-generator "
              "basis, exact", t0)


def test_criterion_3_telegraph_arbitrary_pg():
    t0 = time.perf_counter()
    r = run_pipeline(TELE_SRC)
    sig = r.sys.sig
    dx = gen_of(sig, xi=[ONE])
    assert list(r.basis.generators) == [dx]
    assert r.basis.dimension == 1
    # the ever-present shift by the kernel power t^(a-1) in v is real (it
    # passes the residual certificate) and is reported outside the point basis
    shift = gen_of(sig, eta=[ZERO, pow_(sig.t, AF - ExponentForm.rational(1))])
    assert list(r.basis.shift_generators) == [shift]
    assert all(rep.ok for rep in r.basis.shift_reports)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(3, "telegraph with arbitrary P, G: point basis exactly {d/dx}", t0)


def test_criterion_4_telegraph_power_law_verify():
    t0 = time.perf_counter()
    r = run_pipeline(TELE_POW_SRC,
                     PipelineConfig(verify_generator_text=TELE_POW_GEN))
    chk = r.checks["verify_generator"]
    assert chk["ok"] is True
    assert all(res == "0" for res in chk["fractional_residuals"])
    assert all(not eq for eq in chk["integer_residuals"])
    report(4, "Proposition case-II generator (omega=1, c1=2, Lambda=1, "
              "h2=c2 t^(a-1)) verifies to exact zero", t0)


def test_criterion_5_fractional_calculus_suite():
    t0 = time.perf_counter()
    t = Var("t", -1)

    # power rule vs numeric oracle within 1e-8 on the 45-point grid
    for g in (F(1, 2), F(1), F(2), F(5, 2), F(3)):
        for av in (F(1, 4), F(1, 2), F(3, 4)):
            ps = PowerSum.build(t, [(ONE, ExponentForm.rational(g))])
            symbolic = rl_derivative(ps, av, tvar=t).to_expr()
            for tv in (0.5, 1.0, 2.0):
                from fraclie import evaluate
                want = evaluate(symbolic, {"t": tv})
                got = numeric_rl_oracle(ps, av, [tv]).values[0]
                assert abs(got - want) < 1e-8, (g, av, tv)

    # Leibniz termination identities, exact, for t^A * t^B with A <= 4 and
    # B in {0,1,2,3, alpha+1}; proven by exact rational-order sampling
    asm = default_assumptions(a)
    bs = [ExponentForm.rational(k) for k in range(4)] + [AF + ExponentForm.rational(1)]
    for A in range(5):
        for bf in bs:
            u_part = pow_(t, A) if A else ONE
            v_part = pow_(t, bf) if not bf.is_zero() else ONE
            lhs = leibniz_expand(u_part, v_part, a, A, tvar=t, assumptions=asm)
            rhs = rl_derivative(pow_(t, ExponentForm.rational(A) + bf), a,
                                tvar=t, assumptions=asm).to_expr()
            diff = simplify(expand(lhs - rhs))
            for av in ALPHA_SAMPLES:
                from fraclie import gamma_simplify
                assert gamma_simplify(expand(subs_params(diff, {"a": av}))) == ZERO

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(5, "power rule vs oracle (1e-8, 45 points) and exact Leibniz "
              "termination identities", t0)


def test_criterion_6_mu_linearity_property():
    t0 = time.perf_counter()
    import random
    rng = random.Random(916)
    t, xv = Var("t", -1), Var("x", 0)
    for trial in range(50):
        q = rng.choice([1, 2])
        terms = []
        for i in range(q):
            deg = rng.randint(0, 2)
            coeff = mul(Rat(F(rng.randint(1, 7), rng.randint(1, 4))),
                        pow_(t, deg) if deg else ONE,
                        Fn(f"A{i}", (t, xv)) if rng.random() < 0.5 else ONE)
            terms.append(mul(coeff, Jet(i, (0,))))
        if rng.random() < 0.5:
            terms.append(Fn("B", (t, xv)))
        eta = add(*terms)
        assert mu_truncated(eta, 6, q, alpha=a) == ZERO, trial
    u1, u2 = Jet(0, (0,)), Jet(1, (0,))
    assert mu_truncated(pow_(u1, 2), 6, 1, alpha=a) != ZERO
    assert mu_truncated(mul(u1, u2), 6, 2, alpha=a) != ZERO
    assert mu_truncated(pow_(u1, 3), 6, 1, alpha=a) != ZERO
    report(6, "mu tail: zero for 50 random linear eta at N=6, nonzero for "
              "u^2, u1*u2, u^3", t0)


def test_criterion_7_auxiliary_conditions(zk):
    t0 = time.perf_counter()
    ans = AnsatzGenerator(zk.sig, zk.alpha)
    for case in (chi2_zero_case, chi2_nonzero_case):
        ok, residuals = check_aux_conditions(ans, 6, subs=case(ans))
        assert ok, residuals
    ok, residuals = check_aux_conditions(ans, 6, tau=pow_(zk.sig.t, 3),
                                         subs=chi2_nonzero_case(ans))
    assert not ok
    assert min(k for k, _, _ in residuals) == 2
    report(7, "auxiliary conditions hold for both branches to k=6; "
              "corrupted tau=t^3 fails first at k=2", t0)


def test_criterion_8_exact_solutions(zk, hs, tele_pow):
    t0 = time.perf_counter()
    from fraclie import verify_exact_solution
    ta1 = lambda sig: pow_(sig.t, AF - ExponentForm.rational(1))

    res = verify_exact_solution(hs, [mul(Sym("C1"), ta1(hs.sig)),
                                     mul(Sym("C2"), ta1(hs.sig))])
    assert res == [ZERO, ZERO]

    res = verify_exact_solution(zk, [mul(Fn("f", (zk.sig.x(1),)), ta1(zk.sig))])
    assert res == [ZERO]

    sig = tele_pow.sig
    c2 = Sym("c2")
    amp = mul(c2, Gamma(a), pow_(Gamma(mul(2, a)), -1))
    u_sol = mul(amp, pow_(sig.t, AF.scale(2) - ExponentForm.rational(1)))
    v_sol = add(mul(c2, sig.x(0), ta1(sig)),
                mul(c2, Gamma(a), pow_(Gamma(mul(3, a)), -1),
                    pow_(sig.t, AF.scale(3) - ExponentForm.rational(1))))
    res = verify_exact_solution(tele_pow, [u_sol, v_sol])
    assert res == [ZERO, ZERO]
    report(8, "exact solutions verify to symbolic zero (HS pair, ZK f(y) "
              "profile, telegraph particular solution at Lambda=1)", t0)
