"""Prolongation: integer extended infinitesimals, the fractional local part
and series coefficients, the nonlinearity tail, auxiliary conditions."""
import json
import pathlib
import random
from fractions import Fraction
from itertools import product

import pytest

from fraclie import (AnsatzGenerator, ExponentForm, Fn, Gamma, Jet, Rat,
                     ShapeViolation, Sym, Var, ZERO, ONE, add, expand, mul,
                     neg, parse_generator, parse_system, pow_, simplify,
                     substitute, total_derivative)
from fraclie import prolong
from fraclie.determining import invariance_condition
from fraclie.expr import atoms
from fraclie.lemmas import (check_aux_conditions, eta_alpha_ansatz, eta_theta,
                            eta_theta_of, mu_truncated, separated_by_one_sum)
from fraclie.solver import Generator, admitted_prolongation

from conftest import DEMOS, chi2_nonzero_case, chi2_zero_case
from test_determining import _by_key

ROOT = DEMOS.parent
REFERENCES = json.loads((ROOT / "perfbench" / "reference" / "references.json")
                        .read_text())

F = Fraction
a = Sym("a")


class TestEtaTheta:
    def test_zk_first_order_hand_expansion(self, zk):
        # eta^x = [g + gamma*tau' - xi_x] u_x + g_x u + h_x - psi_x u_y
        ans = AnsatzGenerator(zk.sig, zk.alpha)
        sig = zk.sig
        got = eta_theta(ans, 0, (1, 0))
        u, ux, uy = sig.u(0), sig.u(0, (1, 0)), sig.u(0, (0, 1))
        coeff_u = add(Fn("g", (sig.x(0), sig.x(1))),
                      mul(Sym("gamma"), add(Sym("chi1"),
                                            mul(2, Sym("chi2"), sig.t))))
        want = add(mul(coeff_u, ux),
                   mul(Fn("g", (sig.x(0), sig.x(1)), (1, 0)), u),
                   Fn("h", (sig.t, sig.x(0), sig.x(1)), (0, 1, 0)),
                   neg(mul(Fn("xi", (sig.x(0), sig.x(1)), (1, 0)), ux)),
                   neg(mul(Fn("psi", (sig.x(0), sig.x(1)), (1, 0)), uy)))
        assert simplify(expand(got - want)) == ZERO

    def test_zero_multi_index_returns_eta(self, zk):
        ans = AnsatzGenerator(zk.sig, zk.alpha)
        assert eta_theta(ans, 0, (0, 0)) == simplify(ans.eta(0))

    def test_telegraph_phi_x_matches_paper_form(self, tele):
        # phi^x = [g2 + gamma2 tau' - xi'] v_x + g2' v + f1' u + f1 u_x + h2_x
        ans = AnsatzGenerator(tele.sig, tele.alpha)
        sig = tele.sig
        got = eta_theta(ans, 1, (1,))
        xv = sig.x(0)
        taup = add(Sym("chi1"), mul(2, Sym("chi2"), sig.t))
        want = add(
            mul(add(Fn("g2", (xv,)), mul(Sym("gamma2"), taup),
                    neg(Fn("xi", (xv,), (1,)))), sig.u(1, (1,))),
            mul(Fn("g2", (xv,), (1,)), sig.u(1)),
            mul(Fn("f1", (xv,), (1,)), sig.u(0)),
            mul(Fn("f1", (xv,)), sig.u(0, (1,))),
            Fn("h2", (sig.t, xv), (0, 1)))
        assert simplify(expand(got - want)) == ZERO

    def test_linear_in_unknowns(self, zk):
        # scaling every unknown atom by 3 scales the output by 3
        ans = AnsatzGenerator(zk.sig, zk.alpha)
        e = eta_theta(ans, 0, (1, 2))
        unknowns = [f for f in atoms(e, Fn)] + [Sym("chi1"), Sym("chi2")]
        vals = {}
        rng = random.Random(3)
        for i, f in enumerate(unknowns):
            vals[f] = Rat(F(rng.randint(1, 9), rng.randint(1, 5)))
        scaled = {k: mul(3, v) for k, v in vals.items()}
        e1 = substitute(e, vals)
        e3 = substitute(e, scaled)
        assert simplify(expand(e3 - mul(3, e1))) == ZERO


def _recorded_generators(path: pathlib.Path) -> list[str]:
    """The emitted generators of a recorded `--emit json` output, as
    generator files."""
    if not path.is_file():
        return []
    basis = json.loads(path.read_text())["basis"]
    texts = []
    for g in basis["generators"] + basis["shifts"]:
        lines = [f"tau = {g['tau']};"]
        lines += [f"xi[{k}] = {v};" for k, v in g["xi"].items()]
        lines += [f"eta[{k}] = {v};" for k, v in g["eta"].items()]
        texts.append("\n".join(lines))
    return texts


def _certify_cases() -> list[tuple[str, list[str]]]:
    """Every demo, corpus and perfbench input system with the generators
    certified on it: its recorded basis, the generators the benchmark
    verifies or rejects, and the demo generator file."""
    cases: dict[str, list[str]] = {}
    for path in sorted(DEMOS.glob("*.fpde")):
        cases[str(path)] = _recorded_generators(
            ROOT / "perfbench" / "reference" / "demos" / f"{path.stem}.json")
    for path in sorted((ROOT / "tests" / "corpus").glob("*.fpde")):
        cases[str(path)] = _recorded_generators(path.with_suffix(".json"))
    for path in sorted((ROOT / "perfbench" / "inputs").glob("*.fpde")):
        cases[str(path)] = []
    bases = REFERENCES["bases"]
    for basis in bases.values():
        cases[str(ROOT / basis["system"])] += basis["point"] + basis["shifts"]
    for r in REFERENCES["certify"]["reject"]:
        cases[str(ROOT / bases[r["basis"]]["system"])].append(r["gen"])
    cases[str(DEMOS / "telegraph_power.fpde")].append(
        (DEMOS / "telegraph_power.gen").read_text())
    return sorted(cases.items())


def _multi_indices(p: int, order: int) -> list[tuple[int, ...]]:
    return [th for th in product(range(order + 1), repeat=p) if sum(th) <= order]


CERTIFY_CASES = _certify_cases()


@pytest.mark.parametrize("path,generators", CERTIFY_CASES,
                         ids=[f"{pathlib.Path(p).parent.name}/{pathlib.Path(p).stem}"
                              for p, _ in CERTIFY_CASES])
def test_leibniz_matches_total_derivative_route(path, generators):
    """The Leibniz prolongation equals the total derivative of the
    characteristic (lemmas.eta_theta_of) for the ansatz and for every
    certified generator, at every multi-index of order <= 3."""
    sys = parse_system(pathlib.Path(path).read_text())
    sig = sys.sig
    ans = AnsatzGenerator(sig, sys.alpha)
    cases = [(ans.prolongation, [ans.eta(s) for s in range(sig.q)])]
    for text in generators:
        gen = parse_generator(text, sig)[0]
        cases.append((admitted_prolongation(gen, sys.alpha), gen.eta))
    thetas = _multi_indices(sig.p, 3)
    for pro, eta in cases:
        for s in range(sig.q):
            for theta in thetas:
                want = eta_theta_of(sig, eta[s], pro.xi, s, theta)
                got = add(*[mul(c, jet) for jet, c in pro.eta_theta(s, theta)])
                assert expand(got).key() == expand(want).key(), (eta, s, theta)


@pytest.mark.parametrize("path,generators", CERTIFY_CASES,
                         ids=[f"{pathlib.Path(p).parent.name}/{pathlib.Path(p).stem}"
                              for p, _ in CERTIFY_CASES])
def test_builder_matches_the_one_sum_route(path, generators):
    """The invariance condition built already separated equals, by key,
    the route through one expanded sum with the total-derivative
    prolongation (lemmas.separated_by_one_sum), for the ansatz and for
    every certified or rejected generator."""
    sys = parse_system(pathlib.Path(path).read_text())
    pros = [AnsatzGenerator(sys.sig, sys.alpha).prolongation]
    pros += [admitted_prolongation(parse_generator(text, sys.sig)[0], sys.alpha)
             for text in generators]
    for pro in pros:
        assert _by_key(invariance_condition(sys, pro)) \
            == _by_key(separated_by_one_sum(sys, pro))


class TestLeibnizPremise:
    """The Leibniz sum holds only for jet-free xi and d eta/d u; a generator
    outside that shape never reaches it."""

    def _gen(self, sys, xi=None, eta=None):
        sig = sys.sig
        return Generator(sig, ZERO, tuple(xi or [ZERO] * sig.p),
                         tuple(eta or [ZERO] * sig.q))

    def test_nonlinear_eta_refused(self, zk):
        gen = self._gen(zk, eta=[pow_(zk.sig.u(0), 2)])
        with pytest.raises(ShapeViolation):
            invariance_condition(zk, admitted_prolongation(gen, zk.alpha))

    def test_jet_dependent_eta_coefficient_refused(self, zk):
        sig = zk.sig
        gen = self._gen(zk, eta=[mul(sig.u(0, (1, 0)), sig.u(0))])
        with pytest.raises(ShapeViolation):
            invariance_condition(zk, admitted_prolongation(gen, zk.alpha))

    def test_jet_dependent_xi_refused(self, zk):
        sig = zk.sig
        gen = self._gen(zk, xi=[sig.u(0), ZERO])
        with pytest.raises(ShapeViolation):
            invariance_condition(zk, admitted_prolongation(gen, zk.alpha))

    def test_cubic_tau_refused_at_construction(self, zk):
        sig = zk.sig
        gen = Generator(sig, pow_(sig.t, 3), (ZERO,) * sig.p, (ZERO,) * sig.q)
        with pytest.raises(ShapeViolation, match="chi2\\*t\\^2 \\+ chi1\\*t"):
            admitted_prolongation(gen, zk.alpha)

    def test_affine_eta_accepted(self, zk):
        sig = zk.sig
        gen = self._gen(zk, eta=[add(mul(sig.x(0), sig.u(0)), sig.x(1))])
        assert len(invariance_condition(zk, admitted_prolongation(gen, zk.alpha))) == 1


def test_no_derivative_of_a_zero_coefficient(zk, monkeypatch):
    """Once d^beta c is ZERO every higher derivative is ZERO and is not
    taken.  The ZK scaling generator has constant or linear coefficients:
    certifying it takes 9 total derivatives, 2 of the constant d eta/du
    and 4 + 3 of xi = (a/3*x, a/3*y), none of them of a ZERO."""
    seen = []

    def counting(e, v):
        seen.append(e)
        return total_derivative(e, v)

    monkeypatch.setattr(prolong, "total_derivative", counting)
    text = "tau = t; xi[x] = a/3*x; xi[y] = a/3*y; eta[u] = -2*a/(3*n)*u;"
    pro = admitted_prolongation(parse_generator(text, zk.sig)[0], zk.alpha)
    assert all(frac == ZERO and not frags
               for frac, frags in invariance_condition(zk, pro))
    assert ZERO not in seen
    assert len(seen) == 9


class TestEtaAlpha:
    def test_series_coefficients_vanish_under_ansatz(self, zk):
        ans = AnsatzGenerator(zk.sig, zk.alpha)
        ea = eta_alpha_ansatz(ans, zk, 0, k_max=4)
        for case in (chi2_zero_case, chi2_nonzero_case):
            subs = case(ans)
            for k, row in ea.series_u.items():
                assert all(expand(substitute(c, subs)) == ZERO for c in row), (case, k)
            for k, row in ea.series_ux.items():
                assert all(expand(substitute(c, subs)) == ZERO for c in row), (case, k)

    def test_local_part_structure(self, zk):
        ans = AnsatzGenerator(zk.sig, zk.alpha)
        ea = eta_alpha_ansatz(ans, zk, 0)
        jets = atoms(ea.local, Jet)
        assert all(j.frac is None for j in jets)
        fracs = [f for f in atoms(ea.local, Fn) if f.frac]
        assert [f.fname for f in fracs] == ["h"]

    def test_unified_series_k1_is_branch_algebra(self, zk):
        # C(a,1) dt(deta/du) - C(a,2) Dt^2 tau = 2 chi2 [a gamma - a(a-1)/2]
        ans = AnsatzGenerator(zk.sig, zk.alpha)
        ea = eta_alpha_ansatz(ans, zk, 0, k_max=1)
        got = ea.series_u[1][0]
        want = mul(2, Sym("chi2"), a,
                   add(Sym("gamma"), mul(Rat(F(-1, 2)), add(a, Rat(-1)))))
        assert simplify(expand(got - want)) == ZERO


class TestAuxConditions:
    def test_both_branches_pass(self, zk, hs):
        for sys in (zk, hs):
            ans = AnsatzGenerator(sys.sig, sys.alpha)
            for case in (chi2_zero_case, chi2_nonzero_case):
                ok, residuals = check_aux_conditions(ans, 6, subs=case(ans))
                assert ok, residuals

    def test_corrupted_tau_fails_at_k2(self, zk):
        ans = AnsatzGenerator(zk.sig, zk.alpha)
        t = zk.sig.t
        ok, residuals = check_aux_conditions(ans, 6, tau=pow_(t, 3),
                                             subs=chi2_nonzero_case(ans))
        assert not ok
        ks = sorted({k for k, _, _ in residuals})
        assert 2 in ks and 1 not in ks
        # the k=2 residual is alpha(alpha-1)(alpha+1)/2, nonzero on (0,1)
        res2 = next(r for k, _, r in residuals if k == 2)
        want = mul(Rat(F(1, 2)), a, add(a, Rat(-1)), add(a, ONE))
        assert simplify(expand(res2 - want)) == ZERO


class TestMuTruncated:
    def test_linear_eta_vanishes_for_random_coefficients(self):
        # Lemma direction 1 at truncation 6, 50 random linear eta
        rng = random.Random(20240802)
        t, xv = Var("t", -1), Var("x", 0)
        for trial in range(50):
            q = rng.choice([1, 2])
            terms = []
            for i in range(q):
                deg_t = rng.randint(0, 2)
                coeff = mul(Rat(F(rng.randint(1, 5), rng.randint(1, 3))),
                            pow_(t, deg_t) if deg_t else ONE,
                            Fn(f"A{i}", (xv,)) if rng.random() < 0.5 else ONE)
                terms.append(mul(coeff, Jet(i, (0,))))
            if rng.random() < 0.5:
                terms.append(mul(pow_(t, rng.randint(0, 2)), Fn("B", (xv,))))
            eta = add(*terms)
            assert mu_truncated(eta, 6, q, alpha=a) == ZERO, trial

    def test_u_squared_nonzero_with_known_leading_term(self):
        u = Jet(0, (0,))
        ut = Jet(0, (0,), t_order=1)
        got = mu_truncated(pow_(u, 2), 2, 1, alpha=a)
        # n=2 term: alpha(alpha-1) t^(2-alpha)/Gamma(3-alpha) (u_t)^2
        want = mul(a, add(a, Rat(-1)),
                   pow_(Var("t", -1), ExponentForm.rational(2) - ExponentForm.symbol("a")),
                   pow_(Gamma(add(Rat(3), neg(a))), -1), pow_(ut, 2))
        assert simplify(expand(got - want)) == ZERO

    def test_nonlinear_etas_nonzero(self):
        u1, u2 = Jet(0, (0,)), Jet(1, (0,))
        assert mu_truncated(pow_(u1, 2), 6, 1, alpha=a) != ZERO
        assert mu_truncated(mul(u1, u2), 6, 2, alpha=a) != ZERO
        assert mu_truncated(pow_(u1, 3), 6, 1, alpha=a) != ZERO

    def test_u_independent_eta_vanishes(self):
        t, xv = Var("t", -1), Var("x", 0)
        eta = add(mul(pow_(t, 2), Fn("B", (xv,))), xv)
        assert mu_truncated(eta, 4, 1, alpha=a) == ZERO

    def test_rejects_jet_derivatives(self):
        with pytest.raises(ValueError):
            mu_truncated(Jet(0, (1,)), 4, 1, alpha=a)

    def test_matches_scalar_formula_independent_encoding(self):
        # Cross-check the general-q implementation against the printed scalar
        # (q=1) tail, written out here with its own index bookkeeping:
        # sum_{n>=2} sum_{m=2}^{n} sum_{k=2}^{m} sum_{r=0}^{k-1}
        #   C(a,n) C(n,m) C(k,r)/k! t^(n-a) (-u)^r / Gamma(n+1-a)
        #   * Dt^m(u^(k-r)) * dt^(n-m)(d^k eta/du^k)
        import math
        from fraclie import (Gamma, Rat, diff_wrt, partial_derivative,
                             total_derivative)
        from fraclie.lemmas import gen_binomial

        t, xv = Var("t", -1), Var("x", 0)
        u = Jet(0, (0,))

        def scalar_mu(eta, N):
            pieces = []
            for nn in range(2, N + 1):
                for m in range(2, nn + 1):
                    for k in range(2, m + 1):
                        dk = eta
                        for _ in range(k):
                            dk = diff_wrt(dk, u)
                        for _ in range(nn - m):
                            dk = partial_derivative(dk, t)
                        if dk == ZERO:
                            continue
                        for r in range(k):
                            body = pow_(u, k - r)
                            for _ in range(m):
                                body = total_derivative(body, t)
                            if body == ZERO:
                                continue
                            coeff = mul(
                                gen_binomial(a, nn),
                                Rat(math.comb(nn, m) * math.comb(k, r)),
                                Rat(Fraction((-1) ** r, math.factorial(k))),
                                pow_(u, r) if r else 1,
                                pow_(t, ExponentForm.rational(nn)
                                     - ExponentForm.symbol("a")),
                                pow_(Gamma(add(Rat(nn + 1), neg(a))), -1))
                            pieces.append(mul(coeff, body, dk))
            return simplify(expand(add(*pieces))) if pieces else ZERO

        etas = [pow_(u, 2), pow_(u, 3),
                add(mul(pow_(t, 2), pow_(u, 2)), mul(Fn("B", (xv,)), u)),
                mul(Fn("C", (xv,)), pow_(u, 2))]
        for eta in etas:
            for N in (3, 4):
                mine = mu_truncated(eta, N, 1, alpha=a)
                ref = scalar_mu(eta, N)
                assert simplify(expand(mine - ref)) == ZERO, (eta, N)
