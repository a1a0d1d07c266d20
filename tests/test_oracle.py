"""Numeric oracle: Gauss-Jacobi and Grunwald-Letnikov paths against the
closed-form power rule."""
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from fraclie import oracle
from fraclie import (ExponentForm, Gamma, Jet, Mul, Pow, PowerSum, Rat,
                     SingularInput, Sym, Var, ONE, add, evaluate, mul,
                     numeric_rl_oracle, pow_, rl_derivative)

F = Fraction
t = Var("t", -1)

# the power-rule grid of the certify benchmark workload
CERTIFY_G = (F(1, 2), F(1), F(2), F(5, 2), F(3))
CERTIFY_A = (F(1, 4), F(1, 2), F(3, 4))
CERTIFY_T = (0.5, 1.0, 2.0)


def mono(g) -> PowerSum:
    return PowerSum.build(t, [(ONE, ExponentForm.rational(F(g)))])


def closed_form(g: Fraction, a: Fraction, tv: float) -> float:
    return (math.gamma(float(g) + 1.0) / math.gamma(float(g) + 1.0 - float(a))
            * tv ** (float(g) - float(a)))


class TestGaussJacobiPath:
    def test_t_squared_half(self):
        got = numeric_rl_oracle(mono(2), F(1, 2), [1.0])
        assert abs(got.values[0] - 1.5045055561273502) < 1e-8

    def test_alpha_minus_one_is_zero(self):
        got = numeric_rl_oracle(mono(F(-1, 2)), F(1, 2), [0.5, 1.0, 2.0])
        assert all(abs(v) < 1e-6 for v in got.values)

    def test_constant(self):
        got = numeric_rl_oracle(mono(0), F(1, 2), [1.0])
        assert abs(got.values[0] - 1.0 / math.sqrt(math.pi)) < 1e-10

    def test_grid_agreement_1e_8(self):
        gs = [F(0), F(1, 2), F(1), F(2), F(5, 2), F(3)]
        als = [F(1, 4), F(1, 2), F(3, 4)]
        ts = [0.5, 1.0, 2.0]
        for g in gs:
            for a in als:
                for tv in ts:
                    got = numeric_rl_oracle(mono(g), a, [tv])
                    assert abs(got.values[0] - closed_form(g, a, tv)) < 1e-8
                    assert got.errors[0] < 1e-8

    def test_singular_input(self):
        with pytest.raises(SingularInput):
            numeric_rl_oracle(mono(F(-3, 2)), F(1, 2), [1.0])

    def test_symbolic_coefficient_with_env(self):
        ps = PowerSum.build(t, [(Rat(3), ExponentForm.rational(1))])
        got = numeric_rl_oracle(ps, F(1, 2), [1.0])
        want = 3.0 * closed_form(F(1), F(1, 2), 1.0)
        assert abs(got.values[0] - want) < 1e-9


class TestGrunwaldLetnikovPath:
    def test_grid_agreement_1e_4(self):
        gs = [F(0), F(1, 2), F(1), F(2), F(5, 2)]
        als = [F(1, 4), F(1, 2), F(3, 4)]
        ts = [0.5, 1.0, 2.0]
        for g in gs:
            for a in als:
                for tv in ts:
                    f = (lambda s, gg=float(g):
                         s ** gg if s > 0 else (1.0 if gg == 0 else 0.0))
                    got = numeric_rl_oracle(f, a, [tv])
                    want = (closed_form(g, a, tv) if g != 0
                            else tv ** (-float(a)) / math.gamma(1 - float(a)))
                    assert abs(got.values[0] - want) < 1e-4, (g, a, tv)

    def test_error_estimate_reported(self):
        got = numeric_rl_oracle(lambda s: s, F(1, 2), [1.0])
        assert got.errors[0] >= 0.0
        assert got.method == "grunwald-letnikov"


class TestEvaluate:
    def test_gamma_ratio(self):
        from fraclie import Gamma, Sym, div, add
        a = Sym("a")
        e = div(Gamma(add(a, 1)), Gamma(a))
        assert abs(evaluate(e, {"a": 0.5}) - 0.5) < 1e-12

    def test_power_with_exponent_form(self):
        e = pow_(t, ExponentForm.symbol("a") - ExponentForm.rational(1))
        assert abs(evaluate(e, {"t": 4.0, "a": 0.5}) - 4.0 ** (-0.5)) < 1e-14

    def test_values_equal_a_plain_recursive_walk(self):
        # the power rule's outputs on the certify grid, and a sum of
        # terms, evaluated by the dispatch table and by a walk that sums
        # each Add's terms in order: the same floats
        def walk(x, env):
            if isinstance(x, Rat):
                return float(x.value)
            if isinstance(x, (Sym, Var)):
                return env[x.name]
            if isinstance(x, Gamma):
                return math.gamma(walk(x.arg, env))
            if isinstance(x, Pow):
                return walk(x.base, env) ** sum(
                    float(c) * math.prod(env[n] ** k for n, k in mono)
                    for mono, c in x.exp.coeffs)
            if isinstance(x, Mul):
                out = 1.0
                for f in x.factors:
                    out *= walk(f, env)
                return out
            total = 0
            for term in x.terms:
                total += walk(term, env)
            return total

        exprs = [rl_derivative(mono(g), a, tvar=t).to_expr()
                 for g in CERTIFY_G for a in CERTIFY_A]
        exprs.append(add(mul(F(1, 3), Gamma(Rat(F(1, 3))), pow_(t, F(2, 3))),
                         Rat(F(-7, 5)), mul(Sym("a"), pow_(t, Sym("a")))))
        for e in exprs:
            for tv in CERTIFY_T:
                env = {"t": tv, "a": 0.375}
                assert evaluate(e, env) == walk(e, env)

    def test_a_jet_is_refused(self):
        with pytest.raises(TypeError):
            evaluate(Jet(0, (1,)), {})


def test_import_loads_neither_numpy_nor_scipy():
    code = ("import sys, fraclie; "
            "print([m for m in ('numpy', 'scipy') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


class TestGaussJacobiRule:
    """The stdlib Gauss-Jacobi rule for the weight (1-x)^(-a) on [-1, 1]."""

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("a", [0.25, 0.5, 5 / 17, 63 / 64])
    def test_nodes_match_scipy(self, n, a):
        # scipy is a test reference only; the package does not use it
        roots_jacobi = pytest.importorskip("scipy.special").roots_jacobi
        x, _ = oracle._gauss_jacobi(n, a)
        ref, _ = roots_jacobi(n, -a, 0.0)
        assert max(abs(xi - ri) for xi, ri in zip(x, ref)) <= 1e-15

    @pytest.mark.parametrize("n", [32, 64])
    def test_moments_are_exact(self, n):
        # the n-node rule integrates (1+x)^j exactly for j < 2n:
        # int (1-x)^(-a) (1+x)^j dx = 2^(j+1-a) B(1-a, j+1)
        for k in range(1, 64):
            a = k / 64
            x, w = oracle._gauss_jacobi(n, a)
            assert all(x0 < x1 for x0, x1 in zip(x, x[1:]))
            for j in range(2 * n):
                exact = math.exp((j + 1 - a) * math.log(2.0) + math.lgamma(1 - a)
                                 + math.lgamma(j + 1) - math.lgamma(j + 2 - a))
                got = math.fsum(wi * (1.0 + xi) ** j for xi, wi in zip(x, w))
                assert abs(got - exact) <= 1e-10 * exact, (n, k, j)


class TestRationalExponents:
    """sigma = rho^m with m the whole common denominator of the exponents,
    and sigma^g merged into an integer power of rho: no cap on m, and no
    negative power of an underflowed sigma next to g = -1."""

    @pytest.mark.parametrize("a", [F(1, 4), F(1, 2), F(7, 8)])
    @pytest.mark.parametrize("g", [F(-16, 17), F(-63, 64), F(-96, 97),
                                   F(1, 97), F(7, 3)])
    def test_relative_error_below_1e_12(self, g, a):
        for tv in (0.5, 1.0, 2.0):
            want = closed_form(g, a, tv)
            got = numeric_rl_oracle(mono(g), a, [tv]).values[0]
            assert abs(got - want) <= 1e-12 * abs(want), (g, a, tv)

    @pytest.mark.parametrize("a", [F(1, 4), F(1, 2), F(7, 8)])
    def test_next_to_minus_one(self, a):
        # m = 1000 here; the rule itself limits the accuracy to about 3e-9
        g = F(-999, 1000)
        for tv in (0.5, 1.0, 2.0):
            want = closed_form(g, a, tv)
            got = numeric_rl_oracle(mono(g), a, [tv]).values[0]
            assert abs(got - want) <= 1e-8 * abs(want), (a, tv)


class TestQuadratureRules:
    """The Newton nodes are computed once per (nodes, order) and each
    Gauss-Jacobi rule once per (nodes, order, m); both are kept, as tuples,
    in bounded caches."""

    @pytest.mark.parametrize("g, a, tv", [(F(2), F(1, 2), 1.0),
                                          (F(5, 2), F(1, 4), 0.5),
                                          (F(7, 4), F(3, 8), 2.75),
                                          (F(0), F(3, 4), 1.5)])
    def test_values_are_bit_identical_to_a_fresh_rule(self, g, a, tv, monkeypatch):
        cached = numeric_rl_oracle(mono(g), a, [tv])
        monkeypatch.setattr(oracle, "_jacobi_rule", oracle._jacobi_rule.__wrapped__)
        fresh = numeric_rl_oracle(mono(g), a, [tv])
        assert cached.values == fresh.values
        assert cached.errors == fresh.errors

    def test_cached_rules_are_immutable_tuples(self):
        rule = oracle._jacobi_rule(oracle._NODES, 0.5, 2)
        assert type(rule) is tuple and len(rule) == 2
        for part in rule:
            assert type(part) is tuple and len(part) == oracle._NODES
            assert all(type(v) is float for v in part)
            with pytest.raises(TypeError):
                part[0] = 0.0
        assert rule == oracle._jacobi_rule.__wrapped__(oracle._NODES, 0.5, 2)

    def test_a_grid_adds_at_most_one_miss_per_rule(self):
        # an order and an m no other test uses: two node counts, two rules
        before = oracle._jacobi_rule.cache_info().misses
        numeric_rl_oracle(mono(F(7, 3)), F(5, 17), [0.5, 1.0, 2.0])
        assert oracle._jacobi_rule.cache_info().misses - before <= 2
        again = oracle._jacobi_rule.cache_info().misses
        numeric_rl_oracle(mono(F(7, 3)), F(5, 17), [0.25, 3.0, 4.0])
        assert oracle._jacobi_rule.cache_info().misses == again

    @pytest.mark.parametrize("n", [oracle._NODES, oracle._NODES // 2])
    def test_recurrence_table_gives_the_same_floats(self, n):
        # the Jacobi recurrence with its z-free coefficients read from
        # _recurrence, against the step written out in full
        def jacobi(n, alf, z):
            p0, p1 = 1.0, (alf + (alf + 2.0) * z) / 2.0
            for j in range(2, n + 1):
                c = 2.0 * j + alf
                p0, p1 = p1, (((c - 1.0) * (alf * alf + c * (c - 2.0) * z) * p1
                               - 2.0 * (j - 1.0 + alf) * (j - 1.0) * c * p0)
                              / (2.0 * j * (j + alf) * (c - 2.0)))
            c = 2.0 * n + alf
            dp = ((n * (alf - c * z) * p1 + 2.0 * n * (n + alf) * p0)
                  / (c * (1.0 - z) * (1.0 + z)))
            return p1, dp

        for a in (0.125, 0.25, 0.375, 0.5, 0.75, 5 / 17, 0.875):
            steps = oracle._recurrence(n, -a)
            for k in range(-40, 41):
                z = k / 41 + 1e-3
                assert oracle._jacobi(n, -a, z, steps) == jacobi(n, -a, z)

    @pytest.mark.parametrize("nodes", [oracle._NODES, oracle._NODES // 2])
    def test_one_fsum_equals_the_node_by_node_sum(self, nodes):
        # on the certify grid and on a power sum of three terms
        sums = [[(1.0, g)] for g in CERTIFY_G]
        sums.append([(2.5, F(1, 2)), (-1.25, F(7, 3)), (0.75, F(0))])
        for terms in sums:
            for a in map(float, CERTIFY_A):
                for tv in CERTIFY_T:
                    m = math.lcm(*(g.denominator for _, g in terms))
                    weights, rhos = oracle._jacobi_rule(nodes, a, m)
                    scaled = [(c * (1.0 - a + float(g)) * tv ** float(g),
                               m // g.denominator * (g.numerator + g.denominator) - 1)
                              for c, g in terms]
                    bracket = math.fsum(wi * c * ri ** k
                                        for wi, ri in zip(weights, rhos)
                                        for c, k in scaled)
                    want = tv ** (-a) / math.gamma(1.0 - a) * bracket
                    assert oracle._gauss_jacobi_rl(terms, a, tv, nodes) == want

    def test_a_new_m_reuses_the_nodes(self):
        # an order no other test uses; the second exponent needs a new m
        numeric_rl_oracle(mono(F(1, 3)), F(5, 19), [1.0])
        nodes = oracle._gauss_jacobi.cache_info().misses
        rules = oracle._jacobi_rule.cache_info().misses
        numeric_rl_oracle(mono(F(1, 5)), F(5, 19), [1.0])
        assert oracle._gauss_jacobi.cache_info().misses == nodes
        assert oracle._jacobi_rule.cache_info().misses == rules + 2
