"""Numeric oracle: Gauss-Jacobi and Grunwald-Letnikov paths against the
closed-form power rule."""
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from fraclie import oracle
from fraclie import (ExponentForm, PowerSum, Rat, SingularInput, Var, ONE,
                     evaluate, numeric_rl_oracle, pow_)

F = Fraction
t = Var("t", -1)


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


def test_import_loads_neither_numpy_nor_scipy():
    code = ("import sys, fraclie; "
            "print([m for m in ('numpy', 'scipy') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _uncached_gauss_jacobi(g: Fraction, a: float, tv: float, nodes: int) -> float:
    """The Gauss-Jacobi value of t^g at one point, its rule computed afresh
    from roots_jacobi: the arithmetic of oracle._gauss_jacobi_rl, step by
    step."""
    import numpy as np
    from scipy.special import roots_jacobi

    m = min(g.denominator, 16)
    x, w = roots_jacobi(nodes, -a, 0.0)
    rho = (x + 1.0) / 2.0
    sigma = rho ** m
    omega = np.ones_like(rho)
    for j in range(1, m):
        omega += rho ** j
    jac = m * rho ** (m - 1) * omega ** (-a)
    s = tv * sigma
    f = np.zeros_like(s)
    f += 1.0 * s ** float(g)
    sfp = np.zeros_like(s)
    if g != 0:
        sfp += 1.0 * float(g) * s ** float(g) / tv
    i1 = 2.0 ** (a - 1.0) * np.dot(w, jac * f)
    i2 = 2.0 ** (a - 1.0) * np.dot(w, jac * sfp)
    return tv ** (-a) / math.gamma(1.0 - a) * ((1.0 - a) * i1 + tv * i2)


class TestQuadratureRules:
    """Each Gauss-Jacobi rule is computed once per (nodes, order, m) and
    kept, read-only, in a bounded cache."""

    @pytest.mark.parametrize("g, a, tv", [(F(2), F(1, 2), 1.0),
                                          (F(5, 2), F(1, 4), 0.5),
                                          (F(7, 4), F(3, 8), 2.75),
                                          (F(0), F(3, 4), 1.5)])
    def test_values_are_bit_identical_to_a_fresh_rule(self, g, a, tv):
        got = numeric_rl_oracle(mono(g), a, [tv])
        v1 = _uncached_gauss_jacobi(g, float(a), tv, oracle._NODES)
        v0 = _uncached_gauss_jacobi(g, float(a), tv, oracle._NODES // 2)
        assert got.values == (v1,)
        assert got.errors == (abs(v1 - v0),)

    def test_cached_arrays_are_read_only(self):
        for arr in oracle._jacobi_rule(oracle._NODES, 0.5, 2):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_a_grid_adds_at_most_one_miss_per_rule(self):
        # an order and an m no other test uses: two node counts, two rules
        before = oracle._jacobi_rule.cache_info().misses
        numeric_rl_oracle(mono(F(7, 3)), F(5, 17), [0.5, 1.0, 2.0])
        assert oracle._jacobi_rule.cache_info().misses - before <= 2
        again = oracle._jacobi_rule.cache_info().misses
        numeric_rl_oracle(mono(F(7, 3)), F(5, 17), [0.25, 3.0, 4.0])
        assert oracle._jacobi_rule.cache_info().misses == again
