"""Closed-form Riemann-Liouville rules.

Identities in alpha are proven exactly by sampling at rational orders: after
substituting a rational alpha, every Gamma ratio collapses through the
recurrence to a rational multiple of a common Gamma value, so structural
equality decides the identity.  The coefficient of the single surviving
t-power is a rational function of alpha of low degree; agreement at more
sample points than the degree bound proves it identically.
"""
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fraclie import (Assumptions, ExponentForm, Fn, Gamma, Jet, PowerSum, Rat,
                     Sym, UndecidableExponent, Var, ZERO, ONE, add, div,
                     expand, gamma_simplify, mul, neg, pow_, rl_derivative,
                     simplify)
from fraclie.expr import from_eform
from fraclie.exponents import UNIT_FORM
from fraclie.lemmas import (NegativeIndex, gen_binomial, leibniz_expand,
                            rl_series_truncated, subs_params)

F = Fraction
t = Var("t", -1)
x = Var("x", 0)
a = Sym("a")
ASM = Assumptions("a")
AF = ExponentForm.symbol("a")

ALPHA_SAMPLES = [F(1, 7), F(1, 5), F(2, 7), F(1, 3), F(2, 5), F(3, 7), F(1, 2),
                 F(4, 7), F(3, 5), F(2, 3), F(5, 7), F(3, 4), F(7, 9), F(5, 6),
                 F(9, 11)]


def assert_identity(lhs, rhs, samples=ALPHA_SAMPLES):
    """Exact proof by rational sampling: enough points for the degree bound."""
    diff = simplify(expand(lhs - rhs))
    for av in samples:
        got = gamma_simplify(expand(subs_params(diff, {"a": av})))
        assert got == ZERO, f"nonzero at alpha={av}: {got!r}"


class TestGenBinomial:
    def test_small(self):
        assert gen_binomial(a, 0) == ONE
        assert gen_binomial(a, 1) == a
        assert gen_binomial(F(1, 2), 2) == Rat(F(-1, 8))

    def test_negative_index(self):
        with pytest.raises(NegativeIndex):
            gen_binomial(a, -1)

    def test_matches_classical_at_integer_order(self):
        for m in range(5):
            for k in range(8):
                got = gen_binomial(F(m), k)
                assert got == Rat(F(math.comb(m, k))), (m, k)

    def test_agrees_with_gamma_formula(self):
        # C(a,k) = (-1)^(k-1) a Gamma(k-a) / (Gamma(1-a) Gamma(k+1)) where defined
        for k in range(1, 6):
            formula = mul(Rat(F((-1) ** (k - 1))), a,
                          Gamma(add(Rat(k), neg(a))),
                          pow_(Gamma(add(ONE, neg(a))), -1),
                          Rat(F(1, math.factorial(k))))
            assert_identity(gen_binomial(a, k), formula)


class TestPowerRule:
    def test_t_squared_half(self):
        got = rl_derivative(pow_(t, 2), F(1, 2), tvar=t).to_expr()
        want = gamma_simplify(mul(div(Gamma(Rat(3)), Gamma(Rat(F(5, 2)))),
                                  pow_(t, F(3, 2))))
        assert got == want

    def test_alpha_minus_one_maps_to_zero(self):
        ta1 = pow_(t, AF - ExponentForm.rational(1))
        assert rl_derivative(ta1, a, tvar=t, assumptions=ASM).to_expr() == ZERO

    def test_t_independent_function(self):
        f = Fn("f", (x,))
        got = rl_derivative(f, a, tvar=t, assumptions=ASM).to_expr()
        want = mul(f, pow_(t, -AF), pow_(Gamma(add(ONE, neg(a))), -1))
        assert got == simplify(want)

    def test_linearity_structural(self):
        c1, c2 = Sym("A"), Sym("B")
        f = add(mul(c1, pow_(t, 2)), mul(c2, pow_(t, F(1, 2))))
        both = rl_derivative(f, F(1, 4), tvar=t).to_expr()
        sep = add(mul(c1, rl_derivative(pow_(t, 2), F(1, 4), tvar=t).to_expr()),
                  mul(c2, rl_derivative(pow_(t, F(1, 2)), F(1, 4), tvar=t).to_expr()))
        assert simplify(expand(both - sep)) == ZERO

    def test_undecidable_exponent(self):
        g = Sym("gexp")
        with pytest.raises(UndecidableExponent):
            rl_derivative(pow_(t, ExponentForm.symbol("gexp")), a, tvar=t,
                          assumptions=ASM)

    def test_declared_assumption_unblocks(self):
        asm = Assumptions("a", positive=["gexp"])
        out = rl_derivative(pow_(t, ExponentForm.symbol("gexp")), a, tvar=t,
                            assumptions=asm)
        assert len(out.terms) == 1

    def test_powersum_invariant_distinct_exponents(self):
        ps = PowerSum.from_expr(add(pow_(t, 2), mul(3, pow_(t, 2)), t), t)
        assert len(ps.terms) == 2


class TestLeibniz:
    def test_terminating_product_t2_t3(self):
        lhs = leibniz_expand(pow_(t, 2), pow_(t, 3), F(1, 2), 2, tvar=t)
        rhs = rl_derivative(pow_(t, 5), F(1, 2), tvar=t).to_expr()
        assert simplify(expand(lhs - rhs)) == ZERO

    def test_unit_left_factor(self):
        for K in (0, 1, 3):
            lhs = leibniz_expand(ONE, pow_(t, F(5, 2)), a, K, tvar=t,
                                 assumptions=ASM)
            rhs = rl_derivative(pow_(t, F(5, 2)), a, tvar=t,
                                assumptions=ASM).to_expr()
            assert simplify(expand(lhs - rhs)) == ZERO

    def test_t_times_one_identity(self):
        # C(a,0) t t^-a/Gamma(1-a) + C(a,1) t^(1-a)/Gamma(2-a) == Gamma(2)/Gamma(2-a) t^(1-a)
        lhs = leibniz_expand(t, ONE, a, 1, tvar=t, assumptions=ASM)
        rhs = rl_derivative(t, a, tvar=t, assumptions=ASM).to_expr()
        assert_identity(lhs, rhs)

    def test_termination_identities_all_pairs(self):
        # monomial pairs t^A t^B, A <= 4, B in {0,1,2,3, alpha+1}
        bs = [Rat(0), Rat(1), Rat(2), Rat(3), add(a, 1)]
        for A in range(5):
            for B in bs:
                u_part = pow_(t, A) if A else ONE
                bf = ExponentForm.rational(0)
                from fraclie.expr import to_eform
                bf = to_eform(B)
                v_part = pow_(t, bf) if not bf.is_zero() else ONE
                lhs = leibniz_expand(u_part, v_part, a, A, tvar=t, assumptions=ASM)
                rhs = rl_derivative(pow_(t, ExponentForm.rational(A) + bf), a,
                                    tvar=t, assumptions=ASM).to_expr()
                assert_identity(lhs, rhs)

    def test_negative_truncation(self):
        with pytest.raises(NegativeIndex):
            leibniz_expand(t, ONE, a, -1, tvar=t, assumptions=ASM)


class TestSeriesForm:
    def test_constant(self):
        got = rl_series_truncated(ONE, a, 0, tvar=t, assumptions=ASM)
        want = mul(pow_(t, -AF), pow_(Gamma(add(ONE, neg(a))), -1))
        assert got == simplify(want)

    def test_linear_matches_power_rule(self):
        got = rl_series_truncated(t, a, 3, tvar=t, assumptions=ASM)
        want = rl_derivative(t, a, tvar=t, assumptions=ASM).to_expr()
        assert_identity(got, want)

    def test_jet_template(self):
        u = Jet(0, (0,))
        got = rl_series_truncated(u, a, 1, tvar=t, assumptions=ASM)
        ut = Jet(0, (0,), t_order=1)
        want = add(
            mul(u, pow_(t, -AF), pow_(Gamma(add(ONE, neg(a))), -1)),
            mul(a, ut, pow_(t, ExponentForm.rational(1) - AF),
                pow_(Gamma(add(Rat(2), neg(a))), -1)))
        assert_identity(got, want)


def _generic_power_rule(c, g: ExponentForm, order: ExponentForm, asm):
    """The power rule of one term by the generic route: the Gamma ratio built
    as it stands and normalized by gamma_simplify with the coefficient; an
    empty list at a pole of the denominator."""
    zeta = g + UNIT_FORM - order
    if asm.nonpositive_integer(zeta) is True:
        return []
    ratio = mul(Gamma(from_eform(g + UNIT_FORM)), pow_(Gamma(from_eform(zeta)), -1))
    return [(gamma_simplify(mul(c, ratio), asm), g - order)]


# coefficients without and with Gamma factors, normalized or not
_COEFFS = [ONE, mul(3, x), add(x, Sym("k")), Gamma(Rat(F(7, 2))),
           div(Gamma(a), Gamma(mul(2, a))), mul(x, Gamma(add(a, 2))),
           div(Gamma(Rat(F(1, 3))), Gamma(Rat(F(8, 3)))), pow_(Gamma(Rat(F(5, 4))), 2)]


# exponents of both routes of the power rule, all inside its domain
_ONE_TERM_EXPONENTS = st.one_of(
    st.fractions(F(-1, 2), 6, max_denominator=6).map(ExponentForm.rational),
    st.sampled_from([AF, AF - ExponentForm.rational(1), AF.scale(2),
                     AF + ExponentForm.rational(F(1, 2))]))


class TestOneTermShortcuts:
    """PowerSum.build, PowerSum.to_expr and rl_derivative hand back a lone
    term with no merging or ordering; the general path must build the same
    thing.  A zero coefficient at another exponent beside the term forces
    the general path of build and to_expr."""

    @settings(deadline=None)
    @given(c=st.sampled_from(_COEFFS), g=_ONE_TERM_EXPONENTS,
           order=st.sampled_from([None, Rat(F(1, 2)), Rat(2)]))
    @example(c=ONE, g=ExponentForm.rational(0), order=Rat(2))     # a pole
    def test_one_term_paths_agree_with_the_general_path(self, c, g, order):
        pad = (ZERO, ExponentForm.rational(7))
        ps = PowerSum.build(t, [(c, g)])
        padded = PowerSum(t, ps.terms + (pad,))
        assert ps == PowerSum.build(t, [(c, g), pad]) == PowerSum(t, ((c, g),))
        assert ps.to_expr().key() == padded.to_expr().key()
        # rl_derivative's lone output term skips build, the general path
        got = rl_derivative(ps, a, order=order, tvar=t, assumptions=ASM)
        assert got == PowerSum.build(t, got.terms)
        assert got.to_expr().key() == PowerSum(t, got.terms + (pad,)).to_expr().key()

    def test_a_zero_term_alone_is_no_term(self):
        assert PowerSum.build(t, [(ZERO, AF)]).terms == ()
        assert PowerSum.build(t, [(ZERO, AF)]) == PowerSum.build(t, [])


class TestRationalPowerRule:
    """At rational exponent and order the power rule builds the Gamma ratio
    directly; it must agree with the generic route through gamma_simplify."""

    @given(g=st.fractions(0, 40, max_denominator=12),
           order=st.fractions(0, 2, max_denominator=12).filter(lambda o: o > 0),
           c=st.sampled_from(_COEFFS))
    @example(g=F(0), order=F(1), c=ONE)             # pole: the term drops
    @example(g=F(1), order=F(2), c=Gamma(Rat(F(7, 2))))
    @example(g=F(0), order=F(2), c=mul(3, x))
    @example(g=F(5, 2), order=F(1, 2), c=div(Gamma(a), Gamma(mul(2, a))))
    def test_matches_generic_route(self, g, order, c):
        gf, of = ExponentForm.rational(g), ExponentForm.rational(order)
        ps = PowerSum.build(t, [(c, gf)])
        got = rl_derivative(ps, a, order=Rat(order), tvar=t, assumptions=ASM)
        want = PowerSum.build(t, _generic_power_rule(c, gf, of, ASM))
        assert got.to_expr().key() == want.to_expr().key()

    @settings(deadline=None)
    @given(terms=st.lists(st.tuples(st.fractions(F(-11, 12), 30, max_denominator=12),
                                    st.sampled_from(_COEFFS)), min_size=1, max_size=4),
           order=st.fractions(0, 3, max_denominator=12).filter(lambda o: o > 0),
           given_as=st.sampled_from(["Rat", "Fraction", "int"]))
    @example(terms=[(F(0), ONE), (F(1), mul(3, x)), (F(1, 2), ONE)], order=F(2),
             given_as="int")                        # two poles and a term
    @example(terms=[(F(-1, 2), ONE), (F(3, 2), Gamma(Rat(F(7, 2))))], order=F(1, 2),
             given_as="Fraction")                   # a pole at g = order - 1
    def test_power_sums_match_generic_route(self, terms, order, given_as):
        if given_as == "int":
            order = F(math.ceil(order))
        arg = {"Rat": Rat(order), "Fraction": order, "int": int(order)}[given_as]
        ps = PowerSum.build(t, [(c, ExponentForm.rational(g)) for g, c in terms])
        got = rl_derivative(ps, a, order=arg, tvar=t, assumptions=ASM)
        of = ExponentForm.rational(order)
        want = PowerSum.build(t, [r for c, g in ps.terms
                                  for r in _generic_power_rule(c, g, of, ASM)])
        assert got.to_expr().key() == want.to_expr().key()
        # the order given as alpha itself takes the same route
        alone = rl_derivative(ps, arg, tvar=t, assumptions=ASM)
        assert alone.to_expr().key() == want.to_expr().key()

    @settings(deadline=None)
    @given(m=st.integers(0, 2),
           excess=st.fractions(0, 2, max_denominator=12).filter(lambda e: e > 0))
    def test_pole_drops_the_term(self, m, excess):
        # g + 1 - order = -m with g = order - 1 - m > -1
        order = m + excess
        g = ExponentForm.rational(order - 1 - m)
        ps = PowerSum.build(t, [(mul(3, x), g), (ONE, ExponentForm.rational(m + 3))])
        got = rl_derivative(ps, a, order=order, tvar=t, assumptions=ASM)
        assert [e for _, e in got.terms] == [ExponentForm.rational(m + 3 - order)]
        assert _generic_power_rule(mul(3, x), g, ExponentForm.rational(order), ASM) == []

    @settings(deadline=None)
    @given(g=st.fractions(-6, -1, max_denominator=12),
           order=st.fractions(0, 2, max_denominator=12).filter(lambda o: o > 0))
    @example(g=F(-1), order=F(1, 2))
    def test_outside_the_domain_raises_as_the_generic_route(self, g, order):
        ps = PowerSum.build(t, [(ONE, ExponentForm.rational(g))])
        with pytest.raises(UndecidableExponent) as rational:
            rl_derivative(ps, a, order=order, tvar=t, assumptions=ASM)
        with pytest.raises(UndecidableExponent) as generic:
            rl_derivative(ps, a, tvar=t, assumptions=ASM)     # symbolic order
        assert str(rational.value) == str(generic.value)
        assert str(rational.value).endswith("<= -1 is outside the power-rule domain")

    def test_symbolic_exponent_takes_the_generic_route(self):
        # t^(a-1) at order a is a pole of the denominator: the term vanishes,
        # and a rational term beside it is unaffected
        ta1 = AF - ExponentForm.rational(1)
        assert rl_derivative(pow_(t, ta1), a, tvar=t, assumptions=ASM).terms == ()
        ps = PowerSum.build(t, [(ONE, ta1), (ONE, ExponentForm.rational(2))])
        got = rl_derivative(ps, a, tvar=t, assumptions=ASM)
        want = _generic_power_rule(ONE, ExponentForm.rational(2), AF, ASM)
        assert got.terms == tuple(want)
