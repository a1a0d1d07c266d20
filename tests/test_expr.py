"""Expression kernel: canonical form, substitution, differentiation,
monomial collection, Gamma normalization."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from fraclie import (Assumptions, CyclicBinding, ExponentForm, Fn, Gamma, Jet,
                     NonPolynomial, Rat, Sym, Var, ZERO, ONE, add, div, expand,
                     gamma_simplify, mul, neg, partial_derivative, pow_,
                     render, simplify, substitute, total_derivative)
from fraclie.exponents import UNIT_FORM
from fraclie.expr import (Add, Expr, FractionalChain, Mul, Pow,
                          UnsupportedDerivative, _nadd, _nmul, _npow, any_node,
                          from_eform, map_children, mul_factors)
from fraclie.lemmas import collect_monomials

F = Fraction
t = Var("t", -1)
x = Var("x", 0)
y = Var("y", 1)
z = Var("z", 2)
u = Jet(0, (0, 0))
ux = Jet(0, (1, 0))
uy = Jet(0, (0, 1))
uxx = Jet(0, (2, 0))
uxt = Jet(0, (1, 0), t_order=1)
ut = Jet(0, (0, 0), t_order=1)
a = Sym("a")
n = Sym("n")
A_FORM = ExponentForm.symbol("a")
N_FORM = ExponentForm.symbol("n")


class TestSimplify:
    def test_like_term_merge(self):
        assert add(mul(2, u), mul(3, u)) == mul(5, u)

    def test_exponent_algebra(self):
        assert mul(u, pow_(u, N_FORM - ExponentForm.rational(1))) == pow_(u, N_FORM)

    def test_cancellation(self):
        ta1 = pow_(t, A_FORM - ExponentForm.rational(1))
        assert add(ta1, neg(ta1)) == ZERO

    def test_power_zero_collapses(self):
        assert pow_(u, 0) == ONE
        assert pow_(t, ExponentForm.rational(0)) == ONE

    def test_zero_base(self):
        # 0^p is 0 for a positive rational p; a negative or symbolic power
        # of zero is a division by zero
        assert pow_(ZERO, 2) == ZERO
        assert pow_(ZERO, F(1, 2)) == ZERO
        for p in (-1, F(-1, 2), A_FORM - ExponentForm.rational(1), A_FORM):
            with pytest.raises(ZeroDivisionError):
                pow_(ZERO, p)

    def test_power_of_even_root_folds(self):
        # x^(1/2) is real only for x >= 0, where (x^(1/2))^(1/3) = x^(1/6)
        r = pow_(pow_(x, F(1, 2)), F(1, 3))
        assert r == pow_(x, F(1, 6))
        assert add(r, neg(pow_(x, F(1, 6)))) == ZERO
        assert pow_(pow_(x, F(-3, 4)), A_FORM) == pow_(x, A_FORM.scale(F(-3, 4)))

    def test_root_of_even_power_stays(self):
        # (x^2)^(1/2) is |x|, not x
        r = pow_(pow_(x, 2), F(1, 2))
        assert r == Pow(pow_(x, 2), ExponentForm.rational(F(1, 2)))
        assert add(r, neg(x)) != ZERO

    def test_negation_does_not_change_term_order(self):
        e = add(Fn("g", (x,)), neg(mul(3, Fn("xi", (x,), (1,)))))
        assert simplify(neg(neg(e))) == e

    def test_idempotent_on_random_expressions(self):
        rng = random.Random(20240811)
        atoms = [u, ux, uy, t, x, y, a, n, Rat(F(2, 3)), Rat(-2),
                 Fn("g", (x, y)), pow_(u, N_FORM), pow_(t, A_FORM)]

        def build(depth):
            if depth == 0:
                return rng.choice(atoms)
            op = rng.randrange(4)
            if op == 0:
                return add(*[build(depth - 1) for _ in range(rng.randint(2, 3))])
            if op == 1:
                return mul(*[build(depth - 1) for _ in range(rng.randint(2, 3))])
            if op == 2:
                return neg(build(depth - 1))
            return pow_(rng.choice(atoms), rng.randint(1, 3))

        for _ in range(1000):
            e = build(rng.randint(1, 4))
            s = simplify(e)
            assert simplify(s) == s


class TestSubstitute:
    def test_symbol_into_jet_product(self):
        assert substitute(mul(u, ux), {u: pow_(t, 2)}) == mul(pow_(t, 2), ux)

    def test_fractional_jet_elimination(self):
        frac = Jet(0, (0, 0), frac=0)
        f_plus_h = add(mul(2, ux), mul(t, x))
        assert substitute(frac, {frac: f_plus_h}) == f_plus_h

    def test_exponent_instantiation(self):
        assert substitute(pow_(u, N_FORM), {n: 3}) == pow_(u, 3)

    def test_cyclic_binding_rejected(self):
        with pytest.raises(CyclicBinding):
            substitute(u, {u: add(u, 1)})
        with pytest.raises(CyclicBinding):
            substitute(mul(u, ux), {u: ux, ux: u})

    def test_simultaneous_not_sequential(self):
        out = substitute(add(u, ux), {u: x, ux: y})
        assert out == add(x, y)

    def test_key_inside_gamma_argument(self):
        assert substitute(Gamma(add(x, 1)), {x: a}) == Gamma(add(a, 1))

    def test_key_inside_function_argument(self):
        assert substitute(Fn("f", (x, t)), {x: y}) == Fn("f", (y, t))

    def test_exponent_and_base_of_one_power(self):
        got = substitute(pow_(Gamma(x), A_FORM), {a: 2, x: y})
        assert got == pow_(Gamma(y), 2)


# Raw (not yet canonical) trees over all node types, for the traversal laws.
_EXPONENTS = [ExponentForm.rational(k) for k in (-1, 2, F(1, 2))] + [
    A_FORM, A_FORM - ExponentForm.rational(1)]
_LEAVES = st.one_of(
    st.sampled_from([F(0), F(1), F(-2), F(1, 3)]).map(Rat),
    st.sampled_from([a, n, t, x, u, ux, Jet(0, (0, 0), frac=1)]),
)


def _compound(kids):
    return st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(lambda cs: Mul(tuple(cs))),
        st.lists(kids, min_size=1, max_size=3).map(lambda cs: Add(tuple(cs))),
        st.tuples(kids, st.sampled_from(_EXPONENTS)).map(lambda p: Pow(*p)),
        kids.map(Gamma),
        st.lists(kids, min_size=1, max_size=2).map(lambda cs: Fn("f", tuple(cs))),
    )


_TREES = st.recursive(_LEAVES, _compound, max_leaves=10)

_PREDICATES = [
    lambda e: isinstance(e, Jet),
    lambda e: e == t,
    lambda e: isinstance(e, Gamma),
    lambda e: isinstance(e, Rat) and e.value < 0,
    lambda e: isinstance(e, Fn) and any(isinstance(c, Jet) for c in e.args),
]


def _all_nodes(e):
    """Every node of e in pre-order, found through the data fields its class
    declares (its slots, less the underscored cache slots)."""
    out = [e]
    for name in type(e).__slots__:
        if name.startswith("_"):
            continue
        value = getattr(e, name)
        for c in (value if isinstance(value, tuple) else (value,)):
            if isinstance(c, Expr):
                out += _all_nodes(c)
    return out


def _simplify_or_reject(e):
    try:
        return simplify(e)
    except ZeroDivisionError:
        reject()        # zero to a negative or symbolic power has no value


class TestTraversal:
    @settings(max_examples=200, deadline=None)
    @given(_TREES)
    def test_map_children_identity_on_canonical(self, e):
        s = _simplify_or_reject(e)
        assert map_children(s, lambda c: c) == s

    @settings(max_examples=200, deadline=None)
    @given(_TREES)
    def test_simplify_idempotent(self, e):
        s = _simplify_or_reject(e)
        assert simplify(s) == s

    @settings(max_examples=200, deadline=None)
    @given(_TREES, st.sampled_from(_PREDICATES))
    def test_any_node_matches_node_list(self, e, pred):
        assert any_node(e, pred) == any(pred(c) for c in _all_nodes(e))

    @settings(max_examples=100, deadline=None)
    @given(_TREES)
    def test_any_node_visits_in_preorder(self, e):
        seen = []

        def visit(c):
            seen.append(c)
            return False

        any_node(e, visit)
        assert seen == _all_nodes(e)


# Trees built only through the kernel's constructors over canonical leaves.
_KERNEL_LEAVES = st.one_of(
    st.sampled_from([F(0), F(1), F(-2), F(1, 3)]).map(Rat),
    st.sampled_from([a, n, t, x, y, u, ux, Jet(0, (0, 0), frac=1),
                     Fn("g", (x,))]),
)


def _power_or_base(p):
    base, exp = p
    r = exp.as_rational()
    if base == ZERO and (r is None or r < 0):
        return base         # zero to a negative or symbolic power has no value
    return pow_(base, exp)


def _kernel_compound(kids):
    return st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(lambda cs: add(*cs)),
        st.lists(kids, min_size=1, max_size=3).map(lambda cs: mul(*cs)),
        kids.map(neg),
        # zero to a power without a value, and a zero divisor, leave the
        # base and the dividend: a filter would make hypothesis record the
        # repr of this whole recursive strategy on each retry
        st.tuples(kids, st.sampled_from(_EXPONENTS)).map(_power_or_base),
        st.tuples(kids, kids).map(lambda p: div(*p) if p[1] != ZERO else p[0]),
        kids.map(Gamma),
        st.lists(kids, min_size=1, max_size=2).map(lambda cs: Fn("f", tuple(cs))),
        # merges that hand back a sum as a term, 2*s - s, or a product as a
        # factor, (p^(1/2))^2 for a product p
        st.tuples(kids, kids, kids).map(
            lambda p: add(mul(2, add(p[0], p[1])), neg(add(p[0], p[1])), p[2])),
        st.tuples(kids, kids, kids).map(
            lambda p: mul(*[pow_(mul(p[0], p[1]), F(1, 2))] * 2, p[2])),
    )


_KERNEL_TREES = st.recursive(_KERNEL_LEAVES, _kernel_compound, max_leaves=8)

_KERNEL_OPS = [
    lambda e: e,
    expand,
    lambda e: substitute(e, {x: add(y, 1), a: Rat(F(1, 2)), u: mul(t, ux)}),
    lambda e: partial_derivative(e, x),
    lambda e: gamma_simplify(e, Assumptions("a")),
]


class TestCanonicalByConstruction:
    @settings(max_examples=300, deadline=None)
    @given(_KERNEL_TREES, st.sampled_from(_KERNEL_OPS))
    def test_kernel_output_is_fixed_point_of_simplify(self, e, op):
        try:
            out = op(e)
        except UnsupportedDerivative:
            reject()        # d/dx of a Gamma of an x-dependent argument
        except ZeroDivisionError:
            reject()        # a base the substitution made zero, to a negative power
        assert simplify(out) == out

    def test_sum_regaining_coefficient_one_is_spliced(self):
        s = add(x, y)
        got = add(mul(2, s), mul(-1, s), z)
        assert got == add(x, y, z)
        assert simplify(got) == got

    def test_merged_power_of_product_is_flattened(self):
        h = pow_(mul(x, y), F(1, 2))
        got = mul(h, h, z)
        assert got == mul(x, y, z)
        assert simplify(got) == got

    def test_merged_power_of_power_merges_with_its_base(self):
        r = pow_(pow_(x, F(1, 2)), F(1, 3))
        got = mul(r, r, r, r, r, r, x)
        assert got == pow_(x, 2)
        assert simplify(got) == got


def _fresh(e):
    """A structurally equal copy of e, node by node, with empty caches."""
    values = []
    for name in type(e).__slots__:
        if name.startswith("_"):
            continue
        value = getattr(e, name)
        if isinstance(value, Expr):
            value = _fresh(value)
        elif isinstance(value, tuple):
            value = tuple(_fresh(c) if isinstance(c, Expr) else c for c in value)
        values.append(value)
    return type(e)(*values)


def _simplified(e):
    """simplify(e), or ZERO when e holds zero to a negative or symbolic
    power, which has no value: a map that cannot fail, where a filter
    would make hypothesis record the repr of the recursive strategy."""
    try:
        return simplify(e)
    except ZeroDivisionError:
        return ZERO


def _half_powers_meeting(p):
    """p0 * s^(1/2) * (s^(1/2) + p2) for the sum s = p1 + 1: expanding it
    merges two half powers of one sum."""
    h = pow_(add(p[1], 1), F(1, 2))
    return mul(p[0], h, add(h, p[2]))


# Canonical trees by two routes, the kernel constructors and simplify of
# trees built by hand, and products whose expansion merges powers of a sum.
_CANONICAL_TREES = st.one_of(
    _KERNEL_TREES, _TREES.map(_simplified),
    st.tuples(_KERNEL_TREES, _KERNEL_TREES, _KERNEL_TREES).map(_half_powers_meeting))


_RATIONALS = st.one_of(st.integers(-60, 60),
                       st.fractions(-60, 60, max_denominator=12),
                       st.sampled_from([10 ** 40, F(-7, 10 ** 20)]))


def _assert_stored_form(node):
    v = node.stored
    assert type(v) in (int, Fraction), v
    assert (type(v) is int) == (node.value.denominator == 1)
    assert type(node.value) is Fraction and node.value == v


class TestNodeIdentity:
    """Keys and hashes are cached per node and expand is memoized per node;
    none of it may be seen from outside."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_TREES, _CANONICAL_TREES), st.one_of(_TREES, _CANONICAL_TREES))
    def test_equality_is_key_equality(self, e, f):
        for a_, b_ in ((e, f), (e, _fresh(e)), (_fresh(f), f), (e, _simplified(f))):
            assert (a_ == b_) == (a_.key() == b_.key())
            assert (a_ != b_) == (a_.key() != b_.key())
            if a_ == b_:
                assert hash(a_) == hash(b_)

    @settings(max_examples=300, deadline=None)
    @given(_CANONICAL_TREES)
    def test_expand_is_memoized_and_idempotent(self, e):
        out = expand(e)
        assert expand(e) is out
        assert expand(out) is out
        # the memo equals a computation from scratch, and the expansion of
        # the result, computed from scratch, is the result itself
        assert expand(_fresh(e)) == out
        assert expand(_fresh(out)) == out
        assert simplify(out) == out

    def test_merged_powers_of_a_sum_are_expanded(self):
        # (1 + x)^(1/2) twice is 1 + x: a product of expanded terms that
        # leaves a sum as a factor is expanded again
        h = pow_(add(x, 1), F(1, 2))
        got = expand(mul(x, h, add(h, y)))
        assert got == add(x, pow_(x, 2), mul(x, y, h))
        assert expand(_fresh(got)) == got
        assert expand(pow_(mul(x, h), 4)) == add(pow_(x, 4), mul(2, pow_(x, 5)),
                                                   pow_(x, 6))

    @settings(max_examples=300, deadline=None)
    @given(_CANONICAL_TREES)
    def test_a_lone_canonical_term_is_its_own_sum(self, e):
        """_nadd hands back a lone canonical term that is not a sum, the
        very node, and ZERO for no terms; the general path agrees."""
        term = e.terms[0] if isinstance(e, Add) else e
        assert _nadd([term]) is term
        assert _nadd([term, ZERO]) == term
        assert _nadd([]) is ZERO
        assert _nadd([e]) == e

    @settings(max_examples=300, deadline=None)
    @given(_CANONICAL_TREES, _CANONICAL_TREES)
    def test_two_factor_shortcuts_agree_with_the_general_path(self, e, f):
        """_nmul's shortcuts for two factors (a rational times a term, two
        factors of distinct bases, one factor into a product) build what
        the general path builds, which a third factor ONE forces."""
        for a_, b_ in ((e, f), (f, e), (e, Rat(F(-3, 2))), (Rat(F(-3, 2)), f)):
            got = _nmul([a_, b_])
            assert got.key() == _nmul([a_, b_, ONE]).key()
            assert simplify(got) == got

    def test_key_and_hash_are_cached(self):
        e = mul(x, add(y, 1))
        assert e.key() is e.key()
        assert e.key() == _fresh(e).key()
        assert hash(e) == hash(_fresh(e))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_RATIONALS, min_size=1, max_size=4), st.integers(-3, 3),
           _CANONICAL_TREES)
    def test_rationals_keep_the_storage_rule(self, qs, k, e):
        """Kernel arithmetic on rationals, alone and with a canonical tree,
        stores no float, an int exactly for an integral value, and gives
        the Fraction arithmetic's values."""
        rats = [Rat(q) for q in qs]
        first, last = F(qs[0]), F(qs[-1])
        exact = [(_nmul(rats), math.prod(F(q) for q in qs)),
                 (_nadd(rats), sum(F(q) for q in qs)),
                 (neg(rats[0]), -first)]
        if first != 0 or k >= 0:
            exact.append((_npow(rats[0], ExponentForm.rational(k)), first ** k))
        if last != 0:
            exact.append((div(rats[0], rats[-1]), first / last))
        for got, want in exact:
            assert isinstance(got, Rat) and got.value == want
        mixed = [_nmul(rats + [e]), _nadd(rats + [e]), neg(e), expand(_nmul([e] + rats))]
        if last != 0:
            mixed.append(div(e, rats[-1]))
        for out in [got for got, _ in exact] + mixed:
            for node in _all_nodes(out):
                if isinstance(node, Rat):
                    _assert_stored_form(node)

    @given(st.integers(-10 ** 30, 10 ** 30))
    def test_int_and_fraction_of_one_value_are_one_node(self, v):
        i, f = Rat(v), Rat(F(v))
        assert type(i.stored) is int and type(f.stored) is int
        assert i.key() == f.key() and hash(i) == hash(f) and i == f
        assert type(i.value) is Fraction and i.value == v


class TestUnchangedNodesReused:
    """_nmul and _nadd hand back a factor or a term that merges with nothing
    as the very input node, with its cached key, hash and expansion; a merged
    one equals the tree rebuilt from scratch."""

    def test_unmerged_factors_are_the_input_nodes(self):
        p, g = pow_(x, F(1, 2)), Gamma(add(a, 1))
        for f in (p, g, u):
            f.key()
        out = _nmul([Rat(3), p, g, u])
        assert all(any(f is h for h in out.factors) for f in (p, g, u))
        assert all(h._key is not None for h in out.factors[1:])

    def test_merged_factor_equals_the_rebuilt_tree(self):
        p = pow_(x, F(1, 2))
        out = _nmul([p, y, p])
        assert out == _fresh(mul(x, y))
        assert _nmul([pow_(x, 2), pow_(x, 3), y]) == _fresh(mul(pow_(x, 5), y))

    def test_unmerged_terms_are_the_input_nodes(self):
        t1, t2, t3 = mul(3, x, y), pow_(x, F(1, 2)), mul(F(-1, 2), ux)
        e = mul(x, add(y, 1))
        expanded = expand(e)
        for term in (t1, t2, t3, e):
            hash(term)
        out = _nadd([t1, t2, Rat(5), t3, e])
        for term in (t1, t2, t3, e):
            assert any(term is h for h in out.terms)
        assert next(h for h in out.terms if h is e)._expanded is expanded

    def test_merged_term_equals_the_rebuilt_tree(self):
        out = _nadd([mul(3, x, y), mul(F(1, 2), x, y), ux])
        assert out == _fresh(add(mul(F(7, 2), x, y), ux))
        assert _nadd([mul(2, x), neg(x)]) == x
        # a sum whose coefficient merges back to 1 is spliced into the sum
        s_ = add(x, y)
        assert _nadd([mul(2, s_), neg(s_), z]) == _fresh(add(x, y, z))


class TestPartialDerivative:
    def test_jets_are_coordinates(self):
        assert partial_derivative(mul(x, u), x) == u

    def test_power_rule_with_exponent_form(self):
        got = partial_derivative(pow_(t, A_FORM), t)
        assert got == mul(a, pow_(t, A_FORM - ExponentForm.rational(1)))

    def test_unknown_function_derivative_index(self):
        g = Fn("g", (x,))
        assert partial_derivative(mul(g, u), x) == mul(Fn("g", (x,), (1,)), u)


class TestTotalDerivative:
    def test_bumps_jet(self):
        assert total_derivative(Jet(0, (0,)), Var("x", 0)) == Jet(0, (1,))

    def test_product_rule_with_unknown_function(self):
        xi = Fn("xi", (x,))
        got = total_derivative(mul(xi, Jet(0, (1, 0))), x)
        want = add(mul(Fn("xi", (x,), (1,)), Jet(0, (1, 0))),
                   mul(xi, Jet(0, (2, 0))))
        assert got == want

    def test_hand_expanded_ansatz_time_derivative(self):
        # eta = g(x) u + h(t,x), xi = xi(x):
        # Dt(eta - xi u_x) = g u_t + h_t - xi u_xt   (hand expansion)
        g = Fn("g", (x,))
        h = Fn("h", (t, x))
        xi = Fn("xi", (x,))
        u1 = Jet(0, (0,))
        u1x = Jet(0, (1,))
        e = add(mul(g, u1), h, neg(mul(xi, u1x)))
        got = total_derivative(e, t)
        want = add(mul(g, Jet(0, (0,), t_order=1)), Fn("h", (t, x), (1, 0)),
                   neg(mul(xi, Jet(0, (1,), t_order=1))))
        assert got == want

    def test_fractional_chain_raises(self):
        frac = Jet(0, (0, 0), frac=1)
        with pytest.raises(FractionalChain):
            total_derivative(frac, t)

    def test_space_derivative_through_fractional_jet_allowed(self):
        frac = Jet(0, (0, 0), frac=1)
        assert total_derivative(frac, x) == Jet(0, (1, 0), frac=1)

    def test_linearity_and_product_rule_random(self):
        rng = random.Random(7)
        atoms = [u, ux, uy, t, x, Fn("g", (x, y)), a]
        for _ in range(120):
            e1 = mul(rng.choice(atoms), rng.choice(atoms))
            e2 = add(rng.choice(atoms), rng.choice(atoms))
            v = rng.choice([t, x, y])
            lhs = total_derivative(add(e1, e2), v)
            rhs = add(total_derivative(e1, v), total_derivative(e2, v))
            assert simplify(expand(lhs - rhs)) == ZERO
            lhs = total_derivative(mul(e1, e2), v)
            rhs = add(mul(total_derivative(e1, v), e2),
                      mul(e1, total_derivative(e2, v)))
            assert simplify(expand(lhs - rhs)) == ZERO

    def test_total_derivatives_commute(self):
        rng = random.Random(11)
        atoms = [u, ux, uy, uxx, x, y, Fn("g", (x, y)), pow_(u, N_FORM)]
        for _ in range(100):
            e = mul(rng.choice(atoms), add(rng.choice(atoms), rng.choice(atoms)))
            dxy = total_derivative(total_derivative(e, x), y)
            dyx = total_derivative(total_derivative(e, y), x)
            assert simplify(expand(dxy - dyx)) == ZERO


class TestCollectMonomials:
    def test_basic(self):
        A, B = Sym("A"), Sym("B")
        got = collect_monomials(add(mul(A, ux), mul(B, u, ux)), [u, ux])
        assert got == {ux: A, mul(u, ux): B}

    def test_symbolic_power_is_distinct_atom(self):
        e = add(mul(Sym("A"), pow_(u, N_FORM - ExponentForm.rational(1)), ux),
                mul(Sym("B"), ux))
        got = collect_monomials(e, [u, ux])
        assert len(got) == 2
        assert got[ux] == Sym("B")

    def test_zero(self):
        assert collect_monomials(ZERO, [u]) == {}

    def test_non_polynomial_raises(self):
        with pytest.raises(NonPolynomial):
            collect_monomials(Fn("P", (u,)), [u])

    def test_round_trip_random(self):
        rng = random.Random(13)
        coeffs = [Sym("A"), Sym("B"), mul(Sym("A"), x), t, ONE]
        monos = [u, ux, uy, mul(u, ux), pow_(u, 2), pow_(u, N_FORM)]
        for _ in range(200):
            e = add(*[mul(rng.choice(coeffs), rng.choice(monos))
                      for _ in range(rng.randint(1, 5))])
            got = collect_monomials(e, [u, ux, uy])
            back = add(*[mul(m, c) for m, c in got.items()]) if got else ZERO
            assert simplify(expand(back - e)) == ZERO


class TestGammaSimplify:
    asm = Assumptions("a")

    def test_recurrence_two_steps(self):
        got = gamma_simplify(div(Gamma(add(a, 2)), Gamma(a)), self.asm)
        assert got == mul(a, add(a, 1))

    def test_identical_ratio(self):
        assert gamma_simplify(div(Gamma(Rat(3)), Gamma(Rat(3)))) == ONE

    def test_non_applicable_stays_symbolic(self):
        got = gamma_simplify(div(Gamma(Rat(6)), Gamma(Rat(F(11, 2)))))
        gammas = [g for g in mul_factors(got) if "Gamma" in repr(g)]
        assert gammas, "a Gamma factor must survive"

    def test_integer_evaluation(self):
        assert gamma_simplify(Gamma(Rat(5))) == Rat(24)
        assert gamma_simplify(Gamma(Rat(1))) == ONE
        assert gamma_simplify(Gamma(Rat(2))) == ONE

    def test_idempotent(self):
        e = div(Gamma(add(a, 3)), Gamma(add(a, 1)))
        once = gamma_simplify(e, self.asm)
        assert gamma_simplify(once, self.asm) == once

    def test_shift_has_no_cap(self):
        got = gamma_simplify(div(Gamma(add(a, 70)), Gamma(a)), self.asm)
        assert not any_node(got, lambda e: isinstance(e, Gamma))
        assert got == mul(*[add(a, j) for j in range(70)])


def _stepwise_shift(f: ExponentForm, asm: Assumptions) -> Expr:
    """Gamma(z) shifted one step at a time while z-1 is provably positive:
    the recurrence gamma_simplify reads off the interval of z in one step."""
    prefactors = []
    for _ in range(64):
        if asm.sign(f - UNIT_FORM) != 1:
            break
        f = f - UNIT_FORM
        prefactors.append(from_eform(f))
    else:
        raise AssertionError("more than 64 shifts")
    return mul(*prefactors, Gamma(from_eform(f)))


def _shift_asm() -> Assumptions:
    asm = Assumptions("a")
    asm.declare_positive("n")
    return asm


_SHIFT_ARGS = st.one_of(
    # a rational k/d that is not an integer (integers evaluate to factorials)
    st.builds(lambda k, d: ExponentForm.rational(F(k, d)),
              st.integers(-64 * 6, 64 * 6), st.integers(2, 6))
      .filter(lambda f: f.as_integer() is None and f.as_rational() < 64),
    # c + a, c + 2a, c - a with 0 < a < 1; c + n with n > 0
    st.builds(lambda c, form: ExponentForm.rational(c) + form,
              st.one_of(st.integers(-10, 63), st.fractions(-10, 63, max_denominator=6)),
              st.sampled_from([A_FORM, A_FORM.scale(2), -A_FORM, N_FORM])),
)


@given(_SHIFT_ARGS)
def test_one_step_shift_is_the_stepwise_recurrence(f):
    asm = _shift_asm()
    got = gamma_simplify(Gamma(from_eform(f)), asm)
    assert got.key() == _stepwise_shift(f, asm).key()


class TestRender:
    def test_power_of_a_sum_has_one_pair_of_parentheses(self):
        assert render(pow_(add(Sym("k"), 2), 3)) == "(2 + k)^3"
        assert render(pow_(add(x, 1), F(1, 2))) == "(1 + x)^(1/2)"
        assert render(pow_(mul(x, pow_(y, F(1, 2))), F(1, 3))) == "(x*y^(1/2))^(1/3)"


class TestExactInput:
    """A float or a bool is not an exact rational; Fraction would take
    either silently, so the kernel refuses both."""

    @pytest.mark.parametrize("bad", [0.1, 2.0, True, False])
    def test_rat_refuses(self, bad):
        with pytest.raises(TypeError):
            Rat(bad)

    @pytest.mark.parametrize("bad", [0.5, True])
    def test_constructors_refuse(self, bad):
        for build in (lambda: add(x, bad), lambda: mul(bad, x), lambda: pow_(x, bad)):
            with pytest.raises(TypeError):
                build()
