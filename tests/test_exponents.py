"""Sign decisions over the declared parameter domains, and the ring
operations of exponent forms."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fraclie import Assumptions, ExponentForm, Pow, Sym, mul, pow_
from fraclie.exponents import UNIT_FORM, Interval
from fraclie.expr import from_eform, to_eform

F = Fraction
k = ExponentForm.symbol("k")
m = ExponentForm.symbol("m")


def assumptions():
    # 0 < a < 1, m > 0 and unbounded, k free
    return Assumptions("a", positive=["m"])


class TestUnboundedEnds:
    def test_free_symbol_minus_a_huge_constant_is_undecided(self):
        assert Assumptions("a").sign(k - ExponentForm.rational(10 ** 70)) is None

    def test_positive_symbol_minus_a_huge_constant_is_undecided(self):
        assert assumptions().sign(m - ExponentForm.rational(10 ** 70)) is None

    def test_positive_symbol_plus_a_constant(self):
        assert assumptions().sign(m + ExponentForm.rational(10 ** 70)) == 1
        assert assumptions().sign(ExponentForm.symbol("m", -1)) == 1

    def test_interval_arithmetic(self):
        pos = Interval(F(0), None)
        assert Interval.everything() * Interval.point(0) == Interval.point(0)
        assert pos * pos == pos
        assert pos.invert() == pos
        assert Interval(F(2), None, False).invert() == Interval(F(0), F(1, 2), True, False)
        assert (pos + Interval.point(-5)) == Interval(F(-5), None)
        assert pos.scale(F(-2)) == Interval(None, F(0))
        assert Interval(F(1), F(2)) * Interval(None, F(5)) == Interval(None, F(10))
        assert Interval(None, F(-1)) * Interval(None, F(-1)) == Interval(F(1), None)
        assert not Interval(F(0), None).excludes_integers()


_MONOMIALS = [(), (("a", 1),), (("a", -1),), (("m", 1),), (("m", -1),),
              (("m", 2),), (("k", 1),), (("k", 2),), (("a", 1), ("m", 1)),
              (("k", 1), ("m", -1))]
_COEFFS = st.one_of(st.fractions(min_value=-20, max_value=20, max_denominator=9),
                    st.sampled_from([F(10 ** 70), F(-10 ** 70), F(1, 10 ** 70)]))
_VALUES = st.sampled_from([F(1, 10 ** 80), F(1, 3), F(7), F(10 ** 70), F(10 ** 90)])


@st.composite
def _forms(draw):
    terms = draw(st.lists(st.tuples(st.sampled_from(_MONOMIALS), _COEFFS),
                          min_size=1, max_size=3))
    return ExponentForm(terms)


@settings(max_examples=300, deadline=None)
@given(_forms(), st.fractions(min_value=F(1, 1000), max_value=F(999, 1000)),
       _VALUES, _VALUES, st.booleans())
def test_decided_signs_hold_at_every_point(form, a, m_val, k_val, k_negative):
    # a decided sign must hold on the whole declared domain, huge values too
    sign = assumptions().sign(form)
    if sign is None:
        return
    point = {"a": a, "m": m_val, "k": -k_val if k_negative else k_val}
    v = sum(c * math.prod(point[name] ** e for name, e in mono)
            for mono, c in form.coeffs)
    assert (v > 0) - (v < 0) == sign


_SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def _small_forms(draw, max_size=3):
    terms = draw(st.lists(st.tuples(st.sampled_from(_MONOMIALS), _SMALL),
                          max_size=max_size))
    return ExponentForm(terms)


@settings(max_examples=100, deadline=None)
@given(_small_forms(), _small_forms(), _small_forms())
def test_product_is_a_commutative_ring_product(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * UNIT_FORM == f


@settings(max_examples=100, deadline=None)
@given(_small_forms(), _small_forms(), st.integers(0, 3))
def test_products_and_powers_agree_with_the_kernel(f, g, k):
    assert to_eform(mul(from_eform(f), from_eform(g))) == f * g
    assert to_eform(pow_(from_eform(f), k)) == f ** k


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_MONOMIALS), _SMALL.filter(bool), st.integers(1, 3))
def test_a_monomial_has_an_inverse(mono, c, k):
    m = ExponentForm({mono: c})
    assert m * m ** -1 == UNIT_FORM
    assert m ** -k == (m ** k) ** -1


def test_only_a_monomial_is_inverted():
    with pytest.raises(ValueError):
        (k + m) ** -1
    with pytest.raises(ValueError):
        ExponentForm() ** -1


@settings(max_examples=300, deadline=None)
@given(_small_forms(), _small_forms(), st.sampled_from(_MONOMIALS), _SMALL, _SMALL)
def test_add_and_scale_shortcuts_agree_with_the_general_path(f, g, mono, c, d):
    """__add__'s shortcuts (an empty side; one monomial on each side, the
    same one) and scale's (by 1, by 0) build what the constructor's merge
    builds: the same coefficients, stored alike."""
    def stored(h):
        return [(mono, type(v), v) for mono, v in h.coeffs]

    one, other = ExponentForm({mono: c}), ExponentForm({mono: d})
    sums = [(f, g), (f, ExponentForm()), (ExponentForm(), g), (one, other)]
    for left, right in sums:
        want = ExponentForm(left.coeffs + right.coeffs)
        assert stored(left + right) == stored(want)
    for factor in (c, 1, 0, F(1), F(0)):
        want = ExponentForm([(mono, v * factor) for mono, v in f.coeffs])
        assert stored(f.scale(factor)) == stored(want)


def _as_fractions(f):
    """The form with every coefficient stored as a Fraction, as it was
    before the storage rule."""
    return ExponentForm._of(tuple((mono, F(c)) for mono, c in f.coeffs))


@settings(max_examples=200, deadline=None)
@given(_forms(), _forms(), _SMALL, st.integers(0, 2))
def test_coefficients_keep_the_storage_rule(f, g, c, n):
    """Construction and arithmetic store an int exactly for an integral
    coefficient, and the forms compare, hash and order as the Fraction
    forms of the same values do, alone and inside a power's key."""
    x = Sym("x")
    results = [f, g, f + g, f - g, f * g, f.scale(c), f ** n,
               ExponentForm.rational(c), -f]
    for h in results:
        for _, v in h.coeffs:
            assert type(v) in (int, F)
            assert (type(v) is int) == (F(v).denominator == 1)
        old = _as_fractions(h)
        assert h == old and hash(h) == hash(old)
        assert Pow(x, h).key() == Pow(x, old).key()
        assert hash(Pow(x, h)) == hash(Pow(x, old))
    for h1 in results:
        for h2 in results:
            assert ((h1.sort_key() < h2.sort_key())
                    == (_as_fractions(h1).sort_key() < _as_fractions(h2).sort_key()))
    r = ExponentForm.rational(c).as_rational()
    assert r == c and (type(r) is int) == (c.denominator == 1)
    want = int(c) if c.denominator == 1 else None
    assert ExponentForm.rational(c).as_integer() == want


class TestExactInput:
    """A float or a bool is not an exact rational: every constructor and
    scale refuses both with TypeError instead of converting it silently."""

    @pytest.mark.parametrize("bad", [0.1, 1.0, True, False])
    def test_float_and_bool_refused(self, bad):
        with pytest.raises(TypeError):
            ExponentForm({(): bad})
        with pytest.raises(TypeError):
            ExponentForm([((("a", 1),), bad)])
        with pytest.raises(TypeError):
            ExponentForm.rational(bad)
        with pytest.raises(TypeError):
            ExponentForm.symbol("a", 1, bad)
        with pytest.raises(TypeError):
            k.scale(bad)
