"""Field laws of the exact rational-function field, over Q(a, n) with the
Gamma atom Gamma(a) and denominators that are sums.

Values are compared with ==, a structural zero test on the numerator of
the difference.  The zero test is checked against exact evaluation at
random rational points, with Gamma(a) taken as an independent variable.
"""
import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from fraclie import Assumptions, Gamma, Rat, Sym, add, mul, pow_
from fraclie.expr import Add, Mul, Pow
from fraclie.linsolve import Field

a = Sym("a")
n = Sym("n")
G = Gamma(a)          # 0 < a < 1, so gamma_simplify leaves it as it is
ATOMS = (a, n, G)


def field():
    return Field(Assumptions("a", nonzero=["n"]))


def quot(fld, num, den):
    """The element num/den of fld."""
    return fld.div(fld.elem(num), fld.elem(den))


_monomials = st.tuples(st.integers(-3, 3).filter(bool),
                       st.tuples(*(st.integers(0, 2) for _ in ATOMS)))
_polynomials = st.lists(_monomials, min_size=1, max_size=3)


def _poly_expr(terms):
    return add(*(mul(c, *(pow_(x, k) for x, k in zip(ATOMS, ks) if k))
                 for c, ks in terms))


@st.composite
def elements(draw, nonzero=False):
    """num/den with both a nonzero polynomial of up to three terms."""
    num = _poly_expr(draw(_polynomials))
    den = _poly_expr(draw(_polynomials))
    if den == Rat(0):
        den = Rat(1)
    if nonzero and num == Rat(0):
        num = Rat(1)
    return num, den


SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(elements(), elements())
def test_commutativity(p, q):
    fld = field()
    x, y = quot(fld, *p), quot(fld, *q)
    assert fld.add(x, y) == fld.add(y, x)
    assert fld.mul(x, y) == fld.mul(y, x)


@SETTINGS
@given(elements(), elements(), elements())
def test_associativity_and_distributivity(p, q, r):
    fld = field()
    x, y, z = quot(fld, *p), quot(fld, *q), quot(fld, *r)
    assert fld.add(fld.add(x, y), z) == fld.add(x, fld.add(y, z))
    assert fld.mul(fld.mul(x, y), z) == fld.mul(x, fld.mul(y, z))
    assert fld.mul(x, fld.add(y, z)) == fld.add(fld.mul(x, y), fld.mul(x, z))


@SETTINGS
@given(elements(), elements(nonzero=True))
def test_inverses(p, q):
    fld = field()
    x, y = quot(fld, *p), quot(fld, *q)
    assert fld.sub(x, x).is_zero()
    assert not y.is_zero()
    assert fld.div(fld.mul(x, y), y) == x


@SETTINGS
@given(elements(), elements())
def test_equality_is_a_zero_difference(p, q):
    fld = field()
    x, y = quot(fld, *p), quot(fld, *q)
    assert (x == y) == fld.sub(x, y).is_zero()
    assert x == quot(fld, *p)


@SETTINGS
@given(elements())
def test_expression_round_trip(p):
    fld = field()
    x = quot(fld, *p)
    assert fld.elem(fld.to_expr(x)) == x


def _evaluate(e, point):
    if isinstance(e, Rat):
        return e.value
    if e == G:
        return point[2]
    if isinstance(e, Sym):
        return point[ATOMS.index(e)]
    if isinstance(e, Pow):
        k = e.exp.as_integer()
        assert k is not None
        return _evaluate(e.base, point) ** k
    if isinstance(e, Mul):
        out = Fraction(1)
        for f in e.factors:
            out *= _evaluate(f, point)
        return out
    if isinstance(e, Add):
        return sum((_evaluate(t, point) for t in e.terms), Fraction(0))
    raise TypeError(f"unexpected node {e!r}")


def _value(num, den, point):
    """The value at a point, or None where the denominator vanishes."""
    d = _evaluate(den, point)
    return None if d == 0 else _evaluate(num, point) / d


# (expression of x, y, z; the same on values); z is nonzero
_COMBINATIONS = [
    (lambda f, x, y, z: f.sub(x, y), lambda x, y, z: x - y),
    (lambda f, x, y, z: f.add(f.mul(x, y), z), lambda x, y, z: x * y + z),
    (lambda f, x, y, z: f.sub(f.div(x, z), y), lambda x, y, z: x / z - y),
    (lambda f, x, y, z: f.sub(f.mul(x, y), f.mul(y, x)), lambda x, y, z: 0),
    (lambda f, x, y, z: f.sub(f.div(f.mul(x, z), z), x), lambda x, y, z: 0),
    (lambda f, x, y, z: f.sub(f.mul(f.add(x, y), z),
                              f.add(f.mul(x, z), f.mul(y, z))),
     lambda x, y, z: 0),
]


@SETTINGS
@given(elements(), elements(), elements(nonzero=True),
       st.integers(0, len(_COMBINATIONS) - 1), st.integers(0, 2 ** 32 - 1))
def test_zero_test_agrees_with_evaluation(p, q, r, which, seed):
    # the points come from a seeded generator: drawn by hypothesis, they
    # can shrink to values that put every point on a zero of a nonzero
    # element, Gamma(a) = 0 say
    rng = random.Random(seed)
    fld = field()
    x, y, z = quot(fld, *p), quot(fld, *q), quot(fld, *r)
    build, value = _COMBINATIONS[which]
    e = build(fld, x, y, z)
    want = []
    while len(want) < 3:
        point = tuple(Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
                      for _ in ATOMS)
        inputs = [_value(*s, point) for s in (p, q, r)]
        got = _value(e.num, e.den, point)
        if got is None or None in inputs or inputs[2] == 0:
            continue
        assert got == value(*inputs)
        want.append(got)
    assert e.is_zero() == all(v == 0 for v in want)
