"""Exact rational-function field and linear algebra."""
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from fraclie import Assumptions, Gamma, Rat, Sym, ZERO, ONE, add, mul, \
    neg, pow_, render, simplify
from fraclie.linsolve import Field, _poly_divide, nullspace, rref
from conftest import cyclic_garbage

F = Fraction
a = Sym("a")
n = Sym("n")


def field():
    return Field(Assumptions("a", nonzero=["n"]))


def quot(fld, num, den):
    """The element num/den of fld."""
    return fld.div(fld.elem(num), fld.elem(den))


class TestFieldArithmetic:
    def test_a_field_and_its_elements_leave_no_cycle(self):
        # a Field holds none of its elements: zero and one are built on use
        def use():
            fld = field()
            assert fld.sub(fld.add(fld.one, quot(fld, ONE, n)), fld.one) != fld.zero
        assert cyclic_garbage(use) == 0

    def test_fraction_combination(self):
        fld = field()
        # 1/n + 1/(n+1) = (2n+1)/(n(n+1))
        e = fld.add(quot(fld, ONE, n), quot(fld, ONE, add(n, 1)))
        want = quot(fld, add(mul(2, n), 1), mul(n, add(n, 1)))
        assert e == want

    def test_cancellation_of_expanded_numerator(self):
        fld = field()
        # (8a^2 - 8a) / (8a(a-1)) == 1
        num = add(mul(8, pow_(a, 2)), mul(-8, a))
        den = mul(8, a, add(a, Rat(-1)))
        e = quot(fld, num, den)
        assert e == fld.one
        assert fld.to_expr(e) == ONE

    def test_polynomial_division_cancellation(self):
        fld = field()
        # n(4a - 3n + 3an) / (4a - 3n + 3an) == n, numerator expanded
        base = add(mul(4, a), mul(-3, n), mul(3, a, n))
        num = simplify(mul(n, base))
        from fraclie.expr import expand
        e = quot(fld, expand(num), base)
        assert fld.to_expr(e) == n

    def test_power_of_a_sum_cancels_against_the_sum(self):
        fld = field()
        # (1 + a)^(-1/2) + a*(1 + a)^(-1/2) = (1 + a)^(1/2)
        root = pow_(add(1, a), F(-1, 2))
        e = fld.add(fld.elem(root), fld.elem(mul(a, root)))
        assert (e.num, e.den) == (pow_(add(1, a), F(1, 2)), ONE)
        # (1 + a)/(1 + a)^(1/2) as one element
        assert quot(fld, add(1, a), pow_(add(1, a), F(1, 2))) == e

    def test_atoms_and_sums_divide_out(self):
        fld = field()
        # (n + a*n)/n = 1 + a, and (n - n*a^2)/(n*(1 - a)) = 1 + a
        one_plus_a = fld.elem(add(1, a))
        assert quot(fld, add(n, mul(a, n)), n) == one_plus_a
        num = add(n, mul(-1, n, pow_(a, 2)))
        assert quot(fld, num, mul(n, add(1, neg(a)))) == one_plus_a
        assert fld.to_expr(one_plus_a) == add(1, a)

    def test_sums_add_over_the_lcm_of_the_factor_maps(self):
        fld = field()
        k = Sym("k")
        s = add(2, k)
        # 1/(k*(2+k)^2) + 1/(2+k)^3 = (2 + 2*k)/(k*(2+k)^3)
        e = fld.add(fld.elem(mul(pow_(k, -1), pow_(s, -2))), fld.elem(pow_(s, -3)))
        assert e.f == {fld._atom(k): 1, fld._atom(s): 3}
        assert e.num == add(2, mul(2, k))
        assert render(e.den) == "k*(2 + k)^3"
        # a power of a sum with content is a power of the content-free sum
        inv = fld.elem(pow_(add(2, mul(2, a)), -2))
        assert render(inv.den) == "4*(1 + a)^2"
        assert fld.add(inv, fld.elem(pow_(add(1, a), -1))) == \
            quot(fld, add(5, mul(4, a)), mul(4, pow_(add(1, a), 2)))

    def test_shared_factors_cancel_to_the_smaller_exponent(self):
        fld = field()
        e = quot(fld, mul(n, a), mul(pow_(n, 3), a))
        assert e.num == ONE and e.den == pow_(n, 2)
        e = quot(fld, mul(pow_(n, 3), a), mul(n, pow_(a, 2)))
        assert e.num == pow_(n, 2) and e.den == a

    def test_elements_of_two_fields_never_compare_equal(self):
        # each field numbers its own atoms: a and n are both atom 0 here
        assert field().elem(a) != field().elem(n)

    def test_long_exact_division_completes(self):
        # (a^10001 - 1)/(a - 1) = a^10000 + ... + a + 1 takes 10 001 steps
        ak = a.key()
        f = {((ak, 10001),): F(1), (): F(-1)}
        g = {((ak, 1),): F(1), (): F(-1)}
        want = {(((ak, k),) if k else ()): F(1) for k in range(10001)}
        assert _poly_divide(f, g) == want

    def test_zero_and_sign(self):
        fld = field()
        x = fld.elem(add(a, neg(a)))
        assert x.is_zero()
        y = quot(fld, ONE, neg(n))
        # denominator sign normalized onto the numerator
        assert y == quot(fld, Rat(-1), n)

    def test_mul_div_round_trip(self):
        fld = field()
        p = quot(fld, add(a, 1), mul(3, n))
        q = quot(fld, add(mul(2, a), Rat(-3)), add(n, 1))
        r = fld.div(fld.mul(p, q), q)
        assert r == p

    def test_merged_powers_of_an_unsafe_base_multiply_through_nmul(self):
        # a merged power of a sum or of a rational base is no monomial
        # exponent sum (mono_mul gives None): term_mul rebuilds the product
        # and reads its terms
        fld = field()
        for base in (add(1, a), Rat(2)):
            root = fld.elem(pow_(base, F(1, 2)))
            prod = fld.mul(root, root)
            assert prod == fld.elem(base)
            assert fld.to_expr(prod) == base

    def test_gamma_atoms_ride_along(self):
        fld = field()
        g = fld.elem(Gamma(add(ONE, neg(a))))
        inv = fld.div(fld.one, g)
        assert fld.mul(g, inv) == fld.one
        assert fld.provably_nonzero(g)

    def test_provably_nonzero(self):
        fld = field()
        assert fld.provably_nonzero(fld.elem(add(a, 1)))                # in (1,2)
        assert fld.provably_nonzero(fld.elem(mul(n, add(a, Rat(-1)))))  # n != 0, a-1 < 0
        assert fld.provably_nonzero(fld.elem(add(mul(8, pow_(a, 2)), mul(-8, a))))
        assert not fld.provably_nonzero(fld.elem(add(mul(2, a), Rat(-1))))  # 2a-1

    def test_sum_content_normal_form(self):
        fld = Field(Assumptions("a"))
        # (2 + 4a)/2 and 1 + 2a are one element and must share one form
        half = fld.div(fld.elem(add(2, mul(4, a))), fld.elem(Rat(2)))
        assert half == fld.elem(add(1, mul(2, a)))
        assert fld.to_expr(half) == add(1, mul(2, a))
        # a content-carrying denominator from a product matches the quotient's
        prod = fld.mul(quot(fld, ONE, Rat(3)), quot(fld, ONE, add(1, a)))
        assert prod == quot(fld, ONE, add(3, mul(3, a)))
        # the sign is still fixed by the denominator's leading term
        assert quot(fld, ONE, add(-3, mul(6, a))) == \
            quot(fld, Rat(-1), add(3, mul(-6, a)))


_RATIONALS = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    st.sampled_from([F(0), F(1), F(-1), F(10 ** 30, 7), F(-3, 10 ** 20)]))


class TestRationalFastPath:
    """Rational operands take a Fraction fast path; it must build the Elem
    that the general polynomial path (_add, _cancel) builds."""

    @settings(max_examples=200, deadline=None)
    @given(_RATIONALS, _RATIONALS)
    def test_fast_path_equals_general_path(self, p, q):
        fld = field()
        x, y = fld.fold([(p, ())]), fld.fold([(q, ())])
        assert fld.elem(Rat(p)) == x and fld.elem(Rat(q)) == y
        assert fld.neg(y) == fld.fold([(-q, ())])
        assert fld.add(x, y) == fld._add(x, y)
        assert fld.sub(x, y) == fld._add(x, fld.fold([(-q, ())]))
        if not x.is_zero() and not y.is_zero():
            assert fld.mul(x, y) == fld._cancel(fld._pmul(x.p, y.p), x.c * y.c, {})
            cy, fy = fld._fmap(y.p)
            assert fld.div(x, y) == fld._cancel(fld._pmul(x.p, fld._from_fmap(y.c, y.f)),
                                                x.c * cy, fy)
        for e in (fld.add(x, y), fld.sub(x, y), fld.mul(x, y)):
            assert isinstance(e.num, Rat) and isinstance(e.den, Rat)
            assert e.den.value > 0
            assert e.num.value / e.den.value == Fraction(e.num.value, e.den.value)
            assert F(e.num.value, e.den.value).denominator == e.den.value


class TestRref:
    def test_rational_matrix(self):
        fld = field()
        e = fld.elem
        rows = [[e(Rat(2)), e(Rat(4)), e(Rat(2))],
                [e(Rat(1)), e(Rat(3)), e(Rat(2))]]
        res = rref(rows, fld)
        assert res.pivots == [0, 1]
        got = [[fld.to_expr(x) for x in row] for row in res.rows]
        assert got == [[ONE, ZERO, simplify(Rat(-1))], [ZERO, ONE, ONE]]

    def test_symbolic_pivot_prefers_decidable(self):
        fld = field()
        e = fld.elem
        # first column: an undecidable entry and a rational one; the rational
        # row must be chosen so no pivot assumption is recorded
        rows = [[e(add(mul(2, a), Rat(-1))), e(ONE)],
                [e(Rat(3)), e(a)]]
        res = rref(rows, fld)
        assert res.assumptions == []

    def test_nullspace_known_kernel(self):
        fld = field()
        e = fld.elem
        # x1 + a x2 = 0 over columns (x1, x2): kernel spanned by (-a, 1)
        rows = [[e(ONE), e(a)]]
        basis, notes = nullspace(rref(rows, fld), 2, fld)
        assert len(basis) == 1
        v = [fld.to_expr(x) for x in basis[0]]
        assert v == [simplify(neg(a)), ONE]
        # the vector is in the kernel
        resid = fld.add(fld.mul(e(ONE), basis[0][0]),
                        fld.mul(e(a), basis[0][1]))
        assert resid.is_zero()

    def test_nullspace_dimension(self):
        fld = field()
        e = fld.elem
        rows = [[e(ONE), e(Rat(2)), e(ZERO)],
                [e(ZERO), e(ZERO), e(ONE)]]
        basis, _ = nullspace(rref(rows, fld), 3, fld)
        assert len(basis) == 1


def _dense_rref(rows, field):
    """Reference elimination over dense rows: every column of every row is
    updated at each pivot.  Same pivot policy and ledger text as rref,
    which also moves the all-zero rows to the end first."""
    from fraclie import render
    from fraclie.expr import to_eform
    from fraclie.linsolve import RrefResult
    if not rows:
        return RrefResult([], [], [])
    ncols = len(rows[0])
    work = sorted((list(r) for r in rows), key=lambda r: all(e.is_zero() for e in r))
    pivots, notes = [], []
    r = 0
    for col in range(ncols):
        best, best_class = None, 3
        for i in range(r, len(work)):
            e = work[i][col]
            if e.is_zero():
                continue
            if isinstance(e.num, Rat) and isinstance(e.den, Rat):
                cls = 0
            elif field.provably_nonzero(e):
                cls = 1
            else:
                cls = 2
            if cls < best_class:
                best, best_class = i, cls
            if cls == 0:
                break
        if best is None:
            continue
        if best_class == 2:
            piv_num = work[best][col].num
            f = to_eform(piv_num)
            shown = f.render() if f is not None else render(piv_num)
            notes.append(f"{shown} != 0 (assumed to pivot during elimination)")
        work[r], work[best] = work[best], work[r]
        inv = field.div(field.one, work[r][col])
        work[r] = [field.mul(inv, e) for e in work[r]]
        for i in range(len(work)):
            if i == r or work[i][col].is_zero():
                continue
            factor = work[i][col]
            work[i] = [field.sub(x, field.mul(factor, y))
                       for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return RrefResult(work[:r], pivots, notes)


# Entries over Q(a, n): zero, rational, provably nonzero under the declared
# assumptions (0 < a < 1, n != 0), and undecided (2a-1 and kin).
_ENTRIES = (
    [ZERO] * 4
    + [Rat(F(k)) for k in (1, -1, 2, -3)] + [Rat(F(1, 2)), Rat(F(-2, 3))]
    + [a, add(a, 1), n, mul(3, n), pow_(add(n, 1), -1), add(a, Rat(-1))]
    + [add(mul(2, a), Rat(-1)), add(mul(3, a), Rat(-1)), add(mul(4, a), Rat(-2)),
       add(a, neg(n)), add(mul(a, n), Rat(-1))]
)


@st.composite
def _matrices(draw):
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 5))
    return [[draw(st.sampled_from(_ENTRIES)) for _ in range(ncols)]
            for _ in range(nrows)]


class TestSparseRrefMatchesDense:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_matrices())
    def test_rows_pivots_and_assumptions_identical(self, matrix):
        fld = field()
        rows = [[fld.elem(x) for x in row] for row in matrix]
        want = _dense_rref(rows, fld)
        got = rref(rows, fld)
        assert got.pivots == want.pivots
        assert got.assumptions == want.assumptions
        assert got.rows == want.rows


@st.composite
def _sparse_matrices(draw):
    nrows = draw(st.integers(2, 6))
    ncols = draw(st.integers(2, 5))
    entry = st.one_of(st.just(ZERO), st.sampled_from(_ENTRIES))
    return [[draw(entry) for _ in range(ncols)] for _ in range(nrows)], \
        draw(st.integers(1, ncols - 1))


class TestLeadColumnsFirst:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_sparse_matrices())
    def test_first_phase_is_rref_of_lead_columns_then_rank(self, case):
        # rref(lead=k): pivots, rows cut to the lead columns and assumptions
        # of the lead phase are those of an rref of the rows cut to them;
        # the pivot count is the rank of the whole matrix
        matrix, k = case
        fld = field()
        rows = [[fld.elem(x) for x in row] for row in matrix]
        cut = [r[:k] for r in rows if any(not e.is_zero() for e in r[:k])]
        want = rref(cut, fld)
        got = rref(rows, fld, lead=k)
        first = [(row[:k], p) for row, p in zip(got.rows, got.pivots) if p < k]
        assert [p for _, p in first] == want.pivots
        assert [row for row, _ in first] == want.rows
        assert got.assumptions == want.assumptions
        assert len(got.pivots) == len(rref(rows, fld).pivots)
        assert nullspace(got, k, fld) == nullspace(want, k, fld)

    def test_rows_empty_on_lead_columns_wait_at_the_end(self):
        # without the empty first row, the pivot on column 0 swaps the
        # rational row to the top and leaves 3a-1 first in column 1
        fld = field()
        e = fld.elem
        u, w = add(mul(2, a), Rat(-1)), add(mul(3, a), Rat(-1))
        rows = [[e(ZERO), e(ZERO), e(ONE)],
                [e(ZERO), e(u), e(ZERO)],
                [e(ZERO), e(w), e(ZERO)],
                [e(ONE), e(ZERO), e(ZERO)]]
        want = rref([r[:2] for r in rows[1:]], fld)
        assert want.assumptions == ["3*a-1 != 0 (assumed to pivot during elimination)"]
        assert rref(rows, fld, lead=2).assumptions == want.assumptions
