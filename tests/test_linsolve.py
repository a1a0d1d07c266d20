"""Exact rational-function field and linear algebra."""
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from fraclie import Assumptions, Gamma, Rat, Sym, Var, ZERO, ONE, add, mul, \
    neg, pow_, simplify
from fraclie.linsolve import Elem, Field, _poly_divide, nullspace, rref

F = Fraction
a = Sym("a")
n = Sym("n")


def field():
    asm = Assumptions("a")
    asm.declare_nonzero("n")
    return Field(asm)


class TestFieldArithmetic:
    def test_fraction_combination(self):
        fld = field()
        # 1/n + 1/(n+1) = (2n+1)/(n(n+1))
        e = fld.add(fld.elem(ONE, n), fld.elem(ONE, add(n, 1)))
        want = fld.elem(add(mul(2, n), 1), mul(n, add(n, 1)))
        assert fld.eq(e, want)

    def test_cancellation_of_expanded_numerator(self):
        fld = field()
        # (8a^2 - 8a) / (8a(a-1)) == 1
        num = add(mul(8, pow_(a, 2)), mul(-8, a))
        den = mul(8, a, add(a, Rat(-1)))
        e = fld.elem(num, den)
        assert fld.eq(e, fld.one)
        assert fld.to_expr(e) == ONE

    def test_polynomial_division_cancellation(self):
        fld = field()
        # n(4a - 3n + 3an) / (4a - 3n + 3an) == n, numerator expanded
        base = add(mul(4, a), mul(-3, n), mul(3, a, n))
        num = simplify(mul(n, base))
        from fraclie.expr import expand
        e = fld.elem(expand(num), base)
        assert fld.to_expr(e) == n

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
        y = fld.elem(ONE, neg(n))
        # denominator sign normalized onto the numerator
        assert fld.eq(y, fld.elem(Rat(-1), n))

    def test_mul_div_round_trip(self):
        fld = field()
        p = fld.elem(add(a, 1), mul(3, n))
        q = fld.elem(add(mul(2, a), Rat(-3)), add(n, 1))
        r = fld.div(fld.mul(p, q), q)
        assert fld.eq(r, p)

    def test_gamma_atoms_ride_along(self):
        fld = field()
        g = fld.elem(Gamma(add(ONE, neg(a))))
        inv = fld.div(fld.one, g)
        assert fld.eq(fld.mul(g, inv), fld.one)
        assert fld.provably_nonzero(Gamma(add(ONE, neg(a))))

    def test_provably_nonzero(self):
        fld = field()
        assert fld.provably_nonzero(add(a, 1))                # in (1,2)
        assert fld.provably_nonzero(mul(n, add(a, Rat(-1))))  # n != 0, a-1 < 0
        assert fld.provably_nonzero(add(mul(8, pow_(a, 2)), mul(-8, a)))
        assert not fld.provably_nonzero(add(mul(2, a), Rat(-1)))  # 2a-1

    def test_sum_content_normal_form(self):
        fld = Field(Assumptions("a"))
        # (2 + 4a)/2 and 1 + 2a are one element and must share one form
        half = fld.div(fld.elem(add(2, mul(4, a))), fld.elem(Rat(2)))
        assert half == fld.elem(add(1, mul(2, a)))
        assert fld.to_expr(half) == add(1, mul(2, a))
        # a content-carrying denominator from a product matches elem's form
        prod = fld.mul(fld.elem(ONE, Rat(3)), fld.elem(ONE, add(1, a)))
        assert prod == fld.elem(ONE, add(3, mul(3, a)))
        # the sign is still fixed by the denominator's leading term
        assert fld.elem(ONE, add(-3, mul(6, a))) == \
            fld.elem(Rat(-1), add(3, mul(-6, a)))


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
        basis, notes = nullspace(rows, 2, fld)
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
        basis, _ = nullspace(rows, 3, fld)
        assert len(basis) == 1


def _dense_rref(rows, field):
    """Reference elimination over dense rows: every column of every row is
    updated at each pivot.  Same pivot policy and ledger text as rref."""
    from fraclie import render
    from fraclie.expr import to_eform
    from fraclie.linsolve import RrefResult
    if not rows:
        return RrefResult([], [], [])
    ncols = len(rows[0])
    work = [list(r) for r in rows]
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
            elif field.provably_nonzero(e.num):
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
