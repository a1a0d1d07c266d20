"""Exact linear algebra over the field of rational functions in the declared
parameters (alpha, user parameters, branch constants, Gamma atoms).

Entries are pairs (numerator, denominator) of canonical polynomial
expressions; zero-testing is structural on the expanded numerator.  Most
entries of a determining matrix are rational, and arithmetic on two of
them is plain Fraction arithmetic.  Pivots prefer rational entries, then
entries provably nonzero under the declared assumptions; pivoting on
anything else records a genericity assumption.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exponents import Assumptions
from .expr import (Add, Expr, Gamma, Jet, Mul, Rat, Sym, Var, ZERO,
                   ONE, _base_exp, _coeff_mono, _nadd, _nmul, _npow,
                   _rational_content, add_terms, any_node, expand,
                   gamma_simplify, mul_factors, render, split_factors,
                   to_eform)
from .exponents import ExponentForm


@dataclass(frozen=True)
class Elem:
    num: Expr
    den: Expr

    def is_zero(self) -> bool:
        return self.num == ZERO


class Field:
    def __init__(self, assumptions: Optional[Assumptions] = None):
        self.asm = assumptions if assumptions is not None else Assumptions()

    def norm_expr(self, e: Expr) -> Expr:
        e = expand(e)
        # expand's output is canonical, so without a Gamma node
        # gamma_simplify would rebuild the same tree
        if any_node(e, lambda x: isinstance(x, Gamma)):
            return gamma_simplify(e, self.asm)
        return e

    def elem(self, num: Expr, den: Expr = ONE) -> Elem:
        if isinstance(num, Rat) and den == ONE:
            return _rat_elem(num.value)
        a = self._ratnorm(num)
        if den == ONE:
            return a
        b = self._ratnorm(den)
        return self.div(a, b)

    def _ratnorm(self, e: Expr) -> Elem:
        """Normalize an expression that may hold inverse factors of sums
        (rational-function form) into a single cancelled fraction."""
        e = self.norm_expr(e)
        if e == ZERO:
            return Elem(ZERO, ONE)
        acc = Elem(ZERO, ONE)
        for term in add_terms(e):
            inverse, num = split_factors(term, _inverse_factor)
            piece = self._cancel(self.norm_expr(num), self.norm_expr(
                _npow(inverse, ExponentForm.rational(-1))))
            acc = self._add_frac(acc, piece)
        return acc

    def _add_frac(self, a: Elem, b: Elem) -> Elem:
        if a.is_zero():
            return b
        if b.is_zero():
            return a
        if a.den == b.den:
            num = self.norm_expr(_nadd([a.num, b.num]))
            return self._cancel(num, a.den) if num != ZERO else Elem(ZERO, ONE)
        num = self.norm_expr(_nadd([_nmul([a.num, b.den]), _nmul([b.num, a.den])]))
        if num == ZERO:
            return Elem(ZERO, ONE)
        return self._cancel(num, self.norm_expr(_nmul([a.den, b.den])))

    zero = property(lambda self: Elem(ZERO, ONE))
    one = property(lambda self: Elem(ONE, ONE))

    # -- arithmetic ---------------------------------------------------------
    # With both operands rational and nonzero, Fraction arithmetic gives the
    # Elem the general path builds: a Rat numerator over a positive Rat
    # denominator, in lowest terms.
    def add(self, a: Elem, b: Elem) -> Elem:
        if _nonzero_rationals(a, b):
            return _rat_elem(_value(a) + _value(b))
        return self._add_frac(a, b)

    def neg(self, a: Elem) -> Elem:
        if isinstance(a.num, Rat):
            return Elem(Rat(-a.num.value), a.den)
        return Elem(self.norm_expr(_nmul([Rat(-1), a.num])), a.den)

    def sub(self, a: Elem, b: Elem) -> Elem:
        if _nonzero_rationals(a, b):
            return _rat_elem(_value(a) - _value(b))
        return self._add_frac(a, self.neg(b))

    def mul(self, a: Elem, b: Elem) -> Elem:
        if a.is_zero() or b.is_zero():
            return self.zero
        if _nonzero_rationals(a, b):
            return _rat_elem(_value(a) * _value(b))
        return self._cancel(self.norm_expr(_nmul([a.num, b.num])),
                            _nmul([a.den, b.den]))

    def div(self, a: Elem, b: Elem) -> Elem:
        if b.is_zero():
            raise ZeroDivisionError("division by zero field element")
        if a.is_zero():
            return self.zero
        if _nonzero_rationals(a, b):
            return _rat_elem(_value(a) / _value(b))
        return self._cancel(self.norm_expr(_nmul([a.num, b.den])),
                            _nmul([a.den, b.num]))

    def eq(self, a: Elem, b: Elem) -> bool:
        return self.sub(a, b).is_zero()

    def to_expr(self, a: Elem) -> Expr:
        if a.den == ONE:
            return a.num
        return _nmul([a.num, _npow(a.den, ExponentForm.rational(-1))])

    # -- factor cancellation -------------------------------------------------
    def _cancel(self, num: Expr, den: Expr) -> Elem:
        cn, fn_ = _factor_map(num)
        cd, fd = _factor_map(den)
        for k in list(fn_):
            if k in fd:
                bn, en = fn_[k]
                _, ed = fd[k]
                shared_n = en if _eform_le(en, ed) else ed
                fn_[k] = (bn, en - shared_n)
                fd[k] = (bn, ed - shared_n)
        coeff = cn / cd
        num2 = _from_factor_map(Fraction(coeff.numerator), fn_)
        den2 = _from_factor_map(Fraction(coeff.denominator), fd)
        num2, den2 = self._divide_out(num2, den2)
        # canonical sign on the denominator's leading coefficient
        lead = _leading_coeff(den2)
        if lead < 0:
            num2 = self.norm_expr(_nmul([Rat(-1), num2]))
            den2 = self.norm_expr(_nmul([Rat(-1), den2]))
        return Elem(num2, den2)

    def _divide_out(self, num: Expr, den: Expr) -> tuple[Expr, Expr]:
        """Cancel denominator factors that divide the numerator exactly as
        polynomials in the parameter atoms."""
        if den == ONE or num == ZERO:
            return num, den
        cd, fd = _factor_map(den)
        if all((ex.as_integer() or 0) <= 0 for _, ex in fd.values()):
            return num, den
        num_p = _poly_dict(self.norm_expr(num))
        if num_p is None:
            return num, den
        num_d, atoms = num_p
        changed = False
        for key in sorted(fd):
            b, ex = fd[key]
            k = ex.as_integer()
            if k is None or k <= 0:
                continue
            g_p = _poly_dict(self.norm_expr(b))
            if g_p is None or not g_p[0]:
                continue
            g_d, g_atoms = g_p
            atoms.update(g_atoms)
            while k > 0:
                q = _poly_divide(num_d, g_d)
                if q is None:
                    break
                num_d = q
                k -= 1
                changed = True
            fd[key] = (b, ExponentForm.rational(k))
        if not changed:
            return num, den
        den2 = _from_factor_map(cd, fd)
        return _poly_expr(num_d, atoms), self.norm_expr(den2)

    # -- pivot admissibility ---------------------------------------------------
    def provably_nonzero(self, e: Expr) -> bool:
        e = self.norm_expr(e)
        if e == ZERO:
            return False
        if isinstance(e, Rat):
            return True
        for factor in mul_factors(_factor_common(e)):
            b, _ = _base_exp(factor)
            if isinstance(b, Rat):
                continue
            if isinstance(b, Gamma):
                continue
            if isinstance(b, Sym) and self.asm.is_declared_nonzero(b.name):
                continue
            fb = to_eform(b)
            if fb is not None and self.asm.sign(fb) in (1, -1):
                continue
            return False
        return True


def _nonzero_rationals(a: Elem, b: Elem) -> bool:
    return (isinstance(a.num, Rat) and isinstance(a.den, Rat)
            and isinstance(b.num, Rat) and isinstance(b.den, Rat)
            and a.num.value != 0 and b.num.value != 0)


def _value(a: Elem) -> Fraction:
    return a.num.value if a.den.value == 1 else a.num.value / a.den.value


def _rat_elem(v: Fraction) -> Elem:
    """The normal form of a rational element."""
    if v.denominator == 1:
        return Elem(Rat(v), ONE)
    return Elem(Rat(Fraction(v.numerator)), Rat(Fraction(v.denominator)))


def _inverse_factor(b: Expr, ex: ExponentForm) -> bool:
    """A parameter factor with a negative rational exponent: it belongs to
    the denominator of a field element."""
    r = ex.as_rational()
    return r is not None and r < 0 and not isinstance(b, (Var, Jet))


# ---------------------------------------------------------------------------
# Exact polynomial division over the parameter atoms
# ---------------------------------------------------------------------------

_PolyDict = dict  # monomial key tuple -> Fraction
_Atoms = dict     # atom key -> atom


def _poly_dict(e: Expr) -> Optional[tuple[_PolyDict, _Atoms]]:
    """View an expanded expression as a polynomial in its non-rational atoms
    (parameters, Gamma applications), beside the atoms by key; None when it
    is not one (negative or symbolic powers, jet/variable content)."""
    out: _PolyDict = {}
    atoms: _Atoms = {}
    for term in add_terms(e):
        if term == ZERO:
            continue
        coeff = Fraction(1)
        mono: dict[tuple, int] = {}
        for f in mul_factors(term):
            if isinstance(f, Rat):
                coeff *= f.value
                continue
            b, ex = _base_exp(f)
            k = ex.as_integer()
            if k is None or k <= 0 or isinstance(b, (Var, Jet)):
                return None
            bk = b.key()
            atoms[bk] = b
            mono[bk] = mono.get(bk, 0) + k
        key = tuple(sorted(mono.items()))
        out[key] = out.get(key, Fraction(0)) + coeff
    return {k: c for k, c in out.items() if c != 0}, atoms


def _poly_expr(d: _PolyDict, atoms: _Atoms) -> Expr:
    terms = []
    for mono, c in d.items():
        factors: list[Expr] = [Rat(c)]
        for key, k in mono:
            factors.append(_npow(atoms[key], ExponentForm.rational(k)))
        terms.append(_nmul(factors))
    return _nadd(terms)


def _poly_divide(f: _PolyDict, g: _PolyDict) -> Optional[_PolyDict]:
    """Exact division f/g as polynomials; None when not exactly divisible.
    Uses graded lexicographic order on dense exponent vectors.  Each step
    cancels the leading monomial of the remainder and adds only smaller
    ones, since the order is a monomial order, so the loop ends."""
    if not g:
        return None
    if not f:
        return {}
    variables = sorted({key for m in list(f) + list(g) for key, _ in m})
    index = {v: i for i, v in enumerate(variables)}

    def dense(mono) -> tuple:
        vec = [0] * len(variables)
        for key, k in mono:
            vec[index[key]] = k
        return tuple(vec)

    def order(mono) -> tuple:
        v = dense(mono)
        return (sum(v), v)

    glead = max(g, key=order)
    gvec = dense(glead)
    gc = g[glead]
    work = dict(f)
    quotient: _PolyDict = {}
    while work:
        flead = max(work, key=order)
        fvec = dense(flead)
        if any(a < b for a, b in zip(fvec, gvec)):
            return None
        qvec = tuple(a - b for a, b in zip(fvec, gvec))
        qmono = tuple((variables[i], k) for i, k in enumerate(qvec) if k)
        qc = work[flead] / gc
        quotient[qmono] = quotient.get(qmono, Fraction(0)) + qc
        for gmono, gcoef in g.items():
            gv = dense(gmono)
            mm = tuple((variables[i], a + b) for i, (a, b)
                       in enumerate(zip(qvec, gv)) if a + b)
            nv = work.get(mm, Fraction(0)) - qc * gcoef
            if nv == 0:
                work.pop(mm, None)
            else:
                work[mm] = nv
    return quotient


def _factor_common(e: Expr) -> Expr:
    """Pull the common monomial factor out of a sum: 8a^2-8a -> 8*a*(a-1)."""
    terms = add_terms(e)
    if len(terms) < 2:
        return e
    common: Optional[dict] = None
    for t in terms:
        powers: dict[tuple, tuple[Expr, ExponentForm]] = {}
        for f in mul_factors(t):
            if isinstance(f, Rat):
                continue
            b, ex = _base_exp(f)
            if ex.as_rational() is None:
                continue
            powers[b.key()] = (b, ex)
        if common is None:
            common = powers
        else:
            merged = {}
            for k, (b, ex) in powers.items():
                if k in common:
                    other = common[k][1]
                    lo = ex if ex.as_rational() <= other.as_rational() else other
                    merged[k] = (b, lo)
            common = merged
        if not common:
            return e
    factor = _nmul([_npow(b, ex) for b, ex in common.values()])
    if factor == ONE:
        return e
    inv = _npow(factor, ExponentForm.rational(-1))
    rest = expand(_nmul([inv, e]))
    return _nmul([factor, rest])


def _eform_le(a, b) -> bool:
    """Componentwise min helper: True if a is the smaller exponent (both are
    rational multiples of the same monomial in practice)."""
    ra, rb = a.as_rational(), b.as_rational()
    if ra is not None and rb is not None:
        return ra <= rb
    return False


def _factor_map(e: Expr):
    """Rational coefficient and base-keyed factors of a product.  The
    positive rational content of every sum factor with an integer exponent
    moves into the coefficient, so equal elements get equal factors:
    (2 + 4*a)/2 and 1 + 2*a both map to 1 * (1 + 2*a)."""
    coeff = Fraction(1)
    out: dict[tuple, tuple[Expr, ExponentForm]] = {}
    if isinstance(e, Rat):
        return e.value, out
    for f in mul_factors(e):
        if isinstance(f, Rat):
            coeff *= f.value
            continue
        b, ex = _base_exp(f)
        k = ex.as_integer()
        if isinstance(b, Add) and k is not None:
            content = _rational_content(b.terms)
            if content != 1:
                coeff *= content ** k
                b = _nadd([_nmul([Rat(1 / content), t]) for t in b.terms])
        key = b.key()
        if key in out:
            out[key] = (b, out[key][1] + ex)
        else:
            out[key] = (b, ex)
    return coeff, out


def _from_factor_map(coeff: Fraction, fm) -> Expr:
    factors: list[Expr] = [Rat(coeff)]
    for _, (b, ex) in sorted(fm.items()):
        factors.append(_npow(b, ex))
    e = _nmul(factors)
    # a lone sum keeps its expanded form, so its leading term fixes the sign
    if (isinstance(e, Mul) and len(e.factors) == 2
            and isinstance(e.factors[0], Rat) and isinstance(e.factors[1], Add)):
        return _nadd([_nmul([e.factors[0], t]) for t in e.factors[1].terms])
    return e


def _leading_coeff(e: Expr) -> Fraction:
    first = add_terms(e)[0]
    return _coeff_mono(first)[0]


# ---------------------------------------------------------------------------
# RREF and null space
# ---------------------------------------------------------------------------

@dataclass
class RrefResult:
    rows: list[list[Elem]]
    pivots: list[int]              # pivot column per pivot row
    assumptions: list[str]         # genericity facts used at pivots


def rref(rows: list[list[Elem]], field: Field, lead: Optional[int] = None
         ) -> RrefResult:
    """Reduced row-echelon form.  The working rows are sparse (column ->
    nonzero entry), so a pivot step touches only the pivot row's nonzero
    columns of the rows that have an entry in the pivot column.

    The columns before `lead` (default: all of them) are a system of their
    own: rows with no entry there move to the end, in order, and the
    assumptions of the pivots on later columns are not recorded.  The
    pivots on the lead columns, their rows cut to those columns and the
    recorded assumptions are then those of an rref of the rows cut to the
    lead columns; len(pivots) is the rank of the whole matrix."""
    if not rows:
        return RrefResult([], [], [])
    ncols = len(rows[0])
    lead = ncols if lead is None else lead
    work = [{c: e for c, e in enumerate(row) if not e.is_zero()}
            for row in rows]
    first = [any(c < lead for c in row) for row in work]
    work = ([row for row, f in zip(work, first) if f]
            + [row for row, f in zip(work, first) if not f])
    zero = field.zero
    pivots: list[int] = []
    notes: list[str] = []
    r = 0
    for col in range(ncols):
        best = None
        best_class = 3
        for i in range(r, len(work)):
            e = work[i].get(col)
            if e is None:
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
        if best_class == 2 and col < lead:
            piv_num = work[best][col].num
            f = to_eform(piv_num)
            shown = f.render() if f is not None else render(piv_num)
            notes.append(f"{shown} != 0 (assumed to pivot during elimination)")
        work[r], work[best] = work[best], work[r]
        inv = field.div(field.one, work[r][col])
        prow = {c: field.mul(inv, e) for c, e in work[r].items()}
        work[r] = prow
        for i, row in enumerate(work):
            if i == r:
                continue
            factor = row.get(col)
            if factor is None:
                continue
            for c, b in prow.items():
                v = field.sub(row.get(c, zero), field.mul(factor, b))
                if v.is_zero():
                    row.pop(c, None)
                else:
                    row[c] = v
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    dense = [[row.get(c, zero) for c in range(ncols)] for row in work[:r]]
    return RrefResult(dense, pivots, notes)


def nullspace(res: RrefResult, ncols: int, field: Field
              ) -> tuple[list[list[Elem]], list[str]]:
    """Basis of the solution space of the homogeneous system on the first
    ncols columns, one vector per free column, plus any pivot genericity
    assumptions.  `res` is an rref with lead=ncols (the default when the
    matrix has ncols columns)."""
    pivoted = [(prow, pcol) for prow, pcol in zip(res.rows, res.pivots)
               if pcol < ncols]
    pivot_set = {pcol for _, pcol in pivoted}
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis: list[list[Elem]] = []
    for fc in free_cols:
        v = [field.zero] * ncols
        v[fc] = field.one
        for prow, pcol in pivoted:
            if not prow[fc].is_zero():
                v[pcol] = field.neg(prow[fc])
        basis.append(v)
    return basis, res.assumptions
