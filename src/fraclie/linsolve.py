"""Exact linear algebra over the field of rational functions in the declared
parameters (alpha, user parameters, branch constants, Gamma atoms).

Polynomials are sparse and distributed: a dict from monomial to nonzero
Fraction, a monomial being a tuple of (atom id, exponent) pairs sorted by
id.  An atom is the base of a power factor: a parameter, a Gamma
application, or in verification residuals a variable or a function.  A
content-free sum as a base, as in (1 + a)^(1/2), has the id of that sum.
The Field that makes an element numbers its atoms and sums, so an element
belongs to that Field.  An exponent is an int, or an ExponentForm when it
is not an integer.

An element is a numerator polynomial over a denominator kept in one form,
its factor map: a positive rational content times atoms and content-free
sums, each with an exponent.  A product merges the two maps, and a sum is
taken over their lcm, each numerator times its expanded cofactor; no
denominator is expanded and split again.  Shared factors cancel, the
denominator's factors are divided out of the numerator where they divide it
exactly, and a sign rule puts the sign of a lone sum denominator on the
numerator.  The forms are those of the canonical expressions the elements
render to (Elem.num, Elem.den, Field.to_expr), so rendering is the only
conversion back to expressions.  Most entries of a determining matrix are
rational, and arithmetic on two of them is plain Fraction arithmetic.
Zero-testing is structural on the numerator.  A value over a sum can have
more than one form, so elements compare by value: a == b when the numerator
of a - b is zero.

Pivots prefer rational entries, then entries provably nonzero under the
declared assumptions; pivoting on anything else records a genericity
assumption.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional

from .exponents import Assumptions, ExponentForm
from .expr import (Add, Expr, Fn, Gamma, Jet, Rat, Sym, Var, ZERO, ONE,
                   _base_exp, _coeff_mono, _nadd, _nmul, _npow, add_terms,
                   any_node, expand, gamma_simplify, mul_factors, render,
                   to_eform)
from .records import record

Mono = tuple     # ((atom id, exponent), ...), sorted by atom id
Poly = dict      # Mono -> nonzero Fraction
Term = tuple     # (Fraction, Mono): a rational times a monomial

# Bases whose merged powers stay powers of themselves; a merged power of
# any other base (Rat, Pow, Mul, Add) goes through the kernel's _nmul.
_SAFE = (Sym, Var, Jet, Fn, Gamma)


def _exp(ex: ExponentForm):
    k = ex.as_integer()
    return ex if k is None else k


def _eform(e) -> ExponentForm:
    return ExponentForm.rational(e) if type(e) is int else e


def _eadd(x, y):
    if type(x) is int and type(y) is int:
        return x + y
    return _exp(_eform(x) + _eform(y))


def _eneg(x):
    return -x if type(x) is int else x.scale(-1)


def _erational(x) -> Optional[Fraction]:
    return Fraction(x) if type(x) is int else x.as_rational()


def _le(x, y) -> bool:
    """x <= y when both exponents are rational; False otherwise."""
    rx, ry = _erational(x), _erational(y)
    return rx is not None and ry is not None and rx <= ry


def _padd(f: Poly, g: Poly) -> Poly:
    out = dict(f)
    for m, c in g.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            del out[m]
    return out


def _content(values: Iterable[Fraction]) -> Fraction:
    """Positive rational content: the gcd of the numerators over the lcm of
    the denominators."""
    num, den = 0, 1
    for c in values:
        num = math.gcd(num, c.numerator)
        den = math.lcm(den, c.denominator)
    return Fraction(num, den)


class Elem:
    """p / (c * prod(f)): numerator polynomial p, positive rational content
    c and factor map f (atom or sum id -> exponent) of the denominator.
    r is the value when the element is rational, else None."""

    __slots__ = ("p", "c", "f", "r", "_fld")

    def __init__(self, fld: "Field", p: Poly, c: Fraction, f: dict,
                 r: Optional[Fraction] = None):
        self._fld = fld
        self.p, self.c, self.f, self.r = p, c, f, r

    def is_zero(self) -> bool:
        return not self.p

    @property
    def num(self) -> Expr:
        return self._fld._poly_expr(self.p)

    @property
    def den(self) -> Expr:
        return self._fld._den_expr(self.c, self.f)

    def __eq__(self, other) -> bool:
        """Equal values: the difference's numerator is zero.  Atom ids are
        per Field, so elements of two Fields do not compare."""
        return (isinstance(other, Elem) and self._fld is other._fld
                and self._fld.sub(self, other).is_zero())

    def __repr__(self) -> str:
        return f"Elem({render(self.num)}, {render(self.den)})"


class Field:
    def __init__(self, assumptions: Optional[Assumptions] = None):
        self.asm = assumptions if assumptions is not None else Assumptions()
        # atoms and content-free sums share one id space; per id: the
        # expression of the base, the atom (None for a sum) and the sum
        # (None for an atom)
        self._ids: dict = {}
        self._atoms: list[Optional[Expr]] = []
        self._sums: list[Optional[Poly]] = []
        self._exprs: list[Optional[Expr]] = []
        self._safe: list[bool] = []
        self._varjet: list[bool] = []
        self.zero = Elem(self, {}, Fraction(1), {}, Fraction(0))
        self.one = self._rat(Fraction(1))

    def norm_expr(self, e: Expr) -> Expr:
        e = expand(e)
        # expand's output is canonical, so without a Gamma node
        # gamma_simplify would rebuild the same tree
        if any_node(e, lambda x: isinstance(x, Gamma)):
            return gamma_simplify(e, self.asm)
        return e

    # -- atoms, terms and polynomials -------------------------------------
    def _new_id(self, atom: Optional[Expr], s: Optional[Poly]) -> int:
        self._atoms.append(atom)
        self._sums.append(s)
        self._exprs.append(atom)
        self._safe.append(isinstance(atom, _SAFE))
        self._varjet.append(isinstance(atom, (Var, Jet)))
        return len(self._atoms) - 1

    def _atom(self, b: Expr) -> int:
        """Id of a power's base.  A content-free sum, as in (1 + a)^(1/2),
        has the id of that sum, so it cancels against the sum's factors."""
        k = b.key()
        i = self._ids.get(k)
        if i is None:
            s = self._expr_poly(b) if isinstance(b, Add) else None
            if s is not None and _content(s.values()) == 1:
                i = self._sum(s)
                self._exprs[i] = b
            else:
                i = self._new_id(b, None)
            self._ids[k] = i
        return i

    def _sum(self, s: Poly) -> int:
        """Id of a content-free sum."""
        k = frozenset(s.items())
        i = self._ids.get(k)
        if i is None:
            i = self._ids[k] = self._new_id(None, s)
        return i

    def _base_expr(self, i: int) -> Expr:
        if self._exprs[i] is None:
            self._exprs[i] = self._poly_expr(self._sums[i])
        return self._exprs[i]

    def term(self, t: Expr) -> Term:
        """A canonical non-sum expression as a rational times a monomial."""
        c, mono = _coeff_mono(t)
        if mono is None:
            return c, ()
        return c, tuple(sorted((self._atom(b), _exp(ex))
                               for b, ex in map(_base_exp, mul_factors(mono))))

    def terms(self, e: Expr) -> list[Term]:
        """The terms of an expression after norm_expr, in canonical order."""
        return [self.term(t) for t in add_terms(self.norm_expr(e)) if t != ZERO]

    def _expr_poly(self, e: Expr) -> Poly:
        """An expanded expression as a polynomial."""
        out: Poly = {}
        for t in add_terms(e):
            if t != ZERO:
                c, m = self.term(t)
                out[m] = out.get(m, 0) + c
        return {m: c for m, c in out.items() if c}

    def _mono_factors(self, m: Mono) -> list[Expr]:
        return [_npow(self._base_expr(i), _eform(e)) for i, e in m]

    def _poly_expr(self, p: Poly) -> Expr:
        return _nadd([_nmul([Rat(c)] + self._mono_factors(m)) for m, c in p.items()])

    def mono_mul(self, m1: Mono, m2: Mono) -> Optional[Mono]:
        """The product of two monomials, or None when a merged power of a
        base other than an atom of _SAFE has to go through _nmul."""
        if not m1:
            return m2
        if not m2:
            return m1
        d = dict(m1)
        for i, e in m2:
            if i in d:
                if not self._safe[i]:
                    return None
                s = _eadd(d[i], e)
                if s == 0:
                    del d[i]
                else:
                    d[i] = s
            else:
                d[i] = e
        return tuple(sorted(d.items()))

    def term_mul(self, s: Term, t: Term) -> list[Term]:
        """The terms of a product of two terms: one, unless a merged power
        rebuilds through _nmul and expands."""
        m = self.mono_mul(s[1], t[1])
        if m is not None:
            return [(s[0] * t[0], m)]
        prod = _nmul(self._mono_factors(s[1]) + self._mono_factors(t[1]))
        return [(s[0] * t[0] * c, m) for c, m in self.terms(prod)]

    def _pmul(self, f: Poly, g: Poly) -> Poly:
        out: Poly = {}
        for m1, c1 in f.items():
            for m2, c2 in g.items():
                m = self.mono_mul(m1, m2)
                if m is not None:
                    out[m] = out.get(m, 0) + c1 * c2
                    continue
                for c, m in self.term_mul((c1, m1), (c2, m2)):
                    out[m] = out.get(m, 0) + c
        return {m: c for m, c in out.items() if c}

    def _power(self, i: int, e) -> Poly:
        """Factor i to the exponent e, expanded when it is a sum to a
        positive integer power."""
        s = self._sums[i]
        if s is None or type(e) is not int or e < 1:
            return {((i, e),): Fraction(1)}
        out = s
        for _ in range(e - 1):
            out = self._pmul(out, s)
        return out

    def _fmap(self, p: Poly) -> tuple[Fraction, dict]:
        """Rational coefficient and factor map of a nonzero polynomial: a
        monomial's coefficient and atoms, or a sum's positive content and
        the sum divided by it, so (2 + 4*a)/2 and 1 + 2*a share one form."""
        if len(p) == 1:
            (m, c), = p.items()
            return c, dict(m)
        content = _content(p.values())
        s = p if content == 1 else {m: c / content for m, c in p.items()}
        return content, {self._sum(s): 1}

    def _den_expr(self, c: Fraction, f: dict) -> Expr:
        if not f:
            return Rat(c)
        if len(f) == 1:
            (i, e), = f.items()
            if e == 1 and self._sums[i] is not None:
                # a lone sum keeps its expanded form
                return self._poly_expr({m: c * v for m, v in self._sums[i].items()})
        return _nmul([Rat(c)] + [_npow(self._base_expr(i), _eform(e))
                                 for i, e in f.items()])

    def _is_poly(self, p: Poly) -> bool:
        """Positive integer exponents only, and no variable or jet."""
        return all(type(e) is int and e > 0 and not self._varjet[i]
                   for m in p for i, e in m)

    def _rat(self, v: Fraction) -> Elem:
        """The normal form of a rational element."""
        if not v:
            return self.zero
        return Elem(self, {(): Fraction(v.numerator)}, Fraction(v.denominator), {}, v)

    def _make(self, p: Poly, c: Fraction, f: dict) -> Elem:
        if not p:
            return self.zero
        if not f and len(p) == 1 and () in p:
            return self._rat(p[()] / c)
        return Elem(self, p, c, f)

    # -- conversion ----------------------------------------------------------
    def elem(self, num: Expr, den: Expr = ONE) -> Elem:
        if isinstance(num, Rat) and den == ONE:
            return self._rat(num.value)
        a = self.fold(self.terms(num))
        if den == ONE:
            return a
        return self.div(a, self.fold(self.terms(den)))

    def fold(self, terms: Iterable[Term]) -> Elem:
        """The sum of the elements of the terms, added in the given order."""
        acc = self.zero
        for c, m in terms:
            acc = self.add(acc, self._term_elem(c, m))
        return acc

    def _term_elem(self, c: Fraction, m: Mono) -> Elem:
        """The element of one term: the factors with a negative rational
        exponent, variables and jets aside, form the denominator."""
        num: list = []
        inv: list = []
        for i, e in m:
            r = e if type(e) is int else e.as_rational()
            (inv if r is not None and r < 0 and not self._varjet[i] else num).append((i, e))
        if not inv:
            return self._make({tuple(num): Fraction(c.numerator)},
                              Fraction(c.denominator), {})
        cd, fd = Fraction(1), {}
        for i, e in inv:
            b, k = self._atoms[i], _eneg(e)
            if isinstance(b, Add) and type(k) is int:
                cq, fq = self._fmap(self._expr_poly(b))
                cq, fq = cq ** k, {j: k for j in fq}
            elif self._safe[i] or b is None or isinstance(b, Add):
                cq, fq = 1, {i: k}
            else:
                cq, fq = self._fmap(self._expr_poly(self.norm_expr(_npow(b, _eform(k)))))
            cd, fd = cd * cq, _merge(fd, fq)
        return self._cancel({tuple(num): c}, cd, fd)

    def to_expr(self, a: Elem) -> Expr:
        if not a.f and a.c == 1:
            return a.num
        return _nmul([a.num, _npow(a.den, ExponentForm.rational(-1))])

    # -- arithmetic ---------------------------------------------------------
    # With both operands rational, Fraction arithmetic gives the Elem the
    # general path builds.
    def add(self, a: Elem, b: Elem) -> Elem:
        if a.r is not None and b.r is not None:
            return self._rat(a.r + b.r)
        return self._add(a, b)

    def _add(self, a: Elem, b: Elem) -> Elem:
        if not a.p:
            return b
        if not b.p:
            return a
        f = _lcm(a.f, b.f)
        num = _padd(self._pmul(a.p, self._from_fmap(b.c, _over(f, a.f))),
                    self._pmul(b.p, self._from_fmap(a.c, _over(f, b.f))))
        return self._cancel(num, a.c * b.c, f) if num else self.zero

    def neg(self, a: Elem) -> Elem:
        if a.r is not None:
            return self._rat(-a.r)
        return Elem(self, {m: -c for m, c in a.p.items()}, a.c, a.f)

    def sub(self, a: Elem, b: Elem) -> Elem:
        if a.r is not None and b.r is not None:
            return self._rat(a.r - b.r)
        return self._add(a, self.neg(b))

    def mul(self, a: Elem, b: Elem) -> Elem:
        if not a.p or not b.p:
            return self.zero
        if a.r is not None and b.r is not None:
            return self._rat(a.r * b.r)
        return self._cancel(self._pmul(a.p, b.p), a.c * b.c, _merge(a.f, b.f))

    def div(self, a: Elem, b: Elem) -> Elem:
        if not b.p:
            raise ZeroDivisionError("division by zero field element")
        if not a.p:
            return self.zero
        if a.r is not None and b.r is not None:
            return self._rat(a.r / b.r)
        cb, fb = self._fmap(b.p)
        return self._cancel(self._pmul(a.p, self._from_fmap(b.c, b.f)), a.c * cb,
                            _merge(a.f, fb))

    # -- factor cancellation -------------------------------------------------
    def _cancel(self, num: Poly, cd: Fraction, fd: dict) -> Elem:
        """num / (cd * fd): the factors of the map fd shared with the
        numerator cancelled, the rest divided out of the numerator where they
        divide it exactly, and the sign of a lone sum denominator's leading
        term moved to the numerator.  What is left of fd is the new map."""
        cn, fn = self._fmap(num)
        fd = dict(fd)
        for i, en in fn.items():
            ed = fd.get(i)
            if ed is not None:
                shared = en if _le(en, ed) else ed
                fn[i] = _eadd(en, _eneg(shared))
                fd[i] = _eadd(ed, _eneg(shared))
        coeff = cn / cd
        num = self._from_fmap(Fraction(coeff.numerator), fn)
        dc = Fraction(coeff.denominator)
        num, fd = self._divide_out(num, {i: e for i, e in fd.items() if e != 0})
        if len(fd) == 1:
            (i, e), = fd.items()
            if e == 1 and self._sums[i] is not None and self._leading_negative(i):
                num = {m: -c for m, c in num.items()}
                fd = {self._sum({m: -c for m, c in self._sums[i].items()}): 1}
        return self._make(num, dc, fd)

    def _from_fmap(self, coeff: Fraction, fm: dict) -> Poly:
        mono = []
        p: Poly = {}
        for i, e in fm.items():
            if e == 0:
                continue
            if self._sums[i] is None or type(e) is not int:
                mono.append((i, e))
            else:
                p = self._power(i, e) if not p else self._pmul(p, self._power(i, e))
        base = {tuple(sorted(mono)): coeff}
        return self._pmul(base, p) if p else base

    def _divide_out(self, num: Poly, fd: dict) -> tuple[Poly, dict]:
        """Divide the numerator by the denominator factors with a positive
        integer exponent that divide it exactly, as polynomials, in the order
        of their expressions' keys, and lower their exponents in the factor
        map it returns.  A monomial numerator has had its atoms cancelled
        already, and no sum divides a monomial."""
        if len(num) < 2 or not self._is_poly(num):
            return num, fd
        eligible = [i for i, e in fd.items() if type(e) is int and e > 0]
        left = dict(fd)
        for i in sorted(eligible, key=lambda i: self._base_expr(i).key()):
            g = self._power(i, 1)
            if not self._is_poly(g):
                continue
            while left[i] > 0:
                q = _poly_divide(num, g)
                if q is None:
                    break
                num = q
                left[i] -= 1
        return num, {i: e for i, e in left.items() if e != 0}

    def _leading_negative(self, i: int) -> bool:
        """The first term of the sum's canonical expression has a negative
        coefficient."""
        return _coeff_mono(add_terms(self._base_expr(i))[0])[0] < 0

    # -- pivot admissibility ---------------------------------------------------
    def provably_nonzero(self, e: Elem) -> bool:
        """Whether a field element's numerator is nonzero under the declared
        assumptions: every factor of its common monomial is, and so is the
        rest, a sum whose sign is decided."""
        p = e.p
        if not p:
            return False
        if len(p) == 1:
            (m, _), = p.items()
            return all(self._atom_nonzero(i) for i, _ in m)
        common: Optional[dict] = None
        for m in p:
            powers = {i: e for i, e in m if _erational(e) is not None}
            if common is None:
                common = powers
            else:
                common = {i: (e if _le(e, common[i]) else common[i])
                          for i, e in powers.items() if i in common}
            if not common:
                break
        if common and not all(self._atom_nonzero(i) for i in common):
            return False
        rest = p
        if common:
            rest = {}
            for m, c in p.items():
                d = dict(m)
                for i, e in common.items():
                    d[i] = _eadd(d[i], _eneg(e))
                rest[tuple(sorted((i, e) for i, e in d.items() if e != 0))] = c
        f = self._eform_of(rest)
        return f is not None and self.asm.sign(f) in (1, -1)

    def _atom_nonzero(self, i: int) -> bool:
        b = self._base_expr(i)
        if isinstance(b, (Rat, Gamma)):
            return True
        if isinstance(b, Sym) and self.asm.is_declared_nonzero(b.name):
            return True
        f = to_eform(b)
        return f is not None and self.asm.sign(f) in (1, -1)

    def _eform_of(self, p: Poly) -> Optional[ExponentForm]:
        """A polynomial in parameters with integer exponents as an
        ExponentForm, or None."""
        acc = {}
        for m, c in p.items():
            key = []
            for i, e in m:
                b = self._atoms[i]
                if not isinstance(b, Sym) or type(e) is not int:
                    return None
                key.append((b.name, e))
            acc[tuple(sorted(key))] = c
        return ExponentForm(acc)


def _merge(f: dict, g: dict) -> dict:
    """The factor map of a product of two factor maps."""
    out = dict(f)
    for i, e in g.items():
        out[i] = _eadd(out[i], e) if i in out else e
    return {i: e for i, e in out.items() if e != 0}


def _over(f: dict, g: dict) -> dict:
    """The factor map of a quotient of two factor maps."""
    return _merge(f, {i: _eneg(e) for i, e in g.items()})


def _lcm(f: dict, g: dict) -> dict:
    """The factor map of the lcm of two denominators: per factor the common
    exponent, else the larger one when both are rational, else their sum."""
    out = dict(f)
    for i, e in g.items():
        d = out.get(i)
        if d is None or d == e or _le(d, e):
            out[i] = e
        elif not _le(e, d):
            out[i] = _eadd(d, e)
    return {i: e for i, e in out.items() if e != 0}


# ---------------------------------------------------------------------------
# Exact polynomial division
# ---------------------------------------------------------------------------

def _poly_divide(f: Poly, g: Poly) -> Optional[Poly]:
    """Exact division f/g as polynomials; None when not exactly divisible.
    A monomial is worked on as (total degree, dense exponent vector), so
    max() gives the leading one in graded lexicographic order.  Each step
    cancels the leading monomial of the remainder and adds only smaller
    ones, since the order is a monomial order, so the loop ends."""
    if not g:
        return None
    if not f:
        return {}
    variables = sorted({key for m in list(f) + list(g) for key, _ in m})
    index = {v: i for i, v in enumerate(variables)}

    def graded(mono) -> tuple:
        vec = [0] * len(variables)
        for key, k in mono:
            vec[index[key]] = k
        return sum(vec), tuple(vec)

    gw = {graded(m): c for m, c in g.items()}
    glead = max(gw)
    gc = gw[glead]
    work = {graded(m): c for m, c in f.items()}
    quotient: Poly = {}
    while work:
        flead = max(work)
        qvec = tuple(a - b for a, b in zip(flead[1], glead[1]))
        if any(k < 0 for k in qvec):
            return None
        qc = work[flead] / gc
        quotient[tuple((variables[i], k) for i, k in enumerate(qvec) if k)] = qc
        for (d, v), c in gw.items():
            m = (flead[0] - glead[0] + d, tuple(a + b for a, b in zip(qvec, v)))
            nv = work.get(m, 0) - qc * c
            if nv:
                work[m] = nv
            else:
                del work[m]
    return quotient


# ---------------------------------------------------------------------------
# RREF and null space
# ---------------------------------------------------------------------------

@record
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
            if e.r is not None:
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
