"""Canonical-form symbolic expression kernel.

Expressions are immutable trees over exact rationals.  Exponents of power
factors are ExponentForms, so products of powers merge by exponent addition
and mathematically equal monomials normalize to identical trees.  No
floating point number ever enters an expression (Rat and ExponentForm refuse
a float or a bool with TypeError); numeric evaluation lives in the oracle
module.

Storage rule: a Rat stores an integral value as an int and any other value
as a Fraction in lowest terms, one stored form per value, because int
arithmetic is several times cheaper than Fraction arithmetic and most
rationals in a condition are integers.  Only the kernel (_npow, _nmul,
_scaled, _nadd) reads the stored form; Rat.value, _coeff_mono and render
hand every other reader a Fraction.

Canonical by construction: every tree the kernel builds (the constructors
add, mul, neg, pow_, div, the operators on Expr, and expand, substitute,
the derivatives and gamma_simplify) is canonical when its inputs are, that
is, a fixed point of simplify.  A canonical Mul holds no Mul and a
canonical Add no Add.  simplify is only for trees built by hand from the
Mul, Add and Pow classes; on kernel trees, structural equality and
Expr.key() are exact tests with no simplify first.

Traversal contract: the children of a node are the operands of a Mul or
Add, the base of a Pow, the argument of a Gamma and the arguments of an Fn;
Rat, Sym, Var and Jet are leaves.  The exponent of a Pow is an
ExponentForm, not a child, so no walk over children reaches it; only
substitute rewrites exponents.  substitute is the one rebinding walk, and
map_children (rebuild canonically) serves only this module's walks; other
modules search with any_node (pre-order) and rebind with substitute.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Union

from .exponents import (Assumptions, ExponentForm, Interval, UNIT_FORM,
                        ZERO_FORM, exact)


class KernelError(Exception):
    pass


class FractionalChain(KernelError):
    """Total t-derivative requested through a fractional jet object."""


class NonPolynomial(KernelError):
    """Separating the determining condition over jet monomials met a jet
    inside a Gamma application."""


class UnsupportedDerivative(KernelError):
    pass


# ---------------------------------------------------------------------------
# Node types
# ---------------------------------------------------------------------------

class Expr:
    """An expression node.  Each subclass declares its data fields as its
    own __slots__; the slots here are caches, None until first use: the
    key and the hash.  Nodes are immutable by convention: the caches are
    the only attributes written after construction."""
    __slots__ = ("_key", "_hash")

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, neg(other))

    def __rsub__(self, other):
        return add(other, neg(self))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return pow_(self, exponent)

    def key(self):
        """The structural key: equal exactly for equal trees, and the sort
        order of canonical forms.  Computed once per node."""
        k = self._key
        if k is None:
            k = self._key = self._make_key()
        return k

    def _make_key(self):
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        # the cached keys read directly, each built on first use
        a, b = self._key, other._key
        return ((self.key() if a is None else a)
                == (other.key() if b is None else b))

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self.key())
        return h

    def __repr__(self):
        return render(self)


class Rat(Expr):
    """An exact rational constant, built from an int or a Fraction (a float
    or a bool is a TypeError).  The slot stored holds the value in its one
    stored form: an int when it is integral, else a Fraction in lowest
    terms.  value is the value as a Fraction, whatever the stored form.
    The key is (0, stored); an int and a Fraction of one value compare and
    hash equal, so the key is that of the value."""
    __slots__ = ("stored",)

    def __init__(self, value: Union[int, Fraction]):
        cls = value.__class__
        if cls is not int:
            if cls is not Fraction:
                value = exact(value)
            if value.denominator == 1:
                value = value.numerator
        self.stored = value
        self._key = self._hash = None

    @property
    def value(self) -> Fraction:
        v = self.stored
        return v if v.__class__ is Fraction else Fraction(v)

    def _make_key(self):
        return (0, self.stored)


class Sym(Expr):
    """A named scalar: declared parameter, the fractional order, or an
    unknown constant introduced by the ansatz/solver."""
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._key = self._hash = None

    def _make_key(self):
        return (1, self.name)


class Var(Expr):
    """Independent variable.  axis == -1 is time, axis >= 0 a space slot."""
    __slots__ = ("name", "axis")

    def __init__(self, name: str, axis: int):
        self.name = name
        self.axis = axis
        self._key = self._hash = None

    def _make_key(self):
        return (2, self.axis, self.name)

    @property
    def is_time(self):
        return self.axis < 0


class Jet(Expr):
    """Jet coordinate u_s^theta, with optional integer t-order or a
    fractional marker: frac == k means the object Dt^(alpha-k) u_s."""
    __slots__ = ("dep", "theta", "t_order", "frac")

    def __init__(self, dep: int, theta: tuple[int, ...] = (), t_order: int = 0,
                 frac: Optional[int] = None):
        if t_order < 0 or (theta and min(theta) < 0):
            raise ValueError("negative derivative index")
        if frac is not None and (frac < 0 or t_order > 0):
            raise ValueError("frac offset excludes positive t_order")
        self.dep = dep
        self.theta = theta
        self.t_order = t_order
        self.frac = frac
        self._key = self._hash = None

    def _make_key(self):
        return (3, self.dep, sum(self.theta), self.theta, self.t_order,
                0 if self.frac is None else 1, self.frac or 0)


class Fn(Expr):
    """Unknown/opaque function application with a derivative multi-index
    aligned with its argument list.  frac marks an opaque Dt^alpha applied
    on top (the argument list must then contain the time variable)."""
    __slots__ = ("fname", "args", "deriv", "frac")

    def __init__(self, fname: str, args: tuple[Expr, ...],
                 deriv: tuple[int, ...] = (), frac: bool = False):
        if not deriv:
            deriv = (0,) * len(args)
        elif len(deriv) != len(args):
            raise ValueError("derivative multi-index length mismatch")
        self.fname = fname
        self.args = args
        self.deriv = deriv
        self.frac = frac
        self._key = self._hash = None

    def _make_key(self):
        return (4, self.fname, tuple(a.key() for a in self.args), self.deriv,
                1 if self.frac else 0)

    def bump(self, slot: int) -> "Fn":
        d = list(self.deriv)
        d[slot] += 1
        return Fn(self.fname, self.args, tuple(d), self.frac)


class Gamma(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg
        self._key = self._hash = None

    def _make_key(self):
        return (5, self.arg.key())


# Pow, Mul and Add memoize their expansion in the slot _expanded: None
# until expand has seen the node, _EXPANDED when the node is its own
# expansion, and the expansion otherwise.  A sentinel rather than the node
# itself, so that an expanded node does not refer to itself.
_EXPANDED = object()


class Pow(Expr):
    __slots__ = ("base", "exp", "_expanded")

    def __init__(self, base: Expr, exp: ExponentForm):
        self.base = base
        self.exp = exp
        self._key = self._hash = self._expanded = None

    def _make_key(self):
        return (6, self.base.key(), self.exp.sort_key())


class Mul(Expr):
    __slots__ = ("factors", "_expanded")

    def __init__(self, factors: tuple[Expr, ...]):
        self.factors = factors
        self._key = self._hash = self._expanded = None

    def _make_key(self):
        return (7, len(self.factors), tuple(f.key() for f in self.factors))


class Add(Expr):
    __slots__ = ("terms", "_expanded")

    def __init__(self, terms: tuple[Expr, ...]):
        self.terms = terms
        self._key = self._hash = self._expanded = None

    def _make_key(self):
        return (8, len(self.terms), tuple(t.key() for t in self.terms))


ZERO = Rat(0)
ONE = Rat(1)
_MINUS_ONE = Rat(-1)
_MINUS_ONE_FORM = ExponentForm.rational(-1)
_FRACTION_ONE = Fraction(1)

ExprLike = Union[Expr, int, Fraction]


def as_expr(v: ExprLike) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Rat(v)
    raise TypeError(f"cannot coerce {v!r} to an expression")


def as_eform(v) -> ExponentForm:
    if isinstance(v, ExponentForm):
        return v
    if isinstance(v, (int, Fraction)):
        return ExponentForm.rational(v)
    if isinstance(v, Expr):
        f = to_eform(v)
        if f is None:
            raise ValueError(f"exponent {v!r} is not Q-affine in exponent atoms")
        return f
    raise TypeError(f"cannot coerce {v!r} to an exponent form")


# ---------------------------------------------------------------------------
# Canonical constructors (inputs canonical, output canonical)
# ---------------------------------------------------------------------------

def _npow(base: Expr, exp: ExponentForm) -> Expr:
    if exp.is_zero():
        return ONE
    if exp == UNIT_FORM:
        return base
    if isinstance(base, Rat):
        v = base.stored
        if v == 0:
            r = exp.as_rational()
            if r is None or r < 0:
                raise ZeroDivisionError(f"zero to the power {exp.render()}")
            return ZERO
        if v == 1:
            return ONE
        k = exp.as_integer()
        if k is not None:
            # an int to a negative power is a float, so that one goes
            # through Fraction
            return Rat(v ** k if k > 0 else Fraction(v) ** k)
        return Pow(base, exp)
    if isinstance(base, Pow):
        k = exp.as_integer()
        if k is not None:
            return _npow(base.base, base.exp.scale(k))
        # b^p with an even denominator in p is real only for b >= 0, and
        # there (b^p)^q = b^(p*q); (x^2)^(1/2) = |x| stays as it is
        p = base.exp.as_rational()
        if p is not None and p.denominator % 2 == 0:
            return _npow(base.base, exp.scale(p))
        return Pow(base, exp)
    if isinstance(base, Mul) and exp.as_integer() is not None:
        return _nmul([_npow(f, exp) for f in base.factors])
    return Pow(base, exp)


def _base_exp(f: Expr) -> tuple[Expr, ExponentForm]:
    if isinstance(f, Pow):
        return f.base, f.exp
    return f, UNIT_FORM


def _scaled(c: Union[int, Fraction], e: Expr) -> Expr:
    """c*e, c a rational in stored form and e canonical: the product
    _nmul builds, with no merging to do, since a Rat is only ever a
    product's coefficient."""
    # a stored Fraction is neither 0 nor 1
    if c.__class__ is int:
        if c == 0:
            return ZERO
        if c == 1:
            return e
    cls = e.__class__
    if cls is Rat:
        return Rat(_times(c, e.stored))
    if cls is Mul:
        factors = e.factors
        first = factors[0]
        if first.__class__ is not Rat:
            return Mul((Rat(c),) + factors)
        c = _times(c, first.stored)
        if c.__class__ is not int and c.denominator == 1:
            c = c.numerator
        if c == 1:
            return factors[1] if len(factors) == 2 else Mul(factors[1:])
        return Mul((Rat(c),) + factors[1:])
    return Mul((Rat(c), e))


def _plus(a: Union[int, Fraction], b: Union[int, Fraction]
          ) -> Union[int, Fraction]:
    """a+b for rationals in stored form, a Fraction on the left, as _times."""
    return b + a if a.__class__ is int and b.__class__ is not int else a + b


def _times(a: Union[int, Fraction], b: Union[int, Fraction]
           ) -> Union[int, Fraction]:
    """a*b for rationals in stored form, a Fraction on the left: int times
    Fraction would take Fraction.__rmul__, whose operand check goes
    through the numbers ABCs.  -1 times a Fraction is its negation."""
    if a.__class__ is not int or b.__class__ is int:
        return a * b
    return -b if a == -1 else b * a


def _inserted(factors: tuple[Expr, ...], x: Expr) -> Optional[tuple[Expr, ...]]:
    """The factors of a canonical product with the canonical non-product x
    put in key order, or None when one of them has x's base."""
    bx = x.base if x.__class__ is Pow else x
    cls, key = bx.__class__, bx.key()
    for f in factors:
        b = f.base if f.__class__ is Pow else f
        if b.__class__ is cls and b.key() == key:
            return None
    kx = x.key()
    for i, f in enumerate(factors):
        if kx < f.key():
            return factors[:i] + (x,) + factors[i:]
    return factors + (x,)


def _nmul(factors: Iterable[Expr]) -> Expr:
    if factors.__class__ is not list:
        factors = list(factors)
    n = len(factors)
    # a canonical factor alone is its own product
    if n < 2 and (n == 0 or factors[0].__class__ is not Mul):
        return factors[0] if n else ONE
    if n == 2:
        # the common products of two factors, with nothing to merge
        a, b = factors
        ca, cb = a.__class__, b.__class__
        if ca is Rat:
            return _scaled(a.stored, b)
        if cb is Rat:
            return _scaled(b.stored, a)
        if ca is not Mul and cb is not Mul:
            ba = a.base if ca is Pow else a
            bb = b.base if cb is Pow else b
            if ba.__class__ is not bb.__class__ or ba.key() != bb.key():
                return Mul((a, b) if a.key() < b.key() else (b, a))
        elif ca is not cb:
            # one factor into a product none of whose bases is its own
            m, x = (a, b) if ca is Mul else (b, a)
            out = _inserted(m.factors, x)
            if out is not None:
                return Mul(out)
    coeff = None        # the product of the rational factors, stored form
    merged: dict[Expr, list] = {}       # base -> [base, exponent, factor]
    for f in factors:
        for g in (f.factors if f.__class__ is Mul else (f,)):
            cls = g.__class__
            if cls is Rat:
                v = g.stored
                if v == 0:
                    return ZERO
                coeff = v if coeff is None else _times(coeff, v)
                continue
            if cls is Pow:
                b, e = g.base, g.exp
            else:
                b, e = g, UNIT_FORM
            entry = merged.get(b)
            if entry is None:
                merged[b] = [b, e, g]
            else:
                entry[1] = entry[1] + e
                entry[2] = None
    out: list[Expr] = []
    remerge = False
    for b, e, g in merged.values():
        if g is not None:       # a base met once: its canonical factor as given
            out.append(g)
            continue
        p = _npow(b, e)
        if p.__class__ is Rat:
            if p.stored == 0:
                return ZERO
            coeff = p.stored if coeff is None else _times(coeff, p.stored)
            continue
        # a merged power of a product or of a power, (x*y)^(1/2) squared,
        # is a product or another base's power and may merge with the others
        remerge = remerge or p.__class__ is Mul or _base_exp(p)[0] is not b
        out.append(p)
    if remerge:
        return _nmul(out if coeff is None else out + [Rat(coeff)])
    if len(out) > 1:
        out.sort(key=Expr.key)
    if coeff is None or coeff == 1:
        if not out:
            return ONE
        return out[0] if len(out) == 1 else Mul(tuple(out))
    if not out:
        return Rat(coeff)
    return Mul((Rat(coeff),) + tuple(out))


def _coeff_mono(term: Expr) -> tuple[Fraction, Optional[Expr]]:
    """Split a canonical non-Add term into rational coefficient, a Fraction,
    and monomial."""
    if isinstance(term, Rat):
        return term.value, None
    if isinstance(term, Mul) and isinstance(term.factors[0], Rat):
        return term.factors[0].value, _mono_of(term.factors[1:])
    return _FRACTION_ONE, term


def _with_coeff(coeff: Union[int, Fraction], mono: Optional[Expr]) -> Expr:
    if mono is None or coeff == 0:
        return Rat(coeff)
    if coeff == 1:
        return mono
    if isinstance(mono, Mul):
        return Mul((Rat(coeff),) + mono.factors)
    return Mul((Rat(coeff), mono))


def _mono_of(factors: tuple[Expr, ...]) -> Expr:
    return factors[0] if len(factors) == 1 else Mul(factors)


def _mono_key(factors: tuple[Expr, ...]):
    """The key of _mono_of(factors), from the factors' own keys."""
    if len(factors) == 1:
        return factors[0].key()
    return (7, len(factors), tuple([f.key() for f in factors]))


def _nadd(terms: Iterable[Expr]) -> Expr:
    if terms.__class__ is not list:
        terms = list(terms)
    # a canonical term alone is its own sum
    if not terms:
        return ZERO
    if len(terms) == 1 and terms[0].__class__ is not Add:
        return terms[0]
    const = 0           # stored form
    # monomial factors -> [coefficient, the term while it is met once]; the
    # factors are canonical nodes, so the tuple hashes by their cached hashes
    merged: dict[tuple, list] = {}
    for t in terms:
        for s in (t.terms if t.__class__ is Add else (t,)):
            cls = s.__class__
            if cls is Rat:
                const = _plus(const, s.stored)
                continue
            # the rational coefficient, in stored form, and the factors of
            # the monomial, which is not built
            if cls is Mul:
                c = s.factors[0]
                if c.__class__ is Rat:
                    c, mono = c.stored, s.factors[1:]
                else:
                    c, mono = 1, s.factors
            else:
                c, mono = 1, (s,)
            entry = merged.get(mono)
            if entry is None:
                merged[mono] = [c, s]
            else:
                entry[0] = _plus(entry[0], c)
                entry[1] = None
    # a sum factor whose coefficient merges to 1, 2*A - A, is a sum of terms
    # again and is spliced into this one
    if any(len(m) == 1 and m[0].__class__ is Add and c == 1
           for m, (c, _) in merged.items()):
        return _nadd([_with_coeff(c, _mono_of(m)) for m, (c, _) in merged.items()]
                     + [Rat(const)])
    # a term met once keeps its nonzero coefficient; only a sum can vanish
    kept = [(m, c, s) for m, (c, s) in merged.items() if s is not None or c != 0]
    kept.sort(key=lambda x: _mono_key(x[0]))
    out = [Rat(const)] if const != 0 else []
    out += [s if s is not None else _with_coeff(c, _mono_of(m)) for m, c, s in kept]
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------

def map_children(e: Expr, f: Callable[[Expr], Expr]) -> Expr:
    """Rebuild e canonically with f applied to each child; leaves come back
    unchanged."""
    if isinstance(e, (Rat, Sym, Var, Jet)):
        return e
    if isinstance(e, Mul):
        return _nmul([f(c) for c in e.factors])
    if isinstance(e, Add):
        return _nadd([f(c) for c in e.terms])
    if isinstance(e, Pow):
        return _npow(f(e.base), e.exp)
    if isinstance(e, Gamma):
        return Gamma(f(e.arg))
    if isinstance(e, Fn):
        return Fn(e.fname, tuple(f(a) for a in e.args), e.deriv, e.frac)
    raise TypeError(f"not an expression: {e!r}")


def any_node(e: Expr, pred: Callable[[Expr], bool]) -> bool:
    """Pre-order search: True when pred holds at e or at a node below it,
    the children being those of the traversal contract."""
    todo = [e]
    pop, push, extend = todo.pop, todo.append, todo.extend
    while todo:
        x = pop()
        if pred(x):
            return True
        cls = x.__class__
        if cls is Mul:
            extend(reversed(x.factors))
        elif cls is Add:
            extend(reversed(x.terms))
        elif cls is Pow:
            push(x.base)
        elif cls is Gamma:
            push(x.arg)
        elif cls is Fn:
            extend(reversed(x.args))
    return False


# ---------------------------------------------------------------------------
# Splitting products
# ---------------------------------------------------------------------------

def split_factors(term: Expr, pred: Callable[[Expr, ExponentForm], bool]
                  ) -> tuple[Expr, Expr]:
    """(selected, rest) of a canonical term: the product of the factors
    whose base and exponent satisfy pred, and the product of the others."""
    selected: list[Expr] = []
    rest: list[Expr] = []
    for f in mul_factors(term):
        (selected if pred(*_base_exp(f)) else rest).append(f)
    return _nmul(selected), _nmul(rest)


def split_power(term: Expr, base: Expr) -> tuple[ExponentForm, Expr]:
    """(g, rest) with term = base^g * rest and rest free of base factors."""
    power, rest = split_factors(term, lambda b, _: b == base)
    return (ZERO_FORM if power == ONE else _base_exp(power)[1]), rest


def summed_classes(pieces: Iterable[tuple[Expr, Expr]]
                   ) -> list[tuple[Expr, Expr]]:
    """The classes of (monomial, coefficient) pieces: the coefficients of
    equal monomials are summed and expanded once per class, zero sums are
    dropped, and classes come in monomial-key order."""
    classes: dict[tuple, tuple[Expr, list]] = {}
    for mono, coeff in pieces:
        k = mono.key()
        entry = classes.get(k)
        if entry is None:
            classes[k] = (mono, [coeff])
        else:
            entry[1].append(coeff)
    out = []
    for k in sorted(classes):
        mono, coeffs = classes[k]
        c = expand(_nadd(coeffs))
        if c != ZERO:
            out.append((mono, c))
    return out


def group_by_monomial(e: Expr, pred: Callable[[Expr, ExponentForm], bool]
                      ) -> list[tuple[Expr, Expr]]:
    """The summed classes of an expanded expression whose monomials are the
    factors of each term that pred selects."""
    return summed_classes(split_factors(t, pred) for t in add_terms(e))


# ---------------------------------------------------------------------------
# Public constructors
# ---------------------------------------------------------------------------

def add(*terms: ExprLike) -> Expr:
    return _nadd([as_expr(t) for t in terms])


def mul(*factors: ExprLike) -> Expr:
    return _nmul([as_expr(f) for f in factors])


def neg(e: ExprLike) -> Expr:
    return _nmul([_MINUS_ONE, as_expr(e)])


def pow_(base: ExprLike, exponent) -> Expr:
    return _npow(as_expr(base), as_eform(exponent))


def div(num: ExprLike, den: ExprLike) -> Expr:
    d = as_expr(den)
    if isinstance(d, Rat):
        v = d.stored
        if v == 0:
            raise ZeroDivisionError("division by zero expression")
        # 1/v from the integers of v
        inv = (Fraction(1, v) if v.__class__ is int
               else Fraction(v.denominator, v.numerator))
        return _nmul([Rat(inv), as_expr(num)])
    return _nmul([as_expr(num), _npow(d, _MINUS_ONE_FORM)])


def simplify(e: Expr) -> Expr:
    """Canonical form of a tree built by hand from the node classes:
    flattened, sorted, like monomials merged, exponent algebra applied.
    Idempotent.  Does not distribute products over sums.  Every tree the
    kernel builds is canonical already, so simplify returns it unchanged."""
    return map_children(e, simplify)


def expand(e: Expr) -> Expr:
    """Distribute products over sums and integer powers of sums; result is a
    canonical sum of monomial terms.  Memoized per node, and the result is
    its own expansion."""
    return _expand(e)


def _expand(e: Expr) -> Expr:
    cls = e.__class__
    if cls is not Add and cls is not Mul and cls is not Pow:
        return e
    out = e._expanded
    if out is not None:
        return e if out is _EXPANDED else out
    # a canonical node whose children are their own expansions, and no
    # factor of which is a sum, is its own expansion
    if cls is Add:
        terms = e.terms
        done = [_expand(t) for t in terms]
        out = e if all(x is t for x, t in zip(done, terms)) else _nadd(done)
    elif cls is Pow:
        base = _expand(e.base)
        k = e.exp.as_integer()
        if base.__class__ is Add and k is not None and k > 1:
            out = base
            for _ in range(k - 1):
                out = _mul_expanded(out, base)
        elif base is e.base:
            out = e
        else:
            out = _settle(_npow(base, e.exp))
    else:
        factors = e.factors
        done = [_expand(f) for f in factors]
        if all(x is f and x.__class__ is not Add for x, f in zip(done, factors)):
            out = e
        else:
            out = done[0]
            for f in done[1:]:
                out = _mul_expanded(out, f)
    if out is e:
        e._expanded = _EXPANDED
    else:
        e._expanded = out
        if out.__class__ in (Add, Mul, Pow):
            out._expanded = _EXPANDED
    return out


def _mul_expanded(a: Expr, b: Expr) -> Expr:
    aa = a.terms if isinstance(a, Add) else (a,)
    bb = b.terms if isinstance(b, Add) else (b,)
    return _nadd([_settle(_nmul([x, y])) for x in aa for y in bb])


def _settle(p: Expr) -> Expr:
    """The expansion of p, a product or power of expanded terms.  Merging
    powers of one sum, (1 + x)^(1/2) times (1 + x)^(1/2), can leave the sum
    as a factor or to an integer power, and then p is expanded again."""
    if p.__class__ is Mul:
        if any(f.__class__ is Add or _sum_power(f) for f in p.factors):
            return _expand(p)
    elif _sum_power(p):
        return _expand(p)
    return p


def _sum_power(f: Expr) -> bool:
    if f.__class__ is not Pow or f.base.__class__ is not Add:
        return False
    k = f.exp.as_integer()
    return k is not None and k > 1


# ---------------------------------------------------------------------------
# ExponentForm conversions
# ---------------------------------------------------------------------------

def to_eform(e: Expr) -> Optional[ExponentForm]:
    """Convert to a Q-affine combination over monomials in Syms, or None."""
    acc: dict[tuple, Union[int, Fraction]] = {}
    for t in add_terms(expand(e)):
        # the rational coefficient in stored form, and the other factors
        cls = t.__class__
        if cls is Rat:
            c, factors = t.stored, ()
        elif cls is Mul and t.factors[0].__class__ is Rat:
            c, factors = t.factors[0].stored, t.factors[1:]
        else:
            c, factors = 1, mul_factors(t)
        key = []
        for f in factors:
            b, ex = _base_exp(f)
            k = ex.as_integer()
            if b.__class__ is not Sym or k is None:
                return None
            key.append((b.name, k))
        mono = tuple(sorted(key))
        prev = acc.get(mono)
        acc[mono] = c if prev is None else _plus(prev, c)
    return ExponentForm(acc)


def from_eform(f: ExponentForm) -> Expr:
    terms = []
    for mono, c in f.coeffs:
        factors: list[Expr] = [Rat(c)]
        for name, k in mono:
            factors.append(_npow(Sym(name), ExponentForm.rational(k)))
        terms.append(_nmul(factors))
    return _nadd(terms)


def eform_subs(f: ExponentForm, bindings: Mapping[str, Expr]) -> ExponentForm:
    """Substitute expressions (themselves exponent-affine) for symbols."""
    out = ZERO_FORM
    for mono, c in f.coeffs:
        piece = ExponentForm.rational(c)
        for name, k in mono:
            if name in bindings:
                rep = to_eform(bindings[name])
                if rep is None:
                    raise ValueError(
                        f"binding for exponent symbol {name} is not exponent-affine")
                piece = piece * rep ** k
            else:
                piece = piece * ExponentForm.symbol(name, k)
        out = out + piece
    return out


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

# the node classes a substitution may bind
_ATOMS = frozenset({Sym, Var, Jet, Fn})


def substitute(e: Expr, bindings: Mapping[Expr, ExprLike]) -> Expr:
    """Simultaneous substitution, rebuilt canonically.  Keys may be Sym, Var,
    Jet or Fn nodes.  No value is substituted again, so a value may mention
    any key, its own included."""
    norm: dict[tuple, Expr] = {}
    sym_bindings: dict[str, Expr] = {}
    for k, v in bindings.items():
        k = as_expr(k)
        if k.__class__ not in _ATOMS:
            raise TypeError(f"substitution key must be an atom, got {k!r}")
        norm[k.key()] = v = as_expr(v)
        if k.__class__ is Sym:
            sym_bindings[k.name] = v

    def rep(x: Expr) -> Expr:
        cls = x.__class__
        if cls in _ATOMS:
            kk = x.key()
            if kk in norm:
                return norm[kk]
        if (cls is Pow and sym_bindings
                and x.exp.symbols() & sym_bindings.keys()):
            return _npow(rep(x.base), eform_subs(x.exp, sym_bindings))
        return map_children(x, rep)

    return rep(e)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def _is_zero(e: Expr) -> bool:
    return e.__class__ is Rat and e.stored == 0


def _diff(e: Expr, leaf: Callable[[Expr], Optional[Expr]]) -> Expr:
    """Generic derivation: leaf returns the derivative of an atom (a Sym,
    Var, Jet or Fn) or None for 'derivative is zero'; a Rat's is ZERO."""
    cls = e.__class__
    if cls is Rat:
        return ZERO
    if cls is Add:
        return _nadd([_diff(t, leaf) for t in e.terms])
    if cls is Mul:
        out = []
        factors = e.factors
        for i, f in enumerate(factors):
            df = _diff(f, leaf)
            if not _is_zero(df):
                rest = [g for j, g in enumerate(factors) if j != i]
                out.append(_nmul([df] + rest))
        return _nadd(out)
    if cls is Pow:
        db = _diff(e.base, leaf)
        if _is_zero(db):
            return ZERO
        return _nmul([from_eform(e.exp), _npow(e.base, e.exp - UNIT_FORM), db])
    if cls is Gamma:
        if not _is_zero(_diff(e.arg, leaf)):
            raise UnsupportedDerivative("no derivative rule for Gamma of a "
                                        "variable-dependent argument")
        return ZERO
    if cls in (Sym, Var, Jet, Fn):
        d = leaf(e)
        return ZERO if d is None else d
    raise TypeError(f"not an expression: {e!r}")


def partial_derivative(e: Expr, atom: ExprLike) -> Expr:
    """Partial derivative with respect to an atom: a variable, a jet
    coordinate or a symbol.  Every other variable, jet and symbol is an
    independent coordinate; an opaque function is differentiated in each
    argument equal to the atom."""
    atom = as_expr(atom)
    kind, key = atom.__class__, atom.key()

    def leaf(x: Expr) -> Optional[Expr]:
        cls = x.__class__
        if cls is kind and x.key() == key:
            return ONE
        if cls is Fn:
            out = []
            for i, a in enumerate(x.args):
                if a.__class__ is kind and a.key() == key:
                    if x.frac and kind is Var and atom.is_time:
                        raise FractionalChain(
                            "t-derivative through an opaque fractional application")
                    out.append(x.bump(i))
            return _nadd(out)
        return None

    return _diff(e, leaf)


diff_wrt = partial_derivative


def _bump_jet(j: Jet, v: Var) -> Jet:
    if v.is_time:
        if j.frac is not None:
            raise FractionalChain(
                "total t-derivative through a fractional jet is undefined in the kernel")
        return Jet(j.dep, j.theta, j.t_order + 1, None)
    theta = list(j.theta)
    while len(theta) <= v.axis:
        theta.append(0)
    theta[v.axis] += 1
    return Jet(j.dep, tuple(theta), j.t_order, j.frac)


def total_derivative(e: Expr, v: Var) -> Expr:
    """Total derivative D_v: chains through jet coordinates and through
    unknown-function arguments."""
    def leaf(x: Expr) -> Optional[Expr]:
        if isinstance(x, Var):
            return ONE if x == v else ZERO
        if isinstance(x, Jet):
            return _bump_jet(x, v)
        if isinstance(x, Fn):
            out = []
            for i, a in enumerate(x.args):
                da = leaf(a)
                if da is None or da == ZERO:
                    continue
                if x.frac and v.is_time:
                    raise FractionalChain(
                        "t-derivative through an opaque fractional application")
                out.append(_nmul([x.bump(i), da]))
            return _nadd(out)
        return None

    return _diff(e, leaf)


# ---------------------------------------------------------------------------
# Structure queries
# ---------------------------------------------------------------------------

def atoms(e: Expr, kind) -> list:
    """All distinct atoms of the given node class (one class, which no
    node class subclasses), in canonical order."""
    found: dict[tuple, Expr] = {}

    def note(x: Expr) -> bool:
        if x.__class__ is kind:
            found[x.key()] = x
        return False        # never matches, so every node is visited

    any_node(e, note)
    return [found[k] for k in sorted(found)]


def _is_jet(x: Expr) -> bool:
    return x.__class__ is Jet


def depends_on_jets(e: Expr) -> bool:
    return any_node(e, _is_jet)


def add_terms(e: Expr) -> tuple[Expr, ...]:
    return e.terms if isinstance(e, Add) else (e,)


def mul_factors(e: Expr) -> tuple[Expr, ...]:
    return e.factors if isinstance(e, Mul) else (e,)


# ---------------------------------------------------------------------------
# Gamma normalization
# ---------------------------------------------------------------------------

def _shift_count(iv: Interval) -> int:
    """The number of integers j >= 1 for which iv - j is positive: how often
    Gamma(z) = (z-1) Gamma(z-1) applies while the argument stays provably
    greater than 1, for z in iv."""
    if iv.lo is None:
        return 0
    k = math.floor(iv.lo)
    if k == iv.lo and not iv.lo_open:
        k -= 1
    return max(k, 0)


def _ratio(n: int, d: int) -> Union[int, Fraction]:
    """n/d in the stored form of Rat, for d > 0: an int when d divides n,
    else a Fraction in lowest terms.  Integer arithmetic but for that
    Fraction."""
    g = math.gcd(n, d)
    return n // g if g == d else Fraction(n // g, d // g)


def _gamma_parts(n: int, d: int) -> tuple[int, int, Optional[int]]:
    """(a, b, m) with Gamma(n/d) = (a/b)*Gamma(m/d), for n/d in lowest
    terms, d > 0, in the normal form of gamma_simplify: m is None for a
    positive integer n/d, whose Gamma is the factorial a; otherwise
    m/d = n/d-k, in lowest terms, and a/b = (n/d-1)(n/d-2)...(n/d-k),
    k = floor(n/d) for n/d > 0 and k = 0 else.  Integer arithmetic
    throughout."""
    if d == 1 and n >= 1:
        return math.factorial(n - 1), 1, None
    if n < d:
        return 1, 1, n
    k = n // d
    # (n-d)(n-2d)...(n-kd) over d^k
    return math.prod(range(n - d, n - k * d - d, -d)), d ** k, n - k * d


def gamma_of_rational(r: Fraction) -> Expr:
    """Gamma(r) in the normal form of gamma_simplify: a factorial for a
    positive integer, Gamma(r) itself at a pole (callers handle these
    before building), and otherwise Gamma(r) = (r-1)(r-2)...(r-k)
    Gamma(r-k), k = floor(r) for r > 0, with the k prefactors one Rat."""
    n, d = r.as_integer_ratio()
    a, b, m = _gamma_parts(n, d)
    c = Rat(_ratio(a, b))
    return c if m is None else _nmul([c, Gamma(Rat(_ratio(m, d)))])


def gamma_ratio(tn: int, td: int, bn: int, bd: int) -> Expr:
    """Gamma(tn/td)/Gamma(bn/bd) in the normal form of gamma_simplify, for
    td, bd > 0 and bn/bd not a pole.  The two Gammas left by the recurrence
    cancel when the arguments differ by an integer, that is when their
    reduced arguments are equal.  The nodes are built directly: a
    canonical product holds its Rat first, then the Gamma, then the power
    of a Gamma."""
    g = math.gcd(tn, td)
    tn, td = tn // g, td // g
    at, bt, zt = _gamma_parts(tn, td)
    g = math.gcd(bn, bd)
    bn, bd = bn // g, bd // g
    ab, bb, zb = _gamma_parts(bn, bd)
    c = _ratio(at * bb, bt * ab)
    factors = [] if c == 1 else [Rat(c)]
    if zt != zb or td != bd:
        if zt is not None:
            factors.append(Gamma(Rat(_ratio(zt, td))))
        if zb is not None:
            factors.append(Pow(Gamma(Rat(_ratio(zb, bd))), _MINUS_ONE_FORM))
    if not factors:
        return ONE
    return factors[0] if len(factors) == 1 else Mul(tuple(factors))


def gamma_simplify(e: Expr, assumptions: Optional[Assumptions] = None) -> Expr:
    """Normalize Gamma applications: integer arguments evaluate to factorials
    and any other argument z is base-shifted in one step,
    Gamma(z) = (z-1)(z-2)...(z-k) Gamma(z-k), k being the number of integers
    j >= 1 with z-j provably positive.  k is read off the interval of z, so
    there is no cap on it; a rational z goes to gamma_of_rational.
    Ratios Gamma(z+m)/Gamma(z) then cancel through ordinary exponent
    merging, whatever m.  Idempotent."""
    asm = assumptions if assumptions is not None else Assumptions()

    def transform(x: Expr) -> Expr:
        if isinstance(x, Gamma):
            arg = transform(x.arg)
            f = to_eform(arg)
            if f is None:
                return Gamma(arg)
            r = f.as_rational()
            if r is not None:
                return gamma_of_rational(r)
            k = _shift_count(asm.interval_of(f))
            prefactors = [from_eform(f - ExponentForm.rational(j))
                          for j in range(1, k + 1)]
            core = Gamma(from_eform(f - ExponentForm.rational(k)))
            return _nmul(prefactors + [core])
        return map_children(x, transform)

    return transform(e)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render(e: Expr, sig=None) -> str:
    """Deterministic plain-text rendering.  sig (a model.Signature) supplies
    variable names; without it generic names u1.., x1.., t, a are used."""
    dep_name = (lambda s: sig.dep_names[s]) if sig is not None else (lambda s: f"u{s + 1}")
    space_name = (lambda i: sig.space_names[i]) if sig is not None else (lambda i: f"x{i + 1}")
    alpha_name = sig.alpha_name if sig is not None else "a"

    def jet_str(j: Jet) -> str:
        base = dep_name(j.dep)
        subs = "t" * j.t_order + "".join(space_name(i) * k for i, k in enumerate(j.theta))
        body = base + ("_" + subs if subs else "")
        if j.frac is not None:
            off = f"{alpha_name}-{j.frac}" if j.frac else alpha_name
            return f"Dt^({off})[{body}]"
        return body

    def fn_str(f: Fn) -> str:
        subs = []
        for a, k in zip(f.args, f.deriv):
            if k:
                nm = a.name if isinstance(a, Var) else render(a, sig)
                subs.append(nm * k)
        body = f.fname + ("_" + "".join(subs) if subs else "")
        if f.frac:
            return f"Dt^{alpha_name}[{body}]"
        return body

    def pw(x: Expr, prec: int) -> str:
        # prec: 0 add-context, 1 mul-context, 2 power/atom context
        if isinstance(x, Rat):
            s = str(x.value)
            return f"({s})" if (prec >= 1 and (x.value < 0 or x.value.denominator != 1)) else s
        if isinstance(x, Sym):
            return x.name
        if isinstance(x, Var):
            return x.name
        if isinstance(x, Jet):
            return jet_str(x)
        if isinstance(x, Fn):
            return fn_str(x)
        if isinstance(x, Gamma):
            return f"Gamma({pw(x.arg, 0)})"
        if isinstance(x, Pow):
            b = pw(x.base, 2)
            if isinstance(x.base, (Mul, Pow)):
                b = f"({b})"
            es = x.exp.render()
            needs = not (x.exp.is_rational() and x.exp.as_rational().denominator == 1
                         and x.exp.as_rational() >= 0)
            return f"{b}^({es})" if needs else f"{b}^{es}"
        if isinstance(x, Mul):
            num, den = [], []
            coeff = Fraction(1)
            for f in x.factors:
                if isinstance(f, Rat):
                    coeff = f.value
                    continue
                b, ex = _base_exp(f)
                r = ex.as_rational()
                if r is not None and r < 0:
                    den.append(_npow(b, ex.scale(-1)))
                else:
                    num.append(f)
            parts = []
            sign = ""
            if coeff == -1 and num:
                sign = "-"
            elif coeff != 1 or not num:
                parts.append(pw(Rat(coeff), 1))
            parts.extend(pw(f, 1) if not isinstance(f, Add) else f"({pw(f, 0)})"
                         for f in num)
            s = sign + "*".join(parts)
            if den:
                ds = "*".join(pw(f, 1) if not isinstance(f, (Add, Mul)) else f"({pw(f, 0)})"
                              for f in den)
                if len(den) > 1:
                    ds = f"({ds})"
                s = f"{s}/{ds}"
            return s
        if isinstance(x, Add):
            c0, m0 = _coeff_mono(x.terms[0])
            out = ("-" + pw(_with_coeff(-c0, m0), 1)) if c0 < 0 else pw(x.terms[0], 0)
            for t in x.terms[1:]:
                c, mono = _coeff_mono(t)
                if c < 0:
                    out += " - " + pw(_with_coeff(-c, mono), 1)
                else:
                    out += " + " + pw(t, 1)
            return f"({out})" if prec >= 1 else out
        raise TypeError(f"not an expression: {x!r}")

    return pw(e, 0)
