"""Exact exponent algebra and sign decisions.

Exponents of power factors live in a Q-affine module over monomials in the
declared exponent atoms (the fractional order symbol, user parameters).
Every exponent in the target problem class has this shape: a-1, 2a-1,
(2a-1)*L + a, 2*c1/w - 2, 2*a/(3*n), ...

A coefficient is stored as an int when it is integral and as a Fraction in
lowest terms otherwise, the storage rule of expr.Rat: most exponents are
integers, and int arithmetic and hashing are several times cheaper than
Fraction's.  An int and a Fraction of one value compare and hash equal, so
the rule changes no key, hash or order.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .records import record

# A basis monomial is a sorted tuple of (symbol name, integer power).
Monomial = tuple[tuple[str, int], ...]

UNIT: Monomial = ()


def exact(value) -> Fraction:
    """value as a Fraction.  A float or a bool is refused with TypeError:
    neither is an exact rational, and Fraction would take either silently
    (0.1 as 3602879701896397/36028797018963968, True as 1)."""
    if value.__class__ is Fraction:
        return value
    if isinstance(value, (bool, float)):
        raise TypeError(f"{value!r} is not an exact rational; "
                        "pass an int or a Fraction")
    return Fraction(value)


def _stored(c):
    """c in its stored form: an int when integral, else a Fraction in lowest
    terms (a float or a bool is refused by exact)."""
    cls = c.__class__
    if cls is int:
        return c
    if cls is not Fraction:
        c = exact(c)
    return c.numerator if c.denominator == 1 else c


class ExponentForm:
    """Q-linear combination of basis monomials; UNIT is the constant slot.

    coeffs is the sorted tuple of (monomial, coefficient) pairs with nonzero
    coefficients.  Storage rule, as for expr.Rat: a coefficient is stored as
    an int when it is integral and as a Fraction in lowest terms otherwise,
    one stored form per value, so most exponent arithmetic is int
    arithmetic.  An int and a Fraction of one value compare and hash equal,
    so keys, hashes and orderings are those of the values."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: Mapping[Monomial, Fraction] | Iterable[tuple[Monomial, Fraction]] = ()):
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        acc: dict[Monomial, Fraction] = {}
        for mono, c in items:
            if c.__class__ is not int:
                c = _stored(c)
            if c:
                prev = acc.get(mono)
                acc[mono] = c if prev is None else prev + c
        self.coeffs = _canonical(acc)
        self._hash = None

    @staticmethod
    def _of(coeffs: tuple) -> "ExponentForm":
        """The form with coeffs, already sorted, nonzero and stored."""
        out = object.__new__(ExponentForm)
        out.coeffs = coeffs
        out._hash = None
        return out

    # -- constructors ------------------------------------------------------
    @staticmethod
    def rational(value) -> "ExponentForm":
        v = _stored(value)
        return ExponentForm._of(((UNIT, v),) if v else ())

    @staticmethod
    def symbol(name: str, power: int = 1) -> "ExponentForm":
        return ExponentForm({((name, power),): 1})

    # -- ring/module operations --------------------------------------------
    def __add__(self, other: "ExponentForm") -> "ExponentForm":
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        if not a:
            return other
        if len(a) == 1 and len(b) == 1 and a[0][0] == b[0][0]:
            c = _normal(a[0][1] + b[0][1])
            return ExponentForm._of(((a[0][0], c),) if c else ())
        acc = dict(a)
        for m, c in b:
            prev = acc.get(m)
            acc[m] = c if prev is None else prev + c
        return ExponentForm._of(_canonical(acc))

    def __sub__(self, other: "ExponentForm") -> "ExponentForm":
        return self + other.scale(-1)

    def __mul__(self, other: "ExponentForm") -> "ExponentForm":
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self.coeffs:
            for m2, c2 in other.coeffs:
                powers = dict(m1)
                for name, k in m2:
                    powers[name] = powers.get(name, 0) + k
                m = tuple(sorted((n, k) for n, k in powers.items() if k))
                acc[m] = acc.get(m, 0) + c1 * c2
        return ExponentForm._of(_canonical(acc))

    def __pow__(self, k: int) -> "ExponentForm":
        """An integer power; a negative one only of a single monomial."""
        if k < 0:
            if len(self.coeffs) != 1:
                raise ValueError("cannot invert a non-monomial exponent form")
            (mono, c), = self.coeffs
            inverse = tuple((n, -p) for n, p in mono)
            return ExponentForm({inverse: 1 / Fraction(c)}) ** -k
        out = UNIT_FORM
        for _ in range(k):
            out = out * self
        return out

    def scale(self, factor) -> "ExponentForm":
        f = _stored(factor)
        if f == 1:
            return self
        if not f:
            return ZERO_FORM
        return ExponentForm._of(tuple((m, _normal(c * f)) for m, c in self.coeffs))

    def __neg__(self) -> "ExponentForm":
        return self.scale(-1)

    # -- queries -------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        c = self.coeffs
        return not c or (len(c) == 1 and c[0][0] == UNIT)

    def as_rational(self) -> Optional[int | Fraction]:
        """The value in its stored form when the form is rational (an int
        when integral), else None."""
        c = self.coeffs
        if not c:
            return 0
        if len(c) == 1 and c[0][0] == UNIT:
            return c[0][1]
        return None

    def as_integer(self) -> Optional[int]:
        r = self.as_rational()
        return r if r.__class__ is int else None

    def symbols(self) -> set[str]:
        return {name for mono, _ in self.coeffs for name, _ in mono}

    def __eq__(self, other) -> bool:
        return isinstance(other, ExponentForm) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self.coeffs)
        return h

    def sort_key(self):
        return self.coeffs

    def __repr__(self) -> str:
        return f"ExponentForm({self.render()})"

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        ordered = sorted(self.coeffs, key=lambda mc: (mc[0] == UNIT, mc[0]))
        for mono, c in ordered:
            if mono == UNIT:
                body = str(c)
            else:
                names = "*".join(n if k == 1 else f"{n}^{k}" for n, k in mono)
                if c == 1:
                    body = names
                elif c == -1:
                    body = f"-{names}"
                else:
                    body = f"{c}*{names}"
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out


def _normal(c):
    """A sum or product of stored coefficients in stored form."""
    return c.numerator if c.__class__ is Fraction and c.denominator == 1 else c


def _canonical(acc: dict) -> tuple:
    """The coeffs tuple of a dict from monomial to summed coefficient."""
    return tuple(sorted([(m, _normal(c)) for m, c in acc.items() if c]))


ZERO_FORM = ExponentForm()
UNIT_FORM = ExponentForm.rational(1)


# ---------------------------------------------------------------------------
# Intervals and sign decisions
# ---------------------------------------------------------------------------

def _end_mul(a, a_inf: int, a_open: bool, b, b_inf: int, b_open: bool):
    """Product of two interval ends as ((rank, value), open).  A None end is
    infinite with sign a_inf (b_inf); rank is -1, 0, +1 for minus infinity,
    a finite value and plus infinity, so the pairs order like the
    extended reals.  An infinite end times zero is zero, and a closed zero
    end makes the product an attained zero."""
    if (a == 0 and not a_open) or (b == 0 and not b_open):
        return (0, Fraction(0)), False
    if a == 0 or b == 0:
        return (0, Fraction(0)), True
    if a is None or b is None:
        sa = a_inf if a is None else (1 if a > 0 else -1)
        sb = b_inf if b is None else (1 if b > 0 else -1)
        return (sa * sb, Fraction(0)), True
    return (0, a * b), a_open or b_open


@record(frozen=True)
class Interval:
    """An interval of the rationals; a None end is infinite (lo = None is
    minus infinity, hi = None plus infinity) and always open."""
    lo: Optional[Fraction]
    hi: Optional[Fraction]
    lo_open: bool = True
    hi_open: bool = True

    @staticmethod
    def point(v) -> "Interval":
        v = Fraction(v)
        return Interval(v, v, False, False)

    @staticmethod
    def everything() -> "Interval":
        return Interval(None, None, True, True)

    def scale(self, f: Fraction) -> "Interval":
        if f == 0:
            return Interval.point(0)
        lo = None if self.lo is None else self.lo * f
        hi = None if self.hi is None else self.hi * f
        if f > 0:
            return Interval(lo, hi, self.lo_open, self.hi_open)
        return Interval(hi, lo, self.hi_open, self.lo_open)

    def __add__(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return Interval(lo, hi, self.lo_open or other.lo_open,
                        self.hi_open or other.hi_open)

    def __mul__(self, other: "Interval") -> "Interval":
        cands = [_end_mul(a, ai, ao, b, bi, bo)
                 for a, ai, ao in ((self.lo, -1, self.lo_open),
                                   (self.hi, 1, self.hi_open))
                 for b, bi, bo in ((other.lo, -1, other.lo_open),
                                   (other.hi, 1, other.hi_open))]
        lo = min(c for c, _ in cands)
        hi = max(c for c, _ in cands)
        lo_open = all(o for c, o in cands if c == lo)
        hi_open = all(o for c, o in cands if c == hi)
        return Interval(None if lo[0] else lo[1], None if hi[0] else hi[1],
                        lo_open, hi_open)

    def invert(self) -> "Interval":
        # 1/I, only when the interval is sign-definite.
        if self.is_positive():
            lo = Fraction(0) if self.hi is None else 1 / self.hi
            lo_open = self.hi is None or self.hi_open
            if self.lo == 0:
                return Interval(lo, None, lo_open, True)
            return Interval(lo, 1 / self.lo, lo_open, self.lo_open)
        if self.is_negative():
            return self.scale(Fraction(-1)).invert().scale(Fraction(-1))
        return Interval.everything()

    def power(self, k: int) -> "Interval":
        if k == 0:
            return Interval.point(1)
        base = self if k > 0 else self.invert()
        out = base
        for _ in range(abs(k) - 1):
            out = out * base
        return out

    def is_positive(self) -> bool:
        return self.lo is not None and (
            self.lo > 0 or (self.lo == 0 and self.lo_open))

    def is_negative(self) -> bool:
        return self.hi is not None and (
            self.hi < 0 or (self.hi == 0 and self.hi_open))

    def contains_zero(self) -> bool:
        return not self.is_positive() and not self.is_negative()

    def excludes_integers(self) -> bool:
        """True when the interval fits strictly inside (m, m+1) for integer m."""
        if self.lo is None or self.hi is None or self.hi - self.lo > 1:
            return False
        m = math.floor(self.lo)
        if self.lo == m and not self.lo_open:
            return False
        return self.hi < m + 1 or (self.hi == m + 1 and self.hi_open)


class UndecidableExponent(Exception):
    """Raised when a sign/integrality question about an exponent cannot be
    decided from the declared assumptions."""


class Assumptions:
    """Declared facts about exponent atoms, all given to the constructor and
    never changed after it, so one object can serve every reader.

    The fractional order symbol always lies in the open interval (0, 1).
    Parameters may be declared nonzero, positive, or inside an open
    interval, given as (name, lo, hi).
    """

    def __init__(self, alpha_name: Optional[str] = None, *,
                 nonzero: Iterable[str] = (), positive: Iterable[str] = (),
                 intervals: Iterable[tuple[str, object, object]] = ()):
        self.alpha_name = alpha_name
        self._intervals: dict[str, Interval] = {}
        if alpha_name is not None:
            self._intervals[alpha_name] = Interval(Fraction(0), Fraction(1), True, True)
        for name, lo, hi in intervals:
            self._intervals[name] = Interval(Fraction(lo), Fraction(hi), True, True)
        for name in positive:
            self._intervals[name] = Interval(Fraction(0), None, True, True)
        self._nonzero = frozenset(nonzero)

    def is_declared_nonzero(self, name: str) -> bool:
        return name in self._nonzero or (name in self._intervals and
                                         not self._intervals[name].contains_zero())

    # -- evaluation ------------------------------------------------------------
    def interval_of(self, form: ExponentForm) -> Interval:
        total = None
        for mono, c in form.coeffs:
            piece = None
            for name, k in mono:
                base = self._intervals.get(name)
                base = (Interval.everything() if base is None else base).power(k)
                piece = base if piece is None else piece * base
            piece = Interval.point(c) if piece is None else piece.scale(c)
            total = piece if total is None else total + piece
        return Interval.point(0) if total is None else total

    def sign(self, form: ExponentForm) -> Optional[int]:
        """+1, -1, 0, or None when undecided."""
        if form.is_zero():
            return 0
        iv = self.interval_of(form)
        if iv.is_positive():
            return 1
        if iv.is_negative():
            return -1
        return None

    def undecided(self, form: ExponentForm) -> Optional[ExponentForm]:
        """The form, signed so that its first non-constant coefficient is
        positive, when it is not rational and its sign is undecided: the
        form of a separation note.  None otherwise."""
        if form.is_rational() or self.sign(form) is not None:
            return None
        lead = next(c for m, c in form.coeffs if m != UNIT)
        return -form if lead < 0 else form

    def nonpositive_integer(self, form: ExponentForm) -> Optional[bool]:
        """Is the form an exact nonpositive integer?  None when undecidable."""
        r = form.as_rational()
        if r is not None:
            return r.denominator == 1 and r <= 0
        iv = self.interval_of(form)
        if iv.is_positive():
            return False
        if iv.excludes_integers():
            return False
        return None
