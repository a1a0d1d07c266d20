"""Parser for the PDE input language.

Grammar (whitespace-insensitive, '#' starts a line comment):

    file      := decl* eq+
    decl      := "param" IDENT assumption? ";"
               | "alpha" (IDENT | NUM ("/" NUM)?) ";"
               | "space" IDENT ("," IDENT)* ";"
               | "dep" IDENT ("," IDENT)* ";"
               | "fn" IDENT "(" IDENT ")" ";"
    assumption:= "nonzero" | "positive" | "in" "(" NUM "," NUM ")"
    eq        := "Dt" "^" IDENT "(" IDENT ")" "=" expr ";"
    expr      := arithmetic over +, -, *, /, ^ with nestable derivative
                 operators D<space var>^<int>( ... ), e.g. Dx^3(u), Dx(Dy^2(u))

Expressions may also be parsed standalone against an existing signature
(solver templates, generator files, exact solutions).
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Optional

from .expr import (Expr, Fn, Gamma, Jet, ONE, Rat, Sym, ZERO, _nadd, _nmul,
                   div, neg, pow_, to_eform, total_derivative)
from .model import (ParamDecl, PDESystem, Signature, make_system,
                    validate_system)
from .prolong import AnsatzGenerator
from .solver import Generator


class DslSyntaxError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"syntax error at {line}:{col}: {message}")
        self.line = line
        self.col = col


class DslSemanticError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        where = f" at {line}:{col}" if line else ""
        super().__init__(f"semantic error{where}: {message}")
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str       # IDENT NUM PUNCT EOF
    text: str
    line: int
    col: int


# One scan per line: leading blanks, then an identifier, a number, a
# punctuation mark, or any other character, which is an error.
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(\d+\.\d+|\d+)"
                       r"|([,;()\[\]^+\-*/=])|(\S))")
_KINDS = (None, "IDENT", "NUM", "PUNCT")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__
    lines = text.splitlines() or [""]
    for lineno, line in enumerate(lines, start=1):
        for m in _TOKEN_RE.finditer(line.split("#", 1)[0]):
            kind = m.lastindex
            if kind == 4:
                raise DslSyntaxError(f"unexpected character {m.group(4)!r}",
                                     lineno, m.start(4) + 1)
            # the named tuple built by tuple.__new__, without a Python call
            append(new(Token, (_KINDS[kind], m.group(kind), lineno,
                               m.start(kind) + 1)))
    # end of input, just after the last character of the text
    append(new(Token, ("EOF", "", len(lines), len(lines[-1]) + 1)))
    return tokens


def _found(t: Token) -> str:
    """The token an error message quotes: its text, or end of input."""
    return "end of input" if t.kind == "EOF" else repr(t.text)


class _Stream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            raise DslSyntaxError(f"expected {text!r}, found {_found(t)}", t.line, t.col)
        return self.next()

    def expect_kind(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise DslSyntaxError(f"expected {kind}, found {_found(t)}", t.line, t.col)
        return self.next()


def _number(text: str):
    """The value of a NUM token: an int for digits alone, else a Fraction."""
    return int(text) if text.isdigit() else Fraction(text)


def _num_fraction(s: _Stream) -> Fraction:
    t = s.expect_kind("NUM")
    val = Fraction(t.text)
    if s.peek().text == "/":
        s.next()
        t2 = s.expect_kind("NUM")
        den = Fraction(t2.text)
        if den == 0:
            raise DslSemanticError("division by zero", t2.line, t2.col)
        val = val / den
    return val


# ---------------------------------------------------------------------------
# Expression parsing against a signature
# ---------------------------------------------------------------------------

class ExprParser:
    """Recursive-descent expression parser bound to a signature.  extra_syms
    admits additional free constants (generator files declare their own).

    The descent reads the stream's tokens and position directly, not
    through the stream's methods, and a name of the signature parses to
    its node of Signature.named_atoms."""

    def __init__(self, sig: Signature, stream: _Stream,
                 extra_syms: Optional[set[str]] = None):
        self.sig = sig
        self.s = stream
        self.tokens = stream.tokens
        # the names that parse to an atom: the signature's, and the extra
        # constants, each a Sym
        self.atoms = sig.named_atoms
        if extra_syms:
            self.atoms = {**self.atoms, **{name: Sym(name) for name in extra_syms}}
        self.fn_args = dict(sig.fn_decls)

    def parse(self) -> Expr:
        return self._sum()

    def _sum(self) -> Expr:
        """The terms, signed, added at once."""
        s, tokens = self.s, self.tokens
        op = tokens[s.i].text
        if op == "+" or op == "-":
            s.i += 1
        terms = []
        while True:
            e = self._product()
            terms.append(neg(e) if op == "-" else e)
            op = tokens[s.i].text
            if op != "+" and op != "-":
                # a lone term is canonical already
                return terms[0] if len(terms) == 1 else _nadd(terms)
            s.i += 1

    def _product(self) -> Expr:
        """The factors, a divisor as its reciprocal, multiplied at once."""
        s, tokens = self.s, self.tokens
        factors = [self._power()]
        while True:
            op = tokens[s.i].text
            if op != "*" and op != "/":
                # a lone factor is canonical already
                return factors[0] if len(factors) == 1 else _nmul(factors)
            s.i += 1
            at = tokens[s.i]
            rhs = self._power()
            if op == "*":
                factors.append(rhs)
            elif rhs == ZERO:
                raise DslSemanticError("division by zero", at.line, at.col)
            else:
                factors.append(div(ONE, rhs))

    def _power(self) -> Expr:
        s, tokens = self.s, self.tokens
        at = tokens[s.i]
        base = self._primary()
        if tokens[s.i].text != "^":
            return base
        tok = tokens[s.i]
        s.i += 1
        exp = self._exponent(tok)
        try:
            return pow_(base, exp)
        except ZeroDivisionError as exc:
            raise DslSemanticError(str(exc), at.line, at.col) from exc

    def _exponent(self, at: Token):
        t = self.s.peek()
        if t.text == "(":
            self.s.next()
            inner = self._sum()
            self.s.expect(")")
        elif t.kind == "NUM":
            return _number(self.s.next().text)
        elif t.text == "-":
            self.s.next()
            nt = self.s.expect_kind("NUM")
            return -_number(nt.text)
        elif t.kind == "IDENT":
            inner = self._atom_ident(self.s.next())
        else:
            raise DslSyntaxError("expected an exponent, found end of input" if t.kind == "EOF"
                                 else f"bad exponent start {t.text!r}", t.line, t.col)
        form = to_eform(inner)
        if form is None:
            raise DslSemanticError("exponent is not an exact affine combination "
                                   "of declared symbols", at.line, at.col)
        return form

    def _primary(self) -> Expr:
        s = self.s
        t = self.tokens[s.i]
        kind = t.kind
        if kind == "IDENT":
            s.i += 1
            return self._ident(t)
        if kind == "NUM":
            s.i += 1
            return Rat(_number(t.text))
        if t.text == "(":
            s.i += 1
            e = self._sum()
            s.expect(")")
            return e
        if t.text == "-":
            s.i += 1
            return neg(self._power())
        raise DslSyntaxError("expected an expression, found end of input" if kind == "EOF"
                             else f"unexpected token {t.text!r}", t.line, t.col)

    def _deriv_op(self, t: Token) -> Expr:
        var_name = t.text[1:]
        if var_name == self.sig.t_name:
            raise DslSemanticError("t-derivatives may not appear on a right-hand side",
                                   t.line, t.col)
        v = self.sig.space(var_name)
        order = 1
        if self.s.peek().text == "^":
            self.s.next()
            order = int(self.s.expect_kind("NUM").text)
        self.s.expect("(")
        inner = self._sum()
        self.s.expect(")")
        if inner.__class__ is Jet and not inner.t_order and inner.frac is None:
            # D_v^order of a jet is the jet of the raised order
            theta = list(inner.theta)
            theta[v.axis] += order
            return self.sig.u(inner.dep, tuple(theta))
        out = inner
        for _ in range(order):
            out = total_derivative(out, v)
        return out

    def _atom_ident(self, t: Token) -> Expr:
        atom = self.atoms.get(t.text)
        if atom is None:
            raise DslSemanticError(f"undeclared symbol {t.text!r}", t.line, t.col)
        return atom

    def _ident(self, t: Token) -> Expr:
        name = t.text
        atom = self.atoms.get(name)
        if atom is not None:
            return atom
        if name == "Gamma":
            self.s.expect("(")
            inner = self._sum()
            self.s.expect(")")
            return Gamma(inner)
        if name in self.fn_args:
            self.s.expect("(")
            inner = self._sum()
            self.s.expect(")")
            return Fn(name, (inner,))
        if name in self.sig.operator_names:
            return self._deriv_op(t)
        raise DslSemanticError(f"undeclared symbol {name!r}", t.line, t.col)


def _clash(name: str, sig: Signature) -> Optional[str]:
    """Why an extra free constant may not be called name, or None: it would
    shadow a name of the system or a word of the language."""
    if name in _RESERVED:
        return f"{name!r} is reserved"
    if name == sig.t_name or name in sig.space_names or name in sig.dep_names:
        return f"{name!r} names a variable of the system"
    if name == sig.alpha_name:
        return f"{name!r} names the fractional order"
    if any(p.name == name for p in sig.params):
        return f"{name!r} names a parameter of the system"
    if name in dict(sig.fn_decls):
        return f"{name!r} names a function of the system"
    if name[:1] == "D" and (name[1:] == sig.t_name or name[1:] in sig.space_names):
        return f"{name!r} names a derivative operator"
    return None


def parse_expression(text: str, sig: Signature,
                     extra_syms: Optional[set[str]] = None) -> Expr:
    """Parse one expression; extra_syms are free constants beyond the
    system's, and one that clashes with a name of the system is refused."""
    for name in sorted(extra_syms or ()):
        why = _clash(name, sig)
        if why:
            raise DslSemanticError(why)
    stream = _Stream(tokenize(text))
    parser = ExprParser(sig, stream, extra_syms=extra_syms)
    e = parser.parse()
    tok = stream.peek()
    if tok.kind != "EOF":
        raise DslSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return e


# ---------------------------------------------------------------------------
# File parsing
# ---------------------------------------------------------------------------

_RESERVED = {"param", "alpha", "space", "dep", "fn", "Gamma", "nonzero",
             "positive", "in", "t"}


# ---------------------------------------------------------------------------
# Generator files ("tau = ...; xi[x] = ...; eta[u] = ...;")
# ---------------------------------------------------------------------------

def parse_generator(text: str, sig: Signature):
    """Parse a concrete generator description against a system signature.
    Lines: optional 'param NAME;' declarations for free constants, then
    assignments 'tau = expr;', 'xi[x] = expr;', 'eta[u] = expr;'.  A
    constant may not repeat or take a name of the system, and a component
    may be assigned once; unassigned components are zero.  Returns
    (Generator, extra symbols)."""
    stream = _Stream(tokenize(text))
    extra: set[str] = set()
    while stream.peek().text == "param":
        stream.next()
        nt = stream.expect_kind("IDENT")
        why = _clash(nt.text, sig) or (
            f"{nt.text!r} declared twice" if nt.text in extra else None)
        if why:
            raise DslSemanticError(why, nt.line, nt.col)
        extra.add(nt.text)
        stream.expect(";")

    parser = ExprParser(sig, stream, extra_syms=extra)
    tau = ZERO
    xi = {name: ZERO for name in sig.space_names}
    eta = {name: ZERO for name in sig.dep_names}
    assigned: set[tuple] = set()
    while stream.peek().kind != "EOF":
        head = stream.expect_kind("IDENT")
        target = None
        if head.text == "tau":
            target = ("tau", None)
        elif head.text in ("xi", "eta"):
            stream.expect("[")
            vt = stream.expect_kind("IDENT")
            stream.expect("]")
            pool = sig.space_names if head.text == "xi" else sig.dep_names
            if vt.text not in pool:
                raise DslSemanticError(f"unknown component {head.text}[{vt.text}]",
                                       vt.line, vt.col)
            target = (head.text, vt.text)
        else:
            raise DslSyntaxError(f"expected tau/xi/eta, found {_found(head)}",
                                 head.line, head.col)
        if target in assigned:
            label = "tau" if target[1] is None else f"{target[0]}[{target[1]}]"
            raise DslSemanticError(f"{label} assigned twice", head.line, head.col)
        assigned.add(target)
        stream.expect("=")
        value = parser.parse()
        stream.expect(";")
        kind, name = target
        if kind == "tau":
            tau = value
        elif kind == "xi":
            xi[name] = value
        else:
            eta[name] = value

    gen = Generator(sig, tau,
                    tuple(xi[n] for n in sig.space_names),
                    tuple(eta[n] for n in sig.dep_names))
    return gen, extra


def parse_system(text: str) -> PDESystem:
    """Parse a system file.  Every input check runs here, each failure
    raised at its token or declaration; the last is validate_system's, on
    the parsed system."""
    stream = _Stream(tokenize(text))
    params: list[ParamDecl] = []
    alpha_name: Optional[str] = None
    alpha_value: Optional[Fraction] = None
    spaces: list[str] = []
    deps: list[str] = []
    fns: list[tuple[str, Token]] = []
    seen: dict[str, Token] = {}

    def declare(tok: Token):
        if tok.text in _RESERVED:
            raise DslSemanticError(f"{tok.text!r} is reserved", tok.line, tok.col)
        if tok.text in seen:
            raise DslSemanticError(f"{tok.text!r} declared twice", tok.line, tok.col)
        seen[tok.text] = tok

    while stream.peek().text in ("param", "alpha", "space", "dep", "fn"):
        head = stream.next()
        if head.text == "param":
            nt = stream.expect_kind("IDENT")
            declare(nt)
            kind, lo, hi = "free", None, None
            t = stream.peek()
            if t.text in ("nonzero", "positive"):
                stream.next()
                kind = t.text
            elif t.text == "in":
                stream.next()
                stream.expect("(")
                lo = _num_fraction(stream)
                stream.expect(",")
                hi = _num_fraction(stream)
                stream.expect(")")
                kind = "interval"
            params.append(ParamDecl(nt.text, kind, lo, hi))
        elif head.text == "alpha":
            if alpha_name is not None or alpha_value is not None:
                raise DslSemanticError("alpha declared twice", head.line, head.col)
            t = stream.peek()
            if t.kind == "NUM":
                alpha_value = _num_fraction(stream)
                if not (0 < alpha_value < 1):
                    raise DslSemanticError(
                        f"fractional order {alpha_value} is outside (0,1)",
                        t.line, t.col)
                alpha_name = "alpha"
            else:
                nt = stream.expect_kind("IDENT")
                declare(nt)
                alpha_name = nt.text
        elif head.text in ("space", "dep"):
            names = spaces if head.text == "space" else deps
            while True:
                nt = stream.expect_kind("IDENT")
                declare(nt)
                names.append(nt.text)
                if stream.peek().text != ",":
                    break
                stream.next()
        else:  # fn
            nt = stream.expect_kind("IDENT")
            declare(nt)
            stream.expect("(")
            arg = stream.expect_kind("IDENT")
            stream.expect(")")
            fns.append((nt.text, arg))
        stream.expect(";")

    if alpha_name is None:
        t = stream.peek()
        raise DslSemanticError("missing alpha declaration", t.line, t.col)
    if not deps:
        t = stream.peek()
        raise DslSemanticError("missing dep declaration", t.line, t.col)
    for fname, arg in fns:
        if arg.text not in deps:
            raise DslSemanticError(f"fn {fname} argument {arg.text!r} is not a "
                                   "dependent", arg.line, arg.col)

    sig = Signature(alpha_name=alpha_name, space_names=tuple(spaces),
                    dep_names=tuple(deps), params=tuple(params),
                    fn_decls=tuple((fname, arg.text) for fname, arg in fns))
    alpha_expr: Expr = Rat(alpha_value) if alpha_value is not None else Sym(alpha_name)
    # the generator's unknowns and gamma_s depend on the counts of space
    # variables and dependents, so they are checked once all are declared
    ans = AnsatzGenerator(sig, alpha_expr)
    taken = ans.unknown_names() | set(ans.gamma_symbols())
    for name, tok in seen.items():
        if name in taken:
            raise DslSemanticError(f"{name!r} names an unknown of the "
                                   "symmetry generator", tok.line, tok.col)
        if name in sig.operator_names:
            raise DslSemanticError(f"{name!r} names a derivative operator",
                                   tok.line, tok.col)

    rhs_by_dep: dict[str, Expr] = {}
    parser = ExprParser(sig, stream)
    while stream.peek().kind != "EOF":
        head = stream.peek()
        if head.text != f"D{sig.t_name}":
            raise DslSyntaxError(f"expected an equation 'D{sig.t_name}^...', "
                                 f"found {_found(head)}", head.line, head.col)
        stream.next()
        stream.expect("^")
        at = stream.expect_kind("IDENT")
        if at.text != alpha_name:
            raise DslSemanticError(
                f"equation order {at.text!r} does not match the declared alpha "
                f"{alpha_name!r}", at.line, at.col)
        stream.expect("(")
        dt = stream.expect_kind("IDENT")
        if dt.text not in deps:
            raise DslSemanticError(f"{dt.text!r} is not a dependent", dt.line, dt.col)
        if dt.text in rhs_by_dep:
            raise DslSemanticError(f"duplicate equation for {dt.text!r}",
                                   dt.line, dt.col)
        stream.expect(")")
        stream.expect("=")
        rhs = parser.parse()
        stream.expect(";")
        rhs_by_dep[dt.text] = rhs

    missing = [d for d in deps if d not in rhs_by_dep]
    if missing:
        tok = seen[missing[0]]
        raise DslSemanticError(f"missing equation(s) for {', '.join(missing)}",
                               tok.line, tok.col)

    sys = make_system(sig, [rhs_by_dep[d] for d in deps], alpha=alpha_expr)
    problems = validate_system(sys)
    if problems:
        name, message = problems[0]
        tok = seen[name]
        raise DslSemanticError(message, tok.line, tok.col)
    return sys
