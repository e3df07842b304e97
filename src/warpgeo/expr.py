"""Parser and evaluators for the scene expression DSL.

Grammar (whitespace-insensitive, no implicit multiplication):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative
    atom    := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

`^` binds tighter than unary minus, which binds tighter than `*` `/`.
Identifiers are ASCII letters followed by alphanumerics.  Recognised
functions: sin, cos, exp, log, sqrt.  Every node records its source span
as byte offsets, so evaluation-time domain errors can point back at the
offending sub-expression.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import jet as J
from .errors import EvalDomainError, ExprSyntaxError, UsageError

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")

_JET_FN = {"sin": J.sin, "cos": J.cos, "exp": J.exp, "log": J.log, "sqrt": J.sqrt}
_VAL_FN = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}


# -- AST ------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float
    span: tuple

    def key(self):
        return ("num", self.value)


@dataclass(frozen=True)
class Name:
    ident: str
    span: tuple

    def key(self):
        return ("name", self.ident)


@dataclass(frozen=True)
class Neg:
    operand: object
    span: tuple

    def key(self):
        return ("neg", self.operand.key())


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    span: tuple

    def key(self):
        return ("bin", self.op, self.left.key(), self.right.key())


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object
    span: tuple

    def key(self):
        return ("call", self.fn, self.arg.key())


# -- lexer ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | one of '+-*/^()' | 'end'
    text: str
    pos: int


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad = len(source) - len(stripped)
            raise ExprSyntaxError(
                f"unexpected character {source[bad]!r}", bad
            )
        if m.group("num") is not None:
            tokens.append(_Token("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(_Token("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(_Token(m.group("op"), m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(_Token("end", "", len(source)))
    return tokens


# -- parser ---------------------------------------------------------------


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    @property
    def cur(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.cur
        self.i += 1
        return tok

    def fail(self, expected):
        tok = self.cur
        what = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ExprSyntaxError(
            f"unexpected {what}, expected one of {sorted(expected)}",
            tok.pos,
            expected,
        )

    def expect(self, kind):
        if self.cur.kind != kind:
            self.fail({kind})
        return self.advance()

    def parse(self):
        node = self.expr()
        if self.cur.kind != "end":
            self.fail({"end"})
        return node

    def expr(self):
        node = self.term()
        while self.cur.kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            node = BinOp(op, node, rhs, (node.span[0], rhs.span[1]))
        return node

    def term(self):
        node = self.unary()
        while self.cur.kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.unary()
            node = BinOp(op, node, rhs, (node.span[0], rhs.span[1]))
        return node

    def unary(self):
        if self.cur.kind == "-":
            tok = self.advance()
            operand = self.unary()
            return Neg(operand, (tok.pos, operand.span[1]))
        return self.power()

    def power(self):
        base = self.atom()
        if self.cur.kind == "^":
            self.advance()
            expo = self.unary()
            return BinOp("^", base, expo, (base.span[0], expo.span[1]))
        return base

    def atom(self):
        tok = self.cur
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text), (tok.pos, tok.pos + len(tok.text)))
        if tok.kind == "ident":
            self.advance()
            if self.cur.kind == "(":
                if tok.text not in FUNCTIONS:
                    raise ExprSyntaxError(
                        f"unknown function {tok.text!r}", tok.pos, set(FUNCTIONS)
                    )
                self.advance()
                arg = self.expr()
                close = self.expect(")")
                return Call(tok.text, arg, (tok.pos, close.pos + 1))
            return Name(tok.text, (tok.pos, tok.pos + len(tok.text)))
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        self.fail({"num", "ident", "(", "-"})


def parse(source):
    return _Parser(source).parse()


# -- printing -------------------------------------------------------------


def pretty(node):
    """Fully parenthesised round-trippable rendering."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Neg):
        return f"(-{pretty(node.operand)})"
    if isinstance(node, BinOp):
        return f"({pretty(node.left)}{node.op}{pretty(node.right)})"
    if isinstance(node, Call):
        return f"{node.fn}({pretty(node.arg)})"
    raise UsageError(f"not an AST node: {node!r}")


def free_symbols(node):
    out = set()

    def walk(n):
        if isinstance(n, Name):
            out.add(n.ident)
        elif isinstance(n, Neg):
            walk(n.operand)
        elif isinstance(n, BinOp):
            walk(n.left)
            walk(n.right)
        elif isinstance(n, Call):
            walk(n.arg)

    walk(node)
    return frozenset(out)


# -- evaluation -----------------------------------------------------------


def _constant_exponent(j):
    """The value of the exponent jet `j` if it is one constant over its
    whole batch, or None if it varies at every point.  An exponent that is
    constant at some points of a batch only, or constant with different
    values, would need a different power rule per point: that raises, and
    the batch's points can be evaluated one by one instead."""
    c = j.coeffs
    varying = c[1:].any(axis=0)
    count = np.count_nonzero(varying)
    if count == varying.size:
        return None
    if count == 0:
        p = c[0]
        if p.ndim == 0 or (p == p.flat[0]).all():
            return float(p.flat[0])
    raise UsageError("exponent is constant at only some points of the batch")


def eval_jet(ast, variables, params=None):
    """Evaluate `ast` over jet arithmetic.

    `variables` maps identifiers to jets (all sharing one (n_vars, order),
    batched or not); `params` maps identifiers to plain reals, entering as
    constant jets that broadcast against the variables' batch.
    """
    params = params or {}
    if variables:
        template = next(iter(variables.values()))
    else:
        raise UsageError("eval_jet needs at least one variable binding")
    n_vars, order = template.n_vars, template.order

    def ev(node):
        try:
            if isinstance(node, Num):
                return J.jet_constant(node.value, n_vars, order)
            if isinstance(node, Name):
                if node.ident in variables:
                    return variables[node.ident]
                if node.ident in params:
                    return J.jet_constant(float(params[node.ident]), n_vars, order)
                raise UsageError(f"unbound identifier {node.ident!r}")
            if isinstance(node, Neg):
                return -ev(node.operand)
            if isinstance(node, Call):
                return _JET_FN[node.fn](ev(node.arg))
            if isinstance(node, BinOp):
                lhs = ev(node.left)
                if node.op == "^":
                    rhs = ev(node.right)
                    p = _constant_exponent(rhs)
                    if p is not None:
                        return J.jpow(lhs, p)
                    return J.exp(rhs * J.log(lhs))
                rhs = ev(node.right)
                if node.op == "+":
                    return lhs + rhs
                if node.op == "-":
                    return lhs - rhs
                if node.op == "*":
                    return lhs * rhs
                return lhs / rhs
        except EvalDomainError as exc:
            if exc.span is None:
                exc.span = node.span
            raise
        raise UsageError(f"not an AST node: {node!r}")

    return ev(ast)


def eval_value(ast, env):
    """Plain-float evaluation, independent of the jet pipeline (used as the
    finite-difference oracle)."""

    def ev(node):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Name):
            try:
                return float(env[node.ident])
            except KeyError:
                raise UsageError(f"unbound identifier {node.ident!r}") from None
        if isinstance(node, Neg):
            return -ev(node.operand)
        if isinstance(node, Call):
            x = ev(node.arg)
            if node.fn in ("log", "sqrt") and x <= 0.0:
                raise EvalDomainError(
                    f"{node.fn} of non-positive value {x:g}", value=x, span=node.span
                )
            try:
                return _VAL_FN[node.fn](x)
            except OverflowError:
                raise EvalDomainError(
                    f"{node.fn}({x:g}) leaves the float range", value=x, span=node.span
                ) from None
        if isinstance(node, BinOp):
            a = ev(node.left)
            b = ev(node.right)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                if abs(b) < J.SINGULAR_EPS:
                    raise EvalDomainError(
                        f"division by {b:g}", value=b, span=node.span
                    )
                return a / b
            # '^'
            if not (math.isfinite(a) and math.isfinite(b)):
                raise EvalDomainError(
                    f"{a:g}^{b:g} has a non-finite operand", value=a, span=node.span
                )
            try:
                if abs(b - round(b)) < 1e-12:
                    if a == 0.0 and b < 0:
                        raise EvalDomainError(
                            "zero base with negative exponent", value=a, span=node.span
                        )
                    return a ** int(round(b))
                if a <= 0.0:
                    raise EvalDomainError(
                        f"non-integer power of non-positive value {a:g}",
                        value=a,
                        span=node.span,
                    )
                return a**b
            except OverflowError:
                raise EvalDomainError(
                    f"{a:g}^{b:g} leaves the float range", value=a, span=node.span
                ) from None
        raise UsageError(f"not an AST node: {node!r}")

    return ev(ast)
