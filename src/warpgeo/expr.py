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
offending sub-expression.  Each walk recurses once per level, so parse
refuses a tree or a nesting deeper than MAX_DEPTH, at the level past it.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import jet as J
from .errors import EvalDomainError, ExprSyntaxError, UsageError, WarpgeoError
from .errors import as_value, first_failing, range_policy

MAX_DEPTH = 100
_TOO_DEEP = f"expression nested more than {MAX_DEPTH} levels deep"

_JET_FN = {"sin": J.sin, "cos": J.cos, "exp": J.exp, "log": J.log, "sqrt": J.sqrt}
FUNCTIONS = tuple(_JET_FN)
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
    span: tuple = field(compare=False)


@dataclass(frozen=True)
class Name:
    ident: str
    span: tuple = field(compare=False)


@dataclass(frozen=True)
class Neg:
    operand: object
    span: tuple = field(compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    span: tuple = field(compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object
    span: tuple = field(compare=False)


# -- lexer ----------------------------------------------------------------

_IDENT = r"[A-Za-z][A-Za-z0-9]*"
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    rf"|(?P<ident>{_IDENT})"
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
        self.tokens = _tokenize(source)
        self.i = 0
        self.nesting = 0  # open calls of unary(), through which every nesting passes
        self.heights = {}  # id(node) -> the height of its tree; made() refuses past MAX_DEPTH

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
        raise ExprSyntaxError(f"unexpected {what}, expected one of {sorted(expected)}", tok.pos)

    def made(self, node, offset):
        height = 1 + max([self.heights.get(id(o), 1) for o in _operands(node)])
        if height > MAX_DEPTH:
            raise ExprSyntaxError(_TOO_DEEP, offset)
        self.heights[id(node)] = height
        return node

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
            op = self.advance()
            rhs = self.term()
            node = self.made(BinOp(op.kind, node, rhs, (node.span[0], rhs.span[1])), op.pos)
        return node

    def term(self):
        node = self.unary()
        while self.cur.kind in ("*", "/"):
            op = self.advance()
            rhs = self.unary()
            node = self.made(BinOp(op.kind, node, rhs, (node.span[0], rhs.span[1])), op.pos)
        return node

    def unary(self):
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ExprSyntaxError(_TOO_DEEP, self.cur.pos)
        if self.cur.kind == "-":
            tok = self.advance()
            operand = self.unary()
            node = self.made(Neg(operand, (tok.pos, operand.span[1])), tok.pos)
        else:
            node = self.power()
        self.nesting -= 1
        return node

    def power(self):
        base = self.atom()
        if self.cur.kind == "^":
            op = self.advance()
            expo = self.unary()
            return self.made(BinOp("^", base, expo, (base.span[0], expo.span[1])), op.pos)
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
                    raise ExprSyntaxError(f"unknown function {tok.text!r}", tok.pos)
                self.advance()
                arg = self.expr()
                close = self.expect(")")
                return self.made(Call(tok.text, arg, (tok.pos, close.pos + 1)), tok.pos)
            return Name(tok.text, (tok.pos, tok.pos + len(tok.text)))
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        self.fail({"num", "ident", "(", "-"})


def parse(source):
    return _Parser(source).parse()


def is_name(text):
    """Whether `text` is an identifier the DSL reads as one name."""
    return isinstance(text, str) and re.fullmatch(_IDENT, text) is not None


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
    out, todo = set(), [node]
    while todo:
        n = todo.pop()
        if isinstance(n, Name):
            out.add(n.ident)
        todo.extend(_operands(n))
    return frozenset(out)


_OPERAND_FIELDS = {Neg: ("operand",), Call: ("arg",), BinOp: ("left", "right")}


def _operands(node):
    """The operands of `node`, none for a number or a name."""
    return [getattr(node, k) for k in _OPERAND_FIELDS.get(type(node), ())]


def _rebuild(node, operands):
    """`node` with its operands replaced by `operands`."""
    if not operands:
        return node
    return dataclasses.replace(node, **dict(zip(_OPERAND_FIELDS[type(node)], operands)))


# -- evaluation -----------------------------------------------------------


def _power_per_point(base, p):
    """base ** p for an array `p` of one exponent per point of the batch:
    each point's jet takes the power rule of its own exponent, so the batch
    equals its points one by one."""
    size = len(base.coeffs)
    cols = np.broadcast_to(base.coeffs.reshape(size, -1), (size, p.size)).T
    powers = [J.jpow(J.unstack(col, base.n_vars), q) for col, q in zip(cols, p.flat)]
    return J.Jet(base.n_vars, base.order, J.stack(powers).reshape((size,) + p.shape))


def _scale(j, c):
    """The jet j times the constant c (a float or a batch array), bit for
    bit its product with c's constant jet: each coefficient times c, added
    to contract's +0.0 start."""
    coeffs = j.coeffs
    if np.ndim(c):
        coeffs, c = J._aligned(coeffs, np.asarray(c)[None])
    return J.Jet(j.n_vars, j.order, coeffs * c + 0.0)


def eval_jet(ast, variables, params=None):
    """Evaluate `ast` over jet arithmetic.

    `variables` maps identifiers to jets (all sharing one (n_vars, order),
    batched or not); `params` maps identifiers to reals, or to arrays of
    one value per point of the variables' batch, that broadcast against
    that batch.

    Numbers and params stay constants, a float or a batch array, and so
    does every subtree without a variable: it is evaluated on jets of order
    0, the jet path's arithmetic on values, so it keeps that path's values,
    domain errors and spans.  A jet times or over a constant is a scale of
    its coefficients, the same bits as the product with the constant's jet
    (over c, by the value of c's reciprocal); a constant meets a jet in a
    sum, or as the base of a power, as its jet.  A constant result is
    returned as its jet.

    This walk alone decides a constant's float range: a number, a param's
    value or an operation on constants that is not finite (at a batch's
    first such point) is refused where it is formed, at its span, innermost
    first: exp(-(1e308*1e308)) at 1e308*1e308.  Functions check their series.

    The exponent's syntax decides `^`, at every order alike: an exponent
    that holds a variable is a jet and takes exp(rhs * log(lhs)), so its
    base must be positive; a constant exponent takes `jpow`, and a batch
    array of them takes `jpow` at each point (`_power_per_point`).
    """
    params = params or {}
    if not variables:
        raise UsageError("eval_jet needs at least one variable binding")
    template = next(iter(variables.values()))
    n_vars, order = template.n_vars, template.order

    def jet(c, at=order):
        return c if isinstance(c, J.Jet) else J.jet_constant(c, n_vars, at)

    def binop(op, lhs, rhs):
        """lhs op rhs, at least one of them a jet."""
        if op == "*" or op == "/":
            if not isinstance(rhs, J.Jet):
                if op == "/":
                    rhs = J.reciprocal(jet(rhs, 0)).value
                return _scale(lhs, rhs)
            if not isinstance(lhs, J.Jet):
                return _scale(rhs if op == "*" else J.reciprocal(rhs), lhs)
            return lhs * rhs if op == "*" else lhs / rhs
        if op == "^":
            lhs = jet(lhs)
            if isinstance(rhs, J.Jet):
                return J.exp(rhs * J.log(lhs))
            return _power_per_point(lhs, rhs) if np.ndim(rhs) else J.jpow(lhs, rhs)
        return jet(lhs) + jet(rhs) if op == "+" else jet(lhs) - jet(rhs)

    def constant(v, node):
        """The constant `v` that `node` forms, refused unless finite."""
        ok = np.isfinite(v) if type(v) is np.ndarray else math.isfinite(v)
        if bad := first_failing(ok, v):
            raise EvalDomainError(f"constant {pretty(node)} leaves the float range ({bad[0]:g})",
                                  value=bad[0], span=node.span)
        return v

    def ev(node):
        try:
            if isinstance(node, Num):
                return constant(node.value, node)
            if isinstance(node, Name):
                if node.ident in variables:
                    return variables[node.ident]
                if node.ident in params:
                    return constant(as_value(np.asarray(params[node.ident], dtype=float)), node)
                raise UsageError(f"unbound identifier {node.ident!r}")
            if isinstance(node, Neg):
                return -ev(node.operand)
            if isinstance(node, Call):
                arg = ev(node.arg)
                if isinstance(arg, J.Jet):
                    return _JET_FN[node.fn](arg)
                return _JET_FN[node.fn](jet(arg, 0)).value
            if isinstance(node, BinOp):
                lhs, rhs = ev(node.left), ev(node.right)
                if isinstance(lhs, J.Jet) or isinstance(rhs, J.Jet):
                    return binop(node.op, lhs, rhs)
                if node.op != "^":  # a jet exponent would take the log rule
                    rhs = jet(rhs, 0)
                return constant(binop(node.op, jet(lhs, 0), rhs).value, node)
        except EvalDomainError as exc:
            if exc.span is None:
                exc.span = node.span
            raise
        raise UsageError(f"not an AST node: {node!r}")

    return jet(ev(ast))


# a variable binding no identifier can read: fold_constants evaluates only
# subtrees without a variable, but eval_jet needs one to know its jet space
_NO_VARIABLE = {"": J.jet_constant(0.0, 1, 0)}


def fold_constants(ast, params):
    """`ast` with each largest subtree that reads no variable (it may read
    names of `params`) replaced by a number node, with the subtree's span,
    of the value `eval_jet` gives it.  That is the value the subtree takes
    inside any evaluation of `ast`: eval_jet evaluates such a subtree on
    jets of order 0 wherever it lies, and reads a number node as its value.

    Each such subtree is one eval_jet call, and folding decides nothing
    itself: a subtree whose evaluation raises, a constant that leaves the
    float range on the way included, or that gives a batch array, stays as
    it is, to raise as `ast` does, at the same span."""

    def value(node):
        """A number node of `node`'s value, or `node` if that raises or is a batch."""
        try:
            v = eval_jet(node, _NO_VARIABLE, params).value
        except (WarpgeoError, ArithmeticError):
            return node
        return Num(v, node.span) if type(v) is float else node

    def fold(node):
        """(`node` with the largest constant subtrees below it folded, or
        `node` itself when it reads no variable)"""
        if isinstance(node, Name):
            return node, node.ident in params
        folded = [fold(p) for p in _operands(node)]
        if all(constant for _, constant in folded):  # a number, or all constant
            return node, True
        return _rebuild(node, [value(p) if constant else p for p, constant in folded]), False

    with range_policy():
        node, constant = fold(ast)
        return value(node) if constant else node


def eval_value(ast, env):
    """Plain-float evaluation, independent of the jet pipeline.  The
    package does not call it; tests read it as the reference for
    `eval_jet`, and the benchmark's tracer (bench/tracer.py) traces it."""

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
            if node.fn in ("sin", "cos") and not math.isfinite(x):
                raise EvalDomainError(
                    f"{node.fn} of non-finite value {x:g}", value=x, span=node.span
                )
            try:
                return _VAL_FN[node.fn](x)
            except OverflowError:
                raise EvalDomainError(
                    f"{node.fn}({x:g}) leaves the float range", value=x, span=node.span
                ) from None
            except ValueError:
                raise EvalDomainError(
                    f"{node.fn}({x:g}) is outside its domain", value=x, span=node.span
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
