"""Parser and evaluator for user-supplied defining functions.

Grammar (infix, left-associative, usual precedence):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := ('+' | '-') unary | primary
    primary := NUMBER | zK | fn '(' expr ')' | '(' expr ')'

Variables are the complex coordinates z1..zn; functions are abs2, re, im,
exp, log, sqrt, sin, cos.  Expressions evaluate over jets, so a parsed
defining function feeds the rest of the toolkit directly.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _rng, jets
from .domains import DomainSpec

__all__ = ["ParseError", "parse", "parse_expression"]

FUNCTIONS = ("abs2", "re", "im", "exp", "log", "sqrt", "sin", "cos")
# parse_expression checks realness at REALNESS_POINTS points, those of
# numpy's default_rng(REALNESS_SEED).uniform(0.3, 1.7, (REALNESS_POINTS, 2n))
# (drawn by _rng, without numpy.random), to IMAG_PART_TOL relative to the
# jet's value and gradient
REALNESS_POINTS = 8
REALNESS_SEED = 7
IMAG_PART_TOL = 1e-9

_TOKEN_RE = re.compile(r"""
    (?P<number>\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/(),])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE)


class ParseError(ValueError):
    """Syntax or semantic error, carrying the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} at position {position}")
        self.position = position
        self.reason = message


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # zero-based


@dataclass(frozen=True)
class Call:
    name: str
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text):
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {match.group()!r}", match.start())
        tokens.append(_Token(kind, match.group(), match.start()))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected):
        tok = self.peek()
        got = repr(tok.text) if tok.kind != "eof" else "end of input"
        raise ParseError(f"expected {expected}, found {got}", tok.pos)

    def expect(self, text):
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            self.fail(f"'{text}'")
        return self.advance()

    def parse(self):
        node = self.expr()
        if self.peek().kind != "eof":
            self.fail("end of input")
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            child = self.unary()
            return child if tok.text == "+" else Neg(child)
        return self.primary()

    def primary(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(name, arg)
            m = re.fullmatch(r"z(\d+)", name)
            if m:
                index = int(m.group(1))
                if index < 1:
                    raise ParseError("variable indices start at z1", tok.pos)
                return Var(index - 1)
            raise ParseError(f"unknown identifier {name!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        self.fail("operand")


def parse(text):
    """Parse an expression into its AST."""
    return _Parser(text).parse()


def max_var_index(node):
    if isinstance(node, Var):
        return node.index + 1
    if isinstance(node, Bin):
        return max(max_var_index(node.left), max_var_index(node.right))
    if isinstance(node, (Call, Neg)):
        return max_var_index(getattr(node, "arg", None) or node.child)
    return 0


_JET_FN = {"exp": jets.exp, "log": jets.log, "sqrt": jets.sqrt,
           "sin": jets.sin, "cos": jets.cos}


def _eval(node, zvars):
    """The jet of node, or its value if it is a constant, which must be finite."""
    out = _eval_node(node, zvars)
    if not isinstance(out, jets.Jet) and not cmath.isfinite(out):
        raise ParseError("constant sub-expression is not finite", 0)
    return out


def _eval_node(node, zvars):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return zvars[node.index]
    if isinstance(node, Neg):
        return -_eval(node.child, zvars)
    if isinstance(node, Bin):
        a = _eval(node.left, zvars)
        b = _eval(node.right, zvars)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if not isinstance(b, jets.Jet) and b == 0:
            raise ParseError("division by zero", 0)
        return a / b
    if isinstance(node, Call):
        arg = _eval(node.arg, zvars)
        if not isinstance(arg, jets.Jet):
            arg = complex(arg)
            if node.name == "abs2":
                return abs(arg) * abs(arg)
            if node.name == "re":
                return arg.real
            if node.name == "im":
                return arg.imag
            with np.errstate(all="ignore"):  # the caller checks the result
                return complex(getattr(np, node.name)(arg))
        if node.name == "abs2":
            re_, im_ = arg.real_part(), arg.imag_part()
            return re_ * re_ + im_ * im_
        if node.name == "re":
            return arg.real_part()
        if node.name == "im":
            return arg.imag_part()
        return _JET_FN[node.name](arg)
    raise TypeError(f"not an AST node: {node!r}")


def _eval_at(node, coords, n, order):
    xs = jets.lift(coords, order)
    zvars = [xs[2 * k] + 1j * xs[2 * k + 1] for k in range(n)]
    out = _eval(node, zvars)
    if not isinstance(out, jets.Jet):  # a constant, possibly complex
        out = out + 0.0 * xs[0]        # as a jet over the batch
    return out


def parse_expression(text, n=None):
    """Parse text into a DomainSpec over C^n.

    If n is omitted it is inferred from the highest variable index.  The
    top-level expression must be real-valued, which is checked at the
    REALNESS_POINTS fixed points that REALNESS_SEED draws before the domain
    is accepted.
    """
    ast = parse(text)
    used = max_var_index(ast)
    if used == 0 and n is None:
        raise ParseError("expression uses no variables", 0)
    if n is None:
        n = used
    if used > n:
        raise ParseError(
            f"unknown identifier: z{used} exceeds declared dimension n={n}",
            text.find(f"z{used}") if f"z{used}" in text else 0)

    coords = np.array(_rng.uniform(REALNESS_SEED, 0.3, 1.7,
                                   REALNESS_POINTS * 2 * n))
    coords = coords.reshape(REALNESS_POINTS, 2 * n).T
    # one batch of all points, with d1 and d2 broadcast over it
    j = _eval_at(ast, coords, n, order=2).take(np.arange(REALNESS_POINTS))
    d1, d2 = j.d1, j.d2.reshape(-1, REALNESS_POINTS)
    imag = np.abs(np.vstack([j.value.imag, d1.imag, d2.imag])).max(axis=0)
    scale = 1.0 + np.abs(j.value) + np.abs(d1).max(axis=0)
    if np.any(imag > IMAG_PART_TOL * scale):
        raise ParseError("expression is not real-valued", 0)

    def ev(coords, order=3):
        return _eval_at(ast, coords, n, order).real_part()

    return DomainSpec(n=n, kind="custom", params={"expression": text, "ast": ast},
                      eval_fn=ev)
