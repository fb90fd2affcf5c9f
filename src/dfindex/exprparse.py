"""Parser of user-supplied defining functions into jet evaluators.

Grammar (infix, left-associative, usual precedence):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := ('+' | '-') unary | primary
    primary := NUMBER | zK | fn '(' expr ')' | '(' expr ')'

Variables are the complex coordinates z1..zn; functions are abs2, re, im,
exp, log, sqrt, sin, cos.  The parser emits the evaluator as it reads: each
rule returns either a constant, folded and checked for finiteness once, or a
closure from the coordinate jets to the jet of its sub-expression.  The
closure of the whole expression, over the coordinate jets of a batch of
points, is the parsed domain's fn, so a parsed defining function feeds the
rest of the toolkit directly.
"""

from __future__ import annotations

import cmath
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from . import jets
from .domains import DomainSpec, _kronecker

__all__ = ["ParseError", "parse_expression"]

FUNCTIONS = ("abs2", "re", "im", "exp", "log", "sqrt", "sin", "cos")
# parse_expression checks realness at the first REALNESS_POINTS points of
# the Kronecker (R_d) sequence in [0.3, 1.7]^2n, to IMAG_PART_TOL relative
# to the jet's value and gradient
REALNESS_POINTS = 8
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


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}


def _abs2(j):
    re_, im_ = j.real_part(), j.imag_part()
    return re_ * re_ + im_ * im_


# each function on a jet argument; an entry is looked up when an expression
# is parsed, so rebinding one (as a span tracer does) reaches later parses
_JET_FN = {"abs2": _abs2, "re": jets.Jet.real_part, "im": jets.Jet.imag_part,
           "exp": jets.exp, "log": jets.log, "sqrt": jets.sqrt,
           "sin": jets.sin, "cos": jets.cos}


class _Parser:
    """Recursive descent that emits the evaluator.  Each rule returns a
    constant (a Python number) or a closure zvars -> Jet over the list of
    coordinate jets z1..zn.  Syntax errors raise at once; the first constant
    fault (a constant that is not finite, a division by a constant zero) is
    kept in ``fault``, at the position of the token that made it, for
    parse_expression to raise after its dimension checks.  ``top`` is the
    (index, position) of the highest variable, at its leftmost occurrence.
    """

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0
        self.top = None
        self.fault = None

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

    # -- constant folding ------------------------------------------------------

    def record(self, message, pos):
        if self.fault is None:
            self.fault = ParseError(message, pos)

    def constant(self, value, pos):
        if not cmath.isfinite(value):
            self.record("constant sub-expression is not finite", pos)
        return value

    def binary(self, op, a, b, pos):
        if op == "/" and not callable(b) and b == 0:
            self.record("division by zero", pos)
            return math.nan
        fn = _BINARY[op]
        if callable(a) and callable(b):
            return lambda z: fn(a(z), b(z))
        if callable(a):
            return lambda z: fn(a(z), b)
        if callable(b):
            return lambda z: fn(a, b(z))
        return self.constant(fn(a, b), pos)

    def call(self, name, arg, pos):
        if callable(arg):
            fn = _JET_FN[name]
            return lambda z: fn(arg(z))
        arg = complex(arg)
        if name == "abs2":
            value = abs(arg) * abs(arg)
        elif name == "re":
            value = arg.real
        elif name == "im":
            value = arg.imag
        else:
            with np.errstate(all="ignore"):  # constant() checks the result
                value = complex(getattr(np, name)(arg))
        return self.constant(value, pos)

    # -- grammar ---------------------------------------------------------------

    def parse(self):
        out = self.expr()
        if self.peek().kind != "eof":
            self.fail("end of input")
        return out

    def expr(self):
        out = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance()
            out = self.binary(op.text, out, self.term(), op.pos)
        return out

    def term(self):
        out = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance()
            out = self.binary(op.text, out, self.unary(), op.pos)
        return out

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            out = self.unary()
            if tok.text == "+":
                return out
            return (lambda z: -out(z)) if callable(out) else -out
        return self.primary()

    def primary(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return self.constant(float(tok.text), tok.pos)
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return self.call(name, arg, tok.pos)
            m = re.fullmatch(r"z(\d+)", name)
            if m:
                index = int(m.group(1)) - 1
                if index < 0:
                    raise ParseError("variable indices start at z1", tok.pos)
                if self.top is None or index > self.top[0]:
                    self.top = (index, tok.pos)
                return operator.itemgetter(index)
            raise ParseError(f"unknown identifier {name!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            out = self.expr()
            self.expect(")")
            return out
        self.fail("operand")


def _eval_at(f, xs, n):
    """The jet of f, a parsed expression in z1..zn, over the coordinate jets
    xs (x1, y1, ..., xn, yn) of a batch; complex where f is."""
    if not callable(f):            # a constant, possibly complex,
        return f + 0.0 * xs[0]     # as a jet over the batch
    return f([xs[2 * k] + 1j * xs[2 * k + 1] for k in range(n)])


def _realness_points(d):
    """Points i = 1..REALNESS_POINTS of the Kronecker (R_d) sequence
    frac(1/2 + i alpha) (domains._kronecker) in [0.3, 1.7]^d, the columns of
    a (d, points) array."""
    return 0.3 + 1.4 * _kronecker(d, REALNESS_POINTS, 0.5)


def parse_expression(text, n=None):
    """Parse text into a DomainSpec over C^n.

    If n is omitted it is inferred from the highest variable index.  The
    top-level expression must be real-valued, which is checked at the
    REALNESS_POINTS fixed points of _realness_points before the domain is
    accepted; a NaN value there is left to boundary_scan's checks to reject.
    """
    parser = _Parser(text)
    f = parser.parse()
    if parser.top is None and n is None:
        raise ParseError("expression uses no variables", 0)
    if n is None:
        n = parser.top[0] + 1
    if parser.top is not None and parser.top[0] >= n:
        raise ParseError(f"unknown identifier: z{parser.top[0] + 1} exceeds "
                         f"declared dimension n={n}", parser.top[1])
    if parser.fault is not None:
        raise parser.fault

    with np.errstate(all="ignore"):
        # one batch of all points, with d1 and d2 broadcast over it
        j = _eval_at(f, jets.lift(_realness_points(2 * n), 2), n).take(
            np.arange(REALNESS_POINTS))
        d1, d2 = j.d1, j.d2.reshape(-1, REALNESS_POINTS)
        imag = np.abs(np.vstack([j.value.imag, d1.imag, d2.imag])).max(axis=0)
        scale = 1.0 + np.abs(j.value) + np.abs(d1).max(axis=0)
    if np.any(imag > IMAG_PART_TOL * scale):
        raise ParseError("expression is not real-valued", 0)

    def fn(xs):
        return _eval_at(f, xs, n).real_part()

    return DomainSpec(n=n, fn=fn)
