import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfindex import exprparse, jets
from dfindex.exprparse import Bin, Call, Neg, Num, ParseError, Var


def test_parse_simple():
    ast = exprparse.parse("abs2(z1) + abs2(z2) - 1")
    assert isinstance(ast, Bin) and ast.op == "-"
    assert isinstance(ast.left, Bin) and ast.left.op == "+"


def test_precedence_and_associativity():
    assert exprparse.parse("1 - 2 - 3") == Bin("-", Bin("-", Num(1.0), Num(2.0)),
                                               Num(3.0))
    assert exprparse.parse("1 + 2 * 3") == Bin("+", Num(1.0),
                                               Bin("*", Num(2.0), Num(3.0)))
    assert exprparse.parse("(1 + 2) * 3") == Bin("*", Bin("+", Num(1.0),
                                                          Num(2.0)), Num(3.0))


def test_unary_minus():
    assert exprparse.parse("-z1") == Neg(Var(0))
    assert exprparse.parse("--z1") == Neg(Neg(Var(0)))
    assert exprparse.parse("+z1") == Var(0)


@pytest.mark.parametrize("text,pos", [
    ("abs2(z1", 7),          # missing paren: error at end of input
    ("z1 + ", 5),
    ("z1 @ z2", 3),
    ("foo(z1)", 0),
    ("z0 + 1", 0),
    # semantic errors point at their node: the '/' and the 'log'
    ("abs2(z1)+abs2(z2)-1/0", 19),
    ("abs2(z1)+abs2(z2)-1+0*log(0)", 22),
])
def test_error_positions(text, pos):
    with pytest.raises(ParseError) as err:
        exprparse.parse_expression(text)
    assert err.value.position == pos


def test_unknown_identifier_message():
    with pytest.raises(ParseError, match="unknown identifier"):
        exprparse.parse("sinh(z1)")


# -- pretty printing round trip ----------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def pretty(node, parent_prec=0, right=False):
    """Render an AST as text with the fewest parentheses the grammar needs,
    so that the round trip parse(pretty(ast)) == ast tests the parser's
    precedence and associativity."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"z{node.index + 1}"
    if isinstance(node, Call):
        return f"{node.name}({pretty(node.arg)})"
    if isinstance(node, Neg):
        return f"-{pretty(node.child, parent_prec=3)}"
    prec = _PREC[node.op]
    text = (f"{pretty(node.left, prec, False)} {node.op} "
            f"{pretty(node.right, prec, True)}")
    # right operand of -, / needs parens at equal precedence
    if prec < parent_prec or (prec == parent_prec and right):
        return f"({text})"
    return text


def ast_strategy():
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=9.0).map(lambda v: Num(round(v, 2))),
        st.integers(0, 2).map(Var))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: Bin(*t)),
            st.tuples(st.sampled_from(exprparse.FUNCTIONS), children).map(
                lambda t: Call(*t)),
            children.map(Neg))

    return st.recursive(leaves, extend, max_leaves=12)


@given(ast_strategy())
@settings(max_examples=150, deadline=None)
def test_pretty_parse_roundtrip(ast):
    assert exprparse.parse(pretty(ast)) == ast


# -- semantic layer -----------------------------------------------------------------

def test_parse_expression_ball():
    dm = exprparse.parse_expression("abs2(z1) + abs2(z2) - 1")
    assert dm.n == 2
    assert dm.value(jets.coords_of_point([1.0, 0.0])) == pytest.approx(0.0)
    assert dm.value(jets.coords_of_point([0.0, 0.5])) == pytest.approx(-0.75)


def test_parse_expression_dimension_inference_and_override():
    dm = exprparse.parse_expression("abs2(z1) - 1", n=3)
    assert dm.n == 3
    with pytest.raises(ParseError, match="exceeds declared dimension"):
        exprparse.parse_expression("abs2(z3) - 1", n=2)
    # the error points at the highest variable, its leftmost occurrence
    with pytest.raises(ParseError, match="z3 exceeds") as err:
        exprparse.parse_expression("abs2(z1) + abs2(z3) - abs2(z3)", n=2)
    assert err.value.position == 16


def test_parse_expression_rejects_complex_valued():
    with pytest.raises(ParseError, match="not real-valued"):
        exprparse.parse_expression("z1 + abs2(z2) - 1")


def test_parse_expression_checks_constants_for_realness():
    with pytest.raises(ParseError, match="not real-valued"):
        exprparse.parse_expression("sqrt(0-1)", n=1)
    dm = exprparse.parse_expression("2-1", n=1)
    j = dm.rho(np.array([0.3, -0.4]), order=2)
    assert j.value == 1.0
    assert not np.any(j.d1) and not np.any(j.d2)


def test_jet_evaluation_matches_hand_derivatives():
    dm = exprparse.parse_expression("re(z1)*re(z1) + exp(im(z2)) - 2")
    coords = np.array([0.3, -0.4, 0.2, 0.6])
    j = dm.rho(coords, order=2)
    assert j.value == pytest.approx(0.09 + np.exp(0.6) - 2.0)
    assert j.d1[0] == pytest.approx(0.6)
    assert j.d1[3] == pytest.approx(np.exp(0.6))
    assert j.d2[3, 3] == pytest.approx(np.exp(0.6))
    assert j.d2[0, 0] == pytest.approx(2.0)


def test_expression_feeds_geometry():
    from dfindex import levi

    dm = exprparse.parse_expression("abs2(z1) + abs2(z2)*abs2(z2) - 1")
    scan = dm.boundary_batch(jets.coords_of_point([1.0, 0.0])[:, None])
    lb = levi.levi_batch(scan.wirt)
    # |z2|^4 is Levi-flat in z2 along its zero set
    assert lb.point.tolist() == [0]


@pytest.mark.parametrize("d", [2, 4, 6])
def test_realness_points_are_unchanged(d):
    # realness is checked at points i = 1..8 of frac(1/2 + i alpha), scaled
    # to [0.3, 1.7]; the shared R_d generator must give them bit for bit
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (d + 1))
    i = np.arange(1, exprparse.REALNESS_POINTS + 1)
    want = 0.3 + 1.4 * ((0.5 + np.outer(g ** -np.arange(1.0, d + 1), i)) % 1.0)
    assert np.array_equal(exprparse._realness_points(d), want)
