import cmath

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dfindex import exprparse, jets
from dfindex.exprparse import ParseError


def _value(text):
    return exprparse.parse_expression(text, n=1).value(np.array([0.5, 0.0]))


def test_precedence_and_associativity():
    assert _value("1 - 2 - 3") == -4.0
    assert _value("8 / 4 / 2") == 1.0
    assert _value("1 + 2 * 3") == 7.0
    assert _value("(1 + 2) * 3") == 9.0


def test_unary_minus():
    assert _value("-re(z1)") == -0.5
    assert _value("--re(z1)") == 0.5
    assert _value("+re(z1)") == 0.5
    assert _value("-2 * 3 - -1") == -5.0


@pytest.mark.parametrize("text,pos", [
    ("abs2(z1", 7),          # missing paren: error at end of input
    ("z1 + ", 5),
    ("z1 @ z2", 3),
    ("foo(z1)", 0),
    ("z0 + 1", 0),
    # semantic errors point at their token: the '/' and the 'log'
    ("abs2(z1)+abs2(z2)-1/0", 19),
    ("abs2(z1)+abs2(z2)-1+0*log(0)", 22),
])
def test_error_positions(text, pos):
    with pytest.raises(ParseError) as err:
        exprparse.parse_expression(text)
    assert err.value.position == pos


# one text per pair of error kinds: syntax, then no variables or a variable
# beyond n, then the first constant fault, then realness
@pytest.mark.parametrize("text,n,message,pos", [
    ("z3 +", 2, "expected operand", 4),
    ("1/0 +", 1, "expected operand", 5),
    ("z1 * (", 1, "expected operand", 6),
    ("1/0", None, "uses no variables", 0),
    ("abs2(z3) + 1/0", 2, "z3 exceeds declared dimension", 5),
    ("z3", 2, "z3 exceeds declared dimension", 0),
    ("z1 + 1/0", 1, "division by zero", 6),
    # of two constant faults, the first in source order
    ("abs2(z1) + log(0) + 1/0", 1, "constant sub-expression is not finite", 11),
    ("abs2(z1) + 1/0 + log(0)", 1, "division by zero", 12),
])
def test_error_kinds_raise_in_order(text, n, message, pos):
    with pytest.raises(ParseError, match=message) as err:
        exprparse.parse_expression(text, n)
    assert err.value.position == pos


def test_unknown_identifier_message():
    with pytest.raises(ParseError, match="unknown identifier"):
        exprparse.parse_expression("sinh(z1)")


# -- the evaluator against Python's own eval ----------------------------------------

# three points of C^3 as columns of interleaved re/im coordinates
COORDS = np.array([[0.3, -1.2, 0.8], [-0.4, 0.5, 1.1], [0.9, 0.2, -0.7],
                   [0.1, -0.6, 0.4], [-1.3, 0.7, 0.2], [0.6, 1.4, -0.9]])


def _python_fn(name):
    """name applied as the parser applies it: on a jet through jets, on a
    constant through complex(arg), raising on a result that is not finite."""

    def fn(arg):
        if isinstance(arg, jets.Jet):
            if name == "abs2":
                re_, im_ = arg.real_part(), arg.imag_part()
                return re_ * re_ + im_ * im_
            if name in ("re", "im"):
                return arg.real_part() if name == "re" else arg.imag_part()
            return getattr(jets, name)(arg)
        arg = complex(arg)
        if name == "abs2":
            value = abs(arg) * abs(arg)
        elif name in ("re", "im"):
            value = arg.real if name == "re" else arg.imag
        else:
            value = complex(getattr(np, name)(arg))
        if not cmath.isfinite(value):
            raise FloatingPointError(f"{name} of a constant is not finite")
        return value

    return fn


def _python_eval(text, order):
    """The real part of text evaluated by Python's eval over jets, as a jet
    over the batch COORDS."""
    xs = jets.lift(COORDS, order)
    namespace = {name: _python_fn(name) for name in exprparse.FUNCTIONS}
    namespace.update({f"z{k + 1}": xs[2 * k] + 1j * xs[2 * k + 1]
                      for k in range(3)})
    out = eval(text, {"__builtins__": {}}, namespace)
    if not isinstance(out, jets.Jet):
        out = out + 0.0 * xs[0]
    return out.real_part()


def texts():
    """Expressions in z1..z3 with finite constants, rendered with random
    parentheses: where there are none, the parser and Python must both apply
    their (shared) precedence and associativity."""
    leaves = st.one_of(st.integers(0, 900).map(lambda k: repr(k / 100)),
                       st.integers(1, 3).map(lambda k: f"z{k}"))

    def extend(children):
        return st.one_of(
            st.tuples(children, st.sampled_from("+-*/"), children).map(
                " ".join),
            st.tuples(st.sampled_from(exprparse.FUNCTIONS), children).map(
                lambda t: f"{t[0]}({t[1]})"),
            children.map(lambda c: f"-{c}"),
            children.map(lambda c: f"({c})"))

    return st.recursive(leaves, extend, max_leaves=12)


@given(texts(), st.sampled_from(["re", "im", "abs2"]))
@settings(max_examples=200, deadline=None)
def test_jets_equal_python_eval(body, top):
    # the top function makes the expression real-valued
    text = f"{top}({body})"
    with np.errstate(all="ignore"):
        try:
            want = [_python_eval(text, order) for order in (1, 2, 3)]
        except (ZeroDivisionError, FloatingPointError):
            with pytest.raises(ParseError, match="division by zero|not finite"):
                exprparse.parse_expression(text, 3)
            return
        try:
            dm = exprparse.parse_expression(text, 3)
        except ParseError as err:
            # a product or sum of finite constants that overflows, which
            # Python's eval does not check
            assume("not finite" not in str(err))
            raise
        for order, jet in zip((1, 2, 3), want):
            got = dm.rho(COORDS, order)
            for a, b in zip((got.value, got.d1, got.d2, got.d3),
                            (jet.value, jet.d1, jet.d2, jet.d3)):
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()


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
