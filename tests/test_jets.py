import math

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from dfindex import jets


def rand_jet(rng, nvars=4, order=3, complex_=True):
    def arr(shape):
        a = rng.normal(size=shape)
        if complex_:
            a = a + 1j * rng.normal(size=shape)
        return a
    d2 = arr((nvars,) * 2)
    d2 = d2 + d2.T
    d3 = arr((nvars,) * 3)
    d3 = (d3 + d3.transpose(0, 2, 1) + d3.transpose(1, 0, 2)
          + d3.transpose(1, 2, 0) + d3.transpose(2, 0, 1)
          + d3.transpose(2, 1, 0)) / 6.0
    value = complex(arr(())) if complex_ else float(rng.normal())
    # one point as a batch of one
    return jets.Jet(nvars, order, np.array([value]), arr(nvars)[:, None],
                    d2[..., None], d3[..., None])


def constant(value, like):
    """The constant jet ``value`` over the batch of ``like``."""
    return 0.0 * like + value


def jets_close(a, b, tol=1e-10):
    scale = 1.0 + abs(a.value) + abs(b.value)
    assert abs(a.value - b.value) <= tol * scale
    assert np.abs(a.d1 - b.d1).max() <= tol * (1.0 + np.abs(a.d1).max())
    if a.d2 is not None and b.d2 is not None:
        assert np.abs(a.d2 - b.d2).max() <= tol * (1.0 + np.abs(a.d2).max())
    if a.d3 is not None and b.d3 is not None:
        assert np.abs(a.d3 - b.d3).max() <= tol * (1.0 + np.abs(a.d3).max())


# -- ring axioms -----------------------------------------------------------------

@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_product_rule_symmetry_and_distributivity(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rand_jet(rng) for _ in range(3))
    jets_close(a * b, b * a)
    jets_close(a * (b + c), a * b + a * c)
    jets_close((a + b) + c, a + (b + c))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_reciprocal_and_division(seed):
    rng = np.random.default_rng(seed)
    a = rand_jet(rng)
    a = a + (3.0 + abs(a.value))  # keep away from zero
    jets_close(a * jets.reciprocal(a), constant(1.0 + 0j, a), tol=1e-9)
    b = rand_jet(rng)
    jets_close((b / a) * a, b, tol=1e-8)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_exp_log_roundtrip(seed):
    rng = np.random.default_rng(seed)
    a = rand_jet(rng, complex_=False)
    a = a + (2.0 + abs(a.value))
    jets_close(jets.log(jets.exp(a)), a, tol=1e-8)
    jets_close(jets.exp(jets.log(a)), a, tol=1e-8)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_trig_identity(seed):
    rng = np.random.default_rng(seed)
    a = rand_jet(rng, complex_=False)
    one = jets.sin(a) * jets.sin(a) + jets.cos(a) * jets.cos(a)
    jets_close(one, constant(1.0, a), tol=1e-9)


def test_sqrt_squares():
    rng = np.random.default_rng(7)
    a = rand_jet(rng, complex_=False)
    a = a + (4.0 + abs(a.value))
    jets_close(jets.sqrt(a) * jets.sqrt(a), a, tol=1e-9)


# -- seeds, mixed orders, conjugation -------------------------------------------

def test_lift_seeds_coordinates():
    coords = np.array([0.3, -1.2, 0.8, 2.5])
    xs = [x.take(0) for x in jets.lift(coords[:, None], 3)]
    for i, x in enumerate(xs):
        assert x.value == coords[i]
        expected = np.zeros(4)
        expected[i] = 1.0
        assert np.array_equal(x.d1, expected)
        assert np.abs(x.d2).max() == 0.0


def test_lift_takes_only_a_batch():
    # one point is a batch of one; DomainSpec.rho is where it becomes one
    for coords in (np.array([0.3, -1.2]), np.zeros((2, 1, 1)), 0.5):
        with pytest.raises(jets.JetError, match=r"\(nvars, B\)"):
            jets.lift(coords, 3)


def _cube(g):
    # powers as products: numpy's array power rounds unlike the scalar one
    v = g.value
    return jets.compose(g, v * v * v, 3.0 * v * v, 6.0 * v, 6.0)


def _batched_cases(x1, y1, x2, y2):
    # every operation the domains' defining functions use
    z = x1 + 1j * y1
    return {
        "+": x1 + y2 + 0.5,
        "-": x2 - y1 - 0.25,
        "*": (x1 * y2) * 1.5,
        "/": x2 / (y1 + 2.0) + 3.0 / x1,
        "compose": _cube(x2 * y1),
        "exp": jets.exp(x1 * y1),
        "log": jets.log(x2 * x2 + y2 * y2),
        "sqrt": jets.sqrt(x1 * x1 + 1.0),
        "sin": jets.sin(x2 - y2),
        "cos": jets.cos(y1 * x2),
        "reciprocal": jets.reciprocal(y2 + 2.0),
        "real_part": (z * x2 + 1j * y2).real_part(),
        "imag_part": (z * x2 + 1j * y2).imag_part(),
    }


def _take(cases, k):
    # the jets of column k of each case
    return {name: jet.take(k) for name, jet in cases.items()}


def test_batched_order1_jets_match_stacked_scalar_jets():
    rng = np.random.default_rng(5)
    coords = rng.uniform(0.2, 1.5, size=(4, 6))
    batched = _batched_cases(*jets.lift(coords, 1))
    columns = [_take(_batched_cases(*jets.lift(c[:, None], 1)), 0)
               for c in coords.T]
    for name, jet in batched.items():
        assert jet.order == 1 and jet.value.shape == (6,), name
        d1 = np.broadcast_to(jet.d1, (4, 6))
        for k, col in enumerate(columns):
            assert jet.value[k] == col[name].value, name
            assert np.array_equal(d1[:, k], col[name].d1), name


def _column(a, k, count):
    # column k of a batched array whose batch axis may be a singleton
    a = np.asarray(a)
    return np.broadcast_to(a, a.shape[:-1] + (count,))[..., k]


@pytest.mark.parametrize("order", [2, 3])
def test_batched_jets_match_stacked_scalar_jets(order):
    def cases(coords):
        out = _batched_cases(*jets.lift(coords, order))
        f = out["log"] * out["cos"] + out["exp"]
        out["deriv"] = reference.deriv(f, 1)
        out["wirt"] = reference.wirt(f, 0)
        out["wirtbar"] = reference.wirtbar(f, 1)
        return out

    rng = np.random.default_rng(5)
    coords = rng.uniform(0.2, 1.5, size=(4, 6))
    batched = cases(coords)
    columns = [_take(cases(c[:, None]), 0) for c in coords.T]
    for name, jet in batched.items():
        assert jet.value.shape == (6,), name
        for k, col in enumerate(columns):
            scalar = col[name]
            assert jet.order == scalar.order, name
            for part in ("value", "d1", "d2", "d3"):
                want = getattr(scalar, part)
                if want is None:
                    continue
                got = _column(getattr(jet, part), k, 6)
                assert np.array_equal(got, want), (name, part, k)
            assert np.array_equal(jet.take(k).d1, scalar.d1), name
    for name in ("real_part", "imag_part", "+", "sqrt"):
        w = jets.wirtinger(batched[name], 2)
        ones = [jets.wirtinger(col[name], 2) for col in columns]
        stacked = reference.stack_wirtinger(ones)
        for field in ("value", "grad", "hess_mixed"):
            for k, one in enumerate(ones):
                assert np.array_equal(_column(getattr(w, field), k, 6),
                                      getattr(one, field)), (name, field)
            # stacking the single points rebuilds the batch
            assert np.array_equal(
                np.broadcast_to(getattr(w, field), getattr(stacked, field).shape),
                getattr(stacked, field)), (name, field)


def test_batched_lift_seeds_every_order():
    coords = np.arange(12.0).reshape(4, 3)
    for order in (1, 2, 3):
        xs = jets.lift(coords, order)
        for i, x in enumerate(xs):
            assert x.order == order
            assert np.array_equal(x.value, coords[i])
            assert x.d1.shape == (4, 1)
            assert np.array_equal(x.d1[:, 0], np.eye(4)[i])
            if order >= 2:
                assert x.d2.shape == (4, 4, 1) and not x.d2.any()
            if order >= 3:
                assert x.d3.shape == (4, 4, 4, 1) and not x.d3.any()


@pytest.mark.parametrize("low", [1, 2])
def test_mixed_order_arithmetic_is_truncated_arithmetic(low):
    # a sum or product has the lower order of its operands, bit for bit the
    # result of truncating the higher one first
    rng = np.random.default_rng(5)
    a, b = rand_jet(rng), rand_jet(rng, order=low)
    cut = jets.Jet(a.nvars, low, a.value, a.d1, a.d2)  # drops the rest
    for got, want in ((a + b, cut + b), (b + a, b + cut),
                      (a * b, cut * b), (b * a, b * cut)):
        assert got.order == low
        for part in ("value", "d1", "d2", "d3"):
            assert np.array_equal(getattr(got, part), getattr(want, part))


def test_conj_real_imag_decomposition():
    rng = np.random.default_rng(2)
    a = rand_jet(rng)
    re, im = a.real_part(), a.imag_part()
    jets_close(re + 1j * im, a)
    jets_close(reference.conj(a), re - 1j * im)
    for part in ("value", "d1", "d2", "d3"):
        assert not np.any(np.imag(getattr(re, part)))


def test_deriv_shifts_derivatives():
    rng = np.random.default_rng(3)
    a = rand_jet(rng)
    d = reference.deriv(a, 2)
    assert d.order == 2
    assert d.value == a.d1[2]
    assert np.array_equal(d.d1, a.d2[2])
    assert np.array_equal(np.asarray(d.d2), np.asarray(a.d3[2]))


def test_wirt_is_half_dx_minus_i_dy():
    rng = np.random.default_rng(4)
    a = rand_jet(rng)
    w = reference.wirt(a, 1)
    direct = 0.5 * (reference.deriv(a, 2) - 1j * reference.deriv(a, 3))
    jets_close(w, direct)
    assert reference.wirt_value(a, 1) == 0.5 * (a.d1[2] - 1j * a.d1[3])
    assert reference.wirtbar_value(a, 1) == 0.5 * (a.d1[2] + 1j * a.d1[3])


# -- composition against closed forms --------------------------------------------

def test_compose_matches_analytic_third_order():
    # f(x, y) = exp(x * y + y^2) along seeded coordinates
    coords = np.array([0.4, 0.9])
    x, y = jets.lift(coords[:, None], 3)
    f = jets.exp(x * y + y * y).take(0)

    def fval(x_, y_):
        return math.exp(x_ * y_ + y_ * y_)

    h = 1e-4
    fd_xyy = (fval(0.4 + h, 0.9 + h) - fval(0.4 + h, 0.9 - h)
              - fval(0.4 - h, 0.9 + h) + fval(0.4 - h, 0.9 - h)) / (4 * h * h)
    assert f.d2[0, 1] == pytest.approx(fd_xyy, rel=1e-6)


def test_richardson_fd_oracle_on_worm():
    """Directional jet derivatives vs Richardson-extrapolated differences."""
    from dfindex import domains

    dm = domains.worm_rho(3 * math.pi / 4, 0.1)
    rng = np.random.default_rng(11)
    worst = np.zeros(3)
    for _ in range(25):
        coords = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                           rng.uniform(0.7, 1.4), rng.uniform(0.7, 1.4)])
        j = dm.rho(coords, order=3)
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)

        def f(s):
            return dm.rho(coords + s * v, order=1).value

        g1 = float(j.d1 @ v)
        g2 = float(v @ j.d2 @ v)
        g3 = float(np.einsum("ijk,i,j,k->", j.d3, v, v, v))
        for k, (exact, fd) in enumerate([
                (g1, richardson(lambda h: (f(h) - f(-h)) / (2 * h))),
                (g2, richardson(lambda h: (f(h) - 2 * f(0) + f(-h)) / h ** 2)),
                (g3, richardson(lambda h: (f(2 * h) - 2 * f(h) + 2 * f(-h)
                                           - f(-2 * h)) / (2 * h ** 3)))]):
            rel = abs(exact - fd) / max(1.0, abs(exact))
            worst[k] = max(worst[k], rel)
    assert worst[0] < 1e-8
    assert worst[1] < 1e-6
    assert worst[2] < 1e-5


def richardson(diff, h0=0.04, levels=6):
    """Repeated Richardson extrapolation of an even-order-error difference.

    The profile function's high-order derivatives spike near the edge of its
    flat region, so several halvings are needed before the asymptotic error
    expansion kicks in.
    """
    T = [[diff(h0 / 2 ** k)] for k in range(levels)]
    for j in range(1, levels):
        for k in range(j, levels):
            T[k].append((4 ** j * T[k][j - 1] - T[k - 1][j - 1])
                        / (4 ** j - 1))
    return T[levels - 1][levels - 1]


# -- Wirtinger data ---------------------------------------------------------------

def test_wirtinger_of_hermitian_quadratic():
    # rho = |z1|^2 + 2|z2|^2 + 2 Re(z1 conj(z2))
    coords = np.array([0.3, 0.7, -0.2, 0.5])

    def rho(order):
        x1, y1, x2, y2 = jets.lift(coords[:, None], order)
        return (x1 * x1 + y1 * y1 + 2.0 * (x2 * x2 + y2 * y2)
                + 2.0 * (x1 * x2 + y1 * y2)).take(0)

    w = jets.wirtinger(rho(3), 2)
    H = np.array([[1.0, 1.0], [1.0, 2.0]])
    assert np.abs(w.hess_mixed - H).max() < 1e-12
    z = np.array([coords[0] + 1j * coords[1], coords[2] + 1j * coords[3]])
    assert np.abs(w.grad - H @ np.conj(z)).max() < 1e-12
    # the conversion needs second derivatives and nothing beyond them
    w2 = jets.wirtinger(rho(2), 2)
    assert np.array_equal(w2.grad, w.grad)
    assert np.array_equal(w2.hess_mixed, w.hess_mixed)
    with pytest.raises(jets.JetError):
        jets.wirtinger(rho(1), 2)


def _conversion_case(name, order):
    """(jet of the given order, n) of one defining function over a batch:
    the worm delta and its realized +-psi members at the weak annulus, the
    C^3 egg, the ball and an affine function at points drawn in a cube."""
    from dfindex import domains, exprparse, index

    beta = 3 * math.pi / 4
    base = domains.worm_rho(beta, 0.0)
    annulus = np.stack([p.coords for p in domains.annulus_points(beta, 33)],
                       axis=1)
    cube = np.random.default_rng(9).uniform(-0.6, 0.6, size=(6, 7))
    if name == "egg":
        egg = exprparse.parse_expression("abs2(z1)+abs2(z2)+abs2(z3)*abs2(z3)-1")
        return egg.rho(cube, order), 3
    if name == "ball":
        return domains.ball(2).rho(cube[:4], order), 2
    if name == "affine":
        plane = exprparse.parse_expression("re(z1)+im(z2)-1")
        return plane.rho(cube[:4], order), 2
    family = index.RhoFamily(base, index.worm_psi_basis())
    sign = {"worm": 0.0, "+psi": 1.0, "-psi": -1.0}[name]
    return family.realize(sign * np.eye(family.dim)[0]).rho(annulus, order), 2


@pytest.mark.parametrize("name", ["worm", "+psi", "-psi", "egg", "ball",
                                  "affine"])
def test_order3_wirtinger_matches_the_oracle(name):
    rho, n = _conversion_case(name, 3)
    count = rho.value.shape[0]
    if name == "affine":  # its d1, d2 and d3 are the same at every point
        assert rho.d1.shape[-1] == rho.d2.shape[-1] == rho.d3.shape[-1] == 1
    w = jets.wirtinger(rho, n)
    for field in ("value", "grad", "hess_mixed", "hess", "third"):
        assert getattr(w, field).shape[-1] == count, field
    for b in range(count):
        one = rho.take(b)
        dz = [reference.wirt(one, k) for k in range(n)]  # jets of rho_{z_k}
        hess = np.array([[reference.wirt_value(dz[m], l) for m in range(n)]
                         for l in range(n)])
        third = np.array([[[reference.wirtbar_value(reference.wirtbar(dz[k], m), l)
                            for l in range(n)] for m in range(n)]
                          for k in range(n)])
        for got, want in ((w.hess[..., b], hess), (w.third[..., b], third)):
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        # one point without a batch axis converts to data without one
        alone = jets.wirtinger(one, n)
        for field in ("grad", "hess_mixed", "hess", "third"):
            assert np.array_equal(getattr(alone, field),
                                  getattr(w.take(b), field)), field
    # an order-2 jet gives the same data without the order-3 tensors
    w2 = jets.wirtinger(_conversion_case(name, 2)[0], n)
    assert w2.hess is None and w2.third is None
    for field in ("value", "grad", "hess_mixed"):
        assert np.array_equal(getattr(w2, field), getattr(w, field)), field


def test_coords_roundtrip():
    z = np.array([0.3 + 1j, -2.0 + 0.25j])
    coords = jets.coords_of_point(z)
    assert np.array_equal(coords, [0.3, 1.0, -2.0, 0.25])
    assert np.array_equal(jets.point_of_coords(coords), z)
