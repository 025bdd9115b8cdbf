import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (compose_by_einsum, fd_gradient, fd_hessian,
                     first_order_part, random_safe_expression, same_bits,
                     same_signed_bits)
from polekit import expr as ex
from polekit.errors import EvaluationError
from polekit.jets import (PRIMITIVES, Jet2, _sstep, _sstep3, apply, compose,
                          full_hessian, stacked)


def jet_of(e, x):
    return e.eval(Jet2.seed_point(x, 2))


def test_seed_semantics():
    x = (0.3, -1.2, 4.0, 0.5)
    for a, j in enumerate(Jet2.seed_point(x, 2)):
        assert j.value == x[a]
        assert np.array_equal(j.grad, np.eye(4)[a])
        assert all(h == 0.0 for h in j.hess)


def test_square_of_coordinate():
    # (x1)^2 at x = (0, 3, 0, 0)
    j = jet_of(ex.Mul(ex.Var(1), ex.Var(1)), (0.0, 3.0, 0.0, 0.0))
    assert j.value == 9.0
    assert np.array_equal(j.grad, (0.0, 6.0, 0.0, 0.0))
    assert full_hessian(j.hess)[1, 1] == 2.0
    assert sum(abs(h) for h in j.hess) == 2.0


def test_sin_at_zero():
    j = jet_of(ex.Fun("sin", ex.Var(0)), (0.0, 1.0, 2.0, 3.0))
    assert j.value == 0.0
    assert np.array_equal(j.grad, (1.0, 0.0, 0.0, 0.0))
    assert full_hessian(j.hess)[0, 0] == 0.0


def test_exp_product_against_fd_oracle():
    # exp(x1 * x2) at (0, 1, 1, 0); oracle: Richardson central differences
    e = ex.Fun("exp", ex.Mul(ex.Var(1), ex.Var(2)))
    x = (0.0, 1.0, 1.0, 0.0)
    j = jet_of(e, x)
    assert j.value == pytest.approx(math.e, rel=1e-15)
    assert j.grad[1] == pytest.approx(math.e, rel=1e-12)
    assert j.grad[2] == pytest.approx(math.e, rel=1e-12)
    assert full_hessian(j.hess)[1, 2] == pytest.approx(2 * math.e, rel=1e-12)
    assert full_hessian(j.hess)[1, 1] == pytest.approx(math.e, rel=1e-12)
    assert full_hessian(j.hess)[2, 2] == pytest.approx(math.e, rel=1e-12)

    def f(p):
        return math.exp(p[1] * p[2])

    g = fd_gradient(f, x)
    H = fd_hessian(f, x)
    assert np.allclose(j.grad, g, rtol=1e-8, atol=1e-8)
    assert np.allclose(full_hessian(j.hess), H, rtol=1e-6, atol=1e-6)


def test_plane_distance_jet():
    # sqrt(x1^2 + x2^2) at (0, 3, 4, 0)
    e = ex.Fun(
        "sqrt", ex.Add(ex.Mul(ex.Var(1), ex.Var(1)), ex.Mul(ex.Var(2), ex.Var(2)))
    )
    x = (0.0, 3.0, 4.0, 0.0)
    j = jet_of(e, x)
    assert j.value == pytest.approx(5.0, rel=1e-15)
    assert j.grad == pytest.approx((0.0, 0.6, 0.8, 0.0), rel=1e-14)

    def f(p):
        return math.sqrt(p[1] ** 2 + p[2] ** 2)

    assert np.allclose(j.grad, fd_gradient(f, x), atol=1e-8)
    assert np.allclose(full_hessian(j.hess), fd_hessian(f, x), atol=1e-6)


def test_bump_peak_and_outside():
    # bump((x1 - c)/w) at the peak: value e^{-1}, critical point
    c, w = 0.7, 0.4
    e = ex.Fun("bump", ex.div(ex.sub(ex.Var(1), ex.const(c)), ex.const(w)))
    j = jet_of(e, (0.0, c, 0.0, 0.0))
    assert j.value == pytest.approx(math.exp(-1), rel=1e-15)
    assert all(abs(g) < 1e-15 for g in j.grad)
    outside = jet_of(e, (0.0, c + w, 0.0, 0.0))
    assert outside.value == 0.0
    assert all(g == 0.0 for g in outside.grad)
    assert all(h == 0.0 for h in outside.hess)


def test_bump_smooth_across_boundary():
    # jets match finite differences even close to |u| = 1
    def f(p):
        u = p[1]
        w = 1 - u * u
        return math.exp(-1.0 / w) if w > 0 else 0.0

    e = ex.Fun("bump", ex.Var(1))
    for u in (-0.999, -0.8, 0.0, 0.63, 0.97):
        x = (0.0, u, 0.0, 0.0)
        j = jet_of(e, x)
        assert np.allclose(j.grad, fd_gradient(f, x, h=1e-5), atol=1e-7)


def test_sstep_values_and_derivative_chain():
    e = ex.Fun("sstep", ex.Var(1))
    assert jet_of(e, (0.0, -0.2, 0.0, 0.0)).value == 0.0
    assert jet_of(e, (0.0, 1.3, 0.0, 0.0)).value == 1.0
    j = jet_of(e, (0.0, 0.5, 0.0, 0.0))
    assert j.value == pytest.approx(0.5, rel=1e-14)

    def f(p):
        v = p[1]
        if v <= 0:
            return 0.0
        if v >= 1:
            return 1.0
        return v ** 4 * (35 + v * (-84 + v * (70 - 20 * v)))

    for v in (0.12, 0.5, 0.93):
        x = (0.0, v, 0.0, 0.0)
        j = jet_of(e, x)
        assert np.allclose(j.grad, fd_gradient(f, x), atol=1e-8)
        assert np.allclose(full_hessian(j.hess), fd_hessian(f, x),
                           atol=1e-5)
    # symbolic derivative chain matches the jet gradient
    d = e.diff(1)
    for v in (0.12, 0.5, 0.93, -0.5, 1.5):
        x = (0.0, v, 0.0, 0.0)
        assert d.eval(x) == pytest.approx(
            jet_of(e, x).grad[1], rel=1e-12, abs=1e-12
        )


def test_division_and_sqrt_domain_errors():
    with pytest.raises(EvaluationError) as err:
        jet_of(ex.Div(ex.Const(1.0), ex.Var(1)), (0.0, 0.0, 0.0, 0.0))
    assert err.value.op == "div"
    with pytest.raises(EvaluationError) as err:
        jet_of(ex.Fun("sqrt", ex.Var(1)), (0.0, -1.0, 0.0, 0.0))
    assert err.value.op == "sqrt"
    with pytest.raises(EvaluationError):
        jet_of(ex.Fun("sqrt", ex.Var(1)), (0.0, 0.0, 0.0, 0.0))
    with pytest.raises(EvaluationError) as err:
        jet_of(ex.Pow(ex.Var(1), 0.5), (0.0, -2.0, 0.0, 0.0))
    assert err.value.op == "pow"


def test_integer_power_of_negative_base_is_fine():
    j = jet_of(ex.Pow(ex.Var(1), 3.0), (0.0, -2.0, 0.0, 0.0))
    assert j.value == -8.0
    assert j.grad[1] == 12.0
    assert full_hessian(j.hess)[1, 1] == -12.0


def test_atan2_jet_against_fd():
    e = ex.Atan2(ex.Var(2), ex.Var(1))

    def f(p):
        return math.atan2(p[2], p[1])

    for x in ((0.0, 1.0, 0.4, 0.0), (0.0, -0.7, 1.1, 0.0), (0.0, 0.3, -2.0, 0.0)):
        j = jet_of(e, x)
        assert np.allclose(j.grad, fd_gradient(f, x), atol=1e-8)
        assert np.allclose(full_hessian(j.hess), fd_hessian(f, x),
                           atol=1e-6)
    with pytest.raises(EvaluationError):
        jet_of(e, (0.0, 0.0, 0.0, 0.0))


def test_thousand_random_expressions_match_fd(rng):
    """Gradient and Hessian of random composed expressions agree with
    central differences (h = 1e-4 x coordinate scale) to 1e-6."""
    checked = 0
    while checked < 1000:
        e = random_safe_expression(rng)
        x = tuple(rng.uniform(-1.5, 1.5, 4))
        try:
            j = e.eval(Jet2.seed_point(x, 2))
        except EvaluationError:
            continue
        mags = [abs(j.value), *map(abs, j.grad), *map(abs, j.hess)]
        if not all(np.isfinite(mags)) or max(mags) > 1e6:
            continue

        def f(p, _e=e):
            return _e.eval(tuple(p))

        g = fd_gradient(f, x)
        H = fd_hessian(f, x)
        for a in range(4):
            assert abs(j.grad[a] - g[a]) <= 1e-6 * max(1.0, abs(j.grad[a]))
        jh = full_hessian(j.hess)
        assert np.max(np.abs(jh - H) / np.maximum(1.0, np.abs(jh))) <= 1e-6
        checked += 1


def test_exact_on_degree_two_polynomials(rng):
    """Jets reproduce hand-expanded coefficients of quadratics to
    rounding (<= 1e-13 relative)."""
    for _ in range(200):
        c0 = rng.uniform(-3, 3)
        lin = rng.uniform(-3, 3, 4)
        quad = rng.uniform(-3, 3, (4, 4))
        quad = 0.5 * (quad + quad.T)
        e = ex.const(c0)
        for a in range(4):
            e = ex.add(e, ex.mul(ex.const(lin[a]), ex.Var(a)))
            for b in range(a, 4):
                coeff = quad[a, b] if a == b else 2 * quad[a, b]
                e = ex.add(
                    e,
                    ex.mul(ex.const(coeff), ex.Mul(ex.Var(a), ex.Var(b))),
                )
        x = rng.uniform(-2, 2, 4)
        j = e.eval(Jet2.seed_point(tuple(x), 2))
        value = c0 + lin @ x + x @ quad @ x
        grad = lin + 2 * quad @ x
        hess = 2 * quad
        scale = max(1.0, abs(value), np.max(np.abs(grad)), np.max(np.abs(hess)))
        assert abs(j.value - value) <= 1e-13 * scale
        assert np.max(np.abs(np.array(j.grad) - grad)) <= 1e-13 * scale
        assert np.max(np.abs(full_hessian(j.hess) - hess)) <= 1e-13 * scale


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(*[st.floats(-3, 3) for _ in range(4)]),
    st.tuples(*[st.floats(-2, 2) for _ in range(4)]),
)
def test_mul_commutes_and_hessian_symmetric(coeffs, point):
    a = ex.add(ex.const(0.5), ex.linear_combination(coeffs))
    b = ex.Fun("sin", ex.Var(1))
    x = tuple(point)
    j1 = ex.Mul(a, b).eval(Jet2.seed_point(x, 2))
    j2 = ex.Mul(b, a).eval(Jet2.seed_point(x, 2))
    assert j1.value == j2.value
    assert np.array_equal(j1.grad, j2.grad)
    assert np.array_equal(j1.hess, j2.hess)
    rows = full_hessian(j1.hess)
    for i in range(4):
        for k in range(4):
            assert rows[i][k] == rows[k][i]


def test_compose_matches_substitution(rng):
    """Second-order jet composition equals evaluating the substituted
    tree (pullback correctness at the jet level)."""
    inner = [random_safe_expression(rng) for _ in range(4)]
    outer = random_safe_expression(rng)
    x = tuple(rng.uniform(-1, 1, 4))
    seeds = Jet2.seed_point(x, 2)
    Y = tuple(e.eval(seeds) for e in inner)
    yvals = tuple(j.value for j in Y)
    outer_jet = outer.eval(Jet2.seed_point(yvals, 2))
    composed = compose((outer_jet,), Y)[0]
    direct = outer.subs({i: inner[i] for i in range(4)}).eval(seeds)
    assert composed.value == pytest.approx(direct.value, rel=1e-12, abs=1e-12)
    assert np.allclose(composed.grad, direct.grad, rtol=1e-10, atol=1e-10)
    assert np.allclose(composed.hess, direct.hess, rtol=1e-9, atol=1e-9)
    # Several outer trees through the same inner jets in one call.
    outers = [random_safe_expression(rng) for _ in range(3)]
    for tree, composed in zip(outers, compose(
            [t.eval(Jet2.seed_point(yvals, 2)) for t in outers], Y)):
        direct = tree.subs({i: inner[i] for i in range(4)}).eval(seeds)
        assert composed.value == pytest.approx(direct.value, rel=1e-12,
                                               abs=1e-12)
        assert np.allclose(composed.grad, direct.grad, rtol=1e-10,
                           atol=1e-10)
        assert np.allclose(composed.hess, direct.hess, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("shape", [(), (7,), (512,)])
def test_compose_matches_einsum_reference_bit_for_bit(rng, shape):
    """Composing many outer jets in one call gives each the bits of the
    per-outer einsum composition, for inner jets that are general,
    constant, seeds (rows shared over the batch) or affine."""

    def general():
        return Jet2(rng.normal(size=shape), rng.normal(size=shape + (4,)),
                    rng.normal(size=shape + (10,)))

    x = tuple(rng.uniform(-1, 1, size=shape) for _ in range(4))
    seeds = Jet2.seed_point(x, 2)
    for _ in range(8):
        inner = (general(), seeds[1], Jet2.constant(rng.normal(), 4),
                 Jet2.affine(x[3] * 2.0, rng.normal(size=4), 2))
        inner = tuple(inner[i] for i in rng.permutation(4))
        outers = [general() for _ in range(3)] + [Jet2.constant(1.5, 4)]
        for outer, composed in zip(outers, compose(outers, inner)):
            assert same_bits(composed, compose_by_einsum(outer, inner))


def _unrolled_product(f, g):
    """Value, gradient and packed Hessian of f * g entry by entry, in
    floats, with the product rule written out per entry."""
    rows, cols = np.triu_indices(len(f.grad))
    fv, gv = float(f.value), float(g.value)
    fg, gg = [float(x) for x in f.grad], [float(x) for x in g.grad]
    hess = []
    for k, (a, b) in enumerate(zip(rows, cols)):
        h = fv * float(g.hess[k]) + gv * float(f.hess[k])
        if a == b:
            h = h + 2.0 * fg[a] * gg[a]
        else:
            h = h + fg[a] * gg[b] + fg[b] * gg[a]
        hess.append(h)
    return fv * gv, [fv * gg[i] + gv * fg[i] for i in range(len(fg))], hess


def test_packed_product_rounds_like_unrolled_formulas(rng):
    """The whole-array product rounds every entry exactly as the
    per-entry product rule does, for one point and over a batch."""
    for n in (1, 2, 4):
        m = n * (n + 1) // 2
        f = Jet2(rng.normal(size=8), rng.normal(size=(8, n)),
                 rng.normal(size=(8, m)))
        g = Jet2(rng.normal(size=8), rng.normal(size=(8, n)),
                 rng.normal(size=(8, m)))
        batch = f * g
        for i in range(8):
            fi = Jet2(f.value[i], f.grad[i], f.hess[i])
            gi = Jet2(g.value[i], g.grad[i], g.hess[i])
            value, grad, hess = _unrolled_product(fi, gi)
            one = fi * gi
            for j, k in ((one, ()), (batch, (i,))):
                assert np.asarray(j.value)[k] == value
                assert np.array_equal(j.grad[k], grad)
                assert np.array_equal(j.hess[k], hess)


def _bits(a, shape):
    """The bits of a float array broadcast to ``shape``, with -0 read
    as +0."""
    a = np.broadcast_to(np.asarray(a, dtype=float) + 0.0, shape)
    return np.ascontiguousarray(a).view(np.int64)


def _assert_same_jet(j, k):
    n, m = np.shape(k.grad)[-1], np.shape(k.hess)[-1]
    shape = np.broadcast_shapes(*(np.shape(x.value) for x in (j, k)),
                                *(np.shape(x.grad)[:-1] for x in (j, k)))
    assert np.array_equal(_bits(j.value, shape), _bits(k.value, shape))
    assert np.array_equal(_bits(j.grad, shape + (n,)),
                          _bits(k.grad, shape + (n,)))
    assert np.array_equal(_bits(j.hess, shape + (m,)),
                          _bits(k.hess, shape + (m,)))


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("shape", [(), (7,)])
def test_constant_operands_match_the_general_formulas(rng, n, shape):
    """Sums, differences, products and quotients with a constant take
    the float path, and give the bits of the general formulas applied
    to the constant held as full arrays (up to the sign of a zero), for
    constant, seed and general partners."""
    m = n * (n + 1) // 2

    def full(c):
        return Jet2(c, np.zeros(shape + (n,)), np.zeros(shape + (m,)))

    def value():
        v = rng.uniform(0.5, 2.0, shape) * rng.choice([-1.0, 1.0], shape)
        return float(v) if shape == () else v

    consts = [(Jet2.constant(c, n), full(c)) for c in (value(), value())]
    consts.append((Jet2.constant(-1.75, n), full(-1.75)))
    seeds = Jet2.seed_point(tuple(value() for _ in range(n)), 2)
    general = Jet2(value(), rng.normal(size=shape + (n,)),
                   rng.normal(size=shape + (m,)))
    partners = [(s, s) for s in seeds] + [(general, general)] + consts
    ops = (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
           lambda a, b: a / b)
    for c, c_full in consts:
        for x, x_full in partners:
            for op in ops:
                _assert_same_jet(op(c, x), op(c_full, x_full))
                _assert_same_jet(op(x, c), op(x_full, c_full))
    # Constants stay constants through chains of operations, and a
    # constant result broadcasts over the batch of its partner.
    (c1, f1), (c2, f2), (c3, f3) = consts
    chained = (-(c1 * c2) + c3 / c1 - 2.0) ** 2
    chained_full = (-(f1 * f2) + f3 / f1 - 2.0) ** 2
    _assert_same_jet(chained, chained_full)
    _assert_same_jet(chained * seeds[0] + general,
                     chained_full * seeds[0] + general)


_PRIMITIVE_POINTS = np.array([
    -3.0, -1.5, -1.0 - 1e-15, -1.0, -0.9993, -0.5, -1e-300, 0.0, 1e-300,
    1e-3, 0.25, 0.5, 0.75, 0.9992, 0.9993, 1.0 - 1e-16, 1.0, 1.0 + 1e-15,
    1.5, 3.0,
])


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_value_only_primitives_match_jet_values(name):
    """apply on values gives the bits of the jet's value, over a batch
    and at each point alone, inside, outside and on the edges of the
    supports of bump and the sstep family (|v| = 1, where the bump
    underflows, v = 0 and v = 1)."""
    v = _PRIMITIVE_POINTS
    if name == "sqrt":
        v = v[v >= 1e-3]
    for x in (v, *v):
        value = apply(name, x)
        jet = apply(name, Jet2.seed_point((x,), 2)[0])
        assert np.shape(value) == np.shape(jet.value)
        assert np.array_equal(np.asarray(value).view(np.int64),
                              np.asarray(jet.value).view(np.int64))


def test_value_only_primitives_raise_like_jets():
    for name, x in (("sqrt", np.array([1.0, 0.0])), ("exp", np.array([1e3]))):
        with pytest.raises(EvaluationError):
            apply(name, x)
        with pytest.raises(EvaluationError):
            apply(name, Jet2.seed_point((x,), 2)[0])


@pytest.mark.parametrize("n", [1, 4])
def test_one_point_jets_keep_point_shapes(n):
    """Jets of a float environment (one point, S = ()) read back as a
    gradient (n,) and a packed Hessian (n(n+1)/2,)."""
    m = n * (n + 1) // 2
    seeds = Jet2.seed_point(tuple(0.3 + 0.1 * a for a in range(n)), 2)
    u, v = seeds[0], seeds[-1]
    c = Jet2.constant(2.0, n)
    for j in (u, c, u * v, u + c, c - v, u * c, u / v, c / u, u ** 3,
              apply("sin", u), apply("exp", u * v), -u, 1.0 - v):
        assert np.shape(j.grad) == (n,)
        assert np.shape(j.hess) == (m,)


def _batch_point(rng, shape, n=4):
    """n coordinates, floats for S = () and arrays of shape S else."""
    x = rng.uniform(-1, 1, size=(n,) + shape)
    return tuple(float(a) for a in x) if shape == () else tuple(x)


def _with_every_primitive(t):
    """Trees over ``t`` that reach every primitive, both chain rules and
    both kinds of power, with arguments inside their domains."""
    c, sq = ex.Const, ex.Mul(t, t)
    return (t, ex.Neg(t), ex.Pow(t, 3.0), ex.Pow(ex.Add(c(1.5), sq), 2.5),
            ex.Div(c(1.0), ex.Add(c(2.0), sq)),
            ex.Atan2(t, ex.Add(c(2.0), sq)),
            ex.Fun("bump", ex.Mul(c(0.5), ex.Fun("sin", t))),
            *(ex.Fun(name, ex.Mul(c(0.7), t))
              for name in ("sstep", "sstep_d1", "sstep_d2")))


@pytest.mark.parametrize("shape", [(), (7,), (2, 3)])
def test_order_one_is_the_first_order_part_of_order_two(rng, shape):
    """Expression trees evaluated on order-1 seeds give, with no Hessian
    rows, the value and gradient of order-2 evaluation bit for bit."""
    for _ in range(60):
        x = _batch_point(rng, shape)
        low, high = Jet2.seed_point(x, 1), Jet2.seed_point(x, 2)
        for tree in _with_every_primitive(random_safe_expression(rng)):
            assert first_order_part(tree.eval(low), tree.eval(high))
        # An order-2 operand with an order-1 one gives order 1.
        t = random_safe_expression(rng)
        mixed = t.eval(low) * t.eval(high) + t.eval(high)
        assert first_order_part(mixed, t.eval(high) * t.eval(high)
                                + t.eval(high))


@pytest.mark.parametrize("shape", [(), (7,)])
def test_compose_at_order_one_is_the_first_order_part(rng, shape):
    """compose of order-1 jets, or with an order-1 side, has the value
    and gradient of the order-2 composition bit for bit."""
    for _ in range(20):
        x = _batch_point(rng, shape)
        inner = [random_safe_expression(rng) for _ in range(4)]
        outer = [random_safe_expression(rng) for _ in range(3)]

        def jets(order):
            Y = tuple(e.eval(Jet2.seed_point(x, order)) for e in inner)
            y = Jet2.seed_point(tuple(j.value for j in Y), order)
            return [t.eval(y) for t in outer], Y

        (F1, Y1), (F2, Y2) = jets(1), jets(2)
        full = compose(F2, Y2)
        for composed in (compose(F1, Y1), compose(F1, Y2), compose(F2, Y1)):
            for j, ref in zip(composed, full):
                assert first_order_part(j, ref)


def test_hessians_of_an_order_one_jet_raise():
    x = (np.array([0.1, 0.2]),) * 4
    low, high = Jet2.seed_point(x, 1), Jet2.seed_point(x, 2)
    j = low[0] * low[1]
    assert stacked([j], (2,), 1).shape == (2, 1, 4)
    for jets in ([j], [high[0] * high[1], j]):
        with pytest.raises(ValueError):
            stacked(jets, (2,), 2)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_sstep3_is_three_sstep_reads(k):
    """The three derivatives read under one mask have the bits of three
    separate reads, inside, outside and on the edges of the step."""
    v = np.array([-2.0, -1e-300, 0.0, 1e-300, 1e-3, 0.3, 0.5, 0.77,
                  1.0 - 1e-16, 1.0, 1.0 + 1e-15, 3.0])
    for got, want in zip(_sstep3(v, k), (_sstep(v, k + i) for i in range(3))):
        assert same_signed_bits(got, want)


def test_number_divided_by_a_jet():
    """``1.5 / jet`` (``Jet2.__rtruediv__``) has the value, gradient and
    Hessian of 1.5 / (x1 x2 + 2) by finite differences."""
    x = (0.3, -0.8, 1.7, 0.4)
    r = 1.5 / jet_of(ex.parse("x1*x2 + 2"), x)

    def f(p):
        return 1.5 / (p[1] * p[2] + 2.0)

    assert r.value == pytest.approx(f(x), rel=1e-15)
    assert np.allclose(r.grad, fd_gradient(f, x), rtol=0.0, atol=1e-9)
    assert np.allclose(full_hessian(r.hess), fd_hessian(f, x), rtol=0.0,
                       atol=1e-6)
