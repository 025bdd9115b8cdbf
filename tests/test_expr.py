import math

import numpy as np
import pytest

from oracles import fd_gradient_plain, random_safe_expression
from polekit import expr as ex
from polekit import jets
from polekit.classify import compact_window_expr, random_poly_expr
from polekit.errors import EvaluationError, SceneError
from polekit.jets import Jet2


@pytest.mark.parametrize(
    "text,point,expected",
    [
        ("1 + 2*3", (0, 0, 0, 0), 7.0),
        ("2^3^1", (0, 0, 0, 0), 8.0),
        ("-x1^2", (0, 2, 0, 0), -4.0),
        ("(x0 + x1)*(x0 - x1)", (3, 2, 0, 0), 5.0),
        ("sin(pi/2)", (0, 0, 0, 0), 1.0),
        ("atan2(1, 0)", (0, 0, 0, 0), math.pi / 2),
        ("sqrt(x2)/2", (0, 0, 9, 0), 1.5),
        ("2e-1 * x3", (0, 0, 0, 10), 2.0),
    ],
)
def test_parse_and_eval(text, point, expected):
    e = ex.parse(text)
    assert e.eval(tuple(float(p) for p in point)) == pytest.approx(
        expected, rel=1e-14
    )


def test_tau_variables():
    e = ex.parse("tau^2 - 1", ex.TAU_VARS)
    assert e.eval((3.0, 0.0, 0.0, 0.0)) == 8.0
    with pytest.raises(SceneError):
        ex.parse("x1", ex.TAU_VARS)


@pytest.mark.parametrize(
    "bad,fragment",
    [
        ("x1 +", "unexpected"),
        ("foo(x1)", "unknown name"),
        ("x1 ^ x2", "constant"),
        ("x0^x1", "column 3: exponent must be a constant"),
        ("(x1", "expected"),
        ("x1 @ 2", "unexpected character"),
    ],
)
def test_parse_errors_carry_position(bad, fragment):
    with pytest.raises(SceneError) as err:
        ex.parse(bad)
    assert "column" in err.value.problems[0]
    assert fragment in err.value.problems[0]


def test_serialize_round_trip(rng):
    for _ in range(60):
        e = random_safe_expression(rng)
        text = e.to_str()
        again = ex.parse(text)
        # structural equality after one round trip
        assert ex.parse(again.to_str()) == again
        x = tuple(rng.uniform(-1, 1, 4))
        assert again.eval(x) == pytest.approx(
            e.eval(x), rel=1e-12, abs=1e-12
        )


def test_precedence_round_trip_examples():
    for text in [
        "x0 - (x1 - x2)",
        "x0 - x1 - x2",
        "(x0 + x1)*x2",
        "x0/(x1*x2)",
        "-(x0 + x1)",
        "(x0 + 1)^2",
        "2*x1^2 - x2/4 + sin(x0)*cos(x3)",
    ]:
        e = ex.parse(text)
        assert ex.parse(e.to_str()) == e


def test_symbolic_diff_matches_jet_gradient(rng):
    for _ in range(40):
        e = random_safe_expression(rng)
        x = tuple(rng.uniform(-1, 1, 4))
        try:
            j = e.eval(Jet2.seed_point(x, 2))
        except Exception:
            continue
        for a in range(4):
            d = e.diff(a)
            assert d.eval(x) == pytest.approx(
                j.grad[a], rel=1e-10, abs=1e-10
            )


def test_diff_of_atan2():
    e = ex.Atan2(ex.Var(2), ex.Var(1))
    x = (0.0, 0.8, -1.3, 0.0)
    j = e.eval(Jet2.seed_point(x, 2))
    for a in (1, 2):
        assert e.diff(a).eval(x) == pytest.approx(j.grad[a], rel=1e-12)


def test_bump_has_no_symbolic_derivative():
    e = ex.Fun("bump", ex.Var(1))
    with pytest.raises(Exception):
        e.diff(1)


def test_substitution_composes():
    outer = ex.parse("x1^2 + x2")
    inner = {1: ex.parse("x0 + 1"), 2: ex.parse("3*x3")}
    composed = outer.subs(inner)
    assert composed.eval((2.0, 0.0, 0.0, 5.0)) == 9.0 + 15.0


def test_value_and_jet_paths_agree(rng):
    for _ in range(40):
        e = random_safe_expression(rng)
        x = tuple(rng.uniform(-1, 1, 4))
        assert e.eval(x) == pytest.approx(
            e.eval(Jet2.seed_point(x, 2)).value, rel=1e-13, abs=1e-13
        )


def test_fd_on_symbolic_derivative(rng):
    # the derivative tree itself differentiates correctly (needed for
    # pullbacks, which jet-evaluate symbolic Jacobians)
    e = ex.parse("x1*sin(x2) + sqrt(2 + x1^2)")
    d = e.diff(1)
    x = (0.0, 0.7, 1.2, 0.0)

    def f(p):
        return e.eval(tuple(p))

    assert d.eval(x) == pytest.approx(
        fd_gradient_plain(f, x)[1], abs=1e-7
    )


# One tree with every node type, including the constant-only subtrees
# 2/3, 2^3 and sqrt(4).
_EVERY_NODE = ex.parse(
    "atan2(x1, 2/3 + x0) * sin(x2) - (x1 + 2^3)^2 / sqrt(4) + -x3^1.5")
_POINT = (0.3, -1.2, 0.7, 2.5)
_BATCH = tuple(np.array([p, p + 0.1, p + 0.25]) for p in _POINT)


def _subtrees(e):
    yield e
    for name in e.__dataclass_fields__:
        child = getattr(e, name)
        if isinstance(child, ex.Expr):
            yield from _subtrees(child)


def test_every_node_tree_covers_all_node_types():
    kinds = {type(n) for n in _subtrees(_EVERY_NODE)}
    assert kinds == {ex.Const, ex.Var, ex.Add, ex.Sub, ex.Mul, ex.Div,
                     ex.Neg, ex.Pow, ex.Fun, ex.Atan2}
    constant = {n.to_str() for n in _subtrees(_EVERY_NODE)
                if not n.variables() and not isinstance(n, ex.Const)}
    assert constant == {"2.0/3.0", "2.0^3.0", "sqrt(4.0)"}


@pytest.mark.parametrize("env", [_POINT, _BATCH], ids=["point", "batch"])
def test_seed_env_gives_jets_at_every_node(env):
    seeds = Jet2.seed_point(env, 2)
    for node in _subtrees(_EVERY_NODE):
        assert isinstance(node.eval(seeds), Jet2), node


def test_coordinate_env_gives_floats_or_arrays_at_every_node():
    for node in _subtrees(_EVERY_NODE):
        assert isinstance(node.eval(_POINT), float), node
        value = node.eval(_BATCH)
        if node.variables():
            assert isinstance(value, np.ndarray) and value.shape == (3,)
        else:
            assert isinstance(value, float), node


def test_constant_quotient_in_seed_env_is_jet_rule():
    """In a seed env a constant quotient stays a constant jet and takes
    the jet rule a * (1/b), not the float a / b."""
    seeds = Jet2.seed_point(_POINT, 2)
    for a, b in ((2.0, 3.0), (3.0, 10.0)):
        e = ex.parse(f"{a!r}/{b!r}")
        jet = e.eval(seeds)
        assert jet.value.hex() == (a * (1.0 / b)).hex()
        assert e.eval(_POINT).hex() == (a / b).hex()
    assert 3.0 * (1.0 / 10.0) != 3.0 / 10.0


@pytest.mark.parametrize("text", [
    "1/(2-2)", "sqrt(0-1)", "atan2(0, 0)",
    "1/(x0-2)", "sqrt(x0-3)", "atan2(x0-2, x1)",
])
def test_domain_errors_raise_in_every_env(text):
    """The domain checks hold for floats, arrays and seed jets alike; a
    batch raises when one of its points is out of the domain."""
    e = ex.parse(text)
    point = (2.0, 0.0, 0.0, 0.0)
    batch = tuple(np.array([p + 3.0, p]) for p in point)
    if e.variables():
        assert np.isfinite(e.eval(tuple(c[0] for c in batch)))
    for env in (point, batch, Jet2.seed_point(point, 2), Jet2.seed_point(batch, 2)):
        with pytest.raises(EvaluationError):
            e.eval(env)


# -- DAG evaluation: shared subtrees evaluated once per call ----------------


def _probe_trees(seed):
    """The four gradient trees of a closedness-style probe
    (polynomial * compact window) and of a Div/Atan2 scalar, built as
    ``polekit.classify`` builds them."""
    rng = np.random.default_rng(seed)
    window = compact_window_expr((0.1, 0.0, 0.0, 0.0), (0.6, 0.5, 0.5, 0.5))
    closed = ex.Mul(random_poly_expr(rng, degree=2), window)
    quotient = ex.parse("atan2(x1, 2 + x2) / (3 + x0*x3) + x1*x2")
    return [ex.gradient_exprs(closed), ex.gradient_exprs(quotient)]


def _envs(seed):
    rng = np.random.default_rng(seed)
    point = tuple(rng.uniform(-0.3, 0.3, (4, 1)))
    batch = tuple(rng.uniform(-0.3, 0.3, (4, 7)))
    return [point, batch, Jet2.seed_point(point, 2), Jet2.seed_point(batch, 2)]


def _bits(r):
    if isinstance(r, Jet2):
        return [_bits(r.value), _bits(r.grad), _bits(r.hess)]
    r = np.asarray(r)
    return r.shape, r.tobytes()


def _distinct(trees, kind):
    return {id(n): n for t in trees for n in _subtrees(t)
            if isinstance(n, kind)}


@pytest.mark.parametrize("seed", [3, 17])
def test_eval_all_matches_per_tree_eval_bit_for_bit(seed):
    for trees in _probe_trees(seed):
        for env in _envs(seed):
            shared = ex.eval_all(trees, env)
            assert len(shared) == 4
            for tree, result in zip(trees, shared):
                assert _bits(result) == _bits(tree.eval(env)), tree


def test_eval_all_applies_each_distinct_function_node_once(monkeypatch):
    calls = []
    apply = jets.apply

    def counting(name, u):
        calls.append(name)
        return apply(name, u)

    monkeypatch.setattr(jets, "apply", counting)
    trees = _probe_trees(5)[0]
    funs = _distinct(trees, ex.Fun)
    walked = sum(isinstance(n, ex.Fun) for t in trees for n in _subtrees(t))
    assert 0 < len(funs) < walked  # the window's sstep nodes are shared
    for env in _envs(5):
        calls.clear()
        for t in trees:
            t.eval(env)
        assert len(calls) == walked
        calls.clear()
        ex.eval_all(trees, env)
        assert len(calls) == len(funs)


def test_domain_error_in_a_shared_subtree_raises_in_every_env():
    """Div.diff squares its denominator by sharing it; a zero there
    raises through eval_all as through eval."""
    e = ex.parse("x1*x2 / (x0 - 2)")
    trees = ex.gradient_exprs(e)
    assert sum(n is e.b for t in trees for n in _subtrees(t)) > 1
    point = (2.0, 0.5, 0.5, 0.0)
    for env in (point, Jet2.seed_point(point, 2)):
        with pytest.raises(EvaluationError):
            ex.eval_all(trees, env)


# -- the generic walks: subs, variables, constant exponents, tau_rows --------


def _all_kinds(x1, x3):
    """One tree holding all ten node kinds, with the subtrees ``x1`` and
    ``x3`` in the places of variables 1 and 3."""
    return ex.Add(
        ex.Sub(
            ex.Mul(ex.Atan2(x1, ex.Add(ex.Div(ex.Const(2.0), ex.Const(3.0)),
                                       ex.Var(0))),
                   ex.Fun("sin", ex.Var(2))),
            ex.Div(ex.Pow(ex.Add(x1, ex.Const(8.0)), 2.0),
                   ex.Fun("sqrt", ex.Const(4.0)))),
        ex.Neg(ex.Pow(x3, 1.5)))


def test_subs_and_variables_walk_every_node_kind():
    tree = _all_kinds(ex.Var(1), ex.Var(3))
    assert {type(n) for n in _subtrees(tree)} == {
        ex.Const, ex.Var, ex.Add, ex.Sub, ex.Mul, ex.Div, ex.Neg, ex.Pow,
        ex.Fun, ex.Atan2}
    assert tree.variables() == {0, 1, 2, 3}
    x1 = ex.Mul(ex.Const(2.0), ex.Var(0))
    x3 = ex.Fun("exp", ex.Var(2))
    composed = tree.subs({1: x1, 3: x3, 7: ex.Var(1)})
    assert composed == _all_kinds(x1, x3)
    assert composed.variables() == {0, 2}
    assert tree.subs({}) == tree
    assert ex.Div(ex.Const(2.0), ex.Const(3.0)).variables() == set()
    assert ex.parse("x3^2 - sin(x1)").variables() == {1, 3}


@pytest.mark.parametrize("text", [
    "x0^(1/0)", "x0^(0^-1)", "x0^(10^400)", "x0^((-8)^0.5)",
    "x0^(1e308*10)", "x0^sin(1e308*10)"])
def test_exponent_that_fails_to_evaluate_is_a_scene_error(text):
    with pytest.raises(SceneError) as err:
        ex.parse(text)
    problem, = err.value.problems
    assert problem.startswith("column 3: exponent ")
    assert "cannot be evaluated" in problem


@pytest.mark.parametrize("text, exponent", [
    ("x0^(2^0.5)", 2.0 ** 0.5),
    ("x0^-2", -2.0),
    ("x0^(3/2)", 3.0 / 2.0),
    ("x0^sin(1)", float(np.sin(1.0))),
])
def test_constant_exponents_are_computed_by_the_evaluator(text, exponent):
    e = ex.parse(text)
    assert e == ex.Pow(ex.Var(0), e.exponent)
    assert type(e.exponent) is float
    assert e.exponent.hex() == exponent.hex()


def _tau_trees():
    shared = ex.parse("sin(tau)*tau + 1", ex.TAU_VARS)
    return [
        ex.Const(1.5),
        ex.Const(0.0),
        ex.parse("3/10", ex.TAU_VARS),
        ex.Add(shared, ex.Var(0)),
        ex.Mul(shared, ex.Pow(ex.Var(0), 2.0)),
        ex.parse("sqrt(tau + 2)/(1 + tau^2) - exp(-tau)", ex.TAU_VARS),
    ]


@pytest.mark.parametrize("n", [1, 7, 512])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_tau_rows_equal_per_tree_tau_derivative(n, order):
    trees = _tau_trees()
    assert trees[3].a is trees[4].a
    taus = np.linspace(0.1, 2.0, n)
    rows = ex.tau_rows(trees, taus, order)
    assert rows.shape == (n, len(trees))
    for i, tree in enumerate(trees):
        assert np.array_equal(rows[:, i],
                              ex.tau_rows([tree], taus, order)[:, 0])


def test_diff_of_negation():
    """-(x0 sin x1) differentiates to the negated derivatives."""
    e = ex.Neg(ex.Mul(ex.Var(0), ex.Fun("sin", ex.Var(1))))
    x = (0.4, 0.7, -0.2, 1.1)
    want = (-math.sin(0.7), -0.4 * math.cos(0.7), 0.0, 0.0)
    assert [e.diff(a).eval(x) for a in range(4)] == pytest.approx(
        want, rel=1e-14, abs=0.0)


def test_second_symbolic_derivative_of_sstep():
    """Differentiating sstep twice reaches the ``sstep_d1`` rule; it
    equals the second derivative of 35v^4 - 84v^5 + 70v^6 - 20v^7 inside
    (0, 1) and zero outside."""
    e = ex.Fun("sstep", ex.Mul(ex.Const(2.0), ex.Var(1))).diff(1).diff(1)
    for v in (0.12, 0.5, 0.93, -0.5, 1.5):
        want = 0.0
        if 0.0 < v < 1.0:
            want = 4.0 * (420 * v ** 2 - 1680 * v ** 3 + 2100 * v ** 4
                          - 840 * v ** 5)
        assert e.eval((0.0, v / 2.0, 0.0, 0.0)) == pytest.approx(
            want, rel=1e-12, abs=1e-12)
