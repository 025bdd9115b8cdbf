import math

import numpy as np
import pytest

from oracles import fd_gradient_plain, random_safe_expression
from polekit import expr as ex
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
            j = e.eval(Jet2.seed_point(x))
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
    j = e.eval(Jet2.seed_point(x))
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
            e.eval(Jet2.seed_point(x)).value, rel=1e-13, abs=1e-13
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
    seeds = Jet2.seed_point(env)
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
    seeds = Jet2.seed_point(_POINT)
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
    for env in (point, batch, Jet2.seed_point(point), Jet2.seed_point(batch)):
        with pytest.raises(EvaluationError):
            e.eval(env)
