"""Expression trees over the jet engine's elementary operations.

Charts, worldlines and multipole component functions are all stored as
small expression trees in the variables ``x0..x3`` (or ``tau``, which is
variable 0 for functions of the curve parameter).  One evaluator,
:meth:`Expr.eval`, serves both uses: on the seed jets of
:meth:`Jet2.seed_point` it yields value, gradient and Hessian, on plain
coordinates the value alone, with the same primitives and domain checks
(:mod:`polekit.jets`).  Either evaluates one point (floats in ``env``)
or a batch of points (arrays in ``env``).
Functions of the curve parameter (worldlines, component entries) are
trees in variable 0; :func:`tau_derivative` gives their exact value,
first or second tau derivative over a 1-D array of taus from
one-variable jets, and they are combined as trees (``add``, ``mul``,
``Expr.diff``).  Trees support structural equality, substitution (for
chart composition) and symbolic differentiation, which is what
pullbacks of covector fields need: the Jacobian of a chart must itself
be jet-evaluable.

The grammar accepted by :func:`parse` (and emitted by ``to_str``):

    reals, pi, variables, ``+ - * / ^``, parentheses, and the functions
    sin, cos, exp, sqrt, bump, sstep, atan2(y, x).

``bump(u)`` is exp(-1/(1-u^2)) for |u|<1 and exactly 0 outside; it has
no symbolic derivative here (differentiate the probe, not the window).
``sstep(u)`` is a C^3 polynomial step: 0 for u<=0, 1 for u>=1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import jets
from .errors import EvaluationError, SceneError
from .jets import Jet2, entries_array, stacked


class Expr:
    __slots__ = ()

    # Builder sugar so tests and constructors read naturally.
    def __add__(self, other):
        return Add(self, _coerce(other))

    def __radd__(self, other):
        return Add(_coerce(other), self)

    def __sub__(self, other):
        return Sub(self, _coerce(other))

    def __rsub__(self, other):
        return Sub(_coerce(other), self)

    def __mul__(self, other):
        return Mul(self, _coerce(other))

    def __rmul__(self, other):
        return Mul(_coerce(other), self)

    def __truediv__(self, other):
        return Div(self, _coerce(other))

    def __rtruediv__(self, other):
        return Div(_coerce(other), self)

    def __neg__(self):
        return Neg(self)

    def __pow__(self, p):
        return Pow(self, float(p))

    def eval(self, env):
        """Evaluate at ``env``: the tuple of seed jets of
        :meth:`Jet2.seed_point` gives a :class:`Jet2`, a tuple of
        coordinates (floats, or arrays over a batch) gives a value (a
        constant subtree gives a plain float)."""
        raise NotImplementedError

    def diff(self, var):
        raise NotImplementedError

    def subs(self, mapping):
        """Replace Var(i) by mapping[i] (an Expr) where present."""
        raise NotImplementedError

    def variables(self):
        out = set()
        self._collect_vars(out)
        return out

    def _collect_vars(self, out):
        raise NotImplementedError

    def to_str(self):
        return _emit(self, 0)

    def __repr__(self):
        return f"<Expr {self.to_str()}>"


def _coerce(x):
    return x if isinstance(x, Expr) else Const(float(x))


@dataclass(frozen=True, slots=True)
class Const(Expr):
    v: float

    def eval(self, env):
        if isinstance(env[0], Jet2):
            return Jet2.constant(self.v, len(env))
        return self.v

    def diff(self, var):
        return Const(0.0)

    def subs(self, mapping):
        return self

    def _collect_vars(self, out):
        pass


@dataclass(frozen=True, slots=True)
class Var(Expr):
    index: int

    def eval(self, env):
        return env[self.index]

    def diff(self, var):
        return Const(1.0 if var == self.index else 0.0)

    def subs(self, mapping):
        return mapping.get(self.index, self)

    def _collect_vars(self, out):
        out.add(self.index)


@dataclass(frozen=True, slots=True)
class Add(Expr):
    a: Expr
    b: Expr

    def eval(self, env):
        return self.a.eval(env) + self.b.eval(env)

    def diff(self, var):
        return add(self.a.diff(var), self.b.diff(var))

    def subs(self, mapping):
        return Add(self.a.subs(mapping), self.b.subs(mapping))

    def _collect_vars(self, out):
        self.a._collect_vars(out)
        self.b._collect_vars(out)


@dataclass(frozen=True, slots=True)
class Sub(Expr):
    a: Expr
    b: Expr

    def eval(self, env):
        return self.a.eval(env) - self.b.eval(env)

    def diff(self, var):
        return sub(self.a.diff(var), self.b.diff(var))

    def subs(self, mapping):
        return Sub(self.a.subs(mapping), self.b.subs(mapping))

    def _collect_vars(self, out):
        self.a._collect_vars(out)
        self.b._collect_vars(out)


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    a: Expr
    b: Expr

    def eval(self, env):
        return self.a.eval(env) * self.b.eval(env)

    def diff(self, var):
        return add(
            mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var))
        )

    def subs(self, mapping):
        return Mul(self.a.subs(mapping), self.b.subs(mapping))

    def _collect_vars(self, out):
        self.a._collect_vars(out)
        self.b._collect_vars(out)


@dataclass(frozen=True, slots=True)
class Div(Expr):
    a: Expr
    b: Expr

    def eval(self, env):
        return jets.divide(self.a.eval(env), self.b.eval(env))

    def diff(self, var):
        num = sub(
            mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var))
        )
        return div(num, mul(self.b, self.b))

    def subs(self, mapping):
        return Div(self.a.subs(mapping), self.b.subs(mapping))

    def _collect_vars(self, out):
        self.a._collect_vars(out)
        self.b._collect_vars(out)


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    a: Expr

    def eval(self, env):
        return -self.a.eval(env)

    def diff(self, var):
        return neg(self.a.diff(var))

    def subs(self, mapping):
        return Neg(self.a.subs(mapping))

    def _collect_vars(self, out):
        self.a._collect_vars(out)


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: float

    def eval(self, env):
        return jets.power(self.base.eval(env), self.exponent)

    def diff(self, var):
        du = self.base.diff(var)
        return mul(
            mul(Const(self.exponent), Pow(self.base, self.exponent - 1.0)),
            du,
        )

    def subs(self, mapping):
        return Pow(self.base.subs(mapping), self.exponent)

    def _collect_vars(self, out):
        self.base._collect_vars(out)


@dataclass(frozen=True, slots=True)
class Fun(Expr):
    name: str
    arg: Expr

    def eval(self, env):
        return jets.apply(self.name, self.arg.eval(env))

    def diff(self, var):
        du = self.arg.diff(var)
        u = self.arg
        name = self.name
        if name == "sin":
            outer = Fun("cos", u)
        elif name == "cos":
            outer = neg(Fun("sin", u))
        elif name == "exp":
            outer = Fun("exp", u)
        elif name == "sqrt":
            outer = mul(Const(0.5), Pow(u, -0.5))
        elif name == "sstep":
            outer = Fun("sstep_d1", u)
        elif name == "sstep_d1":
            outer = Fun("sstep_d2", u)
        else:
            raise EvaluationError(
                name, "no symbolic derivative for this primitive"
            )
        return mul(outer, du)

    def subs(self, mapping):
        return Fun(self.name, self.arg.subs(mapping))

    def _collect_vars(self, out):
        self.arg._collect_vars(out)


@dataclass(frozen=True, slots=True)
class Atan2(Expr):
    y: Expr
    x: Expr

    def eval(self, env):
        return jets.atan2(self.y.eval(env), self.x.eval(env))

    def diff(self, var):
        dy = self.y.diff(var)
        dx = self.x.diff(var)
        num = sub(mul(self.x, dy), mul(self.y, dx))
        den = add(mul(self.x, self.x), mul(self.y, self.y))
        return div(num, den)

    def subs(self, mapping):
        return Atan2(self.y.subs(mapping), self.x.subs(mapping))

    def _collect_vars(self, out):
        self.y._collect_vars(out)
        self.x._collect_vars(out)


# -- folding constructors (used by diff; the parser keeps trees verbatim)


def _is_const(e, v=None):
    return isinstance(e, Const) and (v is None or e.v == v)


def add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.v + b.v)
    return Add(a, b)


def sub(a, b):
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.v - b.v)
    if _is_const(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.v * b.v)
    return Mul(a, b)


def div(a, b):
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def neg(a):
    if _is_const(a):
        return Const(-a.v)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def gradient_exprs(e):
    """Symbolic partials (d e / d x^a) for a = 0..3."""
    return tuple(e.diff(a) for a in range(4))


def tau_derivative(e, t, order=0):
    """The ``order``-th (0, 1 or 2) tau derivative of the expression
    ``e`` (a function of variable 0 only) over a 1-D array of taus, as
    an array of the same shape; from one-variable jets."""
    if order == 0:
        rows = entries_array([e.eval((t,))], t.shape)
    else:
        rows = stacked([e.eval(Jet2.seed_point((t,)))], t.shape, order)
    return rows.reshape(t.shape)


# -- helpers used throughout ---------------------------------------------

TAU_VARS = {"tau": 0}
CHART_VARS = {"x0": 0, "x1": 1, "x2": 2, "x3": 3}


def const(v):
    return Const(float(v))


def var(i):
    return Var(i)


def tau():
    return Var(0)


def linear_combination(coeffs, offset=0.0):
    """offset + sum_a coeffs[a] * x^a as a folded tree."""
    e = Const(float(offset))
    for a, c in enumerate(coeffs):
        e = add(e, mul(Const(float(c)), Var(a)))
    return e


# -- serialization --------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt_number(v):
    if v == math.pi:
        return "pi"
    r = repr(float(v))
    return r


def _emit(e, parent_prec):
    if isinstance(e, Const):
        s = _fmt_number(e.v)
        prec = _PREC_ATOM if e.v >= 0 else _PREC_UNARY
    elif isinstance(e, Var):
        s = _VAR_NAMES_DEFAULT[e.index]
        prec = _PREC_ATOM
    elif isinstance(e, Add):
        s = f"{_emit(e.a, _PREC_ADD)} + {_emit(e.b, _PREC_ADD + 1)}"
        prec = _PREC_ADD
    elif isinstance(e, Sub):
        s = f"{_emit(e.a, _PREC_ADD)} - {_emit(e.b, _PREC_ADD + 1)}"
        prec = _PREC_ADD
    elif isinstance(e, Mul):
        s = f"{_emit(e.a, _PREC_MUL)}*{_emit(e.b, _PREC_MUL + 1)}"
        prec = _PREC_MUL
    elif isinstance(e, Div):
        s = f"{_emit(e.a, _PREC_MUL)}/{_emit(e.b, _PREC_MUL + 1)}"
        prec = _PREC_MUL
    elif isinstance(e, Neg):
        s = f"-{_emit(e.a, _PREC_UNARY)}"
        prec = _PREC_UNARY
    elif isinstance(e, Pow):
        s = f"{_emit(e.base, _PREC_POW + 1)}^{_fmt_number(e.exponent)}"
        prec = _PREC_POW
    elif isinstance(e, Fun):
        s = f"{e.name}({_emit(e.arg, 0)})"
        prec = _PREC_ATOM
    elif isinstance(e, Atan2):
        s = f"atan2({_emit(e.y, 0)}, {_emit(e.x, 0)})"
        prec = _PREC_ATOM
    else:
        raise TypeError(f"unknown node {e!r}")
    if prec < parent_prec:
        return f"({s})"
    return s


_VAR_NAMES_DEFAULT = ("x0", "x1", "x2", "x3")


# -- parser ----------------------------------------------------------------

_FUNCTIONS = ("sin", "cos", "exp", "sqrt", "bump", "sstep", "sstep_d1",
              "sstep_d2")


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.items = []
        self._scan()
        self.i = 0

    def _scan(self):
        text = self.text
        n = len(text)
        pos = 0
        while pos < n:
            ch = text[pos]
            if ch.isspace():
                pos += 1
                continue
            if ch.isdigit() or (ch == "." and pos + 1 < n and text[pos + 1].isdigit()):
                start = pos
                while pos < n and (text[pos].isdigit() or text[pos] == "."):
                    pos += 1
                if pos < n and text[pos] in "eE":
                    probe = pos + 1
                    if probe < n and text[probe] in "+-":
                        probe += 1
                    if probe < n and text[probe].isdigit():
                        pos = probe
                        while pos < n and text[pos].isdigit():
                            pos += 1
                try:
                    value = float(text[start:pos])
                except ValueError:
                    raise SceneError(
                        [f"column {start + 1}: bad number {text[start:pos]!r}"]
                    )
                self.items.append(("num", value, start))
                continue
            if ch.isalpha() or ch == "_":
                start = pos
                while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                    pos += 1
                self.items.append(("name", text[start:pos], start))
                continue
            if ch in "+-*/^(),":
                self.items.append(("op", ch, pos))
                pos += 1
                continue
            raise SceneError([f"column {pos + 1}: unexpected character {ch!r}"])
        self.items.append(("end", "", n))

    def peek(self):
        return self.items[self.i]

    def next(self):
        t = self.items[self.i]
        self.i += 1
        return t


def parse(text, variables=None):
    """Parse an expression string.

    ``variables`` maps names to variable indices; defaults to the chart
    names x0..x3.  Raises :class:`SceneError` with a column-located
    message on malformed input.
    """
    if variables is None:
        variables = CHART_VARS
    toks = _Tokens(text)
    e = _parse_sum(toks, variables)
    kind, val, pos = toks.peek()
    if kind != "end":
        raise SceneError([f"column {pos + 1}: unexpected {val!r}"])
    return e


def _parse_sum(toks, variables):
    e = _parse_term(toks, variables)
    while True:
        kind, val, _ = toks.peek()
        if kind == "op" and val in "+-":
            toks.next()
            rhs = _parse_term(toks, variables)
            e = Add(e, rhs) if val == "+" else Sub(e, rhs)
        else:
            return e


def _parse_term(toks, variables):
    e = _parse_unary(toks, variables)
    while True:
        kind, val, _ = toks.peek()
        if kind == "op" and val in "*/":
            toks.next()
            rhs = _parse_unary(toks, variables)
            e = Mul(e, rhs) if val == "*" else Div(e, rhs)
        else:
            return e


def _parse_unary(toks, variables):
    kind, val, _ = toks.peek()
    if kind == "op" and val == "-":
        toks.next()
        return Neg(_parse_unary(toks, variables))
    if kind == "op" and val == "+":
        toks.next()
        return _parse_unary(toks, variables)
    return _parse_power(toks, variables)


def _parse_power(toks, variables):
    base = _parse_atom(toks, variables)
    kind, val, pos = toks.peek()
    if kind == "op" and val == "^":
        toks.next()
        exponent = _parse_unary(toks, variables)
        folded = _try_const(exponent)
        if folded is None:
            raise SceneError(
                [f"column {pos + 1}: exponent must be a constant"]
            )
        return Pow(base, folded)
    return base


def _try_const(e):
    if isinstance(e, Const):
        return e.v
    if isinstance(e, Neg):
        inner = _try_const(e.a)
        return None if inner is None else -inner
    if isinstance(e, Pow):
        base = _try_const(e.base)
        return None if base is None else base ** e.exponent
    if isinstance(e, (Add, Sub, Mul, Div)):
        a = _try_const(e.a)
        b = _try_const(e.b)
        if a is None or b is None:
            return None
        if isinstance(e, Add):
            return a + b
        if isinstance(e, Sub):
            return a - b
        if isinstance(e, Mul):
            return a * b
        return a / b
    return None


def _parse_atom(toks, variables):
    kind, val, pos = toks.next()
    if kind == "num":
        return Const(val)
    if kind == "name":
        if val == "pi":
            return Const(math.pi)
        if val in variables:
            return Var(variables[val])
        if val == "atan2":
            _expect(toks, "(")
            y = _parse_sum(toks, variables)
            _expect(toks, ",")
            x = _parse_sum(toks, variables)
            _expect(toks, ")")
            return Atan2(y, x)
        if val in _FUNCTIONS:
            _expect(toks, "(")
            arg = _parse_sum(toks, variables)
            _expect(toks, ")")
            return Fun(val, arg)
        known = ", ".join(sorted(variables))
        raise SceneError(
            [f"column {pos + 1}: unknown name {val!r} (variables: {known})"]
        )
    if kind == "op" and val == "(":
        e = _parse_sum(toks, variables)
        _expect(toks, ")")
        return e
    raise SceneError([f"column {pos + 1}: unexpected {val!r}"])


def _expect(toks, symbol):
    kind, val, pos = toks.next()
    if kind != "op" or val != symbol:
        raise SceneError([f"column {pos + 1}: expected {symbol!r}, got {val!r}"])
