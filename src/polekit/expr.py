"""Expression trees over the jet engine's elementary operations.

Charts, worldlines and multipole component functions are all stored as
small expression trees in the variables ``x0..x3`` (or ``tau``, which is
variable 0 for functions of the curve parameter).  One evaluator,
:meth:`Expr.eval`, serves both uses: on the seed jets of
:meth:`Jet2.seed_point` it yields value, gradient and Hessian, on plain
coordinates the value alone, with the same primitives and domain checks
(:mod:`polekit.jets`).  Either evaluates one point (floats in ``env``)
or a batch of points (arrays in ``env``).
Variables past the coordinates stand for constants: a test-form family
(:mod:`polekit.pairing`) reads its members' constants as variables 4,
5, ..., given per row after the coordinates (as constant jets among seed
jets), and a derivative in x0..x3 reads them as constants.
:meth:`Expr.diff` shares subtrees by reference (``d(fg) = df g + f dg``
reuses ``f`` and ``g``), so its trees are DAGs; :func:`eval_all`
evaluates several trees over one memo, which evaluates each shared
subtree once per call.
Functions of the curve parameter (worldlines, component entries) are
trees in variable 0; :func:`tau_rows` reads k of them over a 1-D array
of taus as (N, k) rows of their exact values, first or second tau
derivatives (from one-variable jets), tree by tree.  They are combined
as trees (``add``, ``mul``, ``Expr.diff``).  Trees support structural
equality, substitution (for chart composition) and symbolic
differentiation, which is what pullbacks of covector fields need: the
Jacobian of a chart must itself be jet-evaluable.

Each walk is written once: :meth:`Expr.subs` and :meth:`Expr.variables`
on the base class over a node's child fields, the printer and the parser
from one table of binary operators, and constant exponents through the
evaluator.

The grammar accepted by :func:`parse` (and emitted by ``to_str``):

    reals, pi, variables, ``+ - * / ^``, parentheses, and the functions
    sin, cos, exp, sqrt, bump, sstep, atan2(y, x).

An exponent may be any subexpression without variables; it is computed
by :meth:`Expr.eval` when parsed, and one that fails to evaluate or is
not finite is a :class:`SceneError`.
``bump(u)`` is exp(-1/(1-u^2)) for |u|<1 and exactly 0 outside; it has
no symbolic derivative here (differentiate the probe, not the window).
``sstep(u)`` is a C^3 polynomial step: 0 for u<=0, 1 for u>=1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import jets
from .errors import EvaluationError, SceneError
from .jets import Jet2, entries_array, stacked


class Expr:
    __slots__ = ()

    def eval(self, env, memo=None):
        """Evaluate at ``env``: the tuple of seed jets of
        :meth:`Jet2.seed_point` gives a :class:`Jet2`, a tuple of
        coordinates (floats, or arrays over a batch) gives a value (a
        constant subtree gives a plain float).

        Without ``memo`` the tree is walked node by node.  With one (a
        dict owned by one call, see :func:`eval_all`) every distinct
        composite subtree is evaluated once: the tree is walked as the
        DAG that :meth:`diff` builds by sharing subtrees.  Composite
        nodes reach their children through :meth:`_once` either way.
        Entries are keyed by node id, which cannot collide because every
        node stays alive for the call."""
        raise NotImplementedError

    def _once(self, env, memo):
        """This subtree's value: evaluated at its first read from
        ``memo`` and dropped from it at its last (without one, evaluated
        directly)."""
        if memo is None:
            return self.eval(env)
        entry = memo[id(self)]
        value = entry[1]
        if value is None:
            value = entry[1] = self.eval(env, memo)
        entry[0] -= 1
        if not entry[0]:
            entry[1] = None
        return value

    def diff(self, var):
        raise NotImplementedError

    def _fields(self):
        """The node's field values in declaration order: child trees,
        and a Pow's exponent or a Fun's name as they are."""
        return [getattr(self, f.name) for f in fields(self)]

    def subs(self, mapping):
        """Replace Var(i) by mapping[i] (an Expr) where present."""
        return type(self)(*(v.subs(mapping) if isinstance(v, Expr) else v
                            for v in self._fields()))

    def variables(self):
        """The set of variable indices the tree reads."""
        return set().union(*(v.variables() for v in self._fields()
                             if isinstance(v, Expr)))

    def to_str(self):
        return _emit(self, 0)

    def __repr__(self):
        return f"<Expr {self.to_str()}>"


def _coerce(x):
    return x if isinstance(x, Expr) else Const(float(x))


@dataclass(frozen=True, slots=True)
class Const(Expr):
    v: float

    def eval(self, env, memo=None):
        if isinstance(env[0], Jet2):
            return Jet2.constant(self.v, env[0].nvars)
        return self.v

    _once = eval  # leaves skip the memo

    def diff(self, var):
        return Const(0.0)


@dataclass(frozen=True, slots=True)
class Var(Expr):
    index: int

    def eval(self, env, memo=None):
        return env[self.index]

    _once = eval

    def diff(self, var):
        return Const(1.0 if var == self.index else 0.0)

    def subs(self, mapping):
        return mapping.get(self.index, self)

    def variables(self):
        return {self.index}


@dataclass(frozen=True, slots=True)
class Add(Expr):
    a: Expr
    b: Expr

    def eval(self, env, memo=None):
        return self.a._once(env, memo) + self.b._once(env, memo)

    def diff(self, var):
        return add(self.a.diff(var), self.b.diff(var))


@dataclass(frozen=True, slots=True)
class Sub(Expr):
    a: Expr
    b: Expr

    def eval(self, env, memo=None):
        return self.a._once(env, memo) - self.b._once(env, memo)

    def diff(self, var):
        return sub(self.a.diff(var), self.b.diff(var))


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    a: Expr
    b: Expr

    def eval(self, env, memo=None):
        return self.a._once(env, memo) * self.b._once(env, memo)

    def diff(self, var):
        return add(
            mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var))
        )


@dataclass(frozen=True, slots=True)
class Div(Expr):
    a: Expr
    b: Expr

    def eval(self, env, memo=None):
        return jets.divide(self.a._once(env, memo), self.b._once(env, memo))

    def diff(self, var):
        num = sub(
            mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var))
        )
        return div(num, mul(self.b, self.b))


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    a: Expr

    def eval(self, env, memo=None):
        return -self.a._once(env, memo)

    def diff(self, var):
        return neg(self.a.diff(var))


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: float

    def eval(self, env, memo=None):
        return jets.power(self.base._once(env, memo), self.exponent)

    def diff(self, var):
        du = self.base.diff(var)
        return mul(
            mul(Const(self.exponent), Pow(self.base, self.exponent - 1.0)),
            du,
        )


#: name -> the outer derivative f'(u) as a tree in u, for the primitives
#: that have a symbolic derivative.
_OUTER_DERIVATIVES = {
    "sin": lambda u: Fun("cos", u),
    "cos": lambda u: neg(Fun("sin", u)),
    "exp": lambda u: Fun("exp", u),
    "sqrt": lambda u: mul(Const(0.5), Pow(u, -0.5)),
    "sstep": lambda u: Fun("sstep_d1", u),
    "sstep_d1": lambda u: Fun("sstep_d2", u),
}


@dataclass(frozen=True, slots=True)
class Fun(Expr):
    name: str
    arg: Expr

    def eval(self, env, memo=None):
        return jets.apply(self.name, self.arg._once(env, memo))

    def diff(self, var):
        du = self.arg.diff(var)
        outer = _OUTER_DERIVATIVES.get(self.name)
        if outer is None:
            raise EvaluationError(
                self.name, "no symbolic derivative for this primitive"
            )
        return mul(outer(self.arg), du)


@dataclass(frozen=True, slots=True)
class Atan2(Expr):
    y: Expr
    x: Expr

    def eval(self, env, memo=None):
        return jets.atan2(self.y._once(env, memo), self.x._once(env, memo))

    def diff(self, var):
        dy = self.y.diff(var)
        dx = self.x.diff(var)
        num = sub(mul(self.x, dy), mul(self.y, dx))
        den = add(mul(self.x, self.x), mul(self.y, self.y))
        return div(num, den)


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


def eval_all(trees, env):
    """Evaluate several trees at one ``env`` with one memo, so that the
    subtrees they share are evaluated once; a tuple of results, each
    bit-identical to ``tree.eval(env)``.

    The memo holds, per composite subtree, the number of reads left (its
    references from the trees and from other subtrees) and its value
    while any are left, so a value is kept from its first read to its
    last and no longer."""
    memo = {}
    stack = list(trees)
    while stack:
        node = stack.pop()
        if isinstance(node, (Const, Var)):
            continue
        entry = memo.get(id(node))
        if entry is None:
            memo[id(node)] = [1, None]
            stack.extend(v for v in node._fields() if isinstance(v, Expr))
        else:
            entry[0] += 1
    return tuple(t._once(env, memo) for t in trees)


def gradient_exprs(e):
    """Symbolic partials (d e / d x^a) for a = 0..3."""
    return tuple(e.diff(a) for a in range(4))


def tau_rows(trees, taus, order=0):
    """The ``order``-th (0, 1 or 2) tau derivatives of k trees (functions
    of variable 0 only) over a 1-D array of N taus, as (N, k) rows: from
    the taus themselves for order 0, else from one-variable seed jets
    truncated at that order.  Each tree is walked on its own, without a
    memo."""
    if order == 0:
        return entries_array([e.eval((taus,)) for e in trees], taus.shape)
    seeds = Jet2.seed_point((taus,), order)
    rows = stacked([e.eval(seeds) for e in trees], taus.shape, order)
    return rows.reshape(taus.shape + (len(trees),))


# -- helpers used throughout ---------------------------------------------

TAU_VARS = {"tau": 0}
CHART_VARS = {"x0": 0, "x1": 1, "x2": 2, "x3": 3}


def const(v):
    return Const(float(v))


def linear_combination(coeffs):
    """sum_a coeffs[a] * x^a as a folded tree; a coefficient is a float
    or a tree."""
    e = Const(0.0)
    for a, c in enumerate(coeffs):
        e = add(e, mul(_coerce(c), Var(a)))
    return e


# -- serialization --------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5

#: Binary node -> (its text, its precedence), for the printer and the
#: parser; every binary operator is left-associative.
_BINARY = {Add: (" + ", _PREC_ADD), Sub: (" - ", _PREC_ADD),
           Mul: ("*", _PREC_MUL), Div: ("/", _PREC_MUL)}
_BINARY_BY_SYMBOL = {text.strip(): node for node, (text, _) in _BINARY.items()}


def _fmt_number(v):
    if v == math.pi:
        return "pi"
    return repr(float(v))


def _emit(e, parent_prec):
    if type(e) in _BINARY:
        text, prec = _BINARY[type(e)]
        s = f"{_emit(e.a, prec)}{text}{_emit(e.b, prec + 1)}"
    elif isinstance(e, Const):
        s = _fmt_number(e.v)
        prec = _PREC_ATOM if e.v >= 0 else _PREC_UNARY
    elif isinstance(e, Var):
        s = f"x{e.index}"
        prec = _PREC_ATOM
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


# -- parser ----------------------------------------------------------------

_FUNCTIONS = tuple(jets.PRIMITIVES)


class _Tokens:
    def __init__(self, text):
        self.text = text
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
                if not math.isfinite(value):
                    raise SceneError([f"column {start + 1}: number "
                                      f"{text[start:pos]!r} is not finite"])
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


def _parse_sum(toks, variables, prec=_PREC_ADD):
    """Operands joined left to right by the binary operators of
    precedence ``prec``, each operand parsed at the next level up."""
    if prec > _PREC_MUL:
        return _parse_unary(toks, variables)
    e = _parse_sum(toks, variables, prec + 1)
    while True:
        kind, val, _ = toks.peek()
        node = _BINARY_BY_SYMBOL.get(val) if kind == "op" else None
        if node is None or _BINARY[node][1] != prec:
            return e
        toks.next()
        e = node(e, _parse_sum(toks, variables, prec + 1))


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
    if kind != "op" or val != "^":
        return base
    toks.next()
    exponent = _parse_unary(toks, variables)
    if exponent.variables():
        raise SceneError([f"column {pos + 1}: exponent must be a constant"])
    try:
        with np.errstate(all="ignore"):  # a non-finite value is reported
            value = float(exponent.eval((0.0,) * 4))
        if math.isfinite(value):
            return Pow(base, value)
        reason = f"{value} is not finite"
    except (EvaluationError, OverflowError) as err:
        reason = err
    raise SceneError(
        [f"column {pos + 1}: exponent {exponent.to_str()} cannot be "
         f"evaluated: {reason}"]
    )


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
