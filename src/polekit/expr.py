"""Expression trees over the jet engine's elementary operations.

Charts, worldlines and multipole component functions are all stored as
small expression trees in the variables ``x0..x3`` (or ``tau``, which is
variable 0 for functions of the curve parameter).  One evaluator,
:class:`Program`, serves both uses: it compiles a tuple of trees once
into a flat list of steps, and a call on the seed jets of
:meth:`Jet2.seed_point` yields values, gradients and Hessians, on plain
coordinates the values alone, with the same primitives and domain
checks (:mod:`polekit.jets`).  Either evaluates one point (floats in
``env``) or a batch of points (arrays in ``env``).  Each owner of trees
(a chart, a worldline, a component set, a test form, a Coulomb kernel)
holds one program, compiled at its first evaluation;
:meth:`Expr.eval` compiles and runs a program of one tree.
Variables past the coordinates stand for constants: a test-form family
(:mod:`polekit.pairing`) reads its members' constants as variables 4,
5, ..., given per row after the coordinates (as constant jets among seed
jets), and a derivative in x0..x3 reads them as constants.
:meth:`Expr.diff` shares subtrees by reference (``d(fg) = df g + f dg``
reuses ``f`` and ``g``), so its trees are DAGs; a program keys nodes by
identity, so each shared subtree is one step, evaluated once per call,
and its value is dropped after its last read.
Functions of the curve parameter (worldlines, component entries) are
trees in variable 0; :func:`tau_rows` reads the k trees of a program
over a 1-D array of taus as (N, k) rows of their exact values, first or
second tau derivatives (from one-variable jets).  They are combined
as trees (``add``, ``mul``, ``Expr.diff``).  Trees support structural
equality, substitution (for chart composition) and symbolic
differentiation, which is what pullbacks of covector fields need: the
Jacobian of a chart must itself be jet-evaluable.

Each walk is written once: :meth:`Expr.subs` and :meth:`Expr.variables`
on the base class over a node's child fields, the printer and the parser
from one table of binary operators, the program's steps from one table
of node types, and constant exponents through the evaluator.

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
import operator
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import jets
from .errors import EvaluationError, SceneError
from .jets import Jet2, entries_array, stacked


class Expr:
    __slots__ = ()

    def eval(self, env):
        """The tree's value at ``env``, through a :class:`Program` of
        this tree alone (compiled on every call)."""
        return Program((self,))(env)[0]

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

    def diff(self, var):
        return Const(0.0)


@dataclass(frozen=True, slots=True)
class Var(Expr):
    index: int

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

    def diff(self, var):
        return add(self.a.diff(var), self.b.diff(var))


@dataclass(frozen=True, slots=True)
class Sub(Expr):
    a: Expr
    b: Expr

    def diff(self, var):
        return sub(self.a.diff(var), self.b.diff(var))


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    a: Expr
    b: Expr

    def diff(self, var):
        return add(
            mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var))
        )


@dataclass(frozen=True, slots=True)
class Div(Expr):
    a: Expr
    b: Expr

    def diff(self, var):
        num = sub(
            mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var))
        )
        return div(num, mul(self.b, self.b))


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    a: Expr

    def diff(self, var):
        return neg(self.a.diff(var))


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: float

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

    def diff(self, var):
        dy = self.y.diff(var)
        dx = self.x.diff(var)
        num = sub(mul(self.x, dy), mul(self.y, dx))
        den = add(mul(self.x, self.x), mul(self.y, self.y))
        return div(num, den)


# -- folding constructors (used by diff; the parser keeps trees verbatim)


def _is_const(e, v=None):
    return isinstance(e, Const) and (v is None or e.v == v)


def is_zero(e):
    """Whether the tree is the constant zero."""
    return _is_const(e, 0.0)


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


#: node type -> (the primitive a step applies to the node's children,
#: the child trees in the order they are evaluated).
_STEP_OF = {
    Add: lambda e: (operator.add, (e.a, e.b)),
    Sub: lambda e: (operator.sub, (e.a, e.b)),
    Mul: lambda e: (operator.mul, (e.a, e.b)),
    Div: lambda e: (jets.divide, (e.a, e.b)),
    Neg: lambda e: (operator.neg, (e.a,)),
    Pow: lambda e: (partial(jets.power, p=e.exponent), (e.base,)),
    Fun: lambda e: (partial(jets.apply, e.name), (e.arg,)),
    Atan2: lambda e: (jets.atan2, (e.y, e.x)),
}


class Program:
    """A tuple of trees compiled into one flat list of steps, so that a
    call evaluates each distinct node once (shared subtrees, such as
    those of :meth:`Expr.diff`, included) and keeps a value only until
    its last read.

    ``program(env)`` gives the tuple of the trees' values at ``env``:
    the seed jets of :meth:`Jet2.seed_point` (followed by constant jets)
    give jets, coordinates (floats, or arrays over a batch) give values
    (a constant tree gives a plain float).  Slots hold the environment's
    variables, then the constants (constant jets in ``n`` variables on
    jets, floats on values), then one value per step.  A step applies
    the primitive of its node (``+``, ``-``, ``*``, :func:`jets.divide`,
    :func:`jets.power`, :func:`jets.apply`, :func:`jets.atan2`) to the
    slots of its children and then frees the slots it read last; the
    trees' own slots are kept to the end.

    The trees are compiled at the first call, by one post-order walk,
    left to right, that keys nodes by identity: a node's first read
    evaluates it, in the order of a recursive walk, so the first domain
    check that fails is the walk's.
    """

    __slots__ = ("trees", "_steps", "_consts", "_nenv", "_outputs")

    def __init__(self, trees):
        self.trees = tuple(trees)
        self._steps = None

    def __call__(self, env):
        if self._steps is None:
            self._compile()
        if len(env) < self._nenv:
            raise IndexError(f"the trees read variable {self._nenv - 1}, "
                             f"the environment has {len(env)}")
        slots = list(env[:self._nenv])
        if isinstance(env[0], Jet2):
            n = env[0].nvars
            slots += [Jet2.constant(v, n) for v in self._consts]
        else:
            slots += self._consts
        append = slots.append
        for fn, a, b, free in self._steps:
            append(fn(slots[a]) if b is None else fn(slots[a], slots[b]))
            for i in free:
                slots[i] = None
        return tuple(slots[i] for i in self._outputs)

    def _compile(self):
        # The walk names each node's slot as (kind, number): variable i,
        # constant i or step i.  The trees hold every node alive, so ids
        # cannot collide.
        where, consts, ops = {}, [], []

        def visit(node):
            ref = where.get(id(node))
            if ref is None:
                if type(node) is Var:
                    ref = ("var", node.index)
                elif type(node) is Const:
                    ref = ("const", len(consts))
                    consts.append(node.v)
                else:
                    fn, kids = _STEP_OF[type(node)](node)
                    ops.append((fn, [visit(kid) for kid in kids]))
                    ref = ("step", len(ops) - 1)
                where[id(node)] = ref
            return ref

        for tree in self.trees:
            visit(tree)
        nenv = 1 + max((i for kind, i in where.values() if kind == "var"),
                       default=-1)
        first = {"var": 0, "const": nenv, "step": nenv + len(consts)}
        args = [[first[kind] + i for kind, i in refs] for _, refs in ops]
        outputs = [first[kind] + i
                   for kind, i in (where[id(t)] for t in self.trees)]
        last = {}
        for k, slots in enumerate(args):
            last.update(dict.fromkeys(slots, k))
        kept = set(outputs)
        free = [[] for _ in ops]
        for slot, k in last.items():
            if slot >= first["step"] and slot not in kept:
                free[k].append(slot)
        self._steps = [(fn, a[0], a[1] if len(a) > 1 else None, tuple(f))
                       for (fn, _), a, f in zip(ops, args, free)]
        self._consts, self._nenv, self._outputs = consts, nenv, outputs


def gradient_exprs(e):
    """Symbolic partials (d e / d x^a) for a = 0..3."""
    return tuple(e.diff(a) for a in range(4))


def tau_rows(program, taus, order=0):
    """The ``order``-th (0, 1 or 2) tau derivatives of the k trees of a
    :class:`Program` (functions of variable 0 only) over a 1-D array of
    N taus, as (N, k) rows: from the taus themselves for order 0, else
    from one-variable seed jets truncated at that order."""
    if order == 0:
        return entries_array(program((taus,)), taus.shape)
    rows = stacked(program(Jet2.seed_point((taus,), order)), taus.shape,
                   order)
    return rows.reshape(taus.shape + (len(program.trees),))


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
        if isinstance(exponent, Const):
            value = float(exponent.v)
        else:
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
