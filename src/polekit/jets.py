"""Second-order truncated Taylor arithmetic (vector forward mode).

A :class:`Jet2` carries the value, gradient and symmetric Hessian of a
scalar function of ``n`` variables at every point of a batch.
Propagating jets through arithmetic gives the exact value, gradient and
Hessian of the composed function, up to rounding.  This is the single
derivative engine of the package: chart Jacobians/Hessians, worldline
velocities and test-form derivatives all come from here.
Finite differences appear only in tests, as an independent oracle.

One array layout serves any batch shape S, with one code path for all
of them; evaluators pass N points and get jets over S = (N,), a batch
of one point included.  Storage is entry-major, so that products and
chain rules run over whole contiguous rows:

* ``value`` has shape S (a float or a 0-d array when S = ());
* the gradient is held as ``(n, *S)``, one row per coordinate;
* the packed upper-triangle Hessian as ``(n(n+1)/2, *S)``: entry
  (a, b), a <= b, in the order of ``np.triu_indices(n)``.

The constructor and the ``grad`` / ``hess`` properties use the
point-major layout ``(*S, n)`` and ``(*S, n(n+1)/2)``, as views, so a
jet of one point of a float environment (S = ()) reads as a gradient
``(n,)`` and a Hessian ``(n(n+1)/2,)``.

``n`` is the number of coordinates given to :meth:`Jet2.seed_point`:
four for points of spacetime, one for functions of the curve parameter.
Seeds keep one gradient row and one zero Hessian row, shaped
``(n, 1, ..., 1)`` with one 1 per axis of S, that broadcast over the
batch.  A constant (:meth:`Jet2.constant`) has the shared zero rows
``(n,)`` and ``(n(n+1)/2,)``; those rows mark it as a constant, and the
arithmetic only does the work whose result is read:

* ``*``, ``+`` and ``-`` with a constant operand scale or shift the
  other operand as a float does, and give a constant when both are;
* a function of constants is a constant, with no derivative work.

These give the results of the general formulas (which would add and
multiply exact zeros), apart from the sign of a zero.  Branches of the
elementary functions (domain checks, the support of ``bump`` and of the
``sstep`` family) are applied elementwise; a domain error anywhere in a
batch raises.

A jet is truncated at order 2 or at order 1.  An order-1 jet carries
no Hessian rows (``_h`` is None): :meth:`Jet2.seed_point` and
:meth:`Jet2.affine` make one when asked for ``order=1``, and every
operation (``+``, ``-``, ``*``, the chain rules behind :func:`divide`,
:func:`power`, :func:`apply` and :func:`atan2`, and :func:`compose`)
gives an order-1 jet when an operand is one.  Value and gradient come
from the same formulas at either order, so an order-1 jet has the bits
of the value and gradient of its order-2 twin.  Readers ask for the
order they read: the worldline's points and velocity, the Jacobian of
the transported components' values, the form jets of a pairing with no
quadrupole term and the Coulomb kernel of a monopole or dipole
potential are order 1; Hessian reads stay order 2, and :func:`stacked` of
order 2 raises on an order-1 jet.  A constant is of either order.

Expression trees (:mod:`polekit.expr`) have one evaluator, which runs on
seed jets and on coordinate values alike: ``+``, ``-`` and ``*`` are
the operators, and division, powers, the primitives and ``atan2`` go
through :func:`divide`, :func:`power`, :func:`apply` and :func:`atan2`.
Each takes the jet rule for a :class:`Jet2` and otherwise computes the
value alone (one polynomial for ``sstep``), with the same domain
checks.

Outside this module, jets are read back as arrays through
:func:`stacked` and point arrays enter through :func:`columns`, so the
array layout is known here alone.  :func:`compose` pulls many outer
jets through one set of inner jets, summing whole entry-major rows over
each contracted index in index order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import EvaluationError


def _first_bad(v, ok):
    """The first argument value where the elementwise check ``ok``
    fails, for error messages."""
    return float(np.asarray(v)[~np.asarray(ok)].flat[0])


def _point_major(rows):
    """Entry-major rows ``(e, *S)`` as a ``(*S, e)`` view."""
    return rows.transpose((*range(1, rows.ndim), 0))


def _entry_major(a):
    """A point-major array ``(*S, e)`` as an ``(e, *S)`` view."""
    return a.transpose((a.ndim - 1, *range(a.ndim - 1)))


def _shared(row, k):
    """A row ``(e,)`` shaped ``(e, 1, ..., 1)`` to broadcast over a
    batch of ``k`` axes."""
    return row.reshape(row.shape + (1,) * k)


class _Layout:
    """Index arrays and constant rows (read-only, shared by all jets) of
    the packed Hessian of ``n`` variables."""

    def __init__(self, n):
        self.rows, self.cols = rows, cols = np.triu_indices(n)
        m = len(rows)
        # The cross terms f_a g_b and f_b g_a of a product, side by side,
        # with weights 2 and 0 on the diagonal, 1 and 1 off it.  For
        # finite entries 0 * f_a * g_a is a zero with the sign of
        # f_a * g_a, so adding it leaves every bit of the sum as it was.
        self.cross_f = np.concatenate([rows, cols])
        self.cross_g = np.concatenate([cols, rows])
        diag = rows == cols
        self.cross_w = np.concatenate([np.where(diag, 2.0, 1.0),
                                       np.where(diag, 0.0, 1.0)])
        self.full = np.empty((n, n), dtype=np.intp)
        self.full[rows, cols] = self.full[cols, rows] = np.arange(m)
        self.seeds, self.zero_grad, self.zero_hess = (
            np.eye(n), np.zeros(n), np.zeros(m))
        for a in vars(self).values():
            a.setflags(write=False)


@lru_cache(maxsize=None)
def _layout(n):
    return _Layout(n)


def _is_constant(j):
    """Whether j has the shared zero rows of :meth:`Jet2.constant`."""
    return j._g is _layout(len(j._g)).zero_grad


def _first_order(*jets):
    """Whether any of the jets is of order 1 (has no Hessian rows)."""
    return any(j._h is None for j in jets)


def _jet(value, g, h):
    """A jet from entry-major rows (no copy, no check)."""
    j = Jet2.__new__(Jet2)
    j.value, j._g, j._h = value, g, h
    return j


def full_hessian(hess):
    """Packed Hessians ``(..., n(n+1)/2)`` as full symmetric arrays
    ``(..., n, n)``."""
    m = np.shape(hess)[-1]
    n = int(round((np.sqrt(8 * m + 1) - 1) / 2))
    return np.asarray(hess)[..., _layout(n).full]


class Jet2:
    """Value, gradient and packed symmetric Hessian of a scalar at each
    point of a batch (see the module docstring).

    ``Jet2(value, grad, hess)`` takes the point-major layout: ``grad``
    ``(*S, n)`` and ``hess`` ``(*S, n(n+1)/2)``, or ``(n,)`` and
    ``(n(n+1)/2,)`` when S = (); ``hess`` is None for an order-1 jet.
    Jets are not modified after construction; all operations return
    new jets.
    """

    __slots__ = ("value", "_g", "_h")

    def __init__(self, value, grad, hess):
        self.value = value
        self._g = _entry_major(np.asarray(grad))
        self._h = None if hess is None else _entry_major(np.asarray(hess))

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(x, n):
        """The jet of the constant x (a float, or an array over the
        batch) in ``n`` variables."""
        lay = _layout(n)
        return _jet(x, lay.zero_grad, lay.zero_hess)

    @staticmethod
    def seed_point(x, order):
        """Jets of the coordinate functions at the point x, truncated at
        ``order``: one jet per coordinate, in ``n = len(x)`` variables
        (each x[a] the array of that coordinate over the batch)."""
        lay = _layout(len(x))
        k = max(np.ndim(xa) for xa in x)
        zero = _shared(lay.zero_hess, k) if order == 2 else None
        return tuple(_jet(xa, _shared(lay.seeds[a], k), zero)
                     for a, xa in enumerate(x))

    @staticmethod
    def affine(value, grad, order):
        """Jet of an affine function, truncated at ``order``: ``value``
        over the batch, the gradient ``grad``, (n,) the same at every
        point or entry-major rows (n, *S), and zero Hessian."""
        grad = np.asarray(grad, dtype=float)
        k = np.ndim(value)
        hess = (_shared(_layout(len(grad)).zero_hess, k) if order == 2
                else None)
        return _jet(value, _shared(grad, k + 1 - grad.ndim), hess)

    # -- views ---------------------------------------------------------

    @property
    def nvars(self):
        """The number of variables ``n``."""
        return len(self._g)

    @property
    def grad(self):
        """The gradient, ``(*S, n)`` (a view)."""
        return _point_major(self._g)

    @property
    def hess(self):
        """The packed Hessian, ``(*S, n(n+1)/2)`` (a view); None for an
        order-1 jet."""
        return None if self._h is None else _point_major(self._h)

    def __repr__(self):
        return f"Jet2({self.value!r}, grad={self.grad!r}, hess={self.hess!r})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            if _is_constant(other):
                other = other.value
            elif _is_constant(self):
                return other + self.value
            else:
                return _jet(self.value + other.value, self._g + other._g,
                            None if _first_order(self, other)
                            else self._h + other._h)
        return _jet(self.value + other, self._g, self._h)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet2):
            if _is_constant(other):
                other = other.value
            elif _is_constant(self):
                return -other + self.value
            else:
                return _jet(self.value - other.value, self._g - other._g,
                            None if _first_order(self, other)
                            else self._h - other._h)
        return _jet(self.value - other, self._g, self._h)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        if _is_constant(self):
            return Jet2.constant(-self.value, len(self._g))
        return _jet(-self.value, -self._g,
                    None if self._h is None else -self._h)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            if _is_constant(other):
                other = other.value
            elif _is_constant(self):
                return other * self.value
            else:
                f, g = self._g, other._g
                fv, gv = self.value, other.value
                hess = None
                if not _first_order(self, other):
                    # Entry by entry: fv*gh + gv*fh + 2 f_a g_a on the
                    # diagonal, fv*gh + gv*fh + f_a g_b + f_b g_a off
                    # it, in this order.
                    lay = _layout(len(f))
                    w = _shared(lay.cross_w, f.ndim - 1)
                    cross = (w * f[lay.cross_f]) * g[lay.cross_g]
                    m = len(lay.rows)
                    hess = (fv * other._h + gv * self._h + cross[:m]
                            + cross[m:])
                return _jet(fv * gv, fv * g + gv * f, hess)
        if _is_constant(self):
            return Jet2.constant(self.value * other, len(self._g))
        return _jet(self.value * other, self._g * other,
                    None if self._h is None else self._h * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet2):
            return self * (1.0 / other)
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self):
        iv = divide(1.0, self.value)
        return _chain(self, iv, -iv * iv, 2.0 * iv * iv * iv)

    def __pow__(self, p):
        if isinstance(p, Jet2):
            raise EvaluationError("pow", "exponent must be a constant")
        if float(p).is_integer():
            return self._int_pow(int(p))
        v = self.value
        _check_positive_base(v)
        return _chain(
            self, v ** p, p * v ** (p - 1.0), p * (p - 1.0) * v ** (p - 2.0)
        )

    def _int_pow(self, n):
        # Repeated multiplication keeps polynomial jets exact to rounding.
        if n == 0:
            return Jet2.constant(1.0, len(self._g))
        if n < 0:
            return self._int_pow(-n)._reciprocal()
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result


def _chain(u, f0, f1, f2):
    """Jet of f(u) given f, f', f'' at u.value (unary chain rule)."""
    g = u._g
    if _is_constant(u):
        return Jet2.constant(f0, len(g))
    if u._h is None:
        return _jet(f0, f1 * g, None)
    lay = _layout(len(g))
    return _jet(f0, f1 * g, f1 * u._h + (f2 * g[lay.rows]) * g[lay.cols])


def _chain2(u, v, f0, fu, fv, fuu, fuv, fvv):
    """Jet of f(u, v) (binary chain rule)."""
    if _is_constant(v):
        return _chain(u, f0, fu, fuu)
    if _is_constant(u):
        return _chain(v, f0, fv, fvv)
    ug, vg = u._g, v._g
    if _first_order(u, v):
        return _jet(f0, fu * ug + fv * vg, None)
    lay = _layout(len(ug))
    ua, ub = ug[lay.rows], ug[lay.cols]
    va, vb = vg[lay.rows], vg[lay.cols]
    hess = (fuu * ua * ub + fuv * (ua * vb + ub * va) + fvv * va * vb
            + fu * u._h + fv * v._h)
    return _jet(f0, fu * ug + fv * vg, hess)


# -- the primitives of expression programs: jets or values ----------------
#
# The domain checks use the array methods; a constant subtree evaluates
# on Python floats, whose comparisons give a plain bool.


def _any(mask):
    """Whether any element of a boolean array (or a bool) holds."""
    return mask if mask.__class__ is bool else mask.any()


def _all(mask):
    """Whether every element of a boolean array (or a bool) holds."""
    return mask if mask.__class__ is bool else mask.all()


def divide(u, v):
    """u / v; for values, raising when any element of v is zero."""
    if isinstance(u, Jet2) or isinstance(v, Jet2):
        return u / v
    if _any(v == 0.0):
        raise EvaluationError("div", "division by a zero value")
    return u / v


def _check_positive_base(v):
    ok = v > 0.0
    if not _all(ok):
        raise EvaluationError(
            "pow",
            f"non-integer power of non-positive value {_first_bad(v, ok)!r}",
        )


def power(v, p):
    """v ** p for a constant exponent, with the jet engine's domain
    rules: integer powers of any base except a zero base with a
    negative power, non-integer powers of positive bases only."""
    if isinstance(v, Jet2):
        return v ** p
    if float(p).is_integer():
        if p < 0 and _any(v == 0.0):
            raise EvaluationError("pow", "zero base with negative power")
        return v ** int(p)
    _check_positive_base(v)
    return v ** p


# -- elementary functions ----------------------------------------------
#
# Each primitive has two forms: its value f at an argument array, and
# (f, f', f'') there for the chain rule.  Both compute f the same way.


def _sin3(v):
    s, c = np.sin(v), np.cos(v)
    return s, c, -s


def _cos3(v):
    s, c = np.sin(v), np.cos(v)
    return c, -s, -c


def _exp(v):
    with np.errstate(over="ignore"):
        e = np.exp(v)
    ok = np.isfinite(e)
    if not _all(ok):
        raise EvaluationError("exp", f"overflow at argument {_first_bad(v, ok)!r}")
    return e


def _exp3(v):
    e = _exp(v)
    return e, e, e


def _sqrt(v):
    ok = v > 0.0
    if not _all(ok):
        raise EvaluationError(
            "sqrt", f"argument {_first_bad(v, ok)!r} is not positive"
        )
    return np.sqrt(v)


def _sqrt3(v):
    r = _sqrt(v)
    return r, 0.5 / r, -0.25 / (r * v)


def _bump_live(v):
    """exp(-1/(1-v^2)) on |v|<1, exactly 0 elsewhere and wherever the
    exponential underflows; with 1 - v^2 and the mask of live
    elements."""
    w = 1.0 - v * v
    g = -1.0 / np.where(w > 0.0, w, 1.0)
    live = (w > 0.0) & (g >= -700.0)
    return np.where(live, np.exp(np.where(live, g, 0.0)), 0.0), w, live


def _bump3(v):
    """The bump and its first two derivatives, all exactly 0 where the
    bump is."""
    b, w, live = _bump_live(v)
    # Dead elements get a harmless stand-in so that no inf * 0 appears.
    ws = np.where(live, w, 1.0)
    iw2 = 1.0 / (ws * ws)
    g1 = -2.0 * v * iw2
    g2 = -2.0 * iw2 - 8.0 * v * v * iw2 / ws
    return b, b * g1, b * (g2 + g1 * g1)


# C^3 polynomial step: 0 for u<=0, 1 for u>=1, 35u^4-84u^5+70u^6-20u^7
# between.  Three continuous derivatives, which is what a once-
# differentiated probe needs when it is then jet-evaluated to second
# order.  _SSTEP[k] is its k-th derivative between 0 and 1.

_SSTEP = (
    lambda v: v ** 4 * (35.0 + v * (-84.0 + v * (70.0 - 20.0 * v))),
    lambda v: 140.0 * v ** 3 * (1.0 - v) ** 3,
    lambda v: 420.0 * v ** 2 * (1.0 - v) ** 2 * (1.0 - 2.0 * v),
    lambda v: 840.0 * v * (1.0 - v) * (1.0 - 5.0 * v * (1.0 - v)),
    lambda v: 840.0 - 10080.0 * v + 25200.0 * v * v - 16800.0 * v ** 3,
)


def _sstep(v, k):
    """s^(k) of the step, elementwise."""
    inside = (v > 0.0) & (v < 1.0)
    s = _SSTEP[k](np.where(inside, v, 0.5))
    return np.where(inside, s, np.where(v >= 1.0, 1.0, 0.0) if k == 0 else 0.0)


def _sstep3(v, k):
    """(s^(k), s^(k+1), s^(k+2)) of the step, elementwise: the bits of
    :func:`_sstep` for each, from one inside mask and one clipped
    argument."""
    inside = (v > 0.0) & (v < 1.0)
    w = np.where(inside, v, 0.5)
    return (np.where(inside, _SSTEP[k](w),
                     np.where(v >= 1.0, 1.0, 0.0) if k == 0 else 0.0),
            np.where(inside, _SSTEP[k + 1](w), 0.0),
            np.where(inside, _SSTEP[k + 2](w), 0.0))


#: name -> (value f, (f, f', f'')) of the primitive at the argument.
PRIMITIVES = {
    "sin": (np.sin, _sin3),
    "cos": (np.cos, _cos3),
    "exp": (_exp, _exp3),
    "sqrt": (_sqrt, _sqrt3),
    "bump": (lambda v: _bump_live(v)[0], _bump3),
    "sstep": (lambda v: _sstep(v, 0), lambda v: _sstep3(v, 0)),
    "sstep_d1": (lambda v: _sstep(v, 1), lambda v: _sstep3(v, 1)),
    "sstep_d2": (lambda v: _sstep(v, 2), lambda v: _sstep3(v, 2)),
}


def apply(name, u):
    """Primitive ``name`` at u: the jet of f(u) for a jet u, else the
    value of f alone, elementwise."""
    if isinstance(u, Jet2):
        return _chain(u, *PRIMITIVES[name][1](u.value))
    return PRIMITIVES[name][0](u)


def atan2(y, x):
    """atan2(y, x): for jets, smooth away from the origin; for values,
    raising where both arguments are zero."""
    if not (isinstance(y, Jet2) or isinstance(x, Jet2)):
        if _any((x == 0.0) & (y == 0.0)):
            raise EvaluationError("atan2", "both arguments are zero")
        return np.arctan2(y, x)
    xv, yv = x.value, y.value
    f0 = atan2(yv, xv)
    r2 = xv * xv + yv * yv
    fy = xv / r2
    fx = -yv / r2
    r4 = r2 * r2
    fyy = -2.0 * xv * yv / r4
    fxx = 2.0 * xv * yv / r4
    fxy = (yv * yv - xv * xv) / r4
    return _chain2(y, x, f0, fy, fx, fyy, fxy, fxx)


# -- jets as arrays ------------------------------------------------------


def entries_array(entries, shape, tail=()):
    """Floats or arrays, each broadcast to ``shape + tail``, stacked as
    an array of shape ``shape + (len(entries),) + tail``."""
    tail = tuple(tail)
    out = np.empty(tuple(shape) + (len(entries),) + tail)
    rest = (slice(None),) * len(tail)
    for i, e in enumerate(entries):
        out[(Ellipsis, i) + rest] = e
    return out


def stacked(jets, shape, order):
    """k jets over a batch of shape S as one array: their values
    (order 0, shape ``(*S, k)``), gradients (order 1, ``(*S, k, n)``) or
    full symmetric Hessians (order 2, ``(*S, k, n, n)``).

    Orders 0 and 1 are C-contiguous.  Order 2 is the packed ``(*S, k,
    n(n+1)/2)`` array indexed by the full-matrix index map, and keeps
    the layout numpy gives that fancy-index result: the two Hessian
    axes outermost in memory, so it is not contiguous.  Sums that read
    it (einsum, matmul) take their summation order from that layout, so
    changing it moves the last bits of their results.  Order 2 raises
    ValueError when a jet is of order 1.
    """
    if order == 0:
        return entries_array([j.value for j in jets], shape)
    n = len(jets[0]._g)
    if order == 1:
        return entries_array([j.grad for j in jets], shape, (n,))
    if _first_order(*jets):
        raise ValueError("Hessians read from an order-1 jet")
    m = len(_layout(n).rows)
    return full_hessian(entries_array([j.hess for j in jets], shape, (m,)))


def columns(points, n=4):
    """The n coordinate arrays of an (N, n) array of points, as
    :meth:`Jet2.seed_point` and expression programs take them."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError(
            f"expected an (N, {n}) array of points, got shape {pts.shape}")
    return tuple(pts.T)


def _index_sum(term, n):
    """term(0) + term(1) + ... + term(n - 1), added in that order."""
    total = term(0)
    for i in range(1, n):
        total += term(i)
    return total


def _stack_rows(rows, shape):
    """Entry-major rows of k jets, broadcast over the batch shape S as
    their point-major views would be, as one ``(k, e, *S)`` array."""
    out = np.empty((len(rows), len(rows[0])) + shape)
    for o, r in zip(out, rows):
        _point_major(o)[...] = _point_major(r)
    return out


def compose(outers, inner):
    """Jets of F(Y(x)), one per outer jet F (given w.r.t. the Y
    variables at Y), from the jets of the components of Y (w.r.t. x).
    The inner rows are stacked once; each contraction is a sum of whole
    entry-major rows over the contracted index, in index order:
    grad_a = sum_b F_b J^b_a, hess_ac = sum_b J^b_a (sum_d F_bd J^d_c)
    + sum_b F_b K^b_ac.  The composed jets are of order 1 when an outer
    or an inner jet is."""
    p, n = len(inner), len(inner[0]._g)
    lay = _layout(n)
    shape = np.broadcast_shapes(*(np.shape(j.value) for j in (*outers, *inner)))
    J = _stack_rows([y._g for y in inner], shape)             # (b, a, *S)
    G = _stack_rows([f._g for f in outers], shape)            # (F, b, *S)
    grad = _index_sum(lambda b: G[:, b, None] * J[b], p)
    if _first_order(*outers, *inner):
        return tuple(_jet(f.value, g, None) for f, g in zip(outers, grad))
    K = _stack_rows([y._h for y in inner], shape)             # (b, ac, *S)
    H = _stack_rows([f._h for f in outers], shape)[:, _layout(p).full]
    HJ = _index_sum(lambda d: H[:, :, d, None] * J[d], p)     # (F, b, c, *S)
    hess = (_index_sum(lambda b: J[b, lay.rows] * HJ[:, b, lay.cols], p)
            + _index_sum(lambda b: G[:, b, None] * K[b], p))
    return tuple(_jet(f.value, g, h) for f, g, h in zip(outers, grad, hess))
