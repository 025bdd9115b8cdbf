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
of one point included:

* ``value`` has shape S (a float or a 0-d array when S = ());
* ``grad`` is an array ``(*S, n)``;
* ``hess`` is the packed upper triangle ``(*S, n(n+1)/2)``: entry (a, b),
  a <= b, in the order of ``np.triu_indices(n)``.

``n`` is the number of coordinates given to :meth:`Jet2.seed_point`:
four for points of spacetime, one for functions of the curve parameter.
The gradient and Hessian of a jet that is the same at every point of a
batch (constants, seeds, linear combinations of seeds) may keep the
shapes ``(n,)`` and ``(n(n+1)/2,)``, which broadcasting spreads over the
batch.  Branches of the elementary functions (domain checks, the support
of ``bump`` and of the ``sstep`` family) are applied elementwise; a
domain error anywhere in a batch raises.

Outside this module, jets are read back as arrays through
:func:`stacked` and point arrays enter through :func:`columns`, so the
array layout is known here alone.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import EvaluationError


def _col(v):
    """A value of shape S broadcastable against the last axis of
    gradients and Hessians."""
    return np.asarray(v)[..., None]


def _first_bad(v, ok):
    """The first argument value where the elementwise check ``ok``
    fails, for error messages."""
    return float(np.asarray(v)[~np.asarray(ok)].flat[0])


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


def full_hessian(hess):
    """Packed Hessians ``(..., n(n+1)/2)`` as full symmetric arrays
    ``(..., n, n)``."""
    m = np.shape(hess)[-1]
    n = int(round((np.sqrt(8 * m + 1) - 1) / 2))
    return np.asarray(hess)[..., _layout(n).full]


class Jet2:
    """Value, gradient and packed symmetric Hessian of a scalar at each
    point of a batch (see the module docstring).

    Jets are not modified after construction; all operations return new
    jets.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess):
        self.value = value
        self.grad = grad
        self.hess = hess

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(x, n):
        """The jet of the constant x (a float, or an array over the
        batch) in ``n`` variables."""
        lay = _layout(n)
        return Jet2(x, lay.zero_grad, lay.zero_hess)

    @staticmethod
    def seed_point(x):
        """Jets of the coordinate functions at the point x: one jet per
        coordinate, in ``n = len(x)`` variables (each x[a] the array of
        that coordinate over the batch)."""
        lay = _layout(len(x))
        return tuple(Jet2(xa, lay.seeds[a], lay.zero_hess)
                     for a, xa in enumerate(x))

    # -- views ---------------------------------------------------------

    def hess_entry(self, a, b):
        """Hessian entry (a, b), over the batch."""
        return self.hess[..., _layout(self.grad.shape[-1]).full[a, b]]

    def hessian_rows(self):
        """The full symmetric Hessian, shape ``(*S, n, n)``."""
        return full_hessian(self.hess)

    def scatter(self, mask):
        """A jet over the points of a batch where ``mask`` holds, spread
        over the whole batch with the zero jet elsewhere."""

        def put(e, tail):
            out = np.zeros(np.shape(mask) + tail)
            out[mask] = e
            return out

        return Jet2(put(self.value, ()), put(self.grad, self.grad.shape[-1:]),
                    put(self.hess, self.hess.shape[-1:]))

    def __repr__(self):
        return f"Jet2({self.value!r}, grad={self.grad!r}, hess={self.hess!r})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet2):
            return Jet2(self.value + other, self.grad, self.hess)
        return Jet2(self.value + other.value, self.grad + other.grad,
                    self.hess + other.hess)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Jet2):
            return Jet2(self.value - other, self.grad, self.hess)
        return Jet2(self.value - other.value, self.grad - other.grad,
                    self.hess - other.hess)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            c = _col(other)
            return Jet2(self.value * other, self.grad * c, self.hess * c)
        # Entry by entry: fv*gh + gv*fh + 2 f_a g_a on the diagonal,
        # fv*gh + gv*fh + f_a g_b + f_b g_a off it, in this order.
        f, g = self.grad, other.grad
        fv, gv = _col(self.value), _col(other.value)
        lay = _layout(f.shape[-1])
        cross = (lay.cross_w * f[..., lay.cross_f]) * g[..., lay.cross_g]
        m = len(lay.rows)
        hess = (fv * other.hess + gv * self.hess
                + cross[..., :m] + cross[..., m:])
        return Jet2(self.value * other.value, fv * g + gv * f, hess)

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
            return Jet2.constant(1.0, self.grad.shape[-1])
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
    g = u.grad
    lay = _layout(g.shape[-1])
    c1, c2 = _col(f1), _col(f2)
    return Jet2(f0, c1 * g,
                c1 * u.hess + (c2 * g[..., lay.rows]) * g[..., lay.cols])


def _chain2(u, v, f0, fu, fv, fuu, fuv, fvv):
    """Jet of f(u, v) (binary chain rule)."""
    ug, vg = u.grad, v.grad
    lay = _layout(ug.shape[-1])
    ua, ub = ug[..., lay.rows], ug[..., lay.cols]
    va, vb = vg[..., lay.rows], vg[..., lay.cols]
    fu, fv, fuu, fuv, fvv = map(_col, (fu, fv, fuu, fuv, fvv))
    hess = (fuu * ua * ub + fuv * (ua * vb + ub * va) + fvv * va * vb
            + fu * u.hess + fv * v.hess)
    return Jet2(f0, fu * ug + fv * vg, hess)


# -- value-level checks shared by jets and Expr.eval_value -------------


def divide(u, v):
    """u / v, raising when any element of v is zero."""
    if np.any(v == 0.0):
        raise EvaluationError("div", "division by a zero value")
    return u / v


def _check_positive_base(v):
    ok = v > 0.0
    if not np.all(ok):
        raise EvaluationError(
            "pow",
            f"non-integer power of non-positive value {_first_bad(v, ok)!r}",
        )


def power(v, p):
    """v ** p for a constant exponent, with the jet engine's domain
    rules: integer powers of any base except a zero base with a
    negative power, non-integer powers of positive bases only."""
    if float(p).is_integer():
        if p < 0 and np.any(v == 0.0):
            raise EvaluationError("pow", "zero base with negative power")
        return v ** int(p)
    _check_positive_base(v)
    return v ** p


# -- elementary functions ----------------------------------------------
#
# Each primitive maps an argument array to (f, f', f''); the
# jet version applies the chain rule, Expr.eval_value keeps f.


def _sin3(v):
    s, c = np.sin(v), np.cos(v)
    return s, c, -s


def _cos3(v):
    s, c = np.sin(v), np.cos(v)
    return c, -s, -c


def _exp3(v):
    with np.errstate(over="ignore"):
        e = np.exp(v)
    ok = np.isfinite(e)
    if not np.all(ok):
        raise EvaluationError("exp", f"overflow at argument {_first_bad(v, ok)!r}")
    return e, e, e


def _sqrt3(v):
    ok = v > 0.0
    if not np.all(ok):
        raise EvaluationError(
            "sqrt", f"argument {_first_bad(v, ok)!r} is not positive"
        )
    r = np.sqrt(v)
    return r, 0.5 / r, -0.25 / (r * v)


def _bump3(v):
    """exp(-1/(1-v^2)) on |v|<1, exactly 0 (with its derivatives)
    elsewhere and wherever the exponential underflows."""
    w = 1.0 - v * v
    g = -1.0 / np.where(w > 0.0, w, 1.0)
    live = (w > 0.0) & (g >= -700.0)
    # Dead elements get a harmless stand-in so that no inf * 0 appears.
    ws = np.where(live, w, 1.0)
    b = np.where(live, np.exp(np.where(live, g, 0.0)), 0.0)
    iw2 = 1.0 / (ws * ws)
    g1 = -2.0 * v * iw2
    g2 = -2.0 * iw2 - 8.0 * v * v * iw2 / ws
    return b, b * g1, b * (g2 + g1 * g1)


# C^3 polynomial step: 0 for u<=0, 1 for u>=1, 35u^4-84u^5+70u^6-20u^7
# between.  Three continuous derivatives, which is what a once-
# differentiated probe needs when it is then jet-evaluated to second
# order.


def _sstep_poly(v):
    s0 = v ** 4 * (35.0 + v * (-84.0 + v * (70.0 - 20.0 * v)))
    s1 = 140.0 * v ** 3 * (1.0 - v) ** 3
    s2 = 420.0 * v ** 2 * (1.0 - v) ** 2 * (1.0 - 2.0 * v)
    s3 = 840.0 * v * (1.0 - v) * (1.0 - 5.0 * v * (1.0 - v))
    s4 = 840.0 - 10080.0 * v + 25200.0 * v * v - 16800.0 * v ** 3
    return s0, s1, s2, s3, s4


def _sstep_derivs(v, k):
    """(s^(k), s^(k+1), s^(k+2)) of the step, elementwise."""
    inside = (v > 0.0) & (v < 1.0)
    s = _sstep_poly(np.where(inside, v, 0.5))
    out = [np.where(inside, s[k + i], 0.0) for i in range(3)]
    if k == 0:
        out[0] = np.where(inside, s[0], np.where(v >= 1.0, 1.0, 0.0))
    return tuple(out)


#: name -> primitive returning (f, f', f'') at the argument.
PRIMITIVES = {
    "sin": _sin3,
    "cos": _cos3,
    "exp": _exp3,
    "sqrt": _sqrt3,
    "bump": _bump3,
    "sstep": lambda v: _sstep_derivs(v, 0),
    "sstep_d1": lambda v: _sstep_derivs(v, 1),
    "sstep_d2": lambda v: _sstep_derivs(v, 2),
}


def apply_value(name, v):
    """Value of primitive ``name`` at v, elementwise."""
    return PRIMITIVES[name](v)[0]


def apply_jet(name, u):
    """Jet of primitive ``name`` applied to the jet u."""
    return _chain(u, *PRIMITIVES[name](u.value))


def atan2_value(y, x):
    """atan2(y, x), raising where both arguments are zero."""
    if np.any((x == 0.0) & (y == 0.0)):
        raise EvaluationError("atan2", "both arguments are zero")
    return np.arctan2(y, x)


def jatan2(y, x):
    """Jet of atan2(y, x); smooth away from the origin."""
    xv, yv = x.value, y.value
    f0 = atan2_value(yv, xv)
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
    full symmetric Hessians (order 2, ``(*S, k, n, n)``)."""
    if order == 0:
        return entries_array([j.value for j in jets], shape)
    n = jets[0].grad.shape[-1]
    if order == 1:
        return entries_array([j.grad for j in jets], shape, (n,))
    m = len(_layout(n).rows)
    return full_hessian(entries_array([j.hess for j in jets], shape, (m,)))


def columns(points, n=4):
    """The n coordinate arrays of an (N, n) array of points, as
    :meth:`Jet2.seed_point` and ``Expr.eval_value`` take them."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError(
            f"expected an (N, {n}) array of points, got shape {pts.shape}")
    return tuple(pts.T)


def compose(outer, inner):
    """Jet of F(Y(x)) from the jet of F at Y (w.r.t. the Y variables)
    and the jets of the components of Y (w.r.t. x)."""
    lay = _layout(inner[0].grad.shape[-1])
    shape = np.broadcast_shapes(*(np.shape(j.value) for j in (outer, *inner)))
    J = entries_array([j.grad for j in inner], shape, lay.zero_grad.shape)
    K = entries_array([j.hess for j in inner], shape, lay.zero_hess.shape)
    G, H = outer.grad, full_hessian(outer.hess)   # (..., b), (..., b, d)
    grad = np.einsum("...b,...ba->...a", G, J)
    JHJ = np.einsum("...ba,...bc->...ac", J, np.einsum("...bd,...dc->...bc", H, J))
    hess = JHJ[..., lay.rows, lay.cols] + np.einsum("...b,...bk->...k", G, K)
    return Jet2(outer.value, grad, hess)
