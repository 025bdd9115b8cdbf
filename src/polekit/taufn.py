"""Scalar functions of the curve parameter with exact derivative rules.

Multipole components are held as arrays over batches of taus (see
:mod:`polekit.moments`); :class:`TauFn` is the read-only view of one
entry: a value callable plus exact first/second derivative callables.
Derivatives are never approximated; when no rule is available,
:class:`DerivativeUnavailable` is raised.  Every callable takes one tau
or an array of taus; a constant may come back as a plain float for an
array, which numpy broadcasting absorbs.  Functions of tau are combined
as expression trees (:mod:`polekit.expr`), not as ``TauFn``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import DerivativeUnavailable
from .expr import Const, Expr
from .jets import Jet2


def tau_derivative(e, t, order=0):
    """The ``order``-th (0, 1 or 2) tau derivative of the expression
    ``e`` (a function of variable 0 only) at one tau or an array of
    taus, from one-variable jets."""
    if order == 0:
        return e.eval_value((t,))
    jet = e.eval_jet(Jet2.seed_point((t,)))
    d = (jet.grad if order == 1 else jet.hess)[..., 0]
    return d if np.ndim(t) else float(d)


class TauFn:
    """A real function of tau with optional exact derivatives."""

    __slots__ = ("fn", "dfn", "d2fn", "is_zero")

    def __init__(self, fn, dfn=None, d2fn=None, is_zero=False):
        self.fn = fn
        self.dfn = dfn
        self.d2fn = d2fn
        self.is_zero = is_zero

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_expr(e):
        if isinstance(e, (int, float)):
            return TauFn.constant(e)
        if not isinstance(e, Expr):
            raise TypeError(f"expected Expr or number, got {type(e)!r}")
        zero = isinstance(e, Const) and e.v == 0.0
        return TauFn(*(partial(tau_derivative, e, order=k) for k in range(3)),
                     is_zero=zero)

    @staticmethod
    def constant(c):
        c = float(c)
        return TauFn(
            lambda t: c,
            lambda t: 0.0,
            lambda t: 0.0,
            is_zero=(c == 0.0),
        )

    @staticmethod
    def wrap(obj):
        if isinstance(obj, TauFn):
            return obj
        if isinstance(obj, Expr):
            return TauFn.from_expr(obj)
        if isinstance(obj, (int, float)):
            return TauFn.constant(obj)
        raise TypeError(f"cannot wrap {type(obj)!r} as a TauFn")

    # -- evaluation -----------------------------------------------------

    def __call__(self, t):
        return self.fn(t)

    def deriv(self, t):
        if self.dfn is None:
            raise DerivativeUnavailable(
                "no exact first-derivative rule for this component"
            )
        return self.dfn(t)

    def deriv2(self, t):
        if self.d2fn is None:
            raise DerivativeUnavailable(
                "no exact second-derivative rule for this component"
            )
        return self.d2fn(t)


ZERO = TauFn.constant(0.0)
