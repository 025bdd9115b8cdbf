"""Parametrized worldlines.

Worldlines are expression trees in one variable (``tau``, stored as
variable 0), not sample arrays: the transport law needs the exact
velocity at arbitrary quadrature nodes.  Evaluation takes a 1-D array
of N taus (all quadrature nodes of a refinement level at once, or N = 1
for one tau) and returns arrays with a leading axis of length N.
Regularity (a nowhere-vanishing velocity) is checked at sample nodes
only, matching how the curve is consumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .expr import Const, Program, Var, tau_rows
from .jets import Jet2, stacked


@dataclass(frozen=True)
class Worldline:
    components: tuple  # four Expr in tau
    interval: tuple  # (tau0, tau1), tau0 < tau1

    def __post_init__(self):
        t0, t1 = self.interval
        if not t0 < t1:
            raise DomainError(f"empty parameter interval [{t0}, {t1}]")

    @staticmethod
    def static_at(position, interval):
        """Worldline sitting at a fixed spatial point, x0 = tau."""
        comps = (Var(0),) + tuple(Const(float(p)) for p in position)
        return Worldline(comps, (float(interval[0]), float(interval[1])))

    def _check_tau(self, tau):
        t0, t1 = self.interval
        ok = (t0 <= tau) & (tau <= t1)
        if not np.all(ok):
            bad = tau[~ok][0]
            raise DomainError(
                f"parameter {bad} outside the interval [{t0}, {t1}]"
            )

    @cached_property
    def _program(self):
        """The :class:`~polekit.expr.Program` of the four components."""
        return Program(self.components)

    def eval(self, tau):
        """(point, velocity) as (N, 4) arrays from one pass of
        first-order jets."""
        self._check_tau(tau)
        jlist = self._program(Jet2.seed_point((tau,), 1))
        return (stacked(jlist, tau.shape, 0),
                stacked(jlist, tau.shape, 1)[..., 0])

    def point_at(self, tau):
        self._check_tau(tau)
        return tau_rows(self._program, tau, 0)

    def velocity_at(self, tau):
        return self.eval(tau)[1]

    def acceleration_at(self, tau):
        self._check_tau(tau)
        return tau_rows(self._program, tau, 2)

    def sample_taus(self, n):
        t0, t1 = self.interval
        return np.linspace(t0, t1, n)

    def check_regular(self):
        """The curve must have a nonzero velocity at 33 sample nodes."""
        taus = self.sample_taus(33)
        _, v = self.eval(taus)
        still = np.max(np.abs(v), axis=1) == 0.0
        if np.any(still):
            raise DomainError(
                f"worldline has vanishing velocity at tau = "
                f"{taus[np.argmax(still)]}"
            )
        return True

    def is_adapted(self):
        """True when C(tau) = (tau, 0, 0, 0) to 1e-12 at 17 nodes."""
        tol = 1e-12
        taus = self.sample_taus(17)
        p, v = self.eval(taus)
        return bool(
            np.all(np.abs(p[:, 0] - taus) <= tol * np.maximum(1.0, np.abs(taus)))
            and np.all(np.abs(p[:, 1:]) <= tol)
            and np.all(np.abs(v[:, 0] - 1.0) <= tol)
            and np.all(np.abs(v[:, 1:]) <= tol)
        )

    def push_through_chart(self, chart):
        """The image worldline, components composed by substitution."""
        mapping = {i: self.components[i] for i in range(4)}
        comps = tuple(c.subs(mapping) for c in chart.forward)
        return Worldline(comps, self.interval)
