"""Parametrized worldlines and their reparametrizations.

Worldlines are expression trees in one variable (``tau``, stored as
variable 0), not sample arrays: the transport law needs the exact
velocity at arbitrary quadrature nodes.  Evaluation takes one tau or an
array of taus (all quadrature nodes of a refinement level at once).
Regularity (a nowhere-vanishing velocity) is checked at sample nodes
only, matching how the curve is consumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .expr import Const, Expr, Var
from .jets import Jet2, entries_array
from .taufn import tau_derivative


def _as_tau(t):
    """One tau as a float, several as a float array."""
    return np.asarray(t, dtype=float) if np.ndim(t) else float(t)


def _as_tau_expr(obj):
    if isinstance(obj, Expr):
        return obj
    if isinstance(obj, (int, float)):
        return Const(float(obj))
    raise TypeError(f"worldline components must be Expr or numbers, got {obj!r}")


@dataclass(frozen=True)
class Worldline:
    components: tuple  # four Expr in tau
    interval: tuple  # (tau0, tau1), tau0 < tau1

    def __post_init__(self):
        t0, t1 = self.interval
        if not t0 < t1:
            raise DomainError(f"empty parameter interval [{t0}, {t1}]")

    @staticmethod
    def from_exprs(components, interval):
        comps = tuple(_as_tau_expr(c) for c in components)
        if len(comps) != 4:
            raise DomainError("a worldline needs exactly 4 components")
        return Worldline(comps, (float(interval[0]), float(interval[1])))

    @staticmethod
    def static_at(position, interval):
        """Worldline sitting at a fixed spatial point, x0 = tau."""
        comps = (Var(0),) + tuple(Const(float(p)) for p in position)
        return Worldline(comps, (float(interval[0]), float(interval[1])))

    def _check_tau(self, tau):
        t0, t1 = self.interval
        ok = (t0 <= tau) & (tau <= t1)
        if not np.all(ok):
            bad = np.asarray(tau)[~np.asarray(ok)].flat[0]
            raise DomainError(
                f"parameter {bad} outside the interval [{t0}, {t1}]"
            )

    def _jets(self, tau):
        """One-variable jets of the four components in tau (a float, or
        an array of taus evaluated as one batch)."""
        self._check_tau(tau)
        seeds = Jet2.seed_point((_as_tau(tau),))
        return [c.eval_jet(seeds) for c in self.components]

    @staticmethod
    def _stack(entries, tau):
        """Four per-component results as a 4-tuple of floats for one tau,
        an (N, 4) array for an array of N taus."""
        if not np.ndim(tau):
            return tuple(float(e) for e in entries)
        return entries_array(entries, np.shape(tau))

    def eval(self, tau):
        """(point, velocity) from one jet pass: 4-tuples for one tau,
        (N, 4) arrays for an array of N taus."""
        jlist = self._jets(tau)
        return (self._stack([j.value for j in jlist], tau),
                self._stack([j.grad[..., 0] for j in jlist], tau))

    def point_at(self, tau):
        self._check_tau(tau)
        env = (_as_tau(tau),)
        return self._stack([c.eval_value(env) for c in self.components], tau)

    def velocity_at(self, tau):
        return self.eval(tau)[1]

    def acceleration_at(self, tau):
        return self._stack([j.hess[..., 0] for j in self._jets(tau)], tau)

    def sample_taus(self, n):
        t0, t1 = self.interval
        return np.linspace(t0, t1, n)

    def check_regular(self, n=33):
        """The curve must have a nonzero velocity at every sample node."""
        taus = self.sample_taus(n)
        _, v = self.eval(taus)
        still = np.max(np.abs(v), axis=1) == 0.0
        if np.any(still):
            raise DomainError(
                f"worldline has vanishing velocity at tau = "
                f"{taus[np.argmax(still)]}"
            )
        return True

    def is_adapted(self, n=17, tol=1e-12):
        """True when C(tau) = (tau, 0, 0, 0) on sample nodes."""
        taus = self.sample_taus(n)
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

    def reparametrized(self, rep):
        """The same curve as a function of the new parameter."""
        mapping = {0: rep.map}
        comps = tuple(c.subs(mapping) for c in self.components)
        return Worldline(comps, rep.interval_hat)


@dataclass(frozen=True)
class Reparametrization:
    """Orientation-preserving parameter change tau(tau_hat)."""

    map: Expr  # tau as an expression in tau_hat (variable 0)
    interval_hat: tuple

    def __post_init__(self):
        t0, t1 = self.interval_hat
        if not t0 < t1:
            raise DomainError(f"empty parameter interval [{t0}, {t1}]")
        for th in np.linspace(t0, t1, 33):
            if self.speed(float(th)) <= 0.0:
                raise DomainError(
                    f"reparametrization is not orientation-preserving at "
                    f"tau_hat = {th}"
                )

    def tau_of(self, tau_hat):
        return tau_derivative(self.map, _as_tau(tau_hat), 0)

    def speed(self, tau_hat):
        """d tau / d tau_hat."""
        return tau_derivative(self.map, _as_tau(tau_hat), 1)

    def speed_deriv(self, tau_hat):
        return tau_derivative(self.map, _as_tau(tau_hat), 2)
