"""Transport of multipole components between coordinate charts.

Dipole components move tensorially: two Jacobian factors.  Quadrupole
components pick up an extra, non-tensorial piece coupling the chart
Hessian to the components through a running integral

    P[d][e](tau) = kappa0[d][e]
        + integral_tau0^tau gamma[abc] (A^d_c A^e_ab - A^e_c A^d_ab),

which enters as hatted_gamma[def] =
    A^d_a A^e_b A^f_c gamma[abc]
    + P[d][e] vhat^f + P[d][f] vhat^e,

with vhat the hatted-coordinate velocity of the worldline (d/dtau of
the image curve).  The image curve keeps the parameter tau, so the
parameter-change factor dtau/dtau_hat of the paper's law is 1.  The
integration constant kappa0 shifts component arrays but never any
pairing; the lower limit is anchored at the interval start so runs are
reproducible.  The emergent dipole dP/dtau, free of kappa0, is
``TransportResult.gamma2_hat``.

The tensorial image A^d_a A^e_b A^f_c gamma[abc] is evaluated as three
two-operand contractions in a fixed order: over c with A^f_c first,
then over b with A^e_b, then over a with A^d_a.  Its tau derivative
applies the product rule at each of the three stages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import singular_row
from .errors import DomainError
from .moments import DipoleComponents, QuadrupoleComponents, satisfies
from .quadrature import CumulativeIntegral

_PPAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PD = np.array([d for d, _ in _PPAIRS])
_PE = np.array([e for _, e in _PPAIRS])


def _antisym_from_vec(vec):
    """(..., 6) pair values -> (..., 4, 4) antisymmetric matrices."""
    vec = np.asarray(vec)
    M = np.zeros(vec.shape[:-1] + (4, 4))
    M[..., _PD, _PE] = vec
    M[..., _PE, _PD] = -vec
    return M


class PTerm:
    """The antisymmetric integral term of a quadrupole transport.

    ``matrix_at`` and ``deriv_matrix_at`` take a 1-D array of N taus and
    return (N, 4, 4) arrays."""

    def __init__(self, cumulative, kappa0):
        self._cum = cumulative
        self.kappa0 = kappa0
        self.quadrature_error = cumulative.error
        self.nodes = cumulative.nodes

    def matrix_at(self, tau):
        return self.kappa0 + _antisym_from_vec(self._cum.value(tau))

    def deriv_matrix_at(self, tau):
        """The integrand; exact derivative of the running integral."""
        return _antisym_from_vec(self._cum.derivative(tau))


@dataclass
class TransportResult:
    gamma3_hat: QuadrupoleComponents
    P: PTerm
    worldline_hat: object

    @property
    def gamma2_hat(self):
        """The emergent dipole: the derivative of the integral term.
        Constant shifts of P (the kappa0 freedom) drop out here."""
        return DipoleComponents(self.P.deriv_matrix_at)


def _frames(chart, worldline, taus, order):
    """Worldline velocity (N, 4), chart Jacobian A^a_b (N, 4, 4) and,
    for ``order`` 2, Hessian A^a_bc (N, 4, 4, 4) at a batch of N taus,
    from chart jets truncated at ``order``."""
    points, vel = worldline.eval(taus)
    _, A, *hessian = chart.frames_at(points, order)
    i = singular_row(A)
    if i is not None:
        raise DomainError(
            f"chart {chart.label!r} is singular along the worldline "
            f"at tau = {taus[i]}"
        )
    return (vel, A, *hessian)


def _tensorial(A, g, dA=None, dg=None):
    """The tensorial image A^d_a A^e_b A^f_c g[abc] of N component
    arrays, or, given the tau derivatives dA and dg, the derivative of
    that image.  The derivative applies the product rule at each of the
    three contractions, so its four terms share the partial products."""
    n = len(g)

    def over_c(M, h):  # h[abc] M^f_c -> [n, a, b, f]
        return (h.reshape(n, 16, 4)
                @ np.swapaxes(M, -1, -2)).reshape(n, 4, 4, 4)

    def over_b(M, t):  # M^e_b t[abf] -> [n, a, e, f]
        return M[:, None] @ t

    def over_a(M, t):  # M^d_a t[aef] -> [n, d, e, f]
        return (M @ t.reshape(n, 4, 16)).reshape(n, 4, 4, 4)

    c = over_c(A, g)
    b = over_b(A, c)
    if dA is None:
        return over_a(A, b)
    dc = over_c(dA, g) + over_c(A, dg)
    db = over_b(dA, c) + over_b(A, dc)
    return over_a(dA, b) + over_a(A, db)


def transform_dipole(gamma2, chart, worldline):
    """Tensorial transport: hatted[cd] = A^c_a A^d_b g[ab], along the
    image curve, which keeps the parameter tau."""
    worldline.check_regular()

    def F(taus):
        _, A = _frames(chart, worldline, taus, 1)
        return A @ gamma2.values_at(taus) @ np.swapaxes(A, -1, -2)

    def dF(taus):
        vel, A, H = _frames(chart, worldline, taus, 2)
        At = np.swapaxes(A, -1, -2)
        dA = np.einsum("ndab,nb->nda", H, vel)
        g = gamma2.values_at(taus)
        dg = gamma2.derivs_at(taus)
        return (dA @ g @ At + A @ dg @ At
                + A @ g @ np.swapaxes(dA, -1, -2))

    return DipoleComponents(F, dF)


def transform_quadrupole(gamma3, chart, worldline, kappa0=None):
    """Full quadrupole transport, integral term included.

    Returns a :class:`TransportResult`, whose ``gamma2_hat`` is the
    emergent dipole.  Raises :class:`polekit.errors.QuadratureError`
    when the integral term cannot reach tolerance.  The transported
    components are computed as whole arrays over batches of taus (chart
    frames, components and ``P`` at once), so reading all 64 entries at
    a node costs one evaluation.
    """
    worldline.check_regular()
    if kappa0 is None:
        kappa0 = np.zeros((4, 4))
    kappa0 = np.asarray(kappa0, dtype=float)
    if kappa0.shape != (4, 4):
        raise DomainError("kappa0 must be a 4x4 array")
    if not satisfies("antisymmetric", kappa0, 1e-12):
        raise DomainError("kappa0 must be antisymmetric")
    t0, t1 = worldline.interval

    def integrand(taus):
        _, A, H = _frames(chart, worldline, taus, 2)
        # gamma[abc] (A^d_c A^e_ab - A^e_c A^d_ab) for pairs d < e.
        term = np.einsum("nabc,ndc,neab->nde", gamma3.values_at(taus), A, H)
        return (term - np.swapaxes(term, -1, -2))[:, _PD, _PE]

    cumulative = CumulativeIntegral(
        integrand, t0, t1, len(_PPAIRS), 1e-10,
        label=f"integral term through {chart.label!r}",
    )
    P = PTerm(cumulative, kappa0)

    def F(taus):
        vel, A = _frames(chart, worldline, taus, 1)
        Pm = P.matrix_at(taus)
        vhat = np.einsum("nab,nb->na", A, vel)
        return (
            _tensorial(A, gamma3.values_at(taus))
            + Pm[:, :, :, None] * vhat[:, None, None, :]
            + Pm[:, :, None, :] * vhat[:, None, :, None]
        )

    def dF(taus):
        vel, A, H = _frames(chart, worldline, taus, 2)
        acc = worldline.acceleration_at(taus)
        dA = np.einsum("ndab,nb->nda", H, vel)
        dtens = _tensorial(A, gamma3.values_at(taus),
                           dA, gamma3.derivs_at(taus))
        Pm = P.matrix_at(taus)
        dPm = P.deriv_matrix_at(taus)
        vhat = np.einsum("nab,nb->na", A, vel)
        dvhat = (np.einsum("nab,nb->na", dA, vel)
                 + np.einsum("nab,nb->na", A, acc))
        return (
            dtens
            + dPm[:, :, :, None] * vhat[:, None, None, :]
            + Pm[:, :, :, None] * dvhat[:, None, None, :]
            + dPm[:, :, None, :] * vhat[:, None, :, None]
            + Pm[:, :, None, :] * dvhat[:, None, :, None]
        )

    return TransportResult(
        gamma3_hat=QuadrupoleComponents(F, dF),
        P=P,
        worldline_hat=worldline.push_through_chart(chart),
    )

