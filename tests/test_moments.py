import importlib.util
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    central_difference,
    random_antisym_poly_grid,
    random_quadrupole,
    same_signed_bits,
    static_dipole_vectors,
)
from polekit import expr as ex
from polekit.errors import DerivativeUnavailable, DomainError, SymmetryError
from polekit.moments import (
    AdaptedCoefficients,
    DipoleComponents,
    Monopole,
    QuadrupoleComponents,
    component_rank,
    embed_dipole_as_quadrupole,
    extract_dipole,
    gamma_from_zeta,
    make_electric_dipole,
    make_electric_quadrupole,
    make_static_dipole,
    make_toroidal_quadrupole,
    _null_space,
    quadrupole_basis,
    sample_taus,
    symmetry_projector,
    zeta_from_gamma,
)
from polekit.pairing import (
    pair_adapted_coefficients,
    pair_dipole,
    pair_monopole,
    pair_quadrupole,
    random_test_form_along,
)
from polekit.worldlines import Worldline

TAUS = np.linspace(-1.0, 1.0, 11)


# -- containers --------------------------------------------------------------


def test_static_dipole_electric_entry():
    d = make_static_dipole((1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    g = d.values_at(np.array([0.0]))[0]
    assert g[0, 1] == 1.0 and g[1, 0] == -1.0
    g[0, 1] = g[1, 0] = 0.0
    assert np.max(np.abs(g)) == 0.0


def test_static_dipole_magnetic_entry():
    # eps[1,2,3] = +1 convention: a z magnetic moment fills the (1,2) slot
    d = make_static_dipole((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    g = d.values_at(np.array([0.0]))[0]
    assert g[1, 2] == 1.0 and g[2, 1] == -1.0
    g[1, 2] = g[2, 1] = 0.0
    assert np.max(np.abs(g)) == 0.0


def test_static_dipole_zero():
    d = make_static_dipole((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert np.max(np.abs(d.values_at(np.array([0.0]))[0])) == 0.0


def test_static_dipole_vectors_round_trip(rng):
    p_ed = rng.uniform(-1, 1, 3)
    p_md = rng.uniform(-1, 1, 3)
    d = make_static_dipole(p_ed, p_md)
    e2, m2 = static_dipole_vectors(d)
    assert np.allclose(e2, p_ed) and np.allclose(m2, p_md)


def test_nan_residual_fails_the_symmetry_checks():
    """A NaN entry is no symmetry: its residual is NaN, which each check
    rejects rather than reading ``NaN > tol`` as a pass."""

    def nan_at(idx):
        def values(taus):
            out = np.zeros((len(taus),) + (4,) * len(idx))
            out[(slice(None),) + idx] = np.nan
            return out

        return values

    with pytest.raises(SymmetryError) as err:
        DipoleComponents(nan_at((1, 2))).check(TAUS, 1e-12)
    assert err.value.index == (1, 2)
    with pytest.raises(SymmetryError) as err:
        QuadrupoleComponents(nan_at((2, 1, 1))).check(TAUS, 1e-12)
    assert err.value.tau == TAUS[0]


def test_dipole_antisymmetry_validation():
    bad = DipoleComponents.from_dict({(0, 1): ex.Const(1.0)})
    with pytest.raises(SymmetryError) as err:
        bad.check(TAUS, 1e-12)
    assert err.value.index is not None


def test_quadrupole_symmetry_validation():
    bad = QuadrupoleComponents.from_dict(
        {(1, 2, 1): ex.Const(1.0), (1, 1, 2): ex.Const(0.9),
         (2, 1, 1): ex.Const(-2.0)}
    )
    with pytest.raises(SymmetryError):
        bad.check(TAUS, 1e-12)


def test_random_quadrupole_is_valid(rng):
    q = random_quadrupole(rng)
    q.check(sample_taus((-2.0, 2.0)), 1e-10)


# -- toroidal pattern ---------------------------------------------------------


def test_static_patterns_equal_their_entry_by_entry_loops(rng):
    """The static dipole and the toroidal pattern are array expressions;
    they give the bits of the entry-by-entry definitions, signed zeros
    included."""
    spatial = (1, 2, 3)
    eps = np.zeros((4, 4, 4))
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        eps[i, j, k], eps[i, k, j] = 1.0, -1.0
    for n in range(40):
        p_ed, p_md, T = (rng.choice([0.0, -0.0, 0.3, -1.1], 3) if n % 2
                         else rng.uniform(-2, 2, 3) for _ in range(3))
        g = np.zeros((4, 4))
        raw = np.zeros((4, 4, 4))
        for mu in spatial:
            g[0, mu], g[mu, 0] = p_ed[mu - 1], -p_ed[mu - 1]
            for nu in spatial:
                g[mu, nu] = sum(eps[mu, nu, s] * p_md[s - 1] for s in spatial)
                for sg in spatial:
                    val = 0.0
                    if mu == sg:
                        val += T[nu - 1]
                    if mu == nu:
                        val += T[sg - 1]
                    if nu == sg:
                        val -= 2.0 * T[sg - 1]
                    raw[mu, nu, sg] = val
        tor = (symmetry_projector() @ raw.reshape(64)).reshape(4, 4, 4)
        for got, want in ((make_static_dipole(p_ed, p_md), g),
                          (make_toroidal_quadrupole(T), tor)):
            assert got.values_at(np.zeros(1))[0].tobytes() == want.tobytes()


def test_toroidal_zero_vector():
    q = make_toroidal_quadrupole((0.0, 0.0, 0.0))
    assert np.max(np.abs(q.values_at(np.array([0.0]))[0])) == 0.0


def test_toroidal_z_fixed_entries():
    # frozen output of the symmetry projection of the delta pattern for
    # T = e_z (the raw printed pattern violates the cyclic constraint,
    # so the projection moves it)
    T = np.array([0.0, 0.0, 1.0])
    d = np.eye(3)
    raw = np.zeros((4, 4, 4))
    raw[1:, 1:, 1:] = (np.einsum("ms,n->mns", d, T)
                       + np.einsum("mn,s->mns", d, T)
                       - 2.0 * (d * T)[None])
    q = make_toroidal_quadrupole(T)
    g = q.values_at(np.array([0.0]))[0]
    assert np.linalg.norm(raw - g) > 1.0
    third = 1.0 / 3.0
    expected = {
        (1, 1, 3): third, (1, 3, 1): third, (1, 3, 3): -4 * third,
        (2, 2, 3): third, (2, 3, 2): third, (2, 3, 3): -4 * third,
        (3, 1, 1): -2 * third, (3, 1, 3): 2 * third,
        (3, 2, 2): -2 * third, (3, 2, 3): 2 * third,
        (3, 3, 1): 2 * third, (3, 3, 2): 2 * third,
    }
    for idx, val in expected.items():
        assert g[idx] == pytest.approx(val, abs=1e-12)
        g[idx] = 0.0
    assert np.max(np.abs(g)) < 1e-12


def test_toroidal_any_vector_passes_symmetries(rng):
    # symmetry-checker oracle over random toroidal vectors
    for _ in range(10):
        q = make_toroidal_quadrupole(rng.uniform(-2, 2, 3))
        q.check(TAUS, 1e-12)


# -- electric constructors ----------------------------------------------------


def test_electric_dipole_parallel_w_vanishes(adapted_worldline):
    # w proportional to the velocity gives zero components
    d = make_electric_dipole(
        [ex.Const(2.0), ex.Const(0.0), ex.Const(0.0), ex.Const(0.0)],
        adapted_worldline,
    )
    for t in np.linspace(0.1, 3.9, 7)[:, None]:
        assert np.max(np.abs(d.values_at(t))) == 0.0


def test_electric_dipole_static_entry(adapted_worldline):
    d = make_electric_dipole(
        [ex.Const(0.0), ex.Const(1.0), ex.Const(0.0), ex.Const(0.0)],
        adapted_worldline,
    )
    g = d.values_at(np.array([1.0]))[0]
    assert g[1, 0] == 1.0 and g[0, 1] == -1.0


def test_electric_dipole_gauge_shift_invariance(rng, wobble_worldline):
    # w -> w + xi * velocity leaves the components unchanged
    C = wobble_worldline
    w = [ex.parse("0.3*tau", ex.TAU_VARS), ex.Const(1.0),
         ex.parse("sin(tau)", ex.TAU_VARS), ex.Const(-0.4)]
    xi = ex.parse("0.7 + 0.2*tau", ex.TAU_VARS)
    d1 = make_electric_dipole(w, C)
    w_shifted = [
        ex.add(w[a], ex.mul(xi, C.components[a].diff(0))) for a in range(4)
    ]
    d2 = make_electric_dipole(w_shifted, C)
    for t in np.linspace(0.2, 5.8, 9)[:, None]:
        assert np.allclose(d1.values_at(t), d2.values_at(t), atol=1e-12)


def test_electric_quadrupole_static_diagonal(adapted_worldline):
    qgrid = [[ex.Const(0.0)] * 4 for _ in range(4)]
    qgrid[1][1] = ex.Const(1.0)
    q = make_electric_quadrupole(qgrid, adapted_worldline)
    g = q.values_at(np.array([1.0]))[0]
    assert g[0, 1, 1] == 2.0
    assert g[1, 0, 1] == -1.0 and g[1, 1, 0] == -1.0
    g[0, 1, 1] = g[1, 0, 1] = g[1, 1, 0] = 0.0
    assert np.max(np.abs(g)) == 0.0


def test_electric_quadrupole_antisymmetric_q_is_embedding(rng,
                                                          wobble_worldline):
    """For antisymmetric q the defining equation reduces to the dipole
    embedding of -q: the v q^{bc} + v q^{cb} terms cancel, leaving
    -(q^{ac} v^b + q^{ab} v^c)."""
    C = wobble_worldline
    p = random_antisym_poly_grid(rng, degree=1)
    q_from_p = make_electric_quadrupole(p, C)
    minus_p = [[ex.neg(p[a][b]) for b in range(4)] for a in range(4)]
    embedded = embed_dipole_as_quadrupole(minus_p, C)
    for t in np.linspace(0.3, 5.7, 7)[:, None]:
        assert np.allclose(
            q_from_p.values_at(t), embedded.values_at(t), atol=1e-12
        )


def test_electric_quadrupole_gauge_direction(rng, wobble_worldline):
    """Which q-shift annihilates the components: q + v (x) s does
    exactly; s (x) v and the symmetrized shift do not (for generic s).
    The rank computation (kernel dimension 4) is the cross-check."""
    C = wobble_worldline
    v = [C.components[a].diff(0) for a in range(4)]
    s = [ex.parse(t, ex.TAU_VARS)
         for t in ("0.5", "tau*0.1", "1 - 0.2*tau", "0.3")]

    vs = [[ex.mul(v[a], s[b]) for b in range(4)] for a in range(4)]  # v (x) s
    sv = [[ex.mul(s[a], v[b]) for b in range(4)] for a in range(4)]  # s (x) v
    q_vs = make_electric_quadrupole(vs, C)
    q_sv = make_electric_quadrupole(sv, C)
    taus = np.linspace(0.4, 5.6, 5)[:, None]
    assert max(np.max(np.abs(q_vs.values_at(t))) for t in taus) <= 1e-12
    assert max(np.max(np.abs(q_sv.values_at(t))) for t in taus) > 1e-3
    sym = [[ex.add(ex.mul(s[a], v[b]), ex.mul(v[a], s[b])) for b in range(4)]
           for a in range(4)]
    q_sym = make_electric_quadrupole(sym, C)
    assert max(np.max(np.abs(q_sym.values_at(t))) for t in taus) > 1e-3


# -- embedding and extraction -------------------------------------------------


def test_embed_zero(adapted_worldline):
    p = [[ex.Const(0.0)] * 4 for _ in range(4)]
    q = embed_dipole_as_quadrupole(p, adapted_worldline)
    assert np.max(np.abs(q.values_at(np.array([1.0]))[0])) == 0.0


def test_embed_static_linear_p(adapted_worldline):
    kappa, kappa0 = 1.3, -0.4
    p = [[ex.Const(0.0)] * 4 for _ in range(4)]
    p[1][2] = ex.parse(f"{kappa}*tau + {kappa0}", ex.TAU_VARS)
    p[2][1] = ex.Neg(p[1][2])
    q = embed_dipole_as_quadrupole(p, adapted_worldline)
    for t in (0.5, 2.0):
        g = q.values_at(np.array([t]))[0]
        val = kappa * t + kappa0
        assert g[1, 2, 0] == pytest.approx(val, rel=1e-13)
        assert g[1, 0, 2] == pytest.approx(val, rel=1e-13)
        assert g[2, 1, 0] == pytest.approx(-val, rel=1e-13)
        assert g[2, 0, 1] == pytest.approx(-val, rel=1e-13)


def test_embed_rejects_asymmetric_p(adapted_worldline):
    p = [[ex.Const(0.0)] * 4 for _ in range(4)]
    p[1][2] = ex.Const(1.0)  # mirror entry left at zero
    with pytest.raises(SymmetryError):
        embed_dipole_as_quadrupole(p, adapted_worldline)


def test_embed_names_a_p_entry_that_is_not_finite(adapted_worldline):
    """A NaN in p is a fault of p, not of the embedded quadrupole."""
    p = [[ex.Const(0.0)] * 4 for _ in range(4)]
    p[2][1] = ex.Const(np.nan)
    with pytest.raises(SymmetryError,
                       match=r"^p\[2\]\[1\] is not finite at tau=") as err:
        embed_dipole_as_quadrupole(p, adapted_worldline)
    assert err.value.index == (2, 1)


def test_extract_dipole_examples():
    p = [[ex.Const(0.0)] * 4 for _ in range(4)]
    p[1][2] = ex.parse("2.5*tau + 1", ex.TAU_VARS)
    p[2][1] = ex.Neg(p[1][2])
    d = extract_dipole(p)
    assert d.values_at(np.array([0.7]))[0, 1, 2] == pytest.approx(2.5,
                                                                rel=1e-13)
    constant = [[ex.Const(0.0)] * 4 for _ in range(4)]
    constant[0][1] = ex.Const(3.0)
    constant[1][0] = ex.Const(-3.0)
    assert np.max(np.abs(
        extract_dipole(constant).values_at(np.array([0.3]))[0])) == 0.0
    tsq = [[ex.Const(0.0)] * 4 for _ in range(4)]
    tsq[0][1] = ex.parse("tau^2", ex.TAU_VARS)
    tsq[1][0] = ex.Neg(tsq[0][1])
    assert extract_dipole(tsq).values_at(np.array([1.5]))[0, 0, 1] == \
        pytest.approx(3.0)


def test_embedded_quadrupole_pairs_like_derivative_dipole(
        rng, adapted_worldline):
    """Distributional identity: the embedded quadrupole equals the
    dipole built from dp/dtau, to pairing accuracy."""
    C = adapted_worldline
    for _ in range(3):
        p = random_antisym_poly_grid(rng, degree=2)
        quad = embed_dipole_as_quadrupole(p, C)
        dip = extract_dipole(p)
        form = random_test_form_along(rng, C)
        a = pair_quadrupole(quad, C, form).value
        b = pair_dipole(dip, C, form).value
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


# -- ranks --------------------------------------------------------------------


def test_component_ranks():
    assert component_rank("dipole") == 6
    assert component_rank("quadrupole") == 20
    assert component_rank("electric_dipole_mod_gauge") == 3
    assert component_rank("electric_quadrupole_mod_gauge") == 12


def test_mirror_entries_are_read_once(monkeypatch):
    """Entries written alike are read as one tree per call, and each
    slot has the bits of reading its own entry, for values and both
    tau derivatives; trees that compare equal but differ in the sign of
    a zero constant are read apart."""
    from polekit import moments

    reads = []
    tau_rows = moments.tau_rows

    def counted(program, taus, order):
        reads.append(len(program.trees))
        return tau_rows(program, taus, order)

    monkeypatch.setattr(moments, "tau_rows", counted)
    texts = {"211": "2 + 0.4*tau", "121": "-1 - 0.2*tau",
             "112": "-1 - 0.2*tau", "300": "0.6*tau^2", "030": "-0.3*tau^2",
             "003": "-0.3*tau^2"}
    quad = {tuple(int(c) for c in k): ex.parse(v, ex.TAU_VARS)
            for k, v in texts.items()}
    y = ex.Var(0)
    signed = {(0, 1): ex.Atan2(ex.Mul(ex.Const(0.0), y), ex.Const(-1.0)),
              (1, 0): ex.Atan2(ex.Mul(ex.Const(-0.0), y), ex.Const(-1.0))}
    assert signed[(0, 1)] == signed[(1, 0)]
    taus = np.linspace(0.1, 3.0, 11)
    for cls, entries, distinct in ((QuadrupoleComponents, quad, 4),
                                   (DipoleComponents, signed, 2)):
        comps = cls.from_dict(entries)
        reads.clear()
        for k in range(3):
            got = comps._arrays[k](taus)
            for idx, tree in entries.items():
                want = ex.tau_rows(ex.Program([tree]), taus, k)[:, 0]
                assert same_signed_bits(got[(Ellipsis, *idx)], want)
        assert reads == [distinct] * 3
    assert np.array_equal(comps.values_at(taus)[:, 0, 1], np.full(11, np.pi))
    assert np.array_equal(comps.values_at(taus)[:, 1, 0], np.full(11, -np.pi))


def test_rank_hierarchy():
    dims = [
        component_rank("electric_dipole_mod_gauge"),
        component_rank("dipole"),
        component_rank("electric_quadrupole_mod_gauge"),
        component_rank("quadrupole"),
    ]
    assert dims == sorted(dims) == [3, 6, 12, 20]


def test_quadrupole_basis_constraints():
    for b in quadrupole_basis():
        assert np.max(np.abs(b - b.transpose(0, 2, 1))) < 1e-12
        cyc = b + b.transpose(1, 2, 0) + b.transpose(2, 0, 1)
        assert np.max(np.abs(cyc)) < 1e-12


def test_projector_matches_a_basis_built_outside_polekit():
    """perfbench/inputs.py builds the quadrupole null basis with its own
    numpy code; both span the same space.  The dipole constraint leaves
    the 6 antisymmetric directions."""
    spec = importlib.util.spec_from_file_location(
        "inputs", Path(__file__).parent.parent / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    B = inputs.quadrupole_null_basis().reshape(20, 64)
    assert np.max(np.abs(B.T @ B - symmetry_projector())) <= 1e-12
    dipoles = _null_space("antisymmetric", 2).reshape(-1, 4, 4)
    assert len(dipoles) == 6
    assert np.max(np.abs(dipoles + dipoles.transpose(0, 2, 1))) <= 1e-15


def test_unknown_rank_kind():
    with pytest.raises(DomainError):
        component_rank("sextupole")


# -- adapted-coordinate dictionary -------------------------------------------


def test_zeta_requires_adapted_worldline(rng):
    C = Worldline.static_at((1.0, 0.0, 0.0), (0.0, 2.0))
    with pytest.raises(DomainError):
        zeta_from_gamma(Monopole(0.0), random_quadrupole(rng), C)


def test_zero_zeta_with_charge_is_monopole_only(adapted_worldline):
    charge = 2.0 * np.eye(40)[0]
    weights = np.zeros((3, 40, 40))
    weights[0] = np.eye(40)
    z = AdaptedCoefficients(
        (lambda taus: np.broadcast_to(charge, (len(taus), 40)), None, None),
        weights, adapted_worldline.interval)
    m, q = gamma_from_zeta(z)
    assert m.q == 2.0
    assert np.max(np.abs(q.values_at(np.array([1.0]))[0])) == 0.0


def test_zeta_of_valid_quadrupole_is_closed(rng, adapted_worldline):
    q = random_quadrupole(rng)
    z = zeta_from_gamma(Monopole(1.2), q, adapted_worldline)
    ok, residuals = z.is_closed()
    assert ok, residuals


def test_closedness_reads_each_field_once_per_taus(rng, adapted_worldline):
    """The coefficients are read entry by entry; each component field is
    evaluated at most once per distinct array of taus."""
    q = random_quadrupole(rng)
    calls = {k: [] for k in range(3)}

    def counted(k, field):
        def f(taus):
            calls[k].append(taus.tobytes())
            return field(taus)

        return f

    fields = [counted(k, field) for k, field in enumerate(q._arrays)]
    counted_q = QuadrupoleComponents(*fields, zero=q.zero)
    z = zeta_from_gamma(Monopole(1.2), counted_q, adapted_worldline)
    ok, residuals = z.is_closed()
    assert ok, residuals
    for k, seen in calls.items():
        assert seen, k
        assert len(seen) == len(set(seen)), (k, len(seen))


def test_coefficient_derivatives_are_exact_or_unavailable(
        rng, adapted_worldline):
    """Coefficient derivatives come from the component derivatives; the
    tau derivative of ``zeroth`` would need a third derivative of gamma,
    so reading it raises instead of returning a stand-in."""
    q = random_quadrupole(rng)
    z = zeta_from_gamma(Monopole(1.2), q, adapted_worldline)
    taus = np.linspace(0.5, 3.5, 7)
    g2 = q._arrays[2](taus)
    dfirst_0, zeroth, dcharge = z.arrays(
        taus, ("first_0", 1), "zeroth", ("charge", 1))
    assert np.array_equal(dfirst_0, 0.5 * g2[:, 1:, 0, 0])
    assert np.array_equal(zeroth, 0.5 * g2[:, 1:, 0, 0])
    assert np.array_equal(dcharge, np.zeros(7))
    with pytest.raises(DerivativeUnavailable):
        z.arrays(taus, ("zeroth", 1))
    with pytest.raises(DerivativeUnavailable):
        z.arrays(np.ones(1), ("zeroth", 1))
    # without second derivatives of gamma, zeroth itself is unavailable
    q1 = QuadrupoleComponents(*q._arrays[:2], zero=q.zero)
    z1 = zeta_from_gamma(Monopole(1.2), q1, adapted_worldline)
    assert z1.arrays(np.ones(1), "first")[0][0].shape == (3, 3)
    with pytest.raises(DerivativeUnavailable):
        z1.arrays(taus, "zeroth")


def test_zeta_round_trip(rng, adapted_worldline):
    C = adapted_worldline
    q = random_quadrupole(rng)
    m = Monopole(-0.7)
    z = zeta_from_gamma(m, q, C)
    t0 = C.interval[0]
    g0 = q.values_at(np.array([t0]))[0]
    constants = {
        "v00": [g0[mu, 0, 0] for mu in (1, 2, 3)],
        "spatial_time": [
            0.5 * (g0[n, m, 0] - g0[m, n, 0])
            for (n, m) in ((1, 2), (1, 3), (2, 3))
        ],
    }
    m2, q2 = gamma_from_zeta(z, constants=constants)
    assert m2.q == pytest.approx(m.q, abs=1e-12)
    for t in np.linspace(0.1, 3.9, 9)[:, None]:
        resid = np.max(np.abs(q.values_at(t) - q2.values_at(t)))
        assert resid <= 1e-10


def test_zeta_distributional_cross_check(rng, adapted_worldline):
    """The coefficient dictionary is validated distributionally: the
    adapted-basis pairing equals the bundle pairing."""
    C = adapted_worldline
    q = random_quadrupole(rng)
    m = Monopole(1.7)
    z = zeta_from_gamma(m, q, C)
    for _ in range(3):
        form = random_test_form_along(rng, C)
        direct = (
            pair_quadrupole(q, C, form).value
            + pair_monopole(m, C, form).value
        )
        viaz = pair_adapted_coefficients(z, C, form).value
        assert abs(direct - viaz) <= 1e-9 * max(1.0, abs(direct))


def test_worked_example_in_adapted_frame(rng):
    """The cylindrical example transported to Cartesian and recentred on
    the origin shows the +/- kappa first-derivative coefficient pattern
    in the (1, 2) slots."""
    from polekit.charts import cylindrical_to_cartesian_chart, linear_chart
    from polekit.transport import transform_quadrupole

    kappa = 1.0
    Q = QuadrupoleComponents.from_dict({
        (2, 1, 1): ex.const(2 * kappa),
        (1, 2, 1): ex.const(-kappa),
        (1, 1, 2): ex.const(-kappa),
    })
    C = Worldline.static_at((1.0, 0.0, 0.0), (0.0, 10.0))
    tr = transform_quadrupole(Q, cylindrical_to_cartesian_chart(), C)
    # recentre: shift x -> x - 1 so the image worldline is adapted
    shift = linear_chart(np.eye(4))
    comps = (ex.Var(0), ex.sub(ex.Var(1), ex.const(1.0)), ex.Var(2),
             ex.Var(3))
    from polekit.charts import Chart

    recentre = Chart(comps, "recentre")
    tr2 = transform_quadrupole(
        tr.gamma3_hat, recentre, tr.worldline_hat
    )
    C_adapted = tr.worldline_hat.push_through_chart(recentre)
    assert C_adapted.is_adapted()
    z = zeta_from_gamma(Monopole(0.0), tr2.gamma3_hat, C_adapted)
    t = 5.0
    first = z.arrays(np.array([t]), "first")[0][0]
    assert first[0, 1] == pytest.approx(kappa, abs=1e-9)
    assert first[1, 0] == pytest.approx(-kappa, abs=1e-9)


def test_non_finite_value_is_named_before_any_residual():
    """Both symmetry checks name the first entry that is not finite and
    its tau, before a residual is formed (so no warning comes first)."""

    def inf_at(idx):
        def values(taus):
            out = np.zeros((len(taus),) + (4,) * len(idx))
            out[(slice(None),) + idx] = np.inf
            return out

        return values

    with pytest.raises(SymmetryError,
                       match=r"^gamma\(1, 2\) is not finite at tau=-1.0$"):
        DipoleComponents(inf_at((1, 2))).check(TAUS, 1e-12)
    with pytest.raises(SymmetryError) as err:
        QuadrupoleComponents(inf_at((2, 1, 1))).check(TAUS, 1e-12)
    assert str(err.value) == "gamma(2, 1, 1) is not finite at tau=-1.0"
    assert (err.value.index, err.value.tau) == ((2, 1, 1), -1.0)


def test_electric_dipole_derivative_matches_central_differences(
        wobble_worldline):
    """The product rule of the velocity product (acceleration times w
    plus velocity times dw/dtau) agrees with central differences."""
    w = [ex.parse("0.3*tau", ex.TAU_VARS), ex.Const(1.0),
         ex.parse("sin(tau)", ex.TAU_VARS), ex.parse("tau^2", ex.TAU_VARS)]
    d = make_electric_dipole(w, wobble_worldline)
    taus = np.linspace(0.5, 5.5, 7)
    exact = d.derivs_at(taus)
    fd = central_difference(d, taus)
    assert np.max(np.abs(exact - fd)) <= 1e-6 * np.max(np.abs(exact))


def test_static_dipole_derivatives_are_zero():
    d = make_static_dipole([0.3, -1.0, 2.0], [0.5, 0.0, -0.7])
    taus = np.array([0.0, 1.5, 4.0])
    assert d.derivs_at(taus).shape == (3, 4, 4)
    assert not np.any(d.derivs_at(taus))
    assert np.array_equal(central_difference(d, taus), np.zeros((3, 4, 4)))
