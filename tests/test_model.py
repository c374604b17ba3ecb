"""Parameter records, thermal quantities, and the initial-state family."""

from __future__ import annotations

import cmath
import copy
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (family_x, mp_boundary_margin, mp_min_eigenvalue,
                     random_density_matrix, random_density_x)
from tlspurify.model import (BOUNDARY_RTOL, OFFDIAG_SLOTS, DensityState,
                             InitialStateSpec, ModelParams, ParamError,
                             build_initial_state, is_physical, matrix_to_x,
                             min_eigenvalue, mu_max, x_to_matrix, xi_max)
from tlspurify.optimal import pole_gains
from tlspurify.reduced import x_to_z, z_purity, z_states_at

# Frozen reference values, all recomputed from their printed closed forms.
A_Q_BETA1 = 0.7310585786300049       # 1/(1 + e^-1)
A_TLS_BETA1 = 0.9525741268224334     # 1/(1 + e^-3)
XI_MAX_BETA1 = 0.09424579782190404   # sqrt(a_q b_q a_t b_t) at beta = 1
MU_MAX_UNCORR = 0.44340944198503696  # sqrt(a_q b_q) at beta = 1
GAMMA_BETA01 = 0.6716591827020164    # 0.1 * (2/expm1(0.3) + 1)

#: the constants ModelParams derives from its five parameters
DERIVED = ("a_q", "b_q", "a_t", "b_t", "pol_gap", "n_occ", "gamma1",
           "gamma2", "gamma", "eta", "t0")


def derived(p: ModelParams) -> tuple[float, ...]:
    return tuple(getattr(p, name) for name in DERIVED)


def derived_by_hand(omega_q, omega_tls, beta, J, kappa) -> tuple[float, ...]:
    """The derived constants from their defining expressions, in the
    order the rates are built: populations a = 1/(1 + e^{-beta omega}),
    b = 1 - a, the polarization gap (a_t - a_q)/2, the occupation
    n = e^{-x}/(1 - e^{-x}) at x = beta omega_tls, gamma1 = kappa (n + 1),
    gamma2 = kappa n, gamma their sum, eta = gamma1/gamma - 1/2
    (a_t - 1/2 at gamma = 0) and t0 = pi/(2J) (inf at J = 0)."""
    a_q = 1.0 / (1.0 + math.exp(-beta * omega_q))
    b_q = 1.0 - a_q
    a_t = 1.0 / (1.0 + math.exp(-beta * omega_tls))
    b_t = 1.0 - a_t
    pol_gap = 0.5 * (a_t - a_q)
    x = beta * omega_tls
    n = math.exp(-x) / -math.expm1(-x)
    gamma1 = kappa * (n + 1.0)
    gamma2 = kappa * n
    gamma = gamma1 + gamma2
    if gamma > 0.0:
        eta = gamma1 / gamma - 0.5
    else:
        eta = a_t - 0.5
    t0 = math.inf if J == 0.0 else math.pi / (2.0 * J)
    return a_q, b_q, a_t, b_t, pol_gap, n, gamma1, gamma2, gamma, eta, t0


# ====================================================================
# Thermal populations and bath rates
# ====================================================================

def test_thermal_populations_closed_form():
    p = ModelParams()
    assert p.a_q == pytest.approx(A_Q_BETA1, abs=1e-15)
    assert p.a_q + p.b_q == pytest.approx(1.0, abs=1e-15)
    assert p.a_t == pytest.approx(A_TLS_BETA1, abs=1e-15)
    assert p.a_t + p.b_t == pytest.approx(1.0, abs=1e-15)
    assert p.pol_gap == pytest.approx(0.5 * (A_TLS_BETA1 - A_Q_BETA1),
                                      abs=1e-15)


def test_bath_detailed_balance():
    r = ModelParams(kappa=0.1)
    n = 1.0 / math.expm1(3.0)
    assert r.n_occ == pytest.approx(n, rel=1e-15)
    assert r.gamma1 == pytest.approx(0.1 * (n + 1.0), rel=1e-15)
    assert r.gamma2 == pytest.approx(0.1 * n, rel=1e-15)
    assert r.gamma == pytest.approx(r.gamma1 + r.gamma2, rel=1e-15)
    # detailed balance: absorption/emission = Boltzmann factor
    assert r.gamma2 / r.gamma1 == pytest.approx(math.exp(-3.0), rel=1e-12)


def test_bath_eta_identity():
    # eta = gamma1/gamma - 1/2 coincides with a_tls - 1/2, with or
    # without an actual bath rate
    for kappa in (0.3, 0.0):
        r = ModelParams(kappa=kappa)
        assert r.eta == pytest.approx(A_TLS_BETA1 - 0.5, abs=1e-14)


def test_bath_frozen_value():
    assert ModelParams(beta=0.1, kappa=0.1).gamma == pytest.approx(
        GAMMA_BETA01, rel=1e-14)


def test_bath_rates_validation():
    """The ranges the bath rates need (kappa, omega_tls, beta) are
    refused by name."""
    for bad in ({"kappa": -1e-3}, {"omega_tls": -3.0}, {"beta": 0.0}):
        with pytest.raises(ParamError) as exc:
            ModelParams(**bad)
        assert exc.value.name == list(bad)[-1]


def test_bath_occupation_cold_limit():
    """n_occ falls to 0 in the cold limit instead of overflowing, and
    keeps its closed form where 1/expm1 is fine."""
    def n_occ(beta):
        return ModelParams(beta=beta).n_occ

    assert n_occ(1.0) == pytest.approx(1.0 / math.expm1(3.0), rel=1e-15)
    assert n_occ(1e-3) == pytest.approx(1.0 / math.expm1(3e-3), rel=1e-14)
    assert 0.0 < n_occ(100.0) < 1e-130
    assert n_occ(1000.0) == 0.0
    cold = ModelParams(beta=1000.0, kappa=0.1)
    assert (cold.gamma1, cold.gamma2, cold.eta) == (0.1, 0.0, 0.5)
    p = ModelParams(beta=1000.0).with_gamma(0.2)
    assert p.kappa == 0.2
    assert p.gamma == 0.2


# ====================================================================
# ModelParams
# ====================================================================

def test_model_params_validation():
    """Each parameter out of its range is refused by name."""
    for bad in ({"omega_q": 0.0}, {"omega_q": 3.0, "omega_tls": 3.0},
                {"J": -0.1}):
        with pytest.raises(ParamError) as exc:
            ModelParams(**bad)
        assert exc.value.name == list(bad)[-1]


def test_model_params_derived():
    p = ModelParams(kappa=0.1)
    assert p.t0 == pytest.approx(math.pi / 0.2, rel=1e-15)
    assert p.gamma == p.gamma1 + p.gamma2
    assert p.eta == pytest.approx(A_TLS_BETA1 - 0.5, abs=1e-14)
    assert (p.a_q, p.a_t) == (A_Q_BETA1, A_TLS_BETA1)
    assert ModelParams(J=0.0).t0 == math.inf


def test_model_params_is_an_immutable_value():
    """Equal and hashed by value, shown with every parameter, and closed
    to assignment, derived constants included; keyword and positional
    construction agree."""
    p = ModelParams(J=0.2, kappa=0.1)
    q = ModelParams(1.0, 3.0, 1.0, 0.2, 0.1)
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p != ModelParams(J=0.2, kappa=0.2)
    assert p != (1.0, 3.0, 1.0, 0.2, 0.1)
    assert repr(p) == ("ModelParams(omega_q=1.0, omega_tls=3.0, beta=1.0, "
                       "J=0.2, kappa=0.1)")
    assert ModelParams() == ModelParams(1.0, 3.0, 1.0, 0.1, 0.0)
    assert pickle.loads(pickle.dumps(p)) == p == copy.deepcopy(p)
    assert p.__reduce__() == (ModelParams, (1.0, 3.0, 1.0, 0.2, 0.1))
    with pytest.raises(AttributeError):
        p.J = 0.3
    with pytest.raises(AttributeError):
        p.gamma = None
    with pytest.raises(AttributeError):
        del p.kappa
    with pytest.raises(AttributeError):
        del p.t0
    with pytest.raises(TypeError):
        ModelParams(gamma=0.1)


def test_model_params_replace_checks_again():
    """replace changes the named parameters, keeps the rest, derives the
    constants again, and runs the range checks of a new object."""
    p = ModelParams(kappa=0.1)
    q = p.replace(beta=0.5, J=0.3)
    assert q == ModelParams(beta=0.5, J=0.3, kappa=0.1)
    assert derived(q) == derived_by_hand(1.0, 3.0, 0.5, 0.3, 0.1)
    assert p.replace() == p and p.replace() is not p
    assert derived(p) == derived_by_hand(1.0, 3.0, 1.0, 0.1, 0.1)
    for bad in ({"beta": 0.0}, {"omega_tls": 0.5}, {"J": -1.0},
                {"kappa": math.nan}):
        with pytest.raises(ParamError) as exc:
            p.replace(**bad)
        assert exc.value.name == next(iter(bad))
    with pytest.raises(TypeError):
        p.replace(gamma=0.1)


#: beta * omega_tls at the smallest normal float
EDGE_BETA = sys.float_info.min / 0.1


@settings(max_examples=200, deadline=None)
@given(omega_q=st.floats(1e-3, 10.0),
       gap=st.floats(1e-3, 10.0),
       beta=st.one_of(st.floats(1e-6, 100.0), st.just(40.0)),
       J=st.one_of(st.just(0.0), st.floats(1e-12, 1.0)),
       kappa=st.one_of(st.just(0.0), st.floats(1e-12, 1.0)),
       gamma=st.floats(0.0, 1.0))
@example(omega_q=1.0, gap=2.0, beta=40.0, J=0.1, kappa=0.1, gamma=0.2)
@example(omega_q=1.0, gap=2.0, beta=1.0, J=0.0, kappa=0.0, gamma=0.0)
@example(omega_q=0.05, gap=1.0, beta=EDGE_BETA, J=0.1, kappa=0.1, gamma=0.3)
@example(omega_q=0.05, gap=1.0, beta=EDGE_BETA, J=0.0, kappa=0.0, gamma=0.0)
def test_model_params_rates_are_computed_once(omega_q, gap, beta, J, kappa,
                                              gamma):
    """The constructor derives each constant once, bit for bit by its
    defining expression, at any parameters it accepts: kappa = 0, J = 0,
    the cold bath of beta = 40, and beta * omega_tls at the smallest
    normal float.  replace, with_gamma and a pickle round trip derive
    them again."""
    omega_tls = omega_q * (1.0 + gap)
    assume(beta * omega_tls >= sys.float_info.min)
    p = ModelParams(omega_q, omega_tls, beta, J, kappa)
    assert (p.omega_q, p.omega_tls, p.beta, p.J, p.kappa) == (
        omega_q, omega_tls, beta, J, kappa)
    assert derived(p) == derived_by_hand(omega_q, omega_tls, beta, J, kappa)
    assert all(not math.isnan(x) for x in derived(p))
    q = p.replace(beta=2.0 * beta, J=0.5 * J)
    assert derived(q) == derived_by_hand(omega_q, omega_tls, 2.0 * beta,
                                         0.5 * J, kappa)
    g = p.with_gamma(gamma)
    assert derived(g) == derived_by_hand(omega_q, omega_tls, beta, J,
                                         g.kappa)
    back = pickle.loads(pickle.dumps(p))
    assert back == p and derived(back) == derived(p)


def test_a_beta_with_no_bath_occupation_is_refused_by_name():
    """A beta whose bath occupation has no float value is refused where
    the model is built, from beta * omega_tls alone; the smallest normal
    product still has finite rates."""
    for beta in (5e-324, 1e-310):
        with pytest.raises(ParamError) as exc:
            ModelParams(beta=beta, omega_q=0.05, omega_tls=0.1)
        assert exc.value.name == "beta"
    edge = ModelParams(beta=EDGE_BETA, omega_q=0.05, omega_tls=0.1,
                       kappa=0.1)
    assert math.isfinite(edge.gamma)


def test_with_gamma_round_trip():
    p = ModelParams().with_gamma(0.2)
    assert p.gamma == pytest.approx(0.2, rel=1e-14)
    q = ModelParams().with_gamma_over_j(3.5)
    assert q.gamma / q.J == pytest.approx(3.5, rel=1e-14)
    with pytest.raises(ValueError):
        ModelParams().with_gamma(-0.1)


# ====================================================================
# Coordinate packing
# ====================================================================

def test_offdiag_slot_layout():
    x = np.zeros(16)
    x[:4] = (0.1, 0.2, 0.3, 0.4)
    x[10], x[11] = 0.03, -0.04
    rho = x_to_matrix(x)
    assert np.allclose(np.diagonal(rho), [0.1, 0.2, 0.3, 0.4])
    assert rho[1, 2] == pytest.approx(0.03 - 0.04j)
    assert rho[2, 1] == pytest.approx(0.03 + 0.04j)
    # every slot pair sits on its documented entry
    for (i, j), (re, im) in OFFDIAG_SLOTS.items():
        y = np.zeros(16)
        y[re], y[im] = 0.5, 0.25
        m = x_to_matrix(y)
        assert m[i, j] == pytest.approx(0.5 + 0.25j)


def test_matrix_round_trip(rng):
    for _ in range(10):
        x = random_density_x(rng)
        assert np.abs(matrix_to_x(x_to_matrix(x)) - x).max() < 1e-14


def test_matrix_to_x_rejects_bad_input(rng):
    rho = random_density_matrix(rng)
    rho[0, 1] += 1e-6          # break Hermiticity beyond the tolerance
    with pytest.raises(ValueError):
        matrix_to_x(rho)
    with pytest.raises(ValueError):
        matrix_to_x(np.eye(3))


def _x_to_matrix_loop(x):
    """x_to_matrix entry by entry, the reference of the index arrays."""
    rho = np.zeros((4, 4), dtype=complex)
    for k in range(4):
        rho[k, k] = x[k]
    for (i, j), (re, im) in OFFDIAG_SLOTS.items():
        rho[i, j] = complex(x[re], x[im])
        rho[j, i] = complex(x[re], -x[im])
    return rho


def _matrix_to_x_loop(rho):
    """matrix_to_x entry by entry, the reference of the index arrays."""
    x = np.zeros(16)
    for k in range(4):
        x[k] = rho[k, k].real
    for (i, j), (re, im) in OFFDIAG_SLOTS.items():
        val = 0.5 * (rho[i, j] + rho[j, i].conjugate())
        x[re], x[im] = val.real, val.imag
    return x


def test_stacks_convert_as_their_rows(rng):
    """On a stack, x_to_matrix, matrix_to_x and min_eigenvalue return bit
    for bit what they return row by row, and what the entry-by-entry
    loops return (signed zeros included: the stack holds the 16 unit
    vectors); one non-Hermitian member fails the stack."""
    xs = np.concatenate([np.eye(16), -np.eye(16),
                         [random_density_x(rng) for _ in range(4)]])
    rhos = x_to_matrix(xs.reshape(3, 12, 16))
    assert rhos.shape == (3, 12, 4, 4)
    rows = np.array([x_to_matrix(x) for x in xs])
    assert rhos.reshape(rows.shape).tobytes() == rows.tobytes()
    assert rows.tobytes() == np.array(
        [_x_to_matrix_loop(x) for x in xs]).tobytes()
    # matrices from A A^dag are Hermitian only to roundoff, so the
    # averaging of the Hermitian partners shows in the last bits
    ms = np.array([random_density_matrix(rng) for _ in range(4)])
    ms = np.concatenate([rows[:32], ms]).reshape(3, 12, 4, 4)
    back = matrix_to_x(ms)
    assert back.shape == (3, 12, 16)
    flat = ms.reshape(-1, 4, 4)
    assert back.tobytes() == np.array(
        [matrix_to_x(m) for m in flat]).tobytes()
    assert back.tobytes() == np.array(
        [_matrix_to_x_loop(m) for m in flat]).tobytes()
    assert min_eigenvalue(back) == min(min_eigenvalue(x)
                                       for x in back.reshape(-1, 16))
    bad = ms.copy()
    bad[2, 5, 0, 1] += 1e-6    # one member beyond the tolerance
    with pytest.raises(ValueError, match="not Hermitian"):
        matrix_to_x(bad)
    with pytest.raises(ValueError, match="4x4"):
        matrix_to_x(np.zeros((3, 3)))


def test_min_eigenvalue_matches_eigvalsh(rng):
    for _ in range(5):
        rho = random_density_matrix(rng)
        lam = np.linalg.eigvalsh(rho)[0]
        assert min_eigenvalue(matrix_to_x(rho)) == pytest.approx(
            float(lam), abs=1e-12)


def test_density_state_container(rng):
    rho = random_density_matrix(rng)
    st_ = DensityState(matrix_to_x(rho))
    assert st_.x[:4].sum() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(x_to_matrix(st_.x) - rho).max() < 1e-12
    assert min_eigenvalue(st_.x) > 0.0       # full rank by construction
    with pytest.raises(ValueError):
        DensityState(np.zeros(15))


# ====================================================================
# Initial-state family
# ====================================================================

def test_initial_state_product_structure(params_bath):
    st_ = build_initial_state(params_bath, InitialStateSpec())
    a_q, b_q = params_bath.a_q, params_bath.b_q
    a_t, b_t = params_bath.a_t, params_bath.b_t
    expected = np.kron(np.diag([a_q, b_q]), np.diag([a_t, b_t]))
    assert np.abs(x_to_matrix(st_.x) - expected).max() < 1e-15


def test_initial_state_coherence_slots(params_bath):
    spec = InitialStateSpec(mu_q=0.05, nu_q=-0.02, xi_re=0.03, xi_im=0.01)
    rho = x_to_matrix(build_initial_state(params_bath, spec).x)
    a_t, b_t = params_bath.a_t, params_bath.b_t
    coh = 0.05 - 0.02j
    assert rho[0, 2] == pytest.approx(coh * a_t, abs=1e-15)
    assert rho[1, 3] == pytest.approx(coh * b_t, abs=1e-15)
    # the cross coherence enters as i*xi on the (|01>, |10>) entry
    assert rho[1, 2] == pytest.approx(1.0j * (0.03 + 0.01j), abs=1e-15)


def test_initial_state_rejects_unphysical(params_bath):
    with pytest.raises(ValueError):
        build_initial_state(params_bath, InitialStateSpec(mu_q=0.49))
    with pytest.raises(ValueError):
        build_initial_state(
            params_bath, InitialStateSpec(xi_re=1.05 * xi_max(params_bath)))


def test_xi_max_closed_form(params_bath):
    val = xi_max(params_bath)
    assert val == pytest.approx(XI_MAX_BETA1, abs=1e-14)
    # the ceiling really is the positivity boundary
    at_edge = build_initial_state(params_bath, InitialStateSpec(xi_re=val))
    assert min_eigenvalue(at_edge.x) > -1e-10


def test_mu_max_uncorrelated(params_bath):
    # the closed form sqrt(a_q b_q), to a few ulps
    assert mu_max(params_bath, 0.0) == pytest.approx(MU_MAX_UNCORR,
                                                     rel=4e-16, abs=0.0)


def test_mu_max_shrinks_with_correlation(params_bath):
    caps = [mu_max(params_bath, f * xi_max(params_bath))
            for f in (0.0, 0.4, 0.8, 1.0)]
    assert all(a > b for a, b in zip(caps, caps[1:]))
    assert caps[-1] < 1e-4      # the ceiling pinches off at full correlation


def test_mu_max_infeasible_raises(params_bath):
    with pytest.raises(ValueError):
        mu_max(params_bath, 1.2 * xi_max(params_bath))


@settings(max_examples=25, deadline=None)
@given(xi_frac=st.floats(0.0, 0.95), mu_frac=st.floats(0.0, 0.95),
       phase=st.floats(0.0, 2.0 * math.pi))
def test_family_states_are_physical(xi_frac, mu_frac, phase):
    """Any state drawn inside the advertised ceilings is a density matrix."""
    params = ModelParams(kappa=0.1)
    xi = xi_frac * xi_max(params) * complex(math.cos(phase), math.sin(phase))
    mu = mu_frac * mu_max(params, xi)
    st_ = build_initial_state(
        params, InitialStateSpec(mu_q=mu, xi_re=xi.real, xi_im=xi.imag))
    assert st_.x[:4].sum() == pytest.approx(1.0, abs=1e-12)
    assert min_eigenvalue(st_.x) >= -1e-10
    rho = x_to_matrix(st_.x)
    assert np.abs(rho - rho.conj().T).max() < 1e-14


def test_mu_max_closed_form_and_cold_limit():
    """mu_max is sqrt(a_q b_q (1 - |xi|/xi_max)): 0 at xi = xi_max, and
    in the cold limit (a population that rounds to 0, so xi_max = 0) it
    is sqrt(a_q b_q) at xi = 0 and refused at any other xi."""
    p = ModelParams(kappa=0.1)
    cap = xi_max(p)
    assert mu_max(p, cap) == 0.0
    assert mu_max(p, 0.75 * cap) == pytest.approx(0.5 * MU_MAX_UNCORR,
                                                  rel=4e-16, abs=0.0)
    assert mu_max(p, 0.5j * cap) == mu_max(p, 0.5 * cap)
    cold_qubit = ModelParams(beta=40.0, kappa=0.1)      # b_q rounds to 0
    assert xi_max(cold_qubit) == 0.0
    assert mu_max(cold_qubit, 0.0) == 0.0
    cold_defect = ModelParams(beta=13.0, kappa=0.1)     # b_t rounds to 0
    a_q, b_q = cold_defect.a_q, cold_defect.b_q
    assert xi_max(cold_defect) == 0.0
    assert mu_max(cold_defect, 0.0) == math.sqrt(a_q * b_q)
    for p in (cold_qubit, cold_defect):
        with pytest.raises(ValueError):
            mu_max(p, 1e-300)


@settings(max_examples=60, deadline=None)
# the cold limit: xi_max = mu_max = 0, and the ceiling's one ulp above is
# the smallest subnormal
@example(beta=40.0, xi_fracs=[0.5], mu_fracs=[0.5])
@given(beta=st.floats(0.05, 40.0),
       xi_fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
       mu_fracs=st.lists(st.floats(0.0, 1.2), min_size=1, max_size=5))
def test_array_starts_equal_scalar_starts(beta, xi_fracs, mu_fracs):
    """is_physical, mu_max and build_initial_state on arrays give, bit
    for bit, the stack of their scalar calls.  The grid: xi = 0, xi_max
    and random fractions of it; per xi, mu at mu_max(xi), one ulp above
    it and random fractions of it.  pole_gains on a row equals the
    reduced states of the row's scalar starts, stacked into one
    z_states_at product as pole_gains makes it (a product of one row may
    differ from the same row of a larger product in its last bit)."""
    p = ModelParams(beta=beta, kappa=0.1)
    xis = np.array([0.0, 1.0, *xi_fracs]) * xi_max(p)
    caps = mu_max(p, xis)
    assert caps.tobytes() == np.array([mu_max(p, xi)
                                       for xi in xis.tolist()]).tobytes()
    mus = np.column_stack([caps, np.nextafter(caps, 1.0),
                           np.outer(caps, mu_fracs)])
    inside = is_physical(p, mus, xis[:, None])
    assert inside.tolist() == [[is_physical(p, mu, xi) for mu in row]
                               for row, xi in zip(mus.tolist(), xis.tolist())]
    assert inside[:, 0].all()
    xi_grid = np.broadcast_to(xis[:, None], mus.shape)
    starts = build_initial_state(p, InitialStateSpec(
        mu_q=mus[inside], xi_re=xi_grid[inside])).x
    one_by_one = [build_initial_state(p, InitialStateSpec(
        mu_q=mu, xi_re=xi)).x for mu, xi in zip(mus[inside].tolist(),
                                                  xi_grid[inside].tolist())]
    assert starts.tobytes() == np.array(one_by_one).tobytes()
    for xi, row, ok in zip(xis.tolist(), mus, inside):
        row = row[ok]
        z0s = [x_to_z(build_initial_state(p, InitialStateSpec(
            mu_q=mu, xi_re=xi)).x) for mu in row.tolist()]
        gains = pole_gains(p, xi, row, p.t0)
        zf = z_states_at(p, np.array(z0s), p.t0)
        p_pole, p_s1 = z_purity(zf), 0.5 + 2.0 * zf[:, 0] ** 2
        assert gains.tobytes() == np.column_stack(
            [p_pole / p_s1 - 1.0, p_pole, p_s1]).tobytes()


def test_on_boundary_starts_are_physical(params_bath):
    """A start on the boundary analytically stays physical through the
    roundoff of its coordinates; one BOUNDARY_RTOL past it in |mu|^2
    (times ten) is refused."""
    p = params_bath
    for frac in (0.0, 0.25, 0.75, 1.0):
        xi = frac * xi_max(p)
        cap = mu_max(p, xi)
        assert is_physical(p, cap, xi)
        build_initial_state(p, InitialStateSpec(mu_q=cap, xi_re=xi))
        over = math.sqrt(cap ** 2 + 10.0 * BOUNDARY_RTOL * MU_MAX_UNCORR ** 2)
        assert not is_physical(p, over, xi)
        with pytest.raises(ValueError, match="not positive"):
            build_initial_state(p, InitialStateSpec(mu_q=over, xi_re=xi))


@pytest.mark.parametrize("xi_frac", [0.0, 0.5])
def test_a_start_just_past_a_cold_ceiling_is_unphysical(xi_frac):
    """At beta = 10, a start 1e-10 Q past the ceiling in |mu|^2
    (Q = a_q b_q) is refused, at xi = 0 and at xi_max/2: the verdict's
    allowance is far below that."""
    p = ModelParams(beta=10.0, kappa=0.1)
    a_q, b_q = p.a_q, p.b_q
    xi = xi_frac * xi_max(p)
    over = math.sqrt(mu_max(p, xi) ** 2 + 1e-10 * a_q * b_q)
    assert not is_physical(p, over, xi)
    with pytest.raises(ValueError, match="not positive"):
        build_initial_state(p, InitialStateSpec(mu_q=over, xi_re=xi))


#: half-width of the band around the positivity boundary, in the margin
#: (a_q b_q (1 - |xi|/xi_max) - |m|^2) / (a_q b_q), inside which the
#: verdict is not held to the exact eigenvalue: ten times BOUNDARY_RTOL
BOUNDARY_BAND = 10.0 * BOUNDARY_RTOL

#: an exact eigenvalue above this counts as >= 0: the 50-digit solve of
#: entries of order 1 is good to about 1e-50, and the negative eigenvalues
#: outside the band are far larger in size (the smallest of 4,000 random
#: draws was -1.9e-20)
MP_ZERO = 1e-45


@settings(max_examples=200, deadline=None)
# starts that an eigenvalue test against an absolute 1e-10, with mu_max
# bisected on it, let through: 1.27 and 1.8 times the exact ceiling of a
# cold bath, and 1 + 1.3e-10 times it at the default beta (drawn as
# fractions of that mu_max; here they lie inside the boundary)
@example(beta=10.0, xi_frac=0.5, xi_arg=0.0, m_frac=0.9, m_arg=0.0)
@example(beta=7.0, xi_frac=0.99, xi_arg=1.0, m_frac=0.5, m_arg=2.0)
@example(beta=1.0, xi_frac=0.0, xi_arg=0.0, m_frac=1.0 - 1e-10, m_arg=0.0)
@given(beta=st.floats(0.05, 20.0), xi_frac=st.floats(0.0, 1.1),
       xi_arg=st.floats(0.0, 2.0 * math.pi), m_frac=st.floats(0.0, 1.5),
       m_arg=st.floats(0.0, 2.0 * math.pi))
def test_positivity_verdict_matches_mpmath(beta, xi_frac, xi_arg, m_frac,
                                           m_arg):
    """build_initial_state accepts a start iff its exact smallest
    eigenvalue (mpmath, 50 digits, of the float entries) is >= 0, outside
    BOUNDARY_BAND around the boundary.  |m| is drawn as a fraction of
    mu_max(xi), or of mu_max(0) past xi_max; phases of both are free."""
    p = ModelParams(beta=beta, kappa=0.1)
    xi = xi_frac * xi_max(p) * cmath.exp(1j * xi_arg)
    ceiling = mu_max(p, xi if xi_frac <= 1.0 else 0.0)
    m = m_frac * ceiling * cmath.exp(1j * m_arg)
    margin = mp_boundary_margin(p, m, xi)
    assume(abs(margin) > BOUNDARY_BAND)
    positive = mp_min_eigenvalue(family_x(p, m, xi)) > -MP_ZERO
    assert positive == (margin > 0)
    try:
        build_initial_state(p, InitialStateSpec(
            mu_q=m.real, nu_q=m.imag, xi_re=xi.real, xi_im=xi.imag))
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == positive
    assert is_physical(p, m, xi) == positive
