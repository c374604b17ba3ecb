"""Parameter records, thermal quantities, and the initial-state family."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_density_matrix, random_density_x
from tlspurify.model import (OFFDIAG_SLOTS, DensityState, InitialStateSpec,
                             ModelParams, bath_rates, bose_occupation,
                             build_initial_state, matrix_to_x,
                             min_eigenvalue, mu_max, thermal_populations,
                             x_to_matrix, xi_max)

# Frozen reference values, all recomputed from their printed closed forms.
A_Q_BETA1 = 0.7310585786300049       # 1/(1 + e^-1)
A_TLS_BETA1 = 0.9525741268224334     # 1/(1 + e^-3)
XI_MAX_BETA1 = 0.09424579782190404   # sqrt(a_q b_q a_t b_t) at beta = 1
MU_MAX_UNCORR = 0.44340944198503696  # sqrt(a_q b_q) at beta = 1
GAMMA_BETA01 = 0.6716591827020164    # 0.1 * (2/expm1(0.3) + 1)


# ====================================================================
# Thermal populations and bath rates
# ====================================================================

def test_thermal_populations_closed_form():
    a, b = thermal_populations(1.0, 1.0)
    assert a == pytest.approx(A_Q_BETA1, abs=1e-15)
    assert a + b == pytest.approx(1.0, abs=1e-15)
    a3, _ = thermal_populations(3.0, 1.0)
    assert a3 == pytest.approx(A_TLS_BETA1, abs=1e-15)
    # infinite temperature is allowed and maximally mixed
    assert thermal_populations(2.0, 0.0) == (0.5, 0.5)


def test_thermal_populations_validation():
    with pytest.raises(ValueError):
        thermal_populations(0.0, 1.0)
    with pytest.raises(ValueError):
        thermal_populations(1.0, -0.2)


def test_bath_rates_detailed_balance():
    r = bath_rates(0.1, 3.0, 1.0)
    n = 1.0 / math.expm1(3.0)
    assert r.n_occ == pytest.approx(n, rel=1e-15)
    assert r.gamma1 == pytest.approx(0.1 * (n + 1.0), rel=1e-15)
    assert r.gamma2 == pytest.approx(0.1 * n, rel=1e-15)
    assert r.gamma == pytest.approx(r.gamma1 + r.gamma2, rel=1e-15)
    # detailed balance: absorption/emission = Boltzmann factor
    assert r.gamma2 / r.gamma1 == pytest.approx(math.exp(-3.0), rel=1e-12)


def test_bath_rates_eta_identity():
    # eta = gamma1/gamma - 1/2 coincides with a_tls - 1/2, with or
    # without an actual bath rate
    for kappa in (0.3, 0.0):
        r = bath_rates(kappa, 3.0, 1.0)
        assert r.eta == pytest.approx(A_TLS_BETA1 - 0.5, abs=1e-14)


def test_bath_rates_frozen_value():
    assert bath_rates(0.1, 3.0, 0.1).gamma == pytest.approx(
        GAMMA_BETA01, rel=1e-14)


def test_bath_occupation_cold_limit():
    """n_occ falls to 0 in the cold limit instead of overflowing, and
    keeps its closed form where 1/expm1 is fine."""
    assert bose_occupation(3.0, 1.0) == pytest.approx(1.0 / math.expm1(3.0),
                                                      rel=1e-15)
    assert bose_occupation(3.0, 1e-3) == pytest.approx(
        1.0 / math.expm1(3e-3), rel=1e-14)
    assert 0.0 < bose_occupation(3.0, 100.0) < 1e-130
    assert bose_occupation(3.0, 1000.0) == 0.0
    cold = bath_rates(0.1, 3.0, 1000.0)
    assert (cold.gamma1, cold.gamma2, cold.eta) == (0.1, 0.0, 0.5)
    p = ModelParams(beta=1000.0).with_gamma(0.2)
    assert p.kappa == 0.2
    assert p.gamma == 0.2


def test_bath_rates_validation():
    with pytest.raises(ValueError):
        bath_rates(-0.1, 3.0, 1.0)
    with pytest.raises(ValueError):
        bath_rates(0.1, 3.0, 0.0)
    with pytest.raises(ValueError):
        bath_rates(0.1, -3.0, 1.0)


# ====================================================================
# ModelParams
# ====================================================================

def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(omega_q=0.0)
    with pytest.raises(ValueError):
        ModelParams(omega_q=3.0, omega_tls=3.0)
    with pytest.raises(ValueError):
        ModelParams(beta=0.0)
    with pytest.raises(ValueError):
        ModelParams(J=-0.1)
    with pytest.raises(ValueError):
        ModelParams(kappa=-1e-3)


def test_model_params_derived():
    p = ModelParams(kappa=0.1)
    assert p.t0 == pytest.approx(math.pi / 0.2, rel=1e-15)
    assert p.gamma == p.rates.gamma
    assert p.eta == pytest.approx(A_TLS_BETA1 - 0.5, abs=1e-14)
    assert ModelParams(J=0.0).t0 == math.inf


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


def test_min_eigenvalue_matches_eigvalsh(rng):
    for _ in range(5):
        rho = random_density_matrix(rng)
        lam = np.linalg.eigvalsh(rho)[0]
        assert min_eigenvalue(matrix_to_x(rho)) == pytest.approx(
            float(lam), abs=1e-12)


def test_density_state_container(rng):
    rho = random_density_matrix(rng)
    st_ = DensityState.from_matrix(rho)
    assert st_.trace == pytest.approx(1.0, abs=1e-12)
    assert np.abs(st_.to_matrix() - rho).max() < 1e-12
    assert st_.min_eigenvalue() > 0.0        # full rank by construction
    with pytest.raises(ValueError):
        DensityState(np.zeros(15))


# ====================================================================
# Initial-state family
# ====================================================================

def test_initial_state_product_structure(params_bath):
    st_ = build_initial_state(params_bath, InitialStateSpec())
    a_q, b_q = params_bath.qubit_populations
    a_t, b_t = params_bath.tls_populations
    expected = np.kron(np.diag([a_q, b_q]), np.diag([a_t, b_t]))
    assert np.abs(st_.to_matrix() - expected).max() < 1e-15


def test_initial_state_coherence_slots(params_bath):
    spec = InitialStateSpec(mu_q=0.05, nu_q=-0.02, xi_re=0.03, xi_im=0.01)
    rho = build_initial_state(params_bath, spec).to_matrix()
    a_t, b_t = params_bath.tls_populations
    coh = 0.05 - 0.02j
    assert rho[0, 2] == pytest.approx(coh * a_t, abs=1e-15)
    assert rho[1, 3] == pytest.approx(coh * b_t, abs=1e-15)
    # the cross coherence enters as i*xi on the (|01>, |10>) entry
    assert rho[1, 2] == pytest.approx(1.0j * spec.xi, abs=1e-15)


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
    assert at_edge.min_eigenvalue() > -1e-10


def test_mu_max_uncorrelated(params_bath):
    # bisection against the closed form sqrt(a_q b_q)
    assert mu_max(params_bath, 0.0) == pytest.approx(MU_MAX_UNCORR, abs=1e-8)


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
    assert st_.trace == pytest.approx(1.0, abs=1e-12)
    assert st_.min_eigenvalue() >= -1e-10
    rho = st_.to_matrix()
    assert np.abs(rho - rho.conj().T).max() < 1e-14
