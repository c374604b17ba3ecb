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
from tlspurify import model
from tlspurify.model import (BOUNDARY_RTOL, OFFDIAG_SLOTS, DensityState,
                             InitialStateSpec, ModelParams, ParamError,
                             bath_rates, bose_occupation,
                             build_initial_state, is_physical, matrix_to_x,
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


def test_model_params_is_an_immutable_value():
    """Equal and hashed by value, shown with every parameter, and closed
    to assignment; keyword and positional construction agree."""
    p = ModelParams(J=0.2, kappa=0.1)
    q = ModelParams(1.0, 3.0, 1.0, 0.2, 0.1)
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p != ModelParams(J=0.2, kappa=0.2)
    assert p != (1.0, 3.0, 1.0, 0.2, 0.1)
    assert repr(p) == ("ModelParams(omega_q=1.0, omega_tls=3.0, beta=1.0, "
                       "J=0.2, kappa=0.1)")
    assert ModelParams() == ModelParams(1.0, 3.0, 1.0, 0.1, 0.0)
    assert pickle.loads(pickle.dumps(p)) == p == copy.deepcopy(p)
    with pytest.raises(AttributeError):
        p.J = 0.3
    with pytest.raises(AttributeError):
        p.rates = None
    with pytest.raises(AttributeError):
        del p.kappa
    with pytest.raises(TypeError):
        ModelParams(gamma=0.1)


def test_model_params_replace_checks_again():
    """replace changes the named parameters, keeps the rest, recomputes
    the rates, and runs the range checks of a new object."""
    p = ModelParams(kappa=0.1)
    q = p.replace(beta=0.5, J=0.3)
    assert q == ModelParams(beta=0.5, J=0.3, kappa=0.1)
    assert q.rates == bath_rates(0.1, 3.0, 0.5)
    assert p.replace() == p and p.replace() is not p
    assert p.rates == bath_rates(0.1, 3.0, 1.0)
    for bad in ({"beta": 0.0}, {"omega_tls": 0.5}, {"J": -1.0},
                {"kappa": math.nan}):
        with pytest.raises(ParamError) as exc:
            p.replace(**bad)
        assert exc.value.name == next(iter(bad))
    with pytest.raises(TypeError):
        p.replace(gamma=0.1)


def test_model_params_rates_are_computed_once(monkeypatch):
    """The rates are computed on first read and kept.  A beta whose bath
    occupation has no float value is refused where the model is built,
    from beta * omega_tls alone: the rates are still not computed."""
    calls = []

    def counted(*args):
        calls.append(args)
        return bath_rates(*args)

    monkeypatch.setattr(model, "bath_rates", counted)
    p = ModelParams(kappa=0.1)
    assert calls == []
    assert p.rates is p.rates
    assert (p.gamma, p.eta) == (p.rates.gamma, p.rates.eta)
    assert len(calls) == 1
    for beta in (5e-324, 1e-310):
        with pytest.raises(ParamError) as exc:
            ModelParams(beta=beta, omega_q=0.05, omega_tls=0.1)
        assert exc.value.name == "beta"
    assert len(calls) == 1
    # the smallest normal product still has finite rates
    edge = ModelParams(beta=sys.float_info.min / 0.1, omega_q=0.05,
                       omega_tls=0.1, kappa=0.1)
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
    a_q, b_q = params_bath.qubit_populations
    a_t, b_t = params_bath.tls_populations
    expected = np.kron(np.diag([a_q, b_q]), np.diag([a_t, b_t]))
    assert np.abs(x_to_matrix(st_.x) - expected).max() < 1e-15


def test_initial_state_coherence_slots(params_bath):
    spec = InitialStateSpec(mu_q=0.05, nu_q=-0.02, xi_re=0.03, xi_im=0.01)
    rho = x_to_matrix(build_initial_state(params_bath, spec).x)
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
    a_q, b_q = cold_defect.qubit_populations
    assert xi_max(cold_defect) == 0.0
    assert mu_max(cold_defect, 0.0) == math.sqrt(a_q * b_q)
    for p in (cold_qubit, cold_defect):
        with pytest.raises(ValueError):
            mu_max(p, 1e-300)


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
