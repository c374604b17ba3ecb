"""Full 16-coordinate dynamics against the matrix-form master equation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from oracles import (lab_rhs, lindblad_rhs, partial_trace_defect,
                     partial_trace_qubit, random_density_x)
from tlspurify.drive import ConstantDrive, resonant
from tlspurify.integrator import integrate
from tlspurify import liouville
from tlspurify.liouville import (lab_hamiltonian, make_rhs_lab, make_rhs_rwa,
                                 qubit_purity, rwa_generator, simulate,
                                 tls_purity)
from tlspurify.model import (InitialStateSpec, ModelParams,
                             build_initial_state, matrix_to_x, mu_max,
                             x_to_matrix, xi_max)

COEFF_TRIPLES = [(0.1, 0.0, 0.0), (0.0, 0.0, 0.0), (0.02, -0.05, 0.3),
                 (-0.1, 0.07, -1.2)]


# ====================================================================
# Generator vs the independent matrix-form master equation
# ====================================================================

def test_generator_matches_matrix_oracle(params_bath, rng):
    """The backbone equivalence: the assembled 16x16 generator acts on the
    coordinates exactly as the commutator-plus-dissipator acts on the
    density matrix, for arbitrary coefficient values and states."""
    worst = 0.0
    for _ in range(20):
        x = random_density_x(rng)
        rho = x_to_matrix(x)
        for j1, j2, al in COEFF_TRIPLES:
            lhs = x_to_matrix(rwa_generator(params_bath, j1, j2, al) @ x)
            rhs = lindblad_rhs(params_bath, rho, j1, j2, al)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst < 1e-13


def test_fields_are_stored_c_contiguous():
    """A matrix-vector product sums in storage order: on a transposed view
    of a field, verify's residuals would move in their last digits."""
    for name in ("FIELD_EMIT", "FIELD_ABSORB", "FIELD_J1", "FIELD_J2",
                 "FIELD_FRAME", "FRAME_ROTATION"):
        field = getattr(liouville, name)
        assert field.shape == (16, 16) and field.flags.c_contiguous, name


def test_generator_trace_free(params_bath):
    for j1, j2, al in COEFF_TRIPLES:
        m = rwa_generator(params_bath, j1, j2, al)
        # the four diagonal rows add to zero columnwise: trace is conserved
        assert np.abs(m[:4].sum(axis=0)).max() < 1e-13


def test_make_rhs_rwa_paths(params_bath, rng):
    x = random_density_x(rng)
    # resonant fast path
    rhs0 = make_rhs_rwa(params_bath, resonant())
    expect0 = rwa_generator(params_bath, params_bath.J, 0.0, 0.0) @ x
    assert np.abs(rhs0(3.7, x) - expect0).max() < 1e-15
    # generic path with a constant detuning
    d = ConstantDrive(0.3)
    rhs1 = make_rhs_rwa(params_bath, d)
    ph = d.detuning * 2.0
    expect1 = rwa_generator(params_bath, params_bath.J * math.cos(ph),
                            params_bath.J * math.sin(ph), 0.0) @ x
    assert np.abs(rhs1(2.0, x) - expect1).max() < 1e-15


def test_simulate_matches_scipy_on_matrix_oracle(params_bath):
    """Cross both the generator and the stepper against scipy integrating
    the matrix-form equation directly."""
    xi = 0.5 * xi_max(params_bath)
    spec = InitialStateSpec(mu_q=0.5 * mu_max(params_bath, xi), xi_re=xi)
    state = build_initial_state(params_bath, spec)
    t_end = params_bath.t0

    def oracle_rhs(t, x):
        return matrix_to_x(
            lindblad_rhs(params_bath, x_to_matrix(x), params_bath.J, 0.0))

    ref = solve_ivp(oracle_rhs, (0.0, t_end), state.x, method="DOP853",
                    rtol=1e-11, atol=1e-12)
    res = simulate(params_bath, state, (0.0, t_end))
    assert np.abs(res.y[-1] - ref.y[:, -1]).max() < 1e-8


# ====================================================================
# Lab frame
# ====================================================================

def test_lab_hamiltonian_structure():
    p = ModelParams(J=0.05)
    h = lab_hamiltonian(p)
    sz = np.diag([1.0, -1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = (-0.5 * p.omega_q * np.kron(sz, np.eye(2))
                - 0.5 * p.omega_tls * np.kron(np.eye(2), sz)
                - p.J * np.kron(sx, sx))
    assert np.abs(h - expected).max() < 1e-15
    assert np.abs(h - h.conj().T).max() == 0.0


def test_frames_agree_at_zero_coupling():
    """With J = 0 the two frames differ only by local z-rotations, which
    neither subsystem purity can see."""
    p = ModelParams(J=0.0, kappa=0.1)
    spec = InitialStateSpec(mu_q=0.2, xi_re=0.03)
    state = build_initial_state(p, spec)
    span = (0.0, 8.0)
    ts = np.linspace(*span, 100)
    runs = {frame: simulate(p, state, span, frame=frame)
            for frame in ("rwa", "lab")}
    for purity in (qubit_purity, tls_purity):
        gap = purity(runs["rwa"].trajectory(ts)) - purity(
            runs["lab"].trajectory(ts))
        assert np.abs(gap).max() < 1e-8


def test_simulate_frame_validation(params_bath):
    state = build_initial_state(params_bath, InitialStateSpec())
    with pytest.raises(ValueError):
        simulate(params_bath, state, (0.0, 1.0), frame="interaction")


# ====================================================================
# Observables
# ====================================================================

def test_reduced_states_match_partial_traces(rng):
    """The purities of the two subsystems are those of the oracles'
    partial traces."""
    for _ in range(10):
        x = random_density_x(rng)
        rho = x_to_matrix(x)
        rq = partial_trace_defect(rho)
        rt = partial_trace_qubit(rho)
        assert qubit_purity(x) == pytest.approx(
            float(np.trace(rq @ rq).real), abs=1e-13)
        assert tls_purity(x) == pytest.approx(
            float(np.trace(rt @ rt).real), abs=1e-13)


# ====================================================================
# Exact propagation of constant drives
# ====================================================================

def test_lab_liouvillian_matches_matrix_oracle(params_bath, rng):
    """The lab right-hand side, built once from the 16 basis vectors, is
    the matrix-level lab master equation at every drive shift."""
    for t, detuning in ((0.0, -0.4), (1.7, 0.0), (5.0, 0.9), (8.0, 0.25)):
        drive = ConstantDrive(detuning)
        rhs = make_rhs_lab(params_bath, drive)
        eps = drive.epsilon(params_bath)
        for _ in range(5):
            x = random_density_x(rng)
            expected = matrix_to_x(lab_rhs(params_bath, x_to_matrix(x), eps))
            assert np.abs(rhs(t, x) - expected).max() < 1e-14


@pytest.mark.parametrize("frame", ["rwa", "lab"])
@pytest.mark.parametrize("detuning", [0.0, 0.25])
def test_exact_simulate_matches_rk(params_bath, frame, detuning):
    """A constant drive is propagated exactly; Runge-Kutta at
    rtol = atol = 1e-12 lands on it at every accepted step, also for a
    span that does not start at 0 (the co-rotating frame's phase)."""
    xi = 0.5 * xi_max(params_bath)
    mu = 0.5 * mu_max(params_bath, xi)
    spec = InitialStateSpec(mu_q=mu, nu_q=0.3 * mu, xi_re=xi)
    state = build_initial_state(params_bath, spec)
    drive = ConstantDrive(detuning)
    make_rhs = make_rhs_rwa if frame == "rwa" else make_rhs_lab
    bound = {"rwa": 1e-11, "lab": 1e-10}[frame]
    for span in ((0.0, 2.0 * params_bath.t0), (1.3, 1.3 + params_bath.t0)):
        exact = simulate(params_bath, state, span, drive, frame=frame)
        assert exact.stats.rejected == 0
        rk = integrate(make_rhs(params_bath, drive), span, state.x,
                       rtol=1e-12, atol=1e-12)
        assert np.abs(exact.trajectory(rk.t) - rk.y).max() < bound
        assert np.abs(exact.y[-1] - rk.y[-1]).max() < bound
