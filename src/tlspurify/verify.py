"""Self-check suite: oracle equivalences, conserved quantities, closed forms.

Every check measures a dimensionless residual and holds it to a stated
tolerance: a gap in state coordinates or purity, a relative gap, or a
quantity in rate units divided by a rate scale of the run, so that a
check is as strict when J and kappa are small as at the default.  Checks
that propagate also report accepted/rejected step counts (node steps, with
none rejected, for an exact run), and its CheckResult is its row of
verify's report, field for column.  Each check compares two independent
paths: the runs that simulate propagates exactly are held against
Runge-Kutta integration of the same flow or of its reduction, and rtol and
atol set only that Runge-Kutta side; the closed forms that coherence-map
and purity-trace read are held against the reduced flow's exponential.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .drive import resonant
from .integrator import integrate
from .liouville import make_rhs_rwa, rwa_generator, simulate
from .model import (InitialStateSpec, ModelParams, StepStats,
                    build_initial_state, min_eigenvalue, mu_max, xi_max)
from .pole import (coherence_gains, first_events, initial_direction,
                   resonant_purity, s2_resonant_solution, t_min_from_rates,
                   t_min_numeric, uncorrelated_pole_purity)
from .reduced import make_rhs_s1, make_rhs_z, x_to_z, z_purity, z_states_at

__all__ = ["CheckResult", "run_suite", "suite_passed"]


class CheckResult(NamedTuple):
    """One check: a row of verify's report, its fields the columns."""
    check: str
    passed: bool
    residual: float
    tol: float
    n_steps: int = 0
    n_rejected: int = 0


def _check(name: str, residual: float, tol: float,
           stats: StepStats | None = None) -> CheckResult:
    if stats is None:
        stats = StepStats()
    return CheckResult(name, bool(residual < tol), float(residual), tol,
                       stats.accepted, stats.rejected)


def _relative(residual: float, scale: float) -> float:
    """A residual in units of its scale; where the scale is 0, the
    quantities it bounds are 0 too, and the residual is kept as it is."""
    return residual / scale if scale > 0.0 else residual


def _reduced_purity(params: ModelParams, mu: float, xi: float, t: float):
    """(p, p_s1) at time t of the resonant reduced run from the start
    (mu, xi), the qubit purity and that of the S1 block alone: one
    exponential of the reduced flow over [0, t]."""
    start = build_initial_state(params, InitialStateSpec(mu_q=mu, xi_re=xi))
    zf = z_states_at(params, x_to_z(start.x), t)
    return z_purity(zf)[0], (0.5 + 2.0 * zf[:, 0] ** 2)[0]


def suite_passed(checks: list[CheckResult]) -> bool:
    return all(c.passed for c in checks)


def run_suite(params: ModelParams, *, rtol: float = 1e-10,
              atol: float = 1e-10) -> list[CheckResult]:
    """Run every self-check and return the results in a fixed order."""
    checks: list[CheckResult] = []

    # -- generator is trace-free for any drive coefficients ------------
    # the largest column sum of its four diagonal rows, relative to the
    # generator's largest entry (a zero generator sums to zero)
    worst = 0.0
    for j1, j2, al in [(params.J, 0.0, 0.0), (0.02, -0.05, 0.3),
                       (0.0, 0.0, 0.0), (-0.1, 0.07, -1.2)]:
        m = rwa_generator(params, j1, j2, al)
        worst = max(worst, _relative(np.abs(m[:4].sum(axis=0)).max(),
                                     np.abs(m).max()))
    checks.append(_check("generator-trace-free", worst, 1e-12))

    # the full 16-dim run from a correlated start, exact, read at the
    # steps of a Runge-Kutta run of the reduced flow and of the full one
    # (same start and span), and at 400 even times
    xi = xi_max(params)
    mu = 0.5 * mu_max(params, 0.5 * xi)
    spec = InitialStateSpec(mu_q=mu, xi_re=0.5 * xi)
    state = build_initial_state(params, spec)
    t_span = (0.0, 2.0 * params.t0)
    z0 = x_to_z(state.x)
    red = integrate(make_rhs_z(params), t_span, z0, rtol=rtol, atol=atol)
    rk = integrate(make_rhs_rwa(params, resonant()), t_span, state.x,
                   rtol=rtol, atol=atol)
    ts = np.linspace(t_span[0], t_span[1], 400)
    full = simulate(params, state, t_span, np.concatenate((red.t, rk.t, ts)))
    at_red, at_rk, xs = np.split(full.y, np.cumsum((len(red.t), len(rk.t))))

    # -- full run mapped to z matches the reduced run -----------------
    # the largest z gap at the reduced run's steps
    resid = float(np.abs(x_to_z(at_red) - red.y).max())
    checks.append(_check("full-vs-reduced", resid, 1e-8,
                         full.stats + red.stats))

    # -- exact propagation matches Runge-Kutta on the same run ----------
    # the largest x gap at the integrated run's steps
    resid = float(np.abs(at_rk - rk.y).max())
    checks.append(_check("exact-vs-rk", resid, 1e-8, full.stats + rk.stats))

    # -- trace preserved along the full run: max |trace - 1| ----------
    drift = float(np.abs(xs[:, :4].sum(axis=1) - 1.0).max())
    checks.append(_check("trace-preservation", drift, 1e-9, full.stats))

    # -- state stays positive: the most negative eigenvalue seen -------
    checks.append(_check("positivity",
                         max(0.0, -min_eigenvalue(xs[::8])), 1e-8))

    # -- eta-line conservation at xi = 0: max |r + c - eta|, 400 times -
    plain = build_initial_state(params, InitialStateSpec())
    res0 = simulate(params, plain, t_span, ts)
    zz = x_to_z(res0.y)
    cc = -0.5 * (zz[:, 3] + 1.0)
    rr = np.hypot(zz[:, 0] - cc, zz[:, 1])
    resid = float(np.abs(rr + cc - params.eta).max())
    checks.append(_check("z-conservation", resid, 1e-9, res0.stats))

    # -- radius never grows under the drift flow ----------------------
    # the largest dr/dt = s_wv . s_wv' / |s_wv| at an accepted step, on the
    # decaying direction s = e^{-gamma t/2} q from s0/|s0| (r in units of
    # |s0|: no overflow where q grows, no absolute error where s0 is
    # small), relative to the rate scale 2J + gamma/2 times the largest r
    # (ds/dt from the flow itself, one call on every step: it is linear)
    half = 0.5 * params.gamma
    q_rhs = make_rhs_s1(params)

    def decaying(t, s):
        return q_rhs(t, s) - half * s

    s0 = initial_direction(params, xi)
    s1 = integrate(decaying, t_span, s0 / (np.linalg.norm(s0) or 1.0),
                   rtol=rtol, atol=atol)
    s, ds = s1.y[:, :2], decaying(s1.t, s1.y.T).T[:, :2]
    norm = np.hypot(s[:, 0], s[:, 1])
    rate = np.divide((s * ds).sum(axis=1), norm, out=np.zeros_like(norm),
                     where=norm > 0.0)
    scale = (2.0 * params.J + half) * norm.max()
    checks.append(_check("radius-monotone",
                         _relative(max(0.0, rate.max()), scale),
                         1e-10, s1.stats))

    # -- coherence block closed form ----------------------------------
    # the largest gap to the damped-oscillator solution at the accepted
    # steps, where the run is as good as its tolerances.  A cold qubit
    # carries little coherence: the start keeps mu = 0.3 while that is
    # within 3/4 of the ceiling (beta up to about 1.3 at the default
    # splittings), and sits at 3/4 of the ceiling past that
    mu_s2 = min(0.3, 0.75 * mu_max(params, 0.0))
    worst = 0.0
    tot = StepStats()
    for ratio in (0.0, 2.0, 5.0):
        p = params.with_gamma_over_j(ratio)
        st = build_initial_state(p, InitialStateSpec(mu_q=mu_s2))
        zr = integrate(make_rhs_z(p), (0.0, 3.0 * p.t0), x_to_z(st.x),
                       rtol=rtol, atol=atol)
        exact = s2_resonant_solution(p, mu_s2, zr.t)
        worst = max(worst, float(np.abs(zr.y[:, 4] - exact).max()))
        tot += zr.stats
    checks.append(_check("s2-closed-form", worst, 1e-8, tot))

    # -- pole time closed form vs direct integration ------------------
    # worst relative gap at gamma/J = 1, 2, 3.5; one engine call for the
    # bare leads of this check and of the two below (the configured params)
    fixed = [params.with_gamma_over_j(ratio) for ratio in (1.0, 2.0, 3.5)]
    *runs, bare = first_events([*fixed, params], [0.0] * 4)
    worst = 0.0
    tot = StepStats()
    for p, run in zip(fixed, runs):
        exact = t_min_from_rates(p.J, p.gamma)
        worst = max(worst, abs(run.time - exact) / exact)
        tot += run.stats
    checks.append(_check("pole-time-closed-form", worst, 1e-12, tot))

    # the two checks below read the bare start's pole; where that start
    # never reaches it (gamma >= 4J, or a pole past the horizon) they run
    # at gamma/J = 2 instead, the fixed ratio of the closed-form checks
    p, lead = params, bare
    if bare.status != "reached":
        p, lead = fixed[1], runs[1]

    # -- purity on pole arrival: gap to the bath-polarization value ----
    resid = abs(lead.purity - uncorrelated_pole_purity(p))
    checks.append(_check("pole-purity", resid, 1e-5, lead.stats))

    # -- no coherence gain without correlation: |delta_p| at xi = 0 ----
    # from the reduced flow's exponential, p / p_s1 - 1
    gain = math.nan
    if lead.status == "reached":
        p_pole, p_s1 = _reduced_purity(p, mu_max(p, 0.0), 0.0, lead.time)
        gain = p_pole / p_s1 - 1.0
    checks.append(_check("coherence-gain-uncorrelated", abs(gain), 1e-6))

    # -- resonant closed forms vs the reduced flow's exponential -------
    # the largest gap in the purity of a start with xi, mu > 0 at
    # quarters of its stop point (its pole), and in its gain there
    xi_c = 0.5 * xi_max(p)
    mu_c = 0.5 * mu_max(p, xi_c)
    corr = t_min_numeric(p, xi_c)
    ts = np.linspace(0.25, 1.0, 4) * corr.t_stop
    purity, p_s1 = np.array([_reduced_purity(p, mu_c, xi_c, t)
                             for t in ts]).T
    gain = coherence_gains(p, [xi_c], [corr.t_stop], [mu_c])[0, 0]
    resid = max(np.abs(resonant_purity(p, xi_c, [mu_c], ts)[:, 0]
                       - purity).max(),
                abs(gain - (purity[-1] / p_s1[-1] - 1.0)))
    checks.append(_check("purity-closed-form", resid, 1e-12, corr.stats))

    return checks
