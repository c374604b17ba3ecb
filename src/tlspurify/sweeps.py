"""Sweep drivers behind the CLI: single-trajectory emission, the two
pole-time scans, the stall-region map, the coherence-gain map, and the
purity traces.

Every driver returns an output.Table; cells never hold NaN — a cell whose
pole time is infinite carries the label "divergent", a state outside the
positivity boundary carries "unphysical", and a region cell whose pole
comes only after the horizon carries "U".

Fan-out: the cells of a sweep are split into contiguous batches, one per
worker, and each worker runs its whole batch through one array-valued
engine call (optimal.first_events or optimal.region_labels; coherence-map
batches its rows' pole times the same way, then takes one exponential
per row).  The engine gives each cell the result of its own batch of one,
and the results are reassembled in grid order, so the emitted bytes do
not depend on the worker count.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace

import numpy as np

from .config import ConfigError, RunConfig, SweepAxis
from .drive import ConstantDrive
from .liouville import qubit_purity, simulate, tls_purity
from .model import (InitialStateSpec, ModelParams, build_initial_state,
                    mu_max, xi_max)
from .optimal import (first_events, j_min, pole_gains, region_labels,
                      t_min_from_rates, t_min_numeric)
from .output import Table
from .reduced import simulate_z, x_to_z, z_purity_many
from .verify import run_suite, suite_passed

__all__ = ["simulate_trace", "scan_gamma", "scan_beta", "region_map",
           "coherence_map", "purity_trace", "verify_table"]


# ====================================================================
# Worker fan-out
# ====================================================================

def _pool_size(workers: int, n_jobs: int) -> int:
    """Processes to start: never more than the jobs or the cores."""
    return max(1, min(workers, n_jobs, os.cpu_count() or 1))


def _fan_out(worker, jobs: list, workers: int) -> list:
    """Run worker over jobs, preserving order; static contiguous chunks."""
    size = _pool_size(workers, len(jobs))
    if size == 1:
        return [worker(job) for job in jobs]
    import multiprocessing as mp
    chunk = -(-len(jobs) // size)
    with mp.get_context("fork").Pool(size) as pool:
        results = pool.map(worker, jobs, chunksize=chunk)
        # let the workers exit on their own: the SIGTERM that leaving the
        # block sends can land mid-start-up, and a worker that inherited
        # a raising SIGTERM handler then hangs on exit
        pool.close()
        pool.join()
    return results


def _fan_out_batches(worker, cells: list, shared, workers: int) -> list:
    """Run worker over contiguous batches of cells, one batch per worker,
    as worker((batch, shared)) -> one result per cell; the results come
    back in grid order."""
    size = max(1, -(-len(cells) // _pool_size(workers, len(cells))))
    batches = [(cells[k:k + size], shared) for k in range(0, len(cells), size)]
    return [r for batch in _fan_out(worker, batches, workers) for r in batch]


def _tmin_batch(job):
    cells, horizon = job
    params, xis = zip(*cells)
    return [(run.time, run.status)
            for run in first_events(params, xis, horizon)]


def _region_batch(job):
    cells, horizon = job
    params, xis = zip(*cells)
    return region_labels(params, xis, horizon)


def _gain_rows(job):
    """Rows of the coherence map: one batched pole-time run for the
    rows' leads, then one exponential per row for all its physical mu
    cells."""
    rows, (mus, horizon) = job
    params, xis, _ = zip(*rows)
    out = []
    for (p, xi, cap), lead in zip(rows, first_events(params, xis, horizon)):
        cells: list[object] = ["unphysical" if mu > cap else "divergent"
                               for mu in mus]
        if lead.status == "reached":
            phys = [k for k, mu in enumerate(mus) if mu <= cap]
            gains = pole_gains(p, xi, [mus[k] for k in phys], lead.time)
            for k, gain in zip(phys, gains[:, 0].tolist()):
                cells[k] = gain
        out.append(cells)
    return out


def _trace_job(job):
    """Purity samples of one reduced run."""
    params, xi, mu, t_end, n, rtol, atol = job
    state = build_initial_state(params, InitialStateSpec(mu_q=mu, xi_re=xi))
    res = simulate_z(params, x_to_z(state.x), (0.0, t_end), rtol=rtol,
                     atol=atol, dense=True)
    ts = np.linspace(0.0, t_end, n)
    return z_purity_many(res.trajectory(ts))


def _coupled(params: ModelParams) -> ModelParams:
    """params, for a command that reports pole times in units of
    t0 = pi/(2J): there is no such unit without coupling."""
    if params.J == 0.0:
        raise ConfigError("bad-value",
                          "model.J must be > 0 for this command: it reports "
                          "pole times in units of pi/(2J)", "model.J")
    return params


# ====================================================================
# Single trajectory
# ====================================================================

def simulate_trace(cfg: RunConfig) -> Table:
    """Full-model trajectory at the configured parameters; the run ends at
    the drift-flow pole time when that is defined, else at the horizon."""
    params = cfg.params()
    drive = cfg.drive()
    state = build_initial_state(params, cfg.state_spec())

    t_ref = math.pi / (2.0 * params.J) if params.J > 0.0 \
        else 2.0 * math.pi / params.omega_q
    t_end = cfg.horizon * t_ref
    pole_status = "not-tracked"
    on_resonance = isinstance(drive, ConstantDrive) and drive.detuning == 0.0
    if on_resonance and params.J > 0.0 and cfg.xi_im == 0.0:
        lead = t_min_numeric(params, math.hypot(cfg.xi_re, cfg.xi_im),
                             horizon_mult=cfg.horizon)
        pole_status = lead.status
        if lead.status == "reached":
            t_end = lead.time

    res = simulate(params, state, (0.0, t_end), drive, frame=cfg.frame,
                   rtol=cfg.rel_tol, atol=cfg.abs_tol, dense=True)
    ts = np.linspace(0.0, t_end, cfg.samples)
    xs = res.trajectory(ts)

    cols = ["t", "purity_qubit", "purity_tls"] + [f"x{k:02d}" for k in range(16)]
    table = Table("simulate", cols, metadata={
        "t_end": float(t_end), "pole_status": pole_status,
        "frame": cfg.frame, "n_steps": res.stats.accepted,
        "n_rejected": res.stats.rejected,
    })
    for t, x in zip(ts, xs):
        table.add(float(t), qubit_purity(x), tls_purity(x),
                  *(float(v) for v in x))
    return table


# ====================================================================
# Pole-time scans
# ====================================================================

def scan_gamma(cfg: RunConfig) -> Table:
    """Normalized pole time against gamma/J: closed form for the bare
    thermal start, direct integration for the maximally correlated one."""
    axis = cfg.axis("gamma_over_j") or SweepAxis("gamma_over_j", 0.0, 4.4, 45)
    base = _coupled(cfg.params())
    t0 = base.t0
    xi_val = xi_max(base)           # thermal populations do not move with gamma
    ratios = axis.values()

    cells = [(base.with_gamma_over_j(float(g)), xi_val) for g in ratios]
    correlated = _fan_out_batches(_tmin_batch, cells, cfg.horizon,
                                  cfg.workers)

    table = Table("scan-gamma",
                  ["gamma_over_j", "gamma",
                   "t_over_t0_uncorrelated", "t_over_t0_correlated"],
                  metadata={"t0": t0, "xi_max": xi_val, "J": base.J})
    for g, (t_corr, status) in zip(ratios, correlated):
        gamma = float(g) * base.J
        t_unc = t_min_from_rates(base.J, gamma)
        cell_unc = t_unc / t0 if math.isfinite(t_unc) else "divergent"
        cell_corr = t_corr / t0 if status == "reached" else "divergent"
        table.add(float(g), gamma, cell_unc, cell_corr)
    return table


def _beta_star(params: ModelParams) -> float | None:
    """Inverse temperature where the bath rate crosses 4J (the bare
    divergence threshold); None when the crossing does not exist."""
    if params.kappa <= 0.0 or 4.0 * params.J <= params.kappa:
        return None                 # gamma(beta) > kappa >= 4J never crosses
    n_star = 0.5 * (4.0 * params.J / params.kappa - 1.0)
    return math.log1p(1.0 / n_star) / params.omega_tls


def scan_beta(cfg: RunConfig) -> Table:
    """Normalized pole time against inverse temperature, for the bare
    thermal start and for the maximally correlated one; both columns are
    normalized by the lossless time pi/(2J)."""
    axis = cfg.axis("beta") or SweepAxis("beta", 0.05, 4.0, 80)
    base = _coupled(cfg.params())
    t0 = base.t0
    betas = axis.values()

    cells = []
    for b in betas:
        p = replace(base, beta=float(b))
        cells.append((p, xi_max(p)))
    correlated = _fan_out_batches(_tmin_batch, cells, cfg.horizon,
                                  cfg.workers)

    meta = {"t0": t0, "J": base.J, "kappa": base.kappa}
    star = _beta_star(base)
    if star is not None:
        meta["beta_star"] = star
    table = Table("scan-beta",
                  ["beta", "gamma", "xi_max",
                   "t_over_t0_uncorrelated", "t_over_t0_correlated"],
                  metadata=meta)
    for b, (p, xi), (t_corr, status) in zip(betas, cells, correlated):
        t_unc = t_min_from_rates(p.J, p.gamma)
        cell_unc = t_unc / t0 if math.isfinite(t_unc) else "divergent"
        cell_corr = t_corr / t0 if status == "reached" else "divergent"
        table.add(float(b), p.gamma, xi, cell_unc, cell_corr)
    return table


# ====================================================================
# Stall-region map
# ====================================================================

def region_map(cfg: RunConfig) -> Table:
    """Label the (coupling, correlation) plane by how the drift flow ends:
    A - the stall condition already holds at t = 0; B - the flow stalls en
    route or never reaches the pole; C - the pole is reached; U - the pole
    is reached only after the horizon."""
    beta = cfg.beta if cfg.was_set("model.beta") else 0.1
    base = replace(cfg.params(), beta=beta)
    j_axis = cfg.axis("j_frac") or SweepAxis("j_frac", 0.6, 1.05, 50)
    x_axis = cfg.axis("xi_frac") or SweepAxis("xi_frac", 0.0, 1.0, 50)
    gamma = base.gamma
    jm = j_min(gamma)
    xi_cap = xi_max(base)

    jobs = []
    cells = []
    for jf in j_axis.values():
        p = replace(base, J=float(jf) * jm)
        for xf in x_axis.values():
            xi = float(xf) * xi_cap
            cells.append((float(jf), p.J, float(xf), xi))
            jobs.append((p, xi))
    labels = _fan_out_batches(_region_batch, jobs, cfg.horizon, cfg.workers)

    table = Table("region-map",
                  ["j_frac", "J", "xi_frac", "xi", "region"],
                  metadata={"beta": beta, "kappa": base.kappa,
                            "gamma": gamma, "j_min": jm, "xi_max": xi_cap})
    for (jf, jv, xf, xv), label in zip(cells, labels):
        table.add(jf, jv, xf, xv, label)
    return table


# ====================================================================
# Coherence-gain map
# ====================================================================

def coherence_map(cfg: RunConfig) -> Table:
    """Relative purity gain from the coherence block over the
    (correlation, coherence) plane; cells beyond the positivity boundary
    are labeled, not computed."""
    params = _coupled(cfg.params())
    x_axis = cfg.axis("xi_frac") or SweepAxis("xi_frac", 0.0, 1.0, 21)
    m_axis = cfg.axis("mu_frac") or SweepAxis("mu_frac", 0.0, 1.0, 21)
    xi_cap = xi_max(params)
    mu_cap0 = mu_max(params, 0.0)
    mus = [float(mf) * mu_cap0 for mf in m_axis.values()]

    rows = []
    jobs = []
    for xf in x_axis.values():
        xi = float(xf) * xi_cap
        cap = mu_max(params, xi)
        rows.append((float(xf), xi, cap))
        jobs.append((params, xi, cap))
    results = _fan_out_batches(_gain_rows, jobs, (mus, cfg.horizon),
                               cfg.workers)

    table = Table("coherence-map",
                  ["xi_frac", "xi", "mu_q", "mu_max", "delta_p"],
                  metadata={"xi_max": xi_cap, "mu_max_uncorrelated": mu_cap0,
                            "t0": params.t0})
    for (xf, xi, cap), cells in zip(rows, results):
        for mu, cell in zip(mus, cells):
            table.add(xf, xi, float(mu), cap, cell)
    return table


# ====================================================================
# Purity traces
# ====================================================================

def purity_trace(cfg: RunConfig) -> Table:
    """Reduced-model purity traces over a coherence grid, at zero cross
    coherence and at half the maximal one.  Metadata carries the two
    reference levels: the defect's thermal purity and the largest purity
    the trace family attains at its pole time."""
    params = _coupled(cfg.params())
    xi_half = 0.5 * xi_max(params)
    a_t, _ = params.tls_populations
    p_tls0 = 0.5 + 2.0 * (a_t - 0.5) ** 2

    table = Table("purity-trace", ["xi", "mu_q", "t", "purity"],
                  metadata={"p_tls_initial": p_tls0})
    jobs = []
    layout = []
    for tag, xi in (("xi0", 0.0), ("xihalf", xi_half)):
        lead = t_min_numeric(params, xi, horizon_mult=cfg.horizon)
        if lead.status != "reached":
            raise ValueError(
                f"purity-trace needs a reachable pole; status "
                f"{lead.status!r} at xi = {xi} (gamma/J = "
                f"{params.gamma / params.J:.3f})")
        cap = mu_max(params, xi)
        t_end = 1.15 * lead.time
        table.metadata[f"t_pole_{tag}"] = lead.time
        for frac in np.linspace(0.0, 1.0, cfg.mu_count):
            mu = float(frac) * cap
            layout.append((xi, mu, t_end))
            jobs.append((params, xi, mu, t_end, cfg.samples,
                         cfg.rel_tol, cfg.abs_tol))
        # reference level: the top-coherence trace's purity at the pole
        top = _trace_job((params, xi, cap, lead.time, 2,
                          cfg.rel_tol, cfg.abs_tol))
        table.metadata[f"p_max_{tag}"] = float(top[-1])
    traces = _fan_out(_trace_job, jobs, cfg.workers)

    for (xi, mu, t_end), ps in zip(layout, traces):
        ts = np.linspace(0.0, t_end, cfg.samples)
        for t, p in zip(ts, ps):
            table.add(float(xi), float(mu), float(t), float(p))
    return table


# ====================================================================
# Self-check report
# ====================================================================

def verify_table(cfg: RunConfig, z_rhs_override=None) -> tuple[Table, bool]:
    """Run the self-check suite and lay the report out as a table."""
    checks = run_suite(_coupled(cfg.params()), rtol=cfg.rel_tol,
                       atol=cfg.abs_tol,
                       z_rhs_override=z_rhs_override)
    blind = [c.name for c in checks if not math.isfinite(c.residual)]
    if blind:
        raise ValueError("no finite residual in verify check "
                         + ", ".join(blind))
    ok = suite_passed(checks)
    table = Table("verify",
                  ["check", "passed", "residual", "tol",
                   "n_steps", "n_rejected"],
                  metadata={"all_passed": ok})
    for c in checks:
        table.add(c.name, c.passed, c.residual, c.tol,
                  c.n_steps, c.n_rejected)
    return table, ok
