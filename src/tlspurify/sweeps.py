"""Sweep drivers behind the CLI that run the dynamics: single-trajectory
emission, the coherence-gain map, the purity traces and the self-check
report.  The pole-engine sweeps (scan-gamma, scan-beta, region-map) live
in ``scans``.

Every driver returns an output.Table; cells never hold NaN — a cell whose
pole time is infinite carries the label "divergent", and a state outside
the positivity boundary carries "unphysical".

One process: coherence-map and purity-trace take their pole times from
one array-valued engine call (pole.first_events), then make one
exponential per coherence-map row or one stacked reduced run per
purity-trace cross coherence; the engine gives each cell the result of
its own batch of one, so the emitted bytes do not depend on how a grid
is cut, and run.workers changes nothing.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from .config import MAX_ROWS, ConfigError, RunConfig, SweepAxis
from .liouville import qubit_purity, simulate, tls_purity
from .model import (InitialStateSpec, build_initial_state, is_physical,
                    mu_max, xi_max)
from .optimal import pole_gains
from .output import Table
from .pole import first_events, t_min_numeric
from .reduced import simulate_z, x_to_z, z_purity
# perfbench's fan-out probe imports scan_gamma from here
from .scans import _coupled, scan_gamma  # noqa: F401
# perfbench's tracer wraps run_suite where verify_table calls it: here
from .verify import CheckResult, run_suite, suite_passed

__all__ = ["simulate_trace", "coherence_map", "purity_trace", "verify_table"]


# ====================================================================
# Single trajectory
# ====================================================================

def simulate_trace(cfg: RunConfig) -> Table:
    """Full-model trajectory at the configured parameters; the run ends at
    the drift-flow pole time when that is defined, else at the horizon.
    The pole engine knows only a real, non-negative xi."""
    params = cfg.params()
    drive = cfg.drive()
    state = build_initial_state(params, cfg.state_spec())

    t_ref = params.t0 if params.J > 0.0 else 2.0 * math.pi / params.omega_q
    t_end = cfg.horizon * t_ref
    pole_status = "not-tracked"
    if (drive.detuning == 0.0 and params.J > 0.0 and cfg.xi_re >= 0.0
            and cfg.xi_im == 0.0):
        lead = t_min_numeric(params, cfg.xi_re, horizon_mult=cfg.horizon)
        pole_status = lead.status
        if lead.status == "reached":
            t_end = lead.time

    ts = np.linspace(0.0, t_end, cfg.samples)
    res = simulate(params, state, (0.0, t_end), ts, drive, frame=cfg.frame)
    xs = res.y

    cols = ["t", "purity_qubit", "purity_tls"] + [f"x{k:02d}" for k in range(16)]
    table = Table("simulate", cols, metadata={
        "t_end": float(t_end), "pole_status": pole_status,
        "frame": cfg.frame, "n_steps": res.stats.accepted,
        "n_rejected": res.stats.rejected,
    })
    table.rows.extend(zip(ts.tolist(), qubit_purity(xs).tolist(),
                          tls_purity(xs).tolist(), *xs.T.tolist()))
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
    mus = m_axis.values() * mu_cap0

    xfs = x_axis.values()
    xis = xfs * xi_cap
    leads = first_events([params] * len(xis), xis.tolist(), cfg.horizon)
    inside = is_physical(params, mus, xis[:, None])     # one row per xi
    cells = np.array(["unphysical", "divergent"], dtype=object)[
        inside.astype(int)]
    for row, cell, xi, lead in zip(inside, cells, xis, leads):
        if lead.status == "reached":    # one exponential per row
            cell[row] = pole_gains(params, xi, mus[row], lead.time)[:, 0]

    table = Table("coherence-map",
                  ["xi_frac", "xi", "mu_q", "mu_max", "delta_p"],
                  metadata={"xi_max": xi_cap, "mu_max_uncorrelated": mu_cap0,
                            "t0": params.t0})
    mu_cells = mus.tolist()
    for xf, xi, cap, row in zip(xfs.tolist(), xis.tolist(),
                                mu_max(params, xis).tolist(), cells.tolist()):
        table.rows.extend(zip(repeat(xf), repeat(xi), mu_cells, repeat(cap),
                              row))
    return table


# ====================================================================
# Purity traces
# ====================================================================

def purity_trace(cfg: RunConfig) -> Table:
    """Reduced-model purity traces over a coherence grid, at zero cross
    coherence and at half the maximal one.  Metadata carries the two
    reference levels: the defect's thermal purity and the largest purity
    the trace family attains at its pole time."""
    rows = 2 * cfg.mu_count * cfg.samples
    if rows > MAX_ROWS:
        raise ConfigError("bad-value",
                          f"purity-trace emits 2 x sweep.mu_count x "
                          f"run.samples rows: {rows} is above {MAX_ROWS}",
                          "sweep.mu_count")
    params = _coupled(cfg.params())
    xis = {"xi0": 0.0, "xihalf": 0.5 * xi_max(params)}
    leads = first_events([params] * 2, list(xis.values()), cfg.horizon)
    p_tls0 = 0.5 + 2.0 * (params.a_t - 0.5) ** 2

    table = Table("purity-trace", ["xi", "mu_q", "t", "purity"],
                  metadata={"p_tls_initial": p_tls0})
    for (tag, xi), lead in zip(xis.items(), leads):
        if lead.status != "reached":
            raise ValueError(
                f"purity-trace needs a reachable pole; status "
                f"{lead.status!r} at xi = {xi} (gamma/J = "
                f"{params.gamma / params.J:.3f})")
        # one reduced run of the whole coherence grid, top start last, read
        # at the samples and then at the pole time: the reference level is
        # the top-coherence trace's purity at the pole
        mus = np.linspace(0.0, 1.0, cfg.mu_count) * mu_max(params, xi)
        starts = build_initial_state(params, InitialStateSpec(mus, xi_re=xi))
        t_end = 1.15 * lead.time
        ts = np.linspace(0.0, t_end, cfg.samples)
        ps = z_purity(simulate_z(params, x_to_z(starts.x), (0.0, t_end),
                                 np.append(ts, lead.time)).y)
        table.metadata[f"t_pole_{tag}"] = lead.time
        table.metadata[f"p_max_{tag}"] = float(ps[-1, -1])
        for mu, trace in zip(mus.tolist(), ps[:-1].T.tolist()):
            table.rows.extend(zip(repeat(xi), repeat(mu), ts.tolist(), trace))
    return table


# ====================================================================
# Self-check report
# ====================================================================

def verify_table(cfg: RunConfig) -> Table:
    """The self-check report: its rows are the suite's CheckResults, and
    its metadata says whether all passed."""
    checks = run_suite(_coupled(cfg.params()), rtol=cfg.rel_tol,
                       atol=cfg.abs_tol)
    blind = [c.check for c in checks if not math.isfinite(c.residual)]
    if blind:
        raise ValueError("no finite residual in verify check "
                         + ", ".join(blind))
    table = Table("verify", list(CheckResult._fields),
                  metadata={"all_passed": suite_passed(checks)})
    table.rows = checks
    return table
