"""The pole-engine sweeps behind the CLI: the two pole-time scans and the
stall-region map.

Each sweep hands its whole grid to one array-valued call of the
closed-form engine (pole.first_events or pole.region_labels), and the
engine gives each cell the result of its own batch of one, so the bytes
do not depend on how a grid is cut.  Cells never hold NaN: an infinite
pole time carries the label "divergent", and a region cell whose pole
comes only after the horizon carries "U".

This module imports neither the integrator nor the full or reduced
dynamics, so a fresh scan-gamma, scan-beta or region-map process loads
only the engine, the model, the config and the writer.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ConfigError, RunConfig, SweepAxis
from .model import ModelParams, xi_max
from .output import Table
from .pole import first_events, j_min, region_labels, t_min_from_rates

__all__ = ["scan_gamma", "scan_beta", "region_map"]


def _coupled(params: ModelParams) -> ModelParams:
    """params, for a command that reports pole times in units of
    t0 = pi/(2J): there is no such unit without coupling."""
    if params.J == 0.0:
        raise ConfigError("bad-value",
                          "model.J must be > 0 for this command: it reports "
                          "pole times in units of pi/(2J)", "model.J")
    return params


# ====================================================================
# Pole-time scans
# ====================================================================

def scan_gamma(cfg: RunConfig) -> Table:
    """Normalized pole time against gamma/J: closed form for the bare
    thermal start, the exact engine for the maximally correlated one."""
    axis = cfg.axis("gamma_over_j") or SweepAxis("gamma_over_j", 0.0, 4.4, 45)
    base = _coupled(cfg.params())
    t0 = base.t0
    xi_val = xi_max(base)           # thermal populations do not move with gamma
    ratios = axis.values()

    correlated = first_events([base.with_gamma_over_j(float(g))
                               for g in ratios], [xi_val] * len(ratios),
                              cfg.horizon)

    table = Table("scan-gamma",
                  ["gamma_over_j", "gamma",
                   "t_over_t0_uncorrelated", "t_over_t0_correlated"],
                  metadata={"t0": t0, "xi_max": xi_val, "J": base.J})
    for g, run in zip(ratios, correlated):
        gamma = float(g) * base.J
        t_unc = t_min_from_rates(base.J, gamma)
        cell_unc = t_unc / t0 if math.isfinite(t_unc) else "divergent"
        cell_corr = run.time / t0 if run.status == "reached" else "divergent"
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

    params = [base.replace(beta=float(b)) for b in betas]
    xis = [xi_max(p) for p in params]
    correlated = first_events(params, xis, cfg.horizon)

    meta = {"t0": t0, "J": base.J, "kappa": base.kappa}
    star = _beta_star(base)
    if star is not None:
        meta["beta_star"] = star
    table = Table("scan-beta",
                  ["beta", "gamma", "xi_max",
                   "t_over_t0_uncorrelated", "t_over_t0_correlated"],
                  metadata=meta)
    for b, p, xi, run in zip(betas, params, xis, correlated):
        t_unc = t_min_from_rates(p.J, p.gamma)
        cell_unc = t_unc / t0 if math.isfinite(t_unc) else "divergent"
        cell_corr = run.time / t0 if run.status == "reached" else "divergent"
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
    base = cfg.params().replace(beta=beta)
    j_axis = cfg.axis("j_frac") or SweepAxis("j_frac", 0.6, 1.05, 50)
    x_axis = cfg.axis("xi_frac") or SweepAxis("xi_frac", 0.0, 1.0, 50)
    gamma = base.gamma
    jm = j_min(gamma)
    xi_cap = xi_max(base)

    # the grid row by row (one J per row), built a column at a time
    j_fracs, xi_fracs = j_axis.values(), x_axis.values()
    n_j, n_xi = j_fracs.size, xi_fracs.size
    js = j_fracs * jm
    xi_col = np.tile(xi_fracs * xi_cap, n_j)
    per_row = [base.replace(J=j) for j in js.tolist()]
    labels = region_labels([p for p in per_row for _ in range(n_xi)], xi_col,
                           cfg.horizon)

    table = Table("region-map",
                  ["j_frac", "J", "xi_frac", "xi", "region"],
                  metadata={"beta": beta, "kappa": base.kappa,
                            "gamma": gamma, "j_min": jm, "xi_max": xi_cap})
    table.rows.extend(zip(np.repeat(j_fracs, n_xi).tolist(),
                          np.repeat(js, n_xi).tolist(),
                          np.tile(xi_fracs, n_j).tolist(), xi_col.tolist(),
                          labels))
    return table
