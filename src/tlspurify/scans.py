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

def _per_t0(times, t0: float) -> list:
    """Pole times in units of t0, "divergent" where a time is infinite."""
    return [t / t0 if math.isfinite(t) else "divergent" for t in times]


def scan_gamma(cfg: RunConfig) -> Table:
    """Normalized pole time against gamma/J: closed form for the bare
    thermal start, the exact engine for the maximally correlated one."""
    axis = cfg.axis("gamma_over_j") or SweepAxis("gamma_over_j", 0.0, 4.4, 45)
    base = _coupled(cfg.params())
    t0 = base.t0
    xi_val = xi_max(base)           # thermal populations do not move with gamma
    ratios = axis.values()
    gammas = ratios * base.J

    correlated = first_events([base.with_gamma_over_j(float(g))
                               for g in ratios], [xi_val] * len(ratios),
                              cfg.horizon)
    return Table("scan-gamma", {
        "gamma_over_j": ratios, "gamma": gammas,
        "t_over_t0_uncorrelated": _per_t0(
            [t_min_from_rates(base.J, g) for g in gammas.tolist()], t0),
        "t_over_t0_correlated": _per_t0([r.time for r in correlated], t0),
    }, metadata={"t0": t0, "xi_max": xi_val, "J": base.J})


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
    return Table("scan-beta", {
        "beta": betas, "gamma": [p.gamma for p in params], "xi_max": xis,
        "t_over_t0_uncorrelated": _per_t0(
            [t_min_from_rates(p.J, p.gamma) for p in params], t0),
        "t_over_t0_correlated": _per_t0([r.time for r in correlated], t0),
    }, metadata=meta)


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

    # the grid row by row: one J per row, the same xi values along each
    j_fracs, xi_fracs = j_axis.values(), x_axis.values()
    n_j, n_xi = j_fracs.size, xi_fracs.size
    js = j_fracs * jm
    xis = xi_fracs * xi_cap
    labels = region_labels([base.replace(J=j) for j in js.tolist()],
                           np.broadcast_to(xis, (n_j, n_xi)), cfg.horizon)
    return Table("region-map", {
        "j_frac": np.repeat(j_fracs, n_xi), "J": np.repeat(js, n_xi),
        "xi_frac": np.tile(xi_fracs, n_j), "xi": np.tile(xis, n_j),
        "region": labels,
    }, metadata={"beta": beta, "kappa": base.kappa, "gamma": gamma,
                 "j_min": jm, "xi_max": xi_cap})
