"""Microbenchmark probes.

Every probe returns a Sample: its sample count, median, and the highest
quantile with at least ten samples above it.  The probes call only public
functions of the package, at the parameters of the run's trajectories
config.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter


@dataclass(frozen=True)
class Sample:
    n: int
    median: float
    upper_q: float
    upper: float

    @staticmethod
    def of(values: list[float]) -> "Sample":
        vs = sorted(values)
        n = len(vs)
        k = max(0, n - 11)          # ten samples lie above vs[k]
        return Sample(n, statistics.median(vs), (k + 1) / n, vs[k])


def per_call(fn, calls: int, samples: int) -> Sample:
    """Time fn() in batches of `calls`; one sample is the mean time per
    call, in microseconds."""
    fn()                            # warm caches before timing
    out = []
    for _ in range(samples):
        t = perf_counter()
        for _ in range(calls):
            fn()
        out.append(1e6 * (perf_counter() - t) / calls)
    return Sample.of(out)


def rhs_probes(cfg, detuned_cfg) -> dict[str, Sample]:
    """One RHS evaluation of each flow, in microseconds."""
    import numpy as np
    from tlspurify.drive import resonant
    from tlspurify.liouville import make_rhs_lab, make_rhs_rwa
    from tlspurify.model import InitialStateSpec, build_initial_state, mu_max, xi_max
    from tlspurify.optimal import initial_spherical
    from tlspurify.reduced import make_rhs_rct, make_rhs_z, x_to_z

    p = cfg.params()
    xi = 0.5 * xi_max(p)
    x = build_initial_state(p, InitialStateSpec(mu_q=0.5 * mu_max(p, xi), xi_re=xi)).x
    z = x_to_z(x)
    y = np.array(initial_spherical(p, xi))
    flows = {
        "liouville.rhs_rwa_us": (make_rhs_rwa(p, resonant()), x, 200),
        "liouville.rhs_rwa_detuned_us": (make_rhs_rwa(p, detuned_cfg.drive()), x, 50),
        "liouville.rhs_lab_us": (make_rhs_lab(p, resonant()), x, 10),
        "reduced.rhs_z_us": (make_rhs_z(p), z, 200),
        "reduced.rhs_rct_us": (make_rhs_rct(p), y, 200),
    }
    return {name: per_call(lambda f=f, v=v: f(0.3, v), calls, 100)
            for name, (f, v, calls) in flows.items()}


def step_probe(cfg) -> Sample:
    """One adaptive Dormand-Prince step of the z flow (six RHS evaluations
    plus the controller), in microseconds: a whole integrate() call over
    one lossless pole time, divided by its attempted steps."""
    from tlspurify.model import InitialStateSpec, build_initial_state, xi_max
    from tlspurify.reduced import make_rhs_z, x_to_z
    from tlspurify.integrator import integrate

    p = cfg.params()
    z0 = x_to_z(build_initial_state(p, InitialStateSpec(xi_re=0.5 * xi_max(p))).x)
    rhs = make_rhs_z(p)
    out = []
    for _ in range(40):
        t = perf_counter()
        res = integrate(rhs, (0.0, p.t0), z0, rtol=cfg.rel_tol, atol=cfg.abs_tol)
        elapsed = perf_counter() - t
        out.append(1e6 * elapsed / (res.stats.accepted + res.stats.rejected))
    return Sample.of(out)


def render_probe(table, cfg, fmt: str, path: Path) -> Sample:
    """Render and write the table, in microseconds per row."""
    from tlspurify.output import write_table

    rows = max(1, len(table.rows))
    out = []
    for _ in range(30):
        t = perf_counter()
        write_table(table, cfg, fmt=fmt, out=path)
        out.append(1e6 * (perf_counter() - t) / rows)
    return Sample.of(out)


def fanout_probe(config_path: Path) -> tuple[Sample, Sample]:
    """scan_gamma on a 2-cell grid at workers 1 and 2, in milliseconds,
    alternating which runs first."""
    from tlspurify.config import load_config
    from tlspurify.sweeps import scan_gamma

    cfg = load_config(config_path)
    w1, w2 = cfg.override(workers=1), cfg.override(workers=2)
    t1, t2 = [], []
    for k in range(24):
        for c, sink in ((w1, t1), (w2, t2)) if k % 2 == 0 else ((w2, t2), (w1, t1)):
            t = perf_counter()
            scan_gamma(c)
            sink.append(1e3 * (perf_counter() - t))
    return Sample.of(t1), Sample.of(t2)


def pole_rel_err(cells: list, cfg) -> tuple[float, float | None, list[float]]:
    """Numeric against closed-form pole times at xi = 0, over the cells
    whose closed-form time is finite and inside the run's horizon: the
    largest relative gap among the runs that arrive, the gamma/J where it
    sits, and the gamma/J of every cell whose run does not arrive."""
    from tlspurify.optimal import t_min_from_rates, t_min_numeric

    worst, where, missed = 0.0, None, []
    for p in cells:
        exact = t_min_from_rates(p.J, p.gamma)
        if not exact < cfg.horizon * p.t0:
            continue
        run = t_min_numeric(p, 0.0, horizon_mult=cfg.horizon,
                            rtol=cfg.rel_tol, atol=cfg.abs_tol)
        if run.status != "reached":
            missed.append(p.gamma / p.J)
            continue
        err = abs(run.time - exact) / exact
        if err > worst:
            worst, where = err, p.gamma / p.J
    return worst, where, missed
