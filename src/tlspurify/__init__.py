"""Simulation and analysis toolkit for driving a qubit to its purest
reachable state while it is strongly coupled to a lossy two-level defect.

Layers, from the full model down to closed forms:

- ``model``       parameters, thermal rates, initial-state family
- ``liouville``   full 16-coordinate dynamics (rotating and lab frames)
- ``reduced``     closed 8-coordinate dynamics and spherical coordinates
- ``drive``       the control: a constant detuning, resonant by default
- ``integrator``  exact propagation of the constant-coefficient flows, and
                  an embedded Runge-Kutta stepper with dense output, the
                  independent side of the checks
- ``pole``        closed-form engine of the u == 0 flow: pole times and
                  stall labels, on numpy and ``model`` alone
- ``optimal``     coherence purity gain and stall analysis; re-exports the
                  ``pole`` names
- ``verify``      self-check suite with measured residuals
- ``scans``       the pole-engine sweeps: scan-gamma, scan-beta, region-map
- ``sweeps``      the other table builders behind the CLI
- ``cli``         the ``tlspurify`` command

Importing the package loads none of its modules.  Each name of
``__all__`` is imported from its home module on first access (PEP 562),
so ``import tlspurify.cli`` costs only the CLI, the config and the
writer, and a command loads the modules its driver uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: home module of every name the package root resolves: those of __all__,
#: and xi_max, which the root has always offered outside __all__
_EXPORTS = {
    "drive": ("ConstantDrive", "resonant"),
    "integrator": ("IvpResult", "Trajectory", "integrate"),
    "liouville": ("qubit_purity", "qubit_reduced", "rwa_generator",
                  "simulate", "tls_purity", "tls_reduced"),
    "model": ("BathRates", "DensityState", "InitialStateSpec", "ModelParams",
              "StepStats", "bath_rates", "build_initial_state",
              "matrix_to_x", "min_eigenvalue", "mu_max",
              "thermal_populations", "x_to_matrix", "xi_max"),
    "optimal": ("delta_p", "fixed_point_theta", "pole_gains",
                "pole_purity_ceiling", "s2_first_zero", "s2_resonant_solution",
                "uncorrelated_pole_purity", "xi_fixed"),
    "pole": ("classify_region", "classify_regime", "first_events",
             "initial_spherical", "is_divergent", "j_min", "region_labels",
             "stall_cosine", "t_min_analytic", "t_min_from_rates",
             "t_min_numeric"),
    "reduced": ("make_rhs_s1", "make_rhs_z", "simulate_z",
                "spherical_to_z_s1", "x_to_z", "z_generator", "z_purity",
                "z_to_spherical"),
    "verify": ("CheckResult", "run_suite", "suite_passed"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = sorted(name for name in _HOME if name != "xi_max")
__all__.append("__version__")


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
