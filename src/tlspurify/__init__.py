"""Simulation and analysis toolkit for driving a qubit to its purest
reachable state while it is strongly coupled to a lossy two-level defect.

Layers, from the full model down to closed forms:

- ``model``       parameters, thermal rates, initial-state family
- ``liouville``   full 16-coordinate dynamics (rotating and lab frames)
- ``reduced``     closed 8-coordinate dynamics and spherical coordinates
- ``drive``       drive protocols (resonant, constant-detuning, tabulated)
- ``integrator``  embedded Runge-Kutta stepper with events & dense output,
                  and exact propagation of constant-coefficient flows
- ``optimal``     pole times, stall analysis, coherence purity gain
- ``verify``      self-check suite with measured residuals
- ``sweeps``      table builders behind the CLI commands
- ``cli``         the ``tlspurify`` command
"""

from .drive import ConstantDrive, Drive, TableDrive, resonant
from .integrator import EventSpec, IvpResult, StepStats, Trajectory, integrate
from .liouville import (qubit_purity, qubit_reduced, rwa_generator, simulate,
                        tls_purity, tls_reduced)
from .model import (BathRates, DensityState, InitialStateSpec, ModelParams,
                    bath_rates, build_initial_state, matrix_to_x,
                    min_eigenvalue, mu_max, thermal_populations, x_to_matrix,
                    xi_max)
from .optimal import (classify_region, classify_regime, compile_u_control,
                      delta_from_u, delta_p, first_events, fixed_point_theta,
                      initial_spherical, is_divergent, j_min, pole_gains,
                      pole_purity_ceiling, region_labels, s2_first_zero,
                      s2_resonant_solution, stall_cosine, t_min_analytic,
                      t_min_from_rates, t_min_numeric,
                      uncorrelated_pole_purity, xi_fixed)
from .reduced import (make_rhs_s1, make_rhs_z, simulate_z, spherical_to_z_s1,
                      x_to_z, z_generator, z_purity, z_to_spherical)
from .verify import CheckResult, run_suite, suite_passed

__version__ = "0.1.0"

__all__ = [
    "BathRates", "CheckResult", "ConstantDrive", "DensityState", "Drive",
    "EventSpec", "InitialStateSpec", "IvpResult", "ModelParams", "StepStats",
    "TableDrive", "Trajectory", "bath_rates", "build_initial_state",
    "classify_region", "classify_regime", "compile_u_control", "delta_from_u",
    "delta_p", "first_events", "fixed_point_theta", "initial_spherical",
    "integrate", "is_divergent", "j_min", "make_rhs_s1", "make_rhs_z",
    "matrix_to_x", "min_eigenvalue", "mu_max", "pole_gains",
    "pole_purity_ceiling", "qubit_purity", "qubit_reduced",
    "region_labels", "resonant", "run_suite", "rwa_generator",
    "s2_first_zero", "s2_resonant_solution", "simulate", "simulate_z",
    "spherical_to_z_s1", "stall_cosine", "suite_passed", "t_min_analytic",
    "t_min_from_rates", "t_min_numeric", "thermal_populations", "tls_purity",
    "tls_reduced", "uncorrelated_pole_purity", "x_to_matrix", "x_to_z",
    "xi_fixed", "z_generator", "z_purity", "z_to_spherical", "__version__",
]
