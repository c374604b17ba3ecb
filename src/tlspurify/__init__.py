"""Simulation and analysis toolkit for driving a qubit to its purest
reachable state while it is strongly coupled to a lossy two-level defect.

Layers, from the full model down to closed forms:

- ``model``       parameters, thermal rates, initial-state family
- ``liouville``   full 16-coordinate dynamics (rotating and lab frames)
- ``reduced``     closed 8-coordinate dynamics and the S1 direction flow
- ``drive``       the control: a constant detuning, resonant by default
- ``integrator``  exact propagation of the constant-coefficient flows, and
                  an embedded Runge-Kutta stepper, the independent side of
                  the checks; each returns states and step counts
- ``pole``        closed forms of the u == 0 flow: pole times, stall
                  labels, resonant purity, on numpy and ``model`` alone
- ``optimal``     pole-engine names the benchmark imports from here
- ``verify``      self-check suite with measured residuals
- ``scans``       the pole-engine sweeps: scan-gamma, scan-beta, region-map
- ``sweeps``      the other table builders behind the CLI
- ``cli``         the ``tlspurify`` command

Importing the package loads none of its modules, and the package root
offers no names but ``__version__``: import each name from the module
that defines it, so ``import tlspurify.cli`` costs only the CLI, the
config and the writer, and a command loads the modules its driver uses.
"""

__version__ = "0.1.0"
