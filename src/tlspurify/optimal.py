"""The pole-engine names the benchmark imports from here.  Every closed
form of the time-optimal (resonant, u == 0) runs lives in ``pole``."""

from .pole import (initial_spherical, is_divergent,  # noqa: F401
                   stall_cosine, t_min_from_rates, t_min_numeric)
