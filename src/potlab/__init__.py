"""Numerical potential-theory laboratory on tree boundaries and model
Ahlfors-regular spaces: capacities, equilibrium measures, quasi-additivity
experiments, dyadic Poisson extensions, and boundary-convergence runs."""

# numpy loads this on first use, about 18 ms; importing it here keeps that
# cost in start-up, not in a run
import numpy.random  # noqa: F401

from .space import ModelSpace, model_space, ahlfors_constants, dump_space, load_space
from .kernel import RadialKernel, convolve_naive, lp_norm, kernel_operator
from .capacity import (CapacitySolution, solve_capacity, capacity_value, capacity_p2_exact,
                       singleton_capacity, uniform_ball_capacity,
                       metric_matching_radius,
                       ball_capacity_profile, theoretical_profile_slope,
                       EnlargementRadius)
from .quasiadd import (SeparatedFamily, ExperimentReport, tree_quasi_additivity_bound,
                       generate_separated_family, verify_separation,
                       quasi_additivity_report, family_target_sets, family_batch)
from .poisson import (PoissonExtension, dyadic_heights, poisson_extension,
                      harnack_constant, harnack_check,
                      exchange_ratio, exchange_band, lipschitz_profile)
from .convergence import (region_radius, thinness_decay,
                          approximation_split, convergence_experiment,
                          ThinSetReport, SplitResult, ConvergenceTable)

__version__ = "0.1.0"
