"""Semi-discrete optimal transport with smoothed duals.

Modules:
    core      measures, costs, samplers
    noise     plain and smoothed c-transforms, marginal noise families,
              choice probabilities
    solver    averaged SGD, damped Newton and LP reference solvers
    hardness  knapsack-volume recovery through two-atom transport
    cli       experiment runner, slope fits, SVG plots, command line
"""

from sdot.core import (
    CostSpec,
    DiscreteMeasure,
    SamplerSpec,
    cost_matrix,
    derive_seed,
    draw,
)
from sdot.noise import (
    MarginalModel,
    choice_jacobian,
    choice_probabilities,
    marginal_lipschitz,
    probs_from_utilities,
    smooth_c_transform,
)
from sdot.solver import (
    SolverConfig,
    averaged_sgd,
    damped_newton,
    dual_objective_estimate,
    exact_discrete_ot,
    finite_sample_reference,
    sgd_config,
)
from sdot.hardness import (
    KnapsackInstance,
    QuadratureSpec,
    binary_search_min,
    exact_knapsack_volume,
    knapsack_volume_via_ot,
    wc_two_point,
)

__version__ = "0.1.0"
