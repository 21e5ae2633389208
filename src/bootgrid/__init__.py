"""bootgrid: anisotropic bootstrap-percolation simulation and scaling laws.

Finite-lattice growth rules (standard, modified, (1,2), (1,b), Duarte and
3-d (a,b,c) neighbourhoods), exact, row-packed and bit-lane closures, Monte Carlo
fill-probability and threshold estimation, exact small-case enumeration
oracles, and the closed-form nucleation/critical-volume scaling laws with
their numeric inversion.
"""

from .asymptotics import (
    ExpansionTerms,
    ScalingModel,
    StrategyRange,
    anisotropic_constant,
    bracketing_epsilon,
    critical_log_volume,
    epsilon_window,
    expansion_residual,
    invert_numeric,
    leading_pc,
    nucleation_closed_terms,
    nucleation_log_prob_sum,
    pc_expansion,
    strategy_range,
)
from .growth import (
    GrowthEventSpec,
    GrowthPolynomial,
    estimate_growth_mc,
)
from .lattice import (
    Configuration,
    GridSpec,
    Rect,
    checkerboard_rect,
    empty_configuration,
    from_text,
    full_configuration,
    occupy_rect,
    random_configuration,
    to_text,
)
from .montecarlo import (
    Estimate,
    estimate_pc,
    fill_probability,
    fill_probability_exact,
    fill_success_counts,
)
from .rng import Stream, derive_seed
from .rules import (
    Rule,
    RuleFamily,
    closure_batch,
    closure_fast,
    closure_lanes,
    closure_naive,
    make_rule,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "Configuration",
    "Estimate",
    "ExpansionTerms",
    "GridSpec",
    "GrowthEventSpec",
    "GrowthPolynomial",
    "Rect",
    "Rule",
    "RuleFamily",
    "ScalingModel",
    "Stream",
    "StrategyRange",
    "anisotropic_constant",
    "bracketing_epsilon",
    "checkerboard_rect",
    "closure_batch",
    "closure_fast",
    "closure_lanes",
    "closure_naive",
    "critical_log_volume",
    "derive_seed",
    "empty_configuration",
    "epsilon_window",
    "estimate_growth_mc",
    "estimate_pc",
    "expansion_residual",
    "fill_probability",
    "fill_probability_exact",
    "fill_success_counts",
    "from_text",
    "full_configuration",
    "invert_numeric",
    "leading_pc",
    "make_rule",
    "nucleation_closed_terms",
    "nucleation_log_prob_sum",
    "occupy_rect",
    "pc_expansion",
    "random_configuration",
    "step",
    "strategy_range",
    "to_text",
    "__version__",
]
