"""Randomized, reproducible verification of matrix inequality chains.

The package turns a family of scalar, operator, trace and norm inequality
chains into executable property checks over random finite-dimensional real
matrices: every chain is evaluated term by term, adjacent terms are compared
under explicit tolerances, and each trial is replayable from its seed.
"""

__version__ = "0.8.0"

from .errors import (
    AsymmetricInputError,
    BadRangeError,
    ConfigError,
    ConvergenceError,
    DegenerateIntervalError,
    DimMismatchError,
    DomainViolationError,
    NodeCountError,
    NonFiniteInputError,
    NonFiniteSampleError,
    NonPositiveInputError,
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
    NotSquareError,
    SchattenOrderError,
    SingularPowerError,
    UnknownTheoremError,
    VerificationError,
)
from .functions import (
    ConvexityVerdict,
    FunctionSpec,
    ag_gg_transport_check,
    is_ag_convex,
    is_gg_convex,
    parse_function,
    scalar_mean_chain,
)
from .linalg import (
    CommutingPair,
    LoewnerOrdering,
    LoewnerVerdict,
    SpectralDecomp,
    commuting_weighted_product,
    det_pd,
    eigh,
    loewner_compare,
    matrix_function,
    operator_norm_sym,
    pd_power,
    weighted_geometric_mean,
)
from .norms import NormSpec, norm, parse_norm, singular_values, trace
from .quadrature import (
    gl_rule,
    integrate_matrix,
    integrate_matrix_checked,
    integrate_scalar,
    integrate_scalar_checked,
)
from .sampler import (
    RandomStream,
    derive_trial_seed,
    random_commuting_pair,
    random_general,
    random_orthogonal,
    random_spd,
    splitmix64,
)
from .chains import (
    ChainReport,
    Comparison,
    InequalityReport,
    OrderChainReport,
    PhiDiagonal,
    PhiOperator,
    PhiSandwich,
    TraceVariant,
    UinVariant,
    ag_convexity_witness,
    am_gm_loewner_check,
    det_ag_concavity_check,
    dragomir_operator_chain,
    kittaneh_check,
    norm_power_check,
    operator_ag_midpoint_order_chain,
    operator_gg_hh_order_chain,
    operator_norm_gg_chain,
    scalar_hh_chain,
    scalar_mean_chain_report,
    trace_chain,
    uin_chain,
)
from .campaign import (
    ABLATION_FLAGS,
    THEOREM_IDS,
    CampaignConfig,
    CampaignReport,
    TheoremStats,
    WitnessOutcome,
    demo_trial,
    run_campaign,
    run_trial,
    select_theorems,
    serialize_report,
)

