"""condflow: conditioning one-dimensional diffusions and lattice walks
upward or downward, with Monte Carlo verification of the underlying
change-of-measure identities.

The library is organized around a small pipeline: describe a diffusion by
its coefficients (model, exprparse), compute its scale function (scale),
form the conditioned dynamics (htransform), simulate with reproducible
counter-based noise (simulate), and compare rejection conditioning,
importance weighting, and direct simulation of the transformed dynamics
(conditioning, stats).  Two self-contained studies round it out: the
sensitivity of nullset conditioning to the approximating sequence
(counterexample) and a lattice jump walk with its exact conditioned
transition probabilities (jumpwalk).
"""

from .conditioning import (
    ConditioningReport,
    Mode,
    StoppedValueAt,
    TimeAverageUntilStop,
    compare_reports,
    condition,
    condition_downward,
    condition_upward,
    direct_sample,
    verify_identity_of_measures,
    verify_local_martingality_of_reciprocal,
)
from .counterexample import TildeEnsemble, build_tilde, compare_conditionings, run_tilde_ensemble
from .errors import (
    CondflowError,
    ConfigError,
    EvalDomainError,
    InsufficientSamplesError,
    NeedLongerHorizonError,
    NumericFailure,
    QuadratureError,
)
from .exprparse import CoeffExpr, ParseError, parse_expr
from .htransform import (
    apply_generator,
    check_generator_identity,
    downward_scale,
    transform,
)
from .jumpwalk import (
    JumpWalkSpec,
    Measure,
    discrete_generator,
    simulate_walk,
    step_distribution,
    verify_generator_limit,
    verify_reciprocal_supermartingale,
    walk_vs_bessel,
    walk_vs_bm,
)
from .model import (
    Const,
    DiffusionSpec,
    Interval,
    McEstimate,
    PathSample,
    bessel3,
    bm,
    gbm,
    named_family,
)
from .scale import (
    BoundaryClass,
    GridConfig,
    Normalization,
    ScaleFunction,
    classify_boundaries,
    compute_scale,
    exact_scale,
)
from .scenarios import SCENARIOS, run_scenario
from .simulate import (
    EnsembleResult,
    SimConfig,
    estimate_hitting_prob,
    exact_bessel3,
    exact_stopped_bm,
    simulate_ensemble,
    simulate_path,
)
from .stats import (
    KsResult,
    ecdf,
    effective_sample_size,
    ks_two_sample,
    ks_weighted,
    weighted_ecdf,
)

__version__ = "0.1.0"
