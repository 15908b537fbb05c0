"""Weighted Hermite and power variations of fractional Brownian motion.

Exact dyadic-grid fBm samplers, Hermite polynomial algebra in the
H_q = He_q / q! normalisation, numerical evaluation of every asymptotic
constant of the central/non-central limit theorems for weighted power
variations, Hermite-process simulation, and seeded Monte Carlo
experiments verifying each limit theorem at desk scale.
"""

from .constants import (
    RegimeCase,
    ScalingRegime,
    TruncatedSeries,
    classify_regime,
    hermite_process_variance_const,
    renorm_factor,
    rho_power_sum,
    sigma_clt,
    sigma_critical_high,
    sigma_critical_high_corrected,
    sigma_tilde,
    sigma_tilde_critical,
    sigma_tilde_critical_corrected,
)
from .errors import (
    CirculantEmbeddingError,
    ConfigError,
    DomainError,
    FbmvarError,
    GridAlignmentError,
    RegimeError,
    SeriesDivergenceError,
    SizeLimitError,
)
from .experiments import (
    EXPERIMENT_IDS,
    ExperimentConfig,
    ExperimentReport,
    run_clt,
    run_conjecture_quarter,
    run_corollary,
    run_critical_high,
    run_experiment,
    run_noncentral,
    run_small_h,
    run_trapezoid,
    variance_order_audit,
)
from .fbm import (
    FbmPath,
    coarsen,
    fbm_covariance,
    read_binary,
    rho,
    sample_fbm_cholesky,
    sample_fbm_circulant,
    write_binary,
    write_csv,
)
from .hermite import (
    HermiteCoefficients,
    gaussian_moment,
    hermite_eval,
    monomial_in_hermite,
)
from .hermite_process import HermiteApprox, simulate_hermite, young_integral
from .variations import (
    DiagnosticSums,
    VariationStatistic,
    beta_sums,
    centered_power_second_moment,
    diagnostic_sums,
    renormalize,
    unweighted_second_moment,
    weighted_hermite_variation,
    weighted_power_variation,
)
from .weights import (
    ConstantOne,
    Cosine,
    Exponential,
    Polynomial,
    Sine,
    WeightFunction,
    parse_weight,
)

__version__ = "0.1.0"
