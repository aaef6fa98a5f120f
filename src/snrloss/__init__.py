"""Distribution of the adaptive-filter SNR loss under covariance mismatch.

The package computes, approximates and Monte-Carlo-validates the
distribution of the SNR loss of a filter trained on samples whose
covariance differs from the operating covariance: exact closed forms where
they exist, generalized-eigenrelation moment fits, and a three-cumulant
scaled-F fit for arbitrary mismatch.
"""

from .approximation import (
    Analysis,
    LossDistribution,
    PearsonFit,
    ScaledChi2Fit,
    ScaledFFit,
    analyze,
    loss_mean,
    pearson_three_moment,
    scaled_chi2_two_moment,
    scaled_f_cumulants,
    scaled_f_fit,
    scaled_f_laws,
)
from .errors import SnrLossError
from .mismatch import (
    CumulantTriple,
    OmegaDecomposition,
    QuadraticFormSpec,
    build_omega,
    c_coefficients,
    cumulants_q,
    to_quadratic_form,
)
from .montecarlo import (
    empirical_summary,
    ks_statistic,
    pair_digest,
    simulate_loss_direct,
    simulate_loss_representation,
    two_sample_ks,
)
from .sampling import (
    RngStream,
    sample_wishart_factor,
)
from .scenarios import (
    ArrayScenario,
    Covariance,
    ScenarioPair,
    eigenvalue_mismatch,
    ger_blockdiag_mismatch,
    interference_covariance,
    inverse_wishart_mismatch,
    mpdr_mismatch,
    no_mismatch,
    random_ger_blockdiag_mismatch,
    steering_vector,
    surprise_interference,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
