"""Simulation and verification toolkit for de Haan-type max-stable fields.

Simulates the Smith, Brown-Resnick, moving-maxima and general spectral
constructions, computes finite-dimensional distributions, and numerically
verifies that stationarity of the general construction is equivalent to a
Gaussian spectral vector with quadratic normalizer.
"""

from .fdd import (
    ExponentValue,
    FddQuery,
    empirical_cdf,
    exponent_mc,
    fdd_cdf,
    frechet_cdf,
    husler_reiss_V,
    ks_distance,
)
from .pointproc import FrechetCascade, StormSet, frechet_cascade, storm_set
from .seeding import DEFAULT_SEED, derive_rng
from .simulator import (
    Field,
    Grid,
    Variogram,
    simulate_brown_resnick,
    simulate_general,
    simulate_moving_maxima,
    simulate_smith,
)
from .spectral import (
    DomainError,
    Exponential,
    Gamma,
    Gaussian,
    ShapeFunction,
    SimplexWeights,
    SpectralDistribution,
    Uniform,
    cgf,
    cgf_gradient,
    cgf_multi,
    format_distribution,
    parse_distribution,
    sample,
)
from .stationarity import (
    CriterionConfig,
    DefectReport,
    defect,
    gradient_affinity_defect,
    quadratic_fit_check,
    search_violation,
    verify_characterization,
)

__version__ = "0.1.0"
