"""Simulation and verification toolkit for de Haan-type max-stable fields.

Simulates the Smith, Brown-Resnick, moving-maxima and general spectral
constructions, computes finite-dimensional distributions, and numerically
verifies that stationarity of the general construction is equivalent to a
Gaussian spectral vector with quadratic normalizer.
"""

from .fdd import (
    ExponentValue,
    FddQuery,
    exponent_mc,
    frechet_cdf,
    husler_reiss_V,
    ks_distance,
)
from .pointproc import FrechetCascade, frechet_cascade
from .seeding import DEFAULT_SEED, derive_rng
from .simulator import (
    Field,
    Grid,
    PreparedLaw,
    Variogram,
    prepare_brown_resnick,
    prepare_general,
    prepare_moving_maxima,
    prepare_smith,
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
    parse_distribution,
)
from .stationarity import (
    CriterionConfig,
    DefectReport,
    defect,
    gradient_affinity_defect,
    search_violation,
    verify_characterization,
)

__version__ = "0.1.0"
