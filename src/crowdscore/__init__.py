"""Perceptual quality scoring for 2D crowd trajectories.

Feature extraction (21 trajectory features), a Gaussian-penalty quality
function with trainable weights, degradation-based training-set generation,
a social-forces simulator, and a GA tuner that searches simulator parameters
maximizing the score.
"""

__version__ = "0.1.0"

from .errors import ConfigError, CrowdScoreError, DataError
from .features import FEATURE_CODES, extract
from .genetic import GaConfig, GaResult, ga_optimize
from .quality import (
    QualityScore,
    ReferenceStats,
    WeightVector,
    combine,
    cost,
    default_weights,
    fit_reference,
    fit_reference_from_crowds,
    load_reference_stats,
    load_weights,
    radar,
    save_reference_stats,
    save_weights,
    score,
)
from .csvio import load_trajectory_csv, save_trajectory_csv
from .simulator import Scenario, SocialForcesParams, make_scenario, simulate
from .training import build_training_set, check_correlations, degrade, train_weights
from .trajectory import (
    CrowdTrajectory,
    derive_kinematics,
    resample,
    to_canonical,
    validate,
)
from .tuning import TuneConfig, TuneResult, quartile, tune

__all__ = [
    "__version__",
    "ConfigError",
    "CrowdScoreError",
    "DataError",
    "FEATURE_CODES",
    "extract",
    "GaConfig",
    "GaResult",
    "ga_optimize",
    "QualityScore",
    "ReferenceStats",
    "WeightVector",
    "combine",
    "cost",
    "default_weights",
    "fit_reference",
    "fit_reference_from_crowds",
    "load_reference_stats",
    "load_weights",
    "radar",
    "save_reference_stats",
    "save_weights",
    "score",
    "load_trajectory_csv",
    "save_trajectory_csv",
    "Scenario",
    "SocialForcesParams",
    "make_scenario",
    "simulate",
    "build_training_set",
    "check_correlations",
    "degrade",
    "train_weights",
    "CrowdTrajectory",
    "derive_kinematics",
    "resample",
    "to_canonical",
    "validate",
    "TuneConfig",
    "TuneResult",
    "quartile",
    "tune",
]
