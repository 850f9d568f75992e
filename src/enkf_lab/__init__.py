"""Linear-Gaussian filtering lab.

Exact Kalman filter, perturbed-observation ensemble Kalman filter, and a
coupled EnKF / exact-gain reference-ensemble construction, plus a replicated
Monte-Carlo harness that measures how fast ensemble members, means,
covariances, and gains approach their exact-filter counterparts as the
ensemble grows.
"""

from .model import (
    GaussianState,
    LinearModel,
    ModelFormatError,
    StepSpec,
    ValidationError,
    apply_model,
    load_model,
    model_from_dict,
    model_to_dict,
    validate_model,
)
from .kf import (
    GainMatrix,
    KalmanStep,
    KalmanTrajectory,
    kf_analysis,
    kf_forecast,
    kf_gain,
    kf_run,
)
from .ensemble import (
    DrawKey,
    Ensemble,
    Role,
    init_ensemble,
    perturb_data,
    read_ensemble,
    sample_cov,
    sample_mean,
    write_ensemble,
)
from .enkf import (
    CoupledState,
    coupled_run,
    coupled_step,
    enkf_analysis,
    enkf_forecast,
)
from .experiment import (
    ALL_METRICS,
    ConvergenceReport,
    Estimate,
    Metric,
    RateFit,
    StudyConfig,
    fit_rate,
    gain_error,
    mean_cov_error,
    member_lp_error,
    member_moment,
    run_study,
)
from .reference import reference_model, scalar_model

__version__ = "0.1.0"

__all__ = [
    "ALL_METRICS",
    "ConvergenceReport",
    "CoupledState",
    "DrawKey",
    "Ensemble",
    "Estimate",
    "GainMatrix",
    "GaussianState",
    "KalmanStep",
    "KalmanTrajectory",
    "LinearModel",
    "Metric",
    "ModelFormatError",
    "RateFit",
    "Role",
    "StepSpec",
    "StudyConfig",
    "ValidationError",
    "apply_model",
    "coupled_run",
    "coupled_step",
    "enkf_analysis",
    "enkf_forecast",
    "fit_rate",
    "gain_error",
    "init_ensemble",
    "kf_analysis",
    "kf_forecast",
    "kf_gain",
    "kf_run",
    "load_model",
    "mean_cov_error",
    "member_lp_error",
    "member_moment",
    "model_from_dict",
    "model_to_dict",
    "perturb_data",
    "read_ensemble",
    "reference_model",
    "run_study",
    "sample_cov",
    "sample_mean",
    "scalar_model",
    "validate_model",
    "write_ensemble",
]
