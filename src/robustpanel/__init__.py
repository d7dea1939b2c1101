"""Robust M-estimation for fixed-effects panel models.

Within-group least squares plus Huber, Tukey bisquare, and exponential
squared loss M-estimators with data-driven tuning-constant selection, a
contamination-aware Monte Carlo harness, and CSV/CLI plumbing.

The names below are the documented entry points.  Kernels, result types
and the finer error classes are imported from their own modules
(``robustpanel.tuning``, ``robustpanel.errors``, ...).
"""

from .errors import DataError, EstimationError, RobustPanelError
from .estimators import fit_esl, fit_estimator, fit_mestimator, high_breakdown_init
from .io import ExperimentConfig, parse_config, read_panel_csv, write_panel_csv
from .panel import PanelData, within_ls
from .simulation import (
    ContaminationScheme,
    DgpConfig,
    rmse_prediction_study,
    run_experiment,
    run_mc,
)

__all__ = [
    "ContaminationScheme",
    "DataError",
    "DgpConfig",
    "EstimationError",
    "ExperimentConfig",
    "PanelData",
    "RobustPanelError",
    "fit_esl",
    "fit_estimator",
    "fit_mestimator",
    "high_breakdown_init",
    "parse_config",
    "read_panel_csv",
    "rmse_prediction_study",
    "run_experiment",
    "run_mc",
    "within_ls",
    "write_panel_csv",
]
