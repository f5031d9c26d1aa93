"""Federated gradient boosting with encrypted aggregation on synthetic 2D data."""

from .config import ExperimentConfig, default_config, load_config, two_client_noniid
from .protocol import RoundRecord
from .runner import ExperimentResult, run_experiment

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "RoundRecord",
    "default_config",
    "load_config",
    "run_experiment",
    "two_client_noniid",
]
