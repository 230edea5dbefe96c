"""Experiment harness: config files, seeded randomness, scenario
orchestration, and report emission."""

from .config import Config, ConfigError, config_from_dict, load_config
from .report import ScenarioReport, write_csv
from .rng import Rng
from .scenarios import run_scenario

__all__ = [
    "Config",
    "ConfigError",
    "Rng",
    "ScenarioReport",
    "config_from_dict",
    "load_config",
    "run_scenario",
    "write_csv",
]
