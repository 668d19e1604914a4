"""Backtesting and calibration engine for concentrated-liquidity pools."""

from .allocation import ProfileParams
from .bucketing import BucketPartition
from .calibration import calibrate_variance, fee_curve, whole_pool_fee
from .engine import BacktestConfig, GasParams, StrategyConfig, run_backtest
from .errors import (BacktestError, CalibrationUnreachableError, ConfigError,
                     DataError)
from .prices import PriceSeries, load_prices
from .config import load_config, parse_config

__version__ = "0.1.0"

__all__ = [
    "BacktestConfig", "BacktestError", "BucketPartition",
    "CalibrationUnreachableError", "ConfigError", "DataError", "GasParams",
    "PriceSeries", "ProfileParams", "StrategyConfig", "calibrate_variance",
    "fee_curve", "load_config", "load_prices", "parse_config", "run_backtest",
    "whole_pool_fee",
]
