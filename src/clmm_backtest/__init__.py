"""Backtesting and calibration engine for concentrated-liquidity pools."""

from .allocation import (AllocationWeights, EpochAllocation, ProfileParams,
                         allocate_epoch, custom_weights, normal_profile_weights,
                         random_band_weights, uniform_band_weights)
from .bucketing import BucketPartition, Epoch, EpochPlan, segment_epochs
from .calibration import (CalibrationResult, FeeCurve, calibrate_over_mu,
                          calibrate_variance, fee_curve, whole_pool_fee)
from .core_math import (CapitalSplit, PriceRange, ReservePair, invariant_residual,
                        liquidity_from_x, liquidity_from_y, liquidity_state,
                        position_value, split_capital)
from .engine import (BacktestConfig, BacktestReport, FeeLedger, GasBreakdown,
                     GasParams, StrategyConfig, buy_and_hold, gas_cost,
                     run_backtest)
from .errors import (BacktestError, CalibrationUnreachableError, ConfigError,
                     DataError)
from .prices import PriceSeries, load_prices, write_prices
from .config import load_config, parse_config

__version__ = "0.1.0"

__all__ = [
    "AllocationWeights", "BacktestConfig", "BacktestError", "BacktestReport",
    "BucketPartition", "CalibrationResult", "CalibrationUnreachableError",
    "CapitalSplit", "ConfigError", "DataError", "Epoch", "EpochAllocation",
    "EpochPlan", "FeeCurve", "FeeLedger", "GasBreakdown", "GasParams",
    "PriceRange", "PriceSeries", "ProfileParams", "ReservePair",
    "StrategyConfig", "allocate_epoch", "buy_and_hold", "calibrate_over_mu",
    "calibrate_variance", "custom_weights", "fee_curve", "gas_cost",
    "invariant_residual", "liquidity_from_x", "liquidity_from_y",
    "liquidity_state", "load_config", "load_prices", "normal_profile_weights",
    "parse_config", "position_value", "random_band_weights", "run_backtest",
    "segment_epochs", "split_capital", "uniform_band_weights", "whole_pool_fee",
    "write_prices",
]
