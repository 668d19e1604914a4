"""Flat key-value run configuration.

One ``key = value`` pair per line; blank lines and ``#`` comments are
ignored.  Unknown and duplicate keys are rejected outright, as are keys
that only apply to a strategy other than the configured one, so a typo
cannot silently change a run.

Keys
----
lower, upper, buckets   price partition (required)
tau                     reset half-width in buckets (required)
strategy                uniform | random | custom | normal (required)
weights                 comma-separated bucket weights (custom only)
seed                    non-negative integer RNG seed (random only)
mu, variance, bound     bell-curve profile (normal only; bound default 3)
capital                 deployable capital in token B (required)
fee_rate                pool fee rate in (0, 1) (required)
mint_gas, burn_gas      gas units per position mint/burn (defaults 430000/215000)
gas_price_gwei          gas price (default 100)
gas_token_price         constant token-B price of the gas token; leave
                        unset when token A itself is the gas token
reinvest                reinvest | exclude | fix-at-level (default exclude)
volume_cap              cap on reported token-B volume (optional)
price_mode              strict | clamp (default strict)
"""

from __future__ import annotations

import numpy as np

from .allocation import ProfileParams
from .bucketing import BucketPartition
from .engine import BacktestConfig, GasParams, StrategyConfig
from .errors import ConfigError

_KEYS = {
    "lower", "upper", "buckets", "tau", "strategy", "weights", "seed",
    "mu", "variance", "bound", "capital", "fee_rate", "mint_gas", "burn_gas",
    "gas_price_gwei", "gas_token_price", "reinvest", "volume_cap", "price_mode",
}
_REQUIRED = ("lower", "upper", "buckets", "tau", "strategy", "capital", "fee_rate")
_STRATEGY_KEYS = {
    "uniform": set(),
    "random": {"seed"},
    "custom": {"weights"},
    "normal": {"mu", "variance", "bound"},
}


def _parse_pairs(text: str) -> dict:
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}", key=key)
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}", key=key)
        if value != "":
            pairs[key] = value
    return pairs


def _get_float(pairs: dict, key: str) -> float:
    try:
        return float(pairs[key])
    except ValueError:
        raise ConfigError(f"cannot parse {key} = {pairs[key]!r} as a number",
                          key=key) from None


def _get_int(pairs: dict, key: str) -> int:
    try:
        return int(pairs[key])
    except ValueError:
        raise ConfigError(f"cannot parse {key} = {pairs[key]!r} as an integer",
                          key=key) from None


_VALID_PROFILE = {"mu": 0.0, "variance": 1.0, "bound": 3.0}


def _profile(values: dict) -> ProfileParams:
    """The bell-curve profile, or a ConfigError under the key of the first
    value (mu, variance, bound) that ``ProfileParams`` rejects on its own."""
    for key in _VALID_PROFILE:
        try:
            ProfileParams(**{**_VALID_PROFILE, key: values[key]})
        except ValueError as err:
            raise ConfigError(str(err), key=key) from None
    return ProfileParams(**values)


def parse_config(text: str) -> BacktestConfig:
    """Parse config text into a validated BacktestConfig."""
    pairs = _parse_pairs(text)
    missing = [k for k in _REQUIRED if k not in pairs]
    if missing:
        raise ConfigError(f"missing required key(s): {', '.join(missing)}",
                          key=missing[0])

    strategy_mode = pairs["strategy"]
    if strategy_mode not in _STRATEGY_KEYS:
        raise ConfigError(f"unknown strategy {strategy_mode!r}", key="strategy")
    for mode, keys in _STRATEGY_KEYS.items():
        if mode == strategy_mode:
            continue
        stray = sorted(keys & pairs.keys() - _STRATEGY_KEYS[strategy_mode])
        if stray:
            raise ConfigError(f"key {stray[0]!r} only applies to strategy={mode}",
                              key=stray[0])

    try:
        partition = BucketPartition(_get_float(pairs, "lower"),
                                    _get_float(pairs, "upper"),
                                    _get_int(pairs, "buckets"))
    except ValueError as err:
        raise ConfigError(str(err), key="lower") from None

    weights = None
    seed = None
    profile = None
    if strategy_mode == "custom":
        if "weights" not in pairs:
            raise ConfigError("strategy=custom needs a weights list", key="weights")
        try:
            weights = np.array([float(w) for w in pairs["weights"].split(",")])
        except ValueError:
            raise ConfigError("cannot parse weights as comma-separated numbers",
                              key="weights") from None
    elif strategy_mode == "random":
        if "seed" not in pairs:
            raise ConfigError("strategy=random needs a seed", key="seed")
        seed = _get_int(pairs, "seed")
    elif strategy_mode == "normal":
        for k in ("mu", "variance"):
            if k not in pairs:
                raise ConfigError(f"strategy=normal needs {k}", key=k)
        profile = _profile({"mu": _get_float(pairs, "mu"),
                            "variance": _get_float(pairs, "variance"),
                            "bound": _get_float(pairs, "bound") if "bound" in pairs else 3.0})

    gas = GasParams(
        mint_gas=_get_int(pairs, "mint_gas") if "mint_gas" in pairs else 430_000,
        burn_gas=_get_int(pairs, "burn_gas") if "burn_gas" in pairs else 215_000,
        gas_price_gwei=_get_float(pairs, "gas_price_gwei")
        if "gas_price_gwei" in pairs else 100.0,
        gas_token_price=_get_float(pairs, "gas_token_price")
        if "gas_token_price" in pairs else None,
    )

    config = BacktestConfig(
        partition=partition,
        tau=_get_int(pairs, "tau"),
        strategy=StrategyConfig(strategy_mode, weights=weights, seed=seed,
                                profile=profile),
        capital=_get_float(pairs, "capital"),
        fee_rate=_get_float(pairs, "fee_rate"),
        gas=gas,
        reinvest_mode=pairs.get("reinvest", "exclude"),
        volume_cap=_get_float(pairs, "volume_cap") if "volume_cap" in pairs else None,
        price_mode=pairs.get("price_mode", "strict"),
    )
    config.validate()
    return config


def load_config(path) -> BacktestConfig:
    """Read and parse a config file."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    return parse_config(text)
