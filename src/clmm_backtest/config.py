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
mu, variance, bound     bell-curve profile (normal only; bound optional)
capital                 deployable capital in token B (required)
fee_rate                pool fee rate in (0, 1) (required)
mint_gas, burn_gas      gas units per position mint/burn (optional)
gas_price_gwei          gas price (optional)
gas_token_price         constant token-B price of the gas token; leave
                        unset when token A itself is the gas token
reinvest                reinvest | exclude | fix-at-level (optional)
volume_cap              cap on reported token-B volume (optional)
price_mode              strict | clamp (optional)

Parsing passes on only the keys a file sets, so an unset key takes the
default of the dataclass field that holds it (``ProfileParams``,
``GasParams``, ``BacktestConfig``).  Each value is checked by that
dataclass when it is made, and its ConfigError names the key.
"""

from __future__ import annotations

from dataclasses import MISSING, fields

from .allocation import ProfileParams
from .bucketing import BucketPartition
from .engine import BacktestConfig, GasParams, StrategyConfig
from .errors import ConfigError

_INTS = {"buckets", "tau", "seed", "mint_gas", "burn_gas"}
_FLOATS = {"lower", "upper", "mu", "variance", "bound", "capital", "fee_rate",
           "gas_price_gwei", "gas_token_price", "volume_cap"}
_KEYS = _INTS | _FLOATS | {"strategy", "weights", "reinvest", "price_mode"}
_REQUIRED = ("lower", "upper", "buckets", "tau", "strategy", "capital", "fee_rate")
_STRATEGY_KEYS = {
    "uniform": set(),
    "random": {"seed"},
    "custom": {"weights"},
    "normal": {"mu", "variance", "bound"},
}
# BacktestConfig's optional fields, by config key
_RUN_FIELDS = {"reinvest": "reinvest_mode", "volume_cap": "volume_cap",
               "price_mode": "price_mode"}


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


def _value(key: str, text: str):
    """A key's value: an int, a float, a float vector for weights, else the text."""
    try:
        if key in _INTS:
            return int(text)
        if key in _FLOATS:
            return float(text)
        if key == "weights":
            return [float(w) for w in text.split(",")]
    except ValueError:
        kind = "an integer" if key in _INTS else "a number" if key in _FLOATS \
            else "comma-separated numbers"
        raise ConfigError(f"cannot parse {key} = {text!r} as {kind}", key=key) from None
    return text


def parse_config(text: str) -> BacktestConfig:
    """Parse config text into a BacktestConfig, checked as it is made."""
    pairs = _parse_pairs(text)
    missing = [k for k in _REQUIRED if k not in pairs]
    if missing:
        raise ConfigError(f"missing required key(s): {', '.join(missing)}",
                          key=missing[0])
    own = _STRATEGY_KEYS.get(pairs["strategy"], set())
    for mode, keys in _STRATEGY_KEYS.items():
        stray = sorted(keys & pairs.keys() - own)
        if stray:
            raise ConfigError(f"key {stray[0]!r} only applies to strategy={mode}",
                              key=stray[0])

    values = {key: _value(key, text) for key, text in pairs.items()}

    def given(*keys) -> dict:
        return {k: values[k] for k in keys if k in values}

    profile = given("mu", "variance", "bound")
    if profile:
        unset = [f.name for f in fields(ProfileParams)
                 if f.default is MISSING and f.name not in profile]
        if unset:
            raise ConfigError(f"missing required key(s): {', '.join(unset)}", key=unset[0])
    strategy = StrategyConfig(values["strategy"], weights=values.get("weights"),
                              seed=values.get("seed"),
                              profile=ProfileParams(**profile) if profile else None)
    return BacktestConfig(
        BucketPartition(values["lower"], values["upper"], values["buckets"]),
        values["tau"], strategy, values["capital"], values["fee_rate"],
        gas=GasParams(**given("mint_gas", "burn_gas", "gas_price_gwei", "gas_token_price")),
        **{field: values[key] for key, field in _RUN_FIELDS.items() if key in values})


def load_config(path) -> BacktestConfig:
    """Read and parse a config file."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    return parse_config(text)
