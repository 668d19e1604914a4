"""Command line interface: ``USAGE`` is its help text."""

from __future__ import annotations

import dataclasses
import json
import sys
from contextlib import contextmanager
from math import isfinite
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .allocation import ProfileParams
from .bucketing import check_positive
from .calibration import calibrate_variance, check_grid, fee_curve
from .config import load_config
from .engine import BacktestReport, buy_and_hold, run_backtest, table_rows
from .errors import (BacktestError, CalibrationUnreachableError, ConfigError,
                     DataError)
from .prices import PriceSeries, load_prices, write_csv

USAGE = """\
usage: clmm-backtest backtest --config FILE --prices CSV [--out-dir DIR=.] [--seed N]
           [--strict-prices | --clamp-prices]
       clmm-backtest calibrate --config FILE --prices CSV --target-fee FEE [--mu MU]
           [--bound B=3] [--grid LO:HI:STEPS=0.05:2.0:40] [--out-dir DIR=.]
       clmm-backtest report REPORT_JSON [--fact-fee FEE] [--fact-volume VOLUME]
--mu and --bound default to the config's.  A flag takes the next word, or the
text after '=', as its value, and is neither abbreviated nor repeated.  Exit
codes: 0 ok, 2 configuration or usage error, 3 data error, 4 calibration target
unreachable; an error prints one line to stderr, "error: <kind>: <message>".
"""


class _ChunkedColumn:
    """A ``write_csv`` column whose chunks ``make`` builds from their row
    slice, so that the column is never held whole."""

    def __init__(self, dtype, length: int, make):
        self.dtype, self.length, self.make = np.dtype(dtype), length, make

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.make(rows)


@contextmanager
def _artifacts(out_dir: Path):
    """Runs the block that writes a run's artifacts into ``out_dir``, made
    first, naming each by ``path(name)`` before writing it.  An OSError there
    removes the files written before it and is a DataError naming the file."""
    paths = [out_dir]

    def path(name: str) -> Path:
        paths.append(out_dir / name)
        return paths[-1]

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        yield path
    except OSError as err:
        for written in paths[1:-1]:
            written.unlink(missing_ok=True)
        raise DataError(f"cannot write {paths[-1]}: {err.strerror or err}") from None


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_report_files(report: BacktestReport, series: PriceSeries,
                        out_dir: Path) -> None:
    n = len(series)
    t_axis = series.timestamps if series.timestamps is not None \
        else _ChunkedColumn(np.int64, n, lambda rows: np.arange(*rows.indices(n)))
    bh_value = _ChunkedColumn(np.float64, n, lambda rows: buy_and_hold(
        report.prices[rows], report.initial_split))
    table = report.epoch_table
    # the table's plan columns (epoch, start, end, benchmark_bucket), then
    # each epoch's deployment
    columns = dict([*table.items()][:4], anchor_price=series.prices[table["start"]],
                   deployed_capital=report.epoch_capital, active_buckets=report.epoch_active)
    with _artifacts(out_dir) as path:
        _write_json(path("report.json"), report.to_dict())
        write_csv(path("trajectory.csv"), "t,price,lp_value,bh_value",
                  (t_axis, series.prices, report.lp_trajectory, bh_value))
        write_csv(path("fees_by_epoch.csv"), ",".join(table), table.values())
        _write_json(path("states_summary.json"),
                    {"series_length": n, "epochs": table_rows(columns)})


def cmd_backtest(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        if config.strategy.mode != "random":
            raise ConfigError("--seed only applies to strategy=random", key="seed")
        config = dataclasses.replace(
            config, strategy=dataclasses.replace(config.strategy, seed=args.seed))
    if args.price_mode is not None:
        config = dataclasses.replace(config, price_mode=args.price_mode)

    series = load_prices(args.prices)
    report = run_backtest(config, series)
    _write_report_files(report, series, Path(args.out_dir))
    print(f"backtest: {len(report.plan)} epoch(s), fees {report.ledger.total_fee_b:.6g}, "
          f"volume {report.ledger.total_volume_b:.6g}, gas {report.gas.total_b:.6g} "
          f"-> {args.out_dir}")
    return 0


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be lo:hi:steps, got {text!r}", key="grid")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise ConfigError(f"cannot parse grid {text!r}", key="grid") from None
    # what linspace needs; check_grid holds the rules of a variance grid
    if not isfinite(hi - lo) or steps < 2:
        raise ConfigError(f"grid needs finite lo, hi and hi - lo, and steps >= 2, "
                          f"got {text!r}", key="grid")
    return np.linspace(lo, hi, steps)


def cmd_calibrate(args) -> int:
    config = load_config(args.config)
    profile = config.strategy.profile
    mu = args.mu if args.mu is not None else (profile.mu if profile else None)
    if mu is None:
        raise ConfigError("--mu is required unless the config strategy is normal", key="mu")
    bound = args.bound if args.bound is not None \
        else (profile.bound if profile else ProfileParams.bound)
    check_positive(args.target_fee, "target-fee")
    grid = check_grid(mu, bound, _parse_grid(args.grid))  # before the prices load

    series = load_prices(args.prices)
    curve = fee_curve(config, series, mu, bound, grid)
    with _artifacts(Path(args.out_dir)) as path:
        write_csv(path("fee_curve.csv"), "variance,model_fee",
                  (curve.variance_grid, curve.fees))
        result = calibrate_variance(curve, args.target_fee)
        _write_json(path("calibration.json"), result.to_dict())
    print(f"calibrate: mu {result.mu:.6g}, variance {result.variance:.6g}, "
          f"model fee {result.model_fee:.6g} vs target {result.target_fee:.6g} "
          f"(rel err {result.relative_error:.3e}) -> {args.out_dir}")
    return 0


# the summary table's formats, and its rows: label, report.json key, format
_money, _pct = "${:,.2f}".format, "{:.2%}".format
_SUMMARY = (
    ("Deployed capital W", "initial_capital", _money),
    ("Final value", "final_value", _money),
    ("Volume model", "volume_total_b", _money),
    ("Fees model", "fees_total_b", _money),
    ("Gas cost", "gas_cost_b", _money),
    ("Epochs", "epochs", str),
    ("Profit rate", "profit_rate", _pct),
    ("B&H profit rate", "bh_profit_rate", _pct),
)


def cmd_report(args) -> int:
    for flag, fact in (("fact-fee", args.fact_fee), ("fact-volume", args.fact_volume)):
        if fact is not None:
            check_positive(fact, flag)
    try:
        with open(args.report_path) as fh:
            report = json.load(fh)
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read report {args.report_path}: {err}") from None
    except json.JSONDecodeError as err:
        raise DataError(f"malformed report {args.report_path}: {err}") from None

    rows = []
    for label, key, fmt in _SUMMARY:
        value = report.get(key) if isinstance(report, dict) else None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise DataError(f"report {args.report_path} has no numeric {key!r}")
        rows.append((label, fmt(value)))
    for label, key, fact in (("Fees", "fees_total_b", args.fact_fee),
                             ("Volume", "volume_total_b", args.fact_volume)):
        if fact is not None:
            rows.append((f"{label} fact", _money(fact)))
            rows.append((f"{label} error", _pct((report[key] - fact) / fact)))

    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    return 0


# each command's flags and positionals: name -> (field, type, default), a
# default of ... marking a required one; a switch's type is the value it sets
_COMMANDS = {
    "backtest": (cmd_backtest, {
        "--config": ("config", str, ...), "--prices": ("prices", str, ...),
        "--out-dir": ("out_dir", str, "."), "--seed": ("seed", int, None),
        "--strict-prices": ("price_mode", "strict", None),
        "--clamp-prices": ("price_mode", "clamp", None)}),
    "calibrate": (cmd_calibrate, {
        "--config": ("config", str, ...), "--prices": ("prices", str, ...),
        "--target-fee": ("target_fee", float, ...), "--mu": ("mu", float, None),
        "--bound": ("bound", float, None), "--grid": ("grid", str, "0.05:2.0:40"),
        "--out-dir": ("out_dir", str, ".")}),
    "report": (cmd_report, {
        "REPORT_JSON": ("report_path", str, ...), "--fact-fee": ("fact_fee", float, None),
        "--fact-volume": ("fact_volume", float, None)}),
}


def parse_args(argv: list) -> SimpleNamespace | None:
    """The command's fields from ``argv``, with its function as ``func``,
    or None for ``-h``/``--help``.  A usage error is a ConfigError keyed by
    the flag at fault."""
    command, *words = argv or [""]
    if command in ("-h", "--help"):
        return None
    if command not in _COMMANDS:
        raise ConfigError(f"the command must be backtest, calibrate or report, "
                          f"got {command!r}", key="command")
    func, flags = _COMMANDS[command]
    values = {field: default for field, _, default in flags.values()}
    given = {}  # field -> the flag that set it
    words = iter(words)
    for word in words:
        if word in ("-h", "--help"):
            return None
        if word.startswith("-"):
            flag, eq, value = word.partition("=")
        elif "REPORT_JSON" in flags:
            flag, eq, value = "REPORT_JSON", "=", word
        else:
            raise ConfigError(f"unexpected argument {word!r}", key=command)
        key = flag.lstrip("-") or flag
        if flag not in flags:
            raise ConfigError(f"unknown flag {flag}", key=key)
        field, kind, _ = flags[flag]
        if field in given:
            raise ConfigError(f"{flag} given twice" if given[field] == flag
                              else f"{flag} conflicts with {given[field]}", key=key)
        given[field] = flag
        if isinstance(kind, str):
            if eq:
                raise ConfigError(f"{flag} takes no value", key=key)
            value, kind = kind, str
        elif not eq:
            value = next(words, None)
            if value is None:
                raise ConfigError(f"{flag} needs a value", key=key)
        try:
            values[field] = kind(value)
        except ValueError:
            raise ConfigError(f"{flag} needs {'an integer' if kind is int else 'a number'}, "
                              f"got {value!r}", key=key) from None
    for flag, (field, _, _) in flags.items():
        if values[field] is ...:
            raise ConfigError(f"{flag} is required", key=flag.lstrip("-"))
    return SimpleNamespace(func=func, **values)


# each error's exit code and kind, the first that matches; exit 1 is the
# safety net for future error kinds
_EXITS = ((ConfigError, 2, "config: "), (DataError, 3, "data: "),
          (CalibrationUnreachableError, 4, "calibration-unreachable: "),
          (BacktestError, 1, ""))


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(USAGE, end="")
            return 0
        return args.func(args)
    except BacktestError as err:
        code, kind = next((code, kind) for error, code, kind in _EXITS
                          if isinstance(err, error))
        print(f"error: {kind}{err}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
