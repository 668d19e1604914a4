"""Command line interface.

Subcommands:
  backtest   replay a price series and write report artifacts
  calibrate  fit a bell-curve profile variance to a target fee total
  report     print a summary table from a written report.json

Exit codes: 0 success, 2 configuration error, 3 data error,
4 calibration target unreachable.  Errors print one machine-parsable
line to stderr: ``error: <kind>: <message>``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from math import isfinite
from pathlib import Path

import numpy as np

from .allocation import ProfileParams
from .calibration import calibrate_variance, fee_curve
from .config import load_config
from .engine import BacktestReport, run_backtest, table_rows
from .errors import (BacktestError, CalibrationUnreachableError, ConfigError,
                     DataError)
from .prices import PriceSeries, load_prices, write_csv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clmm-backtest",
        description="Backtest bucketed liquidity strategies on a price series.")
    sub = parser.add_subparsers(dest="command", required=True)

    bt = sub.add_parser("backtest", help="run a backtest and write artifacts")
    bt.add_argument("--config", required=True, help="run configuration file")
    bt.add_argument("--prices", required=True, help="price series CSV")
    bt.add_argument("--out-dir", default=".", help="directory for output files")
    bt.add_argument("--seed", type=int, default=None,
                    help="override the random-strategy seed")
    mode = bt.add_mutually_exclusive_group()
    mode.add_argument("--strict-prices", action="store_const", dest="price_mode",
                      const="strict", help="abort on prices outside the partition")
    mode.add_argument("--clamp-prices", action="store_const", dest="price_mode",
                      const="clamp", help="clamp outside prices to the partition edge")
    bt.set_defaults(func=cmd_backtest, price_mode=None)

    cal = sub.add_parser("calibrate", help="fit profile variance to a fee target")
    cal.add_argument("--config", required=True, help="run configuration file")
    cal.add_argument("--prices", required=True, help="price series CSV")
    cal.add_argument("--target-fee", type=float, required=True,
                     help="observed fee total in token B")
    cal.add_argument("--mu", type=float, default=None,
                     help="profile centre (default: config mu for strategy=normal)")
    cal.add_argument("--bound", type=float, default=None,
                     help="standardised axis half-width (default: config, else 3)")
    cal.add_argument("--grid", default="0.05:2.0:40",
                     help="variance grid as lo:hi:steps (default 0.05:2.0:40)")
    cal.add_argument("--out-dir", default=".", help="directory for output files")
    cal.set_defaults(func=cmd_calibrate)

    rep = sub.add_parser("report", help="print a summary table from report.json")
    rep.add_argument("report_path", help="path to a written report.json")
    rep.add_argument("--fact-fee", type=float, default=None,
                     help="observed fee total for an error row")
    rep.add_argument("--fact-volume", type=float, default=None,
                     help="observed volume total for an error row")
    rep.set_defaults(func=cmd_report)
    return parser


def _write_report_files(report: BacktestReport, series: PriceSeries,
                        out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)

    with open(out_dir / "report.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    t_axis = series.timestamps if series.timestamps is not None \
        else np.arange(len(series))
    write_csv(out_dir / "trajectory.csv", "t,price,lp_value,bh_value",
              (t_axis, series.prices, report.lp_trajectory, report.bh_trajectory))

    table = report.epoch_table
    write_csv(out_dir / "fees_by_epoch.csv", ",".join(table), table.values())

    # the table's plan columns (epoch, start, end, benchmark_bucket), then
    # each epoch's deployment
    columns = dict([*table.items()][:4], anchor_price=series.prices[table["start"]],
                   deployed_capital=report.epoch_capital, active_buckets=report.epoch_active)
    summary = {"series_length": len(series), "epochs": table_rows(columns)}
    with open(out_dir / "states_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    if not (0.0 < lo < hi and isfinite(hi)) or steps < 2:
        raise ConfigError(f"grid needs 0 < lo < hi < inf and steps >= 2, got {text!r}",
                          key="grid")
    return np.linspace(lo, hi, steps)


def cmd_calibrate(args) -> int:
    config = load_config(args.config)
    profile = config.strategy.profile
    mu = args.mu if args.mu is not None else (profile.mu if profile else None)
    if mu is None:
        raise ConfigError("--mu is required unless the config strategy is normal",
                          key="mu")
    bound = args.bound if args.bound is not None \
        else (profile.bound if profile else ProfileParams.bound)
    if not (isfinite(args.target_fee) and args.target_fee > 0.0):
        raise ConfigError(f"target fee must be positive and finite, got {args.target_fee}",
                          key="target-fee")
    grid = _parse_grid(args.grid)
    ProfileParams(mu, grid[0], bound)  # names a bad --mu or --bound before the prices load

    series = load_prices(args.prices)
    curve = fee_curve(config, series, mu, bound, grid)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "fee_curve.csv", "variance,model_fee",
              (curve.variance_grid, curve.fees))

    result = calibrate_variance(config, series, mu, bound, args.target_fee,
                                grid, curve=curve)
    with open(out_dir / "calibration.json", "w") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"calibrate: mu {result.mu:.6g}, variance {result.variance:.6g}, "
          f"model fee {result.model_fee:.6g} vs target {result.target_fee:.6g} "
          f"(rel err {result.relative_error:.3e}) -> {args.out_dir}")
    return 0


def _money(v: float) -> str:
    return f"${v:,.2f}"


def _pct(v: float) -> str:
    return f"{v * 100:.2f}%"


# the summary table: row label, report.json key, format
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
        if fact is not None and not (isfinite(fact) and fact > 0.0):
            raise ConfigError(f"--{flag} must be positive and finite, got {fact}",
                              key=flag)
    try:
        with open(args.report_path) as fh:
            report = json.load(fh)
    except OSError as err:
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: config: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"error: data: {err}", file=sys.stderr)
        return 3
    except CalibrationUnreachableError as err:
        print(f"error: calibration-unreachable: {err}", file=sys.stderr)
        return 4
    except BacktestError as err:  # safety net for future error kinds
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
