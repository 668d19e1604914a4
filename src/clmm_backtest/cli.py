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
from contextlib import contextmanager
from math import isfinite
from pathlib import Path

import numpy as np

from .allocation import ProfileParams
from .bucketing import check_positive
from .calibration import calibrate_variance, fee_curve
from .config import load_config
from .engine import BacktestReport, buy_and_hold, run_backtest, table_rows
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
def _writing(path: Path):
    """Runs the block that makes or writes ``path``: an OSError there is a
    DataError naming it, which exits 3 as an unreadable price file does."""
    try:
        yield
    except OSError as err:
        raise DataError(f"cannot write {path}: {err.strerror or err}") from None


def _make_dir(out_dir: Path) -> None:
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)


def _write_json(path: Path, obj) -> None:
    with _writing(path), open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: str, columns) -> None:
    with _writing(path):
        write_csv(path, header, columns)


def _write_report_files(report: BacktestReport, series: PriceSeries,
                        out_dir: Path) -> None:
    _make_dir(out_dir)
    _write_json(out_dir / "report.json", report.to_dict())

    n = len(series)
    t_axis = series.timestamps if series.timestamps is not None \
        else _ChunkedColumn(np.int64, n, lambda rows: np.arange(*rows.indices(n)))
    bh_value = _ChunkedColumn(np.float64, n, lambda rows: buy_and_hold(
        report.prices[rows], report.initial_split))
    _write_csv(out_dir / "trajectory.csv", "t,price,lp_value,bh_value",
               (t_axis, series.prices, report.lp_trajectory, bh_value))

    table = report.epoch_table
    _write_csv(out_dir / "fees_by_epoch.csv", ",".join(table), table.values())

    # the table's plan columns (epoch, start, end, benchmark_bucket), then
    # each epoch's deployment
    columns = dict([*table.items()][:4], anchor_price=series.prices[table["start"]],
                   deployed_capital=report.epoch_capital, active_buckets=report.epoch_active)
    _write_json(out_dir / "states_summary.json",
                {"series_length": len(series), "epochs": table_rows(columns)})


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
    check_positive(args.target_fee, "target-fee")
    grid = _parse_grid(args.grid)
    ProfileParams(mu, grid[0], bound)  # names a bad --mu or --bound before the prices load

    series = load_prices(args.prices)
    curve = fee_curve(config, series, mu, bound, grid)
    out_dir = Path(args.out_dir)
    _make_dir(out_dir)
    _write_csv(out_dir / "fee_curve.csv", "variance,model_fee",
               (curve.variance_grid, curve.fees))

    result = calibrate_variance(config, series, mu, bound, args.target_fee,
                                grid, curve=curve)
    _write_json(out_dir / "calibration.json", result.to_dict())
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


# options that take a float: argparse reads a separate value such as
# "-1e-05" as an option, as its negative-number pattern has no exponent
_FLOAT_OPTIONS = ("--target-fee", "--mu", "--bound", "--fact-fee", "--fact-volume")


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list) -> list:
    """``argv`` with each negative value that follows a float option joined
    to it, ``--mu -1e-05`` as ``--mu=-1e-05``."""
    out = []
    for arg in argv:
        if out and out[-1] in _FLOAT_OPTIONS and arg.startswith("-") and _is_float(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
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
