"""Price file ingestion, config parsing, and the command line surface."""

import codecs
import csv
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from clmm_backtest import calibration, config
from clmm_backtest import prices as prices_module
from clmm_backtest.allocation import ProfileParams
from clmm_backtest.bucketing import BucketPartition
from clmm_backtest.cli import _COMMANDS, USAGE, _write_report_files, main
from clmm_backtest.config import load_config, parse_config
from clmm_backtest.engine import BacktestConfig, GasParams, StrategyConfig, run_backtest
from clmm_backtest.errors import ConfigError, DataError
from clmm_backtest.prices import PriceSeries, load_prices, write_csv
from oracle import write_prices

BASE_CONFIG = """
# sample pool
lower = 1000
upper = 4000
buckets = 30
tau = 2
strategy = uniform
capital = 1e6
fee_rate = 0.003
"""


# a partition of [1e-300, 1e300] whose deployed liquidity exceeds float64
OVERFLOW_CONFIG = """
lower = 1e-300
upper = 1e300
buckets = 30
tau = 1
strategy = uniform
capital = 1e6
fee_rate = 0.003
"""
OVERFLOW_PRICES = "price\n1e-300\n1e300\n5\n"
# runs whose last values and totals are finite: a mid-series buy-and-hold
# value that overflows, a buy-and-hold bag that underflows to (0, 0), one
# worth 0 at the first price only, and a month whose token-A fees overflow
# at its last price
MID_SERIES_OVERFLOW = (OVERFLOW_CONFIG.replace("capital = 1e6", "capital = 1e10"),
                       "price\n5\n1e300\n5\n", "largest buy-and-hold value is inf")
EMPTY_BAG = ("lower = 1\nupper = 1e300\nbuckets = 2\ntau = 100\nstrategy = uniform\n"
             "capital = 1e-200\nfee_rate = 0.003\n", "price\n1e299\n2e299\n",
             "buy-and-hold profit rate is nan")
BAG_WORTH_0 = ("lower = 1e-6\nupper = 10\nbuckets = 2\ntau = 100\nstrategy = uniform\n"
               "capital = 5e-324\nfee_rate = 0.003\n", "price\n0.4\n10\n",
               "buy-and-hold profit rate is inf")
MONTHLY_OVERFLOW = (
    "lower = 1.0533925278185327e-62\nupper = 5.4398124264155114e+138\nbuckets = 2\n"
    "tau = 100\nstrategy = uniform\ncapital = 9.344413313310727e+277\nfee_rate = 0.003\n",
    "ts,price\n23114,4.5540298124927875e+87\n2430901,5.898077015915007e+53\n"
    "3264748,4.806982520366707e+54\n3856198,1.1096112749741462e+19\n"
    "4450630,1.9478787869374596e+109\n6951044,4.329210047330506e+57\n",
    "largest monthly fee is inf")

PART30 = BucketPartition(1000.0, 4000.0, 30)
UNIFORM = StrategyConfig("uniform")


def run_config(**kw):
    return BacktestConfig(PART30, 2, UNIFORM, 1e6, 0.003, **kw)


# one invalid value per config key: the lines that set it, and the same value
# given to the dataclass that holds it
BAD_KEYS = [
    ("lower", "lower = -1", lambda: BucketPartition(-1.0, 4000.0, 30)),
    ("upper", "upper = inf", lambda: BucketPartition(1000.0, float("inf"), 30)),
    ("buckets", "buckets = 0", lambda: BucketPartition(1000.0, 4000.0, 0)),
    ("tau", "tau = -1", lambda: BacktestConfig(PART30, -1, UNIFORM, 1e6, 0.003)),
    ("strategy", "strategy = martingale", lambda: StrategyConfig("martingale")),
    ("weights", "strategy = custom\nweights = 0.5,0.5",
     lambda: BacktestConfig(PART30, 2, StrategyConfig("custom", weights=[0.5, 0.5]),
                            1e6, 0.003)),
    ("seed", "strategy = random\nseed = -1", lambda: StrategyConfig("random", seed=-1)),
    ("mu", "strategy = normal\nmu = nan\nvariance = 1",
     lambda: ProfileParams(float("nan"), 1.0)),
    ("variance", "strategy = normal\nmu = 0\nvariance = 0", lambda: ProfileParams(0.0, 0.0)),
    ("bound", "strategy = normal\nmu = 0\nvariance = 1\nbound = -3",
     lambda: ProfileParams(0.0, 1.0, -3.0)),
    ("capital", "capital = 0", lambda: BacktestConfig(PART30, 2, UNIFORM, 0.0, 0.003)),
    ("fee_rate", "fee_rate = 1", lambda: BacktestConfig(PART30, 2, UNIFORM, 1e6, 1.0)),
    ("mint_gas", "mint_gas = 0", lambda: GasParams(mint_gas=0)),
    ("burn_gas", "burn_gas = -5", lambda: GasParams(burn_gas=-5)),
    ("gas_price_gwei", "gas_price_gwei = 0", lambda: GasParams(gas_price_gwei=0.0)),
    ("gas_token_price", "gas_token_price = -1", lambda: GasParams(gas_token_price=-1.0)),
    ("reinvest", "reinvest = sometimes", lambda: run_config(reinvest_mode="sometimes")),
    ("volume_cap", "volume_cap = 0", lambda: run_config(volume_cap=0.0)),
    ("price_mode", "price_mode = loose", lambda: run_config(price_mode="loose")),
]


def bad_config(lines):
    """BASE_CONFIG with ``lines`` set, replacing the base's line of any key they set."""
    keys = {line.split("=")[0].strip() for line in lines.splitlines()}
    kept = [line for line in BASE_CONFIG.splitlines()
            if line.split("=")[0].strip() not in keys]
    return "\n".join(kept) + "\n" + lines + "\n"


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def write(path, text):
    path.write_text(text)
    return str(path)


def walk_csv(path, seed=50, n=400, with_ts=False):
    rng = np.random.default_rng(seed)
    p = np.clip(2000.0 * np.exp(np.cumsum(rng.normal(0, 0.01, n))), 1100, 3900)
    lines = []
    if with_ts:
        lines.append("ts,price")
        ts0 = 1610668800
        lines += [f"{ts0 + 3600 * i},{float(v)!r}" for i, v in enumerate(p)]
    else:
        lines.append("price")
        lines += [f"{float(v)!r}" for v in p]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestLoadPrices:

    def test_header_ts_price(self, tmp_path):
        f = write(tmp_path / "p.csv", "ts,price\n1,2000\n2,2500\n")
        s = load_prices(f)
        assert s.prices.tolist() == [2000.0, 2500.0]
        assert s.timestamps.tolist() == [1, 2]

    def test_header_price_only(self, tmp_path):
        s = load_prices(write(tmp_path / "p.csv", "price\n2000\n2500\n"))
        assert s.timestamps is None
        assert len(s) == 2

    def test_header_columns_any_order(self, tmp_path):
        s = load_prices(write(tmp_path / "p.csv", "price,timestamp\n2000,1\n2500,2\n"))
        assert s.prices.tolist() == [2000.0, 2500.0]
        assert s.timestamps.tolist() == [1, 2]

    def test_headerless_two_columns(self, tmp_path):
        s = load_prices(write(tmp_path / "p.csv", "10,2000\n20,2500\n"))
        assert s.timestamps.tolist() == [10, 20]

    def test_headerless_single_column(self, tmp_path):
        s = load_prices(write(tmp_path / "p.csv", "2000\n2500\n"))
        assert s.timestamps is None

    def test_negative_price_names_data_row(self, tmp_path):
        f = write(tmp_path / "p.csv", "ts,price\n1,2000\n2,2500\n3,-1\n")
        with pytest.raises(DataError, match="row 3"):
            load_prices(f)

    def test_unparsable_price_names_row(self, tmp_path):
        f = write(tmp_path / "p.csv", "price\n2000\noops\n")
        with pytest.raises(DataError, match="row 2"):
            load_prices(f)

    def test_non_ascending_timestamps_rejected(self, tmp_path):
        f = write(tmp_path / "p.csv", "ts,price\n5,2000\n5,2500\n")
        with pytest.raises(DataError, match="row 2"):
            load_prices(f)

    def test_single_row_rejected(self, tmp_path):
        with pytest.raises(DataError, match="at least 2"):
            load_prices(write(tmp_path / "p.csv", "price\n2000\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            load_prices(write(tmp_path / "p.csv", ""))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_prices(tmp_path / "absent.csv")

    def test_undecodable_bytes_are_a_data_error(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_bytes(b"price\n2000\n20\xff\xfe0\n")
        with pytest.raises(DataError, match="row 2|cannot read"):
            load_prices(f)

    def test_unknown_header_column_rejected(self, tmp_path):
        f = write(tmp_path / "p.csv", "ts,price,volume\n1,2000,5\n2,2500,6\n")
        with pytest.raises(DataError, match="volume"):
            load_prices(f)

    def test_headerless_three_columns_rejected(self, tmp_path):
        with pytest.raises(DataError, match="1 or 2 columns"):
            load_prices(write(tmp_path / "p.csv", "1,2000,5\n2,2500,6\n"))

    def test_ragged_row_rejected(self, tmp_path):
        f = write(tmp_path / "p.csv", "ts,price\n1,2000\n2\n")
        with pytest.raises(DataError, match="row 2"):
            load_prices(f)

    @pytest.mark.parametrize("header,rows,timestamps", [
        ("ts,price", ["1,2000.5", "2,.5", "3,7."], [1, 2, 3]),
        ("price,ts", ["2000.5,1", ".5,2", "7.,3"], [1, 2, 3]),
        ("price", ["2000.5", ".5", "7."], None),
        (None, ["1,2000.5", "2,.5", "3,7."], [1, 2, 3]),
        (None, ["2000.5", ".5", "7."], None),
    ])
    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    @pytest.mark.parametrize("last", ["\n", ""])
    def test_clean_file_never_reaches_the_row_parser(self, tmp_path, monkeypatch,
                                                     header, rows, timestamps, end, last):
        def refuse(fh, layout):
            raise AssertionError("a clean file went through the row parser")
        monkeypatch.setattr(prices_module, "_parse_rows", refuse)
        lines = ([header] if header else []) + rows
        path = tmp_path / "p.csv"
        path.write_bytes((end.join(lines) + (end if last else "")).encode())
        s = load_prices(path)
        assert s.prices.tolist() == [2000.5, 0.5, 7.0]
        assert (s.timestamps.tolist() if timestamps else s.timestamps) == timestamps

    @pytest.mark.parametrize("text", [
        "price\n2000.5\n.5\n7.\n", "ts,price\n1,2000.5\n2,.5\n3,7.\n", "2000.5\n.5\n7.\n",
        "1,2000.5\n2,.5\n3,7.\n", "ts,price\n1, 2000.5\n2,+.5\n3,7e0\n",
    ], ids=["price", "ts_price", "headerless", "headerless_two_columns", "row_parser"])
    def test_leading_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, text):
        # as spreadsheets' "CSV UTF-8" exports begin; the file takes the
        # same parser, and loads the same series, as without the mark
        calls, parse_rows = [], prices_module._parse_rows
        monkeypatch.setattr(prices_module, "_parse_rows",
                            lambda *args: calls.append(args) or parse_rows(*args))
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(codecs.BOM_UTF8 + text.encode())
        a = load_prices(plain)
        row_parsed = len(calls)
        b = load_prices(marked)
        assert len(calls) == 2 * row_parsed
        assert b.prices.tobytes() == a.prices.tobytes()
        assert (b.timestamps is None) == (a.timestamps is None)
        assert a.timestamps is None or b.timestamps.tobytes() == a.timestamps.tobytes()

    @pytest.mark.parametrize("text", ["ts,price,volume\n1,2000,5\n", "price\n2000\n",
                                      "2000,1,2\n", "", "price\n2000\n\ufeff2500\n"],
                             ids=["header", "one_row", "three_columns", "empty", "second_mark"])
    def test_a_byte_order_mark_leaves_errors_unchanged(self, tmp_path, text):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(codecs.BOM_UTF8 + text.encode())
        messages = []
        for path in (plain, marked):
            with pytest.raises(DataError) as err:
                load_prices(path)
            messages.append(str(err.value).replace(str(path), "PATH"))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("text,expect", [
        ("price\n1\n+2\n", [1.0, 2.0]), ("price\n1\n 2 \n", [1.0, 2.0]),
        ("price\n1\r2\r", [1.0, 2.0]), ("price\n1\n\n2\n", [1.0, 2.0]),
        ("price\n1\n2e0\n", [1.0, 2.0]), ("price\n1\n1.2.\n", "row 2"),
        ("price\n1\n" + "1" * 20 + "\n", [1.0, 1.111111111111111e19]),
        ("ts,price\n1,1\n2,2,\n", "row 2"), ("ts,price\n1,1\n2.,2\n", "row 2"),
        ("ts,price\n1,1\n" + "1" * 19 + ",2\n", [1.0, 2.0]),
        # as many points as rows, but not one in each row's price cell; in
        # the last two, each row's digit count alone would pass
        ("price\n1.2.\n3\n", "row 1"), ("ts,price\n1.,2\n3,4.5\n", "row 1"),
        ("price\n12.3.45\n6789\n", "row 1"), ("ts,price\n1.,2345\n3,4.5\n", "row 1"),
    ])
    def test_rows_that_are_not_clean_go_to_the_row_parser(self, tmp_path, text, expect):
        path = tmp_path / "p.csv"
        path.write_text(text)
        with open(path, newline="") as fh:
            assert prices_module._parse_bulk(fh, prices_module._read_layout(fh, path)) is None
        if isinstance(expect, str):
            with pytest.raises(DataError, match=expect):
                load_prices(path)
        else:
            assert load_prices(path).prices.tolist() == expect

    @pytest.mark.parametrize("text", ["price\n1\n0.\n", "ts,price\n2,1\n1,2\n", "price\n1\n"])
    def test_clean_rows_the_series_rejects_get_the_row_parsers_message(self, tmp_path, text):
        path = tmp_path / "p.csv"
        path.write_text(text)
        with pytest.raises(DataError) as got:
            load_prices(path)
        with open(path, newline="") as fh:
            layout = prices_module._read_layout(fh, path)
            with pytest.raises(DataError) as expect:
                PriceSeries(*prices_module._parse_rows(fh, layout))
        assert str(got.value) == str(expect.value)

    @pytest.mark.parametrize("text,expect", [
        ("ts,price\n1,2000\n2,2500\n2,2600\n",
         "row 3: timestamp 2 at index 2 does not ascend past 2"),
        ("price\n2000\n2500\n0\n",
         "row 3: price 0.0 at index 2 is not a positive finite number"),
    ], ids=["repeated_timestamp", "zero_price"])
    def test_clean_file_breaking_a_series_rule_is_parsed_once(self, tmp_path, monkeypatch,
                                                             text, expect):
        calls, parse_rows = [], prices_module._parse_rows
        monkeypatch.setattr(prices_module, "_parse_rows",
                            lambda *args: calls.append(args) or parse_rows(*args))
        with pytest.raises(DataError) as err:
            load_prices(write(tmp_path / "p.csv", text))
        assert str(err.value) == expect
        assert calls == []

    def test_csv_writer_matches_per_row_repr(self, tmp_path):
        # exponent-form reprs, subnormals and ints, across a chunk seam
        floats = np.array([1e-05, 1e+16, 5e-324, 0.1, -0.0, 2000.5,
                           1.7976931348623157e308, 123456789.123, 1e-310] * 14_565)
        ints = np.arange(len(floats), dtype=np.int64) * 7919 - 10**15
        out = tmp_path / "w.csv"
        write_csv(out, "t,a,b", (ints, floats, floats[::-1]))
        expect = "t,a,b\n" + "".join(
            f"{int(t)},{float(a)!r},{float(b)!r}\n"
            for t, a, b in zip(ints, floats, floats[::-1]))
        assert len(floats) > 2**16
        assert out.read_bytes() == expect.encode()

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(51)
        series = PriceSeries(np.exp(rng.normal(7.6, 0.3, 200)),
                             1600000000 + 60 * np.arange(200))
        out = tmp_path / "rt.csv"
        write_prices(series, out)
        back = load_prices(out)
        assert back.prices.tobytes() == series.prices.tobytes()
        assert np.array_equal(back.timestamps, series.timestamps)

        bare = PriceSeries(series.prices)
        write_prices(bare, out)
        assert load_prices(out).prices.tobytes() == series.prices.tobytes()


class TestParseConfig:

    def test_minimal_uniform_config(self):
        cfg = parse_config(BASE_CONFIG)
        assert cfg.partition.n == 30
        assert cfg.tau == 2
        assert cfg.strategy.mode == "uniform"
        assert cfg.capital == 1e6
        assert cfg.fee_rate == 0.003
        assert cfg.reinvest_mode == "exclude"
        assert cfg.price_mode == "strict"
        assert cfg.volume_cap is None
        assert cfg.gas.mint_gas == 430_000
        assert cfg.gas.burn_gas == 215_000
        assert cfg.gas.gas_price_gwei == 100.0
        assert cfg.gas.gas_token_price is None

    def test_full_normal_config(self):
        text = """
        lower = 1000
        upper = 3000
        buckets = 40
        tau = 3
        strategy = normal
        mu = 0.875
        variance = 0.254
        bound = 3
        capital = 2.5e6
        fee_rate = 0.0005
        mint_gas = 400000
        burn_gas = 200000
        gas_price_gwei = 80
        gas_token_price = 2300
        reinvest = reinvest
        volume_cap = 1e9
        price_mode = clamp
        """
        cfg = parse_config(text)
        assert cfg.strategy.profile.mu == 0.875
        assert cfg.strategy.profile.variance == 0.254
        assert cfg.gas.gas_token_price == 2300.0
        assert cfg.reinvest_mode == "reinvest"
        assert cfg.volume_cap == 1e9
        assert cfg.price_mode == "clamp"

    def test_empty_value_counts_as_absent(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config(BASE_CONFIG.replace("capital = 1e6", "capital ="))

    @pytest.mark.parametrize("mutation,key", [
        ("garbage line", None),
        ("boguskey = 1", "boguskey"),
        ("tau = 2", "tau"),                # duplicate of the base key
        ("seed = 5", "seed"),              # stray key for strategy=uniform
        ("mu = 0.1", "mu"),
        ("tau = -1\n#", "tau"),
    ])
    def test_rejects_bad_lines_and_stray_keys(self, mutation, key):
        if mutation.startswith("tau = -1"):
            text = BASE_CONFIG.replace("tau = 2", "tau = -1")
        else:
            text = BASE_CONFIG + mutation + "\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        if key is not None:
            assert exc.value.key == key

    @pytest.mark.parametrize("field,value,key", [
        ("lower = 1000", "lower = 5000", "lower"),       # lower above upper
        ("buckets = 30", "buckets = 0", "buckets"),      # partition rejects
        ("fee_rate = 0.003", "fee_rate = 1.5", "fee_rate"),
        ("capital = 1e6", "capital = -5", "capital"),
        ("strategy = uniform", "strategy = martingale", "strategy"),
        ("capital = 1e6", "capital = lots", "capital"),
        ("tau = 2", "tau = 2.5", "tau"),
    ])
    def test_domain_violations_carry_the_key(self, field, value, key):
        with pytest.raises(ConfigError) as exc:
            parse_config(BASE_CONFIG.replace(field, value))
        assert exc.value.key == key

    @pytest.mark.parametrize("values,key,message", [
        ("mu = nan\nvariance = 1", "mu", "must be finite"),
        ("mu = 0\nvariance = 1\nbound = 0", "bound", "bound must be positive"),
        ("mu = 0\nvariance = -1", "variance", "variance must be positive"),
        ("mu = 0\nvariance = -1\nbound = inf", "variance", "variance must be positive"),
    ])
    def test_bad_profile_value_carries_its_own_key(self, values, key, message):
        text = BASE_CONFIG.replace("strategy = uniform", "strategy = normal") + values + "\n"
        with pytest.raises(ConfigError, match=message) as exc:
            parse_config(text)
        assert exc.value.key == key

    def test_custom_strategy_needs_matching_weights(self):
        text = BASE_CONFIG.replace("strategy = uniform", "strategy = custom")
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.key == "weights"
        with pytest.raises(ConfigError):
            parse_config(text + "weights = 0.5, 0.5\n")   # 2 weights, 30 buckets
        with pytest.raises(ConfigError):
            parse_config(text + "weights = a, b\n")

    def test_random_strategy_needs_seed(self):
        text = BASE_CONFIG.replace("strategy = uniform", "strategy = random")
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.key == "seed"
        cfg = parse_config(text + "seed = 9\n")
        assert cfg.strategy.seed == 9

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")


class TestConfigKeys:
    """Each config value is checked once, by the dataclass holding it, under its key."""

    def test_the_table_has_one_row_per_key(self):
        assert sorted(key for key, _, _ in BAD_KEYS) == sorted(config._KEYS)

    @pytest.mark.parametrize("key,lines,make", BAD_KEYS, ids=[k for k, _, _ in BAD_KEYS])
    def test_parse_config_names_the_key(self, key, lines, make):
        with pytest.raises(ConfigError) as exc:
            parse_config(bad_config(lines))
        assert exc.value.key == key

    @pytest.mark.parametrize("key,lines,make", BAD_KEYS, ids=[k for k, _, _ in BAD_KEYS])
    def test_backtest_exits_2_naming_the_key(self, tmp_path, capsys, key, lines, make):
        cfg = write(tmp_path / "run.cfg", bad_config(lines))
        prices = walk_csv(tmp_path / "p.csv")
        assert main(["backtest", "--config", cfg, "--prices", prices,
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: config: [{key}] ")

    @pytest.mark.parametrize("key,lines,make", BAD_KEYS, ids=[k for k, _, _ in BAD_KEYS])
    def test_a_config_made_in_code_is_checked_when_made(self, key, lines, make):
        with pytest.raises(ConfigError) as exc:
            make()
        assert exc.value.key == key
        assert isinstance(exc.value, ValueError)


class TestCliBacktest:

    def run_main(self, *argv):
        return main(list(argv))

    def test_writes_all_artifacts_and_valid_report(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", BASE_CONFIG)
        prices = walk_csv(tmp_path / "p.csv", with_ts=True)
        out = tmp_path / "out"
        assert self.run_main("backtest", "--config", cfg, "--prices", prices,
                             "--out-dir", str(out)) == 0
        for name in ("report.json", "trajectory.csv", "fees_by_epoch.csv",
                     "states_summary.json"):
            assert (out / name).is_file()

        # NaN and Infinity are not JSON, though Python's encoder writes them
        report = json.loads((out / "report.json").read_text(),
                            parse_constant=reject_constant)
        schema = json.loads(
            resources.files("clmm_backtest").joinpath("report_schema.json")
            .read_text())
        jsonschema.validate(report, schema)
        assert "monthly_fees" in report

        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,price,lp_value,bh_value"
        assert len(lines) == 401

        summary = json.loads((out / "states_summary.json").read_text())
        assert summary["series_length"] == 400
        assert len(summary["epochs"]) == report["epochs"]
        assert capsys.readouterr().out.startswith("backtest:")

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", BASE_CONFIG)
        prices = walk_csv(tmp_path / "p.csv")
        a, b = tmp_path / "a", tmp_path / "b"
        self.run_main("backtest", "--config", cfg, "--prices", prices,
                      "--out-dir", str(a))
        self.run_main("backtest", "--config", cfg, "--prices", prices,
                      "--out-dir", str(b))
        for name in ("report.json", "trajectory.csv", "fees_by_epoch.csv",
                     "states_summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_trajectory_equals_the_materialised_columns(self, tmp_path):
        # the write makes bh_value, and t for a price-only file, one
        # 8,192-row chunk at a time; here the chunk boundaries fall inside epochs
        cfg = write(tmp_path / "run.cfg", BASE_CONFIG)
        for with_ts in (True, False):
            prices = walk_csv(tmp_path / "p.csv", seed=53, n=20_000, with_ts=with_ts)
            out = tmp_path / f"out{with_ts}"
            assert self.run_main("backtest", "--config", cfg, "--prices", prices,
                                 "--out-dir", str(out)) == 0
            series = load_prices(prices)
            report = run_backtest(load_config(cfg), series)
            epochs = report.plan.epochs
            for row in (8192, 16384):
                assert ((epochs[:, 0] < row) & (row < epochs[:, 1])).any()
            t = series.timestamps if with_ts else np.arange(len(series))
            write_csv(tmp_path / "whole.csv", "t,price,lp_value,bh_value",
                      (t, series.prices, report.lp_trajectory, report.bh_trajectory))
            assert (out / "trajectory.csv").read_bytes() == \
                (tmp_path / "whole.csv").read_bytes()

    def test_price_only_write_peak_is_one_chunk_not_the_file(self, tmp_path):
        # t is made per chunk, as bh_value is, so a one-epoch run over ten
        # times the rows must not raise the artifact write's peak
        config = parse_config(BASE_CONFIG.replace("tau = 2", "tau = 30"))

        def peak(rows):
            rng = np.random.default_rng(rows)
            series = PriceSeries(2000.0 + rng.normal(0.0, 0.4, rows).cumsum())
            report = run_backtest(config, series)
            assert len(report.plan) == 1
            tracemalloc.start()
            try:
                _write_report_files(report, series, tmp_path / "out")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)     # builds what the writer builds once
        assert peak(200_000) <= peak(20_000) + 0.25 * 2**20

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", BASE_CONFIG + "boguskey = 1\n")
        prices = walk_csv(tmp_path / "p.csv")
        assert self.run_main("backtest", "--config", cfg, "--prices", prices) == 2
        assert capsys.readouterr().err.startswith("error: config:")

    def test_degenerate_partition_exits_2(self, tmp_path, capsys):
        # ten buckets inside a few ulps: edges, and their square roots, collide
        text = (BASE_CONFIG.replace("lower = 1000", "lower = 1")
                .replace("upper = 4000", "upper = 1.000000000000001")
                .replace("buckets = 30", "buckets = 10"))
        cfg = write(tmp_path / "run.cfg", text)
        prices = write(tmp_path / "p.csv", "price\n1.0\n1.0\n")
        assert self.run_main("backtest", "--config", cfg, "--prices", prices) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: [lower] ")
        assert err.count("\n") == 1

    def test_bad_prices_exit_3(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", BASE_CONFIG)
        prices = write(tmp_path / "p.csv", "price\n2000\n-3\n")
        assert self.run_main("backtest", "--config", cfg, "--prices", prices) == 3
        assert capsys.readouterr().err.startswith("error: data:")

    def test_timestamp_outside_int64_exits_3(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", BASE_CONFIG)
        prices = write(tmp_path / "p.csv",
                       "ts,price\n1,2000\n99999999999999999999,2001\n")
        assert self.run_main("backtest", "--config", cfg, "--prices", prices) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: row 2: timestamp 99999999999999999999 "
                              "out of range")
        assert err.count("\n") == 1

    def test_out_of_partition_price_is_a_data_error_by_default(self, tmp_path,
                                                               capsys):
        cfg = write(tmp_path / "run.cfg", BASE_CONFIG)
        prices = write(tmp_path / "p.csv", "price\n2000\n9000\n2100\n")
        assert self.run_main("backtest", "--config", cfg, "--prices", prices) == 3
        assert "index 1" in capsys.readouterr().err

    def test_out_of_partition_price_names_its_data_row(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", BASE_CONFIG)
        prices = write(tmp_path / "p.csv", "ts,price\n1,2000\n2,5000\n")
        assert self.run_main("backtest", "--config", cfg, "--prices", prices) == 3
        assert capsys.readouterr().err.startswith(
            "error: data: row 2: price 5000.0 at index 1 outside partition ")

    def test_per_epoch_outputs_agree(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", BASE_CONFIG + "volume_cap = 1e5\n")
        prices = walk_csv(tmp_path / "p.csv", with_ts=True)
        out = tmp_path / "out"
        assert self.run_main("backtest", "--config", cfg, "--prices", prices,
                             "--out-dir", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        rows = report["epoch_fees"]
        assert len(rows) > 3 and report["volume_cap_scale"] < 1.0
        assert "monthly_fees" in report

        with open(out / "fees_by_epoch.csv", newline="") as fh:
            header, *cells = csv.reader(fh)
        assert header == ["epoch", "start", "end", "benchmark_bucket", "inflow_a",
                          "inflow_b", "fee_a", "fee_b", "end_price", "fee_converted_b",
                          "volume_converted_b"]
        assert [dict(zip(header, map(float, c))) for c in cells] == rows
        assert all(set(row) == set(header) for row in rows)

        summary = json.loads((out / "states_summary.json").read_text())["epochs"]
        shared = header[:4]
        assert [{k: s[k] for k in shared} for s in summary] \
            == [{k: r[k] for k in shared} for r in rows]
        assert all(type(s[k]) is int for s in summary for k in shared)

    def test_clamp_flag_recovers_the_run(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", BASE_CONFIG)
        prices = write(tmp_path / "p.csv", "price\n2000\n9000\n2100\n")
        out = tmp_path / "out"
        assert self.run_main("backtest", "--config", cfg, "--prices", prices,
                             "--clamp-prices", "--out-dir", str(out)) == 0

    def test_seed_flag_only_for_random_strategy(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", BASE_CONFIG)
        prices = walk_csv(tmp_path / "p.csv")
        assert self.run_main("backtest", "--config", cfg, "--prices", prices,
                             "--seed", "5") == 2
        assert "--seed" in capsys.readouterr().err

    def test_seed_flag_overrides_random_seed(self, tmp_path):
        text = BASE_CONFIG.replace("strategy = uniform",
                                   "strategy = random") + "seed = 1\n"
        cfg = write(tmp_path / "run.cfg", text)
        prices = walk_csv(tmp_path / "p.csv")
        outs = []
        for seed in ("7", "7", "8"):
            out = tmp_path / f"s{seed}{len(outs)}"
            self.run_main("backtest", "--config", cfg, "--prices", prices,
                          "--seed", seed, "--out-dir", str(out))
            outs.append(json.loads((out / "report.json").read_text()))
        assert outs[0]["fees_total_b"] == outs[1]["fees_total_b"]
        assert outs[0]["fees_total_b"] != outs[2]["fees_total_b"]

    @pytest.mark.parametrize("strategy,flags,key", [
        ("strategy = random\nseed = -1", (), "seed"),
        ("strategy = random\nseed = 1", ("--seed", "-5"), "seed"),
        ("strategy = custom\nweights = -0.5,1.5,0", (), "weights"),
        ("strategy = custom\nweights = nan,0.5,0.5", (), "weights"),
        ("strategy = custom\nweights = 0.2,0.2,0.2", (), "weights"),
        ("strategy = custom\nweights = 0,0,0", (), "weights"),
    ])
    def test_bad_strategy_parameters_exit_2(self, tmp_path, capsys, strategy, flags, key):
        text = (BASE_CONFIG.replace("buckets = 30", "buckets = 3")
                .replace("strategy = uniform", strategy))
        cfg = write(tmp_path / "run.cfg", text)
        prices = walk_csv(tmp_path / "p.csv")
        out = tmp_path / "out"
        assert self.run_main("backtest", "--config", cfg, "--prices", prices,
                             "--out-dir", str(out), *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: [{key}] ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_run_exits_3(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", OVERFLOW_CONFIG)
        prices = write(tmp_path / "p.csv", OVERFLOW_PRICES)
        out = tmp_path / "out"
        assert self.run_main("backtest", "--config", cfg, "--prices", prices,
                             "--out-dir", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: float64 overflow: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("config,prices,result",
                             [MID_SERIES_OVERFLOW, EMPTY_BAG, BAG_WORTH_0, MONTHLY_OVERFLOW],
                             ids=["mid_series_overflow", "empty_bag", "bag_worth_0",
                                  "monthly_overflow"])
    def test_non_finite_result_exits_3(self, tmp_path, capsys, config, prices, result):
        cfg = write(tmp_path / "run.cfg", config)
        prices = write(tmp_path / "p.csv", prices)
        out = tmp_path / "out"
        assert self.run_main("backtest", "--config", cfg, "--prices", prices,
                             "--out-dir", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: float64 ") and err.endswith(f": {result}\n")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_missing_subcommand_exits_2(self, capsys):
        assert self.run_main() == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: [command] ")
        assert err.count("\n") == 1

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"lower = 1000\nupper = 4000\xff\n")
        prices = walk_csv(tmp_path / "p.csv")
        assert self.run_main("backtest", "--config", str(cfg), "--prices", prices,
                             "--out-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: cannot read config file {cfg}: ")
        assert err.count("\n") == 1


class TestCliCalibrate:

    CAL_CONFIG = BASE_CONFIG.replace("buckets = 30", "buckets = 20")

    def setup_run(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", self.CAL_CONFIG)
        prices = walk_csv(tmp_path / "p.csv", seed=52, n=600)
        return cfg, prices

    def test_writes_curve_and_result(self, tmp_path, capsys):
        cfg, prices = self.setup_run(tmp_path)
        out = tmp_path / "cal"
        code = main(["calibrate", "--config", cfg, "--prices", prices,
                     "--target-fee", "5000", "--mu", "0.0",
                     "--grid", "0.05:2.0:10", "--out-dir", str(out)])
        curve_lines = (out / "fee_curve.csv").read_text().splitlines()
        assert curve_lines[0] == "variance,model_fee"
        assert len(curve_lines) == 11
        if code == 0:
            result = json.loads((out / "calibration.json").read_text())
            assert result["target_fee"] == 5000.0
            assert capsys.readouterr().out.startswith("calibrate:")

    def test_self_generated_target_converges(self, tmp_path):
        cfg, prices = self.setup_run(tmp_path)
        out1 = tmp_path / "probe"
        # probe run: harvest a reachable fee level from the curve itself
        main(["calibrate", "--config", cfg, "--prices", prices,
              "--target-fee", "1e18", "--mu", "0.0",
              "--grid", "0.05:2.0:8", "--out-dir", str(out1)])
        mid_fee = float((out1 / "fee_curve.csv").read_text()
                        .splitlines()[4].split(",")[1])
        out2 = tmp_path / "fit"
        code = main(["calibrate", "--config", cfg, "--prices", prices,
                     "--target-fee", repr(mid_fee), "--mu", "0.0",
                     "--grid", "0.05:2.0:8", "--out-dir", str(out2)])
        assert code == 0
        result = json.loads((out2 / "calibration.json").read_text())
        assert result["converged"]
        assert result["relative_error"] < 1e-3

    def test_target_on_a_grid_point_writes_the_result(self, tmp_path):
        # the first grid point's fee is a hit without any bisection step
        cfg, prices = self.setup_run(tmp_path)
        args = ["calibrate", "--config", cfg, "--prices", prices, "--mu", "0.0",
                "--grid", "0.05:2.0:8"]
        main(args + ["--target-fee", "1e18", "--out-dir", str(tmp_path / "probe")])
        first = (tmp_path / "probe" / "fee_curve.csv").read_text().splitlines()[1]
        out = tmp_path / "fit"
        code = main(args + ["--target-fee", first.split(",")[1], "--out-dir", str(out)])
        assert code == 0
        result = json.loads((out / "calibration.json").read_text())
        assert result["variance"] == 0.05
        assert result["iterations"] == 0
        assert result["relative_error"] == 0.0
        assert result["converged"] is True

    def test_one_travel_pass_per_command(self, tmp_path, monkeypatch):
        # the curve and the bisection share one whole-pool model
        cfg, prices = self.setup_run(tmp_path)
        args = ["calibrate", "--config", cfg, "--prices", prices, "--mu", "0.0",
                "--grid", "0.05:2.0:8"]
        main(args + ["--target-fee", "1e18", "--out-dir", str(tmp_path / "probe")])
        fees = [float(r.split(",")[1]) for r in
                (tmp_path / "probe" / "fee_curve.csv").read_text().splitlines()[1:]]
        passes = []
        travel = calibration._bucket_volume
        monkeypatch.setattr(calibration, "_bucket_volume",
                            lambda *a: passes.append(a) or travel(*a))
        out = tmp_path / "fit"
        code = main(args + ["--target-fee", repr(0.5 * (fees[0] + fees[1])),
                            "--out-dir", str(out)])
        assert code == 0
        assert json.loads((out / "calibration.json").read_text())["iterations"] > 0
        assert len(passes) == 1

    def test_overflowing_fee_curve_exits_3(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", OVERFLOW_CONFIG)
        prices = write(tmp_path / "p.csv", OVERFLOW_PRICES)
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", cfg, "--prices", prices, "--mu", "0.0",
                     "--target-fee", "5", "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: float64 overflow: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_fees_past_1e154_exit_4_without_a_warning(self, tmp_path, capsys):
        # the scan compares the fees' signs against the target: the product
        # of two differences overflows
        cfg = write(tmp_path / "run.cfg", (
            "lower = 1.7589552541126282e-132\nupper = 1.301921080189521e-09\n"
            "buckets = 1\ntau = 100\nstrategy = normal\nmu = 0\nvariance = 0.5\n"
            "capital = 7.481082845048587e+134\nfee_rate = 0.003\n"))
        prices = write(tmp_path / "p.csv", "price\n5.564624185043338e-66\n"
                       "1.847955372070533e-98\n9.648492235033772e-113\n"
                       "2.626275817862387e-13\n")
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", cfg, "--prices", prices, "--mu", "0",
                     "--target-fee", "1.0", "--grid", "0.05:2:5", "--out-dir", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: calibration-unreachable: ")
        assert err.count("\n") == 1

    def test_unreachable_target_exits_4_but_leaves_curve(self, tmp_path, capsys):
        cfg, prices = self.setup_run(tmp_path)
        out = tmp_path / "cal"
        code = main(["calibrate", "--config", cfg, "--prices", prices,
                     "--target-fee", "1e18", "--mu", "0.0",
                     "--grid", "0.05:2.0:6", "--out-dir", str(out)])
        assert code == 4
        assert capsys.readouterr().err.startswith("error: calibration-unreachable:")
        assert (out / "fee_curve.csv").is_file()
        assert not (out / "calibration.json").exists()

    def test_target_far_below_the_curve_exits_4_without_a_warning(self, tmp_path, capsys):
        # the relative error of every fee, over a target of 1e-320, overflows
        cfg, prices = self.setup_run(tmp_path)
        assert main(["calibrate", "--config", cfg, "--prices", prices, "--target-fee",
                     "1e-320", "--mu", "0.0", "--grid", "0.05:2.0:6",
                     "--out-dir", str(tmp_path / "cal")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: calibration-unreachable:")
        assert err.count("\n") == 1

    def test_curve_bytes_are_reproducible(self, tmp_path):
        cfg, prices = self.setup_run(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["calibrate", "--config", cfg, "--prices", prices,
                  "--target-fee", "1e18", "--mu", "0.0",
                  "--grid", "0.05:1.0:5", "--out-dir", str(out)])
        assert (a / "fee_curve.csv").read_bytes() == (b / "fee_curve.csv").read_bytes()

    def test_mu_required_without_normal_config(self, tmp_path, capsys):
        cfg, prices = self.setup_run(tmp_path)
        assert main(["calibrate", "--config", cfg, "--prices", prices,
                     "--target-fee", "5000"]) == 2
        assert "--mu" in capsys.readouterr().err

    def test_separate_negative_mu_in_exponent_form(self, tmp_path):
        # argparse alone reads "-1e-05" as an option, not as the value
        cfg, prices = self.setup_run(tmp_path)
        curves = []
        for mu in (["--mu", "-1e-05"], ["--mu=-1e-05"]):
            out = tmp_path / str(len(curves))
            assert main(["calibrate", "--config", cfg, "--prices", prices, *mu,
                         "--target-fee", "1e18", "--grid", "0.05:2.0:4",
                         "--out-dir", str(out)]) == 4
            curves.append((out / "fee_curve.csv").read_bytes())
        assert curves[0] == curves[1]

    def test_mu_defaults_to_config_profile(self, tmp_path):
        text = self.CAL_CONFIG.replace("strategy = uniform", "strategy = normal")
        text += "mu = 0.2\nvariance = 0.5\n"
        cfg = write(tmp_path / "run.cfg", text)
        prices = walk_csv(tmp_path / "p.csv", seed=52, n=600)
        out = tmp_path / "cal"
        code = main(["calibrate", "--config", cfg, "--prices", prices,
                     "--target-fee", "1e18", "--grid", "0.05:1.0:4",
                     "--out-dir", str(out)])
        assert code == 4  # unreachable, but mu came from the config
        assert (out / "fee_curve.csv").is_file()

    @pytest.mark.parametrize("grid", ["1:2", "a:b:4", "2.0:1.0:4", "0.5:1.0:1",
                                      "0.05:inf:5"])
    def test_bad_grid_exits_2(self, tmp_path, capsys, grid):
        cfg, prices = self.setup_run(tmp_path)
        assert main(["calibrate", "--config", cfg, "--prices", prices,
                     "--target-fee", "5000", "--mu", "0.0", "--grid", grid]) == 2

    def test_nonpositive_target_exits_2(self, tmp_path):
        cfg, prices = self.setup_run(tmp_path)
        assert main(["calibrate", "--config", cfg, "--prices", prices,
                     "--target-fee", "-5", "--mu", "0.0"]) == 2

    @pytest.mark.parametrize("flag,value,key", [
        ("--target-fee", "nan", "target-fee"), ("--target-fee", "inf", "target-fee"),
        ("--mu", "nan", "mu"), ("--bound", "0", "bound"), ("--bound", "-1", "bound"),
        ("--bound", "nan", "bound"), ("--grid", "0.05:inf:5", "grid"),
        # fee_curve's own check; a span that overflows is refused before
        # linspace would warn
        ("--grid", "0:1:4", "variance"), ("--grid", "1:1:4", "grid"),
        ("--grid", "-1e308:1e308:3", "grid"),
        # separate negative values in exponent form, which argparse alone
        # reads as options
        ("--target-fee", "-1e-05", "target-fee"), ("--bound", "-1e-05", "bound"),
    ])
    def test_bad_numbers_exit_2_before_any_work(self, tmp_path, capsys, flag, value, key):
        cfg, prices = self.setup_run(tmp_path)
        args = {"--target-fee": "5000", "--mu": "0.0", flag: value}
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", cfg, "--prices", prices, "--out-dir", str(out),
                     *(x for item in args.items() for x in item)]) == 2
        assert capsys.readouterr().err.startswith(f"error: config: [{key}] ")
        assert not out.exists()


class TestCliReport:

    def write_report(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", BASE_CONFIG)
        prices = walk_csv(tmp_path / "p.csv")
        out = tmp_path / "out"
        main(["backtest", "--config", cfg, "--prices", prices,
              "--out-dir", str(out)])
        return out / "report.json"

    def test_prints_summary_table(self, tmp_path, capsys):
        path = self.write_report(tmp_path)
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Deployed capital W" in out
        assert "Fees model" in out
        assert "Fees fact" not in out

    def test_fact_rows_report_relative_errors(self, tmp_path, capsys):
        path = self.write_report(tmp_path)
        report = json.loads(path.read_text())
        fact = report["fees_total_b"] * 2
        capsys.readouterr()
        assert main(["report", str(path), "--fact-fee", repr(fact),
                     "--fact-volume", repr(report["volume_total_b"])]) == 0
        out = capsys.readouterr().out
        assert "Fees fact" in out
        assert "-50.00%" in out
        assert "Volume error" in out
        assert "0.00%" in out

    def test_malformed_report_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "report.json"
        bad.write_text("{not json")
        assert main(["report", str(bad)]) == 3
        assert capsys.readouterr().err.startswith("error: data:")

    def test_missing_report_exits_3(self, tmp_path):
        assert main(["report", str(tmp_path / "absent.json")]) == 3

    def test_report_that_is_not_utf8_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"initial_capital": 1\xff}')
        assert main(["report", str(bad)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: cannot read report {bad}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text,key", [
        ('{"a": 1}', "initial_capital"), ("[1]", "initial_capital"),
        ("null", "initial_capital"), ('{"initial_capital": "1e6"}', "initial_capital"),
    ])
    def test_report_without_a_summary_entry_exits_3(self, tmp_path, capsys, text, key):
        bad = tmp_path / "report.json"
        bad.write_text(text)
        assert main(["report", str(bad)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and repr(key) in err

    def test_report_missing_one_key_names_it(self, tmp_path, capsys):
        path = self.write_report(tmp_path)
        report = json.loads(path.read_text())
        del report["gas_cost_b"]
        path.write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["report", str(path)]) == 3
        assert "'gas_cost_b'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--fact-fee", "--fact-volume"])
    @pytest.mark.parametrize("value", ["0", "-2", "nan", "inf", "-1e-05"])
    def test_bad_fact_exits_2(self, tmp_path, capsys, flag, value):
        path = self.write_report(tmp_path)
        capsys.readouterr()
        assert main(["report", str(path), flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"error: config: [{flag[2:]}] ")


def test_readme_library_use_runs(capsys):
    # README's Python block, with ``prices`` bound to a short walk
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    prices = np.clip(2500.0 + np.cumsum(np.random.default_rng(8).normal(0.0, 60.0, 300)),
                     1000.0, 4000.0)
    exec(block, {"prices": prices.tolist()})
    totals, *epochs, fit = capsys.readouterr().out.splitlines()
    assert len(totals.split()) == 3
    assert len(epochs) > 1 and epochs[0].startswith("0 ")
    variance, converged = fit.split()
    assert 0.05 <= float(variance) <= 0.4 and converged == "True"


# each shape of usage error, as (argv after the config and price flags, key)
USAGE_ERRORS = {
    "unknown_command": (["bogus"], "command"),
    "unknown_flag": (["backtest", "--verbose"], "verbose"),
    "abbreviation": (["backtest", "--out", "x"], "out"),
    "missing_value": (["calibrate", "--target-fee", "5", "--mu"], "mu"),
    "duplicate": (["backtest", "--out-dir", "a", "--out-dir", "b"], "out-dir"),
    "both_price_modes": (["backtest", "--strict-prices", "--clamp-prices"], "clamp-prices"),
    "switch_with_value": (["backtest", "--clamp-prices=yes"], "clamp-prices"),
    "bad_int": (["backtest", "--seed", "1.5"], "seed"),
    "bad_float": (["calibrate", "--target-fee", "5", "--mu", "zero"], "mu"),
    "missing_required": (["calibrate", "--mu", "0.0"], "target-fee"),
    "missing_positional": (["report", "--fact-fee", "5"], "REPORT_JSON"),
    "extra_positional": (["report", "a.json", "b.json"], "REPORT_JSON"),
    "stray_argument": (["backtest", "extra"], "backtest"),
}


@pytest.mark.parametrize("argv,key", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_exits_2_with_one_line(tmp_path, capsys, argv, key):
    cfg = write(tmp_path / "run.cfg", BASE_CONFIG)
    prices = walk_csv(tmp_path / "p.csv", n=120)
    files = ["--config", cfg, "--prices", prices] if argv[0] != "report" else []
    assert main([*argv[:1], *files, *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: config: [{key}] ")
    assert err.count("\n") == 1 and out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv", "run.cfg"]


@pytest.mark.parametrize("command", [[], ["backtest"], ["calibrate"], ["report"]],
                         ids=["none", "backtest", "calibrate", "report"])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_usage_and_exits_0(capsys, command, flag):
    assert main([*command, flag]) == 0
    assert capsys.readouterr() == (USAGE, "")
    # the usage text is written by hand: it must name every flag of the table
    assert all(name in USAGE for _, flags in _COMMANDS.values() for name in flags)


def test_flag_equals_value_runs_as_separate_words(tmp_path):
    cfg = write(tmp_path / "run.cfg", BASE_CONFIG.replace("strategy = uniform",
                                                          "strategy = random\nseed = 1"))
    prices = walk_csv(tmp_path / "p.csv", n=120)
    a, b = tmp_path / "a", tmp_path / "b"
    flags = {"--config": cfg, "--prices": prices, "--seed": "7"}
    assert main(["backtest", *(w for item in flags.items() for w in item),
                 "--out-dir", str(a), "--clamp-prices"]) == 0
    assert main(["backtest", *(f"{flag}={value}" for flag, value in flags.items()),
                 f"--out-dir={b}", "--clamp-prices"]) == 0
    for name in ("report.json", "trajectory.csv", "fees_by_epoch.csv", "states_summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_module_entry_point(tmp_path):
    cfg = write(tmp_path / "run.cfg", BASE_CONFIG)
    prices = walk_csv(tmp_path / "p.csv", n=120)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "clmm_backtest", "backtest", "--config", cfg,
         "--prices", prices, "--out-dir", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("backtest:")
    assert (out / "report.json").is_file()


# files are read as UTF-8 under an ASCII locale too: a config that starts
# with a byte order mark, a config comment outside ASCII, and a price cell
# outside ASCII, which the row parser names
@pytest.mark.parametrize("config_bytes,price_bytes,code,err", [
    (codecs.BOM_UTF8 + BASE_CONFIG.encode(), b"price\n2000\n2100\n", 0, ""),
    ("# caf\u00e9\n".encode() + BASE_CONFIG.encode(), b"price\n2000\n2100\n", 0, ""),
    (BASE_CONFIG.encode(), "price\n2000\n21\u00e900\n".encode(), 3,
     "error: data: row 2: cannot parse price '21")], ids=["bom", "comment", "price"])
def test_files_are_utf8_whatever_the_locale(tmp_path, config_bytes, price_bytes, code, err):
    (tmp_path / "run.cfg").write_bytes(config_bytes)
    (tmp_path / "p.csv").write_bytes(price_bytes)
    src = Path(importlib.util.find_spec("clmm_backtest").origin).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "clmm_backtest", "backtest", "--config", "run.cfg",
         "--prices", "p.csv", "--out-dir", "out"], cwd=tmp_path, capture_output=True,
        text=True, errors="replace",
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONUTF8": "0", "LC_ALL": "C"})
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(err) and proc.stderr.count("\n") == (1 if code else 0)


# --out-dir shapes that cannot be made or written: a regular file, a path
# under one, and an artifact's name taken by a directory
@pytest.mark.parametrize("shape,reason", [
    ("afile", "File exists"), ("afile/sub", "Not a directory"),
    ("out/{artifact}", "Is a directory")], ids=["file", "under_a_file", "artifact"])
@pytest.mark.parametrize("command,artifact", [
    ("backtest", "trajectory.csv"), ("calibrate", "fee_curve.csv"),
    ("backtest", "fees_by_epoch.csv"), ("backtest", "states_summary.json"),
    ("calibrate", "calibration.json")],
    ids=["backtest", "calibrate", "backtest_fees_by_epoch", "backtest_states_summary",
         "calibrate_calibration"])
def test_unwritable_out_dir_exits_3_with_one_line(tmp_path, capsys, shape, reason,
                                                  command, artifact):
    # a run that cannot write one artifact removes those it wrote before it
    cfg = write(tmp_path / "run.cfg", BASE_CONFIG)
    prices = walk_csv(tmp_path / "p.csv", n=120)
    (tmp_path / "afile").write_text("kept\n")
    (tmp_path / "out" / artifact).mkdir(parents=True)
    target = tmp_path / shape.format(artifact=artifact)
    out = target if shape.startswith("afile") else target.parent
    extra = ["--target-fee", "1000", "--mu", "0.0", "--grid", "0.05:2.0:6"] \
        if command == "calibrate" else []
    assert main([command, "--config", cfg, "--prices", prices,
                 "--out-dir", str(out), *extra]) == 3
    assert capsys.readouterr().err == f"error: data: cannot write {target}: {reason}\n"
    assert (tmp_path / "afile").read_text() == "kept\n"
    assert list((tmp_path / "out").iterdir()) == [tmp_path / "out" / artifact]


# what each run leaves in sys.modules, in a fresh interpreter: the text
# modules, then those of numpy.ma, argparse, gettext and locale
LOADED_TEXT_MODULES = """
import sys
import numpy as np
from clmm_backtest import cli, parse_config, run_backtest
mode, cfg, prices, out = sys.argv[1:]
if mode == "library":
    run_backtest(parse_config(open(cfg).read()),
                 np.loadtxt(prices, skiprows=1, delimiter=",", usecols=1))
else:
    extra = ["--target-fee", "5000", "--mu", "0.0"] if mode == "calibrate" else []
    cli.main([mode, "--config", cfg, "--prices", prices, "--out-dir", out, *extra])
print(",".join(m for m in ("_floatread", "_floattext")
               if "clmm_backtest." + m in sys.modules))
print(",".join(m for m in ("numpy.ma", "argparse", "gettext", "locale") if m in sys.modules))
"""


@pytest.mark.parametrize("mode,loaded", [
    ("calibrate", "_floatread"), ("backtest", "_floatread,_floattext"), ("library", "")])
def test_each_run_loads_only_the_text_modules_its_data_needs(tmp_path, mode, loaded):
    # calibrate writes a 40-row fee curve with repr; a backtest over more
    # rows than the repr writer takes loads the bulk writer; a library run
    # on an array reads and writes no text.  No run loads numpy.ma (whose
    # import np.unique makes on its first call, as in np.union1d), and none
    # loads argparse or the gettext and locale it imports
    cfg = write(tmp_path / "run.cfg", BASE_CONFIG)
    prices = walk_csv(tmp_path / "p.csv", n=prices_module._REPR_ROWS + 1, with_ts=True)
    src = Path(importlib.util.find_spec("clmm_backtest").origin).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_TEXT_MODULES, mode, cfg, prices, str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [loaded, ""]


# the bindings perfbench's tracer wraps for a layer that runs; a binding a
# module no longer has is skipped by the tracer, so its layer would read zero
TRACED = [
    ("clmm_backtest", "load_config"), ("clmm_backtest", "run_backtest"),
    ("clmm_backtest.cli", "main"), ("clmm_backtest.cli", "load_config"),
    ("clmm_backtest.cli", "load_prices"), ("clmm_backtest.cli", "run_backtest"),
    ("clmm_backtest.cli", "fee_curve"), ("clmm_backtest.cli", "calibrate_variance"),
    ("clmm_backtest.engine", "segment_epochs"),
    ("clmm_backtest.engine", "normal_profile_weights"),
    ("clmm_backtest.engine", "custom_weights"),
]


def test_traced_layer_bindings_exist():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wrapped = {(module, attr) for module, attr, _ in tracer.WRAPPED}
    for module, attr in TRACED:
        assert (module, attr) in wrapped
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_traced_segmentation_returns_the_epochs_and_the_bucket_column(monkeypatch):
    # the tracer counts bucketing.epochs as len() of what the engine's
    # segment_epochs binding returns, and times the bucket lookup in it
    from clmm_backtest import engine
    plans, segment = [], engine.segment_epochs
    monkeypatch.setattr(engine, "segment_epochs",
                        lambda *args: plans.append(segment(*args)) or plans[-1])
    config = parse_config(BASE_CONFIG)
    prices = 2500.0 + 400.0 * np.sin(np.arange(3000) / 97.0)
    report = engine.run_backtest(config, prices)
    (plan,) = plans
    assert len(plan) == len(report.plan) == len(report.ledger.inflow_b) > 10
    assert plan.buckets.tolist() == config.partition.bucket_column(prices).tolist()
    assert report.plan.buckets is None  # the report does not keep the column
