"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each layer's public function, in the namespace
of the module that calls it, with a wrapper that records one span per call:
name, start, end, parent span and run id.  Spans stay in memory; the
benchmark writes them out when it ends.  A function that a later version of
the program no longer has is skipped, so its layer reports zero calls.

Counters are taken from the wrapped calls' return values.  The wrappers only
keep a reference to what they need; the counts are computed after the timed
region, so that no layer's span pays for them.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

# (module whose namespace holds the binding, attribute, span name)
WRAPPED = (
    ("clmm_backtest", "load_config", "config.load"),
    ("clmm_backtest", "run_backtest", "engine.run_backtest"),
    ("clmm_backtest.cli", "main", "cli.main"),
    ("clmm_backtest.cli", "load_config", "config.load"),
    ("clmm_backtest.cli", "load_prices", "prices.load"),
    ("clmm_backtest.cli", "run_backtest", "engine.run_backtest"),
    ("clmm_backtest.cli", "fee_curve", "calibration.fee_curve"),
    ("clmm_backtest.cli", "calibrate_variance", "calibration.search"),
    ("clmm_backtest.calibration", "run_backtest", "engine.run_backtest"),
    ("clmm_backtest.engine", "segment_epochs", "bucketing.segment"),
    ("clmm_backtest.engine", "uniform_band_weights", "allocation.weights"),
    ("clmm_backtest.engine", "random_band_weights", "allocation.weights"),
    ("clmm_backtest.engine", "normal_profile_weights", "allocation.weights"),
    ("clmm_backtest.engine", "custom_weights", "allocation.weights"),
    ("clmm_backtest.engine", "allocate_epoch", "allocation.allocate"),
    ("clmm_backtest.engine", "gas_cost", "engine.gas"),
    ("clmm_backtest.allocation", "split_capital", "core_math.split_capital"),
)

# what a counter needs from a span's return value; attribute lookups only,
# so that a wrapper adds no real work to its parent's span
_KEEP = {
    "prices.load": len,
    "bucketing.segment": len,
    "engine.run_backtest": lambda r: (getattr(r, "plan", None),
                                      getattr(r, "epoch_active", None),
                                      getattr(r, "gas", None)),
    "calibration.search": lambda r: getattr(r, "iterations", 0),
}

ROOT = "workload"


class Tracer:
    """In-memory span recorder for one worker process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []      # [name, start, end, parent index or None]
        self.returns = defaultdict(list)
        self._stack = []

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self._wrap(fn, name))

    def _wrap(self, fn, name):
        keep = _KEEP.get(name)

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, keep)

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, args=(), kwargs=None, keep=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            out = fn(*args, **(kwargs or {}))
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if keep is not None:
            self.returns[name].append(keep(out))
        return out

    def records(self) -> list:
        """Spans as JSON-ready dicts; ``parent`` is the parent's ``id``."""
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p,
                 "run_id": self.run_id}
                for i, (n, s, e, p) in enumerate(self.spans)]

    def layer_metrics(self) -> tuple:
        """Per-layer times and counts of the workload span's subtree.

        The workload span is the last top-level span, so every span recorded
        after it opened lies inside it.  Returns the metrics and the sum of
        every self time in the subtree, which equals the workload span's
        duration when the spans nest.
        """
        root = max(i for i, sp in enumerate(self.spans) if sp[0] == ROOT)
        in_run = range(root, len(self.spans))
        children = defaultdict(float)
        for sp in self.spans:
            if sp[3] is not None:
                children[sp[3]] += sp[2] - sp[1]

        def ancestors(i):
            i = self.spans[i][3]
            while i is not None:
                yield self.spans[i][0]
                i = self.spans[i][3]

        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for i in in_run:
            name, start, end, _ = self.spans[i]
            total[name] += end - start
            self_time[name] += end - start - children[i]
            calls[name] += 1
        # config is parsed at set-up too, outside the workload span
        config_s = sum(e - s for n, s, e, _ in self.spans if n == "config.load")
        backtests_in_calibration = sum(
            1 for i in in_run if self.spans[i][0] == "engine.run_backtest"
            and any(a.startswith("calibration.") for a in ancestors(i)))

        steps = cells = mints = burns = 0
        for plan, active, gas in self.returns["engine.run_backtest"]:
            if plan is not None and active is not None:
                for n_active, ep in zip(active.tolist(), plan):
                    steps += n_active * (ep.end - ep.start)
                    cells += n_active * (ep.end - ep.start + 1)
            mints += getattr(gas, "mint_events", 0)
            burns += getattr(gas, "burn_events", 0)

        wall = self.spans[root][2] - self.spans[root][1]
        metrics = {
            "prices.load_s": total["prices.load"],
            "prices.rows": sum(self.returns["prices.load"]),
            "config.load_s": config_s,
            "bucketing.segment_s": total["bucketing.segment"],
            "bucketing.calls": calls["bucketing.segment"],
            "bucketing.epochs": sum(self.returns["bucketing.segment"]),
            "allocation.weights_s": total["allocation.weights"],
            "allocation.weights_calls": calls["allocation.weights"],
            "allocation.allocate_s": self_time["allocation.allocate"],
            "allocation.allocate_calls": calls["allocation.allocate"],
            "core_math.split_capital_s": total["core_math.split_capital"],
            "core_math.split_capital_calls": calls["core_math.split_capital"],
            "engine.run_backtest_s": total["engine.run_backtest"],
            "engine.run_backtest_calls": calls["engine.run_backtest"],
            "engine.self_s": self_time["engine.run_backtest"],
            "engine.gas_s": total["engine.gas"],
            "engine.bucket_steps": steps,
            # two float64 reserves per (timestep, active bucket) cell
            "engine.kernel_bytes_computed": 16 * cells,
            "engine.mint_events": mints,
            "engine.burn_events": burns,
            "calibration.fee_curve_s": total["calibration.fee_curve"],
            "calibration.search_s": total["calibration.search"],
            "calibration.self_s": (self_time["calibration.fee_curve"]
                                   + self_time["calibration.search"]),
            "calibration.backtests": backtests_in_calibration,
            "calibration.bisections": sum(self.returns["calibration.search"]),
            "cli.write_s": self_time["cli.main"],
            "trace.wall_s": wall,
            "trace.unattributed_s": self_time[ROOT],
        }
        return metrics, sum(self_time.values())
