"""One repetition of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py T_SPAWN CONFIG TRACE REQUEST

T_SPAWN is the parent's ``time.perf_counter()`` just before it started this
process (the monotonic clock is shared between processes on Linux), CONFIG
the workload's config file, TRACE 0 or 1, and REQUEST a JSON file written by
``run.py`` that says what to run and where to put the result.

Set-up is everything up to an imported ``clmm_backtest`` and a parsed
config.  The timed region then covers one call into the program: ``cli.main``
for the CLI workloads, ``run_backtest`` on an in-memory series for the
library one.  After it the worker writes to the request's ``result`` path the
set-up and wall times, the peak resident memory, a summary of the outputs for
the correctness gate, sha256 digests of the artifacts (for the library
workload, of the serialised report and trajectories) and, when tracing, the
spans and per-layer metrics.  A request of kind ``setup`` stops after set-up.
"""

import os
import sys
import time


def _setup(t_spawn: float, config_path: str, trace: bool):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    sys.path.insert(0, src)
    import clmm_backtest
    import clmm_backtest.cli
    if not os.path.abspath(clmm_backtest.__file__).startswith(src + os.sep):
        raise SystemExit(f"clmm_backtest imported from {clmm_backtest.__file__}, "
                         f"not from {src}")
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(run_id=None)
        tracer.install()
    config = clmm_backtest.load_config(config_path)
    return clmm_backtest, config, tracer, time.perf_counter() - t_spawn


def _peak_rss_mb() -> float:
    # VmHWM is this process's own high-water mark; getrusage's ru_maxrss also
    # carries the spawning parent's peak across fork and exec
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _digests(paths) -> dict:
    import hashlib
    out = {}
    for path in sorted(paths):
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _backtest_summary(report: dict) -> dict:
    gas = report["gas_breakdown"]
    return {
        "kind": "backtest",
        "epochs": report["epochs"],
        "mint_events": gas["mint_events"],
        "burn_events": gas["burn_events"],
        "fees_total_b": report["fees_total_b"],
        "volume_total_b": report["volume_total_b"],
        "gas_cost_b": report["gas_cost_b"],
        "final_value": report["final_value"],
        "fee_rate": report["fee_rate"],
        "epoch_bounds": [[r["start"], r["end"]] for r in report["epoch_fees"]],
    }


def _calibration_summary(out_dir: str) -> dict:
    import json
    with open(os.path.join(out_dir, "calibration.json")) as fh:
        cal = json.load(fh)
    with open(os.path.join(out_dir, "fee_curve.csv")) as fh:
        curve = [line.split(",") for line in fh.read().splitlines()[1:]]
    return {
        "kind": "calibration",
        "converged": cal["converged"],
        "relative_error": cal["relative_error"],
        "model_fee": cal["model_fee"],
        "target_fee": cal["target_fee"],
        "variance": cal["variance"],
        "iterations": cal["iterations"],
        "curve_variances": [float(v) for v, _ in curve],
        "curve_fees": [float(f) for _, f in curve],
    }


def main() -> int:
    t_spawn, config_path, trace, request_path = (
        float(sys.argv[1]), sys.argv[2], sys.argv[3] == "1", sys.argv[4])
    cb, config, tracer, setup_s = _setup(t_spawn, config_path, trace)

    import hashlib
    import json
    import numpy as np

    with open(request_path) as fh:
        req = json.load(fh)
    result = {"setup_s": setup_s}
    if tracer is not None:
        tracer.run_id = req["run_id"]
    if req["kind"] != "setup":
        if req["kind"] == "cli":
            def call():
                return cb.cli.main(req["argv"])
        else:
            prices = np.load(req["walk"])

            def call():
                return cb.run_backtest(config, prices)

        t0 = time.perf_counter()
        out = call() if tracer is None else tracer.call("workload", call)
        result["wall_s"] = time.perf_counter() - t0
        result["peak_rss_mb"] = _peak_rss_mb()

        if req["kind"] == "cli":
            result["exit_code"] = out
            out_dir = req["out_dir"]
            files = [os.path.join(out_dir, f) for f in os.listdir(out_dir)]
            result["bytes_written"] = sum(os.path.getsize(f) for f in files)
            result["digests"] = _digests(files)
            if out == 0 and req["argv"][0] == "backtest":
                with open(os.path.join(out_dir, "report.json")) as fh:
                    result["summary"] = _backtest_summary(json.load(fh))
            elif out == 0:
                result["summary"] = _calibration_summary(out_dir)
        else:
            result["exit_code"] = 0
            report = out.to_dict()
            result["summary"] = _backtest_summary(report)
            digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
            digest.update(out.lp_trajectory.tobytes())
            digest.update(out.bh_trajectory.tobytes())
            result["bytes_written"] = 0
            result["digests"] = {"report": digest.hexdigest()}

        if tracer is not None:
            metrics, self_sum = tracer.layer_metrics()
            metrics["cli.bytes_written"] = result["bytes_written"]
            result["layers"] = metrics
            result["self_sum_s"] = self_sum
            result["spans"] = tracer.records()

    with open(req["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
