"""Benchmark of clmm-backtest: three workloads, checked outputs, layer timings.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-check

Run from the root of a checkout; the program is imported from its ``src/``.
Inputs are generated from ``--seed`` (default 110) before anything is timed:
a minute-bar walk of 525,600 steps from 2000, ``default_rng(seed)`` normal
steps of 0.4 price units, reflected into [1500, 2500].  Steps are additive
and reflected rather than log-normal and clipped so that every seed does the
same work: buckets have equal width in price, so a constant step size gives
the same reset rate at every price level (about 6,100 epochs at 3,000
buckets and tau 3, within about 1% across seeds), and no price sticks at a
clip.  Every workload uses the partition [1000, 4000], capital 1e6 and fee
rate 0.003.

  cli_year        ``backtest`` through ``cli.main`` on the walk as a ``ts,price``
                  CSV at one-minute spacing over 2023; 100 buckets, tau 2,
                  uniform, exclude.  The command users run: ingest and
                  artifact writing dominate, the kernel sees a 5-bucket band.
  epochs_3000     library ``run_backtest`` on the walk in memory; 3,000
                  buckets, tau 3, random strategy with seed 7, reinvest.
                  About 6,100 epochs of per-epoch Python work, no I/O.
  calibrate_100k  ``calibrate`` through ``cli.main`` on the walk's first
                  100,000 rows as a ``price``-only CSV; 100 buckets, mu 0.875,
                  grid 0.05:2.0:40.  All 100 buckets active, 44 replays: the
                  target fee is the model fee at the variance that bisection
                  reaches in its fourth step between the two middle grid
                  points, so the search does the same work at every seed.

Each repetition runs in a fresh worker process (``worker.py``) with BLAS and
OpenMP threads pinned to 1.  Repetitions run until ``--seconds`` have passed,
and at least two, so that their artifacts can be compared byte for byte.
Every repetition's outputs go through the correctness gate (``gate.py``); a
repetition that fails it, or whose artifacts differ from the first one's,
counts as failed.

With ``--trace 0`` the run reports the end-to-end metrics as medians over the
repetitions: ``wall_s`` (the call into the program, set-up excluded),
``rows_per_s`` (input rows over ``wall_s``), ``setup_s`` (fresh process start
to imported package and parsed config, over the repetitions and extra
set-up-only processes) and ``peak_rss_mb``.  With ``--trace 1`` untraced and
traced repetitions alternate; the traced ones wrap each layer's public
functions (``tracer.py``) and report the per-layer metrics, and
``trace.overhead_s`` is the difference of the two medians.  Spans are kept in
memory and written to ``.perfbench/spans/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit, and ``failed_frac``.
``--self-check`` runs every workload at a tiny size in both modes, checks that
every metric declared in ``BENCHMARK.json`` is reported with its unit, and
checks that the gate rejects a perturbed fee total.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gate

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

DEFAULT_SEED = 110
WALK_STEPS = 525_600
WALK_START, WALK_STEP, WALK_LOW, WALK_HIGH = 2000.0, 0.4, 1500.0, 2500.0
YEAR_START = 1_672_531_200  # 2023-01-01T00:00:00Z
FEE_RATE = 0.003
MU = 0.875
GRID = (0.05, 2.0, 40)
TINY_GRID = (0.05, 2.0, 6)
BISECTIONS = 4
COMMON_CONFIG = "lower = 1000\nupper = 4000\ncapital = 1e6\nfee_rate = 0.003\n"
WORKLOADS = {
    "cli_year": {"rows": 525_600, "tiny_rows": 4_000,
                 "config": "buckets = 100\ntau = 2\nstrategy = uniform\n"
                           "reinvest = exclude\n"},
    "epochs_3000": {"rows": 525_600, "tiny_rows": 4_000,
                    "config": "buckets = 3000\ntau = 3\nstrategy = random\n"
                              "seed = 7\nreinvest = reinvest\n"},
    "calibrate_100k": {"rows": 100_000, "tiny_rows": 2_000,
                       "config": "buckets = 100\ntau = 2\nstrategy = uniform\n"},
}

MIN_REPS = 2            # byte identity needs two sets of artifacts
SETUP_SAMPLES = 11      # set-up times per run, topped up with set-up-only processes
RUN_BUDGET_S = 150.0    # start no repetition that would end past this
WORKER_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                  MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1",
                  VECLIB_MAXIMUM_THREADS="1", PYTHONHASHSEED="0")


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def make_walk(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    free = WALK_START - WALK_LOW + np.cumsum(rng.normal(0.0, WALK_STEP, WALK_STEPS))
    width = WALK_HIGH - WALK_LOW
    return WALK_LOW + width - np.abs(np.mod(free, 2.0 * width) - width)


def _write_csv(path: Path, prices: np.ndarray, ts=None) -> None:
    with open(path, "w") as fh:
        if ts is None:
            fh.write("price\n")
            fh.write("".join(f"{p!r}\n" for p in prices.tolist()))
        else:
            fh.write("ts,price\n")
            fh.write("".join(f"{t},{p!r}\n" for t, p in zip(ts.tolist(),
                                                              prices.tolist())))


def _calibration_target(config_text: str, prices: np.ndarray, grid: list) -> float:
    """Model fee at the variance bisection reaches in BISECTIONS steps.

    Bracketed by the two middle grid points, on a fee curve monotone there,
    each midpoint before that variance lies on the lower end's side of the
    target, so the search moves up every step and lands on it exactly.
    """
    sys.path.insert(0, str(ROOT / "src"))
    import clmm_backtest
    k = len(grid) // 2
    lo, hi = grid[k - 1], grid[k]
    for _ in range(BISECTIONS):
        lo = mid = 0.5 * (lo + hi)
    return clmm_backtest.whole_pool_fee(clmm_backtest.parse_config(config_text),
                                        prices, MU, mid)


def prepare(name: str, seed: int, work: Path, tiny: bool) -> dict:
    """Write the workload's inputs and return how to run and check it."""
    spec = WORKLOADS[name]
    rows = spec["tiny_rows"] if tiny else spec["rows"]
    prices = make_walk(seed)[:rows]
    config_text = COMMON_CONFIG + spec["config"]
    config = work / f"{name}.cfg"
    config.write_text(config_text)
    reference = gate.REFERENCE[name] if seed == DEFAULT_SEED and not tiny else None
    out = {"rows": rows, "config": str(config)}

    if name == "cli_year":
        csv = work / "prices.csv"
        _write_csv(csv, prices, ts=YEAR_START + 60 * np.arange(rows, dtype=np.int64))
        out["request"] = {"kind": "cli", "argv": [
            "backtest", "--config", str(config), "--prices", str(csv)]}
        out["check"] = lambda s: gate.check_backtest(s, rows, FEE_RATE, reference)
    elif name == "epochs_3000":
        walk = work / "walk.npy"
        np.save(walk, prices)
        out["request"] = {"kind": "library", "walk": str(walk)}
        out["check"] = lambda s: gate.check_backtest(s, rows, FEE_RATE, reference)
    else:
        csv = work / "prices.csv"
        _write_csv(csv, prices)
        grid_spec = TINY_GRID if tiny else GRID
        grid = np.linspace(*grid_spec).tolist()
        target = reference["target_fee"] if reference is not None \
            else _calibration_target(config_text, prices, grid)
        out["request"] = {"kind": "cli", "argv": [
            "calibrate", "--config", str(config), "--prices", str(csv),
            "--target-fee", repr(target), "--mu", repr(MU),
            "--grid", ":".join(map(str, grid_spec))]}
        out["check"] = lambda s: gate.check_calibration(s, target, grid, reference)
    return out


def run_worker(work: Path, spec: dict, kind: str, trace: bool, run_id: str,
               deadline: float) -> tuple:
    """One fresh worker process; returns (result or None, problems)."""
    rep_dir = work / run_id
    out_dir = rep_dir / "out"
    out_dir.mkdir(parents=True)
    request = dict(spec["request"], kind=kind, run_id=run_id, out_dir=str(out_dir),
                   result=str(rep_dir / "result.json"))
    if "argv" in request:
        request["argv"] = request["argv"] + ["--out-dir", str(out_dir)]
    request_path = rep_dir / "request.json"
    request_path.write_text(json.dumps(request))
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), repr(t_spawn), spec["config"],
             "1" if trace else "0", str(request_path)],
            cwd=ROOT, env=WORKER_ENV, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return None, [f"{run_id}: worker timed out"]
    try:
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return None, [f"{run_id}: worker exited {proc.returncode}: {tail[0]}"]
        result = json.loads((rep_dir / "result.json").read_text())
    finally:
        shutil.rmtree(rep_dir)
    if kind == "setup":
        return result, []
    if result["exit_code"] != 0:
        return result, [f"{run_id}: program exited {result['exit_code']}: "
                        f"{proc.stderr.strip()[-200:]}"]
    problems = [f"{run_id}: {p}" for p in spec["check"](result["summary"])]
    if trace and abs(result["self_sum_s"] - result["layers"]["trace.wall_s"]) > 1e-6:
        problems.append(f"{run_id}: span self times do not add up to the wall time")
    return result, problems


def _stats(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
            declared: dict) -> tuple:
    """Run one workload; returns (result line, human lines, rep results)."""
    t_start = time.perf_counter()
    deadline = t_start + 170.0
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec = prepare(name, seed, work, tiny)
        run_worker(work, spec, "setup", False, "warmup", deadline)

        reps, problems, spans = [], [], []
        untraced, traced = [], []
        t_measure = time.perf_counter()
        longest = 0.0
        k = 0
        while True:
            # with tracing, untraced and traced repetitions alternate
            for traced_rep in ((False, True) if trace else (False,)):
                t0 = time.perf_counter()
                run_id = f"{name}-seed{seed}-rep{k}"
                result, rep_problems = run_worker(work, spec, spec["request"]["kind"],
                                                  traced_rep, run_id, deadline)
                longest = max(longest, time.perf_counter() - t0)
                k += 1
                reps.append(result)
                problems.append(rep_problems)
                if result is not None and "wall_s" in result:
                    (traced if traced_rep else untraced).append(result)
                    if traced_rep:
                        spans.extend(result.pop("spans"))
            now = time.perf_counter()
            if len(reps) >= MIN_REPS and now - t_measure >= seconds:
                break
            if now - t_start + longest > RUN_BUDGET_S:
                break

        first = next((r["digests"] for r in reps if r is not None
                      and "digests" in r), None)
        for i, r in enumerate(reps):
            if r is not None and r.get("digests") not in (None, first):
                problems[i].append(f"rep{i}: artifacts differ from the first "
                                   "repetition's")

        if not untraced or (trace and not traced):
            raise BenchError("no repetition completed: "
                             + "; ".join(p for ps in problems for p in ps))

        walls = [r["wall_s"] for r in untraced]
        metrics = {}
        if not trace:
            setups = [r["setup_s"] for r in untraced]
            while len(setups) < SETUP_SAMPLES:
                probe, probe_problems = run_worker(work, spec, "setup", False,
                                                   f"setup{len(setups)}", deadline)
                if probe is None:
                    raise BenchError("; ".join(probe_problems))
                setups.append(probe["setup_s"])
            wall = statistics.median(walls)
            metrics = {
                "wall_s": wall,
                "rows_per_s": spec["rows"] / wall,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            }
            samples = {"wall_s": walls, "rows_per_s": [spec["rows"] / w for w in walls],
                       "setup_s": setups,
                       "peak_rss_mb": [r["peak_rss_mb"] for r in untraced]}
        else:
            for key in traced[0]["layers"]:
                values = [r["layers"][key] for r in traced]
                # counts stay whole numbers: take a measured value, not a mean of two
                metrics[key] = statistics.median_low(values) \
                    if isinstance(values[0], int) else statistics.median(values)
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
            samples = {key: [r["layers"][key] for r in traced] for key in metrics
                       if key != "trace.overhead_s"}
            spans_dir = ROOT / ".perfbench" / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            size = "-tiny" if tiny else ""
            with open(spans_dir / f"{name}-seed{seed}{size}.jsonl", "w") as fh:
                fh.writelines(json.dumps(s) + "\n" for s in spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for ps in problems if ps)
    mode = "per_layer" if trace else "end_to_end"
    missing = [m["name"] for m in declared[mode] if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    lines = [f"{name}  seed {seed}  {'traced' if trace else 'untraced'}  "
             f"{len(reps)} repetitions  {time.perf_counter() - t_start:.1f} s"]
    for m in declared[mode]:
        value = metrics[m["name"]]
        shown = f"{value:<14d}" if isinstance(value, int) else f"{value:<14.6g}"
        lines.append(f"  {m['name']:<30} {shown} {m['unit']:<6} "
                     f"{_stats(samples.get(m['name'], []))}")
    lines.append(f"  {'failed_frac':<30} {failed / len(reps):<14.6g} {'1':<6} "
                 f"{failed}/{len(reps)}")
    if trace:
        lines.append(f"  span self times sum to {traced[-1]['self_sum_s']:.6g} s of "
                     f"traced wall {traced[-1]['layers']['trace.wall_s']:.6g} s")
    lines += [f"  FAILED {p}" for ps in problems for p in ps]
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared[mode]},
    }
    return result, lines, [r for r in reps if r is not None]


def self_check(declared: dict) -> list:
    """Tiny-size runs of every workload in both modes; returns problems."""
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            result, lines, reps = measure(name, DEFAULT_SEED, 0.0, trace, True,
                                          declared)
            print("\n".join(lines), flush=True)
            if not result["correct"]:
                problems.append(f"{name}: a tiny run failed the gate")
            mode = "per_layer" if trace else "end_to_end"
            units = {m["name"]: m["unit"] for m in declared[mode]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units:
                problems.append(f"{name}: metrics {got} do not match {units}")
            if not all(any(line.split()[:1] == [k] and f" {u} " in line
                           for line in lines) for k, u in units.items()):
                problems.append(f"{name}: a metric is not printed with its unit")
            summary = reps[0]["summary"]
            if summary["kind"] == "backtest":
                bad = dict(summary, fees_total_b=summary["fees_total_b"] * (1 + 1e-9))
                if not gate.check_backtest(bad, WORKLOADS[name]["tiny_rows"], FEE_RATE):
                    problems.append(f"{name}: the gate accepts a perturbed fee total")
    for name in ("cli_year", "epochs_3000"):
        ref = gate.REFERENCE[name]
        bad = dict(ref, fees_total_b=ref["fees_total_b"] * (1 + 1e-9))
        if gate.compare_reference(ref, ref) or not gate.compare_reference(bad, ref):
            problems.append(f"{name}: the reference check misses a perturbed fee total")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "clmm_backtest" / "__init__.py").is_file():
        print(f"error: no clmm_backtest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    # on SIGTERM, unwind so that the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.self_check:
            problems = self_check(declared)
            print("\n".join(f"self-check FAILED: {p}" for p in problems)
                  or "self-check ok")
            return 1 if problems else 0
        result, lines, _ = measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace), False, declared)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
