"""Correctness gate applied to every timed repetition.

Every seed is checked against invariants that hold for any input: the fee
total is the fee rate times the volume total, the epoch plan covers the
whole series with shared boundary indices, and a calibration converges to
within its documented 1e-3 of the target on the variance grid it was given.
At the default seed and full size the outputs are also compared with the
stored reference values in ``reference.json``: counts exactly, money and
values to ``REL_TOL`` relative, the drift bound the roadmap sets for
refactors.  Byte identity of artifacts across repetitions is checked by
``run.py``, which sees all of them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-12
CALIBRATION_TOL = 1e-3  # the calibration's documented stopping rule
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

_EXACT = ("epochs", "mint_events", "burn_events")
_CLOSE = ("fees_total_b", "volume_total_b", "gas_cost_b", "final_value")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def check_backtest(s: dict, rows: int, fee_rate: float,
                   reference: dict | None = None) -> list:
    problems = []
    bounds = s["epoch_bounds"]
    if len(bounds) != s["epochs"]:
        problems.append(f"{s['epochs']} epochs but {len(bounds)} epoch rows")
    if not bounds or bounds[0][0] != 0 or bounds[-1][1] != rows - 1:
        problems.append(f"epoch plan does not cover rows 0..{rows - 1}")
    if any(cur[0] != prev[1] for prev, cur in zip(bounds, bounds[1:])):
        problems.append("consecutive epochs do not share a boundary index")
    if s["fee_rate"] != fee_rate:
        problems.append(f"fee rate {s['fee_rate']} is not {fee_rate}")
    if not (s["fees_total_b"] > 0.0 and math.isfinite(s["fees_total_b"])):
        problems.append(f"fee total {s['fees_total_b']} is not positive")
    elif _rel(s["fees_total_b"], fee_rate * s["volume_total_b"]) > REL_TOL:
        problems.append(f"fee total {s['fees_total_b']!r} is not fee rate x volume "
                        f"{fee_rate * s['volume_total_b']!r}")
    if s["mint_events"] < 1 or s["burn_events"] != s["mint_events"]:
        problems.append(f"{s['mint_events']} mints against {s['burn_events']} burns")
    if reference is not None:
        problems += compare_reference(s, reference)
    return problems


def compare_reference(s: dict, reference: dict) -> list:
    """Differences between a backtest summary and its stored reference."""
    problems = [f"{key} {s[key]} != reference {reference[key]}"
                for key in _EXACT if s[key] != reference[key]]
    problems += [f"{key} {s[key]!r} differs from reference {reference[key]!r} "
                 f"by {_rel(s[key], reference[key]):.3g}"
                 for key in _CLOSE if _rel(s[key], reference[key]) > REL_TOL]
    return problems


def check_calibration(s: dict, target_fee: float, grid: list,
                      reference: dict | None = None) -> list:
    problems = []
    if s["target_fee"] != target_fee:
        problems.append(f"target fee {s['target_fee']} is not {target_fee}")
    if not s["converged"]:
        problems.append("calibration did not converge")
    miss = abs(s["model_fee"] - target_fee) / target_fee
    if not miss < CALIBRATION_TOL:
        problems.append(f"model fee {s['model_fee']!r} misses target {target_fee!r} "
                        f"by {miss:.3g}")
    if len(s["curve_fees"]) != len(grid) or any(
            _rel(a, b) > REL_TOL for a, b in zip(s["curve_variances"], grid)):
        problems.append("fee curve is not evaluated on the requested grid")
    if not all(f >= 0.0 and math.isfinite(f) for f in s["curve_fees"]):
        problems.append("fee curve has a negative or non-finite value")
    if not grid[0] <= s["variance"] <= grid[-1]:
        problems.append(f"variance {s['variance']} is off the grid")
    if reference is not None:
        lo, hi = reference["variance_bracket"]
        if not lo <= s["variance"] <= hi:
            problems.append(f"variance {s['variance']} is not the first crossing "
                            f"in [{lo}, {hi}]")
        if s["iterations"] < 1:
            problems.append("no bisection step ran")
    return problems
