"""Position math for a single concentrated-liquidity range.

All functions work on one price range [p_a, p_b] with virtual reserves
measured in token A (risky, price p) and token B (numeraire).  Everything
is plain float64 scalar math; vectorised variants over many buckets live
in the engine module.

Conventions:
  * liquidity is a non-negative float, no tick or fixed-point encoding
  * a range position holds only token A at p <= p_a, only token B at
    p >= p_b, and a mix strictly inside
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


class ReservePair(NamedTuple):
    """Token reserves of a position: x in token A, y in token B."""

    x: float
    y: float


class CapitalSplit(NamedTuple):
    """Result of splitting a capital budget into a range position."""

    x: float
    y: float
    liquidity: float

    @property
    def reserves(self) -> ReservePair:
        return ReservePair(self.x, self.y)


@dataclass(frozen=True)
class PriceRange:
    """Price interval [p_a, p_b] with 0 < p_a < p_b < inf.

    Exposes the square-root bounds and the full-range reserve depths per
    unit of liquidity, which is what every other formula here consumes.
    """

    p_a: float
    p_b: float

    def __post_init__(self):
        if not (math.isfinite(self.p_a) and math.isfinite(self.p_b)):
            raise ValueError(f"price bounds must be finite, got [{self.p_a}, {self.p_b}]")
        if not 0.0 < self.p_a < self.p_b:
            raise ValueError(f"need 0 < p_a < p_b, got [{self.p_a}, {self.p_b}]")
        if math.sqrt(self.p_a) >= math.sqrt(self.p_b):
            # guards against bounds so close their square roots collapse
            raise ValueError(f"degenerate range, sqrt bounds collide: [{self.p_a}, {self.p_b}]")

    @property
    def sqrt_a(self) -> float:
        return math.sqrt(self.p_a)

    @property
    def sqrt_b(self) -> float:
        return math.sqrt(self.p_b)

    @property
    def delta_x(self) -> float:
        """Token-A depth per unit liquidity across the whole range."""
        return 1.0 / self.sqrt_a - 1.0 / self.sqrt_b

    @property
    def delta_y(self) -> float:
        """Token-B depth per unit liquidity across the whole range."""
        return self.sqrt_b - self.sqrt_a

    def contains(self, p: float) -> bool:
        """True when p lies strictly inside the range."""
        return self.p_a < p < self.p_b


def _check_price(p: float) -> None:
    if not (math.isfinite(p) and p > 0.0):
        raise ValueError(f"price must be positive and finite, got {p}")


def liquidity_from_x(x: float, rng: PriceRange) -> float:
    """Liquidity of a position funded entirely with x units of token A."""
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"token A amount must be non-negative, got {x}")
    return x * rng.sqrt_a * rng.sqrt_b / (rng.sqrt_b - rng.sqrt_a)


def liquidity_from_y(y: float, rng: PriceRange) -> float:
    """Liquidity of a position funded entirely with y units of token B."""
    if not (math.isfinite(y) and y >= 0.0):
        raise ValueError(f"token B amount must be non-negative, got {y}")
    return y / (rng.sqrt_b - rng.sqrt_a)


def split_capital(w: float, p: float, rng: PriceRange) -> CapitalSplit:
    """Split a token-B capital budget into a position on one range.

    With the contract price strictly inside the range, the budget is split
    so both tokens back the same liquidity; the split solves

        x * sqrt(p) * sqrt(p_b) / (sqrt(p_b) - sqrt(p))
            = y / (sqrt(p) - sqrt(p_a)),       y + x * p = w.

    At or beyond a bound the position degenerates to a single token:
    all token A bought at p when p <= p_a, all token B when p >= p_b.
    Sides are told apart by square roots: a price inside the range whose
    root equals a bound's counts as sitting on that bound.

    Args:
        w: capital budget in token B, must be positive.
        p: current contract price.
        rng: target price range.

    Returns:
        CapitalSplit with reserves (x, y) and the backed liquidity.
    """
    if not (math.isfinite(w) and w > 0.0):
        raise ValueError(f"capital must be positive and finite, got {w}")
    _check_price(p)

    sp = math.sqrt(p)
    if sp <= rng.sqrt_a:
        x = w / p
        return CapitalSplit(x, 0.0, liquidity_from_x(x, rng))
    if sp >= rng.sqrt_b:
        return CapitalSplit(0.0, w, liquidity_from_y(w, rng))

    x_l = sp * rng.sqrt_b / (rng.sqrt_b - sp)
    y_l = 1.0 / (sp - rng.sqrt_a)
    denom = x_l + p * y_l
    x = w * y_l / denom
    y = w * x_l / denom
    # both x * x_l and y * y_l reduce to the same expression, use it directly
    liquidity = w * x_l * y_l / denom
    return CapitalSplit(x, y, liquidity)


def liquidity_state(l: float, rng: PriceRange, p: float) -> ReservePair:
    """Reserves held by liquidity l on a range at contract price p.

    Below the range the position is all token A, above it all token B,
    and strictly inside both reserves are live:

        p <= p_a:        (l * (1/sqrt(p_a) - 1/sqrt(p_b)), 0)
        p_a < p < p_b:   (l * (1/sqrt(p) - 1/sqrt(p_b)), l * (sqrt(p) - sqrt(p_a)))
        p >= p_b:        (0, l * (sqrt(p_b) - sqrt(p_a)))
    """
    if not (math.isfinite(l) and l >= 0.0):
        raise ValueError(f"liquidity must be non-negative, got {l}")
    _check_price(p)

    if p <= rng.p_a:
        return ReservePair(l * rng.delta_x, 0.0)
    if p >= rng.p_b:
        return ReservePair(0.0, l * rng.delta_y)
    sp = math.sqrt(p)
    return ReservePair(l * (1.0 / sp - 1.0 / rng.sqrt_b), l * (sp - rng.sqrt_a))


def position_value(l: float, rng: PriceRange, p: float, valuation_price: float) -> float:
    """Token-B value of a range position, reserves priced at valuation_price."""
    _check_price(valuation_price)
    x, y = liquidity_state(l, rng, p)
    return y + x * valuation_price


def invariant_residual(reserves: ReservePair, l: float, rng: PriceRange) -> float:
    """Relative residual of the reserve curve identity for a range position.

    Zero (up to roundoff) whenever (x, y, l) describe a consistent position:
    (x + l/sqrt(p_b)) * (y + l*sqrt(p_a)) = l**2.
    """
    if l <= 0.0:
        raise ValueError(f"liquidity must be positive, got {l}")
    lhs = (reserves.x + l / rng.sqrt_b) * (reserves.y + l * rng.sqrt_a)
    return (lhs - l * l) / (l * l)
