"""Billing models for transient and on-demand servers.

EC2 (2015-era, the paper's setting) bills spot instances by the hour at the
spot price in effect at the start of each hour; a final partial hour is free
when *Amazon* revokes the instance, but fully charged when the *user*
terminates it.  On-demand servers bill whole hours at a fixed price.  GCE
preemptible instances bill per minute with a 10-minute minimum, except that
an instance the provider preempts inside those ten minutes is free.
"""

from __future__ import annotations

import math

import numpy as np

from repro.market.market import Market
from repro.simulation.clock import HOUR, MINUTE

#: Billing-boundary tolerance in seconds.  Durations accumulated from float
#: event times can land an epsilon either side of an exact hour/minute
#: boundary; both sides of every boundary comparison use this tolerance so
#: "exactly N hours" never misclassifies as N full hours *plus* a partial.
BILLING_EPSILON = 1e-9


def ec2_hourly_cost(
    market: Market,
    start: float,
    end: float,
    revoked_by_provider: bool,
) -> float:
    """Cost of a spot instance used on ``[start, end]``: each hour from
    launch is billed at the spot price at its start, the in-progress hour
    only if the user ended the instance.  The sequential Python sum keeps the
    reduction order (and so the cost) bit-identical to a per-hour loop."""
    return float(sum(ec2_charged_hour_prices(market, start, end, revoked_by_provider).tolist()))


def ec2_charged_hour_prices(
    market: Market, start: float, end: float, revoked_by_provider: bool
) -> np.ndarray:
    """Price of every hour EC2 charges for ``[start, end]``, in order.

    The full hours' prices are one vectorised trace lookup over the grid
    ``start + h * HOUR`` (the scalar arithmetic, so each price matches
    ``market.current_price`` bit for bit); the in-progress hour follows
    unless the provider revoked the instance.
    """
    if end < start:
        raise ValueError("end must be >= start")
    full_hours = int(math.floor((end - start + BILLING_EPSILON) / HOUR))
    prices = market.prices_at(start + HOUR * np.arange(full_hours)) if full_hours else np.empty(0)
    partial = (end - start) - full_hours * HOUR
    if partial > BILLING_EPSILON and not revoked_by_provider:
        prices = np.append(prices, market.current_price(start + full_hours * HOUR))
    return prices


def on_demand_cost(price_per_hour: float, start: float, end: float) -> float:
    """On-demand billing: whole hours at a fixed price."""
    if end < start:
        raise ValueError("end must be >= start")
    if end == start:
        return 0.0
    # The boundary tolerance lives in *seconds* (BILLING_EPSILON); this
    # comparison is in hours, so it must be scaled — a bare 1e-9 here would
    # be 3.6µs, three orders of magnitude looser than the other models.
    return price_per_hour * math.ceil((end - start) / HOUR - BILLING_EPSILON / HOUR)


def gce_preemptible_cost(
    price_per_hour: float,
    start: float,
    end: float,
    revoked_by_provider: bool,
) -> float:
    """GCE preemptible billing: per-minute with a 10-minute minimum.

    The 10-minute minimum applies to user-initiated termination only — GCE
    does not bill an instance the *provider* preempts within its first ten
    minutes, and bills exactly the minutes used when it preempts later.
    """
    if end < start:
        raise ValueError("end must be >= start")
    if end == start:
        return 0.0
    minutes = (end - start) / MINUTE
    if revoked_by_provider:
        if minutes < 10.0 - BILLING_EPSILON / MINUTE:
            return 0.0
    else:
        minutes = max(10.0, minutes)
    return price_per_hour * minutes / 60.0
