"""Cloud market simulation: spot pools, instances, billing, and a provider.

This models the economic substrate Flint runs against.  A
:class:`~repro.market.market.SpotMarket` wraps a price trace and answers the
questions Flint's node manager asks of EC2: the current price, the recent
mean price, the MTTF at a bid, and — because revocation in a bid-based market
is deterministic given the trace — the exact future revocation instant of an
instance.  The :class:`~repro.market.provider.CloudProvider` owns a set of
markets, grants and revokes :class:`~repro.market.instance.Instance` objects,
and accounts costs using EC2-style hourly billing.
"""

from repro.market.market import (
    Market,
    OnDemandMarket,
    PreemptibleMarket,
    SpotMarket,
)
from repro.market.instance import Instance, InstanceState
from repro.market.billing import (
    ec2_charged_hour_prices,
    ec2_hourly_cost,
    gce_preemptible_cost,
    on_demand_cost,
)
from repro.market.piecewise import PiecewiseConstantFunction, hour_transform
from repro.market.provider import CloudProvider, REPLACEMENT_DELAY, REVOCATION_WARNING

__all__ = [
    "Market",
    "SpotMarket",
    "OnDemandMarket",
    "PreemptibleMarket",
    "Instance",
    "InstanceState",
    "PiecewiseConstantFunction",
    "hour_transform",
    "ec2_charged_hour_prices",
    "ec2_hourly_cost",
    "gce_preemptible_cost",
    "on_demand_cost",
    "CloudProvider",
    "REPLACEMENT_DELAY",
    "REVOCATION_WARNING",
]
