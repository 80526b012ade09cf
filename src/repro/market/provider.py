"""The cloud provider: grants, revokes, and bills instances.

The provider is the only component allowed to mint instances.  Because spot
revocation is deterministic given a trace and a bid, the provider stamps each
instance with its future revocation time at launch; the cluster layer turns
that into simulator events (a warning event 120 seconds ahead, then the kill).
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.market.billing import (
    BILLING_EPSILON,
    ec2_charged_hour_prices,
    ec2_hourly_cost,
    gce_preemptible_cost,
    on_demand_cost,
)
from repro.market.instance import Instance, InstanceState
from repro.market.market import Market, OnDemandMarket, PreemptibleMarket
from repro.market.piecewise import PiecewiseConstantFunction
from repro.simulation.clock import HOUR, MINUTE

#: EC2 gives a two-minute revocation warning (§2.1); GCE gives 30 seconds.
REVOCATION_WARNING = 2 * MINUTE
GCE_REVOCATION_WARNING = 30.0

#: Typical delay to acquire and boot a replacement server (§3.1.2: "the delay
#: rd for replacing a server is a constant — for EC2, it is typically two
#: minutes").
REPLACEMENT_DELAY = 2 * MINUTE

#: The analytic ledger's float contract: its totals match the per-instance
#: books to this relative tolerance (curve sums re-associate additions).
LEDGER_REL_TOL = 1e-6


class MarketUnavailableError(RuntimeError):
    """Raised when a bid is below the current spot price at acquisition."""


class CloudProvider:
    """A collection of markets plus instance lifecycle and cost accounting.

    Besides the per-instance books (``instances`` and ``accrued_cost``), the
    provider keeps an *analytic ledger* of breakpoint curves updated at
    acquire/revoke/terminate: ``capacity`` (running instances over time, plus
    one curve per market), ``cost_per_hour`` (every charged billing quantum's
    price over its extent) and a committed-charge curve (each settled bill's
    dollars at the instant it accrues), so :meth:`capacity_at` and
    :meth:`cost_between` never re-bill ended instances.  Curve sums
    re-associate additions, so the ledger agrees with the per-instance books
    (the ground truth) to :data:`LEDGER_REL_TOL`, not bit for bit.
    """

    def __init__(self, markets: Iterable[Market], replacement_delay: float = REPLACEMENT_DELAY):
        self.markets: Dict[str, Market] = {}
        for market in markets:
            if market.market_id in self.markets:
                raise ValueError(f"duplicate market id {market.market_id!r}")
            self.markets[market.market_id] = market
        self.replacement_delay = float(replacement_delay)
        self.instances: List[Instance] = []
        self._id_counter = itertools.count()
        #: Observability hook (attribute-wired by the engine context): final
        #: instance bills land as per-market spend counters and instance
        #: spans.  None keeps billing paths free of any tracing branch.
        self.obs = None
        # -- analytic ledger --------------------------------------------
        #: Total running-instance count over time.
        self.capacity = PiecewiseConstantFunction()
        self._market_capacity: Dict[str, PiecewiseConstantFunction] = {
            market_id: PiecewiseConstantFunction() for market_id in self.markets
        }
        #: Settled $/hour spend rate (query dollars between two instants as
        #: ``cost_per_hour.integral(a, b, transform=hour_transform)``).
        self.cost_per_hour = PiecewiseConstantFunction()
        # Cumulative dollars committed by ended instances, stepped at each
        # charge instant, plus a scalar running total for O(1) total_cost.
        self._committed = PiecewiseConstantFunction()
        self._committed_total = 0.0
        self._running: Dict[str, Instance] = {}

    def add_market(self, market: Market) -> None:
        """Register an additional market."""
        if market.market_id in self.markets:
            raise ValueError(f"duplicate market id {market.market_id!r}")
        self.markets[market.market_id] = market
        self._market_capacity[market.market_id] = PiecewiseConstantFunction()

    def market(self, market_id: str) -> Market:
        """Look up a market by id (raises KeyError on unknown ids)."""
        return self.markets[market_id]

    def spot_markets(self) -> List[Market]:
        """All revocable markets (excludes on-demand pools)."""
        return [m for m in self.markets.values() if not isinstance(m, OnDemandMarket)]

    def acquire(
        self,
        market_id: str,
        bid: float,
        t: float,
        count: int = 1,
        instance_type_name: Optional[str] = None,
    ) -> List[Instance]:
        """Rent ``count`` instances from one market at time ``t``.

        Raises:
            MarketUnavailableError: if the current price exceeds the bid.
        """
        market = self.market(market_id)
        if not market.is_available(t, bid):
            raise MarketUnavailableError(
                f"{market_id}: price {market.current_price(t):.4f} above bid {bid:.4f}"
            )
        granted = []
        for _ in range(count):
            instance_id = f"i-{next(self._id_counter):06d}"
            revocation = market.revocation_time_for(t, bid, instance_id)
            instance = Instance(
                instance_id=instance_id,
                market_id=market_id,
                instance_type_name=instance_type_name or "r3.large",
                bid=bid,
                launch_time=t,
                revocation_time=revocation,
            )
            self.instances.append(instance)
            granted.append(instance)
            self._running[instance_id] = instance
            market.note_revocation_draw(t, instance_id, revocation)
        self.capacity.add_delta(t, float(count))
        self._market_capacity[market_id].add_delta(t, float(count))
        return granted

    def terminate(self, instance: Instance, t: float) -> float:
        """User-initiated termination; returns the instance's final cost."""
        instance.mark_terminated(t)
        self._settle(instance, t, revoked_by_provider=False)
        self._record_spend(instance, t, revoked_by_provider=False)
        return instance.cost

    def revoke(self, instance: Instance, t: float) -> float:
        """Provider-initiated revocation; returns the instance's final cost."""
        instance.mark_revoked(t)
        self._settle(instance, t, revoked_by_provider=True)
        self._record_spend(instance, t, revoked_by_provider=True)
        return instance.cost

    # -- analytic ledger maintenance ------------------------------------
    def _settle(self, instance: Instance, end: float, revoked_by_provider: bool) -> None:
        """Bill one ended instance and fold it into the breakpoint curves.

        Called exactly once per instance, at its end; every curve update is
        an O(1) delta-log append, so a month-long 10k-node simulation pays
        nothing per event beyond the appends (the curves compile lazily at
        the next query).  An EC2 instance's charged hour prices are looked up
        once and serve both its bill and its charges.
        """
        self._running.pop(instance.instance_id, None)
        self.capacity.add_delta(end, -1.0)
        self._market_capacity[instance.market_id].add_delta(end, -1.0)
        market = self.market(instance.market_id)
        start = instance.launch_time
        if isinstance(market, OnDemandMarket):
            instance.cost = on_demand_cost(market.on_demand_price, start, end)
            hours = int(math.ceil((end - start) / HOUR - BILLING_EPSILON / HOUR))
            if hours > 0:
                h_times = start + HOUR * np.arange(hours)
                prices = np.full(hours, market.on_demand_price)
                self._charge_quanta(h_times, prices, HOUR)
        elif isinstance(market, PreemptibleMarket):
            instance.cost = gce_preemptible_cost(
                market.fixed_price, start, end, revoked_by_provider
            )
            if instance.cost > 0.0:
                # GCE settles per-minute at instance end; the billed span can
                # outrun ``end`` (10-minute minimum on user termination), so
                # recover it from the bill itself.
                billed_span = instance.cost / market.fixed_price * HOUR
                self._committed.add_delta(end, instance.cost)
                self.cost_per_hour.add_delta(start, market.fixed_price)
                self.cost_per_hour.add_delta(start + billed_span, -market.fixed_price)
        else:
            prices = ec2_charged_hour_prices(market, start, end, revoked_by_provider)
            instance.cost = float(sum(prices.tolist()))
            if prices.size:
                self._charge_quanta(start + HOUR * np.arange(prices.size), prices, HOUR)
        self._committed_total += instance.cost

    def _charge_quanta(self, starts: np.ndarray, prices: np.ndarray, span: float) -> None:
        """Record charged billing quanta: a committed-dollar impulse at each
        quantum start, and the quantum's price on the rate curve for its
        duration."""
        self._committed.add_deltas(starts, prices)
        self.cost_per_hour.add_deltas(starts, prices)
        self.cost_per_hour.add_deltas(starts + span, -prices)

    def _record_spend(self, instance: Instance, end: float, revoked_by_provider: bool) -> None:
        """Observability: one final bill -> one instance span."""
        obs = self.obs
        if obs is None or not obs.enabled:
            return
        from repro.obs import SpanEvent

        obs.bus.emit(SpanEvent(
            kind="instance",
            name=instance.instance_id,
            start=instance.launch_time,
            end=end,
            status="revoked" if revoked_by_provider else "terminated",
            attrs={"market": instance.market_id, "cost": instance.cost},
        ))

    def accrued_cost(self, instance: Instance, now: float) -> float:
        """Cost of an instance as of ``now`` (final cost once it has ended)."""
        if instance.state != InstanceState.RUNNING:
            return instance.cost
        return self._bill(instance, now, revoked_by_provider=False)

    def total_cost(self, now: float) -> float:
        """Aggregate cost of every instance ever rented, as of ``now``: ended
        instances from the committed total, the running set billed live."""
        return self._committed_total + sum(
            self._bill(inst, now, revoked_by_provider=False)
            for inst in self._running.values()
        )

    def cost_between(self, a: float, b: float) -> float:
        """Dollars charged over the window ``[a, b]``.

        A charge lands where it accrues: an EC2 or on-demand hour at its
        start, a GCE bill at the instance's end.  Settled charges come from
        the committed-charge curve; running instances add theirs as if
        terminated at ``b`` (GCE accrues continuously), so ``cost_between(0,
        now)`` agrees with :meth:`total_cost` to :data:`LEDGER_REL_TOL`.
        """
        if b < a:
            raise ValueError("end must be >= start")
        settled = self._committed.call(b) - self._committed.call_before(a)
        live = 0.0
        for inst in self._running.values():
            live += self._running_charges_in_window(inst, a, b)
        return settled + live

    def _running_charges_in_window(self, instance: Instance, a: float, b: float) -> float:
        """Charges a still-running instance accrues at instants within [a, b]."""
        start = instance.launch_time
        if b <= start:
            return 0.0
        market = self.market(instance.market_id)
        if isinstance(market, PreemptibleMarket):
            # Per-minute billing accrues continuously: window charge is the
            # difference of accruals-to-date at the window edges.
            upper = gce_preemptible_cost(market.fixed_price, start, b, False)
            lower = (
                gce_preemptible_cost(market.fixed_price, start, a, False)
                if a > start
                else 0.0
            )
            return upper - lower
        if isinstance(market, OnDemandMarket):
            hours = int(math.ceil((b - start) / HOUR - BILLING_EPSILON / HOUR))
            if hours <= 0:
                return 0.0
            h_times = start + HOUR * np.arange(hours)
            return float(market.on_demand_price * np.count_nonzero(h_times >= a))
        prices = ec2_charged_hour_prices(market, start, b, False)
        if prices.size == 0:
            return 0.0
        h_times = start + HOUR * np.arange(prices.size)
        return float(prices[h_times >= a].sum())

    def capacity_at(self, t: float, market_id: Optional[str] = None) -> int:
        """Number of instances running at ``t`` — cluster-wide, or in one
        market — in O(log breakpoints) off the incremental capacity curves."""
        if market_id is None:
            return int(round(self.capacity.call(t)))
        return int(round(self._market_capacity[market_id].call(t)))

    def running_instances(self) -> List[Instance]:
        """All instances currently in the RUNNING state."""
        return list(self._running.values())

    def _bill(self, instance: Instance, end: float, revoked_by_provider: bool) -> float:
        market = self.market(instance.market_id)
        if isinstance(market, OnDemandMarket):
            return on_demand_cost(market.on_demand_price, instance.launch_time, end)
        if isinstance(market, PreemptibleMarket):
            return gce_preemptible_cost(
                market.fixed_price, instance.launch_time, end, revoked_by_provider
            )
        return ec2_hourly_cost(market, instance.launch_time, end, revoked_by_provider)
