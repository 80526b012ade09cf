"""Market abstractions: spot, on-demand, and GCE preemptible pools.

A market is the unit of server selection in Flint (§3.1.2): each spot pool
has its own price process and therefore its own mean price and MTTF at a
given bid.  On-demand capacity is modelled, exactly as in the paper, as a
spot pool with a constant price and an infinite MTTF.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.simulation.clock import DAY, HOUR
from repro.simulation.rng import SeededRNG, derive_seed
from repro.traces.gce import PreemptibleLifetimeModel
from repro.traces.price_trace import PriceTrace
from repro.traces.generators import constant_trace
from repro.traces.stats import estimate_mttf

#: How far into the trace the simulation's t=0 sits, so markets always have
#: price history to estimate MTTFs from (EC2 publishes 3 months of history).
DEFAULT_HISTORY_OFFSET = 14 * DAY


class Market:
    """Base class for a pool of rentable servers with a price process."""

    def __init__(
        self,
        market_id: str,
        trace: PriceTrace,
        on_demand_price: float,
        history_offset: float = DEFAULT_HISTORY_OFFSET,
    ):
        if on_demand_price <= 0:
            raise ValueError("on_demand_price must be positive")
        self.market_id = market_id
        self.trace = trace
        self.on_demand_price = float(on_demand_price)
        self.history_offset = float(history_offset)
        #: Observability hook (attribute-wired by the engine context);
        #: None keeps the market free of any tracing branch.
        self.obs = None

    def note_revocation_draw(
        self, launch_time: float, instance_key: str, revocation_time: Optional[float]
    ) -> None:
        """One instant event per granted instance: the price at launch and
        its pre-drawn revocation time (None = never), so revocation storms
        show on the market lane of a trace before any worker dies."""
        obs = self.obs
        if obs is None or not obs.enabled:
            return
        from repro.obs import SpanEvent

        obs.bus.emit(SpanEvent(
            kind="market",
            name=self.market_id,
            start=launch_time,
            status="instant",
            attrs={
                "instance": instance_key,
                "revocation_time": revocation_time,
                "price": self.current_price(launch_time),
            },
        ))

    def _trace_time(self, sim_time: float) -> float:
        return sim_time + self.history_offset

    def current_price(self, t: float) -> float:
        """Spot price in effect at simulation time ``t``."""
        return self.trace.price_at(self._trace_time(t))

    def prices_at(self, ts) -> np.ndarray:
        """Vectorised :meth:`current_price` over an array of sim times."""
        return self.trace.prices_at(np.asarray(ts, dtype=float) + self.history_offset)

    def mean_recent_price(self, t: float, window: float = 7 * DAY) -> float:
        """Time-weighted mean price over the trailing ``window`` seconds."""
        end = self._trace_time(t)
        start = max(0.0, end - window)
        return self.trace.mean_price(start, end)

    def is_available(self, t: float, bid: float) -> bool:
        """True when a bid of ``bid`` would currently be granted."""
        return self.current_price(t) <= bid

    def estimate_mttf(self, bid: float, t: float, window: float = 14 * DAY) -> float:
        """MTTF (seconds) at ``bid`` from the price history before ``t``, as
        Flint's node manager computes it from EC2's published history."""
        raise NotImplementedError

    def revocation_time_for(self, launch_time: float, bid: float, instance_key: str) -> Optional[float]:
        """Simulation time at which an instance launched now is revoked
        (None: never)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.market_id!r})"


class SpotMarket(Market):
    """An EC2-style spot pool: revocation when price strictly exceeds the bid."""

    #: Granularity of MTTF estimate caching; estimates change slowly.
    _MTTF_CACHE_REFRESH = 1 * DAY

    #: LRU bound on cached MTTF estimates: sweeps mint a (bid, day, window)
    #: key per probe, and the working set is a handful of bids × windows.
    _MTTF_CACHE_MAX = 128

    def __init__(
        self,
        market_id: str,
        trace: PriceTrace,
        on_demand_price: float,
        history_offset: float = DEFAULT_HISTORY_OFFSET,
    ):
        super().__init__(market_id, trace, on_demand_price, history_offset)
        self._mttf_cache: OrderedDict = OrderedDict()

    def estimate_mttf(self, bid: float, t: float, window: float = 14 * DAY) -> float:
        key = (round(bid, 6), int(self._trace_time(t) // self._MTTF_CACHE_REFRESH), window)
        cached = self._mttf_cache.get(key)
        if cached is not None:
            self._mttf_cache.move_to_end(key)
            return cached
        end = self._trace_time(t)
        start = max(0.0, end - window)
        value = estimate_mttf(
            self.trace, bid, sample_interval=HOUR, start=start, end=end
        )
        self._mttf_cache[key] = value
        while len(self._mttf_cache) > self._MTTF_CACHE_MAX:
            self._mttf_cache.popitem(last=False)
        return value

    def revocation_time_for(self, launch_time: float, bid: float, instance_key: str) -> Optional[float]:
        exceed = self.trace.next_exceedance(self._trace_time(launch_time), bid)
        if exceed is None:
            return None
        return exceed - self.history_offset


class OnDemandMarket(Market):
    """Non-revocable capacity at a fixed price; an infinite-MTTF spot pool."""

    def __init__(self, market_id: str, on_demand_price: float, horizon: float = 365 * DAY):
        super().__init__(
            market_id,
            constant_trace(on_demand_price, horizon=horizon),
            on_demand_price,
            history_offset=0.0,
        )

    def estimate_mttf(self, bid: float, t: float, window: float = 14 * DAY) -> float:
        return float("inf")

    def revocation_time_for(self, launch_time: float, bid: float, instance_key: str) -> Optional[float]:
        return None

    def is_available(self, t: float, bid: float) -> bool:
        return True


class PreemptibleMarket(Market):
    """A GCE-style pool: fixed price, no bids, lifetime capped at 24 hours.

    Revocations are random (not price-driven) but reproducible: each instance
    key hashes to its own lifetime draw, so re-running a simulation replays
    identical revocations.
    """

    def __init__(
        self,
        market_id: str,
        fixed_price: float,
        on_demand_price: float,
        lifetime_model: Optional[PreemptibleLifetimeModel] = None,
        seed: int = 0,
        horizon: float = 365 * DAY,
    ):
        super().__init__(
            market_id,
            constant_trace(fixed_price, horizon=horizon),
            on_demand_price,
            history_offset=0.0,
        )
        self.fixed_price = float(fixed_price)
        self.lifetime_model = lifetime_model or PreemptibleLifetimeModel()
        self._seed = seed

    def estimate_mttf(self, bid: float, t: float, window: float = 14 * DAY) -> float:
        return self.lifetime_model.mttf

    def revocation_time_for(self, launch_time: float, bid: float, instance_key: str) -> Optional[float]:
        rng = SeededRNG(derive_seed(self._seed, self.market_id), instance_key)
        return launch_time + self.lifetime_model.sample_lifetime(rng)

    def is_available(self, t: float, bid: float) -> bool:
        # GCE has no bidding: preemptible capacity is granted at the fixed
        # price whenever requested.
        return True
