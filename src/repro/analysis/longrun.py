"""Long-horizon canonical-program simulation (§5.5).

The paper evaluates cost and runtime over six months of EC2 price traces by
simulating "a canonical program that checkpoints 4GB RDD partitions every
interval".  This module is that simulator: it walks a market's (periodic)
price trace, advances job progress, pays δ at every checkpoint, loses
un-checkpointed work at each revocation, pays the replacement delay,
re-selects a market per the configured policy, and bills the servers at the
trace prices — all without running the engine, so months of operation cost
milliseconds of wall time.

Batch runs keep the whole cluster in one market (all-at-once revocations);
interactive runs spread it over m markets, losing a 1/m slice per event
(Eq. 4's accounting).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.interval import optimal_checkpoint_interval
from repro.core.selection import (
    BatchSelectionPolicy,
    OnDemandBiddingPolicy,
    snapshot_markets,
)
from repro.market.market import Market, OnDemandMarket
from repro.market.provider import CloudProvider
from repro.simulation.clock import DAY, HOUR, WEEK

GB = 10**9

#: A selector maps (provider, time, excluded market ids) -> market id.
Selector = Callable[[CloudProvider, float, Tuple[str, ...]], str]


@dataclass(frozen=True)
class CanonicalConfig:
    """The canonical program and its cluster.

    ``checkpoint_bytes_per_worker`` is the frontier volume each worker must
    persist per checkpoint (the paper's 4GB); δ follows from the DFS write
    model.
    """

    job_length: float = 2 * HOUR
    num_workers: int = 10
    checkpoint_bytes_per_worker: float = 4 * GB
    dfs_write_bandwidth: float = 100e6
    replication: int = 3
    replacement_delay: float = 120.0
    checkpointing: bool = True
    bid_multiplier: float = 1.0

    @property
    def delta(self) -> float:
        """Checkpoint write time: workers write their 4GB in parallel."""
        return (
            self.checkpoint_bytes_per_worker
            * self.replication
            / self.dfs_write_bandwidth
        )


@dataclass
class RunOutcome:
    """Result of simulating one job to completion."""

    runtime: float
    work: float
    cost: float
    revocations: int
    checkpoints: int
    markets_used: List[str] = field(default_factory=list)

    @property
    def overhead(self) -> float:
        """Fractional increase in running time over failure-free execution."""
        return (self.runtime - self.work) / self.work

    @property
    def unit_cost(self) -> float:
        """Cost normalised per hour of useful work per server cluster."""
        return self.cost / (self.work / HOUR)


# ----------------------------------------------------------------------
# Market selectors
# ----------------------------------------------------------------------
def flint_batch_selector(
    T_estimate: float = 2 * HOUR, delta_estimate: float = 120.0
) -> Selector:
    """Flint's batch policy: minimise Eq. 2 expected cost."""
    policy = BatchSelectionPolicy(T_estimate=T_estimate, delta_estimate=delta_estimate)
    bidding = OnDemandBiddingPolicy()

    def select(provider: CloudProvider, t: float, exclude: Tuple[str, ...]) -> str:
        snaps = snapshot_markets(provider, t, bidding)
        return policy.select(snaps, exclude=exclude).market_ids[0]

    return select


def spot_fleet_selector() -> Selector:
    """SpotFleet lowestPrice: cheapest current spot price, no revocation model."""

    def select(provider: CloudProvider, t: float, exclude: Tuple[str, ...]) -> str:
        excluded = set(exclude)
        candidates = [
            m
            for m in provider.spot_markets()
            if m.market_id not in excluded
            and m.current_price(t) <= m.on_demand_price
        ]
        if not candidates:
            return _on_demand_id(provider)
        return min(candidates, key=lambda m: m.current_price(t)).market_id

    return select


def fixed_market_selector(market_id: str) -> Selector:
    """Always the same market (Figure 11b's bid sweeps pin the market)."""

    def select(provider: CloudProvider, t: float, exclude: Tuple[str, ...]) -> str:
        return market_id

    return select


def on_demand_selector() -> Selector:
    """The non-revocable reference."""

    def select(provider: CloudProvider, t: float, exclude: Tuple[str, ...]) -> str:
        return _on_demand_id(provider)

    return select


def _on_demand_id(provider: CloudProvider) -> str:
    for market in provider.markets.values():
        if isinstance(market, OnDemandMarket):
            return market.market_id
    raise RuntimeError("provider has no on-demand market")


# ----------------------------------------------------------------------
# The simulator
# ----------------------------------------------------------------------
class CanonicalSimulator:
    """Walks price traces to completion of a canonical job."""

    def __init__(
        self,
        provider: CloudProvider,
        config: Optional[CanonicalConfig] = None,
        selector: Optional[Selector] = None,
        mttf_window: float = 14 * 24 * HOUR,
    ):
        self.provider = provider
        self.config = config or CanonicalConfig()
        self.selector = selector or flint_batch_selector()
        self.mttf_window = mttf_window
        self._keys = itertools.count()

    # -- helpers ----------------------------------------------------------
    def _bid(self, market: Market) -> float:
        return market.on_demand_price * self.config.bid_multiplier

    def _tau(self, market_ids: Sequence[str], t: float) -> float:
        if not self.config.checkpointing:
            return float("inf")
        from repro.core.runtime_model import harmonic_mttf

        mttfs = []
        for mid in market_ids:
            market = self.provider.market(mid)
            mttfs.append(market.estimate_mttf(self._bid(market), t, self.mttf_window))
        return optimal_checkpoint_interval(self.config.delta, harmonic_mttf(mttfs))

    def _segment_cost(self, market: Market, start: float, end: float, servers: float) -> float:
        """Bill `servers` instances in one market over [start, end]."""
        if end <= start:
            return 0.0
        hours = (end - start) / HOUR
        mean_price = market.trace.mean_price(
            market._trace_time(start), market._trace_time(end)
        )
        return mean_price * hours * servers

    # -- batch (single market, all-at-once revocations) --------------------
    def run_batch_job(self, start_time: float, max_wall: Optional[float] = None) -> RunOutcome:
        """Simulate one batch job starting at ``start_time``."""
        cfg = self.config
        t = start_time
        work_done = 0.0
        ckpt_work = 0.0
        revocations = 0
        checkpoints = 0
        cost = 0.0
        markets_used: List[str] = []
        deadline = math.inf if max_wall is None else start_time + max_wall

        market_id = self.selector(self.provider, t, ())
        while work_done < cfg.job_length:
            if t > deadline:
                break
            market = self.provider.market(market_id)
            if market_id not in markets_used:
                markets_used.append(market_id)
            bid = self._bid(market)
            rev_at = market.revocation_time_for(t, bid, f"canon-{next(self._keys)}")
            tau = self._tau([market_id], t)
            segment_start = t
            # Advance work chunk-by-chunk (a chunk ends at a checkpoint or
            # at job completion), watching for the revocation instant.
            revoked = False
            while work_done < cfg.job_length:
                if math.isinf(tau):
                    chunk_work = cfg.job_length - work_done
                    chunk_wall = chunk_work
                    completes_ckpt = False
                else:
                    next_ckpt_work = ckpt_work + tau
                    chunk_work = min(cfg.job_length, next_ckpt_work) - work_done
                    completes_ckpt = (work_done + chunk_work) >= next_ckpt_work - 1e-9
                    chunk_wall = chunk_work + (cfg.delta if completes_ckpt else 0.0)
                if rev_at is not None and t + chunk_wall > rev_at:
                    # Revoked mid-chunk: lose progress back to the last
                    # durable checkpoint.
                    cost += self._segment_cost(market, segment_start, rev_at, cfg.num_workers)
                    t = rev_at
                    work_done = ckpt_work
                    revocations += 1
                    revoked = True
                    break
                t += chunk_wall
                work_done += chunk_work
                if completes_ckpt and not math.isinf(tau):
                    ckpt_work = work_done
                    checkpoints += 1
            if not revoked:
                cost += self._segment_cost(market, segment_start, t, cfg.num_workers)
                break
            # Restoration: replacement delay, then re-select (excluding the
            # revoked market — its price just spiked).
            t += cfg.replacement_delay
            market_id = self.selector(self.provider, t, (market_id,))
        return RunOutcome(
            runtime=t - start_time,
            work=cfg.job_length,
            cost=cost,
            revocations=revocations,
            checkpoints=checkpoints,
            markets_used=markets_used,
        )

    # -- interactive (m markets, fractional revocations) --------------------
    def run_interactive_job(
        self, start_time: float, market_ids: Sequence[str], max_wall: Optional[float] = None
    ) -> RunOutcome:
        """Simulate a job over a fixed diversified market mix.

        Each revocation event kills one market's N/m slice: the job loses a
        1/m fraction of un-checkpointed work and pays the replacement delay
        only against that slice.
        """
        cfg = self.config
        m = len(market_ids)
        if m == 0:
            raise ValueError("need at least one market")
        t = start_time
        work_done = 0.0
        ckpt_work = 0.0
        revocations = 0
        checkpoints = 0
        cost = 0.0
        deadline = math.inf if max_wall is None else start_time + max_wall
        active = list(market_ids)
        # Predetermined next revocation per slice.
        rev_at: List[Optional[float]] = []
        seg_start = t
        for mid in active:
            market = self.provider.market(mid)
            rev_at.append(
                market.revocation_time_for(t, self._bid(market), f"canon-i-{next(self._keys)}")
            )
        tau = self._tau(active, t)
        while work_done < cfg.job_length and t <= deadline:
            if math.isinf(tau):
                chunk_work = cfg.job_length - work_done
                chunk_wall = chunk_work
                completes_ckpt = False
            else:
                next_ckpt_work = ckpt_work + tau
                chunk_work = min(cfg.job_length, next_ckpt_work) - work_done
                completes_ckpt = (work_done + chunk_work) >= next_ckpt_work - 1e-9
                chunk_wall = chunk_work + (cfg.delta if completes_ckpt else 0.0)
            next_rev_idx = None
            next_rev_time = math.inf
            for i, r in enumerate(rev_at):
                if r is not None and r < next_rev_time:
                    next_rev_idx, next_rev_time = i, r
            if next_rev_idx is not None and t + chunk_wall > next_rev_time:
                # One slice dies: bill everyone up to the event, roll back a
                # 1/m fraction of un-checkpointed progress, replace the slice.
                for mid in active:
                    cost += self._segment_cost(
                        self.provider.market(mid), seg_start, next_rev_time, cfg.num_workers / m
                    )
                seg_start = next_rev_time
                t = next_rev_time + cfg.replacement_delay / m
                lost = (work_done - ckpt_work) / m
                work_done -= lost
                revocations += 1
                dead = active[next_rev_idx]
                replacement = self.selector(self.provider, t, tuple([dead]))
                active[next_rev_idx] = replacement
                market = self.provider.market(replacement)
                rev_at[next_rev_idx] = market.revocation_time_for(
                    t, self._bid(market), f"canon-i-{next(self._keys)}"
                )
                tau = self._tau(active, t)
                continue
            t += chunk_wall
            work_done += chunk_work
            if completes_ckpt and not math.isinf(tau):
                ckpt_work = work_done
                checkpoints += 1
        for mid in active:
            cost += self._segment_cost(self.provider.market(mid), seg_start, t, cfg.num_workers / m)
        return RunOutcome(
            runtime=t - start_time,
            work=cfg.job_length,
            cost=cost,
            revocations=revocations,
            checkpoints=checkpoints,
            markets_used=list(dict.fromkeys(market_ids)),
        )

    # -- repeated runs over a long horizon ---------------------------------
    def sweep(
        self,
        num_runs: int,
        spacing: float = 6 * HOUR,
        start: float = 0.0,
        interactive_markets: Optional[Sequence[str]] = None,
    ) -> List[RunOutcome]:
        """Back-to-back jobs across the trace horizon (the paper's 6-month
        trace methodology)."""
        outcomes = []
        t = start
        for _ in range(num_runs):
            if interactive_markets is not None:
                outcomes.append(self.run_interactive_job(t, interactive_markets))
            else:
                outcomes.append(self.run_batch_job(t))
            t += spacing
        return outcomes

    def sweep_starts(
        self,
        starts: Sequence[float],
        interactive_markets: Optional[Sequence[str]] = None,
    ) -> List[RunOutcome]:
        """One job per explicit start instant (a multi-week sweep hands the
        whole batch of start times over at once — e.g. ``np.arange(0,
        horizon, spacing)`` — instead of stepping ``sweep`` run-by-run)."""
        starts = np.asarray(starts, dtype=float)
        if interactive_markets is not None:
            return [self.run_interactive_job(float(t), interactive_markets) for t in starts]
        return [self.run_batch_job(float(t)) for t in starts]


# ----------------------------------------------------------------------
# Portfolio-of-markets long-horizon sweeps
# ----------------------------------------------------------------------
def select_portfolio(
    provider: CloudProvider,
    size: int,
    t: float = 0.0,
    bid_multiplier: float = 1.0,
    mttf_window: float = 14 * DAY,
) -> List[str]:
    """The ``size`` spot markets with the best availability-adjusted price.

    Ranks every spot market by its recent mean price inflated by an expected
    revocation overhead (one replacement-plus-rework hour per MTTF), which is
    the portfolio analogue of Eq. 2's expected-cost ranking: cheap-but-spiky
    markets fall behind slightly dearer stable ones.  Ties break on market id
    so the portfolio is deterministic for a given provider state.
    """
    if size <= 0:
        raise ValueError("portfolio size must be positive")
    scored = []
    for market in provider.spot_markets():
        bid = market.on_demand_price * bid_multiplier
        mttf = market.estimate_mttf(bid, t, mttf_window)
        price = market.mean_recent_price(t)
        overhead = 0.0 if math.isinf(mttf) else HOUR / max(mttf, 1.0)
        scored.append((price * (1.0 + overhead), market.market_id))
    if not scored:
        raise RuntimeError("provider has no spot markets to build a portfolio from")
    scored.sort()
    return [market_id for _, market_id in scored[:size]]


def portfolio_selector(market_ids: Sequence[str]) -> Selector:
    """Replacement selection restricted to a fixed portfolio.

    Picks the cheapest currently-available portfolio market not excluded;
    when the whole portfolio is excluded or priced out, falls back to the
    on-demand market (the diversified job must keep its slice count).
    """
    portfolio = list(dict.fromkeys(market_ids))
    if not portfolio:
        raise ValueError("portfolio must name at least one market")

    def select(provider: CloudProvider, t: float, exclude: Tuple[str, ...]) -> str:
        excluded = set(exclude)
        candidates = [
            provider.market(mid)
            for mid in portfolio
            if mid not in excluded
        ]
        viable = [m for m in candidates if m.current_price(t) <= m.on_demand_price]
        if not viable:
            return _on_demand_id(provider)
        return min(viable, key=lambda m: (m.current_price(t), m.market_id)).market_id

    return select


@dataclass(frozen=True)
class LongHorizonConfig:
    """Scale knobs for a portfolio sweep over weeks of simulated time.

    The defaults are a 1000-node cluster diversified over a 4-market
    portfolio, running back-to-back canonical jobs across two weeks of
    trace.  ``repro longrun --nodes 10000 --weeks 4`` reaches the
    paper-scale month-long, 10k-node question interactively because every
    billing segment is an O(log breakpoints) curve query.
    """

    num_nodes: int = 1000
    weeks: float = 2.0
    portfolio_size: int = 4
    job_length: float = 2 * HOUR
    spacing: float = 6 * HOUR
    checkpointing: bool = True
    bid_multiplier: float = 1.0
    interactive: bool = True

    @property
    def horizon(self) -> float:
        """Swept span of simulated time, in seconds."""
        return self.weeks * WEEK


@dataclass
class LongHorizonReport:
    """Outcome of one long-horizon portfolio sweep, with throughput."""

    config: LongHorizonConfig
    portfolio: List[str]
    outcomes: List[RunOutcome]
    simulated_seconds: float
    wall_seconds: float

    @property
    def jobs(self) -> int:
        return len(self.outcomes)

    @property
    def total_cost(self) -> float:
        return sum(o.cost for o in self.outcomes)

    @property
    def total_revocations(self) -> int:
        return sum(o.revocations for o in self.outcomes)

    @property
    def total_checkpoints(self) -> int:
        return sum(o.checkpoints for o in self.outcomes)

    @property
    def simulated_seconds_per_wall_second(self) -> float:
        """The headline interactivity metric: how much simulated market time
        one wall-clock second buys at this scale."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.simulated_seconds / self.wall_seconds


def run_long_horizon(
    provider: CloudProvider,
    config: Optional[LongHorizonConfig] = None,
) -> LongHorizonReport:
    """Run a portfolio-of-markets sweep at scale and report throughput.

    Builds the availability-ranked portfolio once, then simulates one
    canonical job per spacing across the configured horizon — interactive
    jobs diversify the node count over the whole portfolio; batch jobs keep
    it in one portfolio market at a time.
    """
    cfg = config or LongHorizonConfig()
    canonical = CanonicalConfig(
        job_length=cfg.job_length,
        num_workers=cfg.num_nodes,
        checkpointing=cfg.checkpointing,
        bid_multiplier=cfg.bid_multiplier,
    )
    portfolio = select_portfolio(
        provider, cfg.portfolio_size, bid_multiplier=cfg.bid_multiplier
    )
    simulator = CanonicalSimulator(
        provider, canonical, selector=portfolio_selector(portfolio)
    )
    starts = np.arange(0.0, cfg.horizon, cfg.spacing)
    wall_start = time.perf_counter()
    outcomes = simulator.sweep_starts(
        starts, interactive_markets=portfolio if cfg.interactive else None
    )
    wall_seconds = time.perf_counter() - wall_start
    simulated_seconds = float(
        max(s + o.runtime for s, o in zip(starts, outcomes))
    ) if outcomes else 0.0
    return LongHorizonReport(
        config=cfg,
        portfolio=portfolio,
        outcomes=outcomes,
        simulated_seconds=simulated_seconds,
        wall_seconds=wall_seconds,
    )
