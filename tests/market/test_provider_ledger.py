"""The provider's analytic ledger vs the per-instance books.

The breakpoint curves (capacity, committed charges, $/hour rate) are
maintained incrementally at acquire/revoke/terminate; these tests drive a
seeded chaos scenario — thousands of instances across spot, on-demand, and
GCE-preemptible markets with interleaved revocations and terminations — and
assert the analytic queries agree with brute-force per-instance billing to
well within the ``LEDGER_REL_TOL`` relative contract
(``tests/market/test_float_contracts.py``).
"""

import numpy as np
import pytest

from repro.factory import standard_provider
from repro.market.market import OnDemandMarket, PreemptibleMarket
from repro.market.piecewise import hour_transform
from repro.market.provider import LEDGER_REL_TOL
from repro.simulation.clock import HOUR
from repro.simulation.rng import SeededRNG

REL_TOL = LEDGER_REL_TOL


def run_chaos(steps=1500, seed=42, include_preemptible=True):
    """Seeded market chaos: random acquisitions, revocations, terminations."""
    provider = standard_provider(seed=11, include_preemptible=include_preemptible)
    rng = SeededRNG(seed, "ledger-chaos")
    market_ids = list(provider.markets)
    live = []
    t = 0.0
    for _ in range(steps):
        t += rng.uniform(60.0, 2 * HOUR)
        if rng.uniform(0.0, 1.0) < 0.6:
            mid = market_ids[int(rng.uniform(0, len(market_ids)))]
            market = provider.market(mid)
            bid = market.on_demand_price * rng.uniform(0.3, 1.2)
            if market.is_available(t, bid):
                live.extend(provider.acquire(mid, bid, t, count=1 + int(rng.uniform(0, 3))))
        survivors = []
        for inst in live:
            if inst.revocation_time is not None and inst.revocation_time <= t:
                provider.revoke(inst, inst.revocation_time)
            elif rng.uniform(0.0, 1.0) < 0.15:
                provider.terminate(inst, t)
            else:
                survivors.append(inst)
        live = survivors
    return provider, t + 3 * HOUR, rng


@pytest.fixture(scope="module")
def chaos():
    return run_chaos()


def brute_total(provider, now):
    return sum(provider.accrued_cost(inst, now) for inst in provider.instances)


def test_total_cost_matches_per_instance_books(chaos):
    provider, now, _ = chaos
    assert len(provider.instances) > 1000, "chaos scenario too small to be meaningful"
    brute = brute_total(provider, now)
    assert provider.total_cost(now) == pytest.approx(brute, rel=REL_TOL)


def test_cost_between_full_window_matches_total(chaos):
    provider, now, _ = chaos
    brute = brute_total(provider, now)
    assert provider.cost_between(0.0, now) == pytest.approx(brute, rel=REL_TOL)


def test_cost_between_is_additive_over_a_split(chaos):
    provider, now, _ = chaos
    brute = brute_total(provider, now)
    mid = now * 0.37
    head = provider.cost_between(0.0, mid)
    tail = provider.cost_between(float(np.nextafter(mid, np.inf)), now)
    assert head + tail == pytest.approx(brute, rel=REL_TOL)
    assert 0.0 < head < brute


def test_capacity_curves_match_exact_instance_counts(chaos):
    provider, now, rng = chaos
    for _ in range(200):
        q = rng.uniform(0.0, now)
        expected = sum(
            1
            for inst in provider.instances
            if inst.launch_time <= q and (inst.end_time is None or inst.end_time > q)
        )
        assert provider.capacity_at(q) == expected
    for mid in provider.markets:
        q = rng.uniform(0.0, now)
        expected = sum(
            1
            for inst in provider.instances
            if inst.market_id == mid
            and inst.launch_time <= q
            and (inst.end_time is None or inst.end_time > q)
        )
        assert provider.capacity_at(q, mid) == expected


def test_rate_curve_integrates_to_settled_spend(chaos):
    """Every charged billing quantum carries its price on the rate curve for
    its full extent, so the curve's dollar integral over all time equals the
    sum of every ended instance's bill."""
    provider, now, _ = chaos
    settled = sum(inst.cost for inst in provider.instances if not inst.is_running)
    integral = provider.cost_per_hour.integral(
        -1.0, now + 48 * HOUR, transform=hour_transform
    )
    assert integral == pytest.approx(settled, rel=REL_TOL)


def test_running_instances_preserved_through_ledger(chaos):
    provider, now, _ = chaos
    expected = [inst for inst in provider.instances if inst.is_running]
    assert provider.running_instances() == expected


# ---------------------------------------------------------------------------
# Hand-built scenarios: exact charge-instant attribution
# ---------------------------------------------------------------------------
def test_ec2_charges_attribute_to_hour_starts():
    from repro.market.market import SpotMarket
    from repro.market.provider import CloudProvider
    from repro.traces.price_trace import PriceTrace

    trace = PriceTrace([0.0], [0.10], 1000 * HOUR)
    provider = CloudProvider([SpotMarket("spot", trace, 1.0, history_offset=0.0)])
    (inst,) = provider.acquire("spot", 1.0, 1000.0)
    provider.terminate(inst, 1000.0 + 2.5 * HOUR)  # hours at 1000, +1h, +2h
    assert inst.cost == pytest.approx(0.30)
    # Each window holding exactly one hour-start sees exactly one charge.
    assert provider.cost_between(999.0, 1001.0) == pytest.approx(0.10)
    assert provider.cost_between(1000.0 + HOUR, 1000.0 + HOUR) == pytest.approx(0.10)
    assert provider.cost_between(1001.0, 1000.0 + HOUR - 1) == pytest.approx(0.0)
    assert provider.cost_between(0.0, 10 * HOUR) == pytest.approx(0.30)


def test_gce_bill_settles_at_instance_end():
    from repro.market.market import PreemptibleMarket
    from repro.market.provider import CloudProvider

    market = PreemptibleMarket("gce", fixed_price=0.60, on_demand_price=1.0)
    provider = CloudProvider([market])
    (inst,) = provider.acquire("gce", 1.0, 0.0)
    end = 30 * 60.0  # 30 minutes
    provider.terminate(inst, end)
    assert inst.cost == pytest.approx(0.30)
    # The whole bill lands at the settlement instant.
    assert provider.cost_between(end, end) == pytest.approx(0.30)
    assert provider.cost_between(0.0, end - 1.0) == pytest.approx(0.0)


def test_running_instance_accrual_counts_in_window():
    from repro.market.market import OnDemandMarket
    from repro.market.provider import CloudProvider

    provider = CloudProvider([OnDemandMarket("od", 0.175)])
    provider.acquire("od", 1.0, 100.0)
    now = 100.0 + 1.5 * HOUR  # two started hours
    assert provider.total_cost(now) == pytest.approx(2 * 0.175)
    assert provider.cost_between(0.0, now) == pytest.approx(2 * 0.175)
    # Only the second hour's start falls inside this window.
    assert provider.cost_between(200.0, now) == pytest.approx(0.175)


def test_cost_between_rejects_reversed_window(chaos):
    provider, now, _ = chaos
    with pytest.raises(ValueError):
        provider.cost_between(now, 0.0)


def test_chaos_scenario_covers_all_billing_models(chaos):
    provider, _, _ = chaos
    kinds = set()
    for inst in provider.instances:
        market = provider.market(inst.market_id)
        if isinstance(market, OnDemandMarket):
            kinds.add("on_demand")
        elif isinstance(market, PreemptibleMarket):
            kinds.add("gce")
        else:
            kinds.add("spot")
    assert kinds == {"on_demand", "gce", "spot"}
