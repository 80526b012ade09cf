"""The simulator's three float contracts, each named once and tested here.

- ``MEAN_PRICE_WRAP_ULPS`` (:mod:`repro.traces.price_trace`): a mean price
  over a window spanning full periods multiplies the period integral where a
  period-by-period walk adds it up, so the two may differ by this many ulps;
  every other mean price is exact.
- ``BILLING_EPSILON`` (:mod:`repro.market.billing`): durations within this
  many seconds of an hour (or GCE's ten-minute) boundary bill as if exactly
  on it, in every billing model.
- ``LEDGER_REL_TOL`` (:mod:`repro.market.provider`): the analytic ledger's
  totals match the per-instance books to this relative tolerance.

The golden and ledger tests assert through the helpers below, so a contract
is widened or narrowed in one place.
"""

import math

import pytest

from repro.market.billing import (
    BILLING_EPSILON,
    ec2_hourly_cost,
    gce_preemptible_cost,
    on_demand_cost,
)
from repro.market.market import SpotMarket
from repro.market.provider import LEDGER_REL_TOL
from repro.simulation.clock import DAY, HOUR, MINUTE
from repro.simulation.rng import SeededRNG
from repro.traces.generators import peaky_trace
from repro.traces.price_trace import MEAN_PRICE_WRAP_ULPS, PriceTrace


def ulps_apart(a: float, b: float, n: int) -> bool:
    for _ in range(n + 1):
        if a == b:
            return True
        a = math.nextafter(a, b)
    return False


def assert_mean_price_contract(got, expected, spans_periods, context=()):
    """Exact, or within the wrap allowance when the window spans periods."""
    if spans_periods:
        assert ulps_apart(got, expected, MEAN_PRICE_WRAP_ULPS), (*context, got, expected)
    else:
        assert got == expected, context


def assert_ledger_contract(got, want):
    assert got == pytest.approx(want, rel=LEDGER_REL_TOL)


def test_contract_values():
    assert (MEAN_PRICE_WRAP_ULPS, BILLING_EPSILON, LEDGER_REL_TOL) == (4, 1e-9, 1e-6)


def test_ulps_apart_counts_exactly():
    x = 0.1
    y = x
    for _ in range(MEAN_PRICE_WRAP_ULPS):
        y = math.nextafter(y, 1.0)
    assert ulps_apart(x, y, MEAN_PRICE_WRAP_ULPS)
    assert ulps_apart(y, x, MEAN_PRICE_WRAP_ULPS)
    assert not ulps_apart(x, math.nextafter(y, 1.0), MEAN_PRICE_WRAP_ULPS)


def test_mean_price_across_periods_is_within_the_wrap_allowance():
    """Full periods × the period integral, against adding the period up one
    period at a time (the golden rows hold the exact within-period case)."""
    trace = peaky_trace(SeededRNG(7, "golden"), on_demand_price=0.175,
                        spike_rate_per_hour=0.5, horizon=DAY)
    period = trace.mean_price(0.0, DAY) * DAY
    for periods in range(1, 9):
        for tail in (0.0, 0.25 * DAY, 0.9 * DAY):
            walked = 0.0
            for _ in range(periods):
                walked += period
            if tail:
                walked += trace.mean_price(0.0, tail) * tail
            end = periods * DAY + tail
            assert_mean_price_contract(trace.mean_price(0.0, end), walked / end,
                                       spans_periods=True, context=(periods, tail))


@pytest.mark.parametrize("hours", [1, 4, 24])
def test_billing_epsilon_is_the_boundary_slack_in_every_model(hours):
    market = SpotMarket("flat", PriceTrace([0.0], [0.10], 1000 * HOUR), 1.0, history_offset=0.0)
    exact = hours * HOUR
    for end in (exact - BILLING_EPSILON / 2, exact + BILLING_EPSILON / 2):
        assert ec2_hourly_cost(market, 0.0, end, False) == pytest.approx(hours * 0.10)
        assert on_demand_cost(0.10, 0.0, end) == pytest.approx(hours * 0.10)
    past = exact + 2 * BILLING_EPSILON
    assert ec2_hourly_cost(market, 0.0, past, False) == pytest.approx((hours + 1) * 0.10)
    assert ec2_hourly_cost(market, 0.0, past, True) == pytest.approx(hours * 0.10)
    assert on_demand_cost(0.10, 0.0, past) == pytest.approx((hours + 1) * 0.10)


def test_billing_epsilon_at_gce_ten_minute_minimum():
    ten = 10 * MINUTE
    assert gce_preemptible_cost(0.60, 0.0, ten - BILLING_EPSILON / 2, True) > 0.0
    assert gce_preemptible_cost(0.60, 0.0, ten - 2 * BILLING_EPSILON, True) == 0.0


def test_ledger_contract_on_a_short_chaos():
    from tests.market.test_provider_ledger import brute_total, run_chaos

    provider, now, _ = run_chaos(steps=300, seed=7)
    brute = brute_total(provider, now)
    assert_ledger_contract(provider.total_cost(now), brute)
    assert_ledger_contract(provider.cost_between(0.0, now), brute)
    head = provider.cost_between(0.0, now / 2)
    assert_ledger_contract(head + provider.cost_between(math.nextafter(now / 2, now), now), brute)
