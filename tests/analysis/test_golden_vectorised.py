"""Golden tests: the vectorised rewrites are bit-identical to the originals.

``golden_longrun.json`` was captured by running the pre-rewrite scalar code
(per-hour billing loops, per-point MTTF probes, chunked mean_price) over
markets, traces, and full long-run sweeps.  JSON round-trips Python floats
through repr exactly, so equality below is bit-for-bit.

One documented exception: ``mean_price`` windows spanning *multiple full
periods* of a short trace.  The closed form computes ``full_periods ×
period_integral`` where the original accumulated period chunks one at a
time; the reassociated sum can differ by an ulp.  Those rows (and only
those) are compared at the 4-ulp ``MEAN_PRICE_WRAP_ULPS`` contract
(``tests/market/test_float_contracts.py``) — the long-run sweep outcomes,
which are the behaviour that matters, stay exactly identical.
"""

import json
import os

import pytest

from repro.analysis.longrun import (
    CanonicalConfig,
    CanonicalSimulator,
    fixed_market_selector,
    flint_batch_selector,
    on_demand_selector,
    spot_fleet_selector,
)
from repro.factory import standard_provider, uniform_mttf_provider
from repro.market.billing import ec2_hourly_cost
from repro.simulation.clock import DAY, HOUR
from repro.simulation.rng import SeededRNG
from repro.traces.generators import peaky_trace
from repro.traces.stats import estimate_mttf, time_to_failure_samples
from tests.market.test_float_contracts import assert_mean_price_contract

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_longrun.json")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def provider():
    return standard_provider(seed=3)


def short_trace():
    return peaky_trace(
        SeededRNG(7, "golden"),
        on_demand_price=0.175,
        spike_rate_per_hour=0.5,
        horizon=1 * DAY,
    )


def test_golden_mean_price(golden, provider):
    for mid, a, b, expected in golden["mean_price"]:
        got = provider.market(mid).trace.mean_price(a, b)
        spans_periods = b - a > provider.market(mid).trace.horizon
        assert_mean_price_contract(got, expected, spans_periods, (mid, a, b))


def test_golden_mean_price_short_trace(golden):
    trace = short_trace()
    for a, b, expected in golden["mean_price_short"]:
        got = trace.mean_price(a, b)
        # Multi-period wrap: reassociated full-period sum, ulp tolerance.
        assert_mean_price_contract(got, expected, b - a > trace.horizon, (a, b))


def test_golden_ec2_hourly_cost(golden, provider):
    for mid, start, end, revoked, expected in golden["ec2_hourly_cost"]:
        got = ec2_hourly_cost(provider.market(mid), start, end, revoked)
        assert got == expected, (mid, start, end, revoked)


def test_golden_mttf(golden, provider):
    for mid, bid, count, first5, total, mttf in golden["mttf"]:
        trace = provider.market(mid).trace
        samples = time_to_failure_samples(trace, bid, 3600.0, 0.0, 30 * DAY)
        assert len(samples) == count, (mid, bid)
        assert samples.tolist()[:5] == first5, (mid, bid)
        assert (float(samples.sum()) if len(samples) else 0.0) == total, (mid, bid)
        assert estimate_mttf(trace, bid, 3600.0, 0.0, 30 * DAY) == mttf, (mid, bid)


def test_golden_mttf_short_trace(golden):
    trace = short_trace()
    for bid, expected in golden["mttf_short"]:
        assert estimate_mttf(trace, bid, 1800.0, 1000.5, 5 * DAY) == expected, bid


def _outcomes_to_rows(outcomes):
    return [
        [o.runtime, o.work, o.cost, o.revocations, o.checkpoints, o.markets_used]
        for o in outcomes
    ]


def test_golden_sweeps_bit_identical(golden):
    """The hard requirement: long-run sweep outcomes are exactly unchanged."""
    sweeps = golden["sweeps"]
    prov = standard_provider(seed=2)
    got = {}
    got["std_flint_batch"] = _outcomes_to_rows(
        CanonicalSimulator(prov, CanonicalConfig(job_length=2 * HOUR),
                           flint_batch_selector()).sweep(8, spacing=8 * HOUR)
    )
    got["std_spot_fleet"] = _outcomes_to_rows(
        CanonicalSimulator(prov, CanonicalConfig(job_length=2 * HOUR, checkpointing=False),
                           spot_fleet_selector()).sweep(6, spacing=8 * HOUR)
    )
    got["std_on_demand"] = _outcomes_to_rows(
        CanonicalSimulator(prov, CanonicalConfig(job_length=2 * HOUR),
                           on_demand_selector()).sweep(3, spacing=8 * HOUR)
    )
    vol = uniform_mttf_provider(seed=6, mttf_hours=0.5, num_markets=4)
    got["vol_flint_batch"] = _outcomes_to_rows(
        CanonicalSimulator(vol, CanonicalConfig(job_length=4 * HOUR),
                           flint_batch_selector()).sweep(6, spacing=12 * HOUR)
    )
    got["vol_fixed"] = _outcomes_to_rows(
        CanonicalSimulator(vol, CanonicalConfig(job_length=3 * HOUR),
                           fixed_market_selector("uniform-1/r3.large")).sweep(
                               4, spacing=12 * HOUR)
    )
    ivol = uniform_mttf_provider(seed=6, mttf_hours=1.0, num_markets=4)
    isim = CanonicalSimulator(
        ivol, CanonicalConfig(job_length=3 * HOUR), flint_batch_selector()
    )
    imarkets = [m.market_id for m in ivol.spot_markets()]
    got["vol_interactive"] = _outcomes_to_rows(
        isim.sweep(5, spacing=12 * HOUR, interactive_markets=imarkets)
    )
    assert set(got) == set(sweeps)
    for name, rows in sweeps.items():
        assert got[name] == rows, f"sweep {name} drifted from golden capture"
