"""Shared fixtures: small deterministic clusters and providers."""

from __future__ import annotations

import contextlib

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.environment import Environment
from repro.engine.context import FlintContext
from repro.engine.buckets import MapOutput, map_output
from repro.engine.task_runtime import TaskRuntime
from repro.market.market import OnDemandMarket, SpotMarket
from repro.market.provider import CloudProvider
from repro.simulation.clock import HOUR
from repro.simulation.rng import SeededRNG
from repro.traces.generators import peaky_trace


def flat_output(buckets) -> MapOutput:
    """The map output whose bucket ``r`` is ``buckets[r]``."""
    return map_output([r for bucket in buckets for r in bucket], map(len, buckets))


def build_on_demand_context(num_workers: int = 4, seed: int = 0):
    """An engine context over non-revocable workers (pure-engine tests)."""
    provider = CloudProvider([OnDemandMarket("od/r3.large", 0.175)])
    env = Environment(provider, seed=seed)
    cluster = Cluster(env)
    ctx = FlintContext(env, cluster)
    cluster.launch("od/r3.large", bid=0.175, count=num_workers)
    return ctx


def build_spot_context(
    num_workers: int = 4, mttf_hours: float = 2.0, seed: int = 0
):
    """A context over one volatile spot market (failure tests).

    Returns ``(ctx, market_id)``.
    """
    rng = SeededRNG(seed, "test-spot")
    trace = peaky_trace(
        rng,
        on_demand_price=0.175,
        spike_rate_per_hour=1.0 / mttf_hours,
        spike_duration_mean=180.0,
        step=60.0,
        horizon=30 * 24 * HOUR,
    )
    provider = CloudProvider(
        [
            SpotMarket("volatile/r3.large", trace, 0.175),
            OnDemandMarket("od/r3.large", 0.175),
        ]
    )
    env = Environment(provider, seed=seed)
    cluster = Cluster(env)
    ctx = FlintContext(env, cluster)
    cluster.launch("volatile/r3.large", bid=0.175, count=num_workers)
    return ctx, "volatile/r3.large"


@pytest.fixture
def ctx():
    """Default 4-worker on-demand context."""
    return build_on_demand_context()


@pytest.fixture
def fault_harness():
    """Run a workload under a fault plan with full invariant checking.

    Yields :func:`repro.faults.run_with_plan`: call it with a workload
    factory and a plan spec; it raises :class:`InvariantViolation` if the
    faulted run diverges from the failure-free reference or breaks any
    engine invariant.
    """
    from repro.faults import run_with_plan

    return run_with_plan


@pytest.fixture
def big_ctx():
    """10-worker on-demand context (paper's cluster size)."""
    return build_on_demand_context(num_workers=10)


@contextlib.contextmanager
def row_plane_only():
    """Run the engine on the row plane alone, as if no stage had a kernel.

    No chain finds its kernels and no caller is handed a batch, so nothing
    lowers, no declared combine or sorted merge runs on columns, and a
    source drawn as columns becomes rows where it is read.  Tests compare
    this against the plane the engine chooses for itself.
    """
    iterator = TaskRuntime.iterator

    def rows(self, rdd, partition, as_batch=False):
        return iterator(self, rdd, partition)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TaskRuntime, "_kernels", staticmethod(lambda stages: None))
        patch.setattr(TaskRuntime, "iterator", rows)
        patch.setattr(TaskRuntime, "batch_iterator", rows)
        yield


class Declared:
    """A row function declared for ``map``, made of a row form and a kernel
    given apart: for tests of the planes rather than of one operator (a
    kernel that refuses, counts its inputs, or disagrees on purpose)."""

    stage = "map"

    def __init__(self, row, kernel):
        self.row = row
        self.batch = kernel

    def __call__(self, record):
        return self.row(record)

    def kernel(self, batch):
        return self.batch(batch)


def plane(columnar: bool):
    """A context running the engine on the plane it chooses for itself
    (``columnar``) or on the row plane alone (:func:`row_plane_only`)."""
    return contextlib.nullcontext() if columnar else row_plane_only()


@pytest.fixture
def row_plane():
    """The whole test runs on the row plane (:func:`row_plane_only`)."""
    with row_plane_only():
        yield
