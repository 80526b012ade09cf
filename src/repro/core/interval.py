"""Optimal checkpoint intervals (§3.1.1).

Flint adapts Daly's first-order optimum for single-node batch jobs,
τ_opt ≈ √(2·δ·MTTF), to the RDD model: a homogeneous spot cluster loses all
servers at once, making the whole parallel program equivalent to one
failure-prone node.  The approximation needs δ ≪ MTTF; Flint's δ is minutes
while spot MTTFs are tens to hundreds of hours, so the regime holds, but we
still clamp pathological inputs rather than emit garbage.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.storage.dfs import DFSConfig


def optimal_checkpoint_interval(delta: float, mttf: float) -> float:
    """First-order optimal interval between checkpoints, in seconds.

    Args:
        delta: time to write one checkpoint (seconds).
        mttf: mean time to failure of the cluster (seconds); ``inf`` means
            revocations never happen and checkpointing is pointless.

    Returns:
        τ = √(2·δ·MTTF), or ``inf`` when MTTF is infinite.  When the
        δ ≪ MTTF assumption is violated (MTTF ≤ δ) the job cannot be
        guaranteed to make progress; we return τ = δ (checkpoint as fast as
        physically possible) as the least-bad choice.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if mttf <= 0:
        raise ValueError("mttf must be positive")
    if math.isinf(mttf):
        return float("inf")
    if delta == 0:
        return 0.0
    if mttf <= delta:
        return delta
    return math.sqrt(2.0 * delta * mttf)


def clamped_interval(
    delta: float, mttf: float, min_tau: float, max_tau: Optional[float] = None
) -> float:
    """Flint's τ rule: the optimum, bounded to what a scheduler can use.

    δ is floored at 1 µs (a zero estimate would ask for τ = 0), an infinite
    τ passes through unclamped (revocations never happen: checkpointing is
    off), and a finite τ is held within ``[min_tau, max_tau]``.
    """
    tau = optimal_checkpoint_interval(max(delta, 1e-6), mttf)
    if math.isinf(tau):
        return tau
    tau = max(tau, min_tau)
    if max_tau is not None:
        tau = min(tau, max_tau)
    return tau


def shuffle_checkpoint_interval(tau: float, num_map_partitions: int) -> float:
    """Checkpoint interval for shuffle-output RDDs.

    Wide dependencies make every reduce partition depend on *all* map
    partitions, so losing any one multiplies recomputation; Flint therefore
    checkpoints shuffle RDDs at τ divided by the number of partitions being
    shuffled from (§3.1.1).
    """
    if num_map_partitions <= 0:
        raise ValueError("num_map_partitions must be positive")
    if math.isinf(tau):
        return tau
    return tau / num_map_partitions


def checkpoint_time_estimate(
    frontier_bytes: float,
    num_workers: int,
    dfs_write_bandwidth: float,
    replication: int = 3,
) -> float:
    """δ: time to write the lineage frontier to the DFS in parallel.

    All workers write their partitions concurrently, so δ is the replicated
    byte volume divided by the cluster's aggregate write bandwidth.
    """
    if frontier_bytes < 0:
        raise ValueError("frontier_bytes must be non-negative")
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    if dfs_write_bandwidth <= 0:
        raise ValueError("dfs_write_bandwidth must be positive")
    return frontier_bytes * replication / (dfs_write_bandwidth * num_workers)


def all_memory_delta(cluster: "Cluster", dfs: "DFSConfig") -> float:
    """δ's conservative upper bound (§3.1.2): every byte of the cluster's
    storage memory is frontier state, written in parallel."""
    return checkpoint_time_estimate(
        cluster.total_storage_memory(),
        max(1, cluster.size),
        dfs.write_bandwidth,
        dfs.replication,
    )
