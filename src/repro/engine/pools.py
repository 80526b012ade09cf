"""Scheduler pools: fair-share slot allocation across concurrent jobs.

Modelled on Spark's FairScheduler.  Every job is submitted into a named
:class:`Pool`; the scheduler's root policy decides how CPU slots are shared
*between* jobs each scheduling round:

- ``fifo`` (the default, and the seed's effective behaviour): jobs take
  slots strictly in submission order — a query submitted mid-batch waits
  for the batch frontier to drain.
- ``fair``: weighted max-min sharing.  Each dispatch goes to the pool with
  the smallest ``running_tasks / weight`` share, ``interactive`` pools
  strictly ahead of ``batch`` pools, then to a job inside that pool by the
  pool's own intra-pool policy (``fifo`` by submission order, ``fair`` by
  per-job running count).

Pools are lightweight accounting objects — admission control (queue bounds,
concurrency caps) lives in :class:`repro.server.JobServer`, which sits on
top of these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple

POOL_POLICIES = ("fifo", "fair")
PRIORITY_CLASSES = ("interactive", "batch")

#: Root scheduling policies accepted by :class:`TaskScheduler`.
SCHEDULING_POLICIES = ("fifo", "fair")

DEFAULT_POOL = "default"


@dataclass
class Pool:
    """One scheduling pool: a weight, a priority class, and live accounting.

    Args:
        name: pool identifier (jobs are submitted by pool name).
        policy: intra-pool job ordering — ``fifo`` (submission order) or
            ``fair`` (least-running job first).
        weight: fair-share weight relative to sibling pools.
        priority: ``interactive`` pools dispatch strictly before ``batch``
            pools under the fair root policy (the paper's short-query-over-
            long-batch case, §5 Fig 9).
    """

    name: str
    policy: str = "fifo"
    weight: float = 1.0
    priority: str = "batch"
    # Live accounting, maintained by the scheduler.
    running_tasks: int = field(default=0, compare=False)
    tasks_completed: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.policy not in POOL_POLICIES:
            raise ValueError(
                f"unknown pool policy {self.policy!r} (expected one of {POOL_POLICIES})"
            )
        if self.priority not in PRIORITY_CLASSES:
            raise ValueError(
                f"unknown priority class {self.priority!r} "
                f"(expected one of {PRIORITY_CLASSES})"
            )
        if self.weight <= 0:
            raise ValueError("pool weight must be positive")

    @property
    def priority_rank(self) -> int:
        """Interactive pools sort strictly before batch pools."""
        return 0 if self.priority == "interactive" else 1


def allocation_order(
    policy: str, job_specs: List[Tuple[Any, List[Any]]], pools: Dict[str, Pool]
) -> Iterator[Tuple[Any, Any]]:
    """Yield ``(job, spec)`` in slot-allocation order under the root ``policy``.

    ``fifo`` (and any single-job round) preserves the seed's exact dispatch
    order: jobs in submission order, each frontier in walk order.  ``fair``
    interleaves dispatches by weighted max-min share — every yield goes to
    the pool with the smallest ``running_tasks / weight`` (interactive pools
    strictly first, pool name as the deterministic tiebreak), then to a job
    inside that pool by its intra-pool policy.  Shares count this round's
    tentative allocations, so a single round spreads free slots rather than
    handing them all to the first-sorted pool.
    """
    if policy == "fifo" or len(job_specs) <= 1:
        for job, specs in job_specs:
            for spec in specs:
                yield job, spec
        return
    pool_alloc: Dict[str, int] = {}
    job_alloc: Dict[int, int] = {}
    entries: List[List[Any]] = []
    for job, specs in job_specs:
        pool = pools[job.pool]
        pool_alloc.setdefault(pool.name, pool.running_tasks)
        job_alloc[job.job_id] = job.running_tasks
        entries.append([job, pool, specs, 0])

    def share_key(entry: List[Any]) -> Tuple:
        job, pool = entry[0], entry[1]
        if pool.policy == "fair":
            intra = (job_alloc[job.job_id], job.job_id)
        else:
            intra = (job.job_id, 0)
        return (
            pool.priority_rank,
            pool_alloc[pool.name] / pool.weight,
            pool.name,
            intra,
        )

    while entries:
        entry = min(entries, key=share_key)
        job, pool, specs, idx = entry
        spec = specs[idx]
        entry[3] += 1
        if entry[3] >= len(specs):
            entries.remove(entry)
        pool_alloc[pool.name] += 1
        job_alloc[job.job_id] += 1
        yield job, spec
