"""Cluster membership and revocation event plumbing.

The cluster turns market-level facts ("this instance dies at t=5021s") into
simulator events and listener callbacks.  Replacement *policy* — which market
to rebuy from — is injected by the node manager in :mod:`repro.core`; the
cluster only provides launch/revoke mechanics and keeps the books.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.cluster.environment import Environment
from repro.cluster.worker import Worker
from repro.market.provider import REVOCATION_WARNING
from repro.obs import SpanEvent
from repro.simulation.events import Event
from repro.traces.ec2 import INSTANCE_TYPES, InstanceType

#: Membership hooks mirrored onto the event bus, and whether each marks the
#: *end* of a worker's lifetime (rendered as a span from launch to death)
#: or a point-in-time membership change (rendered as an instant).
_WORKER_EVENT_STATUS = {
    "on_worker_joined": ("joined", False),
    "on_revocation_warning": ("warned", False),
    "on_worker_revoked": ("revoked", True),
    "on_worker_terminated": ("terminated", True),
}


class ClusterListener:
    """Callbacks a component can register for membership changes.

    Subclass and override the hooks you care about; all default to no-ops.
    """

    def on_worker_joined(self, worker: Worker, t: float) -> None:  # pragma: no cover
        """A worker became usable at time ``t``."""

    def on_revocation_warning(self, worker: Worker, t: float) -> None:  # pragma: no cover
        """The provider announced ``worker`` will die shortly (EC2: 120s)."""

    def on_worker_revoked(self, worker: Worker, t: float) -> None:  # pragma: no cover
        """``worker`` was killed; its volatile state is already gone."""

    def on_worker_terminated(self, worker: Worker, t: float) -> None:  # pragma: no cover
        """``worker`` was shut down deliberately (teardown, scale-down)."""


class Cluster:
    """A dynamic set of workers backed by transient instances."""

    def __init__(self, env: Environment, warning_period: float = REVOCATION_WARNING):
        self.env = env
        self.warning_period = float(warning_period)
        self.workers: Dict[str, Worker] = {}
        self.listeners: List[ClusterListener] = []
        self._counter = itertools.count()
        self._pending_events: Dict[str, List[Event]] = {}
        self.revocation_log: List[tuple] = []  # (time, worker_id, market_id)
        #: Observability hook (attribute-wired by the engine context);
        #: None keeps membership notification free of tracing branches.
        self.obs = None

    # -- membership queries -------------------------------------------------
    def live_workers(self) -> List[Worker]:
        """Workers currently alive, in a stable (join) order."""
        return [w for w in self.workers.values() if w.alive]

    @property
    def size(self) -> int:
        return len(self.live_workers())

    def total_storage_memory(self) -> int:
        """Aggregate RDD-cache capacity across live workers (bytes)."""
        return sum(w.storage_memory_bytes for w in self.live_workers())

    def markets_in_use(self) -> Dict[str, int]:
        """Live worker count per market id."""
        counts: Dict[str, int] = {}
        for w in self.live_workers():
            counts[w.instance.market_id] = counts.get(w.instance.market_id, 0) + 1
        return counts

    def add_listener(self, listener: ClusterListener) -> None:
        self.listeners.append(listener)

    # -- launch / revoke ------------------------------------------------------
    def launch(
        self,
        market_id: str,
        bid: float,
        count: int = 1,
        delay: float = 0.0,
        instance_type: Optional[InstanceType] = None,
    ) -> List[Worker]:
        """Acquire ``count`` instances and join them as workers.

        Workers join after ``delay`` seconds (0 for the initial fleet, the
        provider's replacement delay for rebuys).  Revocation warning and
        kill events are scheduled immediately from the instance's
        predetermined revocation time.
        """
        t = self.env.now
        itype = instance_type or INSTANCE_TYPES["r3.large"]
        instances = self.env.provider.acquire(
            market_id, bid, t, count=count, instance_type_name=itype.name
        )
        workers = []
        for instance in instances:
            worker = Worker(f"w-{next(self._counter):04d}", instance, itype)
            self.workers[worker.worker_id] = worker
            workers.append(worker)
            if delay > 0:
                worker.alive = False  # not usable until it boots
                self.env.schedule_in(
                    delay, "worker_boot", worker, callback=lambda ev, w=worker: self._boot(w, ev.time)
                )
            else:
                self._notify("on_worker_joined", worker, t)
            self._schedule_revocation(worker)
        return workers

    def _boot(self, worker: Worker, t: float) -> None:
        # A replacement can be revoked before it even boots (its market
        # spiked during the boot window); don't resurrect it in that case.
        if worker.instance.is_running:
            worker.alive = True
            self._notify("on_worker_joined", worker, t)

    def _schedule_revocation(self, worker: Worker) -> None:
        revocation_time = worker.instance.revocation_time
        if revocation_time is None:
            return
        events = []
        warn_at = worker.instance.warning_time(self.warning_period)
        if warn_at is not None and warn_at < revocation_time:
            events.append(
                self.env.schedule_at(
                    warn_at,
                    "revocation_warning",
                    worker,
                    priority=-1,
                    callback=lambda ev, w=worker: self._warn(w, ev.time),
                )
            )
        events.append(
            self.env.schedule_at(
                revocation_time,
                "revocation",
                worker,
                priority=-1,
                callback=lambda ev, w=worker: self._revoke(w, ev.time),
            )
        )
        self._pending_events[worker.worker_id] = events

    def _warn(self, worker: Worker, t: float) -> None:
        if worker.instance.is_running:
            self._notify("on_revocation_warning", worker, t)

    def _revoke(self, worker: Worker, t: float) -> None:
        if not worker.instance.is_running:
            return
        self.env.provider.revoke(worker.instance, t)
        worker.kill()
        self.revocation_log.append((t, worker.worker_id, worker.instance.market_id))
        self._notify("on_worker_revoked", worker, t)

    def terminate_worker(self, worker: Worker, t: Optional[float] = None) -> None:
        """User-initiated shutdown (e.g. cluster teardown)."""
        end = self.env.now if t is None else t
        if worker.instance.is_running:
            self.env.provider.terminate(worker.instance, end)
        worker.kill()
        for event in self._pending_events.pop(worker.worker_id, []):
            self.env.events.cancel(event)
        self._notify("on_worker_terminated", worker, end)

    def terminate_all(self) -> None:
        """Tear the cluster down and stop all billing."""
        for worker in list(self.workers.values()):
            if worker.instance.is_running:
                self.terminate_worker(worker)

    def force_revoke(self, workers: List[Worker], t: Optional[float] = None) -> None:
        """Revoke specific workers immediately (failure-injection hook)."""
        end = self.env.now if t is None else t
        for worker in workers:
            for event in self._pending_events.pop(worker.worker_id, []):
                self.env.events.cancel(event)
            self._revoke(worker, end)

    def announce_warning(self, worker: Worker, t: Optional[float] = None) -> None:
        """Deliver a revocation warning outside the market machinery.

        The fault-injection harness uses this to model delayed, early, or
        false-alarm warnings: the warning and the (possible) kill are
        scheduled independently, instead of both deriving from a market
        trace's predetermined revocation instant.
        """
        when = self.env.now if t is None else t
        if worker.instance.is_running:
            self._notify("on_revocation_warning", worker, when)

    def _notify(self, hook: str, worker: Worker, t: float) -> None:
        obs = self.obs
        if obs is not None and obs.enabled:
            status, is_lifetime_end = _WORKER_EVENT_STATUS[hook]
            obs.bus.emit(SpanEvent(
                kind="worker",
                name=worker.worker_id,
                start=worker.instance.launch_time if is_lifetime_end else t,
                end=t if is_lifetime_end else None,
                worker=worker.worker_id,
                status="instant" if not is_lifetime_end else status,
                attrs={"market": worker.instance.market_id, "change": status},
            ))
        for listener in list(self.listeners):
            getattr(listener, hook)(worker, t)
