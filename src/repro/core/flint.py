"""The Flint managed service facade (§2.3, §4).

``Flint`` wires the whole system together for one tenant: it provisions a
cluster of N transient servers through the node manager, attaches the
fault-tolerance manager to the engine, and exposes a
:class:`~repro.engine.context.FlintContext` on which users run unmodified
RDD programs.  Revocations, replacements, checkpoint scheduling, and billing
all happen behind this facade — the user just writes Spark-style code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.environment import Environment
from repro.core.config import FlintConfig
from repro.core.ftmanager import FaultToleranceManager
from repro.core.node_manager import NodeManager
from repro.engine.context import FlintContext
from repro.engine.costs import CostModel
from repro.market.provider import CloudProvider
from repro.simulation.clock import HOUR
from repro.storage.dfs import DFSConfig


@dataclass
class JobReport:
    """Outcome of one job (or query) run under Flint."""

    name: str
    started_at: float
    finished_at: float
    result: Any = None
    revocations: int = 0
    instance_cost: float = 0.0

    @property
    def runtime(self) -> float:
        """Simulated wall-clock seconds the job took."""
        return self.finished_at - self.started_at


class Flint:
    """A managed BIDI cluster on transient servers."""

    def __init__(
        self,
        provider: CloudProvider,
        config: Optional[FlintConfig] = None,
        seed: int = 0,
        cost_model: Optional[CostModel] = None,
        dfs_config: Optional[DFSConfig] = None,
        node_manager_cls: type = NodeManager,
    ):
        self.config = config or FlintConfig()
        self.env = Environment(provider, seed=seed, dfs_config=dfs_config)
        self.cluster = Cluster(self.env)
        self.context = FlintContext(self.env, self.cluster, cost_model)
        self.node_manager = node_manager_cls(self.cluster, self.config)
        self.ft_manager: Optional[FaultToleranceManager] = None
        if self.config.checkpointing_enabled:
            self.ft_manager = FaultToleranceManager(
                self.context,
                self.node_manager.cluster_mttf,
                initial_delta=self.config.initial_delta,
                min_tau=self.config.min_tau,
                max_tau=self.config.max_tau,
            )
        self._started_at: Optional[float] = None

    # ------------------------------------------------------------------
    def start(self) -> "Flint":
        """Provision the cluster and begin checkpoint signalling."""
        self.node_manager.provision()
        if self.ft_manager is not None:
            if self.config.initial_delta is None:
                self.ft_manager.reset_conservative_delta()
            self.ft_manager.refresh()
            self.ft_manager.start()
        self._started_at = self.env.now
        return self

    def shutdown(self) -> None:
        """Tear everything down and stop billing."""
        if self.ft_manager is not None:
            self.ft_manager.stop()
        self.node_manager.shutdown()
        self.cluster.terminate_all()

    # ------------------------------------------------------------------
    def run(self, fn: Callable[[FlintContext], Any], name: str = "job") -> JobReport:
        """Execute a user program against this cluster and report on it."""
        if self._started_at is None:
            raise RuntimeError("call start() before running jobs")
        t0 = self.env.now
        cost0 = self.env.provider.total_cost(t0)
        revocations0 = len(self.cluster.revocation_log)
        result = fn(self.context)
        t1 = self.env.now
        return JobReport(
            name=name,
            started_at=t0,
            finished_at=t1,
            result=result,
            revocations=len(self.cluster.revocation_log) - revocations0,
            instance_cost=self.env.provider.total_cost(t1) - cost0,
        )

    def idle_until(self, t: float) -> None:
        """Let simulated time pass with no job running (interactive think time)."""
        self.env.run_until(t)

    # ------------------------------------------------------------------
    def cost_summary(self) -> Dict[str, float]:
        """Cumulative cost breakdown: instances + amortised EBS checkpoints."""
        now = self.env.now
        instance_cost = self.env.provider.total_cost(now)
        elapsed = 0.0 if self._started_at is None else now - self._started_at
        cluster_memory_gb = (
            self.config.cluster_size
            * self.node_manager.instance_type.memory_gb
        )
        ebs_cost = self.config.ebs.cluster_checkpoint_cost(cluster_memory_gb, elapsed)
        return {
            "instance_cost": instance_cost,
            "ebs_cost": ebs_cost,
            "total_cost": instance_cost + ebs_cost,
            "elapsed_hours": elapsed / HOUR,
            "revocations": float(len(self.cluster.revocation_log)),
        }

    @property
    def current_tau(self) -> Optional[float]:
        """The checkpoint interval currently in force (None if disabled)."""
        return None if self.ft_manager is None else self.ft_manager.tau
