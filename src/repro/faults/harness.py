"""Run a workload under a fault plan and prove the engine recovered.

``run_with_plan`` executes one workload twice on identical deterministic
clusters: once failure-free (the reference) and once with the plan's faults
injected.  It asserts the faulted run's results are bit-identical to the
reference, runs the :class:`InvariantChecker` after every injected fault and
at job end, and reports everything in a :class:`FaultRunReport`.

A workload here is anything exposing ``load()`` (cache inputs) and ``run()``
(execute, returning a comparable result) — the same protocol the figure
benchmarks use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Union

from repro.cluster.cluster import Cluster
from repro.cluster.environment import Environment
from repro.engine.context import FlintContext
from repro.engine.scheduler import EngineError
from repro.faults.injector import FaultInjector, FiredFault
from repro.faults.invariants import InvariantChecker, InvariantViolation
from repro.faults.plan import FaultPlan
from repro.market.market import OnDemandMarket
from repro.market.provider import CloudProvider
from repro.obs import Observability

#: Non-revocable substrate: every failure comes from the plan, so the same
#: spec replays the same scenario event-for-event.
_MARKET_ID = "od/r3.large"
_PRICE = 0.175


def build_fault_context(
    num_workers: int = 6, seed: int = 0, trace: bool = False
) -> FlintContext:
    """A deterministic on-demand cluster for one fault-injection run.

    ``trace=True`` force-enables the observability layer (regardless of
    ``FLINT_TRACE``) so the run's event log can be attached to its report.
    """
    provider = CloudProvider([OnDemandMarket(_MARKET_ID, _PRICE)])
    env = Environment(provider, seed=seed)
    cluster = Cluster(env)
    obs = Observability(enabled=True) if trace else None
    ctx = FlintContext(env, cluster, obs=obs)
    cluster.launch(_MARKET_ID, bid=_PRICE, count=num_workers)
    return ctx


@dataclass
class FaultRunReport:
    """Everything needed to judge (and replay) one fault-injection run."""

    spec: str
    results_match: bool
    faults_fired: List[FiredFault] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    checks_run: int = 0
    runtime: float = 0.0
    reference_runtime: float = 0.0
    results: Any = None
    reference_results: Any = None
    #: Flat event rows (``SpanEvent.to_dict``) from the faulted run when it
    #: was traced; empty otherwise.  Chaos failure reports carry these so a
    #: failing plan ships with its full timeline.
    event_log: List[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.results_match and not self.violations


def run_reference(
    workload_factory: Callable[[FlintContext], Any],
    num_workers: int = 6,
    seed: int = 0,
    checkpointing: bool = True,
    mttf: float = 1800.0,
) -> tuple:
    """The failure-free run; returns ``(results, simulated_runtime)``."""
    ctx = build_fault_context(num_workers, seed)
    manager = _attach_manager(ctx, checkpointing, mttf)
    workload = workload_factory(ctx)
    workload.load()
    t0 = ctx.now
    results = workload.run()
    runtime = ctx.now - t0
    if manager is not None:
        manager.stop()
    return results, runtime


def _attach_manager(ctx: FlintContext, checkpointing: bool, mttf: float):
    if not checkpointing:
        return None
    from repro.core.ftmanager import FaultToleranceManager

    manager = FaultToleranceManager(ctx, lambda: mttf, min_tau=30.0)
    manager.start()
    return manager


def run_with_plan(
    workload_factory: Callable[[FlintContext], Any],
    plan: Union[str, FaultPlan],
    num_workers: int = 6,
    seed: int = 0,
    checkpointing: bool = True,
    mttf: float = 1800.0,
    reference: Optional[tuple] = None,
    raise_on_violation: bool = True,
    trace: bool = False,
) -> FaultRunReport:
    """Execute ``workload_factory`` under ``plan`` and verify every invariant.

    Args:
        plan: a spec string or parsed :class:`FaultPlan`.
        checkpointing: attach the Flint fault-tolerance manager (fixed MTTF)
            so checkpoint-targeted faults have checkpoints to hit.
        reference: optional precomputed ``(results, runtime)`` — the chaos
            driver shares one failure-free run across hundreds of plans.
        raise_on_violation: raise :class:`InvariantViolation` on any failed
            invariant or result divergence; otherwise report and return.
        trace: force-enable tracing on the faulted run and attach its event
            log to the report (the chaos driver reruns failures this way).
    """
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    if reference is None:
        reference = run_reference(
            workload_factory, num_workers, seed, checkpointing, mttf
        )
    ref_results, ref_runtime = reference

    ctx = build_fault_context(num_workers, seed, trace=trace)
    checker = InvariantChecker(ctx)
    injector = FaultInjector(plan, checker).install(ctx)
    manager = _attach_manager(ctx, checkpointing, mttf)
    workload = workload_factory(ctx)
    results = None
    results_match = False
    runtime = 0.0
    try:
        workload.load()
        t0 = ctx.now
        results = workload.run()
        runtime = ctx.now - t0
    except EngineError as exc:
        # Deadlock means some task became permanently unschedulable — the
        # "no task permanently unschedulable" invariant, surfaced by the
        # scheduler itself.
        checker.violations.append(f"job-abort: task permanently unschedulable ({exc})")
    else:
        results_match = results == ref_results
        if not results_match:
            checker.violations.append(
                "job-end: results diverged from the failure-free run"
            )
    finally:
        if manager is not None:
            manager.stop()
    checker.check("job-end")

    report = FaultRunReport(
        spec=str(plan),
        results_match=results_match,
        faults_fired=injector.fired,
        violations=checker.violations,
        checks_run=checker.checks_run,
        runtime=runtime,
        reference_runtime=ref_runtime,
        results=results,
        reference_results=ref_results,
        event_log=[e.to_dict() for e in ctx.obs.bus.events] if ctx.obs.enabled else [],
    )
    if raise_on_violation and report.violations:
        raise InvariantViolation([f"plan {report.spec!r}"] + report.violations)
    return report
