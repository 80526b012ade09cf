"""Outside-in layer tracing: wrap each layer's public functions, from here.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
the listed public methods (class attributes) and module-level functions
(in every loaded module that imported them by name) with span-recording
wrappers, and :func:`Tracer.remove` puts the originals back.  Spans are kept
in memory as ``[name, start, end, parent, rep]`` lists and written out by the
caller when the run ends.

A layer's self time is its spans' durations minus the time their direct
children cover.  Spans nest strictly (one thread, wrappers open and close
in LIFO order), so self times partition each repetition's root span: the
shares sum to one, and a recursive call (``TaskRuntime.iterator`` reaches
its parents through itself) is charged once, not once per frame.

Two attributions need saying out loud (README.md repeats them):

* ``Environment.step`` is three lines around a callback, so a step is
  charged to the layer that *owns the callback it fires* (looked up from
  the callback's module), not to ``cluster``.  Task completions are
  scheduler work, client arrivals are server work.
* Private helpers are never wrapped.  Work done in one — map-side
  bucketing in ``TaskScheduler._execute_map`` — is self time of the
  public function that reached it.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: layer -> [(module, class name or None for a module-level function, names)]
LAYER_TARGETS: Dict[str, List[Tuple[str, Optional[str], Tuple[str, ...]]]] = {
    "scheduler": [(
        "repro.engine.scheduler", "TaskScheduler",
        ("submit_job", "run_job", "pump", "enqueue_checkpoint",
         "enqueue_checkpoints_for", "on_worker_joined", "on_worker_revoked",
         "on_worker_terminated"),
    )],
    "task_runtime": [("repro.engine.scheduler", "TaskRuntime", ("iterator", "shuffle_fetch"))],
    "columnar": [
        ("repro.engine.columnar", None, ("from_records",)),
        ("repro.engine.columnar", "ColumnarBatch", ("to_records", "select")),
    ],
    "shuffle": [(
        "repro.engine.shuffle", "ShuffleManager",
        ("register_map_output", "fetch", "remove_outputs_on", "missing_maps"),
    )],
    "block_manager": [(
        "repro.engine.block_manager", "BlockManager", ("put", "get", "remove", "remove_rdd"),
    )],
    "sizeof": [("repro.engine.sizeof", None, ("estimate_record_size",))],
    "checkpoint": [(
        "repro.engine.checkpoint", "CheckpointRegistry",
        ("record_write", "read_partition", "gc_after_checkpoint"),
    )],
    "storage": [("repro.storage.dfs", "DistributedFileSystem", ("put", "get", "delete_prefix"))],
    "ftmanager": [(
        "repro.core.ftmanager", "FaultToleranceManager",
        ("on_partition_computed", "on_rdd_generated", "on_rdd_materialized",
         "on_rdd_checkpointed", "refresh"),
    )],
    "cluster": [
        ("repro.cluster.cluster", "Cluster", ("launch", "force_revoke", "terminate_worker")),
        ("repro.cluster.environment", "Environment", ("run_until",)),
    ],
    "market": [(
        "repro.market.provider", "CloudProvider",
        ("acquire", "terminate", "revoke", "total_cost", "cost_between", "capacity_at"),
    )],
    "traces": [
        ("repro.traces.ec2", None, ("build_market_traces",)),
        ("repro.traces.price_trace", "PriceTrace", ("prices_at", "mean_price")),
        ("repro.traces.stats", None, ("estimate_mttf",)),
    ],
    "longrun": [
        ("repro.analysis.longrun", None, ("run_long_horizon", "select_portfolio")),
        ("repro.analysis.longrun", "CanonicalSimulator",
         ("run_batch_job", "run_interactive_job")),
    ],
    "server": [(
        "repro.server.jobserver", "JobServer", ("submit_query", "run_query", "drive_until"),
    )],
    "tenancy": [
        ("repro.server.tenancy", "TokenBucket", ("try_take",)),
        ("repro.server.tenancy", "CircuitBreaker",
         ("allow", "record_success", "record_failure")),
    ],
    "journal": [("repro.server.journal", "JobJournal", ("record",))],
    "result_cache": [("repro.server.result_cache", "ResultCache", ("lookup", "put"))],
    "streaming": [
        ("repro.streaming.context", "StreamingContext", ("run_batch",)),
        ("repro.streaming.context", "StateCheckpointPolicy", ("on_batch_complete",)),
    ],
}

#: The repetition root span's layer: driver loops and user code between jobs.
ROOT_LAYER = "workload"
ROOT_SPAN = f"{ROOT_LAYER}.rep"
LAYERS: Tuple[str, ...] = tuple(LAYER_TARGETS) + (ROOT_LAYER,)

#: Which layer an event-loop step is charged to, by the module (or package)
#: that defined the callback it fires; anything else is ``cluster``.
CALLBACK_OWNERS: Tuple[Tuple[str, str], ...] = (
    ("repro.engine.scheduler", "scheduler"),
    ("repro.core.ftmanager", "ftmanager"),
    ("repro.server", "server"),
    ("repro.cluster", "cluster"),
    # Driver code: the recovery workload's revocation injection.
    ("repro.analysis.experiments", ROOT_LAYER),
)

#: Constructors recorded (not spanned) so counters can be read off the
#: program's public stats objects when a repetition ends.
RECORDED_CLASSES: Tuple[Tuple[str, str], ...] = (
    ("repro.engine.context", "FlintContext"),
    ("repro.server.jobserver", "JobServer"),
    ("repro.streaming.context", "StreamingContext"),
)

# Span record fields.
NAME, START, END, PARENT, REP = range(5)
NO_PARENT = -1


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def callback_layer(callback: Any) -> str:
    module = getattr(callback, "__module__", None) or ""
    for prefix, layer in CALLBACK_OWNERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "cluster"


class Tracer:
    """Span store plus the bookkeeping to undo every patch."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.rep = -1
        self._stack: List[int] = [NO_PARENT]
        self._patches: List[Tuple[Any, str, Any]] = []
        self._functions: List[Tuple[Callable, Callable]] = []
        #: class name -> instances constructed while installed
        self.instances: Dict[str, List[Any]] = {}
        self.events_scheduled = 0
        self.events_stepped = 0

    # -- recording -----------------------------------------------------
    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recording one span per call.  A repetition's root span is
        ``wrap(body, ROOT_SPAN)`` called with ``self.rep`` set."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1], self.rep]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        return traced

    def _wrap_step(self, fn: Callable) -> Callable:
        """``Environment.step``: the span is named for the callback's owner."""
        layers = {layer for _prefix, layer in CALLBACK_OWNERS} | {"cluster"}
        steps = {layer: self.wrap(fn, f"{layer}.event") for layer in layers}

        def traced_step(env):
            event = env.events.peek()
            self.events_stepped += 1
            return steps[callback_layer(event and event.callback)](env)

        return traced_step

    # -- patching ------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, module: Any, attr: str, name: str) -> None:
        """Patch a module-level function wherever it was imported by name."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name)
        self._functions.append((original, wrapper))
        _rebind_everywhere(original, wrapper)

    def install(self) -> None:
        if self._patches or self._functions:
            raise RuntimeError("tracer already installed")
        for layer, entries in LAYER_TARGETS.items():
            for module_name, class_name, names in entries:
                module = importlib.import_module(module_name)
                for attr in names:
                    name = f"{layer}.{attr}"
                    if class_name is None:
                        self._patch_function(module, attr, name)
                    else:
                        cls = getattr(module, class_name)
                        self._patch(cls, attr, self.wrap(cls.__dict__[attr], name))
        environment = importlib.import_module("repro.cluster.environment").Environment
        self._patch(environment, "step", self._wrap_step(environment.__dict__["step"]))
        schedule_at = environment.__dict__["schedule_at"]

        def counted_schedule_at(env, *args, **kwargs):
            # Count only: one call per simulated event is too hot to span.
            self.events_scheduled += 1
            return schedule_at(env, *args, **kwargs)

        self._patch(environment, "schedule_at", counted_schedule_at)
        for module_name, class_name in RECORDED_CLASSES:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._patch(cls, "__init__", self._recording_init(cls))

    def _recording_init(self, cls: type) -> Callable:
        original = cls.__dict__["__init__"]
        seen = self.instances.setdefault(cls.__name__, [])

        def recording_init(obj, *args, **kwargs):
            seen.append(obj)
            return original(obj, *args, **kwargs)

        return recording_init

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        # A module first imported while the wrappers were on bound a
        # wrapper by name; the scan finds those bindings as well.
        while self._functions:
            original, wrapper = self._functions.pop()
            _rebind_everywhere(wrapper, original)

    def take_instances(self) -> Dict[str, List[Any]]:
        """Instances recorded since the last call (one repetition's worth)."""
        taken = {name: list(objs) for name, objs in self.instances.items()}
        for objs in self.instances.values():
            objs.clear()
        return taken


def _rebind_everywhere(old: Any, new: Any) -> None:
    """Point every loaded module's global that is ``old`` at ``new``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if namespace is None:
            continue
        for key, value in list(namespace.items()):
            if value is old:
                setattr(module, key, new)


# ----------------------------------------------------------------------
# Span arithmetic (pure functions; test_bench.py exercises them directly)
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per-span self time: duration minus what direct children cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent != NO_PARENT:
            own[parent] -= span[END] - span[START]
    return own


def layer_table(
    spans: Sequence[Sequence], layers: Iterable[str] = LAYERS
) -> Dict[str, Dict[str, float]]:
    """``{layer: {calls, self_s, share}}`` over every repetition in ``spans``.

    ``share`` is the layer's self time over the summed root spans, so the
    shares of one table sum to one whenever every span has a root ancestor.
    """
    table = {layer: {"calls": 0, "self_s": 0.0, "share": 0.0} for layer in layers}
    total = 0.0
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(layer_of(span[NAME]), {"calls": 0, "self_s": 0.0, "share": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        if span[PARENT] == NO_PARENT:
            total += span[END] - span[START]
    if total > 0.0:
        for row in table.values():
            row["share"] = row["self_s"] / total
    return table


def durations_by_name(spans: Sequence[Sequence]) -> Dict[str, List[float]]:
    """Span durations grouped by span name, in recording order."""
    grouped: Dict[str, List[float]] = {}
    for span in spans:
        grouped.setdefault(span[NAME], []).append(span[END] - span[START])
    return grouped
