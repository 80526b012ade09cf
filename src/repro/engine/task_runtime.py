"""The per-task data plane: how a dispatched task computes its records.

Fused narrow chains stream through one pass (lowered to columnar batch
kernels where every stage carries one); everything a task does is charged
to the cost model and its side effects are buffered until completion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.engine.block_manager import block_id_for
from repro.engine.columnar import (
    MIN_LOWERED_ROWS, ColumnarBatch, ColumnarUnsupported, from_records,
)
from repro.engine.dependencies import ShuffleDependency
from repro.engine.lineage import fusion_edge
from repro.engine.buckets import MapOutput, bucket_map_output, map_output
from repro.engine.task import ComputedPartition, PendingPut, TaskKind, TaskSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.worker import Worker
    from repro.engine.block_manager import BlockManager
    from repro.engine.context import FlintContext
    from repro.engine.rdd import RDD


class TaskRuntime:
    """Per-task data-plane context: resolves inputs and accounts time.

    ``iterator`` is how an RDD's ``compute`` reaches its parents; it resolves
    (in order) the distributed cache, the checkpoint store, and finally
    recursive recomputation, charging the cost model for whichever path it
    takes.  Side effects (cache inserts, materialisation reports) are
    buffered for the scheduler to apply at completion time.
    """

    def __init__(
        self,
        context: "FlintContext",
        worker: "Worker",
        active_target_id: Optional[int],
    ):
        self.context = context
        self.worker = worker
        self.cost = context.cost_model
        self.active_target_id = active_target_id
        self.time_charged = 0.0
        self.pending_puts: List[PendingPut] = []
        self.computed: List[ComputedPartition] = []
        self._memo: Dict[Tuple[int, int], Any] = {}
        #: Stores whose memory tier served a block to this task: the owners
        #: of those blocks' columnar sidecars.
        self._resident: Dict[Tuple[int, int], "BlockManager"] = {}

    def charge(self, seconds: float) -> None:
        """Add simulated seconds to this task's duration."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self.time_charged += seconds

    def iterator(self, rdd: "RDD", partition: int, as_batch: bool = False) -> Any:
        """Records of ``(rdd, partition)`` via cache, checkpoint, or recompute.

        ``as_batch`` says the caller can take a :class:`ColumnarBatch` in
        place of rows: the boundary of a chain whose every stage has a
        kernel, a map head whose declared combine reduces a batch directly,
        and a cogroup's side.  Such a caller gets the batch when the
        partition is computed here as one — a lowered chain, a source drawn
        as columns, a reducer's merge or a cogroup by sort — and rows are
        built only for whoever observes the partition (a persisted or
        materialisation-point partition) or a caller that needs rows.  It
        also gets the sidecar of a memory-resident block that holds at
        least :data:`MIN_LOWERED_ROWS` records, converted once per block.
        """
        key = (rdd.rdd_id, partition)
        memoised = self._memo.get(key)
        if memoised is not None:
            if type(memoised) is ColumnarBatch:
                if not as_batch:
                    memoised = self._memo[key] = memoised.to_records()
                return memoised
            return self._sidecar(key, memoised) if as_batch else memoised

        found = self.context.find_block(rdd, partition, prefer=self.worker)
        if found is not None:
            data, nbytes, holder, tier = found
            if holder.worker_id == self.worker.worker_id:
                if tier == "disk":
                    self.charge(self.cost.local_read_time(nbytes))
            else:
                self.charge(self.cost.network_time(nbytes))
            if tier == "memory":
                self._resident[key] = holder.block_manager
            self._memo[key] = data
            return self._sidecar(key, data) if as_batch else data

        registry = self.context.checkpoints
        if registry.has_partition(rdd, partition):
            nbytes = registry.partition_nbytes(rdd, partition)
            self.charge(self.context.env.dfs.read_duration(nbytes))
            data = registry.read_partition(rdd, partition)
            self._memo[key] = data
            return data

        drawn = None
        if rdd.supports_fusion:
            data = self._compute_fused(rdd, partition, as_batch)
        else:
            data = rdd.compute(partition, self, as_batch)
            if type(data) is ColumnarBatch and not rdd.dependencies:
                # A source drawn as columns: exactly the batch its rows
                # columnarise to, and read-only, so it can seed the
                # block's sidecar.
                drawn = data
        # A batch's length is its row list's ``len()``: same charges.
        nbytes = rdd.partition_bytes(len(data))
        self.charge(self.cost.compute_time(len(data) * rdd.record_size, rdd.compute_multiplier))
        observed = self._is_materialisation_point(rdd)
        rows = data
        if type(data) is ColumnarBatch:
            if as_batch and not observed:
                self._memo[key] = data
                return data
            rows = data.to_records()
        if rdd.persisted:
            self.pending_puts.append(
                PendingPut(
                    block_id_for(rdd.rdd_id, partition), rows, nbytes, rdd.disk_persist,
                    rdd=rdd, batch=drawn,
                )
            )
        if observed:
            self.computed.append(ComputedPartition(rdd, partition, rows, nbytes))
        self._memo[key] = rows
        return data if as_batch else rows

    def _sidecar(self, key: Tuple[int, int], rows: Any) -> Any:
        """The columnar sidecar of ``rows`` when a store's memory tier served
        them to this task and they hold enough records to pay; else rows."""
        store = self._resident.get(key)
        if store is None or len(rows) < MIN_LOWERED_ROWS:
            return rows
        batch = store.columnar(block_id_for(*key), rows)
        return rows if batch is None else batch

    def _compute_fused(self, rdd: "RDD", partition: int, as_batch: bool) -> Any:
        """Materialise ``(rdd, partition)`` by streaming its narrow chain.

        Walks up the lineage collecting operator stages until a pipeline
        breaker — a cached/persisted/checkpointed partition, a per-task memo
        hit, a shuffle or multi-parent dependency, a source, or a node with
        more than one dependant (memoised once per task and served to each).
        The stages' kernels are looked up first: only a chain whose every
        stage has one asks :meth:`iterator` for its boundary as a batch, so
        a kernel-less chain never makes the boundary convert.  If the
        boundary holds at least :data:`MIN_LOWERED_ROWS` records the chain
        is offered to the columnar plane, and otherwise (or on a refusal)
        records stream through each stage's ``compute_fused`` without
        re-entering per-RDD resolution.

        Simulated time charges the input subtree first, then each interior
        stage deepest-first with its own record count, size, and multiplier
        (the caller charges the chain head, exactly as it charges any
        computed node) — the order the frozen goldens pin.
        """
        edge = fusion_edge(rdd, partition)
        if edge is None:
            raise IndexError(
                f"{rdd.name} partition {partition} has no single narrow parent to fuse through"
            )
        ctx = self.context
        checkpoints = ctx.checkpoints
        memo = self._memo
        stages = [(rdd, partition)]
        node, split = edge
        while (
            node.supports_fusion
            and node.dependents == 1
            and not node.persisted
            and (node.rdd_id, split) not in memo
            and not ctx.block_exists(node, split)
            and not checkpoints.has_partition(node, split)
        ):
            edge = fusion_edge(node, split)
            if edge is None:
                break
            stages.append((node, split))
            node, split = edge
        kernels = self._kernels(stages)
        stream = self.iterator(node, split, kernels is not None)
        if kernels is not None and len(stream) >= MIN_LOWERED_ROWS:
            batch = self._compute_columnar(stages, kernels, node, split, stream)
            if batch is not None:
                return batch if as_batch else batch.to_records()
        if type(stream) is ColumnarBatch:
            stream = stream.to_records()
        if len(stages) > 1:
            cost = self.cost
            charge = self.charge
            for i in range(len(stages) - 1, 0, -1):
                inner, inner_split = stages[i]
                stream = inner.compute_fused(stream, inner_split)
                charge(cost.compute_time(
                    len(stream) * inner.record_size, inner.compute_multiplier
                ))
            stats = ctx.scheduler.stats
            stats.fused_chains += 1
            stats.fused_stages += len(stages)
        return rdd.compute_fused(stream, partition)

    @staticmethod
    def _kernels(stages: List[Tuple["RDD", int]]) -> Optional[List[Any]]:
        """Every stage's batch kernel, head first; None if one has none."""
        kernels = []
        for stage, stage_split in stages:
            kernel = stage.batch_kernel(stage_split)
            if kernel is None:
                return None
            kernels.append(kernel)
        return kernels

    def _compute_columnar(
        self,
        stages: List[Tuple["RDD", int]],
        kernels: List[Any],
        node: "RDD",
        split: int,
        stream: Any,
    ) -> Optional[ColumnarBatch]:
        """Lower a walked chain to batch kernels; None means "use rows".

        The caller has found a kernel for every stage, resolved the boundary
        ``stream`` through the normal :meth:`iterator` and tries this only
        when it holds at least :data:`MIN_LOWERED_ROWS` records — a smaller
        boundary is the row plane's by choice, not a fallback.  Lowering
        then applies only when the boundary records columnarise; a kernel
        may still refuse the runtime schema (``ColumnarUnsupported``).
        Either way the row plane takes over on the same ``stream`` with
        nothing double-charged.

        Charges are bit-identical to the row plane by construction: batch
        lengths equal the row plane's per-stage record counts (the kernel
        contract), and they are charged in the same deepest-first order
        *after* all kernels ran — pure accumulation onto ``time_charged``,
        so applying them post hoc changes nothing.  The head stage is
        charged by the caller from the returned batch's length, as always.

        A boundary computed here as a batch (a source drawn as columns, a
        reducer's merge, a cogroup) is used as it is, and so is the sidecar
        :meth:`iterator` serves for a block in a store's memory tier — the
        block's rows converted once per block, or a source block's drawn
        batch.  Rows from such a block mean its sidecar was refused.
        """
        stats = self.context.scheduler.stats
        if type(stream) is ColumnarBatch:
            batch = stream
        elif (node.rdd_id, split) in self._resident:
            batch = None
        else:
            batch = from_records(stream)
        if batch is None:
            stats.columnar_fallbacks += 1
            return None
        counts: List[int] = []
        try:
            for i in range(len(stages) - 1, -1, -1):
                batch = kernels[i](batch)
                counts.append(batch.length)
        except ColumnarUnsupported:
            stats.columnar_fallbacks += 1
            return None
        cost = self.cost
        charge = self.charge
        last = len(stages) - 1
        for i in range(last, 0, -1):
            inner = stages[i][0]
            charge(cost.compute_time(
                counts[last - i] * inner.record_size, inner.compute_multiplier
            ))
        stats.columnar_chains += 1
        stats.columnar_stages += len(stages)
        if last >= 1:
            stats.fused_chains += 1
            stats.fused_stages += len(stages)
        return batch

    def shuffle_fetch(self, dep: ShuffleDependency, reduce_id: int) -> List[Any]:
        """Gather one reducer's non-empty buckets, in map order, as
        immutable tuple slices of the stored files (or one slice of a
        transposed plan's batch), charging transfer time."""
        buckets, local_bytes, remote_bytes = self.context.shuffle_manager.fetch(
            dep, reduce_id, self.worker
        )
        self.charge(self.cost.network_time(remote_bytes) + self.cost.local_read_time(local_bytes))
        return buckets

    def run(self, spec: TaskSpec) -> Tuple[Any, Optional[MapOutput]]:
        """Execute one task body; returns ``(result, map_output)``."""
        if spec.kind == TaskKind.RESULT:
            data = self.iterator(spec.rdd, spec.partition)
            result = spec.func(data)
            if isinstance(result, list):
                self.charge(self.cost.driver_transfer_time(len(result) * spec.rdd.record_size))
            return result, None
        if spec.kind == TaskKind.SHUFFLE_MAP:
            dep = spec.dep
            reducer = dep.declared_sum
            head = self.iterator(dep.rdd, spec.partition, reducer is not None)
            combined = None
            if type(head) is ColumnarBatch:
                # The declared combine, straight from the lowered batch,
                # whose result is the map output as it is; a refusal runs
                # the row loop on the rows it never needed.
                combined = reducer.combine(head, dep.num_reduce_partitions)
                if combined is None:
                    head = head.to_records()
                else:
                    self.context.scheduler.stats.columnar_combines += 1
            if combined is None:
                output, written = bucket_map_output(dep, head)
            else:
                output, written = map_output(*combined), combined[0].length
            self.charge(self.cost.shuffle_write_time(written * dep.rdd.record_size))
            return None, output
        # CHECKPOINT: the payload was captured at compute time; only the write costs.
        self.charge(self.context.env.dfs.write_duration(spec.nbytes))
        return None, None

    def _is_materialisation_point(self, rdd: "RDD") -> bool:
        """Storage-point RDDs make up the observable lineage frontier."""
        if rdd.persisted or rdd.rdd_id == self.active_target_id:
            return True
        return any(isinstance(dep, ShuffleDependency) for dep in rdd.dependencies)
