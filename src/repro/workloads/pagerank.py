"""PageRank (§5.1): iterative graph processing.

The paper uses graphx's optimised PageRank on the 2GB LiveJournal graph;
PageRank stresses the checkpointing policy because each iteration creates
new RDDs (lineage grows linearly) and performs a wide join + reduceByKey
shuffle — losing shuffle outputs forces deep recomputation, which is why
checkpointing helps PageRank most (Figure 8a).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.engine.columnar import ColumnarBatch, ColumnarUnsupported, take
from repro.engine.declared import Sum
from repro.engine.context import FlintContext
from repro.engine.rdd import RDD
from repro.workloads.datagen import generate_graph_partition

GB = 10**9

#: Schema of a rank partition: ``(vertex, rank)``.
_RANKS_SCHEMA = ("tuple", ("i8", "f8"))
#: The two sides of a cogrouped ``(src, ([group, ...], [rank, ...]))``
#: partition — the link side is doubly ragged (list of adjacency lists).
_LINK_GROUPS = ("list", ("list", "i8"))
_RANK_VALUES = ("list", "f8")
_COGROUP_SCHEMA = ("tuple", ("i8", ("tuple", (_LINK_GROUPS, _RANK_VALUES))))


class InitRank:
    """Declared row function ``dsts -> 1.0``: every vertex's first rank."""

    __slots__ = ()
    stage = "map"

    def __call__(self, _dsts) -> float:
        return 1.0

    def kernel(self, batch: ColumnarBatch) -> ColumnarBatch:
        return ColumnarBatch("f8", np.full(batch.length, 1.0), batch.length)


class RankUpdate:
    """Declared row function ``total -> 0.15 + 0.85 * total``; the kernel
    applies it to the ``f8`` column, the same IEEE operations per element."""

    __slots__ = ()
    stage = "map"

    def __call__(self, total):
        return 0.15 + 0.85 * total

    def kernel(self, batch: ColumnarBatch) -> ColumnarBatch:
        return ColumnarBatch("f8", self(batch.require("f8")), batch.length)


class Contributions:
    """Declared row function for ``flat_map`` over ``links.cogroup(ranks)``:
    each destination's share of its source's rank, in adjacency order.

    The kernel is a ragged gather: a record with one link group and one rank
    fans out to ``len(dsts)`` ``(dst, rank / len(dsts))`` pairs in record,
    then list order, with one IEEE division per record, as the row form.
    """

    __slots__ = ()
    stage = "flat_map"

    def __call__(self, kv):
        _src, (link_groups, rank_values) = kv
        if not link_groups or not rank_values:
            return []
        dsts = link_groups[0]
        rank = rank_values[0]
        share = rank / len(dsts)
        return [(d, share) for d in dsts]

    def kernel(self, batch: ColumnarBatch) -> ColumnarBatch:
        _src, (link_col, rank_col) = batch.require(_COGROUP_SCHEMA)
        group_counts, rank_counts = link_col[0], rank_col[0]
        if (group_counts > 1).any() or (rank_counts > 1).any():
            # The row form reads only element [0] of each side; refuse rather
            # than silently dropping the extras (cogroup of pre-grouped links
            # with unique ranks never produces them in practice).
            raise ColumnarUnsupported("multiple cogroup values for one key")
        valid = (group_counts > 0) & (rank_counts > 0)
        if not valid.all():
            # Keep the records with a group and a rank; the row form emits
            # nothing for the rest.
            kept = np.flatnonzero(valid)
            link_col = take(_LINK_GROUPS, link_col, kept)
            rank_col = take(_RANK_VALUES, rank_col, kept)
        # Every record left has exactly one adjacency list and one rank, so
        # the flat axes are in record order.
        _groups, (fanout, dst_vals) = link_col
        if (fanout == 0).any():
            # ``rank / len(dsts)`` would raise ZeroDivisionError on the row
            # plane; fall back so the error surfaces there, not here.
            raise ColumnarUnsupported("empty adjacency list")
        share = rank_col[1] / fanout
        return ColumnarBatch(
            _RANKS_SCHEMA, (dst_vals, np.repeat(share, fanout)), int(fanout.sum())
        )


class PageRankWorkload:
    """Iterative PageRank over a synthetic power-law graph.

    Args:
        ctx: the engine context to build RDDs on.
        data_gb: virtual dataset size (paper: 2GB LiveJournal).
        num_edges: real edge count (kept modest; sizes are virtual).
        num_vertices: graph vertex count.
        partitions: RDD partitioning (defaults to the context parallelism).
        iterations: PageRank iterations per run.
        seed: dataset seed.
    """

    def __init__(
        self,
        ctx: FlintContext,
        data_gb: float = 2.0,
        num_edges: int = 24_000,
        num_vertices: int = 4_000,
        partitions: Optional[int] = None,
        iterations: int = 8,
        memory_inflation: float = 2.5,
        source_cost: float = 3.0,
        seed: int = 17,
    ):
        self.ctx = ctx
        self.iterations = iterations
        self.partitions = partitions or max(8, ctx.default_parallelism)
        self.num_edges = num_edges
        self.num_vertices = num_vertices
        self.source_cost = source_cost
        self.seed = seed
        self.edge_record_size = max(1, int(data_gb * GB / num_edges))
        # The cached adjacency-list representation is larger than the raw
        # edge input (graphx's in-memory graph carries indexes and object
        # overhead); rank vectors and per-edge contributions are far smaller.
        self.links_record_size = max(
            1, int(data_gb * memory_inflation * GB / num_vertices)
        )
        self.rank_record_size = max(1, self.links_record_size // 16)
        self.contrib_record_size = max(1, self.edge_record_size // 16)
        self.links: Optional[RDD] = None

    def load(self) -> RDD:
        """Build and cache the adjacency-list RDD (``(src, [dsts])``)."""
        per_part = self.num_edges // self.partitions
        edges = self.ctx.generate(
            lambda p: generate_graph_partition(self.seed, p, per_part, self.num_vertices),
            self.partitions,
            record_size=self.edge_record_size,
            compute_multiplier=self.source_cost,
            name="edges",
        )
        self.links = (
            edges.group_by_key(self.partitions)
            .set_record_size(self.links_record_size)
            .persist()
            .set_name("links")
        )
        # Force materialisation so the cached graph behaves like a loaded
        # dataset (the paper caches inputs before measuring).
        self.links.count()
        return self.links

    def run(self, iterations: Optional[int] = None) -> Dict[int, float]:
        """Run PageRank; returns the final rank of every vertex."""
        if self.links is None:
            self.load()
        links = self.links
        iters = iterations or self.iterations
        ranks = (
            links.map_values(InitRank())
            .set_record_size(self.rank_record_size)
            .set_name("ranks-0")
        )

        previous = None
        for i in range(iters):
            contribs = (
                links.cogroup(ranks, self.partitions)
                .flat_map(Contributions())
                .set_record_size(self.contrib_record_size)
            )
            new_ranks = (
                contribs.reduce_by_key(Sum(), self.partitions)
                .map_values(RankUpdate())
                .set_record_size(self.rank_record_size)
                .persist()
                .set_name(f"ranks-{i + 1}")
            )
            # Materialise each iteration, as graphx does, then release the
            # grandparent generation (graphx unpersists superseded ranks).
            new_ranks.count()
            if previous is not None and previous.persisted:
                previous.unpersist()
            previous = ranks
            ranks = new_ranks
        return dict(ranks.collect())
