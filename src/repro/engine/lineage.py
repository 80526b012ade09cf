"""Lineage graph traversal.

The lineage DAG is implicit in each RDD's dependency list; this module gives
the checkpointing policy the traversals it needs: ancestor enumeration (for
checkpoint garbage collection), shuffle discovery, and depth metrics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Set

from repro.engine.dependencies import NarrowDependency, ShuffleDependency

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.rdd import RDD


def fusion_edge(node: "RDD", split: int):
    """The sole contributing ``(parent, parent_partition)`` of a narrow node.

    Returns None — a fusion boundary — when the node has no parents, any
    shuffle input, or more than one contributing parent partition (e.g. a
    cogroup with two narrow sides).  Range dependencies (union) contribute
    at most one parent partition each, so a union fuses through whichever
    side covers ``split``.
    """
    edge = None
    for dep in node.dependencies:
        if not isinstance(dep, NarrowDependency):
            return None
        parents_list = dep.parents_of(split)
        if not parents_list:
            continue
        if edge is not None or len(parents_list) > 1:
            return None
        edge = (dep.rdd, parents_list[0])
    return edge


def parents(rdd: "RDD") -> List["RDD"]:
    """Direct lineage parents of an RDD."""
    return [dep.rdd for dep in rdd.dependencies]


def ancestors(rdd: "RDD") -> List["RDD"]:
    """All transitive ancestors (excluding ``rdd``), deduplicated, BFS order."""
    seen: Set[int] = {rdd.rdd_id}
    order: List["RDD"] = []
    frontier = parents(rdd)
    while frontier:
        nxt: List["RDD"] = []
        for node in frontier:
            if node.rdd_id in seen:
                continue
            seen.add(node.rdd_id)
            order.append(node)
            nxt.extend(parents(node))
        frontier = nxt
    return order


def shuffle_dependencies(rdd: "RDD") -> List[ShuffleDependency]:
    """Every shuffle dependency in the lineage of ``rdd`` (including its own)."""
    deps: List[ShuffleDependency] = []
    for node in [rdd] + ancestors(rdd):
        for dep in node.dependencies:
            if isinstance(dep, ShuffleDependency):
                deps.append(dep)
    return deps


def lineage_depth(rdd: "RDD") -> int:
    """Longest parent chain length (a source RDD has depth 1)."""
    cache = {}

    def depth(node: "RDD") -> int:
        if node.rdd_id in cache:
            return cache[node.rdd_id]
        ps = parents(node)
        result = 1 if not ps else 1 + max(depth(p) for p in ps)
        cache[node.rdd_id] = result
        return result

    return depth(rdd)


def is_ancestor(candidate: "RDD", of: "RDD") -> bool:
    """True when ``candidate`` appears in the lineage of ``of``."""
    return any(a.rdd_id == candidate.rdd_id for a in ancestors(of))
