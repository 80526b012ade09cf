"""Driver-side block-location index (Spark's BlockManagerMaster).

The seed engine answered "where is partition (rdd, p) cached?" by scanning
every live worker's :class:`~repro.engine.block_manager.BlockManager` — an
O(workers) probe sitting under the scheduler's innermost readiness loop.
This index keeps the authoritative ``block_id -> {worker_id: Worker}``
mapping on the driver, maintained synchronously by the per-worker block
managers on every put / evict / drop / revocation, so existence checks are
one dict lookup and location queries are O(#holders) (almost always 1).

Listeners (the scheduler's readiness) are notified on every add/remove, so
a memoised frontier is re-walked only when a block its walk read as stored
disappears or one it read as blocked appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.worker import Worker


def parse_block_id(block_id: str) -> Optional[Tuple[int, int]]:
    """``rdd_<id>_<partition>`` -> ``(rdd_id, partition)``, else None."""
    parts = block_id.split("_")
    if len(parts) != 3 or parts[0] != "rdd":
        return None
    try:
        return int(parts[1]), int(parts[2])
    except ValueError:
        return None


@dataclass
class BlockIndexStats:
    """Counters proving the index is doing the lookups the scans used to."""

    adds: int = 0
    removals: int = 0
    lookups: int = 0
    worker_purges: int = 0


class BlockLocationIndex:
    """``block_id -> {worker_id: Worker}`` with change notification."""

    def __init__(self):
        self._locations: Dict[str, Dict[str, "Worker"]] = {}
        self._by_worker: Dict[str, set] = {}
        self.stats = BlockIndexStats()
        #: Callbacks ``(block_id, added: bool)`` fired on every change.
        self._listeners: List[Callable[[str, bool], None]] = []

    def add_listener(self, listener: Callable[[str, bool], None]) -> None:
        self._listeners.append(listener)

    def _notify(self, block_id: str, added: bool) -> None:
        for listener in self._listeners:
            listener(block_id, added)

    # ------------------------------------------------------------------
    def add(self, block_id: str, worker: "Worker") -> None:
        """Record that ``worker`` now holds ``block_id`` (memory or spill)."""
        holders = self._locations.setdefault(block_id, {})
        if worker.worker_id in holders:
            return
        holders[worker.worker_id] = worker
        self._by_worker.setdefault(worker.worker_id, set()).add(block_id)
        self.stats.adds += 1
        self._notify(block_id, True)

    def remove(self, block_id: str, worker_id: str) -> None:
        """Record that ``worker_id`` no longer holds ``block_id``."""
        holders = self._locations.get(block_id)
        if holders is None or worker_id not in holders:
            return
        del holders[worker_id]
        if not holders:
            del self._locations[block_id]
        blocks = self._by_worker.get(worker_id)
        if blocks is not None:
            blocks.discard(block_id)
        self.stats.removals += 1
        self._notify(block_id, False)

    def purge_worker(self, worker_id: str) -> int:
        """Drop every entry held by one worker (revocation); returns count."""
        blocks = self._by_worker.pop(worker_id, None)
        if not blocks:
            return 0
        self.stats.worker_purges += 1
        purged = 0
        for block_id in list(blocks):
            holders = self._locations.get(block_id)
            if holders is not None and holders.pop(worker_id, None) is not None:
                if not holders:
                    del self._locations[block_id]
                self.stats.removals += 1
                purged += 1
                self._notify(block_id, False)
        return purged

    # ------------------------------------------------------------------
    def exists(self, block_id: str) -> bool:
        """True when any live worker holds the block — one dict lookup."""
        self.stats.lookups += 1
        holders = self._locations.get(block_id)
        if not holders:
            return False
        return any(w.alive for w in holders.values())

    def holders(self, block_id: str) -> List["Worker"]:
        """Live holders of a block in join (worker-id) order."""
        self.stats.lookups += 1
        holders = self._locations.get(block_id)
        if not holders:
            return []
        live = [w for w in holders.values() if w.alive]
        # Worker ids are zero-padded creation-ordered strings, so lexical
        # order reproduces the join-order scan of the seed implementation.
        live.sort(key=lambda w: w.worker_id)
        return live

    def blocks_on(self, worker_id: str) -> List[str]:
        """Block ids currently attributed to one worker (diagnostics)."""
        return sorted(self._by_worker.get(worker_id, ()))

    def __len__(self) -> int:
        return len(self._locations)
