"""A simulated distributed file system (HDFS-on-EBS).

The DFS stores real Python objects keyed by path and charges simulated time
for reads and writes from a bandwidth/latency model.  Replication multiplies
write traffic but not read traffic.  Because the paper stores checkpoints on
EBS volumes that persist across revocations, DFS contents survive worker
loss; only worker-local disks are volatile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class DFSConfig:
    """Performance model of the distributed file system.

    Defaults approximate HDFS over gp2 EBS on r3.large nodes: ~100 MB/s
    streaming per client, 3-way replicated writes, and a small per-operation
    latency (NameNode round trip + pipeline setup).  ``inter_az_latency`` is
    added per operation when the cluster spans availability zones — the §5.2
    ablation found checkpoint traffic bandwidth-bound, so this barely moves
    overall runtime, which our model reproduces.
    """

    read_bandwidth: float = 100e6  # bytes/sec per reader
    write_bandwidth: float = 100e6  # bytes/sec per writer, pre-replication
    replication: int = 3
    op_latency: float = 0.05  # seconds per operation
    inter_az_latency: float = 0.0  # extra per-op latency across zones


@dataclass
class _DFSEntry:
    data: Any
    nbytes: int
    created_at: float


class DistributedFileSystem:
    """Durable key-value object store with a timing model."""

    def __init__(self, config: Optional[DFSConfig] = None):
        self.config = config or DFSConfig()
        self._entries: Dict[str, _DFSEntry] = {}
        self.bytes_written_total = 0
        self.bytes_read_total = 0
        self.writes = 0
        self.reads = 0

    # -- timing model -----------------------------------------------------
    def write_duration(self, nbytes: int) -> float:
        """Seconds to durably write ``nbytes`` (replication included)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        cfg = self.config
        return cfg.op_latency + cfg.inter_az_latency + nbytes * cfg.replication / cfg.write_bandwidth

    def read_duration(self, nbytes: int) -> float:
        """Seconds to read ``nbytes`` from the nearest replica."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        cfg = self.config
        return cfg.op_latency + cfg.inter_az_latency + nbytes / cfg.read_bandwidth

    # -- data plane --------------------------------------------------------
    def put(self, path: str, data: Any, nbytes: int, t: float = 0.0) -> None:
        """Store an object durably (overwrites an existing path)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self._entries[path] = _DFSEntry(data=data, nbytes=nbytes, created_at=t)
        self.bytes_written_total += nbytes
        self.writes += 1

    def get(self, path: str) -> Any:
        """Fetch the object at ``path`` (KeyError if absent)."""
        entry = self._entries[path]
        self.bytes_read_total += entry.nbytes
        self.reads += 1
        return entry.data

    def exists(self, path: str) -> bool:
        return path in self._entries

    def size_of(self, path: str) -> int:
        """Stored size in bytes of the object at ``path``."""
        return self._entries[path].nbytes

    def delete(self, path: str) -> bool:
        """Remove a path; returns True if it existed."""
        return self._entries.pop(path, None) is not None

    def list_prefix(self, prefix: str) -> List[str]:
        """All stored paths starting with ``prefix`` (sorted)."""
        return sorted(p for p in self._entries if p.startswith(prefix))

    def delete_prefix(self, prefix: str) -> int:
        """Remove every path under a prefix; returns the count removed."""
        doomed = self.list_prefix(prefix)
        for path in doomed:
            del self._entries[path]
        return len(doomed)

    @property
    def used_bytes(self) -> int:
        """Logical bytes currently stored (pre-replication)."""
        return sum(e.nbytes for e in self._entries.values())

    @property
    def replicated_bytes(self) -> int:
        """Physical bytes on disk including replication."""
        return self.used_bytes * self.config.replication

    def items(self) -> Iterator[Tuple[str, int]]:
        """Iterate (path, nbytes) pairs."""
        for path, entry in self._entries.items():
            yield path, entry.nbytes
